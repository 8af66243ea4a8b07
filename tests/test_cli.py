import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contrast_lab import cli, config, contrastive
from contrast_lab.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    TRACE_HEADER,
    build_parser,
    emit_trace,
    export_long_format,
    main,
)
from contrast_lab.config import ExperimentConfig, parse_config
from contrast_lab.contrastive import HyperParams
from contrast_lab.encoder import Params
from contrast_lab.errors import ConfigError
from contrast_lab.monitors import gradient_bound_probe
from contrast_lab.rng import RngState
from contrast_lab import Shape, generate_separated, init_params
from contrast_lab.trainer import theoretical_step_size, train

README = Path(__file__).resolve().parent.parent / "README.md"
TINY = {
    "n": 5, "k": 2, "L": 2, "m": 24, "d": 6, "b": 6,
    "seed": 3, "T": 4, "eta": 0.05, "gamma": 0.05,
}

# C(11,5) = 462 subsets per anchor, above the cap: only monte-carlo mode runs
ABOVE_CAP = {"n": 12, "k": 5, "L": 2, "m": 16, "d": 4, "b": 4, "T": 2, "enumeration_cap": 10}


class TestParseConfig:
    def test_minimal_document_gets_defaults(self):
        cfg = parse_config('{"n":8,"k":2,"L":3,"m":512,"d":32,"b":16,"seed":1}')
        assert cfg.T == 200
        assert cfg.delta_min == 0.5
        assert cfg.step_mode == "practical"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config('{"n":8,"k":2,"L":3,"m":8,"d":4,"b":4,"momentum":0.9}')

    def test_k_too_large(self):
        with pytest.raises(ConfigError, match="k must be ≤ n−1"):
            parse_config('{"n":8,"k":9,"L":3,"m":8,"d":4,"b":4}')

    def test_zero_T_rejected(self):
        with pytest.raises(ConfigError, match="T"):
            parse_config(json.dumps({**TINY, "T": 0}))

    def test_round_trip(self):
        cfg = parse_config(json.dumps(TINY))
        assert parse_config(json.dumps(cfg.to_dict())) == cfg


@pytest.fixture(scope="module")
def tiny_trace():
    root = RngState(seed=3)
    data = generate_separated(root.child("data"), 5, 6, 0.5)
    shape = Shape(L=2, m=24, d=6, b=6)
    qp = init_params(root.child("query-net"), shape)
    kp = init_params(root.child("key-net"), shape)
    trace, _, _ = train(qp, kp, data, HyperParams(k=2, eta=0.05, gamma=0.05, T=1))
    return trace


class TestEmitTrace:
    def test_header_and_row_count(self, tiny_trace, tmp_path):
        out = tmp_path / "trace.csv"
        emit_trace(tiny_trace, out)
        lines = out.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 3  # header + rows for t=0 and t=1

    def test_re_emission_is_byte_identical(self, tiny_trace, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_trace(tiny_trace, a)
        emit_trace(tiny_trace, b)
        assert a.read_bytes() == b.read_bytes()

    def test_loss_vec_norm_column_identity(self, tiny_trace, tmp_path):
        out = tmp_path / "trace.csv"
        emit_trace(tiny_trace, out)
        for line in out.read_text().splitlines()[1:]:
            cells = [float(c) for c in line.split(",")]
            _, _, tilde, hat, stacked = cells[:5]
            assert stacked == pytest.approx(math.hypot(tilde, hat), rel=1e-15)

    def test_long_format_export(self, tiny_trace, tmp_path):
        out = tmp_path / "long.csv"
        export_long_format(tiny_trace, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,metric,value"
        assert len(lines) == 1 + 8 * len(tiny_trace.records)


def _no_net(*args):
    raise AssertionError("a net was drawn before the input was rejected")


def _write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, **overrides}))
    return str(path)


class TestCommands:
    def test_train_writes_artifacts(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        for name in ("trace.csv", "plot_data.csv", "summary.json",
                     "params_query.bin", "params_key.bin", "timings.log"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["version"]
        assert summary["config"]["n"] == 5
        assert summary["steps"] == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", cfg, "--out", str(a)])
        main(["train", "--config", cfg, "--out", str(b)])
        for name in ("trace.csv", "summary.json", "params_query.bin", "params_key.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_verify_passes_on_default(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        results = json.loads((out / "verify.json").read_text())["results"]
        assert all(results.values())

    def test_probe_ce_passes(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "p"
        code = main(["probe", "--config", cfg, "--out", str(out), "--probes", "ce"])
        assert code == EXIT_PASS
        report = json.loads((out / "probe_ce.json").read_text())["report"]
        assert report["passed"] is True

    def test_probe_derives_the_gradient_widths_from_m(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "p"
        code = main(["probe", "--config", cfg, "--out", str(out), "--probes", "gradient"])
        report = json.loads((out / "probe_gradient.json").read_text())["report"]
        assert code == {True: EXIT_PASS, False: EXIT_FAIL, None: EXIT_INCONCLUSIVE}[report["passed"]]
        assert report["config"]["ms"] == [6, 24, 96]
        s = report["scalars"]
        for name in ("loss", "losstilde_norm", "losshat_norm"):
            assert len(s[name]) == 3 and all(math.isfinite(x) for x in s[name])
        root = RngState(seed=TINY["seed"])
        data = generate_separated(root.child("data"), TINY["n"], TINY["b"], 0.5)
        hp = HyperParams(k=TINY["k"], eta=TINY["eta"], gamma=TINY["gamma"], T=TINY["T"])
        shape = Shape(L=TINY["L"], m=TINY["m"], d=TINY["d"], b=TINY["b"])
        direct = gradient_bound_probe(data, hp, shape, root.child("grad-probe"))
        assert report == direct.to_jsonable()

    def test_theoretical_step_mode_takes_the_theorems_step(self, tmp_path):
        """With ``step_mode: theoretical`` the first step moves each net by
        eta times its gradient, eta = theoretical_step_size at the drawn
        data's delta, not by the config's eta and gamma.  The step rounds each
        entry of W_1 by at most eps/2 of it, and eta g by a few ulps, so with
        eta ||g||_F far below ||W_1||_F the distance is within eps ||W_1||_F."""
        cfg = _write_config(tmp_path, step_mode="theoretical", T=1)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        summary = json.loads((out / "summary.json").read_text())
        eta = theoretical_step_size(TINY["n"], TINY["k"], TINY["L"], TINY["m"], TINY["d"],
                                    summary["delta"], summary["config"]["epsilon"])
        with open(out / "trace.csv", encoding="utf-8") as fh:
            first, second = ({k: float(v) for k, v in row.items()} for row in csv.DictReader(fh))
        for net, name in (("query", "w"), ("key", "theta")):
            final = Params.from_bytes((out / f"params_{net}.bin").read_bytes())
            fro = math.sqrt(sum(float(np.sum(w ** 2)) for w in final.weights))
            got, want = second[f"traj_{name}_fro"], eta * first[f"grad_{name}_fro"]
            assert abs(got - want) <= np.finfo(np.float64).eps * fro, (net, got, want)

    def test_bad_config_exits_with_failure(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 8, "k": 9, "L": 3, "m": 8, "d": 4, "b": 4}')
        assert main(["train", "--config", str(path)]) == EXIT_FAIL

    @pytest.mark.parametrize("overrides, argv", [
        ({"b": 1}, ["train"]),
        ({"mode": "mc"}, ["train"]),
        ({"T": True}, ["train"]),
        ({"eta": "0.1"}, ["train"]),
        ({"probes": ["ce"]}, ["probe"]),
        ({}, ["probe", "--probes", "gradient", "--m-grid", "16,32"]),  # no such flag
        ({}, ["probe", "--out", "{tmp}/config.json"]),
        (ABOVE_CAP, ["probe", "--probes", "gradient"]),
        ({}, ["train", "--config", "{tmp}/missing.json"]),
        ({}, ["train", "--out", "{tmp}/config.json"]),
        ({}, ["verify", "--out", "{tmp}/config.json"]),
        ({}, ["train", "--out", "a\0b"]),
        ({"eta": math.nan}, ["train"]),
        ({"eta": math.nan}, ["probe", "--probes", "gradient"]),
        ({"gamma": math.inf}, ["probe", "--probes", "ce"]),
        ({"gamma": 10**400}, ["train"]),
        ({"m": 10**12}, ["train"]),
        ({"m": 10**19}, ["train"]),
        ({}, ["verify", "--probes", "ce"]),
        ({}, ["probe", "--probes", "gradient", "init"]),
        ({}, ["probe", "--probes"]),
        ({}, ["probe", "--probes", ""]),
        ({}, ["probe", "--probes", "ce,ce"]),
        ({}, ["probe", "--probes", "-3,5"]),
        (ABOVE_CAP, ["train"]),
        (ABOVE_CAP, ["probe", "--probes", "smoothness"]),
        (ABOVE_CAP, ["probe", "--probes", "ce,gradient"]),
        ({"enumeration_cap": 5}, ["verify"]),  # C(4,2) = 6 at verify's n=5, k=2
        ({"epsilon": 1.0}, ["train"]),
        ({"delta_min": 1.5}, ["probe", "--probes", "ce"]),
        ({}, ["probe", "--probes=--"]),  # argparse reads a value of "--" as []
        ({}, ["train", "--out=--"]),
        ({}, ["verify", "--config=--"]),
    ])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, monkeypatch, overrides, argv):
        monkeypatch.setattr(cli, "init_params", _no_net)  # every flag is checked before any net
        cfg = _write_config(tmp_path, **overrides)
        out = tmp_path / "bad"
        tail = [a.format(tmp=tmp_path) for a in argv[1:]]  # later flags win
        assert main(argv[:1] + ["--config", cfg, "--out", str(out)] + tail) == EXIT_FAIL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_argv_without_config_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["train", "--out", str(out)]) == EXIT_FAIL
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: the following arguments are required: --config"]
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["probe", "--help"])
        text = capsys.readouterr().out
        assert exit_.value.code == 0 and "--probes" in text and "--m-grid" not in text

    def test_default_gradient_widths_pass_the_memory_guard(self, tmp_path, capsys, monkeypatch):
        # memory that holds the weight stacks at the config's m=24 (13,824 bytes)
        # and at 2m=48 (46,080 bytes), but not at the probe's widest 4m=96
        # (165,888 bytes)
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 100_000}
        monkeypatch.setattr(config.os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(cli, "init_params", _no_net)
        out = tmp_path / "p"
        assert main(["probe", "--config", _write_config(tmp_path), "--out", str(out),
                     "--probes", "gradient"]) == EXIT_FAIL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: gradient probe width 96: ")
        assert not out.exists()

    def test_config_not_utf8_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"n": 5, "mode": "\xff"}')
        assert main(["train", "--config", str(path)]) == EXIT_FAIL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("text, message", [
        ('{"n": 5, "k": 2', "error: malformed config document: "),
        ('[{"n": 5, "k": 2}]', "error: config document must be a JSON object"),
    ])
    def test_config_text_that_is_no_object_is_one_error_line(self, tmp_path, capsys, text,
                                                             message):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_FAIL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert not out.exists()

    def test_monte_carlo_mode(self, tmp_path):
        cfg = _write_config(tmp_path, T=3, mode="monte-carlo", mc_samples=200)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(a)]) == EXIT_PASS
        assert main(["train", "--config", cfg, "--out", str(b)]) == EXIT_PASS
        for name in ("trace.csv", "plot_data.csv", "summary.json",
                     "params_query.bin", "params_key.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert main(["probe", "--config", cfg, "--out", str(tmp_path / "p"),
                     "--probes", "gradient"]) in (EXIT_PASS, EXIT_INCONCLUSIVE)

    def test_monte_carlo_train_runs_above_the_cap(self, tmp_path):
        cfg = _write_config(tmp_path, **ABOVE_CAP, mode="monte-carlo", mc_samples=50)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(a)]) == EXIT_PASS
        assert main(["train", "--config", cfg, "--out", str(b)]) == EXIT_PASS
        for name in ("trace.csv", "plot_data.csv", "summary.json",
                     "params_query.bin", "params_key.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_divergent_train_prints_only_its_error_line(self, tmp_path, capsys):
        # the desk config at eta = gamma = 8 overflows within a few steps; the
        # record's finiteness check reports it, and numpy issues no warning
        cfg = _write_config(tmp_path, n=8, k=2, L=3, m=512, d=32, b=16, T=200,
                            seed=1, eta=8.0, gamma=8.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        assert code == EXIT_FAIL
        assert not caught
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite loss or gradient at iteration 4\n"

    def test_verify_passes_where_rounding_broke_it(self, tmp_path):
        # At this seed one gradient entry of 7.46e-9 differs from its central
        # difference by 1.1e-12, which is rounding, not a wrong gradient.
        cfg = _write_config(tmp_path, n=8, k=2, L=3, m=512, d=32, b=16, T=200,
                            eta=0.0625, gamma=0.0625, seed=2017931360)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == EXIT_PASS

    def test_verify_fails_a_biased_sampler(self, tmp_path, monkeypatch):
        # every draw takes row 0, the first k others of each anchor: at verify's
        # n <= 6 every anchor has fewer subsets than draws, so the row draw runs
        monkeypatch.setattr(contrastive, "_draw_rows",
                            lambda gen, samples, n, subsets: np.zeros((samples, n), dtype=np.intp))
        out = tmp_path / "v"
        assert main(["verify", "--config", _write_config(tmp_path), "--out", str(out)]) == EXIT_FAIL
        payload = json.loads((out / "verify.json").read_text())
        assert payload["results"] == {"losshat_sums_to_zero": True,
                                      "grad_matches_finite_differences": True,
                                      "mc_within_z_stderr": False}
        assert payload["mc_false_failure_p"] == 1e-6
        assert payload["mc_z"] == pytest.approx(4.8916, abs=1e-4)

    def test_every_stamp_is_the_config_file(self, tmp_path):
        text = json.dumps({**TINY, "seed": 7})
        path = tmp_path / "config.json"
        path.write_text(text)
        for argv, artifact in ((["train"], "summary.json"), (["verify"], "verify.json"),
                               (["probe", "--probes", "ce"], "probe_ce.json")):
            out = tmp_path / f"{argv[0]}-run"
            assert main(argv[:1] + ["--config", str(path), "--out", str(out)] + argv[1:]) == EXIT_PASS
            stamp = json.loads((out / artifact).read_text())["config"]
            assert stamp == parse_config(text).to_dict(), argv

    def test_gradient_probe_needs_three_widths(self, tmp_path):
        # m=1 gives the widths (1, 1, 4), two distinct points, and a line
        # through two points has R^2 = 1
        cfg = _write_config(tmp_path, n=6, k=2, L=3, m=1, d=8, b=8, seed=1, T=20,
                            eta=0.0625, gamma=0.0625)
        out = tmp_path / "p"
        assert main(["probe", "--config", cfg, "--out", str(out),
                     "--probes", "gradient"]) == EXIT_INCONCLUSIVE
        report = json.loads((out / "probe_gradient.json").read_text())["report"]
        assert report["config"]["ms"] == [1, 1, 4] and report["passed"] is None

    @pytest.mark.parametrize("seed", [1, 3])
    def test_probe_artifacts_are_strict_json(self, tmp_path, capsys, seed):
        # at m=1 a dead sample's hidden norm is 0, log m is 0, and on seed 3
        # every output drift is 0: ratios no JSON number can hold
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": 4, "k": 1, "L": 2, "m": 1, "d": 2, "b": 2,
                                    "seed": seed, "T": 2}))
        out = tmp_path / "p"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["probe", "--config", str(path), "--out", str(out)])
        assert code == EXIT_FAIL  # the init probe's verdict
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in capsys.readouterr().err

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        written = sorted(out.glob("probe_*.json"))
        assert len(written) == 5
        for artifact in written:
            json.loads(artifact.read_text(), parse_constant=reject)


def test_docs_show_the_parser_commands_and_flags():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    block = README.read_text(encoding="utf-8").split("## CLI")[1].split("```")[1]
    shown = [line.split("#")[0].split() for line in block.splitlines()
             if line.startswith("contrast-lab ")]
    assert sorted({words[1] for words in shown}) == sorted(sub.choices)
    listing = cli.__doc__.split("--------\n")[1].split("\n\n")[0]
    assert [line.split()[0] for line in listing.splitlines()
            if not line.startswith(" ")] == list(sub.choices)
    for command, *words in (w[1:] for w in shown):
        for flag in (w for w in words if w.startswith("--")):
            assert flag in sub.choices[command]._option_string_actions, (command, flag)


_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]
_INT_FIELDS = ("n", "k", "L", "m", "d", "b", "T", "mc_samples", "enumeration_cap")
_EDGE_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), 2**64,
                                1e308, 0, -1, "", "a\0b"])
_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
                 | _EDGE_VALUES)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=5)
# values near the valid ranges, so that some documents pass validation
_PLAUSIBLE = (st.integers(-2, 40) | st.floats(-0.5, 2.0)
              | st.sampled_from(["exact", "monte-carlo", "practical", "theoretical"]))
_KEYS = st.sampled_from(_FIELDS) | st.text(max_size=8)
# whole documents, and the valid TINY with one key set to an arbitrary value
_DOCUMENTS = (st.dictionaries(_KEYS, _JSON_VALUES | _PLAUSIBLE, max_size=8)
              | st.builds(lambda key, value: {**TINY, key: value}, _KEYS,
                          _JSON_VALUES | _PLAUSIBLE))


@given(doc=_DOCUMENTS)
@example(doc={**TINY, "eta": math.nan})
@example(doc={**TINY, "gamma": -math.inf})
@example(doc={**TINY, "epsilon": 10**400})
@example(doc={**TINY, "out_dir": "out"})
@example(doc={**TINY, "mode": "monte-carlo", "mc_samples": 10**15})
@settings(max_examples=200, deadline=None)
def test_config_document_is_in_range_or_one_error_line(doc):
    # json.dumps writes NaN and Infinity, which json.loads reads back
    text = json.dumps(doc)
    try:
        cfg = parse_config(text)
    except ConfigError:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(text, encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["train", "--config", str(path), "--out", str(Path(tmp) / "out")])
            assert not (Path(tmp) / "out").exists()
        lines = err.getvalue().splitlines()
        assert code == EXIT_FAIL
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return
    for name in _INT_FIELDS + ("seed",):
        value = getattr(cfg, name)
        assert isinstance(value, int) and not isinstance(value, bool)
        assert name == "seed" or value >= 1
    for name in ("delta_min", "epsilon", "eta", "gamma"):
        assert math.isfinite(getattr(cfg, name))
    assert 0 < cfg.epsilon < 1 and 0 < cfg.delta_min < math.sqrt(2)
    assert cfg.eta > 0 and cfg.gamma > 0
    assert cfg.b >= 2 and 1 <= cfg.k <= cfg.n - 1


# valid lists (known names, each once), near misses, and noise
_PROBE_TEXT = (st.lists(st.sampled_from(cli.KNOWN_PROBES), min_size=1, unique=True)
               | st.lists(st.sampled_from(cli.KNOWN_PROBES + ("", "sweep", "Init")),
                          max_size=6)).map(",".join)
_ARG_TEXT = st.text(alphabet="0123456789,+-_ ex", max_size=8)


@given(probes=st.none() | _PROBE_TEXT | _ARG_TEXT)
@example(probes="gradient")
@example(probes="ce,ce")
@settings(max_examples=200, deadline=None)
def test_probe_argv_reaches_the_run_checked_or_is_one_error_line(probes):
    # the --flag=value form, since argparse reads a separate "-3,5" as a flag
    flags = [] if probes is None else [f"--probes={probes}"]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "cmd_probe", return_value=EXIT_PASS) as run, \
            mock.patch.object(cli, "init_params", _no_net):
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(TINY), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["probe", "--config", str(path), "--out", str(out)] + flags)
        created = out.exists()
    lines = err.getvalue().splitlines()
    if not run.called:
        assert code == EXIT_FAIL and not created
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return
    _, _, names = run.call_args.args
    assert code == EXIT_PASS and created and not lines
    assert names and set(names) <= set(cli.KNOWN_PROBES) and len(set(names)) == len(names)
