import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contrast_lab.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    TRACE_HEADER,
    emit_trace,
    export_long_format,
    main,
)
from contrast_lab.config import ExperimentConfig, parse_config
from contrast_lab.contrastive import HyperParams
from contrast_lab.errors import ConfigError
from contrast_lab.rng import RngState
from contrast_lab import Shape, generate_separated, init_params
from contrast_lab.trainer import train

TINY = {
    "n": 5, "k": 2, "L": 2, "m": 24, "d": 6, "b": 6,
    "seed": 3, "T": 4, "eta": 0.05, "gamma": 0.05,
}


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

    def test_seed_override_changes_artifacts(self, tmp_path):
        cfg = _write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", cfg, "--out", str(a)])
        main(["train", "--config", cfg, "--out", str(b), "--seed", "99"])
        assert (a / "trace.csv").read_bytes() != (b / "trace.csv").read_bytes()

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

    def test_sweep_emits_table_and_slopes(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--m-grid", "16,32,64"]) == EXIT_PASS
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 4
        payload = json.loads((out / "sweep.json").read_text())
        assert "fit_grad_w" in payload and "slope" in payload["fit_grad_w"]

    def test_bad_config_exits_with_failure(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 8, "k": 9, "L": 3, "m": 8, "d": 4, "b": 4}')
        assert main(["train", "--config", str(path)]) == EXIT_FAIL

    @pytest.mark.parametrize("overrides, argv", [
        ({"b": 1}, ["train"]),
        ({"mode": "mc"}, ["train"]),
        ({"T": True}, ["train"]),
        ({"eta": "0.1"}, ["train"]),
        ({"out_dir": 5}, ["train"]),
        ({}, ["sweep", "--m-grid", "32,x"]),
        ({}, ["sweep", "--m-grid", "32"]),
        ({"probes": []}, ["probe"]),
        ({}, ["train", "--config", "{tmp}/missing.json"]),
        ({}, ["train", "--out", "{tmp}/config.json"]),
        ({"out_dir": "a\0b"}, ["train"]),
        ({}, ["train", "--out", "a\0b"]),
        ({"eta": math.nan}, ["train"]),
        ({"eta": math.nan}, ["sweep", "--m-grid", "16,32"]),
        ({"gamma": math.inf}, ["probe", "--probes", "ce"]),
        ({"gamma": 10**400}, ["train"]),
        ({"m": 10**12}, ["train"]),
        ({"m": 10**19}, ["train"]),
    ])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, overrides, argv):
        cfg = _write_config(tmp_path, **overrides)
        out = tmp_path / "bad"
        tail = [a.format(tmp=tmp_path) for a in argv[1:]]  # later flags win
        assert main(argv[:1] + ["--config", cfg, "--out", str(out)] + tail) == EXIT_FAIL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_config_not_utf8_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"n": 5, "out_dir": "\xff"}')
        assert main(["train", "--config", str(path)]) == EXIT_FAIL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_monte_carlo_mode(self, tmp_path):
        cfg = _write_config(tmp_path, T=3, mode="monte-carlo", mc_samples=200)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(a)]) == EXIT_PASS
        assert main(["train", "--config", cfg, "--out", str(b)]) == EXIT_PASS
        for name in ("trace.csv", "plot_data.csv", "summary.json",
                     "params_query.bin", "params_key.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--m-grid", "16,32"]) in (EXIT_PASS, EXIT_INCONCLUSIVE)
        assert main(["probe", "--config", cfg, "--out", str(tmp_path / "p"),
                     "--probes", "gradient"]) in (EXIT_PASS, EXIT_INCONCLUSIVE)

    def test_verify_passes_where_rounding_broke_it(self, tmp_path):
        # At this seed one gradient entry of 7.46e-9 differs from its central
        # difference by 1.1e-12, which is rounding, not a wrong gradient.
        cfg = _write_config(tmp_path, n=8, k=2, L=3, m=512, d=32, b=16, T=200,
                            eta=0.0625, gamma=0.0625, seed=2017931360)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == EXIT_PASS


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
              | st.sampled_from(["exact", "monte-carlo", "practical", "theoretical", "out",
                                 ["init"], ["ce", "gradient"]]))
_KEYS = st.sampled_from(_FIELDS) | st.text(max_size=8)
# whole documents, and the valid TINY with one key set to an arbitrary value
_DOCUMENTS = (st.dictionaries(_KEYS, _JSON_VALUES | _PLAUSIBLE, max_size=8)
              | st.builds(lambda key, value: {**TINY, key: value}, _KEYS,
                          _JSON_VALUES | _PLAUSIBLE))


@given(doc=_DOCUMENTS)
@example(doc={**TINY, "eta": math.nan})
@example(doc={**TINY, "gamma": -math.inf})
@example(doc={**TINY, "epsilon": 10**400})
@example(doc={**TINY, "out_dir": "a\0b"})
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
