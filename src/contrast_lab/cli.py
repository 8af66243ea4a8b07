"""Command-line entry point.

Commands
--------
train   : run gradient descent on a fresh initialization, write trace + params
verify  : run the oracle-equivalence checks at reduced scale
probe   : run the selected measurement probes, write one JSON report each

The config file is the experiment: it holds every setting.  The command line
says what to run and where: --out (default ``out``), and for probe --probes
(default all).  Every probe runs one configuration: the gradient probe fits
the widths (m/4, m, 4m) of the config's nets.  Every flag, the enumeration
cap and the memory of the widest net are checked, and --out created, before
any net is drawn.

Exit codes: 0 every selected check passed; 1 a check failed or an error
occurred, bad argv included; 3 at least one probe was inconclusive (fewer
than three distinct sweep points, or a fit below its R^2 gate) and none failed.

All artifacts embed the config file, parsed with its defaults filled in, and
the package version; re-running a command with an identical config reproduces
every artifact byte for byte.  Wall-clock timings therefore go to a separate
timings.log, never into the CSV/JSON outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from . import __version__
from .config import ExperimentConfig, load_config
from .contrastive import (HyperParams, check_subsets, encode_batch, grad_params,
                          total_loss_exact, total_loss_mc)
from .data import Dataset, generate_separated
from .encoder import Params, Shape, init_params
from .errors import ConfigError, ContrastLabError
from .monitors import (GRADIENT_WIDTH_RATIO, ce_smoothness_check, gradient_bound_probe, init_probe,
                       perturbation_probe, smoothness_probe)
from .oracle import DEFAULT_FD_STEP, fd_gradient, kink_mask
from .rng import RngState
from .trainer import StepRecord, TrainTrace, theoretical_step_size, train

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 3

# Chance that a correct sampler fails verify's Monte-Carlo clause (two-sided).
MC_FALSE_FAILURE_P = 1e-6

# Per-step trace columns after ``t``, in the order both CSV writers use: the
# record's fields less the step timing, which goes to timings.log only.
TRACE_COLUMNS = tuple(f.name for f in dataclasses.fields(StepRecord)
                      if f.name not in ("t", "step_ms"))
TRACE_HEADER = ",".join(("t",) + TRACE_COLUMNS)


def _fmt(x: float) -> str:
    return "%.17g" % x


def emit_trace(trace: TrainTrace, path: str | Path) -> None:
    """Write the training trace as CSV.  Step timings go to timings.log only,
    so that re-runs are byte-identical."""
    lines = [TRACE_HEADER]
    for r in trace.records:
        lines.append(",".join([str(r.t)] + [_fmt(getattr(r, c)) for c in TRACE_COLUMNS]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def export_long_format(trace: TrainTrace, path: str | Path) -> None:
    """Long-format (t, metric, value) CSV for external plotting tools."""
    lines = ["t,metric,value"]
    for r in trace.records:
        for name in TRACE_COLUMNS:
            lines.append(f"{r.t},{name},{_fmt(getattr(r, name))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _stamp(cfg: ExperimentConfig) -> dict:
    return {"version": __version__, "config": cfg.to_dict()}


def _write_json(path: Path, payload: dict) -> None:
    # strict JSON: a NaN or an infinity raises rather than write a token parsers reject
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def _hyperparams(cfg: ExperimentConfig, delta: float) -> HyperParams:
    """The config's hyperparameters with the exact loss; only ``train``
    switches to the config's ``mode``."""
    if cfg.step_mode == "theoretical":
        eta = gamma = theoretical_step_size(cfg.n, cfg.k, cfg.L, cfg.m, cfg.d, delta, cfg.epsilon)
    else:
        eta, gamma = cfg.eta, cfg.gamma
    return HyperParams(k=cfg.k, eta=eta, gamma=gamma, T=cfg.T,
                       mc_samples=cfg.mc_samples, enumeration_cap=cfg.enumeration_cap)


def _setup(cfg: ExperimentConfig) -> tuple[RngState, Dataset, Params, Params, HyperParams]:
    root = RngState(seed=cfg.seed)
    data = generate_separated(root.child("data"), cfg.n, cfg.b, cfg.delta_min)
    shape = Shape(L=cfg.L, m=cfg.m, d=cfg.d, b=cfg.b)
    qp = init_params(root.child("query-net"), shape)
    kp = init_params(root.child("key-net"), shape)
    return root, data, qp, kp, _hyperparams(cfg, data.delta)


def cmd_train(cfg: ExperimentConfig, out: Path) -> int:
    root, data, qp, kp, hp = _setup(cfg)
    hp = dataclasses.replace(hp, mode=cfg.mode)
    trace, qp_final, kp_final = train(qp, kp, data, hp, rng=root.child("mc-loss"))
    emit_trace(trace, out / "trace.csv")
    export_long_format(trace, out / "plot_data.csv")
    qp_final.write(out / "params_query.bin")
    kp_final.write(out / "params_key.bin")
    first, last = trace.records[0], trace.records[-1]
    _write_json(out / "summary.json", {
        **_stamp(cfg),
        "delta": data.delta,
        "steps": len(trace) - 1,
        "initial_loss": first.loss,
        "final_loss": last.loss,
        "initial_loss_vec_norm": first.loss_vec_norm,
        "final_loss_vec_norm": last.loss_vec_norm,
        "running_average_loss_vec_norm": trace.running_average_loss_norm,
        "final_traj_w_fro": last.traj_w_fro,
        "final_traj_theta_fro": last.traj_theta_fro,
    })
    with open(out / "timings.log", "w", encoding="utf-8") as fh:
        total = sum(r.step_ms for r in trace.records)
        fh.write(f"total_ms={total:.3f}\n")
        for r in trace.records:
            fh.write(f"t={r.t} step_ms={r.step_ms:.3f}\n")
    print(f"train: {len(trace) - 1} steps, loss {first.loss:.6f} -> {last.loss:.6f}")
    return EXIT_PASS


def _verify_scale(cfg: ExperimentConfig) -> ExperimentConfig:
    n = min(cfg.n, 6)
    return dataclasses.replace(cfg, m=min(cfg.m, 32), n=n, k=min(cfg.k, n - 1), d=min(cfg.d, 8),
                               b=min(cfg.b, 8))


def cmd_verify(cfg: ExperimentConfig, out: Path) -> int:
    """Oracle-equivalence checks at reduced scale, one clause each:
    ``losshat_sums_to_zero`` (the key-side loss vectors sum to zero),
    ``grad_matches_finite_differences`` (both parameter gradients against
    central differences of the exact loss, off the kink mask) and
    ``mc_within_z_stderr`` (the Monte-Carlo loss within z standard errors of
    the exact expectation).
    """
    small = _verify_scale(cfg)
    root, data, qp, kp, hp = _setup(small)
    results: dict[str, bool] = {}

    g = grad_params(qp, kp, data, hp)
    lv = g.loss_vectors
    results["losshat_sums_to_zero"] = bool(
        np.linalg.norm(lv.losshat.sum(axis=0)) <= 1e-10 * max(lv.hat_norm, 1e-30))

    fd = fd_gradient(lambda a, b_: total_loss_exact(encode_batch(a, b_, data), small.k), qp, kp)
    km = kink_mask(qp, kp, data, DEFAULT_FD_STEP)
    # Absolute floor: a central difference's rounding error.  Each loss value
    # is exact to a few ulps of |loss| (8 allowed, for the forward pass and the
    # mean over subsets), so (L(+h) - L(-h)) / 2h is off by up to 8 eps |loss| / h
    # whatever the entry's size: about 2e-11 at |loss| ~ 1 and h = 1e-4.
    rtol = 1e-4
    floor = 8 * np.finfo(np.float64).eps * abs(g.loss) / DEFAULT_FD_STEP
    rel = 0.0
    for an, num, masks in ((g.grad_w, fd[0], km.query), (g.grad_theta, fd[1], km.key)):
        for a_l, n_l, kinked in zip(an.weights, num.weights, masks):
            free = ~kinked
            if not np.any(free):
                continue
            err = np.abs(a_l - n_l) / np.maximum(np.abs(n_l), floor / rtol)
            rel = max(rel, float(err[free].max()))
    results["grad_matches_finite_differences"] = rel <= rtol

    batch = encode_batch(qp, kp, data)
    est, stderr = total_loss_mc(batch, small.k, root.child("verify-mc"), samples=4000)
    z = -float(ndtri(MC_FALSE_FAILURE_P / 2))
    results["mc_within_z_stderr"] = abs(est - g.loss) <= z * max(stderr, 1e-30)

    _write_json(out / "verify.json", {**_stamp(cfg), "results": results, "max_grad_rel_error": rel,
                                      "mc_false_failure_p": MC_FALSE_FAILURE_P, "mc_z": z})
    for name, ok in results.items():
        print(f"verify: {name}: {'pass' if ok else 'FAIL'}")
    return EXIT_PASS if all(results.values()) else EXIT_FAIL


KNOWN_PROBES = ("init", "gradient", "smoothness", "perturbation", "ce")


def _run_probe(name: str, root: RngState, data: Dataset, qp: Params, kp: Params,
               hp: HyperParams):
    if name == "init":
        return init_probe(qp, kp, data)
    if name == "gradient":
        return gradient_bound_probe(data, hp, qp.shape, root.child("grad-probe"))
    if name == "smoothness":
        return smoothness_probe(qp, kp, data, hp, root.child("smooth-probe"))
    if name == "perturbation":
        return perturbation_probe(qp, data, root.child("perturb-probe"))
    return ce_smoothness_check(root.child("ce-probe"))  # "ce": _parse_probes admits no other


def cmd_probe(cfg: ExperimentConfig, out: Path, probes: tuple[str, ...]) -> int:
    root, data, qp, kp, hp = _setup(cfg)
    any_fail = any_inconclusive = False
    rows = []
    for name in probes:
        report = _run_probe(name, root, data, qp, kp, hp)
        _write_json(out / f"probe_{name}.json", {**_stamp(cfg), "report": report.to_jsonable()})
        status = {True: "pass", False: "FAIL", None: "inconclusive"}[report.passed]
        any_fail |= report.passed is False
        any_inconclusive |= report.passed is None
        rows.append((report.name, status))
    width = max(len(r[0]) for r in rows)
    for probe_name, status in rows:
        print(f"probe: {probe_name:<{width}}  {status}")
    if any_fail:
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE if any_inconclusive else EXIT_PASS


def _parse_probes(text: str) -> tuple[str, ...]:
    names = tuple(text.split(","))
    unknown = [p for p in names if p not in KNOWN_PROBES]
    if unknown:
        raise ConfigError(f"unknown probes {unknown}; known: {list(KNOWN_PROBES)}")
    if len(set(names)) < len(names):
        raise ConfigError(f"--probes names a probe twice: {text!r}")
    return names


class _Parser(argparse.ArgumentParser):
    """Bad argv is one ``error:`` line and exit 1, as in ``main``; subparsers inherit it."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="contrast-lab",
        description="Numerical laboratory for two-encoder contrastive training "
                    "with exact negative-sampling expectations.",
        epilog="Exit codes: 0 pass, 1 failure, 3 an inconclusive probe (fewer than three "
               "distinct sweep points, or a fit below its R^2 gate) and none failed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "verify", "probe"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config: the experiment")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        if name == "probe":
            p.add_argument("--probes", default=",".join(KNOWN_PROBES),
                           help="comma-separated probe names (default: all, %(default)s)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, value in vars(args).items():  # argparse reads "--flag=--" as []
            if isinstance(value, list):
                raise ConfigError(f"argument --{name}: expected one argument, got '--'")
        cfg = load_config(args.config)
        if "\0" in args.out:  # Path.mkdir raises ValueError, not OSError
            raise ConfigError(f"--out contains a NUL byte: {args.out!r}")
        if args.command == "probe":
            probes = _parse_probes(args.probes)
            if "gradient" in probes:  # the memory of its widest nets, as the config's m
                widest = GRADIENT_WIDTH_RATIO * cfg.m
                try:
                    dataclasses.replace(cfg, m=widest).validate()
                except ConfigError as err:
                    raise ConfigError(f"gradient probe width {widest}: {err}") from None
        # the commands that enumerate the exact loss, verify at its reduced scale
        if args.command == "verify":
            small = _verify_scale(cfg)
            check_subsets(small.n, small.k, cfg.enumeration_cap)
        elif (args.command == "train" and cfg.mode == "exact"
              or args.command == "probe" and {"smoothness", "gradient"} & set(probes)):
            check_subsets(cfg.n, cfg.k, cfg.enumeration_cap)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "train":
            return cmd_train(cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, out)
        return cmd_probe(cfg, out, probes)
    except (ContrastLabError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
