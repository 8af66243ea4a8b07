"""Command-line entry point.

Commands
--------
train   : run gradient descent on a fresh initialization, write trace + params
verify  : run the oracle-equivalence checks at reduced scale
probe   : run the selected measurement probes, write one JSON report each
sweep   : repeat the gradient-scaling measurement across an m-grid

Exit codes: 0 every selected check passed; 1 a check failed or an error
occurred; 3 at least one probe was inconclusive (fit quality below the R^2
gate) and none failed.

All artifacts embed the full config and the package version; re-running a
command with an identical config and seed reproduces every artifact byte for
byte.  Wall-clock timings therefore go to a separate timings.log, never into
the CSV/JSON outputs.
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
from .contrastive import HyperParams, grad_params, loss_and_vectors, encode_batch, total_loss_exact, total_loss_mc
from .data import Dataset, generate_separated
from .encoder import Params, Shape, init_params
from .errors import ConfigError, ContrastLabError
from .monitors import (
    ce_smoothness_check,
    fit_loglog,
    gradient_bound_probe,
    gradient_rows,
    init_probe,
    perturbation_probe,
    smoothness_probe,
)
from .oracle import DEFAULT_FD_STEP, fd_gradient, kink_mask
from .rng import RngState
from .trainer import TrainTrace, theoretical_step_size, train

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 3

# Chance that a correct sampler fails verify's Monte-Carlo clause (two-sided).
MC_FALSE_FAILURE_P = 1e-6

# Per-step trace columns after ``t``, in the order both CSV writers use.
TRACE_COLUMNS = ("loss", "losstilde_norm", "losshat_norm", "loss_vec_norm",
                 "grad_w_fro", "grad_theta_fro", "traj_w_fro", "traj_theta_fro")
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
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8")


def _hyperparams(cfg: ExperimentConfig, delta: float) -> HyperParams:
    """The config's hyperparameters with the exact loss; only ``train``
    switches to the config's ``mode``."""
    if cfg.step_mode == "theoretical":
        eta = gamma = theoretical_step_size(cfg.n, cfg.k, cfg.L, cfg.m, cfg.d, delta, cfg.epsilon)
    else:
        eta, gamma = cfg.eta, cfg.gamma
    return HyperParams(k=cfg.k, eta=eta, gamma=gamma, T=cfg.T, epsilon=cfg.epsilon,
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
    out.mkdir(parents=True, exist_ok=True)
    emit_trace(trace, out / "trace.csv")
    export_long_format(trace, out / "plot_data.csv")
    (out / "params_query.bin").write_bytes(qp_final.to_bytes())
    (out / "params_key.bin").write_bytes(kp_final.to_bytes())
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


def cmd_verify(cfg: ExperimentConfig, out: Path) -> int:
    """Oracle-equivalence checks at reduced scale: loss vectors against finite
    differences of the exact loss, parameter gradients against finite
    differences at small width, and Monte-Carlo against the exact expectation.
    """
    small = ExperimentConfig(**{**cfg.to_dict(),
                                "m": min(cfg.m, 32), "n": min(cfg.n, 6),
                                "k": min(cfg.k, min(cfg.n, 6) - 1),
                                "d": min(cfg.d, 8), "b": min(cfg.b, 8),
                                "probes": cfg.probes})
    root, data, qp, kp, hp = _setup(small)
    results: dict[str, bool] = {}

    batch = encode_batch(qp, kp, data)
    _, lv = loss_and_vectors(batch, small.k)
    results["losshat_sums_to_zero"] = bool(
        np.linalg.norm(lv.losshat.sum(axis=0)) <= 1e-10 * max(lv.hat_norm, 1e-30))

    g = grad_params(qp, kp, data, hp)
    fd = fd_gradient(lambda a, b_: total_loss_exact(encode_batch(a, b_, data), small.k), qp, kp)
    km = kink_mask(qp, kp, data, 1e-4)
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

    exact = total_loss_exact(batch, small.k)
    est, stderr = total_loss_mc(batch, small.k, root.child("verify-mc"), samples=4000)
    z = -float(ndtri(MC_FALSE_FAILURE_P / 2))
    results["mc_within_z_stderr"] = abs(est - exact) <= z * max(stderr, 1e-30)

    ce = ce_smoothness_check(root.child("verify-ce"), trials=10_000)
    results["ce_smoothness"] = bool(ce.passed)

    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "verify.json", {**_stamp(cfg), "results": results, "max_grad_rel_error": rel,
                                      "mc_false_failure_p": MC_FALSE_FAILURE_P, "mc_z": z})
    for name, ok in results.items():
        print(f"verify: {name}: {'pass' if ok else 'FAIL'}")
    return EXIT_PASS if all(results.values()) else EXIT_FAIL


def _run_probe(name: str, cfg: ExperimentConfig, root: RngState,
               data: Dataset, qp: Params, kp: Params, hp: HyperParams):
    if name == "init":
        return init_probe(qp, kp, data)
    if name == "gradient":
        ms = tuple(sorted({max(64, cfg.m // 4), cfg.m, cfg.m * 2}))
        return gradient_bound_probe(data, hp, ms, cfg.L, cfg.d, root.child("grad-probe"))
    if name == "smoothness":
        rhos = tuple(float(x) for x in np.geomspace(1e-4, 1e-2, 7))
        return smoothness_probe(qp, kp, data, hp, rhos, root.child("smooth-probe"))
    if name == "perturbation":
        omegas = tuple(float(x) for x in np.geomspace(1e-4, 1e-1, 7))
        return perturbation_probe(qp, data, omegas, root.child("perturb-probe"))
    if name == "ce":
        return ce_smoothness_check(root.child("ce-probe"), trials=100_000)
    raise ContrastLabError(f"unknown probe {name!r}")


def cmd_probe(cfg: ExperimentConfig, out: Path) -> int:
    if not cfg.probes:
        raise ConfigError("probe needs at least one probe name")
    root, data, qp, kp, hp = _setup(cfg)
    out.mkdir(parents=True, exist_ok=True)
    any_fail = any_inconclusive = False
    rows = []
    for name in cfg.probes:
        report = _run_probe(name, cfg, root, data, qp, kp, hp)
        _write_json(out / f"probe_{name}.json",
                    {**_stamp(cfg), "report": json.loads(report.to_json())})
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


def cmd_sweep(cfg: ExperimentConfig, out: Path, m_grid: tuple[int, ...]) -> int:
    root = RngState(seed=cfg.seed)
    data = generate_separated(root.child("data"), cfg.n, cfg.b, cfg.delta_min)
    hp = _hyperparams(cfg, data.delta)
    rows = gradient_rows(data, hp, m_grid, cfg.L, cfg.d, root)
    ms = np.asarray([r["m"] for r in rows], dtype=np.float64)
    fit_w = fit_loglog(ms, np.asarray([r["grad_w_sq"] for r in rows]))
    fit_t = fit_loglog(ms, np.asarray([r["grad_theta_sq"] for r in rows]))
    out.mkdir(parents=True, exist_ok=True)
    header = "m,loss,grad_w_sq,grad_theta_sq,losstilde_norm,losshat_norm"
    lines = [header] + [
        ",".join([str(r["m"])] + [_fmt(r[c]) for c in header.split(",")[1:]])
        for r in rows
    ]
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(out / "sweep.json", {
        **_stamp(cfg), "m_grid": list(m_grid), "rows": rows,
        "fit_grad_w": fit_w.to_jsonable(), "fit_grad_theta": fit_t.to_jsonable(),
    })
    for r in rows:
        print(f"sweep: m={r['m']:<6} grad_w_sq={r['grad_w_sq']:.6g} "
              f"grad_theta_sq={r['grad_theta_sq']:.6g}")
    print(f"sweep: slope grad_w {fit_w.slope:.3f} (R2={fit_w.r2:.4f}), "
          f"grad_theta {fit_t.slope:.3f} (R2={fit_t.r2:.4f})")
    return EXIT_PASS


def _parse_m_grid(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"--m-grid must be comma-separated integers, got {text!r}") from None
    if min(grid) < 1 or len(set(grid)) < 2:
        raise ConfigError(f"--m-grid needs two or more distinct positive widths, got {text!r}")
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contrast-lab",
        description="Numerical laboratory for two-encoder contrastive training "
                    "with exact negative-sampling expectations.",
        epilog="Exit codes: 0 pass, 1 failure, 3 inconclusive probe fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "verify", "probe", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if name == "probe":
            p.add_argument("--probes", default=None,
                           help="comma-separated probe names (overrides config)")
        if name == "sweep":
            p.add_argument("--m-grid", default="256,1024,4096",
                           help="comma-separated hidden widths")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if getattr(args, "probes", None):
            cfg.probes = tuple(args.probes.split(","))
        cfg.validate()
        if args.out is not None and "\0" in args.out:  # validate checks out_dir
            raise ConfigError(f"--out contains a NUL byte: {args.out!r}")
        out = Path(args.out if args.out is not None else cfg.out_dir)
        if args.command == "train":
            return cmd_train(cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, out)
        if args.command == "probe":
            return cmd_probe(cfg, out)
        return cmd_sweep(cfg, out, _parse_m_grid(args.m_grid))
    except (ContrastLabError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
