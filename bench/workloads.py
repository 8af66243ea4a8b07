"""The benchmark's workloads and the checks their outputs must pass.

Importing this module loads only the standard library, so a child process
can import it before it starts timing the import of contrast_lab.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

DESK = {"n": 8, "k": 2, "L": 3, "m": 512, "d": 32, "b": 16, "T": 200}
# the config `contrast-lab verify` shrinks DESK to
SMALL = {**DESK, "n": 6, "m": 32, "d": 8, "b": 8}

REF_REL_TOL = 1e-9  # program values against the numpy reference
# Closed-form gradient against central differences (h = 1e-4) off the ReLU
# kinks: |analytic - fd| <= FD_RTOL * |fd| + FD_ATOL.  FD_ATOL is about 500
# times the rounding error of a central difference of an O(1) loss
# (eps / h ~ 2e-12); without it, entries near 1e-8 fail on rounding alone.
FD_RTOL, FD_ATOL = 1e-4, 1e-9
MC_SAMPLES = 4000
MC_STDERRS = 5.0  # a correct sampler lands outside 5 stderr on ~6e-7 of seeds

MC = {**DESK, "n": 10, "k": 3}
MC_LOSS_STREAMS, MC_LOSS_SAMPLES = 40, 10_000
MC_GRAD_STREAMS, MC_GRAD_SAMPLES = 8, 2000
# Of 40 correct estimates, 5 or more land outside 3 stderr with probability
# ~1e-7, so the 3-stderr coverage must be at least 0.9.
MC_MIN_COVERAGE = 0.9
MC_GRAD_REL_TOL = 0.05  # Monte-Carlo gradient against the exact one, relative 2-norm


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    command: tuple[str, ...] | None  # CLI arguments before --config; None: library calls
    expected_exit: int | None  # None: the exit code follows the run's verdicts
    artifacts: tuple[str, ...]


WORKLOADS = {w.name: w for w in (
    Workload("desk-train", DESK, ("train",), 0,
             ("trace.csv", "plot_data.csv", "summary.json", "params_query.bin", "params_key.bin")),
    # The work of `contrast-lab verify`, called through the library so that
    # the benchmark can check the values behind its verdicts (see _oracle).
    Workload("verify-small", SMALL, None, 0, ()),
    # The samplers through the library: the CLI cannot run them, since
    # `"mode": "monte-carlo"` fails in `train`.
    Workload("mc-sampling", MC, None, 0, ()),
    # The exit code is the probes' verdict.  It is 1 on most seeds (the flip
    # exponent sits outside the 2/3 band) and 0 on some (seed 805).
    Workload("wide-probe", {**DESK, "m": 2048}, ("probe", "--probes", "init,perturbation"), None,
             ("probe_init.json", "probe_perturbation.json")),
)}


def run(workload: Workload, cfg, config_path: str, out: Path):
    """The timed call: (exit code, outputs kept in memory for the check)."""
    if workload.command is None:
        return 0, _LIBRARY_CALLS[workload.name](cfg)
    import contrast_lab.cli

    argv = list(workload.command) + ["--config", config_path, "--out", str(out)]
    return contrast_lab.cli.main(argv), None


def _oracle(cfg) -> dict:
    """What `contrast-lab verify` computes on its shrunken config: loss
    vectors, closed-form and finite-difference gradients, the kink mask, the
    exact and Monte-Carlo losses, and the cross-entropy smoothness check.

    verify reduces these to pass/fail verdicts at fixed tolerances, and on
    some seeds a verdict fails although the values are right (a rounding-
    sized gradient difference, or a 3-stderr Monte-Carlo miss), so the
    benchmark keeps the values and checks them itself.  Names are imported
    here, after the tracer has wrapped them.
    """
    from contrast_lab.contrastive import (HyperParams, encode_batch, grad_params, loss_and_vectors,
                                          total_loss_exact, total_loss_mc)
    from contrast_lab.monitors import ce_smoothness_check
    from contrast_lab.oracle import fd_gradient, kink_mask
    from contrast_lab.rng import RngState

    root = RngState(seed=cfg.seed)
    data, qp, kp = _inputs(cfg)
    hp = HyperParams(k=cfg.k, eta=cfg.eta, gamma=cfg.gamma, T=cfg.T, epsilon=cfg.epsilon,
                     mode=cfg.mode, mc_samples=cfg.mc_samples, enumeration_cap=cfg.enumeration_cap)
    batch = encode_batch(qp, kp, data)
    _, lv = loss_and_vectors(batch, cfg.k)
    grad = grad_params(qp, kp, data, hp)
    fd = fd_gradient(lambda a, b: total_loss_exact(encode_batch(a, b, data), cfg.k), qp, kp)
    km = kink_mask(qp, kp, data, 1e-4)
    exact = total_loss_exact(batch, cfg.k)
    est, stderr = total_loss_mc(batch, cfg.k, root.child("verify-mc"), samples=MC_SAMPLES)
    ce = ce_smoothness_check(root.child("verify-ce"), trials=10_000)
    return {"data": data, "qp": qp, "kp": kp, "lv": lv, "grad": grad, "fd": fd, "km": km,
            "exact": exact, "est": est, "stderr": stderr, "ce": ce}


def _mc_sampling(cfg) -> dict:
    """Monte-Carlo losses and gradients over fixed lists of sampler streams."""
    from contrast_lab.contrastive import HyperParams, encode_batch, grad_params, total_loss_mc
    from contrast_lab.rng import RngState

    root = RngState(seed=cfg.seed)
    data, qp, kp = _inputs(cfg)
    batch = encode_batch(qp, kp, data)
    estimates = [total_loss_mc(batch, cfg.k, root.child(f"mc-loss-{i}"), samples=MC_LOSS_SAMPLES)
                 for i in range(MC_LOSS_STREAMS)]
    hp = HyperParams(k=cfg.k, eta=cfg.eta, gamma=cfg.gamma, T=cfg.T, epsilon=cfg.epsilon,
                     mode="monte-carlo", mc_samples=MC_GRAD_SAMPLES)
    grads = [grad_params(qp, kp, data, hp, rng=root.child(f"mc-grad-{i}"))
             for i in range(MC_GRAD_STREAMS)]
    return {"data": data, "qp": qp, "kp": kp, "batch": batch, "estimates": estimates, "grads": grads}


_LIBRARY_CALLS = {"verify-small": _oracle, "mc-sampling": _mc_sampling}


def _inputs(cfg):
    """Dataset and initial networks, drawn from the same streams as the CLI."""
    from contrast_lab.data import generate_separated
    from contrast_lab.encoder import Shape, init_params
    from contrast_lab.rng import RngState

    root = RngState(seed=cfg.seed)
    data = generate_separated(root.child("data"), cfg.n, cfg.b, cfg.delta_min)
    shape = Shape(L=cfg.L, m=cfg.m, d=cfg.d, b=cfg.b)
    return data, init_params(root.child("query-net"), shape), init_params(root.child("key-net"), shape)


def check(name: str, cfg, out: Path, exit_code: int, outputs) -> list[str]:
    """Problems found in a run's exit code, artifacts and outputs; empty when
    they are correct."""
    workload = WORKLOADS[name]
    problems = []
    if workload.expected_exit is not None and exit_code != workload.expected_exit:
        problems.append(f"exit code {exit_code}, expected {workload.expected_exit}")
    missing = [f for f in workload.artifacts if not (out / f).is_file()]
    if missing:
        return problems + [f"missing artifacts {missing}"]
    return problems + _CHECKS[name](cfg, out, exit_code, outputs)


def _check_desk_train(cfg, out: Path, exit_code: int, outputs) -> list[str]:
    import numpy as np

    import reference

    data, qp, kp = _inputs(cfg)
    xs = data.points
    q0, k0 = list(qp.weights), list(kp.weights)
    qt, kt = reference.read_params(out / "params_query.bin"), reference.read_params(out / "params_key.bin")
    initial = reference.exact_loss(reference.encode(q0, xs), reference.encode(k0, xs), cfg.k)
    final = reference.exact_loss(reference.encode(qt, xs), reference.encode(kt, xs), cfg.k)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    col = {h: rows[:, i] for i, h in enumerate(header)}
    problems = []
    expect = [
        ("summary initial_loss", summary["initial_loss"], initial),
        ("summary final_loss", summary["final_loss"], final),
        ("trace first loss", col["loss"][0], initial),
        ("trace last loss", col["loss"][-1], final),
        ("trace last traj_w_fro", col["traj_w_fro"][-1], reference.frobenius_distance(qt, q0)),
        ("trace last traj_theta_fro", col["traj_theta_fro"][-1], reference.frobenius_distance(kt, k0)),
    ]
    for label, actual, wanted in expect:
        if not reference.close(float(actual), wanted, REF_REL_TOL):
            problems.append(f"{label} {actual!r} != reference {wanted!r}")
    if len(rows) != cfg.T + 1 or summary["steps"] != cfg.T:
        problems.append(f"{len(rows)} trace rows and {summary['steps']} steps for T={cfg.T}")
    norms = np.hypot(col["losstilde_norm"], col["losshat_norm"])
    if not np.allclose(col["loss_vec_norm"], norms, rtol=REF_REL_TOL, atol=0.0):
        problems.append("trace loss_vec_norm is not hypot(losstilde_norm, losshat_norm)")
    if not final < initial:
        problems.append(f"loss did not decrease: {initial!r} -> {final!r}")
    return problems


def _check_verify_small(cfg, out: Path, exit_code: int, o: dict) -> list[str]:
    """verify's four checks on the values behind them, at tolerances a
    correct program meets on every seed.  The values, and digests of the
    gradient arrays, go to oracle.json, which must repeat byte for byte."""
    import hashlib

    import numpy as np

    import reference

    problems = []
    lv = o["lv"]
    residual = float(np.linalg.norm(lv.losshat.sum(axis=0)))
    if not residual <= 1e-10 * max(lv.hat_norm, 1e-30):
        problems.append(f"losshat rows sum to {residual!r}, loss-hat norm {lv.hat_norm!r}")

    excess = -np.inf
    arrays = hashlib.sha256()
    pairs = ((o["grad"].grad_w, o["fd"][0], o["km"].query), (o["grad"].grad_theta, o["fd"][1], o["km"].key))
    for analytic, numeric, masks in pairs:
        for a, n, kinked in zip(analytic.weights, numeric.weights, masks):
            for array in (a, n, kinked):
                arrays.update(np.ascontiguousarray(array).tobytes())
            free = ~kinked
            if np.any(free):
                excess = max(excess, float(np.max(np.abs(a - n)[free] - FD_RTOL * np.abs(n)[free])))
    if not excess <= FD_ATOL:
        problems.append(f"closed-form gradient is off central differences by {excess!r} "
                        f"beyond {FD_RTOL} relative")

    xs = o["data"].points
    wanted = reference.exact_loss(reference.encode(list(o["qp"].weights), xs),
                                  reference.encode(list(o["kp"].weights), xs), cfg.k)
    if not reference.close(o["exact"], wanted, REF_REL_TOL):
        problems.append(f"exact loss {o['exact']!r} != reference {wanted!r}")
    if not abs(o["est"] - o["exact"]) <= MC_STDERRS * o["stderr"]:
        problems.append(f"MC estimate {o['est']!r} +- {o['stderr']!r} is over {MC_STDERRS} "
                        f"stderr from the exact loss {o['exact']!r}")
    if o["ce"].passed is not True:
        problems.append("cross-entropy smoothness check failed")

    out.mkdir(parents=True, exist_ok=True)
    summary = {"losshat_residual": residual, "fd_excess": excess, "exact": o["exact"],
               "mc_estimate": o["est"], "mc_stderr": o["stderr"], "ce": o["ce"].to_json(),
               "gradient_arrays_sha256": arrays.hexdigest()}
    (out / "oracle.json").write_text(json.dumps(summary, sort_keys=True) + "\n", encoding="utf-8")
    return problems


def _check_mc_sampling(cfg, out: Path, exit_code: int, o: dict) -> list[str]:
    """Statistical checks only: a change to a sampler may change its draws.
    The estimates, relative errors and a digest of the gradients go to
    mc.json, which must repeat byte for byte."""
    import hashlib

    import numpy as np

    from contrast_lab.contrastive import HyperParams, grad_params, total_loss_exact

    import reference

    problems = []
    exact = total_loss_exact(o["batch"], cfg.k)
    xs = o["data"].points
    wanted = reference.exact_loss(reference.encode(list(o["qp"].weights), xs),
                                  reference.encode(list(o["kp"].weights), xs), cfg.k)
    if not reference.close(exact, wanted, REF_REL_TOL):
        problems.append(f"exact loss {exact!r} != reference {wanted!r}")
    z = [abs(est - exact) / stderr for est, stderr in o["estimates"]]
    coverage = sum(v <= 3.0 for v in z) / len(z)
    if coverage < MC_MIN_COVERAGE or max(z) > MC_STDERRS:
        problems.append(f"MC loss estimates: 3-stderr coverage {coverage!r}, "
                        f"largest deviation {max(z)!r} stderr")

    hp = HyperParams(k=cfg.k, eta=cfg.eta, gamma=cfg.gamma, T=cfg.T, epsilon=cfg.epsilon)
    reference_grad = grad_params(o["qp"], o["kp"], o["data"], hp)
    flat = lambda g: np.concatenate([w.ravel() for w in g.grad_w.weights + g.grad_theta.weights])
    exact_flat = flat(reference_grad)
    digest = hashlib.sha256()
    rel = []
    for g in o["grads"]:
        mc_flat = flat(g)
        digest.update(mc_flat.tobytes())
        rel.append(float(np.linalg.norm(mc_flat - exact_flat) / np.linalg.norm(exact_flat)))
    if max(rel) > MC_GRAD_REL_TOL:
        problems.append(f"MC gradients off the exact one by {max(rel)!r} relative (> {MC_GRAD_REL_TOL})")

    out.mkdir(parents=True, exist_ok=True)
    summary = {"exact": exact, "estimates": o["estimates"], "grad_rel_errors": rel,
               "grads_sha256": digest.hexdigest()}
    (out / "mc.json").write_text(json.dumps(summary, sort_keys=True) + "\n", encoding="utf-8")
    return problems


def _finite_numbers(value) -> bool:
    if isinstance(value, bool) or value is None:
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    return False


def _check_wide_probe(cfg, out: Path, exit_code: int, outputs) -> list[str]:
    problems = []
    verdicts = []
    for name in ("init", "perturbation"):
        doc = json.loads((out / f"probe_{name}.json").read_text(encoding="utf-8"))
        report = doc.get("report", {})
        keys = {"name", "statement", "config", "scalars", "fits", "thresholds", "passed", "notes"}
        if set(report) != keys or doc.get("config", {}).get("seed") != cfg.seed:
            problems.append(f"probe_{name}.json is malformed")
            continue
        if not all(_finite_numbers(report[k]) for k in ("scalars", "fits", "thresholds")):
            problems.append(f"probe_{name}.json has a non-finite value")
        verdicts.append(report["passed"])
        if name == "perturbation":
            slope = report["fits"].get("output_drift_vs_omega", {}).get("slope", math.nan)
            if not 0.9 <= slope <= 1.1:
                problems.append(f"output drift slope {slope!r} outside [0.9, 1.1]")
    # the CLI's rule: 1 if a probe failed, else 3 if one was inconclusive, else 0
    expected = 1 if False in verdicts else 3 if None in verdicts else 0
    if len(verdicts) == 2 and exit_code != expected:
        problems.append(f"exit code {exit_code} for probe verdicts {verdicts}, expected {expected}")
    return problems


_CHECKS = {
    "desk-train": _check_desk_train,
    "verify-small": _check_verify_small,
    "wide-probe": _check_wide_probe,
    "mc-sampling": _check_mc_sampling,
}
