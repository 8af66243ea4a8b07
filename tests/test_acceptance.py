"""Acceptance gate: every check the package must pass, with pinned tolerances.

Each test prints one summary line with the measured values, so a full run
doubles as a report.  The checks certify, in order: the closed-form parameter
gradients, the closed-form loss vectors, exact-expectation consistency against
an independent enumerator, Monte-Carlo unbiasedness, initialization geometry,
gradient-norm scaling in width, semi-smoothness of the loss, desk-scale
convergence, perturbation response laws, smoothness of the softmax
log-partition, and bit-exact reproducibility of the command-line artifacts.
"""

import json
import math
import time
from itertools import combinations
from statistics import NormalDist

import numpy as np
import pytest

from contrast_lab import Shape, generate_separated, init_params
from contrast_lab.cli import EXIT_INCONCLUSIVE, EXIT_PASS, main
from contrast_lab.contrastive import (
    DEFAULT_ENUMERATION_CAP,
    EncodedBatch,
    HyperParams,
    encode_batch,
    grad_params,
    loss_and_vectors,
    total_loss_exact,
    total_loss_mc,
    _coefficient_table,
    _exact_groups,
)
from contrast_lab.monitors import (
    ce_smoothness_check,
    descent_check,
    gradient_bound_probe,
    init_probe,
    perturbation_probe,
    smoothness_probe,
)
from contrast_lab.oracle import enumerate_subsets, fd_gradient, kink_mask
from contrast_lab.rng import RngState
from contrast_lab.trainer import train


def _report(label: str, ok: bool, detail: str) -> bool:
    print(f"{label}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


@pytest.fixture(scope="module")
def cert_setup():
    """Shared small configuration for the two gradient certifications."""
    root = RngState(seed=1)
    data = generate_separated(root.child("data"), 6, 8, 0.5)
    shape = Shape(L=3, m=64, d=8, b=8)
    qp = init_params(root.child("query-net"), shape)
    kp = init_params(root.child("key-net"), shape)
    return data, qp, kp


def test_criterion_01_gradient_formula_certification(cert_setup):
    data, qp, kp = cert_setup
    k = 2
    started = time.monotonic()
    g = grad_params(qp, kp, data, HyperParams(k=k, eta=0.1, gamma=0.1, T=1))
    fd_w, fd_t = fd_gradient(
        lambda a, b: total_loss_exact(encode_batch(a, b, data), k), qp, kp)
    km = kink_mask(qp, kp, data, h=1e-4)
    worst = 0.0
    for analytic, numeric, kinked in ((g.grad_w, fd_w, km.query),
                                      (g.grad_theta, fd_t, km.key)):
        for a_l, n_l, mask in zip(analytic.weights, numeric.weights, kinked):
            free = ~mask
            err = np.abs(a_l - n_l) / np.maximum(np.abs(n_l), 1e-8)
            if np.any(free):
                worst = max(worst, float(err[free].max()))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-5 and km.marked_fraction < 0.05 and elapsed < 60.0
    assert _report(
        "criterion 1 (gradient formulas vs finite differences)", ok,
        f"max kink-free rel err {worst:.3e} (tol 1e-5), "
        f"kinked fraction {km.marked_fraction:.4f} (< 0.05), {elapsed:.1f}s (< 60s)")


def test_criterion_02_loss_vector_certification(cert_setup):
    data, qp, kp = cert_setup
    k, h = 2, 1e-5
    batch = encode_batch(qp, kp, data)
    n, d = batch.queries.shape
    _, lv = loss_and_vectors(batch, k)

    def loss_with(queries, keys):
        return total_loss_exact(
            EncodedBatch(queries=queries, keys=keys,
                         query_trace=None, key_trace=None), k)

    fd_tilde = np.zeros((n, d))
    fd_hat = np.zeros((n, d))
    for i in range(n):
        for r in range(d):
            for target, out in ((batch.queries, fd_tilde), (batch.keys, fd_hat)):
                plus, minus = target.copy(), target.copy()
                plus[i, r] += h
                minus[i, r] -= h
                if target is batch.queries:
                    hi_v, lo_v = loss_with(plus, batch.keys), loss_with(minus, batch.keys)
                else:
                    hi_v, lo_v = loss_with(batch.queries, plus), loss_with(batch.queries, minus)
                # loss vectors are gradients of n * mean loss
                out[i, r] = n * (hi_v - lo_v) / (2 * h)
    err_tilde = np.max(np.abs(lv.losstilde - fd_tilde)) / np.max(np.abs(fd_tilde))
    err_hat = np.max(np.abs(lv.losshat - fd_hat)) / np.max(np.abs(fd_hat))
    hat_sum = np.linalg.norm(lv.losshat.sum(axis=0)) / max(lv.hat_norm, 1e-300)
    ok = err_tilde <= 1e-7 and err_hat <= 1e-7 and hat_sum <= 1e-10
    assert _report(
        "criterion 2 (loss vectors vs finite differences)", ok,
        f"query-side rel err {err_tilde:.3e}, key-side rel err {err_hat:.3e} "
        f"(tol 1e-7), key-vector sum ratio {hat_sum:.3e} (tol 1e-10)")


def test_criterion_03_enumeration_consistency():
    gen = np.random.default_rng(2024)
    worst_loss = worst_pair = 0.0
    for n in range(2, 11):
        for k in range(1, min(4, n - 1) + 1):
            q = gen.standard_normal((n, 5))
            keys = gen.standard_normal((n, 5))
            batch = EncodedBatch(queries=q, keys=keys,
                                 query_trace=None, key_trace=None)
            # loss recomputed with the hand-rolled enumerator, scalar math only
            total = 0.0
            for i in range(n):
                acc = 0.0
                for s in enumerate_subsets(n, k, exclude=i):
                    logits = [float(q[i] @ (keys[j] - keys[i])) for j in s]
                    hi = max(max(logits), 0.0)
                    acc += hi + math.log(
                        math.exp(-hi) + sum(math.exp(g - hi) for g in logits))
                total += acc / math.comb(n - 1, k)
            want = total / n
            got = total_loss_exact(batch, k)
            coeff = _coefficient_table(batch, _exact_groups(n, k, DEFAULT_ENUMERATION_CAP))[1]
            worst_loss = max(worst_loss, abs(got - want) / abs(want))
            # pairwise vectors against containment-filtered enumeration
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    acc_vec = np.zeros(5)
                    for s in enumerate_subsets(n, k, exclude=i):
                        if j not in s:
                            continue
                        logits = [float(q[i] @ (keys[t] - keys[i])) for t in s]
                        denom = 1.0 + sum(math.exp(g) for g in logits)
                        p_j = math.exp(float(q[i] @ (keys[j] - keys[i]))) / denom
                        acc_vec += p_j * q[i]
                    acc_vec /= math.comb(n - 1, k)
                    diff = np.max(np.abs(coeff[i, j] * q[i] - acc_vec))
                    scale = max(np.max(np.abs(acc_vec)), 1e-300)
                    worst_pair = max(worst_pair, diff / scale)
    ok = worst_loss <= 1e-14 and worst_pair <= 1e-13
    assert _report(
        "criterion 3 (exact expectation vs independent enumeration)", ok,
        f"loss rel err {worst_loss:.3e} (tol 1e-14), "
        f"pair-vector rel err {worst_pair:.3e} (tol 1e-13), all n<=10 k<=4")


def test_criterion_04_monte_carlo_unbiasedness():
    root = RngState(seed=1)
    data = generate_separated(root.child("data"), 10, 16, 0.5)
    shape = Shape(L=3, m=64, d=16, b=16)
    qp = init_params(root.child("q"), shape)
    kp = init_params(root.child("k"), shape)
    batch = encode_batch(qp, kp, data)
    exact = total_loss_exact(batch, 3)
    est, stderr = total_loss_mc(batch, 3, root.child("mc"), samples=10_000)
    single_ok = abs(est - exact) <= 3 * stderr
    hits = 0
    for s in range(1000):
        est_s, stderr_s = total_loss_mc(batch, 3, RngState(seed=5000 + s), samples=10_000)
        hits += abs(est_s - exact) <= 3 * stderr_s
    coverage = hits / 1000
    ok = single_ok and coverage >= 0.99
    assert _report(
        "criterion 4 (Monte-Carlo unbiasedness)", ok,
        f"|est-exact|={abs(est - exact):.2e} vs 3*stderr={3 * stderr:.2e}, "
        f"coverage {coverage:.3f} over 1000 seeds (>= 0.99)")


def _hidden_norm_radius(m: int, L: int, n: int, p: float = 1e-3) -> float:
    # He init with ReLU: Var(log ||h||) grows by 5/(4m) per layer.  Union bound
    # over 2 nets x n samples x L layers, two-sided, at false-failure chance p.
    z = NormalDist().inv_cdf(1 - p / (4 * n * L))
    return math.exp(z * math.sqrt(5 * L / (4 * m))) - 1


def test_criterion_05_initialization_suite():
    started = time.monotonic()
    root = RngState(seed=1)
    data = generate_separated(root.child("data"), 8, 16, 0.5)
    clauses = []
    for m in (1024, 4096):
        shape = Shape(L=5, m=m, d=64, b=16)
        qp = init_params(root.child(f"q{m}"), shape)
        kp = init_params(root.child(f"k{m}"), shape)
        rep = init_probe(qp, kp, data)
        s = rep.scalars
        eps = _hidden_norm_radius(m, L=5, n=8)
        clauses.append((m, eps, s["max_hidden_norm_deviation"] <= eps,
                        s["max_output_norm"] <= 5.0,
                        s["min_separation_over_delta"] >= 0.25,
                        s["max_chain_over_sqrtL"] <= 4.0, s))
    elapsed = time.monotonic() - started
    detail = "; ".join(
        f"m={m}: norm dev {s['max_hidden_norm_deviation']:.3f} (<={eps:.3f} {c1}), "
        f"out {s['max_output_norm']:.2f} (<=5), sep {s['min_separation_over_delta']:.2f} "
        f"(>=0.25), chain {s['max_chain_over_sqrtL']:.2f} (<=4)"
        for m, eps, c1, c2, c3, c4, s in clauses
    ) + f"; {elapsed:.0f}s (< 180s)"
    ok = all(c1 and c2 and c3 and c4 for _, _, c1, c2, c3, c4, _ in clauses) \
        and elapsed < 180.0
    assert _report("criterion 5 (initialization geometry suite)", ok, detail)


def test_criterion_06_gradient_norm_scaling():
    root = RngState(seed=1)
    data = generate_separated(root.child("data"), 8, 16, 0.5)
    hp = HyperParams(k=2, eta=0.0625, gamma=0.0625, T=1)
    rep = gradient_bound_probe(data, hp, Shape(L=3, m=1024, d=32, b=16), rng=root.child("gp"))
    assert rep.config["ms"] == [256, 1024, 4096]
    fw = rep.fits["grad_w_sq_vs_m"]
    ft = rep.fits["grad_theta_sq_vs_m"]
    ok = (0.85 <= fw.slope <= 1.15 and 0.85 <= ft.slope <= 1.15
          and fw.r2 >= 0.95 and ft.r2 >= 0.95)
    assert _report(
        "criterion 6 (gradient norms scale linearly in width)", ok,
        f"query slope {fw.slope:.3f} (R2={fw.r2:.4f}), "
        f"key slope {ft.slope:.3f} (R2={ft.r2:.4f}); need 1.0±0.15, R2>=0.95")


def test_criterion_07_semi_smoothness_residual():
    root = RngState(seed=6)
    data = generate_separated(RngState(seed=1).child("data"), 8, 16, 0.5)
    shape = Shape(L=3, m=2048, d=32, b=16)
    qp = init_params(root.child("sq"), shape)
    kp = init_params(root.child("sk"), shape)
    hp = HyperParams(k=2, eta=0.0625, gamma=0.0625, T=1)
    rep = smoothness_probe(qp, kp, data, hp, root.child("sm"))
    fit = rep.fits["abs_residual_vs_rho"]
    ok = fit.slope >= 1.25 and fit.r2 >= 0.9
    assert _report(
        "criterion 7 (first-order Taylor residual decays superlinearly)", ok,
        f"exponent {fit.slope:.3f} (>= 1.25), R2 {fit.r2:.4f} (>= 0.9), "
        f"m=2048, rho in [1e-4, 1e-2]")


def test_criterion_08_desk_scale_convergence():
    started = time.monotonic()
    root = RngState(seed=1)
    data = generate_separated(root.child("data"), 8, 16, 0.5)
    shape = Shape(L=3, m=512, d=32, b=16)
    qp = init_params(root.child("query-net"), shape)
    kp = init_params(root.child("key-net"), shape)
    hp = HyperParams(k=2, eta=0.0625, gamma=0.0625, T=200)
    trace, _, _ = train(qp, kp, data, hp)
    rep = descent_check(trace, n=8, d=32, m=512, delta=data.delta,
                        eta=hp.eta, gamma=hp.gamma)
    norms = trace.column("loss_vec_norm")
    run_avg_ratio = norms[:-1].mean() / norms[0]
    elapsed = time.monotonic() - started
    ok = (rep.scalars["frac_descent"] >= 0.95
          and rep.scalars["frac_positive_c"] >= 0.95
          and run_avg_ratio <= 0.5 and elapsed < 300.0)
    assert _report(
        "criterion 8 (desk-scale convergence, practical step sizes)", ok,
        f"descent on {rep.scalars['frac_descent']:.1%} of steps (>= 95%), "
        f"positive descent constant on {rep.scalars['frac_positive_c']:.1%}, "
        f"running-average loss-vector ratio {run_avg_ratio:.3f} (<= 0.5), "
        f"{elapsed:.0f}s (< 300s)")


def test_criterion_09_perturbation_laws():
    root = RngState(seed=1)
    data = generate_separated(root.child("data"), 8, 16, 0.5)
    shape = Shape(L=3, m=4096, d=32, b=16)
    qp = init_params(root.child("query-net"), shape)
    rep = perturbation_probe(qp, data, root.child("pp"))
    ff = rep.fits["flip_fraction_vs_omega"]
    fo = rep.fits["output_drift_vs_omega"]
    # random directions flip each unit with chance proportional to omega, so
    # the exponent is 1; omega^{2/3} is only the worst case over the ball
    flip_ok = abs(ff.slope - 1.0) <= 0.2 and ff.r2 >= 0.9
    drift_ok = abs(fo.slope - 1.0) <= 0.1 and fo.r2 >= 0.9
    ok = flip_ok and drift_ok
    assert _report(
        "criterion 9 (mask-flip and output-drift exponents)", ok,
        f"flip exponent {ff.slope:.3f} (need 1.0±0.2, R2={ff.r2:.4f}; "
        f"worst-case ceiling 2/3), "
        f"drift exponent {fo.slope:.3f} (need 1.0±0.1, R2={fo.r2:.4f}), m=4096")


def test_criterion_10_softmax_log_partition_smoothness():
    rep = ce_smoothness_check(RngState(seed=1))
    assert rep.config["max_k"] == 16 and rep.config["scale"] == 10.0
    assert rep.thresholds == {"tol": 1e-12}
    ok = rep.scalars["violations"] == 0
    assert _report(
        "criterion 10 (softmax log-partition quadratic upper bound)", ok,
        f"{rep.scalars['violations']} violations beyond 1e-12 in {rep.config['trials']} trials, "
        f"max excess {rep.scalars['max_excess']:.2e}")


def test_criterion_11_artifact_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "n": 6, "k": 2, "L": 3, "m": 64, "d": 8, "b": 8,
        "seed": 1, "T": 20, "eta": 0.0625, "gamma": 0.0625,
    }))
    pairs = []
    # at m=64 the gradient fits over the widths (16, 64, 256) fall below their
    # R^2 gate, and the smallest omegas flip no mask, so the perturbation probe
    # fits no flip law: both runs exit inconclusive
    for label, argv, expected, files in (
        ("train", ["train"], EXIT_PASS, ["trace.csv", "plot_data.csv", "summary.json",
                                         "params_query.bin", "params_key.bin"]),
        ("verify", ["verify"], EXIT_PASS, ["verify.json"]),
        ("gradient", ["probe", "--probes", "gradient"], EXIT_INCONCLUSIVE,
         ["probe_gradient.json"]),
        ("probes", ["probe", "--probes", "init,smoothness,perturbation"], EXIT_INCONCLUSIVE,
         ["probe_init.json", "probe_smoothness.json", "probe_perturbation.json"]),
        ("ce", ["probe", "--probes", "ce"], EXIT_PASS, ["probe_ce.json"]),
    ):
        for run in ("a", "b"):
            out = tmp_path / f"{label}-{run}"
            code = main(argv[:1] + ["--config", str(cfg_path),
                                    "--out", str(out)] + argv[1:])
            assert code == expected
        pairs.extend(
            (tmp_path / f"{label}-a" / f, tmp_path / f"{label}-b" / f)
            for f in files
        )
    mismatched = [a.name for a, b in pairs if a.read_bytes() != b.read_bytes()]
    ok = not mismatched
    assert _report(
        "criterion 11 (byte-identical artifacts on re-run)", ok,
        f"{len(pairs)} artifact files compared across train/verify/probe, "
        f"mismatches: {mismatched or 'none'}")
