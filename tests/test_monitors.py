import dataclasses
import json
import math
import tracemalloc
import warnings
from statistics import NormalDist

import numpy as np
import pytest

from contrast_lab import Shape, generate_separated, init_params, monitors
from contrast_lab.contrastive import (DEFAULT_ENUMERATION_CAP, HyperParams, encode_batch,
                                     total_loss_exact)
from contrast_lab.encoder import Params, forward_batch
from contrast_lab.errors import ConvergenceError
from contrast_lab.monitors import (
    ce_smoothness_check,
    descent_check,
    fit_loglog,
    gradient_bound_probe,
    hidden_norm_radius,
    init_probe,
    masked_chain_norms,
    perturbation_probe,
    smoothness_probe,
)
from contrast_lab.rng import RngState
from contrast_lab.trainer import train


@pytest.fixture(scope="module")
def setup():
    root = RngState(seed=7)
    data = generate_separated(root.child("data"), 6, 8, 0.5)
    shape = Shape(L=3, m=64, d=8, b=8)
    qp = init_params(root.child("query-net"), shape)
    kp = init_params(root.child("key-net"), shape)
    hp = HyperParams(k=2, eta=0.05, gamma=0.05, T=30)
    return root, data, qp, kp, hp


class TestFitLoglog:
    def test_recovers_power_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_loglog(xs, 3.0 * xs**1.7)
        assert fit.slope == pytest.approx(1.7, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.r2 == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_loglog(np.array([1.0, 2.0]), np.array([1.0, -2.0]))


def test_probe_report_serializes_stably(setup):
    root, data, qp, kp, _ = setup
    report = init_probe(qp, kp, data)
    payload = json.loads(report.to_json())
    assert payload == report.to_jsonable()
    assert list(payload) == ["name", "statement", "config", "scalars",
                             "fits", "thresholds", "passed", "notes"]
    assert report.to_json() == init_probe(qp, kp, data).to_json()


def _dense_chain(p, trace, a, b, i):
    """Sample i's chain W_b D_{b-1} ... D_a W_a as a dense matrix."""
    dense = p.weights[a].copy()
    for l in range(a, b):
        dense = p.weights[l + 1] @ (trace.masks[l][:, i : i + 1] * dense)
    return dense


def test_masked_chain_norms_match_dense_oracle(setup):
    _, data, qp, _, _ = setup
    trace = forward_batch(qp, data.points)
    for a, b in [(1, 1), (1, 2), (2, 2)]:
        got = masked_chain_norms(qp, trace, a, b, tol=1e-9)
        assert got.estimates.shape == got.residuals.shape == (data.n,)
        assert 1 <= got.steps <= qp.shape.m
        for i in range(data.n):
            want = np.linalg.svd(_dense_chain(qp, trace, a, b, i), compute_uv=False)[0]
            assert got.estimates[i] == pytest.approx(want, rel=1e-5)


def test_masked_chain_norms_at_init_probe_tol_match_svd():
    # criterion 5's m=1024 query net at init_probe's tol: every sample of the
    # four one-layer chains (one SVD per layer) and two samples of the longest
    root = RngState(seed=1)
    data = generate_separated(root.child("data"), 8, 16, 0.5)
    qp = init_params(root.child("q1024"), Shape(L=5, m=1024, d=64, b=16))
    trace = forward_batch(qp, data.points)
    errors = []
    for a, b, samples in [(1, 1, 8), (2, 2, 8), (3, 3, 8), (4, 4, 8), (1, 4, 2)]:
        got = masked_chain_norms(qp, trace, a, b).estimates[:samples]
        want = [np.linalg.svd(_dense_chain(qp, trace, a, b, i), compute_uv=False)[0]
                for i in range(1 if a == b else samples)]  # a one-layer chain has no mask
        assert np.all(got <= np.multiply(want, 1 + 1e-12))
        errors.extend((want - got) / want)
    assert max(errors) <= 1e-2


def test_dead_sample_chain_norm_is_zero(setup):
    _, data, qp, _, _ = setup
    trace = forward_batch(qp, data.points)
    masks = list(trace.masks)
    masks[1] = masks[1].copy()
    masks[1][:, 0] = False  # sample 0 has no active unit after layer 1
    dead = dataclasses.replace(trace, masks=tuple(masks))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = masked_chain_norms(qp, dead, 1, 2, tol=1e-9)
    assert got.estimates[0] == got.residuals[0] == 0.0
    assert np.all(got.estimates[1:] > 0)
    assert np.all(np.isfinite(got.residuals))


def test_masked_chain_norms_raise_at_step_cap(setup, monkeypatch):
    _, data, qp, _, _ = setup
    trace = forward_batch(qp, data.points)
    monkeypatch.setattr("contrast_lab.linalg.SOLVER_MAX_STEPS", 2)
    with pytest.raises(ConvergenceError):
        masked_chain_norms(qp, trace, 1, 2, tol=1e-9)


def test_init_probe_reports_chain_solver_diagnostics(setup):
    _, data, qp, kp, _ = setup
    solves = [masked_chain_norms(p, forward_batch(p, data.points), a, b)
              for p in (qp, kp) for a in (1, 2) for b in range(a, 3)]
    s = init_probe(qp, kp, data).scalars
    assert s["chain_solver_max_steps"] == max(r.steps for r in solves)
    assert s["chain_max_residual_over_estimate"] == max(
        float(np.max(r.residuals / r.estimates)) for r in solves)
    assert s["max_chain_norm"] == max(float(r.estimates.max()) for r in solves)


def _per_sample_backward_ratios(p, trace):
    """The backward-chain ratio one sample at a time, eight probes per product."""
    L, m, d = p.shape.L, p.shape.m, p.shape.d
    u = RngState(seed=0xBAC2, stream=0).generator().standard_normal((d, 8))
    u_norms = np.linalg.norm(u, axis=0)
    worst = 0.0
    for i in range(trace.outputs.shape[1]):
        v = p.weights[L].T @ u
        for l in range(L - 1, 0, -1):
            v = p.weights[l].T @ np.where(trace.masks[l][:, i : i + 1], v, 0.0)
            worst = max(worst, float((np.linalg.norm(v, axis=0) / (math.sqrt(m / d) * u_norms)).max()))
    return worst


@pytest.mark.parametrize("L, m", [(2, 64), (3, 64), (5, 256)])
def test_backward_chain_ratios_are_bit_identical_to_the_per_sample_loop(L, m):
    root = RngState(seed=L)
    data = generate_separated(root.child("data"), 8, 16, 0.5)
    p = init_params(root.child("p"), Shape(L=L, m=m, d=8, b=16))
    trace = forward_batch(p, data.points)
    assert monitors._backward_chain_ratios(p, trace) == _per_sample_backward_ratios(p, trace)


def test_init_probe_notes_a_single_layer_once(setup):
    _, data, _, _, _ = setup
    shape = Shape(L=1, m=64, d=8, b=8)
    qp, kp = (init_params(RngState(seed=5).child(name), shape) for name in ("q", "k"))
    report = init_probe(qp, kp, data)
    assert report.notes.count("L < 2: no hidden-to-hidden chains to measure") == 1
    # nothing was measured, so nothing reads as a measured zero
    for key in ("max_chain_norm", "max_chain_over_sqrtL", "chain_solver_max_steps",
                "chain_max_residual_over_estimate", "backward_chain_ratio"):
        assert report.scalars[key] is None


def test_init_probe_tightens_with_width():
    # hidden-norm concentration must improve with m on matched seeds
    devs = {m: [] for m in (256, 4096)}
    data = generate_separated(RngState(seed=3).child("d"), 4, 8, 0.5)
    for seed in range(20):
        for m in devs:
            p = init_params(RngState(seed=seed).child("p"), Shape(L=2, m=m, d=8, b=8))
            t = forward_batch(p, data.points)
            devs[m].append(max(
                float(np.max(np.abs(np.linalg.norm(h, axis=0) - 1.0)))
                for h in t.hidden))
    assert np.median(devs[4096]) <= np.median(devs[256])


class TestHiddenNormRadius:
    def test_matches_gaussian_law(self):
        # exp(z sqrt(5L/(4m))) - 1 with z = Phi^-1(1 - p/(4nL)), p = 1e-3
        z = NormalDist().inv_cdf(1 - 1e-3 / (4 * 8 * 5))
        for m, want in ((1024, 0.41), (4096, 0.19)):
            exact = math.exp(z * math.sqrt(5 * 5 / (4 * m))) - 1
            got = hidden_norm_radius(Shape(L=5, m=m, d=64, b=16), 8)
            assert got == pytest.approx(exact, rel=1e-9)
            assert got == pytest.approx(want, abs=0.005)

    def test_quadrupling_width_halves_log_radius(self):
        for L, n in ((5, 8), (3, 8), (2, 4)):
            r1 = hidden_norm_radius(Shape(L=L, m=1024, d=8, b=8), n)
            r4 = hidden_norm_radius(Shape(L=L, m=4096, d=8, b=8), n)
            assert math.log1p(r4) / math.log1p(r1) == pytest.approx(0.5, rel=1e-12)

    def test_init_probe_uses_it(self, setup):
        _, data, qp, kp, _ = setup
        derived = init_probe(qp, kp, data).thresholds["max_hidden_norm_deviation"]
        assert derived == hidden_norm_radius(qp.shape, data.points.shape[0])


def _he_variance_scaled(p: Params, factor: float) -> Params:
    """The same net with every hidden layer's He variance times ``factor``."""
    L = p.shape.L
    return Params(shape=p.shape, weights=tuple(
        w * math.sqrt(factor) if l < L else w for l, w in enumerate(p.weights)))


@pytest.mark.parametrize("factor", [0.5, 1.25])
def test_init_probe_rejects_mis_scaled_init(factor):
    # hidden norms scale by factor^(l/2) at depth l, so at depth 5 they sit
    # near 0.18 (factor 1/2) or 1.75 (factor 5/4): deviations of about 4.6
    # and 0.75, far outside the radius 0.41
    root = RngState(seed=1)
    data = generate_separated(root.child("data"), 8, 16, 0.5)
    shape = Shape(L=5, m=1024, d=64, b=16)
    qp = _he_variance_scaled(init_params(root.child("q"), shape), factor)
    kp = _he_variance_scaled(init_params(root.child("k"), shape), factor)
    report = init_probe(qp, kp, data)
    dev = report.scalars["max_hidden_norm_deviation"]
    assert dev > report.thresholds["max_hidden_norm_deviation"]
    assert dev >= 0.9 * abs(factor ** (shape.L / 2) - 1)
    assert report.passed is False


def test_init_probe_band_is_symmetric_in_log_norm():
    """Hidden norms shrunk into the gap between the two lower edges, 1 - eps
    (0.593 at m=1024, L=5, n=8) and 1/(1 + eps) (0.711), fail: the band is
    |log ||h||| <= log(1 + eps), symmetric like the law behind eps.  The
    first layer is scaled, so every hidden norm scales with it and the
    masked chains do not change."""
    root = RngState(seed=1)
    data = generate_separated(root.child("data"), 8, 16, 0.5)
    shape = Shape(L=5, m=1024, d=64, b=16)
    nets = [init_params(root.child(name), shape) for name in ("q", "k")]
    eps = hidden_norm_radius(shape, 8)
    norms = [np.linalg.norm(h, axis=0) for p in nets for h in forward_batch(p, data.points).hidden]
    target = 0.5 * ((1 - eps) + 1 / (1 + eps))
    c = target / min(float(v.min()) for v in norms)
    assert c * max(float(v.max()) for v in norms) <= 1 + eps
    qp, kp = (Params(shape=shape, weights=(c * p.weights[0],) + p.weights[1:]) for p in nets)
    report = init_probe(qp, kp, data)
    s = report.scalars
    assert s["max_hidden_norm_deviation"] == pytest.approx(1 / target - 1, rel=1e-9)
    assert s["max_hidden_norm_deviation"] > report.thresholds["max_hidden_norm_deviation"]
    assert s["max_output_norm"] <= report.thresholds["max_output_norm"]
    assert s["min_separation_over_delta"] >= report.thresholds["min_separation_over_delta"]
    assert s["max_chain_over_sqrtL"] <= report.thresholds["max_chain_over_sqrtL"]
    assert report.passed is False


def test_gradient_bound_probe_reports_both_encoders(setup):
    root, data, _, _, hp = setup
    report = gradient_bound_probe(data, hp, (32, 64, 128), L=2, d=8,
                                  rng=root.child("gbp"))
    assert set(report.fits) == {"grad_w_sq_vs_m", "grad_theta_sq_vs_m"}
    assert report.scalars["r_w_max"] >= report.scalars["r_w_min"] > 0


class TestSmoothnessProbe:
    def test_zero_rho_residual_is_zero(self, setup):
        root, data, qp, kp, hp = setup
        report = smoothness_probe(qp, kp, data, hp, (0.0, 1e-3, 1e-2),
                                  root.child("sp"), n_directions=2)
        assert report.scalars["mean_abs_residuals"][0] == 0.0

    def test_direction_scale_reparameterization(self, setup):
        # perturbing by 2U at rho equals perturbing by U at 2 rho, so halving
        # all rhos while doubling the direction must reproduce the residuals;
        # here we check the equivalent statement on the raw loss values
        root, data, qp, kp, hp = setup
        r1 = smoothness_probe(qp, kp, data, hp, (1e-3, 2e-3),
                              root.child("same"), n_directions=1)
        r2 = smoothness_probe(qp, kp, data, hp, (1e-3, 2e-3),
                              root.child("same"), n_directions=1)
        assert r1.scalars["mean_abs_residuals"] == r2.scalars["mean_abs_residuals"]

    def test_config_counts_samples(self, setup):
        root, data, qp, kp, hp = setup
        assert data.points.shape[0] != data.points.shape[1]
        report = smoothness_probe(qp, kp, data, hp, (1e-3, 2e-3),
                                  root.child("sp"), n_directions=1)
        assert report.config["n"] == len(data.points)

    def test_perturbed_losses_use_the_enumeration_cap(self, setup, monkeypatch):
        root, data, qp, kp, _ = setup
        hp = HyperParams(k=2, eta=0.05, gamma=0.05, T=30, enumeration_cap=2 * 10**6)
        caps = []

        def spy(batch, k, cap=DEFAULT_ENUMERATION_CAP):
            caps.append(cap)
            return total_loss_exact(batch, k, cap)

        monkeypatch.setattr(monitors, "total_loss_exact", spy)
        smoothness_probe(qp, kp, data, hp, (1e-3, 2e-3), root.child("sp"), n_directions=1)
        assert caps == [hp.enumeration_cap] * 2


def test_perturbed_losses_match_the_shifted_nets(setup, shifted_pass_bounds, gamma):
    """Each stacked loss is within a derived bound of ``total_loss_exact`` on
    the shifted nets.

    The two runs' outputs differ by at most the bounds e_q and e_k of
    ``shifted_pass_bounds``.  A logit q_i . (k_j - k_i) then moves by at most
    |e_q_i| (|k_j - k_i| + |e_k_j| + |e_k_i|) + |q_i| (|e_k_j| + |e_k_i|), and
    log(1 + sum exp) is 1-Lipschitz in the largest logit change (its gradient
    is non-negative and sums to below 1), as is a mean of such losses.  Each
    evaluation also rounds: a logit by gamma_{d+1} |q_i| . (|k_j| + |k_i|),
    the row shift, the k+1 exponentials, their sum and the log by
    (k + 5 + 2 Lambda) u, with Lambda the largest logit magnitude; the mean
    over C(n-1, k) positive losses, the sum over n anchors and the division
    together add at most gamma_{C+n+2} times the loss.  First order in u.
    """
    root, data, qp, kp, hp = setup
    unit = np.finfo(np.float64).eps / 2
    n, d = data.n, qp.shape.d
    subsets = math.comb(n - 1, hp.k)
    rhos = (0.0, 1e-3, 0.1)
    u, v = monitors._unit_frobenius_directions(qp, kp, root.child("pl"))
    got = monitors._perturbed_losses(qp, kp, u, v, data, hp, rhos)
    assert len(got) == len(rhos)
    for rho, loss in zip(rhos, got):
        batch = encode_batch(qp.shifted(u, rho), kp.shifted(v, rho), data)
        want = total_loss_exact(batch, hp.k, cap=hp.enumeration_cap)
        e_q = shifted_pass_bounds(qp, u, rho, data.points)[-1][1].T
        e_k = shifted_pass_bounds(kp, v, rho, data.points)[-1][1].T
        q, k = batch.queries, batch.keys
        eq, ek = np.linalg.norm(e_q, axis=1), np.linalg.norm(e_k, axis=1)
        diff = np.linalg.norm(k[None, :] - k[:, None], axis=2)
        moved = (eq[:, None] * (diff + ek[None, :] + ek[:, None])
                 + np.linalg.norm(q, axis=1)[:, None] * (ek[None, :] + ek[:, None]))
        abs_q, abs_k = np.abs(q) + e_q, np.abs(k) + e_k
        logit_size = abs_q @ abs_k.T + np.sum(abs_q * abs_k, axis=1)[:, None]
        off = ~np.eye(n, dtype=bool)
        rounding = (gamma(d + 1) * logit_size[off].max()
                    + (hp.k + 5 + 2 * logit_size[off].max()) * unit)
        tol = (moved[off].max() + 2 * rounding
               + gamma(subsets + n + 2) * (abs(want) + abs(loss)))
        assert abs(loss - want) <= tol


def _stacked_trace_bytes(p: Params, columns: int) -> int:
    """Hidden activations, masks and outputs of one stacked pass."""
    return p.shape.L * p.shape.m * columns * (8 + 1) + p.shape.d * columns * 8


def test_smoothness_probe_holds_one_direction_set():
    """Traced peak: the base gradient set and one direction set of both nets,
    plus what either phase of a direction adds to them.  The inner product
    <grad, (U, V)> builds one layer's product g * a; the stacked pass holds
    both nets' stacked traces and four per-layer temporaries of m x columns
    floats (0.7 MB here, below one 2 MB layer).  So the bound adds the largest
    layer and both traces.  Keeping the last direction alive through the next
    draw, or normalising into copies, needs a third set."""
    L, m, n = 4, 512, 6
    root = RngState(seed=3)
    data = generate_separated(root.child("data"), n, 8, 0.5)
    shape = Shape(L=L, m=m, d=8, b=8)
    qp, kp = init_params(root.child("q"), shape), init_params(root.child("k"), shape)
    hp = HyperParams(k=2, eta=0.05, gamma=0.05, T=1)
    rhos = monitors.SMOOTHNESS_RHOS
    tracemalloc.start()
    try:
        smoothness_probe(qp, kp, data, hp, rhos, root.child("sp"), n_directions=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    joint = sum(w.nbytes for w in qp.weights + kp.weights)
    largest = max(w.nbytes for w in qp.weights + kp.weights)
    traces = 2 * _stacked_trace_bytes(qp, n * len(rhos))
    assert peak <= 2 * joint + largest + traces


def test_perturbation_probe_holds_one_direction_set():
    """Traced peak: one direction set, normalised in place, and two stacked
    traces (the last direction's and the one being built), plus the stacked
    pass's per-layer temporaries: the last layer's pre-activation, W H, U H
    and (U H) * s, each m x columns floats.  Besides them live the unshifted
    pass (n columns) and numpy's ufunc buffer of ``np.getbufsize()`` floats
    for the broadcast scales.  Drawing a set while the last one lives,
    normalising into a copy, or building shifted weight copies exceeds it."""
    L, m, n = 4, 512, 6
    root = RngState(seed=3)
    data = generate_separated(root.child("data"), n, 8, 0.5)
    p = init_params(root.child("p"), Shape(L=L, m=m, d=8, b=8))
    omegas = monitors.PERTURBATION_OMEGAS
    tracemalloc.start()
    try:
        perturbation_probe(p, data, omegas, root.child("pp"), n_directions=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    columns = n * len(omegas)
    temporaries = 4 * m * columns * 8
    unshifted = _stacked_trace_bytes(p, n)
    assert peak <= (sum(w.nbytes for w in p.weights) + 2 * _stacked_trace_bytes(p, columns)
                    + temporaries + unshifted + np.getbufsize() * 8)


@pytest.mark.parametrize("probe", ["smoothness", "perturbation"])
def test_two_point_sweep_gives_no_verdict(setup, probe):
    # a line through two points has R^2 = 1, so its slope alone decides nothing
    root, data, qp, kp, hp = setup
    if probe == "smoothness":
        report = smoothness_probe(qp, kp, data, hp, (1e-3, 1e-2), root.child("two"),
                                  n_directions=2)
        points = "positive rhos"
    else:
        report = perturbation_probe(qp, data, (0.05, 0.1), root.child("two"), n_directions=2)
        points = "positive omegas"
    assert all(f.r2 == pytest.approx(1.0) for f in report.fits.values())
    assert report.passed is None
    assert f"fewer than three distinct {points}: no verdict" in report.notes


@pytest.mark.parametrize("probe", ["gradient", "smoothness", "perturbation"])
@pytest.mark.parametrize("sweep", ["one point", "zero and one point"])
def test_degenerate_sweep_is_inconclusive(setup, probe, sweep):
    # one distinct positive point fits no line; a width of 0 is no net, so the
    # gradient probe's second sweep repeats its one width instead
    root, data, qp, kp, hp = setup
    if probe == "gradient":
        ms = (32,) if sweep == "one point" else (32, 32)
        report = gradient_bound_probe(data, hp, ms, L=2, d=8, rng=root.child("deg"))
        points = "widths"
    elif probe == "smoothness":
        rhos = (1e-3,) if sweep == "one point" else (0.0, 1e-3)
        report = smoothness_probe(qp, kp, data, hp, rhos, root.child("deg"), n_directions=1)
        points = "positive rhos"
    else:
        omegas = (1e-3,) if sweep == "one point" else (0.0, 1e-3)
        report = perturbation_probe(qp, data, omegas, root.child("deg"), n_directions=1)
        points = "positive omegas"
    assert report.passed is None and report.fits == {}
    assert f"fewer than three distinct {points}: no verdict" in report.notes


def test_descent_check_on_converging_run(setup):
    root, data, qp, kp, hp = setup
    trace, _, _ = train(qp, kp, data, hp)
    report = descent_check(trace, n=6, d=8, m=64, delta=data.delta,
                           eta=hp.eta, gamma=hp.gamma)
    assert report.passed
    assert report.scalars["frac_descent"] == 1.0
    assert report.scalars["c_min"] > 0


def test_descent_check_flags_frozen_run(setup):
    root, data, qp, kp, _ = setup
    hp0 = HyperParams(k=2, eta=1e-300, gamma=1e-300, T=3)
    trace, _, _ = train(qp, kp, data, hp0)
    report = descent_check(trace, n=6, d=8, m=64, delta=data.delta,
                           eta=hp0.eta, gamma=hp0.gamma)
    assert not report.passed


class TestPerturbationProbe:
    def test_zero_omega_row_is_exactly_zero(self, setup):
        root, data, qp, _, _ = setup
        report = perturbation_probe(qp, data, (0.0, 0.05), root.child("pp"),
                                    n_directions=2)
        assert report.scalars["mean_flip_fractions"][0] == 0.0
        assert report.scalars["mean_output_drifts"][0] == 0.0

    def test_no_flips_reports_inconclusive(self, setup):
        root, data, qp, _, _ = setup
        report = perturbation_probe(qp, data, (1e-13, 1e-12), root.child("pp2"),
                                    n_directions=1)
        assert report.passed is None
        assert "flip_fraction_vs_omega" not in report.fits
        assert any(n.startswith("flip_fraction_vs_omega not fitted") for n in report.notes)


class TestCeSmoothness:
    def test_no_violations_on_random_trials(self):
        report = ce_smoothness_check(RngState(seed=31), trials=20_000)
        assert report.passed
        assert report.scalars["violations"] == 0
        assert report.scalars["max_excess"] <= 1e-12
