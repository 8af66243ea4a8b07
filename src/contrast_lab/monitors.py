"""Quantitative probes: each one turns an inequality the implementation is
supposed to satisfy into a measured ratio, residual, or scaling exponent.

Probes never assume the hidden constants of the bounds they check are 1;
they fit exponents and report band statistics, and they only declare a
pass or fail when the fit quality supports it (R^2 >= 0.9 for the
smoothness and perturbation fits, R^2 >= 0.95 for the gradient-scaling
fits), reporting "inconclusive" otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .contrastive import HyperParams, encode_batch, grad_params, total_loss_exact
from .data import Dataset, min_pairwise_distance
from .encoder import (BatchTrace, Params, Shape, backward_batch, forward_batch, init_params,
                      sum_of_squares)
from .errors import EvaluationError
from .linalg import power_iteration, spectral_norm
from .rng import RngState
from .trainer import TrainTrace

R2_GATE = 0.9

# Chance that a correct He initialization fails the hidden-norm clause of
# ``init_probe`` at its derived radius (see ``hidden_norm_radius``).
HIDDEN_NORM_FALSE_FAILURE_P = 1e-3


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float

    def to_jsonable(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept, "r2": self.r2}


def fit_loglog(xs: np.ndarray, ys: np.ndarray) -> FitResult:
    """Least-squares line through (log x, log y); ys must be positive."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) < 2:
        raise ValueError("need two equal-length 1-d arrays with >= 2 points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit requires positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return FitResult(float(slope), float(intercept), float(r2))


@dataclass
class ProbeReport:
    name: str
    statement: str
    config: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    passed: bool | None = None
    notes: tuple[str, ...] = ()

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "statement": self.statement,
            "config": self.config,
            "scalars": self.scalars,
            "fits": {k: f.to_jsonable() for k, f in self.fits.items()},
            "thresholds": self.thresholds,
            "passed": self.passed,
            "notes": list(self.notes),
        }
        return json.dumps(payload, indent=2, sort_keys=False)


# ---------------------------------------------------------------------------
# initialization geometry


def masked_chain_norms(p: Params, trace: BatchTrace, a: int, b: int,
                       tol: float = 1e-3) -> np.ndarray:
    """Per-sample spectral norms of W_b D_{b-1} ... D_a W_a, where D_l is the
    sample's active-unit mask after hidden layer l.  Runs one power iteration
    per sample, batched so every chain application is a single matrix product.
    """
    L = p.shape.L
    if not 1 <= a <= b <= L - 1:
        raise ValueError("chain endpoints must satisfy 1 <= a <= b <= L-1")
    n = trace.outputs.shape[1]
    w = p.weights

    def chain(v: np.ndarray) -> np.ndarray:
        x = w[a] @ v
        for l in range(a, b):
            x = np.where(trace.masks[l], x, 0.0)
            x = w[l + 1] @ x
        return x

    def chain_t(v: np.ndarray) -> np.ndarray:
        *_, x = backward_batch(p, trace.masks, v, b, a)
        return x

    start = RngState(seed=0xC4A1, stream=a * 64 + b).generator()
    return power_iteration(chain, chain_t, start.standard_normal((p.shape.m, n)), tol)


def _backward_chain_ratios(p: Params, trace: BatchTrace) -> float:
    """Max over samples, layers l >= 1, and eight random output probes u of
    ||u^T W_L D_{L-1} ... D_l W_l|| / (sqrt(m/d) ||u||)."""
    L, m, d = p.shape.L, p.shape.m, p.shape.d
    n = trace.outputs.shape[1]
    u = RngState(seed=0xBAC2, stream=0).generator().standard_normal((d, 8))
    # column 8i + j carries probe j through sample i's masks
    masks = tuple(np.repeat(mask, 8, axis=1) for mask in trace.masks)
    chain = backward_batch(p, masks, np.tile(u, n), L, 1)
    next(chain)  # W_L^T u: the ratio is taken for l >= 1 only
    bound = math.sqrt(m / d) * np.tile(np.linalg.norm(u, axis=0), n)
    return max(float((np.linalg.norm(v, axis=0) / bound).max()) for v in chain)


def hidden_norm_radius(shape: Shape, n: int) -> float:
    """Radius eps of the band |log ||h||| <= log(1 + eps) that a correct He
    initialization leaves with probability at most
    ``HIDDEN_NORM_FALSE_FAILURE_P`` (p = 1e-3) over both nets, all n samples
    and all L hidden layers.

    With He init and ReLU, each layer adds 5/(4m) to the variance of
    log ||h||, so at depth L its standard deviation is sqrt(5L/(4m)).  A
    union bound over 2 nets x n samples x L layers with a two-sided tail puts
    z = Phi^{-1}(1 - p/(4nL)) and eps = exp(z sqrt(5L/(4m))) - 1.  The
    radius shrinks like 1/sqrt(m) and grows like sqrt(L), as the
    concentration of Allen-Zhu, Li & Song (arXiv:1811.03962, Lemma 7.1)
    does; at L=5 and n=8 it reaches 0.1 only beyond m of about 13,000.
    """
    z = -float(ndtri(HIDDEN_NORM_FALSE_FAILURE_P / (4 * n * shape.L)))
    return math.expm1(z * math.sqrt(5 * shape.L / (4 * shape.m)))


def init_probe(qp: Params, kp: Params, data: Dataset,
               epsilon: float | None = None) -> ProbeReport:
    """Geometry of a fresh initialization: hidden norms near 1, bounded
    outputs, preserved pairwise separation, and bounded masked weight chains.

    ``epsilon`` is the radius of |log ||h||| <= log(1 + epsilon), by default
    ``hidden_norm_radius``; the reported deviation is exp(max |log ||h|||) - 1.
    """
    shape = qp.shape
    L = shape.L
    xs = data.points
    notes: list[str] = []
    if epsilon is None:
        epsilon = hidden_norm_radius(shape, data.n)
        notes.append(
            "hidden-norm radius exp(z sqrt(5L/(4m))) - 1 with "
            f"z = Phi^-1(1 - p/(4nL)), p = {HIDDEN_NORM_FALSE_FAILURE_P:g}")
    max_log_dev = 0.0
    max_out = 0.0
    min_sep_ratio = math.inf
    max_chain = 0.0
    backward_worst = 0.0
    for p in (qp, kp):
        trace = forward_batch(p, xs)
        for h in trace.hidden:
            with np.errstate(divide="ignore"):  # a dead sample's log norm is -inf
                log_norms = np.log(np.linalg.norm(h, axis=0))
            max_log_dev = max(max_log_dev, float(np.max(np.abs(log_norms))))
            min_sep_ratio = min(min_sep_ratio, min_pairwise_distance(h.T) / data.delta)
        max_out = max(max_out, float(np.max(np.linalg.norm(trace.outputs, axis=0))))
        if L >= 2:
            for a in range(1, L):
                for b in range(a, L):
                    max_chain = max(max_chain, float(masked_chain_norms(p, trace, a, b).max()))
            backward_worst = max(backward_worst, _backward_chain_ratios(p, trace))
    if L < 2:
        notes.append("L < 2: no hidden-to-hidden chains to measure")
    thresholds = {
        "max_hidden_norm_deviation": epsilon,
        "max_output_norm": 5.0,
        "min_separation_over_delta": 0.25,
        "max_chain_over_sqrtL": 4.0,
    }
    scalars = {
        "max_hidden_norm_deviation": math.expm1(max_log_dev),
        "max_output_norm": max_out,
        "min_separation_over_delta": min_sep_ratio,
        "max_chain_norm": max_chain,
        "max_chain_over_sqrtL": max_chain / math.sqrt(L),
        "backward_chain_ratio": backward_worst,
    }
    passed = (
        max_log_dev <= math.log1p(epsilon)
        and max_out <= thresholds["max_output_norm"]
        and min_sep_ratio >= thresholds["min_separation_over_delta"]
        and (L < 2 or scalars["max_chain_over_sqrtL"] <= thresholds["max_chain_over_sqrtL"])
    )
    return ProbeReport(
        name="init",
        statement=(
            "at random initialization, hidden activations have near-unit norm, "
            "outputs are bounded, input separation survives to every hidden "
            "layer at reduced strength, and masked weight chains have spectral "
            "norm O(sqrt(depth))"
        ),
        config={"L": L, "m": shape.m, "d": shape.d, "n": data.n,
                "delta": data.delta, "epsilon": epsilon},
        scalars=scalars,
        thresholds=thresholds,
        passed=passed,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# gradient norm scaling


def gradient_rows(
    data: Dataset, hp: HyperParams, ms: tuple[int, ...],
    L: int, d: int, rng: RngState,
) -> list[dict]:
    """One row per width m: the loss, the squared gradient Frobenius norms of
    both encoders and the loss-vector norms, at a fresh pair of nets drawn
    from ``rng``'s ``w-{m}`` and ``theta-{m}`` streams.
    """

    def one(m: int) -> dict:
        shape = Shape(L=L, m=m, d=d, b=data.b)
        qp = init_params(rng.child(f"w-{m}"), shape)
        kp = init_params(rng.child(f"theta-{m}"), shape)
        g = grad_params(qp, kp, data, hp)
        return {
            "m": m,
            "loss": g.loss,
            "grad_w_sq": sum_of_squares(g.grad_w.weights),
            "grad_theta_sq": sum_of_squares(g.grad_theta.weights),
            "losstilde_norm": g.loss_vectors.tilde_norm,
            "losshat_norm": g.loss_vectors.hat_norm,
        }

    return [one(m) for m in ms]


def gradient_bound_probe(
    data: Dataset, hp: HyperParams, ms: tuple[int, ...],
    L: int, d: int, rng: RngState,
) -> ProbeReport:
    """Squared gradient Frobenius norms against hidden width m, for both
    encoders, on one fixed dataset.  The closed-form gradients predict
    ||grad||_F^2 = Theta(m / d) * (per-sample loss-vector energy), so the
    log-log slope in m should be 1; the normalized ratio
    r = ||grad||^2 n d / (m * sum ||loss vec||^2) should sit in a stable band.
    A line fits two widths exactly (R^2 = 1), so fewer than three give no verdict.
    """
    n = data.n
    gw2, gt2, rw, rt = [], [], [], []
    for row in gradient_rows(data, hp, ms, L, d, rng):
        m, w2, t2 = row["m"], row["grad_w_sq"], row["grad_theta_sq"]
        lt2, lh2 = row["losstilde_norm"]**2, row["losshat_norm"]**2
        gw2.append(w2)
        gt2.append(t2)
        rw.append(w2 * n * d / (m * lt2) if lt2 > 0 else math.nan)
        rt.append(t2 * n * d / (m * lh2) if lh2 > 0 else math.nan)
    ms_arr = np.asarray(ms, dtype=np.float64)
    fit_w = fit_loglog(ms_arr, np.asarray(gw2))
    fit_t = fit_loglog(ms_arr, np.asarray(gt2))
    rw_arr, rt_arr = np.asarray(rw), np.asarray(rt)
    scalars = {
        "r_w_min": float(np.nanmin(rw_arr)), "r_w_max": float(np.nanmax(rw_arr)),
        "r_theta_min": float(np.nanmin(rt_arr)), "r_theta_max": float(np.nanmax(rt_arr)),
        "grad_w_sq": gw2, "grad_theta_sq": gt2,
    }
    thresholds = {"slope_lo": 0.85, "slope_hi": 1.15, "r2_min": 0.95}
    widths_ok = len(set(ms)) >= 3
    conclusive = (widths_ok and fit_w.r2 >= thresholds["r2_min"]
                  and fit_t.r2 >= thresholds["r2_min"])
    in_band = all(
        thresholds["slope_lo"] <= f.slope <= thresholds["slope_hi"] for f in (fit_w, fit_t)
    )
    return ProbeReport(
        name="gradient-scaling",
        statement=(
            "squared gradient norms of both encoders grow linearly with hidden "
            "width m, sandwiched between width-proportional lower and upper "
            "bounds driven by the per-sample loss vectors"
        ),
        config={"ms": list(ms), "L": L, "d": d, "n": n, "k": hp.k},
        scalars=scalars,
        fits={"grad_w_sq_vs_m": fit_w, "grad_theta_sq_vs_m": fit_t},
        thresholds=thresholds,
        passed=in_band if conclusive else None,
        notes=() if widths_ok else ("fewer than three distinct widths: no verdict",),
    )


# ---------------------------------------------------------------------------
# semi-smoothness


def _unit_frobenius_directions(qp: Params, kp: Params, rng: RngState) -> tuple[list, list]:
    gen = rng.generator()
    u = [gen.standard_normal(w.shape) for w in qp.weights]
    v = [gen.standard_normal(w.shape) for w in kp.weights]
    total = math.sqrt(sum_of_squares(u + v))
    return [a / total for a in u], [a / total for a in v]


def smoothness_probe(
    qp: Params, kp: Params, data: Dataset, hp: HyperParams,
    rhos: tuple[float, ...], rng: RngState, n_directions: int = 6,
) -> ProbeReport:
    """First-order Taylor residual of the loss along random joint directions.

    For unit-Frobenius (U, V) and each scale rho, measures
    R(rho) = L(W + rho U, theta + rho V) - L(W, theta) - rho <grad, (U, V)>
    and fits log|R| against log rho.  A plain Lipschitz-smooth loss would give
    exponent 2; activation kinks contribute an intermediate-power error term,
    so the fitted exponent should land in (1, 2], and at least 1.25 with the
    default sweep.
    """
    if list(rhos) != sorted(rhos) or min(rhos) < 0:
        raise ValueError("rhos must be non-negative and ascending")
    base = grad_params(qp, kp, data, hp)
    residuals = np.zeros((n_directions, len(rhos)))
    for di in range(n_directions):
        u, v = _unit_frobenius_directions(qp, kp, rng.child(f"dir-{di}"))
        inner = sum(float(np.sum(g * a)) for g, a in zip(base.grad_w.weights, u))
        inner += sum(float(np.sum(g * a)) for g, a in zip(base.grad_theta.weights, v))
        for ri, rho in enumerate(rhos):
            val = total_loss_exact(encode_batch(qp.shifted(u, rho), kp.shifted(v, rho), data),
                                   hp.k, cap=hp.enumeration_cap)
            if not math.isfinite(val):
                raise EvaluationError(f"perturbed loss non-finite at rho={rho}")
            residuals[di, ri] = val - base.loss - rho * inner
    mean_abs = np.abs(residuals).mean(axis=0)
    rho_arr = np.asarray(rhos)
    fittable = rho_arr > 0
    fit = fit_loglog(rho_arr[fittable], mean_abs[fittable])
    # residual magnitude relative to the two structural error scales
    m, d, n = qp.shape.m, qp.shape.d, data.n
    first_order_scale = rho_arr[fittable] ** (4 / 3) * math.sqrt(
        m * math.log(m) / (n * d)
    ) * base.loss_vectors.total_norm
    second_order_scale = rho_arr[fittable] ** 2 * hp.k * qp.shape.L**2 * m**2 / d**2
    thresholds = {"exponent_min": 1.25, "r2_min": R2_GATE}
    conclusive = fit.r2 >= thresholds["r2_min"]
    return ProbeReport(
        name="smoothness",
        statement=(
            "the loss is semi-smooth: its first-order Taylor residual along "
            "random directions decays strictly faster than linearly in the "
            "perturbation scale, between the rho^{4/3} kink term and the "
            "rho^2 quadratic term"
        ),
        config={"rhos": list(rhos), "n_directions": n_directions,
                "m": m, "d": d, "L": qp.shape.L, "n": n, "k": hp.k},
        scalars={
            "mean_abs_residuals": mean_abs.tolist(),
            "residual_over_first_order_scale": (
                mean_abs[fittable] / first_order_scale).tolist(),
            "residual_over_second_order_scale": (
                mean_abs[fittable] / second_order_scale).tolist(),
        },
        fits={"abs_residual_vs_rho": fit},
        thresholds=thresholds,
        passed=(fit.slope >= thresholds["exponent_min"]) if conclusive else None,
    )


# ---------------------------------------------------------------------------
# training-trace checks


def descent_check(trace: TrainTrace, n: int, d: int, m: int, delta: float,
                  eta: float, gamma: float) -> ProbeReport:
    """Per-step descent constants of a finished run.

    c_t = (L_t - L_{t+1}) * n^3 d / (min(eta, gamma) * delta * m * ||l_t||^2)
    should be positive on nearly every step; steps with a vanishing loss
    vector are skipped (the inequality is vacuous there).
    """
    if len(trace) < 2:
        raise ValueError("trace must contain at least two records")
    losses = trace.column("loss")
    norms = trace.column("loss_vec_norm")
    scale = min(eta, gamma) * delta * m / (n**3 * d)
    cs, descents = [], []
    for t in range(len(losses) - 1):
        if norms[t] ** 2 < 1e-300:
            continue
        drop = losses[t] - losses[t + 1]
        descents.append(drop > 0)
        cs.append(drop / (scale * norms[t] ** 2))
    cs_arr = np.asarray(cs)
    frac_descent = float(np.mean(descents)) if descents else math.nan
    frac_positive = float(np.mean(cs_arr > 0)) if len(cs_arr) else math.nan
    thresholds = {"frac_descent_min": 0.95, "frac_positive_c_min": 0.95}
    scalars = {
        "steps_checked": len(cs),
        "frac_descent": frac_descent,
        "frac_positive_c": frac_positive,
        "c_min": float(cs_arr.min()) if len(cs_arr) else math.nan,
        "c_median": float(np.median(cs_arr)) if len(cs_arr) else math.nan,
    }
    passed = (
        len(cs) > 0
        and frac_descent >= thresholds["frac_descent_min"]
        and frac_positive >= thresholds["frac_positive_c_min"]
    )
    return ProbeReport(
        name="descent",
        statement=(
            "each gradient step decreases the loss by at least a constant "
            "times min(eta, gamma) * delta * m / (n^3 d) times the squared "
            "loss-vector norm"
        ),
        config={"n": n, "d": d, "m": m, "delta": delta, "eta": eta, "gamma": gamma},
        scalars=scalars,
        thresholds=thresholds,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# perturbation response


def _unit_spectral_direction(gen: np.random.Generator, shape: tuple) -> np.ndarray:
    g = gen.standard_normal(shape)
    return g / spectral_norm(g, tol=1e-4)


def perturbation_probe(
    qp: Params, data: Dataset, omegas: tuple[float, ...],
    rng: RngState, n_directions: int = 8,
) -> ProbeReport:
    """Activation-pattern and output response to weight perturbations.

    Perturbs every layer by a random direction of spectral norm omega (the
    same direction rescaled across the sweep, so spectral-normalization error
    cancels out of the fitted exponents), then measures the fraction of
    flipped ReLU masks and the output drift.

    Along a random direction each unit flips with probability proportional
    to omega (its pre-activation moves by O(omega) and has a bounded density
    at 0), so the flip exponent is 1.  The omega^{2/3} of Allen-Zhu, Li &
    Song (arXiv:1811.03962, Lemma 8.2) is a worst case over all perturbations
    of spectral norm omega, reached only by directions aimed at the units
    nearest their kinks; it is reported in the notes, not checked.
    """
    if list(omegas) != sorted(omegas) or min(omegas) < 0:
        raise ValueError("omegas must be non-negative and ascending")
    xs = data.points
    base = forward_batch(qp, xs)
    base_pattern = base.pattern
    flips = np.zeros((n_directions, len(omegas)))
    out_drift = np.zeros((n_directions, len(omegas)))
    hid_drift = np.zeros((n_directions, len(omegas)))
    for di in range(n_directions):
        gen = rng.child(f"dir-{di}").generator()
        dirs = [_unit_spectral_direction(gen, w.shape) for w in qp.weights]
        for oi, omega in enumerate(omegas):
            t = forward_batch(qp.shifted(dirs, omega), xs)
            flips[di, oi] = float(np.mean(t.pattern ^ base_pattern))
            out_drift[di, oi] = float(
                np.max(np.linalg.norm(t.outputs - base.outputs, axis=0))
            )
            hid_drift[di, oi] = max(
                float(np.max(np.linalg.norm(h - h0, axis=0)))
                for h, h0 in zip(t.hidden, base.hidden)
            )
    mean_flips = flips.mean(axis=0)
    mean_out = out_drift.mean(axis=0)
    mean_hid = hid_drift.mean(axis=0)
    omegas_arr = np.asarray(omegas)
    notes = ["worst-case ceiling over the spectral ball: flip fraction "
             "O(omega^{2/3} L) (flip exponent 2/3)"]
    fits = {}
    live = omegas_arr > 0
    if live.sum() >= 2:
        if np.all(mean_flips[live] > 0):
            fits["flip_fraction_vs_omega"] = fit_loglog(
                omegas_arr[live], mean_flips[live])
        else:
            notes.append("zero flips at small omega; flip fit skipped")
        fits["output_drift_vs_omega"] = fit_loglog(omegas_arr[live], mean_out[live])
        fits["hidden_drift_vs_omega"] = fit_loglog(omegas_arr[live], mean_hid[live])
    else:
        notes.append("fewer than two positive omegas; all fits skipped")
    drift_ratio = mean_out[live] / omegas_arr[live]
    thresholds = {
        "flip_slope_lo": 0.8, "flip_slope_hi": 1.2,
        "drift_slope_lo": 0.9, "drift_slope_hi": 1.1,
        "r2_min": R2_GATE,
    }
    scalars = {
        "mean_flip_fractions": mean_flips.tolist(),
        "mean_output_drifts": mean_out.tolist(),
        "mean_hidden_drifts": mean_hid.tolist(),
        "drift_over_omega_band": (
            float(drift_ratio.max() / drift_ratio.min())
            if drift_ratio.size else math.nan),
    }
    passed: bool | None
    if "flip_fraction_vs_omega" not in fits:
        passed = None
    else:
        ff, fo = fits["flip_fraction_vs_omega"], fits["output_drift_vs_omega"]
        if ff.r2 < R2_GATE or fo.r2 < R2_GATE:
            passed = None
        else:
            passed = (
                thresholds["flip_slope_lo"] <= ff.slope <= thresholds["flip_slope_hi"]
                and thresholds["drift_slope_lo"] <= fo.slope <= thresholds["drift_slope_hi"]
            )
    return ProbeReport(
        name="perturbation",
        statement=(
            "under random-direction weight perturbations of spectral norm "
            "omega, the fraction of flipped ReLU masks and the output drift "
            "both grow linearly in omega; omega^{2/3} is the worst-case "
            "ceiling on flips over the whole spectral ball"
        ),
        config={"omegas": list(omegas), "n_directions": n_directions,
                "m": qp.shape.m, "L": qp.shape.L, "d": qp.shape.d,
                "n": data.n},
        scalars=scalars,
        fits=fits,
        thresholds=thresholds,
        passed=passed,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# cross-entropy smoothness


def _log_partition(ys: np.ndarray) -> np.ndarray:
    """g(y) = log(1 + sum_i exp(y_i)) of each row."""
    return np.logaddexp.reduce(np.concatenate([np.zeros((len(ys), 1)), ys], axis=1), axis=1)


def _quadratic_bound_excess(ys: np.ndarray, yps: np.ndarray) -> np.ndarray:
    """g(y + y') - g(y) - grad g(y) . y' - ||y'||^2 / 2 of each row."""
    g0 = _log_partition(ys)
    grad = np.exp(ys - g0[:, None])
    return _log_partition(ys + yps) - g0 - np.sum(grad * yps, axis=1) - 0.5 * np.sum(yps**2, axis=1)


def ce_smoothness_check(rng: RngState, trials: int, max_k: int = 16,
                        scale: float = 10.0, tol: float = 1e-12) -> ProbeReport:
    """Second-order upper bound on the softmax log-partition:
    g(y + y') <= g(y) + grad g(y) . y' + ||y'||^2 / 2, checked on random
    pairs plus one step along the gradient itself."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gen = rng.generator()
    excesses = []
    done = 0
    while done < trials:
        k = int(gen.integers(1, max_k + 1))
        batch = min(trials - done, 4096)
        ys = gen.uniform(-scale, scale, size=(batch, k))
        excesses.append(_quadratic_bound_excess(ys, gen.uniform(-scale, scale, size=(batch, k))))
        done += batch
    # adversarial spot check: step along the gradient itself
    y = gen.uniform(-scale, scale, size=(1, 8))
    excesses.append(_quadratic_bound_excess(y, np.exp(y - _log_partition(y)[:, None])))
    excess = np.concatenate(excesses)
    violations = int(np.sum(excess > tol))
    worst = float(excess.max())
    return ProbeReport(
        name="ce-smoothness",
        statement=(
            "the softmax log-partition g(y) = log(1 + sum exp(y_i)) satisfies "
            "the quadratic upper bound of a 1-Lipschitz-smooth function"
        ),
        config={"trials": trials, "max_k": max_k, "scale": scale},
        scalars={"violations": violations, "max_excess": worst},
        thresholds={"tol": tol},
        passed=violations == 0,
    )
