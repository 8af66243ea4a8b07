"""Quantitative probes: each one turns an inequality the implementation is
supposed to satisfy into a measured ratio, residual, or scaling exponent.

Probes never assume the hidden constants of the bounds they check are 1;
they fit exponents and report band statistics.  Every fitted probe hands its
sweep and named series to ``_verdict``, which fits each series log-log over
the sweep when it has two or more distinct points and the series is positive
at each, and else skips it with a note.  A pass or fail needs three distinct
points (a line fits two exactly) and fits that clear their R^2 gate
(``GRADIENT_R2_GATE`` for gradient scaling, else ``R2_GATE``); otherwise the
probe reports "inconclusive".  Each fitted probe runs one configuration
that no caller sets: the direction probes their calibrated sweeps over a
fixed number of directions, the gradient probe the widths (m/4, m, 4m) of
the shape it is given, whose three points are distinct at every m but 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator

import numpy as np
from scipy.special import ndtri

from .contrastive import EncodedBatch, HyperParams, _gradients, log_partition, total_loss_exact
from .data import Dataset, min_pairwise_distance
from .encoder import (BatchTrace, Params, Shape, backward_batch, forward_batch, forward_shifted,
                      init_params, sum_of_squares)
from .errors import DivergenceError, EvaluationError
from .linalg import SpectralSolve, spectral_norm, top_singular_values
from .rng import RngState
from .trainer import StepRecord, TrainTrace, gd_step, step_scratch

# R^2 gates and [lo, hi] slope bands of the fitted probes, the width ratio
# of the gradient probe's sweep (m / ratio, m, m * ratio), the sweeps and
# direction counts the smoothness and perturbation bands were calibrated on,
# and the draws of ``ce_smoothness_check``: CE_TRIALS random pairs, k in
# [1, CE_MAX_K], coordinates in [-CE_SCALE, CE_SCALE].
R2_GATE = 0.9
GRADIENT_R2_GATE = 0.95
GRADIENT_SLOPE_BAND = (0.85, 1.15)
GRADIENT_WIDTH_RATIO = 4
SMOOTHNESS_EXPONENT_BAND = (1.25, math.inf)
SMOOTHNESS_RHOS = tuple(float(x) for x in np.geomspace(1e-4, 1e-2, 7))
SMOOTHNESS_DIRECTIONS = 8
FLIP_SLOPE_BAND = (0.8, 1.2)
DRIFT_SLOPE_BAND = (0.9, 1.1)
PERTURBATION_OMEGAS = tuple(float(x) for x in np.geomspace(1e-4, 1e-1, 7))
PERTURBATION_DIRECTIONS = 8
CE_TRIALS, CE_MAX_K, CE_SCALE, CE_TOL = 100_000, 16, 10.0, 1e-12

# Chance that a correct He initialization fails the hidden-norm clause of
# ``init_probe`` at its derived radius (see ``hidden_norm_radius``).
HIDDEN_NORM_FALSE_FAILURE_P = 1e-3


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float


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

    def to_jsonable(self) -> dict:
        # JSON has no NaN or infinity: each non-finite value becomes None (null)
        return json.loads(json.dumps(asdict(self)), parse_constant=lambda _: None)

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=False)


def _verdict(xs, series: dict[str, np.ndarray], bands: dict[str, tuple[float, float]],
             r2_min: float, points: str) -> tuple[dict[str, FitResult], bool | None, tuple]:
    """(fits, verdict, notes) of a fitted probe by the module's rule: None
    without three distinct ``xs`` (all positive) or without every fit named
    in ``bands`` at R^2 >= r2_min, else whether each such slope is in its band."""
    distinct = len(set(xs))
    fits, notes = {}, []
    for name, ys in series.items():
        ys = np.asarray(ys, dtype=np.float64)
        if distinct >= 2 and np.all(ys > 0):
            fits[name] = fit_loglog(xs, ys)
        else:
            notes.append(f"{name} not fitted: needs two distinct {points}, positive at each")
    banded = [fits.get(name) for name in bands]
    if distinct < 3:
        return fits, None, (*notes, f"fewer than three distinct {points}: no verdict")
    if any(f is None or not f.r2 >= r2_min for f in banded):
        return fits, None, tuple(notes)
    passed = all(lo <= f.slope <= hi for f, (lo, hi) in zip(banded, bands.values()))
    return fits, passed, tuple(notes)


# ---------------------------------------------------------------------------
# initialization geometry


# Stopping tolerance of ``init_probe``'s masked-chain solves; its accuracy
# is stated in ``masked_chain_norms``.
CHAIN_TOL = 1e-3


def masked_chain_norms(p: Params, trace: BatchTrace,
                       tol: float = CHAIN_TOL) -> dict[tuple[int, int], SpectralSolve]:
    """Per-sample spectral norms of every chain W_b D_{b-1} ... D_a W_a with
    1 <= a <= b <= L-1, where D_l is the sample's active-unit mask after
    hidden layer l, keyed by (a, b); {} at L = 1.

    One ``top_singular_values`` call solves them all, one start block per
    chain (its own ``RngState(0xC4A1, a*64 + b)`` draw, one column per
    sample), and each block stops on its own rule.  The operator runs up the
    hidden layers with one product W_l @ [...] per layer over every chain
    through l: the chains that start at l, beside the masked continuations
    of those that started below.  The adjoint runs down with one row-major
    (G^T W_l)^T per layer, the same bits as W_l^T G.  A solver step thus
    applies each hidden matrix once each way, not once per chain through it.
    The price is the solver's bases: with c = n L (L-1) / 2 columns they
    hold c x rows x 2m floats, rows 32 (m if smaller) doubled while the
    steps outgrow it.

    Accuracy at ``CHAIN_TOL`` (1e-3) on acceptance criterion 5's m=1024
    query net: every estimate is at most 1e-2 below ``np.linalg.svd``
    (``test_masked_chain_norms_at_init_probe_tol_match_svd``, on a subset).
    Over all ten chains and eight samples the worst was 4.8e-3; power
    iteration's stop on slow progress left the worst 3.6e-2 low.
    """
    L = p.shape.L
    chains = [(a, b) for a in range(1, L) for b in range(a, L)]
    if not chains:
        return {}
    n = trace.outputs.shape[1]
    w, masks = p.weights, trace.masks
    cols = {chain: slice(i * n, (i + 1) * n) for i, chain in enumerate(chains)}

    def apply(v: np.ndarray, adjoint: bool) -> np.ndarray:
        # the chain ends at which a sweep picks a chain up and puts it down
        enter, leave = (1, 0) if adjoint else (0, 1)
        out = np.empty_like(v)
        carried = []  # (chain, masked state) of the chains going on from the last layer
        for l in range(L - 1, 0, -1) if adjoint else range(1, L):
            stack = carried + [(c, v[:, cols[c]]) for c in chains if c[enter] == l]
            x = np.hstack([state for _, state in stack])
            # numpy runs W^T G as a transposed GEMM; (G^T W)^T is the same
            # product, bit for bit, as a faster row-major one
            y = (x.T @ w[l]).T if adjoint else w[l] @ x
            carried = []
            for j, (c, _) in enumerate(stack):
                yc = y[:, j * n:(j + 1) * n]
                if c[leave] == l:
                    out[:, cols[c]] = yc
                else:
                    carried.append((c, np.where(masks[l - 1 if adjoint else l], yc, 0.0)))
        return out

    starts = [RngState(seed=0xC4A1, stream=a * 64 + b).generator().standard_normal((p.shape.m, n))
              for a, b in chains]
    solves = top_singular_values(lambda v: apply(v, False), lambda u: apply(u, True), starts, tol)
    return dict(zip(chains, solves))


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


def init_probe(qp: Params, kp: Params, data: Dataset) -> ProbeReport:
    """Geometry of a fresh initialization: hidden norms near 1, bounded
    outputs, preserved pairwise separation, and bounded masked weight chains.

    Hidden norms must satisfy |log ||h||| <= log(1 + epsilon) with epsilon =
    ``hidden_norm_radius``; the reported deviation is exp(max |log ||h|||) - 1.
    Each net's chains are solved in one ``masked_chain_norms`` call at
    ``CHAIN_TOL``, one product per hidden layer each way per solver step,
    each chain stopping on its own.  Over every chain solve,
    ``chain_solver_max_steps`` is the largest step count and
    ``chain_max_residual_over_estimate`` the largest Ritz residual over its
    estimate (a stall diagnostic, not an error bound; see
    ``top_singular_values``).  At L = 1 there are no hidden-to-hidden
    chains, and their scalars are None.
    """
    shape = qp.shape
    L = shape.L
    xs = data.points
    epsilon = hidden_norm_radius(shape, data.n)
    notes = ["hidden-norm radius exp(z sqrt(5L/(4m))) - 1 with "
             f"z = Phi^-1(1 - p/(4nL)), p = {HIDDEN_NORM_FALSE_FAILURE_P:g}"]
    chained = L >= 2
    max_log_dev = 0.0
    max_out = 0.0
    min_sep_ratio = math.inf
    max_chain = backward_worst = chain_residual = 0.0 if chained else None
    chain_steps = 0 if chained else None
    for p in (qp, kp):
        trace = forward_batch(p, xs)
        for h in trace.hidden:
            with np.errstate(divide="ignore"):  # a dead sample's log norm is -inf
                log_norms = np.log(np.linalg.norm(h, axis=0))
            max_log_dev = max(max_log_dev, float(np.max(np.abs(log_norms))))
            min_sep_ratio = min(min_sep_ratio, min_pairwise_distance(h.T) / data.delta)
        max_out = max(max_out, float(np.max(np.linalg.norm(trace.outputs, axis=0))))
        if chained:
            for solve in masked_chain_norms(p, trace).values():
                max_chain = max(max_chain, float(solve.estimates.max()))
                chain_steps = max(chain_steps, solve.steps)
                live = solve.estimates > 0  # a zero estimate has a zero residual
                ratios = solve.residuals[live] / solve.estimates[live]
                chain_residual = max(chain_residual, float(ratios.max(initial=0.0)))
            backward_worst = max(backward_worst, _backward_chain_ratios(p, trace))
    if not chained:
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
        "max_chain_over_sqrtL": max_chain / math.sqrt(L) if chained else None,
        "chain_solver_max_steps": chain_steps,
        "chain_max_residual_over_estimate": chain_residual,
        "backward_chain_ratio": backward_worst,
    }
    passed = (
        max_log_dev <= math.log1p(epsilon)
        and max_out <= thresholds["max_output_norm"]
        and min_sep_ratio >= thresholds["min_separation_over_delta"]
        and (not chained or scalars["max_chain_over_sqrtL"] <= thresholds["max_chain_over_sqrtL"])
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


def gradient_bound_probe(data: Dataset, hp: HyperParams, shape: Shape,
                         rng: RngState) -> ProbeReport:
    """Squared gradient Frobenius norms against hidden width m, for both
    encoders, on one fixed dataset.  The closed-form gradients predict
    ||grad||_F^2 = Theta(m / d) * (per-sample loss-vector energy), so the
    log-log slope in m should be 1; the normalized ratio
    r = ||grad||^2 n d / (m * sum ||loss vec||^2) should sit in a stable band.
    It runs one sweep at ``shape``'s other dimensions, the widths m // 4 (at
    least 1), m and 4m of its m, with 4 = ``GRADIENT_WIDTH_RATIO``; at
    m = 1024 that is (256, 1024, 4096), acceptance criterion 6's sweep.
    Each width's nets come fresh from ``rng``'s ``w-{m}`` and ``theta-{m}``
    streams, and its numbers from the record ``train`` writes at t = 0
    (``gd_step`` without ``out``), through one scratch sized for the widest
    width: the probe holds one width's nets and one gradient layer.  A
    non-finite record raises DivergenceError naming its width.
    """
    n, L, d = data.n, shape.L, shape.d
    ms = (max(1, shape.m // GRADIENT_WIDTH_RATIO), shape.m, GRADIENT_WIDTH_RATIO * shape.m)
    scratch = step_scratch(replace(shape, m=ms[-1]))

    def record(m: int) -> StepRecord:  # width m's nets are freed when it returns
        sized = replace(shape, m=m)
        nets = init_params(rng.child(f"w-{m}"), sized), init_params(rng.child(f"theta-{m}"), sized)
        try:
            return gd_step(*nets, data, hp, nets, None, 0, scratch)
        except DivergenceError as err:
            raise DivergenceError(f"gradient probe width {m}: {err}") from None

    rows = [(r.loss, r.grad_w_fro ** 2, r.grad_theta_fro ** 2, r.losstilde_norm, r.losshat_norm)
            for r in map(record, ms)]
    loss, gw2, gt2, tilde, hat = (list(col) for col in zip(*rows))
    rw = [w2 * n * d / (m * t**2) if t**2 > 0 else math.nan for m, w2, t in zip(ms, gw2, tilde)]
    rt = [t2 * n * d / (m * h**2) if h**2 > 0 else math.nan for m, t2, h in zip(ms, gt2, hat)]
    series = {"grad_w_sq_vs_m": gw2, "grad_theta_sq_vs_m": gt2}
    fits, passed, notes = _verdict(ms, series, dict.fromkeys(series, GRADIENT_SLOPE_BAND),
                                   GRADIENT_R2_GATE, "widths")
    # fmin and fmax skip NaN as nanmin does, but give NaN without a warning when
    # every width's ratio is undefined (a dead net's loss vectors are 0)
    scalars = {
        "r_w_min": float(np.fmin.reduce(rw)), "r_w_max": float(np.fmax.reduce(rw)),
        "r_theta_min": float(np.fmin.reduce(rt)), "r_theta_max": float(np.fmax.reduce(rt)),
        "grad_w_sq": gw2, "grad_theta_sq": gt2,
        "loss": loss, "losstilde_norm": tilde, "losshat_norm": hat,
    }
    return ProbeReport(
        name="gradient-scaling",
        statement=(
            "squared gradient norms of both encoders grow linearly with hidden "
            "width m, sandwiched between width-proportional lower and upper "
            "bounds driven by the per-sample loss vectors"
        ),
        config={"ms": list(ms), "L": L, "d": d, "n": n, "k": hp.k},
        scalars=scalars,
        fits=fits,
        thresholds={"slope_lo": GRADIENT_SLOPE_BAND[0], "slope_hi": GRADIENT_SLOPE_BAND[1],
                    "r2_min": GRADIENT_R2_GATE},
        passed=passed,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# semi-smoothness


def _unit_frobenius_directions(qp: Params, kp: Params, rng: RngState) -> tuple[list, list]:
    gen = rng.generator()
    u = [gen.standard_normal(w.shape) for w in qp.weights]
    v = [gen.standard_normal(w.shape) for w in kp.weights]
    total = math.sqrt(sum_of_squares(u + v))
    for a in u + v:
        a /= total
    return u, v


def _perturbed_losses(qp: Params, kp: Params, u: list, v: list, data: Dataset,
                      hp: HyperParams, rhos: tuple[float, ...]) -> list[float]:
    """L(W + rho U, theta + rho V) at every rho, from one stacked forward
    pass per net."""
    return [total_loss_exact(EncodedBatch.from_traces(qt, kt), hp.k, cap=hp.enumeration_cap)
            for qt, kt in zip(forward_shifted(qp, u, rhos, data.points),
                              forward_shifted(kp, v, rhos, data.points))]


def smoothness_probe(qp: Params, kp: Params, data: Dataset, hp: HyperParams,
                     rng: RngState) -> ProbeReport:
    """First-order Taylor residual of the loss along random joint directions.

    For ``SMOOTHNESS_DIRECTIONS`` unit-Frobenius (U, V) and each scale rho of
    ``SMOOTHNESS_RHOS``, measures
    R(rho) = L(W + rho U, theta + rho V) - L(W, theta) - rho <grad, (U, V)>
    and fits log|R| against log rho.  A plain Lipschitz-smooth loss would give
    exponent 2; activation kinks contribute an intermediate-power error term,
    so the fitted exponent should land in (1, 2], and at least 1.25 over this
    sweep.  At its peak it holds one direction set of both nets, their
    stacked traces and two layers: a gradient layer and its product.
    """
    rhos, n_directions = SMOOTHNESS_RHOS, SMOOTHNESS_DIRECTIONS
    loss, lv, nets = _gradients(qp, kp, data, hp)
    q_factors, k_factors = (list(pairs)[::-1] for pairs in nets)  # layer order 0..L
    residuals = np.zeros((n_directions, len(rhos)))
    for di in range(n_directions):
        u, v = _unit_frobenius_directions(qp, kp, rng.child(f"dir-{di}"))
        inner = sum(float(np.sum((a @ h.T) * w)) for (a, h), w in zip(q_factors, u))
        inner += sum(float(np.sum((a @ h.T) * w)) for (a, h), w in zip(k_factors, v))
        for ri, (rho, val) in enumerate(zip(rhos, _perturbed_losses(qp, kp, u, v, data, hp, rhos))):
            if not math.isfinite(val):
                raise EvaluationError(f"perturbed loss non-finite at rho={rho}")
            residuals[di, ri] = val - loss - rho * inner
        del u, v  # before the next direction's draw: one set alive at a time
    mean_abs = np.abs(residuals).mean(axis=0)
    fits, passed, notes = _verdict(rhos, {"abs_residual_vs_rho": mean_abs},
                                   {"abs_residual_vs_rho": SMOOTHNESS_EXPONENT_BAND},
                                   R2_GATE, "positive rhos")
    rho_arr = np.asarray(rhos)
    # residual magnitude relative to the two structural error scales
    m, d, n = qp.shape.m, qp.shape.d, data.n
    first_order_scale = rho_arr ** (4 / 3) * math.sqrt(
        m * math.log(m) / (n * d)
    ) * lv.total_norm
    second_order_scale = rho_arr ** 2 * hp.k * qp.shape.L**2 * m**2 / d**2
    with np.errstate(divide="ignore", invalid="ignore"):  # log m = 0 at m = 1
        first_order_ratio = mean_abs / first_order_scale
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
            "residual_over_first_order_scale": first_order_ratio.tolist(),
            "residual_over_second_order_scale": (mean_abs / second_order_scale).tolist(),
        },
        fits=fits,
        thresholds={"exponent_min": SMOOTHNESS_EXPONENT_BAND[0], "r2_min": R2_GATE},
        passed=passed,
        notes=notes,
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


# Stopping tolerance of the spectral norm that scales each perturbation
# direction's layer; its accuracy on Gaussian layers is stated in
# ``linalg.spectral_norm``.
DIRECTION_TOL = 1e-4


def _unit_spectral_layers(p: Params, gen: np.random.Generator) -> Iterator[np.ndarray]:
    """One Gaussian direction per layer of ``p``, drawn in layer order into
    one buffer the size of the largest layer and divided in place by its
    spectral norm; each draw overwrites the layer yielded before it."""
    buf = np.empty(max(w.size for w in p.weights))
    for w in p.weights:
        g = buf[:w.size].reshape(w.shape)
        gen.standard_normal(out=g)
        g /= spectral_norm(g, tol=DIRECTION_TOL)
        yield g


def perturbation_probe(qp: Params, data: Dataset, rng: RngState) -> ProbeReport:
    """Activation-pattern and output response to weight perturbations.

    Perturbs every layer by each of ``PERTURBATION_DIRECTIONS`` random
    directions at spectral norm omega for each omega of
    ``PERTURBATION_OMEGAS`` (the same direction rescaled across the sweep, so
    spectral-normalization error cancels out of the fitted exponents), then
    measures the fraction of flipped ReLU masks and the output drift.

    Along a random direction each unit flips with probability proportional
    to omega (its pre-activation moves by O(omega) and has a bounded density
    at 0), so the flip exponent is 1.  The omega^{2/3} of Allen-Zhu, Li &
    Song (arXiv:1811.03962, Lemma 8.2) is a worst case over all perturbations
    of spectral norm omega, reached only by directions aimed at the units
    nearest their kinks; it is reported in the notes, not checked.  Each
    direction reaches the stacked pass one layer at a time, so at its peak
    the probe holds one direction layer (the largest), two stacked traces
    and one layer's products.
    """
    omegas, n_directions = PERTURBATION_OMEGAS, PERTURBATION_DIRECTIONS
    xs = data.points
    base = forward_batch(qp, xs)
    base_pattern = base.pattern
    flips, out_drift, hid_drift = (np.zeros((n_directions, len(omegas))) for _ in range(3))
    for di in range(n_directions):
        direction = _unit_spectral_layers(qp, rng.child(f"dir-{di}").generator())
        traces = forward_shifted(qp, direction, omegas, xs)
        for oi, t in enumerate(traces):
            flips[di, oi] = float(np.mean(t.pattern ^ base_pattern))
            out_drift[di, oi] = float(
                np.max(np.linalg.norm(t.outputs - base.outputs, axis=0))
            )
            hid_drift[di, oi] = max(
                float(np.max(np.linalg.norm(h - h0, axis=0)))
                for h, h0 in zip(t.hidden, base.hidden)
            )
    mean_flips, mean_out, mean_hid = (a.mean(axis=0) for a in (flips, out_drift, hid_drift))
    series = {"flip_fraction_vs_omega": mean_flips, "output_drift_vs_omega": mean_out,
              "hidden_drift_vs_omega": mean_hid}
    bands = {"flip_fraction_vs_omega": FLIP_SLOPE_BAND, "output_drift_vs_omega": DRIFT_SLOPE_BAND}
    fits, passed, notes = _verdict(omegas, series, bands, R2_GATE, "positive omegas")
    drift_ratio = mean_out / np.asarray(omegas)
    scalars = {
        "mean_flip_fractions": mean_flips.tolist(),
        "mean_output_drifts": mean_out.tolist(),
        "mean_hidden_drifts": mean_hid.tolist(),
        "drift_over_omega_band": (  # undefined when some drift is 0
            float(drift_ratio.max() / drift_ratio.min()) if drift_ratio.min() > 0 else math.nan),
    }
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
        thresholds={"flip_slope_lo": FLIP_SLOPE_BAND[0], "flip_slope_hi": FLIP_SLOPE_BAND[1],
                    "drift_slope_lo": DRIFT_SLOPE_BAND[0], "drift_slope_hi": DRIFT_SLOPE_BAND[1],
                    "r2_min": R2_GATE},
        passed=passed,
        notes=("worst-case ceiling over the spectral ball: flip fraction "
               "O(omega^{2/3} L) (flip exponent 2/3)",) + notes,
    )


# ---------------------------------------------------------------------------
# cross-entropy smoothness


def _quadratic_bound_excess(ys: np.ndarray, yps: np.ndarray) -> np.ndarray:
    """g(y + y') - g(y) - grad g(y) . y' - ||y'||^2 / 2 of each row."""
    g0 = log_partition(ys)
    grad = np.exp(ys - g0[:, None])
    return log_partition(ys + yps) - g0 - np.sum(grad * yps, axis=1) - 0.5 * np.sum(yps**2, axis=1)


def ce_smoothness_check(rng: RngState, trials: int = CE_TRIALS) -> ProbeReport:
    """Second-order upper bound on the softmax log-partition:
    g(y + y') <= g(y) + grad g(y) . y' + ||y'||^2 / 2, checked on random
    pairs plus one step along the gradient itself; g is the loss's ``log_partition``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gen = rng.generator()
    excesses = []
    done = 0
    while done < trials:
        k = int(gen.integers(1, CE_MAX_K + 1))
        batch = min(trials - done, 4096)
        ys, yps = (gen.uniform(-CE_SCALE, CE_SCALE, size=(batch, k)) for _ in range(2))
        excesses.append(_quadratic_bound_excess(ys, yps))
        done += batch
    # adversarial spot check: step along the gradient itself
    y = gen.uniform(-CE_SCALE, CE_SCALE, size=(1, 8))
    excesses.append(_quadratic_bound_excess(y, np.exp(y - log_partition(y)[:, None])))
    excess = np.concatenate(excesses)
    violations = int(np.sum(excess > CE_TOL))
    worst = float(excess.max())
    return ProbeReport(
        name="ce-smoothness",
        statement=(
            "the softmax log-partition g(y) = log(1 + sum exp(y_i)) satisfies "
            "the quadratic upper bound of a 1-Lipschitz-smooth function"
        ),
        config={"trials": trials, "max_k": CE_MAX_K, "scale": CE_SCALE},
        scalars={"violations": violations, "max_excess": worst},
        thresholds={"tol": CE_TOL},
        passed=violations == 0,
    )
