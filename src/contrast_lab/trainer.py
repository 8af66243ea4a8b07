"""Simultaneous gradient descent on both encoders with full instrumentation."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .contrastive import GradResult, HyperParams, grad_params
from .data import Dataset
from .encoder import Params, sum_of_squares
from .errors import DivergenceError
from .linalg import spectral_norm
from .rng import RngState


def theoretical_hyperparams(
    n: int, k: int, L: int, m: int, d: int, delta: float, epsilon: float,
    c_step: float = 1.0, c_T: float = 1.0, c_ball: float = 1.0,
) -> tuple[HyperParams, float, float]:
    """Step sizes, iteration budget, and trajectory radii from the scaling
    formulas (leading constants are configurable; the theory leaves them free).

    eta = gamma = c_step * d eps^2 delta^2 / (n^7 L^2 k m)
    T = ceil(c_T * n^10 L^2 k / (delta^3 eps^4))
    omega = tau = c_ball * n^3.5 sqrt(d) / (delta eps sqrt(m))
    """
    if min(n, k, L, m, d) <= 0 or delta <= 0:
        raise ValueError("all size inputs must be positive")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    eta = c_step * d * epsilon**2 * delta**2 / (n**7 * L**2 * k * m)
    T = math.ceil(c_T * n**10 * L**2 * k / (delta**3 * epsilon**4))
    omega = c_ball * n**3.5 * math.sqrt(d) / (delta * epsilon * math.sqrt(m))
    hp = HyperParams(k=k, eta=eta, gamma=eta, T=T, epsilon=epsilon)
    return hp, omega, omega


@dataclass(frozen=True)
class StepRecord:
    t: int
    loss: float
    losstilde_norm: float
    losshat_norm: float
    loss_vec_norm: float
    grad_w_fro: float
    grad_theta_fro: float
    traj_w_fro: float
    traj_theta_fro: float
    layer_spectral_dist_w: tuple[float, ...]
    layer_spectral_dist_theta: tuple[float, ...]
    step_ms: float


@dataclass
class TrainTrace:
    records: list[StepRecord] = field(default_factory=list)
    mode: str = "exact"

    def __len__(self) -> int:
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.asarray([getattr(r, name) for r in self.records])

    @property
    def running_average_loss_norm(self) -> float:
        """Mean of the stacked loss-vector norm over t = 0..T-1."""
        norms = self.column("loss_vec_norm")
        return float(np.mean(norms[:-1])) if len(norms) > 1 else float(norms[0])


def _layer_spectral_dists(p: Params, ref: Params) -> tuple[float, ...]:
    return tuple(
        spectral_norm(w - w0, tol=1e-3) if not np.array_equal(w, w0) else 0.0
        for w, w0 in zip(p.weights, ref.weights)
    )


def _record(
    t: int, g: GradResult, qp: Params, kp: Params,
    qp0: Params, kp0: Params, step_ms: float,
) -> StepRecord:
    lv = g.loss_vectors
    return StepRecord(
        t=t,
        loss=g.loss,
        losstilde_norm=lv.tilde_norm,
        losshat_norm=lv.hat_norm,
        loss_vec_norm=lv.total_norm,
        grad_w_fro=math.sqrt(sum_of_squares(g.grad_w.weights)),
        grad_theta_fro=math.sqrt(sum_of_squares(g.grad_theta.weights)),
        traj_w_fro=qp.frobenius_distance(qp0),
        traj_theta_fro=kp.frobenius_distance(kp0),
        layer_spectral_dist_w=_layer_spectral_dists(qp, qp0),
        layer_spectral_dist_theta=_layer_spectral_dists(kp, kp0),
        step_ms=step_ms,
    )


def _check_finite(g: GradResult, t: int, trace: TrainTrace | None) -> None:
    ok = math.isfinite(g.loss) and all(
        np.all(np.isfinite(w)) for w in g.grad_w.weights + g.grad_theta.weights
    )
    if not ok:
        raise DivergenceError(f"non-finite loss or gradient at iteration {t}", trace=trace)


def gd_step(
    qp: Params, kp: Params, data: Dataset, hp: HyperParams,
    ref: tuple[Params, Params] | None = None,
    rng: RngState | None = None,
    t: int = 0,
) -> tuple[Params, Params, StepRecord]:
    """One simultaneous update: both gradients are evaluated at the same
    (W, theta) before either parameter moves."""
    qp0, kp0 = ref if ref is not None else (qp, kp)
    started = time.perf_counter()
    g = grad_params(qp, kp, data, hp, rng=rng)
    _check_finite(g, t, None)
    new_q = Params(
        shape=qp.shape,
        weights=tuple(w - hp.eta * gw for w, gw in zip(qp.weights, g.grad_w.weights)),
    )
    new_k = Params(
        shape=kp.shape,
        weights=tuple(w - hp.gamma * gt for w, gt in zip(kp.weights, g.grad_theta.weights)),
    )
    step_ms = (time.perf_counter() - started) * 1000.0
    return new_q, new_k, _record(t, g, qp, kp, qp0, kp0, step_ms)


def train(
    qp0: Params, kp0: Params, data: Dataset, hp: HyperParams,
    rng: RngState | None = None,
    early_stop: bool = False,
) -> tuple[TrainTrace, Params, Params]:
    """Run T simultaneous gradient-descent steps, recording T+1 states.

    With early_stop, halts once the running average of the stacked
    loss-vector norm drops to hp.epsilon.
    """
    trace = TrainTrace(mode=hp.mode)
    qp, kp = qp0, kp0
    mc_rng = rng.child("mc") if rng is not None else None
    norm_sum = 0.0
    for t in range(hp.T):
        step_rng = mc_rng.child(f"t{t}") if mc_rng is not None else None
        try:
            qp, kp, rec = gd_step(qp, kp, data, hp, ref=(qp0, kp0), rng=step_rng, t=t)
        except DivergenceError as err:
            raise DivergenceError(str(err), trace=trace) from err
        trace.records.append(rec)
        norm_sum += rec.loss_vec_norm
        if early_stop and norm_sum / (t + 1) <= hp.epsilon:
            break
    # closing record: metrics of the final parameters, no update applied
    started = time.perf_counter()
    final_rng = mc_rng.child("final") if mc_rng is not None else None
    g = grad_params(qp, kp, data, hp, rng=final_rng)
    _check_finite(g, len(trace), trace)
    step_ms = (time.perf_counter() - started) * 1000.0
    trace.records.append(_record(len(trace), g, qp, kp, qp0, kp0, step_ms))
    return trace, qp, kp
