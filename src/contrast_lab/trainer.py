"""Simultaneous gradient descent on both encoders, with per-step metrics,
and the theory's step size for ``step_mode: theoretical``."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .contrastive import GradResult, HyperParams, grad_params
from .data import Dataset
from .encoder import Params, sum_of_squares
from .errors import DivergenceError
from .rng import RngState


def theoretical_step_size(n: int, k: int, L: int, m: int, d: int,
                          delta: float, epsilon: float) -> float:
    """The step size eta = gamma = d eps^2 delta^2 / (n^7 L^2 k m) of the
    convergence theorem, with its free leading constant set to 1."""
    if min(n, k, L, m, d) <= 0 or delta <= 0:
        raise ValueError("all size inputs must be positive")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    return d * epsilon**2 * delta**2 / (n**7 * L**2 * k * m)


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
    step_ms: float


@dataclass
class TrainTrace:
    records: list[StepRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.asarray([getattr(r, name) for r in self.records])

    @property
    def running_average_loss_norm(self) -> float:
        """Mean of the stacked loss-vector norm over t = 0..T-1."""
        norms = self.column("loss_vec_norm")
        return float(np.mean(norms[:-1])) if len(norms) > 1 else float(norms[0])


def _record(
    t: int, g: GradResult, qp: Params, kp: Params,
    qp0: Params, kp0: Params, started: float,
) -> StepRecord:
    lv = g.loss_vectors
    rec = StepRecord(
        t=t,
        loss=g.loss,
        losstilde_norm=lv.tilde_norm,
        losshat_norm=lv.hat_norm,
        loss_vec_norm=lv.total_norm,
        grad_w_fro=math.sqrt(sum_of_squares(g.grad_w.weights)),
        grad_theta_fro=math.sqrt(sum_of_squares(g.grad_theta.weights)),
        traj_w_fro=qp.frobenius_distance(qp0),
        traj_theta_fro=kp.frobenius_distance(kp0),
        step_ms=(time.perf_counter() - started) * 1000.0,  # after the fields above
    )
    # A NaN or infinite gradient entry makes its sum of squares, and so its
    # norm, non-finite.  So does a finite gradient whose squared norm
    # overflows float64 (norm above about 1.3e154): that step raises too.
    if not all(math.isfinite(x) for x in (rec.loss, rec.grad_w_fro, rec.grad_theta_fro)):
        raise DivergenceError(f"non-finite loss or gradient at iteration {t}")
    return rec


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
    new_q = qp.shifted(g.grad_w.weights, -hp.eta)
    new_k = kp.shifted(g.grad_theta.weights, -hp.gamma)
    return new_q, new_k, _record(t, g, qp, kp, qp0, kp0, started)


def train(
    qp0: Params, kp0: Params, data: Dataset, hp: HyperParams,
    rng: RngState | None = None,
) -> tuple[TrainTrace, Params, Params]:
    """Run T simultaneous gradient-descent steps, recording T+1 states."""
    trace = TrainTrace()
    qp, kp = qp0, kp0
    mc_rng = rng.child("mc") if rng is not None else None
    for t in range(hp.T):
        step_rng = mc_rng.child(f"t{t}") if mc_rng is not None else None
        qp, kp, rec = gd_step(qp, kp, data, hp, ref=(qp0, kp0), rng=step_rng, t=t)
        trace.records.append(rec)
    # closing record: metrics of the final parameters, no update applied
    started = time.perf_counter()
    final_rng = mc_rng.child("final") if mc_rng is not None else None
    g = grad_params(qp, kp, data, hp, rng=final_rng)
    trace.records.append(_record(len(trace), g, qp, kp, qp0, kp0, started))
    return trace, qp, kp
