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


WeightSet = tuple[np.ndarray, ...]  # one writable array per layer of a net


def _weight_set(p: Params) -> WeightSet:
    return tuple(np.empty(dim) for dim in p.shape.layer_dims())


def _scratch(p: Params) -> WeightSet:
    """One array per layer, shared by the layers of one shape."""
    by_dim = {dim: np.empty(dim) for dim in p.shape.layer_dims()}
    return tuple(by_dim[dim] for dim in p.shape.layer_dims())


def _step_into(p: Params, grad: Params, rate: float, out: WeightSet) -> Params:
    """W - rate * G written into ``out``, with the two roundings of
    w + (-rate) * g; ``grad`` may be read-only views of ``out``."""
    for w, g, o in zip(p.weights, grad.weights, out):
        np.multiply(g, -rate, out=o)
        np.add(w, o, out=o)
    return Params(shape=p.shape, weights=tuple(o.view() for o in out))


def _record(
    t: int, g: GradResult, grad_fro: tuple[float, float], qp: Params, kp: Params,
    ref: tuple[Params, Params], scratch: WeightSet, started: float,
) -> StepRecord:
    lv = g.loss_vectors
    rec = StepRecord(
        t=t,
        loss=g.loss,
        losstilde_norm=lv.tilde_norm,
        losshat_norm=lv.hat_norm,
        loss_vec_norm=lv.total_norm,
        grad_w_fro=grad_fro[0],
        grad_theta_fro=grad_fro[1],
        traj_w_fro=qp.frobenius_distance(ref[0], scratch),
        traj_theta_fro=kp.frobenius_distance(ref[1], scratch),
        step_ms=(time.perf_counter() - started) * 1000.0,  # after the fields above
    )
    # A NaN or infinite gradient entry makes its sum of squares, and so its
    # norm, non-finite.  So does a finite gradient whose squared norm
    # overflows float64 (norm above about 1.3e154): that step raises too.
    if not all(math.isfinite(x) for x in (rec.loss, rec.grad_w_fro, rec.grad_theta_fro)):
        raise DivergenceError(f"non-finite loss or gradient at iteration {t}")
    return rec


def _grad_fro(g: GradResult, scratch: WeightSet) -> tuple[float, float]:
    return (math.sqrt(sum_of_squares(g.grad_w.weights, scratch)),
            math.sqrt(sum_of_squares(g.grad_theta.weights, scratch)))


def gd_step(
    qp: Params, kp: Params, data: Dataset, hp: HyperParams,
    ref: tuple[Params, Params] | None = None,
    rng: RngState | None = None,
    t: int = 0,
    out: tuple[WeightSet, WeightSet] | None = None,
    scratch: WeightSet | None = None,
) -> tuple[Params, Params, StepRecord]:
    """One simultaneous update: both gradients are evaluated at the same
    (W, theta) before either parameter moves.

    ``out`` holds one writable set of weight arrays per net, query net first,
    that shares no memory with ``qp``, ``kp`` or ``ref``: the gradients are
    written there, their norms taken, and the step is then taken there in
    place, so the returned nets are views of ``out``.  ``scratch`` (one array
    per layer, see _scratch) holds the record's squares.  Either is allocated
    when None.  Overflow and invalid values are left to the record's
    finiteness check, which raises DivergenceError."""
    if out is None:
        out = (_weight_set(qp), _weight_set(kp))
    if scratch is None:
        scratch = _scratch(qp)
    started = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        g = grad_params(qp, kp, data, hp, rng=rng, out=out)
        grad_fro = _grad_fro(g, scratch)  # before the step overwrites the gradients
        new_q = _step_into(qp, g.grad_w, hp.eta, out[0])
        new_k = _step_into(kp, g.grad_theta, hp.gamma, out[1])
        rec = _record(t, g, grad_fro, qp, kp, ref if ref is not None else (qp, kp),
                      scratch, started)
    return new_q, new_k, rec


def train(
    qp0: Params, kp0: Params, data: Dataset, hp: HyperParams,
    rng: RngState | None = None,
) -> tuple[TrainTrace, Params, Params]:
    """Run T simultaneous gradient-descent steps, recording T+1 states.

    train owns two weight sets per net and one scratch array per layer
    shape.  Step t writes into the set that does not hold W_t (see gd_step);
    the set that held W_t then takes step t+1's gradients, once the nets
    over it are dropped.  So after the first step no step allocates a
    weight-sized array.  The caller's nets are never written, and neither
    are the returned ones."""
    trace = TrainTrace()
    sets = [(_weight_set(qp0), _weight_set(kp0)) for _ in range(2)]
    scratch = _scratch(qp0)
    qp, kp = qp0, kp0
    mc_rng = rng.child("mc") if rng is not None else None
    for t in range(hp.T):
        step_rng = mc_rng.child(f"t{t}") if mc_rng is not None else None
        qp, kp, rec = gd_step(qp, kp, data, hp, ref=(qp0, kp0), rng=step_rng, t=t,
                              out=sets[t % 2], scratch=scratch)
        trace.records.append(rec)
    # closing record: metrics of the final parameters, no update applied
    started = time.perf_counter()
    final_rng = mc_rng.child("final") if mc_rng is not None else None
    with np.errstate(over="ignore", invalid="ignore"):
        g = grad_params(qp, kp, data, hp, rng=final_rng, out=sets[hp.T % 2])
        trace.records.append(_record(len(trace), g, _grad_fro(g, scratch), qp, kp,
                                     (qp0, kp0), scratch, started))
    return trace, qp, kp
