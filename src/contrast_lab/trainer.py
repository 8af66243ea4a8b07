"""Simultaneous gradient descent on both encoders, with per-step metrics,
and the theory's step size for ``step_mode: theoretical``."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .contrastive import GradResult, HyperParams, grad_params
from .data import Dataset
from .encoder import Params
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

#: Entries per leaf of the step's pass over a layer (see _pairwise), chosen
#: by measurement: at desk scale (m=512; 2-core Xeon, numpy 2.4.6, one BLAS
#: thread) the update and record of both nets took 4.0-4.4 ms per step at
#: 32,768 entries, 4.1-5.6 ms at 16,384, 4.1-4.9 ms at 65,536, 5.5 ms at
#: 131,072 and 8.1 ms at 2,048, where per-call overhead dominates.  A leaf's
#: four operands and the buffer (1.25 MB) then stay in L2.  It must be at
#: least numpy's 128-entry pairwise base block.
BLOCK = 32_768


def _weight_set(p: Params) -> WeightSet:
    return tuple(np.empty(dim) for dim in p.shape.layer_dims())


def _c_order(p: Params) -> Params:
    """``p`` when every layer is C-contiguous, else a C-ordered copy, so that
    the step's flat walk reads it without copying it again each step."""
    if all(w.flags.c_contiguous for w in p.weights):
        return p
    return Params(shape=p.shape, weights=tuple(np.ascontiguousarray(w) for w in p.weights))


def _pairwise(leaf, lo: int, hi: int):
    """leaf(a, b) for each leaf [a, b) of numpy's pairwise-sum tree over
    [lo, hi), left to right, the results added up that tree.  A range of more
    than BLOCK entries splits where numpy's pairwise_sum splits it: after
    n//2 entries less their remainder mod 8 (its 8-way unroll).  So when each
    leaf returns np.sum of its entries, the result has the bits of np.sum
    over the whole range."""
    n = hi - lo
    if n <= BLOCK:
        return leaf(lo, hi)
    mid = lo + n // 2 - (n // 2) % 8
    return _pairwise(leaf, lo, mid) + _pairwise(leaf, mid, hi)


def _layer_pass(g: np.ndarray, w: np.ndarray, w0: np.ndarray, buf: np.ndarray,
                rate: float = 0.0, o: np.ndarray | None = None) -> np.ndarray:
    """[sum of g**2, sum of (w - w0)**2] over flat layers, each with the bits
    of np.sum(np.square(.)), one leaf at a time through ``buf`` (at least
    BLOCK entries).  With ``o``, w + (-rate) * g is written there in the same
    pass, each leaf after its g has been read, so ``g`` may be ``o``."""
    def leaf(lo: int, hi: int) -> np.ndarray:
        b = buf[:hi - lo]
        gs, ws = g[lo:hi], w[lo:hi]
        sums = np.array((np.add.reduce(np.square(gs, out=b)),
                         np.add.reduce(np.square(np.subtract(ws, w0[lo:hi], out=b), out=b))))
        if o is not None:
            step = o[lo:hi]
            np.multiply(gs, -rate, out=step)
            np.add(ws, step, out=step)
        return sums
    return _pairwise(leaf, 0, g.size)


def _norms_and_step(p: Params, grad: Params, ref: Params, buf: np.ndarray,
                    rate: float = 0.0, out: WeightSet | None = None) -> tuple[float, float]:
    """||grad||_F and ||p - ref||_F, the squares added layer by layer, in one
    pass over each layer (see _layer_pass); with ``out`` (C-ordered, sharing
    no memory with ``p`` or ``ref``), the step p - rate * grad is taken there
    in the same pass.  Layers that are not C-contiguous are read through a
    C-ordered copy."""
    grad_sq = dist_sq = 0.0
    for l, (w, w0, g) in enumerate(zip(p.weights, ref.weights, grad.weights)):
        o = out[l].reshape(-1) if out is not None else None
        gg, dd = _layer_pass(g.reshape(-1), w.reshape(-1), w0.reshape(-1), buf, rate, o)
        grad_sq += float(gg)
        dist_sq += float(dd)
    return math.sqrt(grad_sq), math.sqrt(dist_sq)


def _net(p: Params, weights: WeightSet) -> Params:
    return Params(shape=p.shape, weights=tuple(w.view() for w in weights))


def _record(t: int, g: GradResult, norms: tuple[tuple[float, float], tuple[float, float]],
            started: float) -> StepRecord:
    """``norms`` holds (gradient, trajectory) Frobenius norms, query net first."""
    lv = g.loss_vectors
    (grad_w_fro, traj_w_fro), (grad_theta_fro, traj_theta_fro) = norms
    rec = StepRecord(
        t=t,
        loss=g.loss,
        losstilde_norm=lv.tilde_norm,
        losshat_norm=lv.hat_norm,
        loss_vec_norm=lv.total_norm,
        grad_w_fro=grad_w_fro,
        grad_theta_fro=grad_theta_fro,
        traj_w_fro=traj_w_fro,
        traj_theta_fro=traj_theta_fro,
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
    out: tuple[WeightSet, WeightSet] | None = None,
    scratch: np.ndarray | None = None,
) -> tuple[Params, Params, StepRecord]:
    """One simultaneous update: both gradients are evaluated at the same
    (W, theta) before either parameter moves.

    ``out`` holds one writable set of weight arrays per net, query net first,
    that shares no memory with ``qp``, ``kp`` or ``ref``: the gradients are
    written there, and one pass per layer then takes their norms, the
    trajectory norms and the step there in place, so the returned nets are
    views of ``out``.  ``scratch`` is that pass's block buffer (BLOCK
    entries).  Either is allocated when None.  Overflow and invalid values
    are left to the record's finiteness check, which raises DivergenceError."""
    if out is None:
        out = (_weight_set(qp), _weight_set(kp))
    if scratch is None:
        scratch = np.empty(BLOCK)
    ref_q, ref_k = ref if ref is not None else (qp, kp)
    started = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        g = grad_params(qp, kp, data, hp, rng=rng, out=out)
        norms = (_norms_and_step(qp, g.grad_w, ref_q, scratch, hp.eta, out[0]),
                 _norms_and_step(kp, g.grad_theta, ref_k, scratch, hp.gamma, out[1]))
        rec = _record(t, g, norms, started)
    return _net(qp, out[0]), _net(kp, out[1]), rec


def train(
    qp0: Params, kp0: Params, data: Dataset, hp: HyperParams,
    rng: RngState | None = None,
) -> tuple[TrainTrace, Params, Params]:
    """Run T simultaneous gradient-descent steps, recording T+1 states.

    train owns two weight sets per net and one block buffer.  Step t writes
    into the set that does not hold W_t (see gd_step); the set that held W_t
    then takes step t+1's gradients, once the nets over it are dropped.  So
    after the first step no step allocates a weight-sized array.  Caller
    nets that are not C-ordered are copied once, here.  The caller's nets
    are never written, and neither are the returned ones."""
    trace = TrainTrace()
    sets = [(_weight_set(qp0), _weight_set(kp0)) for _ in range(2)]
    buf = np.empty(BLOCK)
    ref = qp, kp = _c_order(qp0), _c_order(kp0)
    mc_rng = rng.child("mc") if rng is not None else None
    for t in range(hp.T):
        step_rng = mc_rng.child(f"t{t}") if mc_rng is not None else None
        qp, kp, rec = gd_step(qp, kp, data, hp, ref=ref, rng=step_rng, t=t,
                              out=sets[t % 2], scratch=buf)
        trace.records.append(rec)
    # closing record: metrics of the final parameters, no update applied
    started = time.perf_counter()
    final_rng = mc_rng.child("final") if mc_rng is not None else None
    with np.errstate(over="ignore", invalid="ignore"):
        g = grad_params(qp, kp, data, hp, rng=final_rng, out=sets[hp.T % 2])
        norms = (_norms_and_step(qp, g.grad_w, ref[0], buf),
                 _norms_and_step(kp, g.grad_theta, ref[1], buf))
        trace.records.append(_record(len(trace), g, norms, started))
    return trace, qp, kp
