"""Simultaneous gradient descent on both encoders, with per-step metrics,
and the theory's step size for ``step_mode: theoretical``."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .contrastive import HyperParams, _gradients
from .data import Dataset
from .encoder import Params, Shape
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
    pass, each leaf after its g and w have been read, so ``o`` may be ``g``
    or ``w``."""
    def leaf(lo: int, hi: int) -> np.ndarray:
        b = buf[:hi - lo]
        gs, ws = g[lo:hi], w[lo:hi]
        sums = np.array((np.add.reduce(np.square(gs, out=b)),
                         np.add.reduce(np.square(np.subtract(ws, w0[lo:hi], out=b), out=b))))
        if o is not None:
            np.add(ws, np.multiply(gs, -rate, out=b), out=o[lo:hi])
        return sums
    return _pairwise(leaf, 0, g.size)


def _norms_and_step(p: Params, factors: Iterator[tuple[np.ndarray, np.ndarray]], ref: Params,
                    scratch: np.ndarray, rate: float, out: WeightSet | None) -> tuple[float, float]:
    """||grad||_F and ||p - ref||_F from the factors (a, h) ``factors``
    yields, top layer first: each gradient a @ h.T is formed in ``scratch``
    after its block buffer and taken in one pass (see _layer_pass), squares
    added in layer order 0..L; with ``out`` (C-ordered, sharing no memory
    with ``ref``) the pass steps p - rate * grad there, so ``out`` may hold p's own weights."""
    sums = [None] * len(p.weights)
    for l, (a, h) in zip(range(p.shape.L, -1, -1), factors):
        g = np.matmul(a, h.T, out=scratch[BLOCK:BLOCK + len(a) * len(h)].reshape(len(a), len(h)))
        o = out[l].reshape(-1) if out is not None else None
        sums[l] = _layer_pass(g.reshape(-1), p.weights[l].reshape(-1),
                              ref.weights[l].reshape(-1), scratch[:BLOCK], rate, o)
    grad_sq = dist_sq = 0.0
    for gg, dd in sums:
        grad_sq += float(gg)
        dist_sq += float(dd)
    return math.sqrt(grad_sq), math.sqrt(dist_sq)


def step_scratch(shape: Shape) -> np.ndarray:
    """gd_step's scratch for nets of ``shape``: the step pass's block buffer
    (BLOCK entries), then room for the largest layer's gradient."""
    return np.empty(BLOCK + max(rows * cols for rows, cols in shape.layer_dims()))


def gd_step(qp: Params, kp: Params, data: Dataset, hp: HyperParams, ref: tuple[Params, Params],
            rng: RngState | None, t: int, scratch: np.ndarray,
            out: tuple[WeightSet, WeightSet] | None = None) -> StepRecord:
    """The record of (qp, kp) at step t, with both gradients evaluated at the
    same (W, theta), taken through ``scratch`` (step_scratch of their shape,
    or larger).  With ``out`` (one writable, C-ordered set of weight
    arrays per net, query net first, sharing no memory with ``ref``) the
    simultaneous update is taken there, each layer as soon as its gradient is
    yielded, in the same pass as its norms (see _norms_and_step), so ``out``
    may hold the nets' own weights.  step_ms runs from the gradient to the
    end of the record.  Overflow and invalid values are left to the record's
    finiteness check, which raises DivergenceError."""
    started = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        loss, lv, layers = _gradients(qp, kp, data, hp, rng)
        (grad_w_fro, traj_w_fro), (grad_theta_fro, traj_theta_fro) = (
            _norms_and_step(p, factors, r, scratch, rate, o)
            for p, factors, r, rate, o in zip((qp, kp), layers, ref, (hp.eta, hp.gamma),
                                            out or (None, None)))
        rec = StepRecord(
            t=t,
            loss=loss,
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


def train(
    qp0: Params, kp0: Params, data: Dataset, hp: HyperParams,
    rng: RngState | None = None,
) -> tuple[TrainTrace, Params, Params]:
    """Run T simultaneous gradient-descent steps, recording T+1 states.

    train owns one weight set per net, a C-ordered copy of the caller's
    nets, and steps it in place (see gd_step), plus one step_scratch; no
    step allocates a weight-sized array.  The closing record is gd_step
    without ``out``.  The caller's nets, copied once here when they are not
    C-ordered, stay W_0 and are never written; the returned nets view the
    working set."""
    trace = TrainTrace()
    ref = _c_order(qp0), _c_order(kp0)
    work = tuple(tuple(w.copy() for w in p.weights) for p in ref)
    qp, kp = (Params(shape=p.shape, weights=ws) for p, ws in zip(ref, work))
    scratch = step_scratch(qp.shape)
    mc_rng = rng.child("mc") if rng is not None else None
    for t in range(hp.T + 1):
        last = t == hp.T  # the closing record: the final nets, no update applied
        step_rng = mc_rng.child("final" if last else f"t{t}") if mc_rng is not None else None
        trace.records.append(gd_step(qp, kp, data, hp, ref, step_rng, t, scratch,
                                     None if last else work))
    return trace, qp, kp
