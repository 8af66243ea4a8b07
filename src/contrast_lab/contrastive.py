"""Contrastive loss with exact one-against-all negative sampling.

The total loss averages, over every sample i and every k-subset of the
remaining points, log(1 + sum_j exp(q_i . (k_j - k_i))).  Everything here
works in that log(1 + sum exp) form; the softmax-ratio form overflows.

Loss vectors follow the convention pinned by the finite-difference oracle:
losstilde_i and losshat_i are gradients of n * total_loss with respect to
q_i and k_i.  The compensating 1/n sits in the parameter gradients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import Dataset
from .encoder import BatchTrace, Params, backward_batch, forward_batch, sum_of_squares
from .errors import EnumerationError, ShapeError
from .rng import RngState

DEFAULT_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class EncodedBatch:
    queries: np.ndarray  # (n, d)
    keys: np.ndarray  # (n, d)
    query_trace: BatchTrace
    key_trace: BatchTrace

    @property
    def n(self) -> int:
        return self.queries.shape[0]

    @staticmethod
    def from_traces(qt: BatchTrace, kt: BatchTrace) -> "EncodedBatch":
        return EncodedBatch(queries=qt.outputs.T.copy(), keys=kt.outputs.T.copy(),
                            query_trace=qt, key_trace=kt)


def encode_batch(qp: Params, kp: Params, data: Dataset) -> EncodedBatch:
    if qp.shape != kp.shape:
        raise ShapeError("query and key encoders must share one shape")
    return EncodedBatch.from_traces(forward_batch(qp, data.points), forward_batch(kp, data.points))


@dataclass(frozen=True)
class LossVectors:
    """Gradients of n * total_loss w.r.t. each query output and key output."""

    losstilde: np.ndarray  # (n, d)
    losshat: np.ndarray  # (n, d)

    @property
    def tilde_norm(self) -> float:
        return math.sqrt(sum_of_squares((self.losstilde,)))

    @property
    def hat_norm(self) -> float:
        return math.sqrt(sum_of_squares((self.losshat,)))

    @property
    def total_norm(self) -> float:
        return math.hypot(self.tilde_norm, self.hat_norm)


@dataclass(frozen=True)
class HyperParams:
    k: int
    eta: float
    gamma: float
    T: int
    epsilon: float = 0.5
    mode: str = "exact"  # "exact" | "monte-carlo"
    mc_samples: int = 2000
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.eta < 0 or self.gamma < 0:
            raise ValueError("step sizes must be nonnegative")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.mode not in ("exact", "monte-carlo"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _draw_subsets(gen: np.random.Generator, samples: int, n: int, k: int) -> np.ndarray:
    """(samples, n, k) uniform k-subsets of the n-1 others of each anchor, as
    indices relative to [n] minus the anchor, by Floyd's algorithm (Bentley &
    Floyd, CACM 30(9), 1987) for every (sample, anchor) at once: for j = n-1-k,
    ..., n-2 draw t uniform in [0, j], and take j instead if t is a member.
    Beside the index array it holds one int64 and one bool (samples, n) array."""
    check_subsets(n, k)
    out = np.empty((samples, n, k), dtype=np.intp)
    for col, j in enumerate(range(n - 1 - k, n - 1)):
        t = gen.integers(0, j + 1, (samples, n))
        for prev in range(col):  # a t set to j matches no later member: all are < j
            np.putmask(t, out[:, :, prev] == t, j)
        out[:, :, col] = t
        del t  # before the next column's draw
    return out


def _draw_rows(gen: np.random.Generator, samples: int, n: int, subsets: int) -> np.ndarray:
    """(samples, n) uniform rows of each anchor's table of its subsets."""
    return gen.integers(0, subsets, (samples, n))


@lru_cache(maxsize=64)
def _relative_subsets(n_others: int, k: int) -> np.ndarray:
    """All k-subsets of range(n_others), lexicographic, as an index array."""
    combos = np.asarray(list(itertools.combinations(range(n_others), k)), dtype=np.intp)
    combos.flags.writeable = False
    return combos


@lru_cache(maxsize=64)
def _others(n: int) -> np.ndarray:
    """others[i, r] = the r-th of the n-1 points other than i, shape (n, n-1)."""
    r = np.arange(n - 1)
    others = r + (r >= np.arange(n)[:, None])
    others.flags.writeable = False
    return others


def _logit_table(batch: EncodedBatch, anchors: slice) -> tuple[np.ndarray, ...]:
    """For the r-th other j of anchor i in the range anchors: others[a, r] = j,
    the key difference z[a, r] = k_j - k_i and the logit q_i . z[a, r], shape
    (g, n-1)."""
    others = _others(batch.n)[anchors]
    z = batch.keys[others] - batch.keys[anchors, None]
    # The stacked product rounds like the per-anchor z_i @ q_i; einsum does not.
    return others, z, (z @ batch.queries[anchors, :, None])[..., 0]


def log_partition(a: np.ndarray) -> np.ndarray:
    """log(1 + sum exp(a)) over the last axis, shifted by the row maximum: the
    loss of each negative subset from its logits."""
    hi = np.maximum(a.max(axis=-1), 0.0)
    e = a - hi[..., None]
    s = np.exp(e, out=e).sum(axis=-1)
    del e  # as large as a; free it before the vectors k times smaller
    return hi + np.log(s + np.exp(-hi))


def check_subsets(n: int, k: int, cap: float = math.inf) -> None:
    """Raise unless 1 <= k <= n-1 and each anchor has at most cap k-subsets."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    if math.comb(n - 1, k) > cap:
        raise EnumerationError(f"C({n - 1},{k}) = {math.comb(n - 1, k)} subsets exceeds the "
                               f"enumeration cap {cap}; only monte-carlo mode runs above it")


def _exact_groups(n: int, k: int, cap: int) -> tuple[np.ndarray, list[slice]]:
    """Every anchor's k-subsets of its others, rel (C(n-1, k), k), and the
    anchors in ranges of at most cap subset losses (one anchor at least)."""
    check_subsets(n, k, cap)
    rel = _relative_subsets(n - 1, k)
    size = max(1, cap // len(rel))
    return rel, [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _flat_groups(n: int, k: int, cap: int):
    """The anchor ranges of _exact_groups, each with the flat index (g,
    C(n-1, k), k) of every subset member into the range's logits."""
    rel, groups = _exact_groups(n, k, cap)
    return ((anchors, (np.arange(anchors.stop - anchors.start) * (n - 1))[:, None, None] + rel)
            for anchors in groups)


def _mc_index(rng: RngState, samples: int, n: int, k: int) -> tuple[np.ndarray | None, np.ndarray]:
    """Uniform negative subsets, `samples` per anchor, as (rows, index).

    When an anchor has no more subsets than there are draws, C(n-1, k) <=
    samples, index is rel (C(n-1, k), k), every anchor's subsets of its
    others, as the exact loss gathers them, and rows (samples, n) picks each
    draw's subset: rel[row] of each anchor.  The table of every anchor's
    subset losses holds no more logits than the draw.  Above it rows is None
    and index (samples, n, k) is the Floyd draw as an index into all n
    anchors' logits."""
    if math.comb(n - 1, k) <= samples:
        rel, _ = _exact_groups(n, k, n * samples)  # the draw's size: one group
        return _draw_rows(rng.generator(), samples, n, len(rel)), rel
    flat = _draw_subsets(rng.generator(), samples, n, k)
    flat += (np.arange(n) * (n - 1))[:, None]
    return None, flat


def _subset_losses(batch: EncodedBatch, anchors: slice, rel: np.ndarray) -> np.ndarray:
    """The loss of each of the anchors' subsets in rel, (g, C(n-1, k))."""
    return log_partition(np.take(_logit_table(batch, anchors)[2], rel, axis=1))


def total_loss_exact(batch: EncodedBatch, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    rel, groups = _exact_groups(batch.n, k, cap)
    means = [_subset_losses(batch, anchors, rel).mean(axis=1) for anchors in groups]
    # cumsum adds the anchors' means in order, like the per-anchor reference in
    # the tests; np.sum would pair them
    return float(np.cumsum(np.concatenate(means))[-1]) / batch.n


def total_loss_mc(
    batch: EncodedBatch, k: int, rng: RngState, samples: int
) -> tuple[float, float]:
    """Unbiased Monte-Carlo estimate of the exact loss, with standard error.
    When C(n-1, k) <= samples (see _mc_index) each draw gathers its subset
    losses from the (n, C(n-1, k)) table of the losses the exact loss averages."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    rows, index = _mc_index(rng, samples, batch.n, k)
    if rows is None:
        losses = log_partition(np.take(_logit_table(batch, slice(None))[2], index))
    else:
        losses = _subset_losses(batch, slice(None), index)[np.arange(batch.n), rows]
    draws = losses.mean(axis=1)
    return float(np.mean(draws)), float(np.std(draws, ddof=1) / math.sqrt(samples))


def _coefficient_table(batch: EncodedBatch, groups) -> tuple[float, np.ndarray, np.ndarray]:
    """The total loss, the pairwise coefficients c[i, j] (the mean over the
    subsets of the softmax weight of key j as a negative for query i) and
    losstilde, over the groups of (anchor range, index of each subset member
    into the range's logits)."""
    n, d = batch.queries.shape
    coeff = np.zeros((n, n))
    losstilde = np.empty((n, d))
    means = []
    for anchors, flat in groups:
        others, z, logits = _logit_table(batch, anchors)
        a = np.take(logits, flat)
        losses = log_partition(a)
        means.append(losses.mean(axis=1))
        a -= losses[..., None]
        np.exp(a, out=a)  # the softmax weight of each subset member
        c = np.bincount(flat.ravel(), a.ravel(), logits.size).reshape(logits.shape) / flat.shape[1]
        np.put_along_axis(coeff[anchors], others, c, axis=1)
        losstilde[anchors] = (c[:, None] @ z)[:, 0]
    return float(np.cumsum(np.concatenate(means))[-1]) / n, coeff, losstilde


def loss_and_vectors(
    batch: EncodedBatch,
    k: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
    mode: str = "exact",
    mc_samples: int = 2000,
    rng: RngState | None = None,
) -> tuple[float, LossVectors]:
    """Total loss together with both loss-vector families in one pass.

    The pairwise coefficients c[i, j] (mean softmax weight of key j as a
    negative for query i) determine everything:
      losstilde_i = sum_j c[i, j] (k_j - k_i)
      losshat_i   = sum_{j != i} (c[j, i] q_j - c[i, j] q_i)
    """
    n = batch.n
    if mode == "exact":
        groups = _flat_groups(n, k, cap)
    elif mode == "monte-carlo":
        if rng is None:
            raise ValueError("monte-carlo mode needs an rng")
        rows, index = _mc_index(rng, mc_samples, n, k)
        # anchor-major, so that each anchor's mean runs over contiguous losses
        if rows is None:
            flat = np.ascontiguousarray(index.transpose(1, 0, 2))
        else:
            flat = index[rows.T]
            flat += (np.arange(n) * (n - 1))[:, None, None]
        del rows, index  # free them before the kernel gathers the logits
        groups = [(slice(None), flat)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    total, coeff, losstilde = _coefficient_table(batch, groups)
    # Antisymmetric pairwise combination; summing losshat over i telescopes to 0.
    losshat = coeff.T @ batch.queries - coeff.sum(axis=1)[:, None] * batch.queries
    return total, LossVectors(losstilde=losstilde, losshat=losshat)


def losshat_pair(
    batch: EncodedBatch, i: int, j: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> np.ndarray:
    """Averaged softmax weight of key j as a negative for query i, times q_i."""
    if i == j:
        raise IndexError("losshat_pair needs i != j")
    return _coefficient_table(batch, _flat_groups(batch.n, k, cap))[1][i, j] * batch.queries[i]


@dataclass(frozen=True)
class GradResult:
    grad_w: Params
    grad_theta: Params
    loss_vectors: LossVectors
    loss: float


def _param_gradient(p: Params, trace: BatchTrace, xs: np.ndarray, out_grads: np.ndarray) -> Params:
    """Gradient of (1/n) sum_i <out_grads[i], f(x_i)> w.r.t. the weights."""
    n = xs.shape[0]
    L = p.shape.L
    v = out_grads.T / n  # (d, n)
    grads = [None] * L + [v @ trace.hidden[L - 1].T]
    # the gradient reaching layer l's output, for l = L-1 down to 0
    for l, g in zip(range(L - 1, -1, -1), backward_batch(p, trace.masks, v, L, 1)):
        below = trace.hidden[l - 1] if l > 0 else xs.T
        grads[l] = np.where(trace.masks[l], g, 0.0) @ below.T
    return Params(shape=p.shape, weights=tuple(grads))


def grad_params(qp: Params, kp: Params, data: Dataset, hp: HyperParams,
                rng: RngState | None = None) -> GradResult:
    """Closed-form gradients of the total loss for both encoders."""
    batch = encode_batch(qp, kp, data)
    loss, lv = loss_and_vectors(
        batch, hp.k, cap=hp.enumeration_cap, mode=hp.mode,
        mc_samples=hp.mc_samples, rng=rng,
    )
    grad_w = _param_gradient(qp, batch.query_trace, data.points, lv.losstilde)
    grad_theta = _param_gradient(kp, batch.key_trace, data.points, lv.losshat)
    return GradResult(grad_w=grad_w, grad_theta=grad_theta, loss_vectors=lv, loss=loss)
