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
from typing import Iterator

import numpy as np

from .data import Dataset
from .encoder import BatchTrace, Params, backward_batch, forward_batch, sum_of_squares
from .errors import EnumerationError, ShapeError
from .rng import RngState

DEFAULT_MC_SAMPLES = 2000
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
    mc_samples: int = DEFAULT_MC_SAMPLES
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (0 <= self.eta < math.inf and 0 <= self.gamma < math.inf):
            raise ValueError("step sizes must be finite and nonnegative")
        if min(self.T, self.mc_samples, self.enumeration_cap) < 1:
            raise ValueError("T, mc_samples and enumeration_cap must be >= 1")
        if self.mode not in ("exact", "monte-carlo"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _draw_subsets(gen: np.random.Generator, samples: int, n: int, k: int) -> np.ndarray:
    """(n, samples, k) uniform k-subsets of the n-1 others of each anchor,
    anchor-major and C-ordered, as indices relative to [n] minus the anchor,
    by Floyd's algorithm (Bentley & Floyd, CACM 30(9), 1987) for every
    (sample, anchor) at once: for j = n-1-k, ..., n-2 draw t uniform in
    [0, j], and take j instead if t is a member.  Each column of t is drawn
    (samples, n), copied into the index array transposed and corrected there.
    Beside the index array it holds one int64 or one bool (samples, n) array."""
    out = np.empty((n, samples, k), dtype=np.intp)
    for col, j in enumerate(range(n - 1 - k, n - 1)):
        t = out[:, :, col]
        t[...] = gen.integers(0, j + 1, (samples, n)).T
        for prev in range(col):  # a t set to j matches no later member: all are < j
            np.copyto(t, j, where=out[:, :, prev] == t)
    return out


def _draw_rows(gen: np.random.Generator, samples: int, n: int, subsets: int) -> np.ndarray:
    """(samples, n) uniform rows of each anchor's table of its subsets."""
    return gen.integers(0, subsets, (samples, n))


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


@lru_cache(maxsize=64)
def _subset_index(n: int, k: int, g: int) -> np.ndarray:
    """Read-only flat index (g, C(n-1, k), k) of each of g anchors' k-subsets
    of its others into their (g, n-1) logits, lexicographic.  An entry holds
    g * C(n-1, k) * k intp: at most 8 * k * cap bytes for an exact group, and
    on the table path (g = n, C(n-1, k) <= samples) no more than the draw."""
    rel = np.asarray(list(itertools.combinations(range(n - 1), k)), dtype=np.intp)
    flat = (np.arange(g) * (n - 1))[:, None, None] + rel
    flat.flags.writeable = False
    return flat


@lru_cache(maxsize=64)
def _exact_groups(n: int, k: int, cap: int) -> tuple[tuple[slice, np.ndarray], ...]:
    """The anchors in ranges of at most cap subset losses (one anchor at
    least), each with its _subset_index."""
    check_subsets(n, k, cap)
    size = max(1, cap // math.comb(n - 1, k))
    return tuple((slice(lo, min(lo + size, n)), _subset_index(n, k, min(size, n - lo)))
                 for lo in range(0, n, size))


def _mc_index(rng: RngState, samples: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform negative subsets, `samples` per anchor, as (rows, table): the
    draw s of anchor i is table[i, rows[s, i]], an index (k,) into all n
    anchors' logits.

    When an anchor has no more subsets than there are draws, C(n-1, k) <=
    samples, table is _subset_index(n, k, n), as the exact loss gathers one
    group of every anchor, and rows (samples, n) picks each draw's subset;
    the table of every anchor's subset losses holds no more logits than the
    draw.  Above it table (n, samples, k) is the Floyd draw and
    rows[s, i] = s."""
    check_subsets(n, k)
    subsets = math.comb(n - 1, k)
    if subsets <= samples:
        return _draw_rows(rng.generator(), samples, n, subsets), _subset_index(n, k, n)
    flat = _draw_subsets(rng.generator(), samples, n, k)
    flat += (np.arange(n) * (n - 1))[:, None, None]
    return np.broadcast_to(np.arange(samples)[:, None], (samples, n)), flat


def _anchor_mean(means: list[np.ndarray], n: int) -> float:
    """The total loss from the per-anchor mean losses, added in anchor order
    like the per-anchor reference in the tests (np.sum would pair them)."""
    return float(np.cumsum(np.concatenate(means))[-1]) / n


def total_loss_exact(batch: EncodedBatch, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    means = [log_partition(_logit_table(batch, anchors)[2].ravel()[flat]).mean(axis=1)
             for anchors, flat in _exact_groups(batch.n, k, cap)]
    return _anchor_mean(means, batch.n)


def total_loss_mc(
    batch: EncodedBatch, k: int, rng: RngState, samples: int
) -> tuple[float, float]:
    """Unbiased Monte-Carlo estimate of the exact loss, with standard error.
    When C(n-1, k) <= samples (see _mc_index) each draw gathers its subset
    losses from the (n, C(n-1, k)) table of the losses the exact loss averages."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    rows, table = _mc_index(rng, samples, batch.n, k)
    losses = log_partition(_logit_table(batch, slice(None))[2].ravel()[table])
    draws = losses[np.arange(batch.n), rows].mean(axis=1)
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
        a = logits.ravel()[flat]
        losses = log_partition(a)
        means.append(losses.mean(axis=1))
        a -= losses[..., None]
        np.exp(a, out=a)  # the softmax weight of each subset member
        c = np.bincount(flat.ravel(), a.ravel(), logits.size).reshape(logits.shape) / flat.shape[1]
        np.put_along_axis(coeff[anchors], others, c, axis=1)
        losstilde[anchors] = (c[:, None] @ z)[:, 0]
    return _anchor_mean(means, n), coeff, losstilde


def loss_and_vectors(
    batch: EncodedBatch,
    k: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
    mode: str = "exact",
    mc_samples: int = DEFAULT_MC_SAMPLES,
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
        groups = _exact_groups(n, k, cap)
    elif mode == "monte-carlo":
        if rng is None:
            raise ValueError("monte-carlo mode needs an rng")
        if mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        rows, table = _mc_index(rng, mc_samples, n, k)
        # each draw's subset, (n, samples, k), anchor-major and C-ordered, so
        # that each anchor's mean runs over contiguous losses
        flat = np.ascontiguousarray(table[np.arange(n)[:, None], rows.T])
        del rows, table  # free them before the kernel gathers the logits
        groups = [(slice(None), flat)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    total, coeff, losstilde = _coefficient_table(batch, groups)
    # Antisymmetric pairwise combination; summing losshat over i telescopes to 0.
    losshat = coeff.T @ batch.queries - coeff.sum(axis=1)[:, None] * batch.queries
    return total, LossVectors(losstilde=losstilde, losshat=losshat)


@dataclass(frozen=True)
class GradResult:
    grad_w: Params
    grad_theta: Params
    loss_vectors: LossVectors
    loss: float


def _layer_factors(p: Params, trace: BatchTrace, xs: np.ndarray,
                   out_grads: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each weight layer's gradient of (1/n) sum_i <out_grads[i], f(x_i)> as
    its two factors (a, h), top layer first: the gradient is a @ h.T, with a
    (out, n) the masked gradient reaching the layer's output and h (in, n)
    the layer's input.  The back-propagation product through W_l is formed
    before layer l's pair is yielded, so at that yield the caller may
    overwrite W_l."""
    L = p.shape.L
    a = out_grads.T / xs.shape[0]
    chain = backward_batch(p, trace.masks, a, L, 1)
    for l in range(L, -1, -1):
        g = next(chain, None)  # the product through W_l, None at l = 0
        yield a, trace.hidden[l - 1] if l > 0 else xs.T
        if l > 0:
            a = np.where(trace.masks[l - 1], g, 0.0)


def _gradients(qp: Params, kp: Params, data: Dataset, hp: HyperParams,
               rng: RngState | None = None,
               ) -> tuple[float, LossVectors, tuple[Iterator[tuple[np.ndarray, np.ndarray]], ...]]:
    """The total loss, the loss vectors and each net's _layer_factors, the
    query net's first."""
    batch = encode_batch(qp, kp, data)
    loss, lv = loss_and_vectors(
        batch, hp.k, cap=hp.enumeration_cap, mode=hp.mode,
        mc_samples=hp.mc_samples, rng=rng,
    )
    return loss, lv, (_layer_factors(qp, batch.query_trace, data.points, lv.losstilde),
                      _layer_factors(kp, batch.key_trace, data.points, lv.losshat))


def grad_params(qp: Params, kp: Params, data: Dataset, hp: HyperParams,
                rng: RngState | None = None) -> GradResult:
    """Closed-form gradients of the total loss for both encoders, in fresh
    arrays."""
    loss, lv, layers = _gradients(qp, kp, data, hp, rng)
    grad_w, grad_theta = (
        Params(shape=p.shape, weights=tuple(reversed([a @ h.T for a, h in pairs])))
        for p, pairs in zip((qp, kp), layers))
    return GradResult(grad_w=grad_w, grad_theta=grad_theta, loss_vectors=lv, loss=loss)
