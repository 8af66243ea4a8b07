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
from .encoder import BatchTrace, Params, forward_batch
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


def encode_batch(qp: Params, kp: Params, data: Dataset) -> EncodedBatch:
    if qp.shape != kp.shape:
        raise ShapeError("query and key encoders must share one shape")
    qt = forward_batch(qp, data.points)
    kt = forward_batch(kp, data.points)
    return EncodedBatch(
        queries=qt.outputs.T.copy(), keys=kt.outputs.T.copy(),
        query_trace=qt, key_trace=kt,
    )


@dataclass(frozen=True)
class LossVectors:
    """Gradients of n * total_loss w.r.t. each query output and key output."""

    losstilde: np.ndarray  # (n, d)
    losshat: np.ndarray  # (n, d)

    @property
    def tilde_norm(self) -> float:
        return float(np.sqrt(np.sum(self.losstilde**2)))

    @property
    def hat_norm(self) -> float:
        return float(np.sqrt(np.sum(self.losshat**2)))

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
    indices relative to [n] minus the anchor: the k smallest of n-1 i.i.d.
    uniforms sit at a uniformly random k-subset of positions."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    return np.argpartition(gen.random((samples, n, n - 1)), k - 1, axis=2)[:, :, :k]


@lru_cache(maxsize=64)
def _relative_subsets(n_others: int, k: int) -> np.ndarray:
    """All k-subsets of range(n_others), lexicographic, as an index array."""
    combos = list(itertools.combinations(range(n_others), k))
    return np.asarray(combos, dtype=np.intp)


def _check_cap(n: int, k: int, cap: int) -> None:
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    if math.comb(n - 1, k) > cap:
        raise EnumerationError(
            f"C({n - 1},{k}) = {math.comb(n - 1, k)} subsets exceeds the "
            f"enumeration cap {cap}; use monte-carlo mode"
        )


def _subset_losses_and_weights(
    logits: np.ndarray, subsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-subset losses log(1 + sum exp(logits[subset])) and softmax weights.

    logits: (n_others,); subsets: (S, k) of indices into logits.
    Returns losses (S,) and weights (S, k), where weights[s, j] =
    exp(logits)/(1 + sum over the subset) for the j-th member of subset s.
    """
    a = logits[subsets]  # (S, k)
    hi = np.maximum(a.max(axis=1), 0.0)
    lse = hi + np.log(np.exp(-hi) + np.sum(np.exp(a - hi[:, None]), axis=1))
    return lse, np.exp(a - lse[:, None])


def _per_sample_stats(
    batch: EncodedBatch, i: int, subsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Subset losses, the averaged per-negative softmax coefficients, and the
    key-difference matrix for sample i.

    Coefficients come back as an (n,) vector c with c[j] equal to the mean
    over the given subsets of weight(j) (zero for subsets not containing j,
    and c[i] = 0 by construction).
    """
    n = batch.n
    others = np.concatenate([np.arange(i), np.arange(i + 1, n)])
    z = batch.keys[others] - batch.keys[i]  # (n-1, d)
    logits = z @ batch.queries[i]
    losses, weights = _subset_losses_and_weights(logits, subsets)
    c_rel = np.zeros(n - 1)
    np.add.at(c_rel, subsets.ravel(), weights.ravel())
    c_rel /= subsets.shape[0]
    c = np.zeros(n)
    c[others] = c_rel
    return losses, c, z


def total_loss_exact(
    batch: EncodedBatch, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    _check_cap(batch.n, k, cap)
    subsets = _relative_subsets(batch.n - 1, k)
    total = 0.0
    for i in range(batch.n):
        losses, _, _ = _per_sample_stats(batch, i, subsets)
        total += float(np.mean(losses))
    return total / batch.n


def total_loss_mc(
    batch: EncodedBatch, k: int, rng: RngState, samples: int
) -> tuple[float, float]:
    """Unbiased Monte-Carlo estimate of the exact loss, with standard error."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    n = batch.n
    # logits[i, j] = q_i . (k_j - k_i)
    cross = batch.queries @ batch.keys.T
    logits = cross - np.diag(cross)[:, None]
    rel = _draw_subsets(rng.generator(), samples, n, k)
    absolute = rel + (rel >= np.arange(n)[None, :, None])
    g = np.take_along_axis(
        np.broadcast_to(logits, (samples, n, n)), absolute, axis=2
    )
    hi = np.maximum(g.max(axis=2), 0.0)
    per_anchor = hi + np.log(
        np.exp(-hi) + np.sum(np.exp(g - hi[:, :, None]), axis=2)
    )
    draws = per_anchor.mean(axis=1)
    est = float(np.mean(draws))
    stderr = float(np.std(draws, ddof=1) / math.sqrt(samples))
    return est, stderr


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
    n, d = batch.queries.shape
    if mode == "exact":
        _check_cap(n, k, cap)
        sampled = None
    elif mode == "monte-carlo":
        if rng is None:
            raise ValueError("monte-carlo mode needs an rng")
        sampled = _draw_subsets(rng.generator(), mc_samples, n, k)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    coeff = np.zeros((n, n))
    losstilde = np.zeros((n, d))
    total = 0.0
    for i in range(n):
        subsets = _relative_subsets(n - 1, k) if sampled is None else sampled[:, i]
        losses, c, z = _per_sample_stats(batch, i, subsets)
        total += float(np.mean(losses))
        coeff[i] = c
        others = np.concatenate([np.arange(i), np.arange(i + 1, n)])
        losstilde[i] = z.T @ c[others]
    total /= n

    # Antisymmetric pairwise combination; summing losshat over i telescopes to 0.
    losshat = coeff.T @ batch.queries - coeff.sum(axis=1)[:, None] * batch.queries
    return total, LossVectors(losstilde=losstilde, losshat=losshat)


def losshat_pair(
    batch: EncodedBatch, i: int, j: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> np.ndarray:
    """Averaged softmax weight of key j as a negative for query i, times q_i."""
    if i == j:
        raise IndexError("losshat_pair needs i != j")
    _check_cap(batch.n, k, cap)
    subsets = _relative_subsets(batch.n - 1, k)
    _, c, _ = _per_sample_stats(batch, i, subsets)
    return c[j] * batch.queries[i]


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
    grads = [None] * (L + 1)
    grads[L] = v @ trace.hidden[L - 1].T
    g = p.weights[L].T @ v  # (m, n)
    for l in range(L - 1, -1, -1):
        pre_grad = np.where(trace.masks[l], g, 0.0)
        below = trace.hidden[l - 1] if l > 0 else xs.T
        grads[l] = pre_grad @ below.T
        if l > 0:
            g = p.weights[l].T @ pre_grad
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
