"""Brute-force reference implementations used only for verification.

Nothing here shares code paths with the closed-form gradients it checks:
subset enumeration is a hand-rolled lexicographic successor, and gradients
are plain central differences.  The kink mask runs the encoder's forward
pass, re-running for each nudge of W_l only the layers at and above l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .data import Dataset
from .encoder import Params, _forward, forward_batch
from .errors import EvaluationError

DEFAULT_FD_STEP = 1e-4  # near (machine eps)^(1/3), balancing truncation vs rounding


def enumerate_subsets(n: int, k: int, exclude: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of {0..n-1} \\ {exclude}, lexicographic, each once."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    pool = [j for j in range(n) if j != exclude]
    idx = list(range(k))
    while True:
        yield tuple(pool[i] for i in idx)
        # lexicographic successor of the index vector
        pos = k - 1
        while pos >= 0 and idx[pos] == len(pool) - k + pos:
            pos -= 1
        if pos < 0:
            return
        idx[pos] += 1
        for p in range(pos + 1, k):
            idx[p] = idx[p - 1] + 1


def _nudges(p: Params, h: float, layers: int | None = None) -> Iterator[tuple[int, int, float, Params]]:
    """Walk every weight entry of p's first ``layers`` weight matrices (all of
    them by default), +h then -h: set the entry to orig +- h, yield (layer,
    flat index, sign, moved), then restore it.

    moved wraps read-only views of one private copy of p's weights, so the
    walk writes through the copy while no caller can write through moved.
    """
    work = [w.copy() for w in p.weights]
    moved = Params(shape=p.shape, weights=tuple(work))
    for l, w in enumerate(work[:layers]):
        flat = w.ravel()
        for c in range(flat.size):
            orig = flat[c]
            for sign in (+1.0, -1.0):
                flat[c] = orig + sign * h
                yield l, c, sign, moved
            flat[c] = orig


def fd_gradient(
    loss_fn: Callable[[Params, Params], float],
    qp: Params,
    kp: Params,
    h: float = DEFAULT_FD_STEP,
) -> tuple[Params, Params]:
    """Central-difference gradient of loss_fn w.r.t. every weight entry.

    loss_fn sees the moved network through read-only arrays, so a write
    into it raises ValueError instead of corrupting the walk.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and positive, got {h}")

    def grad_one(target_idx: int) -> Params:
        base = (qp, kp)[target_idx]
        grads = [np.empty_like(w) for w in base.weights]
        for l, c, sign, moved in _nudges(base, h):
            val = loss_fn(moved, kp) if target_idx == 0 else loss_fn(qp, moved)
            if not math.isfinite(val):
                raise EvaluationError(
                    f"non-finite loss at net {target_idx}, layer {l}, "
                    f"coordinate {c}, sign {sign:+.0f}"
                )
            if sign > 0:
                plus = val
            else:
                grads[l].flat[c] = (plus - val) / (2.0 * h)
        return Params(shape=base.shape, weights=tuple(grads))

    return grad_one(0), grad_one(1)


@dataclass(frozen=True)
class KinkMask:
    """Boolean Params-shaped masks marking coordinates whose +-h probe
    crosses a ReLU boundary somewhere in either network's traces."""

    query: tuple[np.ndarray, ...]
    key: tuple[np.ndarray, ...]

    @property
    def marked_fraction(self) -> float:
        marked = sum(int(m.sum()) for m in self.query + self.key)
        total = sum(m.size for m in self.query + self.key)
        return marked / total


def kink_mask(qp: Params, kp: Params, data: Dataset, h: float) -> KinkMask:
    """Mark weight coordinates whose +-h perturbation flips any activation
    bit of any forward trace (either encoder, any sample).

    A nudge of W_l moves no layer below l, so the walk re-runs only the
    layers at and above l, from the unperturbed hidden state below l, and
    compares their masks with the unperturbed ones.  A nudge of the output
    layer W_L moves no mask and is never marked."""
    if not (math.isfinite(h) and h >= 0):
        raise ValueError(f"h must be finite and nonnegative, got {h}")
    xs = np.asarray(data.points, dtype=np.float64)

    def mask_one(p: Params) -> tuple[np.ndarray, ...]:
        # perturbing one net cannot move the other net's activations
        base = forward_batch(p, xs)
        below = (xs.T,) + base.hidden  # the input of each layer l < L
        flags = [np.zeros(w.shape, dtype=bool) for w in p.weights]
        L = p.shape.L
        for l, c, sign, moved in _nudges(p, h, layers=L):
            if sign < 0 and flags[l].flat[c]:
                continue  # +h already flipped a bit
            masks = _forward(moved, below[l], start=l).masks
            if not all(np.array_equal(a, b) for a, b in zip(masks, base.masks[l:])):
                flags[l].flat[c] = True
        return tuple(flags)

    return KinkMask(query=mask_one(qp), key=mask_one(kp))
