"""Dense matrix primitives: seeded Gaussian sampling and spectral norms.

Matrices are plain float64 numpy arrays, row-major.  All sampling routines
are deterministic functions of an explicit :class:`~contrast_lab.rng.RngState`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .errors import ConvergenceError, ShapeError
from .rng import RngState

_POW53 = float(1 << 53)
# Entries per block of ``gaussian_matrix``'s in-place transform.
GAUSSIAN_BLOCK = 65_536


def gaussian_matrix(rng: RngState, rows: int, cols: int, variance: float) -> np.ndarray:
    """i.i.d. N(0, variance) matrix, filled row-major.

    Gaussians come from the inverse normal CDF applied to 53-bit uniforms
    shifted into (0, 1), a fixed transform that is stable across platforms
    (numpy's default ziggurat sampler carries no such guarantee).
    """
    if rows < 1 or cols < 1:
        raise ShapeError(f"matrix shape must be positive, got {rows}x{cols}")
    if variance < 0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    if variance == 0:
        return np.zeros((rows, cols))
    bits = rng.generator().integers(0, 1 << 53, size=rows * cols, dtype=np.uint64)
    # The uniforms' buffer becomes the output: block by block, each entry is
    # replaced by sqrt(variance) * ndtri((bits + 0.5) / 2^53), the same
    # operations (so the same bits) as the one-shot transform.
    out = bits.view(np.float64)
    scale = math.sqrt(variance)
    for lo in range(0, out.size, GAUSSIAN_BLOCK):
        u = out[lo:lo + GAUSSIAN_BLOCK]
        np.add(bits[lo:lo + GAUSSIAN_BLOCK], 0.5, out=u)
        u /= _POW53
        ndtri(u, out=u)
        u *= scale
    return out.reshape(rows, cols)


# Step cap of every power iteration; reaching it raises ConvergenceError.
POWER_MAX_STEPS = 10_000


def spectral_norm(a: np.ndarray, tol: float = 1e-8) -> float:
    """Largest singular value of ``a`` via power iteration on A^T A."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ShapeError(f"expected a nonempty 2-d array, got shape {a.shape}")
    # Fixed pseudorandom start so the iteration is deterministic and almost
    # surely not orthogonal to the top singular subspace.
    start = RngState(seed=0x5EED, stream=a.shape[1]).generator().standard_normal((a.shape[1], 1))
    return float(power_iteration(lambda v: a @ v, lambda w: a.T @ w, start, tol)[0])


def power_iteration(
    matvec: Callable[[np.ndarray], np.ndarray],
    rmatvec: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Spectral norm of one operator per column of ``start``.

    ``matvec`` and ``rmatvec`` apply an operator A and its adjoint to a block
    of vectors column by column, so each column may see its own operator
    (a per-sample masked weight chain).  Each column v starts normalised and
    steps to A^T A v / ||A^T A v||; its estimate sqrt(||A^T A v||) is never
    below ||A v||.  Stops once every column has |s_t - s_{t-1}| <= tol s_t,
    and raises ConvergenceError if that takes over ``POWER_MAX_STEPS`` steps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    v = start / np.linalg.norm(start, axis=0, keepdims=True)
    sigma = np.zeros(v.shape[1])
    for _ in range(POWER_MAX_STEPS):
        u = rmatvec(matvec(v))
        norms = np.linalg.norm(u, axis=0)
        new_sigma = np.sqrt(norms)
        if np.all(np.abs(new_sigma - sigma) <= tol * np.maximum(new_sigma, 1e-300)):
            return new_sigma
        sigma = new_sigma
        v = u / np.where(norms > 0, norms, 1.0)
    raise ConvergenceError(
        f"power iteration did not converge in {POWER_MAX_STEPS} steps (last={sigma})")
