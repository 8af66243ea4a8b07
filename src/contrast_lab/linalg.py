"""Dense matrix primitives: seeded Gaussian sampling, spectral norms, logsumexp.

Matrices are plain float64 numpy arrays, row-major.  All sampling routines
are deterministic functions of an explicit :class:`~contrast_lab.rng.RngState`.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

from .errors import ConvergenceError, ShapeError
from .rng import RngState

_POW53 = float(1 << 53)


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
    gen = rng.generator()
    bits = gen.integers(0, 1 << 53, size=rows * cols, dtype=np.uint64)
    u = (bits.astype(np.float64) + 0.5) / _POW53
    return (math.sqrt(variance) * ndtri(u)).reshape(rows, cols)


def _power_start(n: int) -> np.ndarray:
    # Fixed pseudorandom start so the iteration is deterministic and almost
    # surely not orthogonal to the top singular subspace.
    gen = RngState(seed=0x5EED, stream=n).generator()
    v = gen.standard_normal(n)
    return v / np.linalg.norm(v)


def spectral_norm(a: np.ndarray, tol: float = 1e-8, max_steps: int = 10000) -> float:
    """Largest singular value of ``a`` via power iteration on A^T A."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ShapeError(f"expected a nonempty 2-d array, got shape {a.shape}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    return operator_norm(
        lambda x: a @ x, lambda y: a.T @ y, a.shape[1], tol=tol, max_steps=max_steps
    )


def operator_norm(
    matvec: Callable[[np.ndarray], np.ndarray],
    rmatvec: Callable[[np.ndarray], np.ndarray],
    dim: int,
    tol: float = 1e-8,
    max_steps: int = 10000,
) -> float:
    """Spectral norm of a linear operator given only matvec / adjoint matvec.

    Used where forming the operator densely would be wasteful (products of
    masked weight matrices at large width).
    """
    v = _power_start(dim)
    sigma = 0.0
    for _ in range(max_steps):
        w = matvec(v)
        sigma_new = float(np.linalg.norm(w))
        if sigma_new == 0.0:
            return 0.0
        v = rmatvec(w)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return sigma_new
        v = v / nv
        if abs(sigma_new - sigma) <= tol * max(sigma_new, 1e-300):
            return sigma_new
        sigma = sigma_new
    raise ConvergenceError(
        f"power iteration did not converge in {max_steps} steps (last={sigma})",
        last_iterate=v,
    )


def logsumexp(values: Sequence[float]) -> float:
    """log(sum(exp(values))), max-shifted so inputs up to ~700 never overflow."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ShapeError("logsumexp of an empty sequence")
    hi = float(np.max(v))
    if not np.isfinite(hi):
        return hi
    return hi + math.log(float(np.sum(np.exp(v - hi))))
