"""Training sets: unit-norm points with a guaranteed pairwise separation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError
from .rng import RngState

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Dataset:
    """n unit vectors in R^b with realized minimum pairwise distance delta."""

    points: np.ndarray  # (n, b)
    delta: float

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def b(self) -> int:
        return self.points.shape[1]


def min_pairwise_distance(points: np.ndarray) -> float:
    """Smallest Euclidean distance between two rows of ``points``."""
    n = points.shape[0]
    best = math.inf
    for i in range(n - 1):
        d = np.linalg.norm(points[i + 1 :] - points[i], axis=1)
        best = min(best, float(d.min()))
    return best


def generate_separated(
    rng: RngState,
    n: int,
    b: int,
    delta_min: float,
) -> Dataset:
    """Unit vectors uniform on the sphere, conditioned on pairwise separation.

    Rejection sampling: draw the full set, keep it only if every pair is at
    least ``delta_min`` apart, for at most 10 n^2 draws.  The stored ``delta``
    is the realized minimum distance, which downstream bound ratios use (it is
    what the inequalities actually reference, and is tighter than the request).
    """
    if n < 2 or b < 2:
        raise ValueError(f"need n >= 2 and b >= 2, got n={n}, b={b}")
    if not 0.0 < delta_min < SQRT2:
        raise GenerationError(f"delta_min must lie in (0, sqrt(2)), got {delta_min}")
    max_attempts = 10 * n * n
    gen = rng.generator()
    for attempt in range(1, max_attempts + 1):
        pts = gen.standard_normal((n, b))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        realized = min_pairwise_distance(pts)
        if realized >= delta_min:
            return Dataset(points=pts, delta=realized)
    raise GenerationError(
        f"no {delta_min}-separated set of {n} points in R^{b} "
        f"after {max_attempts} attempts"
    )
