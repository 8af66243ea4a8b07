"""Independent numpy reference for checking artifacts.

Nothing here imports contrast_lab: the params container is parsed from its
documented byte layout, the encoder is a plain ReLU chain, and the exact
loss enumerates subsets with itertools.  The benchmark compares the
program's values against these within a relative tolerance, never bytes,
so a reordered reduction in the program does not count as a failure.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np


def read_params(path: Path) -> list[np.ndarray]:
    """Weights of a params_*.bin file: a JSON header line, then each layer
    as little-endian float64, row-major."""
    blob = Path(path).read_bytes()
    newline = blob.index(b"\n")
    meta = json.loads(blob[:newline])
    L, m, d, b = meta["L"], meta["m"], meta["d"], meta["b"]
    dims = [(m, b)] + [(m, m)] * (L - 1) + [(d, m)]
    offset = newline + 1
    weights = []
    for rows, cols in dims:
        count = rows * cols
        weights.append(np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
                       .reshape(rows, cols))
        offset += 8 * count
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes")
    return weights


def encode(weights: list[np.ndarray], xs: np.ndarray) -> np.ndarray:
    """Outputs (n, d) of a bias-free ReLU chain on the rows of xs."""
    h = xs.T
    for w in weights[:-1]:
        h = np.maximum(w @ h, 0.0)
    return (weights[-1] @ h).T


def exact_loss(queries: np.ndarray, keys: np.ndarray, k: int) -> float:
    """Mean over anchors i and k-subsets S of the others of
    log(1 + sum_{j in S} exp(q_i . (k_j - k_i)))."""
    n = len(queries)
    total = 0.0
    for i in range(n):
        others = [j for j in range(n) if j != i]
        logits = (keys[others] - keys[i]) @ queries[i]
        per_subset = [np.logaddexp.reduce(np.concatenate(([0.0], logits[list(s)])))
                      for s in itertools.combinations(range(n - 1), k)]
        total += math.fsum(per_subset) / len(per_subset)
    return total / n


def frobenius_distance(a: list[np.ndarray], b: list[np.ndarray]) -> float:
    return math.sqrt(math.fsum(float(np.sum((x - y) ** 2)) for x, y in zip(a, b)))


def close(actual: float, expected: float, rel: float) -> bool:
    return math.isfinite(actual) and abs(actual - expected) <= rel * max(abs(expected), 1e-300)
