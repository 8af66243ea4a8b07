import math

import numpy as np
import pytest

from contrast_lab import Params, Shape, generate_separated, init_params
from contrast_lab.encoder import sum_of_squares
from contrast_lab.errors import ShapeError
from contrast_lab.rng import RngState


@pytest.fixture(scope="session")
def small_data():
    return generate_separated(RngState(seed=7).child("data"), 6, 8, 0.5)


@pytest.fixture(scope="session")
def small_shape():
    return Shape(L=3, m=32, d=8, b=8)


@pytest.fixture(scope="session")
def small_nets(small_shape):
    root = RngState(seed=7)
    return (
        init_params(root.child("query-net"), small_shape),
        init_params(root.child("key-net"), small_shape),
    )


@pytest.fixture
def gen():
    return np.random.default_rng(123)


UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _shifted(p, direction, s):
    """The net with every weight matrix W moved to W + s U, U its entry of
    ``direction``: the reference the stacked passes of ``forward_shifted``
    are held to."""
    return Params(shape=p.shape, weights=tuple(w + s * g for w, g in zip(p.weights, direction)))


@pytest.fixture(scope="session")
def shifted():
    return _shifted


def _frobenius_distance(p, other):
    """||p - other||_F from fresh differences, summed layer by layer: the
    reference for the trainer's trajectory norms."""
    if p.shape != other.shape:
        raise ShapeError(f"shape mismatch: {p.shape} vs {other.shape}")
    return math.sqrt(sum_of_squares(a - b for a, b in zip(p.weights, other.weights)))


@pytest.fixture(scope="session")
def frobenius_distance():
    return _frobenius_distance


def _gamma(j: int) -> float:
    return j * UNIT_ROUNDOFF / (1 - j * UNIT_ROUNDOFF)


def _shifted_pass_bounds(p, direction, s, xs):
    """Per layer of ``_shifted(p, direction, s)`` on ``xs``: its pre-activation
    and an entrywise bound on how far ``forward_shifted``'s may sit from it.

    With A = W + sU and K the inner dimension, the shifted net rounds each
    entry of A and then a K-term dot product, so it is within
    gamma_{K+1} |A| |h| of A h (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 3.5).  ``forward_shifted`` rounds W h, U h, the
    product by s and the sum, so it is within gamma_{K+2} M |h| of A h, where
    M = |W| + |s| |U| >= |A|.  From one input the two differ by at most
    2 gamma_{K+2} M |h|.  Inputs that already differ by e add M e, and the
    rounding terms then see |h| + e.  ReLU is 1-Lipschitz in each entry, so
    the bound on a layer's input is the bound on the pre-activation below.
    """
    h = np.asarray(xs, dtype=np.float64).T
    e = np.zeros_like(h)
    layers = []
    for w, a, g in zip(p.weights, _shifted(p, direction, s).weights, direction):
        pre = a @ h
        e = (np.abs(w) + abs(s) * np.abs(g)) @ (e + 2 * _gamma(w.shape[1] + 2) * (np.abs(h) + e))
        layers.append((pre, e))
        h = np.where(pre >= 0.0, pre, 0.0)
    return layers


@pytest.fixture(scope="session")
def shifted_pass_bounds():
    return _shifted_pass_bounds


@pytest.fixture(scope="session")
def gamma():
    """gamma_j = j u / (1 - j u), the bound on j roundings' relative error."""
    return _gamma
