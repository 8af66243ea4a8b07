import math

import numpy as np
import pytest

from contrast_lab.encoder import Params, Shape
from contrast_lab.oracle import enumerate_subsets, fd_gradient, kink_mask
from contrast_lab.rng import RngState
from contrast_lab.data import Dataset


class TestEnumerateSubsets:
    def test_counts_and_distinctness(self):
        for n in range(2, 13):
            for k in range(1, min(n - 1, 4) + 1):
                subsets = list(enumerate_subsets(n, k, exclude=0))
                assert len(subsets) == math.comb(n - 1, k)
                assert len(set(subsets)) == len(subsets)
                assert all(0 not in s for s in subsets)
                assert all(len(s) == k for s in subsets)

    def test_containment_count(self):
        n, k, j = 9, 3, 4
        containing = [s for s in enumerate_subsets(n, k, exclude=1) if j in s]
        assert len(containing) == math.comb(n - 2, k - 1)

    def test_lexicographic_order(self):
        subsets = list(enumerate_subsets(5, 2, exclude=2))
        assert subsets == sorted(subsets)


def _tiny_params(seed):
    shape = Shape(L=1, m=3, d=2, b=2)
    gen = np.random.default_rng(seed)
    return Params(shape=shape, weights=tuple(
        gen.standard_normal(dims) for dims in shape.layer_dims()))


class TestFdGradient:
    def test_converges_at_rate_h_squared(self):
        # smooth surrogate: sum of sin over every weight entry, whose exact
        # gradient is cos entrywise
        qp, kp = _tiny_params(1), _tiny_params(2)

        def loss(a, b):
            return float(sum(np.sum(np.sin(w)) for w in a.weights + b.weights))

        errors = []
        for h in (1e-3, 1e-4, 1e-5):
            fd_w, _ = fd_gradient(loss, qp, kp, h=h)
            err = max(
                float(np.max(np.abs(g - np.cos(w))))
                for g, w in zip(fd_w.weights, qp.weights)
            )
            errors.append(err)
        # central differences: error ~ h^2, so each decade of h gains ~100x
        assert errors[0] / errors[1] == pytest.approx(100, rel=0.2)

    def test_leaves_params_untouched(self):
        qp, kp = _tiny_params(3), _tiny_params(4)
        before = [w.copy() for w in qp.weights + kp.weights]
        fd_gradient(lambda a, b: float(a.weights[0][0, 0] ** 2), qp, kp, h=1e-5)
        for saved, now in zip(before, qp.weights + kp.weights):
            assert np.array_equal(saved, now)

    def test_loss_fn_cannot_write_into_the_networks(self):
        # the first call already sees the walked query net, whose arrays
        # must refuse the write
        qp, kp = _tiny_params(3), _tiny_params(4)
        calls = []

        def writes(a, b):
            calls.append(a)
            a.weights[0][0, 0] = 0.0
            return 0.0

        with pytest.raises(ValueError, match="read-only"):
            fd_gradient(writes, qp, kp, h=1e-5)
        assert len(calls) == 1 and calls[0] is not qp


class TestKinkMask:
    def _dataset(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        return Dataset(points=pts, delta=math.sqrt(2.0))

    def test_zero_step_marks_nothing(self):
        qp, kp = _tiny_params(5), _tiny_params(6)
        km = kink_mask(qp, kp, self._dataset(), h=0.0)
        assert km.marked_fraction == 0.0

    def test_boundary_row_is_marked(self):
        # a hidden row exactly orthogonal to an input sits on the ReLU
        # boundary: any probe of its coordinates flips the mask
        shape = Shape(L=1, m=2, d=1, b=2)
        qp = Params(shape=shape, weights=(
            np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([[1.0, 1.0]])))
        kp = Params(shape=shape, weights=(
            np.array([[1.0, 0.5], [0.5, 1.0]]), np.array([[1.0, 1.0]])))
        km = kink_mask(qp, kp, self._dataset(), h=1e-4)
        assert km.query[0][0].all()          # the zero row, every coordinate
        assert not km.query[0][1].any()      # the generic row, none
        assert km.marked_fraction > 0.0
