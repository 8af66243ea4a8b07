import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from contrast_lab.errors import ConvergenceError, ShapeError
from contrast_lab.linalg import (
    gaussian_matrix,
    logsumexp,
    power_iteration,
    spectral_norm,
)
from contrast_lab.rng import RngState


class TestGaussianMatrix:
    def test_moments(self):
        a = gaussian_matrix(RngState(seed=3), 500, 400, variance=0.25)
        assert abs(a.mean()) < 0.005
        assert abs(a.var() - 0.25) < 0.005

    def test_zero_variance(self):
        assert np.all(gaussian_matrix(RngState(seed=3), 4, 4, 0.0) == 0.0)

    def test_reproducible(self):
        a = gaussian_matrix(RngState(seed=9), 8, 8, 1.0)
        b = gaussian_matrix(RngState(seed=9), 8, 8, 1.0)
        assert np.array_equal(a, b)

    def test_bad_shape(self):
        with pytest.raises(ShapeError):
            gaussian_matrix(RngState(seed=1), 0, 4, 1.0)


class TestSpectralNorm:
    def test_matches_svd(self, gen):
        for dims in [(5, 5), (50, 20), (200, 200)]:
            a = gen.standard_normal(dims)
            expected = np.linalg.svd(a, compute_uv=False)[0]
            assert spectral_norm(a) == pytest.approx(expected, rel=1e-6)

    def test_rank_one_equals_frobenius(self, gen):
        a = np.outer(gen.standard_normal(30), gen.standard_normal(40))
        assert spectral_norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-8)

    @given(arrays(np.float64, (6, 4), elements=st.floats(-10, 10)))
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_frobenius(self, a):
        assert spectral_norm(a) <= np.linalg.norm(a) * (1 + 1e-8) + 1e-12

    def test_matrix_free_matches_dense(self, gen):
        a = gen.standard_normal((40, 25))
        got = power_iteration(
            lambda v: a @ v, lambda w: a.T @ w, gen.standard_normal((25, 1)), tol=1e-8)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(spectral_norm(a), rel=1e-6)

    def test_batch_matches_svd_column_by_column(self, gen):
        # each column sees its own operator, as a per-sample masked chain does
        ops = gen.standard_normal((6, 30, 20)) * gen.uniform(0.1, 10.0, size=(6, 1, 1))
        got = power_iteration(
            lambda v: np.einsum("jrc,cj->rj", ops, v),
            lambda w: np.einsum("jrc,rj->cj", ops, w),
            gen.standard_normal((20, 6)), tol=1e-10)
        want = [np.linalg.svd(op, compute_uv=False)[0] for op in ops]
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_step_cap_raises(self, gen, monkeypatch):
        monkeypatch.setattr("contrast_lab.linalg.POWER_MAX_STEPS", 2)
        with pytest.raises(ConvergenceError):
            spectral_norm(gen.standard_normal((50, 50)))


class TestLogsumexp:
    def test_matches_naive_small(self, gen):
        v = gen.uniform(-5, 5, size=20)
        assert logsumexp(v) == pytest.approx(np.log(np.sum(np.exp(v))), rel=1e-14)

    def test_no_overflow(self):
        assert logsumexp(np.array([1000.0, 1000.0])) == pytest.approx(
            1000.0 + np.log(2.0))

    @given(arrays(np.float64, (8,), elements=st.floats(-700, 700)))
    @settings(max_examples=100, deadline=None)
    def test_bracketed_by_max(self, v):
        out = logsumexp(v)
        assert out >= v.max() - 1e-12
        assert out <= v.max() + np.log(len(v)) + 1e-12

    def test_shift_identity(self, gen):
        v = gen.uniform(-3, 3, size=10)
        assert logsumexp(v + 7.5) == pytest.approx(logsumexp(v) + 7.5, rel=1e-14)
