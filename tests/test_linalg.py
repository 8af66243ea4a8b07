import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtri

from contrast_lab.errors import ConvergenceError, ShapeError
from contrast_lab.linalg import (
    GAUSSIAN_BLOCK,
    gaussian_matrix,
    spectral_norm,
    top_singular_values,
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

    @pytest.mark.parametrize("rows, cols", [(300, 301), (256, 256)])
    def test_blocked_transform_is_bit_identical_to_one_shot(self, rows, cols):
        # 300 x 301 ends on a partial block; 256 x 256 is exactly one block
        assert GAUSSIAN_BLOCK == 256 * 256
        bits = RngState(seed=4).generator().integers(0, 1 << 53, size=rows * cols, dtype=np.uint64)
        want = np.sqrt(0.3) * ndtri((bits.astype(np.float64) + 0.5) / 2.0**53)
        got = gaussian_matrix(RngState(seed=4), rows, cols, 0.3)
        assert got.shape == (rows, cols)
        assert np.array_equal(got.ravel(), want)

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
        # A v_2 lies in span(u_1), so alpha_2 is at rounding level: a breakdown
        got = top_singular_values(lambda v: a @ v, lambda w: a.T @ w,
                                  gen.standard_normal((40, 1)), tol=1e-8)
        assert got.steps == 2 and got.residuals[0] == 0.0
        assert got.estimates[0] == pytest.approx(np.linalg.norm(a), rel=1e-12)

    @given(arrays(np.float64, (6, 4), elements=st.floats(-10, 10)))
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_frobenius(self, a):
        assert spectral_norm(a) <= np.linalg.norm(a) * (1 + 1e-8) + 1e-12

    def test_matrix_free_matches_dense(self, gen):
        a = gen.standard_normal((40, 25))
        got = top_singular_values(
            lambda v: a @ v, lambda w: a.T @ w, gen.standard_normal((25, 1)), tol=1e-8)
        assert got.estimates.shape == got.residuals.shape == (1,)
        assert got.estimates[0] == pytest.approx(spectral_norm(a), rel=1e-6)

    def test_batch_matches_svd_column_by_column(self, gen):
        # each column sees its own operator, as a per-sample masked chain does
        ops = gen.standard_normal((6, 30, 20)) * gen.uniform(0.1, 10.0, size=(6, 1, 1))
        got = top_singular_values(
            lambda v: np.einsum("jrc,cj->rj", ops, v),
            lambda w: np.einsum("jrc,rj->cj", ops, w),
            gen.standard_normal((20, 6)), tol=1e-10)
        want = [np.linalg.svd(op, compute_uv=False)[0] for op in ops]
        np.testing.assert_allclose(got.estimates, want, rtol=1e-6)

    def test_step_cap_raises(self, gen, monkeypatch):
        monkeypatch.setattr("contrast_lab.linalg.SOLVER_MAX_STEPS", 2)
        with pytest.raises(ConvergenceError):
            spectral_norm(gen.standard_normal((50, 50)))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_bad_tol_is_rejected_before_any_product(self, tol):
        def product(v):
            raise AssertionError("an operator product ran")
        with pytest.raises(ValueError):
            top_singular_values(product, product, np.ones((3, 1)), tol)
        with pytest.raises(ValueError):
            spectral_norm(np.eye(3), tol=tol)

    def test_zero_operator_is_zero(self, gen):
        a = np.zeros((5, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = top_singular_values(lambda v: a @ v, lambda w: a.T @ w,
                                      gen.standard_normal((3, 2)), tol=1e-8)
        assert got.estimates.tolist() == got.residuals.tolist() == [0.0, 0.0]
        assert got.steps == 1

    @pytest.mark.parametrize("rows, cols, steps", [(6, 4, 4), (4, 6, 5)])
    def test_small_operator_stops_when_its_krylov_space_is_exhausted(self, gen, rows, cols, steps):
        # tall: V spans the 4 inputs at step 4; wide: U spans the 4 outputs at
        # step 4, and step 5 finds alpha_5 = 0
        a = gen.standard_normal((rows, cols))
        got = top_singular_values(lambda v: a @ v, lambda w: a.T @ w,
                                  gen.standard_normal((cols, 1)), tol=1e-15)
        assert got.steps == steps and got.residuals[0] == 0.0
        assert got.estimates[0] == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-13)

    def test_gaussian_1024_at_probe_tol_matches_svd(self):
        # spectral_norm's stated accuracy at the perturbation probe's tol
        errors = []
        for seed in range(8):
            a = RngState(seed=seed).generator().standard_normal((1024, 1024))
            want = np.linalg.svd(a, compute_uv=False)[0]
            got = spectral_norm(a, tol=1e-4)
            assert got <= want * (1 + 1e-12)
            errors.append((want - got) / want)
        assert np.median(errors) <= 1e-3
        assert max(errors) <= 2e-2
