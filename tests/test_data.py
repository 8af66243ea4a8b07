import numpy as np
import pytest

from contrast_lab.data import generate_separated, min_pairwise_distance
from contrast_lab.errors import GenerationError
from contrast_lab.rng import RngState


def test_generated_points_are_unit_norm_and_separated():
    data = generate_separated(RngState(seed=11), 8, 16, 0.5)
    norms = np.linalg.norm(data.points, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert min_pairwise_distance(data.points) >= 0.5
    # stored delta is the realized separation, not the requested minimum
    assert data.delta == pytest.approx(min_pairwise_distance(data.points))
    pts = data.points
    brute = min(np.linalg.norm(pts[i] - pts[j]) for i in range(8) for j in range(i))
    assert min_pairwise_distance(pts) == pytest.approx(brute, rel=1e-15)


def test_generation_is_deterministic():
    a = generate_separated(RngState(seed=4), 6, 8, 0.5)
    b = generate_separated(RngState(seed=4), 6, 8, 0.5)
    assert np.array_equal(a.points, b.points)


def test_delta_min_out_of_range_rejected():
    # pairwise distances of unit vectors cannot all reach sqrt(2) on demand;
    # requested separations outside (0, sqrt(2)) are refused outright
    with pytest.raises(GenerationError):
        generate_separated(RngState(seed=1), 4, 8, 1.99)
    with pytest.raises(GenerationError):
        generate_separated(RngState(seed=1), 4, 8, 0.0)


def test_infeasible_request_exhausts_budget():
    # 12 points on the unit circle cannot be pairwise 1.4 apart
    with pytest.raises(GenerationError):
        generate_separated(RngState(seed=1), 12, 2, 1.4)
