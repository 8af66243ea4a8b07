import math

import numpy as np
import pytest

from contrast_lab.encoder import (
    Params,
    Shape,
    backprop_matrix,
    backward_batch,
    forward_batch,
    forward_shifted,
    forward_trace,
    init_params,
    sum_of_squares,
)
from contrast_lab.errors import ShapeError
from contrast_lab.rng import RngState


def _params_from(shape, arrays_):
    return Params(shape=shape, weights=tuple(np.asarray(a, dtype=np.float64) for a in arrays_))


class TestShape:
    def test_layer_dims(self):
        dims = Shape(L=3, m=5, d=2, b=4).layer_dims()
        assert dims == [(5, 4), (5, 5), (5, 5), (2, 5)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ShapeError):
            Shape(L=0, m=5, d=2, b=4)


def test_hand_evaluated_single_hidden_layer():
    # W0 = [[1, -1], [0, 2]], W1 = [[1, 1]], x = (0.6, 0.8)
    # pre = (-0.2, 1.6) -> hidden (0, 1.6) -> output 1.6
    shape = Shape(L=1, m=2, d=1, b=2)
    p = _params_from(shape, [[[1.0, -1.0], [0.0, 2.0]], [[1.0, 1.0]]])
    t = forward_trace(p, np.array([0.6, 0.8]))
    assert np.allclose(t.hidden[0], [0.0, 1.6])
    assert t.output == pytest.approx(np.array([1.6]))
    assert t.masks[0].tolist() == [False, True]


def test_zero_preactivation_counts_as_active():
    shape = Shape(L=1, m=2, d=1, b=2)
    p = _params_from(shape, [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 1.0]]])
    t = forward_trace(p, np.array([1.0, 0.0]))
    assert t.masks[0].tolist() == [True, True]
    assert t.hidden[0][0] == 0.0


def test_forward_batch_matches_single_traces(small_nets, small_data):
    qp, _ = small_nets
    batch = forward_batch(qp, small_data.points)
    for i, x in enumerate(small_data.points):
        single = forward_trace(qp, x)
        assert np.allclose(batch.outputs[:, i], single.output, atol=1e-14)
        for l in range(qp.shape.L):
            assert np.array_equal(batch.masks[l][:, i], single.masks[l])


def test_init_variances():
    shape = Shape(L=2, m=2000, d=100, b=50)
    p = init_params(RngState(seed=13), shape)
    assert p.weights[0].var() == pytest.approx(2 / 2000, rel=0.05)
    assert p.weights[1].var() == pytest.approx(2 / 2000, rel=0.05)
    assert p.weights[-1].var() == pytest.approx(1 / 100, rel=0.05)


def test_hidden_norms_concentrate_at_large_width(small_data):
    shape = Shape(L=2, m=8192, d=16, b=8)
    p = init_params(RngState(seed=17), shape)
    batch = forward_batch(p, small_data.points)
    for h in batch.hidden:
        assert np.allclose(np.linalg.norm(h, axis=0), 1.0, atol=0.1)


class TestBackpropMatrix:
    def test_top_layer_is_output_weights(self, small_nets, small_data):
        qp, _ = small_nets
        t = forward_trace(qp, small_data.points[0])
        assert np.array_equal(backprop_matrix(qp, t, qp.shape.L), qp.weights[-1])

    def test_descending_chain_identity(self, small_nets, small_data):
        qp, _ = small_nets
        t = forward_trace(qp, small_data.points[0])
        for l in range(qp.shape.L - 1, 0, -1):
            above = backprop_matrix(qp, t, l + 1)
            expected = (above * t.masks[l]) @ qp.weights[l]
            assert np.allclose(backprop_matrix(qp, t, l), expected, atol=1e-12)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_backward_batch_matches_backprop_matrix(L, small_data, gen):
    # yield L - l is the adjoint chain (WL D_{L-1} ... D_l W_l)^T v, one column per sample
    p = init_params(RngState(seed=29), Shape(L=L, m=24, d=5, b=small_data.b))
    v = gen.standard_normal((5, small_data.n))
    yields = list(backward_batch(p, forward_batch(p, small_data.points).masks, v, L, 0))
    assert len(yields) == L + 1
    for i, x in enumerate(small_data.points):
        t = forward_trace(p, x)
        for l, g in zip(range(L, -1, -1), yields):
            want = backprop_matrix(p, t, l).T @ v[:, i]
            assert np.linalg.norm(g[:, i] - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("m", [64, 512])
@pytest.mark.parametrize("cols", [1, 8, 64])  # 64 is the backward-chain ratios' width
def test_backward_batch_is_bit_identical_to_transposed_products(m, cols):
    p = init_params(RngState(seed=m), Shape(L=3, m=m, d=16, b=8))
    gen = np.random.default_rng(cols)
    masks = tuple(gen.random((m, cols)) < 0.5 for _ in range(3))
    v = gen.standard_normal((16, cols))
    want = [p.weights[3].T @ v]
    for l in (2, 1, 0):
        want.append(p.weights[l].T @ np.where(masks[l], want[-1], 0.0))
    got = list(backward_batch(p, masks, v, 3, 0))
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("m", [64, 512])
def test_forward_shifted_matches_the_shifted_nets(m, small_data, shifted, shifted_pass_bounds):
    p = init_params(RngState(seed=31), Shape(L=3, m=m, d=8, b=small_data.b))
    direction = init_params(RngState(seed=37), p.shape).weights
    scales = (0.0, 1e-3, 0.1, -0.5, 1.0)
    traces = forward_shifted(p, direction, scales, small_data.points)
    assert len(traces) == len(scales)
    for got, s in zip(traces, scales):
        assert got.outputs.shape == (8, small_data.n)
        want = forward_batch(shifted(p, direction, s), small_data.points)
        *hidden, (_, out_bound) = shifted_pass_bounds(p, direction, s, small_data.points)
        assert np.all(np.abs(got.outputs - want.outputs) <= out_bound)
        for l, (pre, bound) in enumerate(hidden):
            assert np.all(np.abs(got.hidden[l] - want.hidden[l]) <= bound)
            decided = np.abs(pre) > bound  # the sign of these cannot differ
            assert decided.mean() > 0.99
            assert np.array_equal(got.masks[l][decided], want.masks[l][decided])


def test_bytes_round_trip_is_bit_exact(small_nets):
    qp, _ = small_nets
    back = Params.from_bytes(qp.to_bytes())
    assert back.shape == qp.shape
    for a, b in zip(back.weights, qp.weights):
        assert a.tobytes() == b.tobytes()


def test_params_are_immutable(small_nets):
    qp, _ = small_nets
    with pytest.raises(ValueError):
        qp.weights[0][0, 0] = 1.0


def test_frobenius_distance_of_a_shift(small_nets, small_shape, frobenius_distance):
    qp, _ = small_nets
    direction = init_params(RngState(seed=23), small_shape)
    shifted = _params_from(small_shape, [w + 0.1 * g for w, g in zip(qp.weights, direction.weights)])
    stacked = np.concatenate([g.ravel() for g in direction.weights])
    assert frobenius_distance(shifted, qp) == pytest.approx(
        0.1 * np.linalg.norm(stacked), rel=1e-12)
    assert math.sqrt(sum_of_squares(direction.weights)) == pytest.approx(
        np.linalg.norm(stacked), rel=1e-14)
    assert frobenius_distance(qp, qp) == 0.0
    with pytest.raises(ShapeError):
        frobenius_distance(qp, init_params(RngState(seed=23), Shape(L=2, m=4, d=2, b=3)))
