import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from contrast_lab import Shape, generate_separated, init_params
from contrast_lab.contrastive import HyperParams, grad_params
from contrast_lab.encoder import Params
from contrast_lab.rng import RngState
from contrast_lab import trainer
from contrast_lab.errors import DivergenceError
from contrast_lab.trainer import gd_step, theoretical_step_size, train


def test_theoretical_hyperparams_formulas():
    n, k, L, m, d, delta, eps = 4, 2, 3, 100, 8, 0.5, 0.5
    eta = theoretical_step_size(n, k, L, m, d, delta, eps)
    assert eta == pytest.approx(d * eps**2 * delta**2 / (n**7 * L**2 * k * m))


def test_theoretical_hyperparams_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        theoretical_step_size(4, 2, 3, 100, 8, 0.5, 1.5)


@pytest.fixture(scope="module")
def short_run(small_nets_module):
    qp, kp, data = small_nets_module
    hp = HyperParams(k=2, eta=0.05, gamma=0.05, T=10)
    trace, qf, kf = train(qp, kp, data, hp)
    return trace, qp, kp, qf, kf, data, hp


@pytest.fixture(scope="module")
def small_nets_module():
    root = RngState(seed=7)
    data = generate_separated(root.child("data"), 6, 8, 0.5)
    shape = Shape(L=3, m=32, d=8, b=8)
    return (init_params(root.child("query-net"), shape),
            init_params(root.child("key-net"), shape), data)


def test_trace_has_t_plus_one_records(short_run):
    trace = short_run[0]
    assert len(trace) == 11
    assert [r.t for r in trace.records] == list(range(11))


def test_loss_vec_norm_is_stacked_norm(short_run):
    trace = short_run[0]
    for r in trace.records:
        assert r.loss_vec_norm == pytest.approx(
            math.hypot(r.losstilde_norm, r.losshat_norm), rel=1e-14)


def test_trajectory_starts_at_zero_and_grows(short_run):
    trace = short_run[0]
    assert trace.records[0].traj_w_fro == 0.0
    assert trace.records[0].traj_theta_fro == 0.0
    assert trace.records[-1].traj_w_fro > 0.0


def test_gd_step_is_simultaneous(short_run):
    # both updates must use gradients taken at the same iterate; an
    # alternating scheme would evaluate the key update at the moved query net
    trace, qp, kp, _, _, data, hp = short_run
    g0 = grad_params(qp, kp, data, hp)
    new_q, new_k, _ = gd_step(qp, kp, data, hp)
    manual_q = [w - hp.eta * g for w, g in zip(qp.weights, g0.grad_w.weights)]
    manual_k = [w - hp.gamma * g for w, g in zip(kp.weights, g0.grad_theta.weights)]
    for a, b in zip(new_q.weights, manual_q):
        assert np.array_equal(a, b)
    for a, b in zip(new_k.weights, manual_k):
        assert np.array_equal(a, b)
    # the alternating variant produces a measurably different key update
    moved_q = Params(shape=qp.shape, weights=tuple(manual_q))
    g1 = grad_params(moved_q, kp, data, hp)
    alternating_k = [w - hp.gamma * g for w, g in zip(kp.weights, g1.grad_theta.weights)]
    assert any(not np.allclose(a, b, atol=1e-15)
               for a, b in zip(new_k.weights, alternating_k))


def test_trajectory_obeys_triangle_inequality(short_run):
    trace, hp = short_run[0], short_run[6]
    grad_sum = float(np.sum(trace.column("grad_w_fro")[:-1]))
    assert trace.records[-1].traj_w_fro <= hp.eta * grad_sum * (1 + 1e-12)


def test_divergent_step_size_raises(small_nets_module):
    qp, kp, data = small_nets_module
    hp = HyperParams(k=2, eta=1e200, gamma=1e200, T=5)
    with pytest.raises(DivergenceError):
        train(qp, kp, data, hp)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_one_non_finite_gradient_entry_raises(small_nets_module, monkeypatch, bad):
    """A single NaN or +inf in one key-net gradient layer, with the loss
    finite, stops training at iteration 0."""
    qp, kp, data = small_nets_module
    original = trainer.grad_params

    def spoiled_grad_params(*args, **kwargs):
        g = original(*args, **kwargs)
        layers = [w.copy() for w in g.grad_theta.weights]
        layers[1][0, 0] = bad
        return dataclasses.replace(g, grad_theta=Params(shape=g.grad_theta.shape,
                                                        weights=tuple(layers)))

    monkeypatch.setattr(trainer, "grad_params", spoiled_grad_params)
    with pytest.raises(DivergenceError, match="iteration 0$"):
        train(qp, kp, data, HyperParams(k=2, eta=0.05, gamma=0.05, T=3))


def test_step_ms_covers_the_record_stage(small_nets_module, monkeypatch):
    """step_ms runs to the end of the record, in every step and in the
    closing record: with each net's pass for the record's norms slowed by
    25 ms, every record reports at least 50 ms."""
    qp, kp, data = small_nets_module
    original = trainer._norms_and_step

    def slow_norms_and_step(*args, **kwargs):
        time.sleep(0.025)
        return original(*args, **kwargs)

    monkeypatch.setattr(trainer, "_norms_and_step", slow_norms_and_step)
    trace, _, _ = train(qp, kp, data, HyperParams(k=2, eta=0.05, gamma=0.05, T=2))
    assert len(trace) == 3
    assert all(r.step_ms >= 50.0 for r in trace.records)


def _reference_run(qp, kp, data, hp):
    """T steps of fresh ``w - eta * g`` arrays and the T+1 records' fields,
    step_ms aside, each Frobenius norm summed layer by layer."""
    def fro(arrays):
        return math.sqrt(sum(float(np.sum(a ** 2)) for a in arrays))

    qp0, kp0, rows = qp, kp, []
    for t in range(hp.T + 1):
        g = grad_params(qp, kp, data, hp)
        lv = g.loss_vectors
        rows.append((t, g.loss, lv.tilde_norm, lv.hat_norm, lv.total_norm,
                     fro(g.grad_w.weights), fro(g.grad_theta.weights),
                     fro(a - b for a, b in zip(qp.weights, qp0.weights)),
                     fro(a - b for a, b in zip(kp.weights, kp0.weights))))
        if t < hp.T:
            qp = Params(shape=qp.shape, weights=tuple(
                w - hp.eta * gw for w, gw in zip(qp.weights, g.grad_w.weights)))
            kp = Params(shape=kp.shape, weights=tuple(
                w - hp.gamma * gw for w, gw in zip(kp.weights, g.grad_theta.weights)))
    return rows, qp, kp


def _rows(trace):
    """Each record's fields, step_ms aside."""
    fields = [f.name for f in dataclasses.fields(trace.records[0]) if f.name != "step_ms"]
    return [tuple(getattr(r, f) for f in fields) for r in trace.records]


def _train_matches_fresh_arrays(qp, kp, data, hp):
    """train's records, step_ms aside, and final weights against
    _reference_run's, bit for bit; returns train's final nets."""
    trace, qf, kf = train(qp, kp, data, hp)
    rows, want_q, want_k = _reference_run(qp, kp, data, hp)
    assert _rows(trace) == rows
    for got, want in zip(qf.weights + kf.weights, want_q.weights + want_k.weights):
        assert got.tobytes() == want.tobytes()
    return qf, kf


@pytest.mark.parametrize("T", [1, 2, 3])
def test_buffered_steps_match_fresh_arrays_bit_for_bit(small_nets_module, T):
    """T = 1, 2, 3 ends in each of train's two weight sets and covers the
    closing record; the caller's nets stay as they were and share no memory
    with the returned ones."""
    qp, kp, data = small_nets_module
    before = [w.copy() for w in qp.weights + kp.weights]
    qf, kf = _train_matches_fresh_arrays(qp, kp, data, HyperParams(k=2, eta=0.05, gamma=0.07, T=T))
    for w, old in zip(qp.weights + kp.weights, before):
        assert w.tobytes() == old.tobytes()
    assert not any(np.shares_memory(a, b) for a in qf.weights + kf.weights
                   for b in qp.weights + kp.weights)


def test_steps_over_layers_of_several_leaves_match_fresh_arrays_bit_for_bit():
    """At m=300 each hidden layer's 90,000 entries span several leaves of the
    step's pass (four, of 22,496 and 22,504 entries, at 32,768-entry leaves),
    so its norms are combined up numpy's pairwise tree."""
    root = RngState(seed=5)
    data = generate_separated(root.child("data"), 6, 8, 0.5)
    shape = Shape(L=3, m=300, d=8, b=8)
    assert shape.m * shape.m > 2 * trainer.BLOCK
    qp, kp = init_params(root.child("query-net"), shape), init_params(root.child("key-net"), shape)
    _train_matches_fresh_arrays(qp, kp, data, HyperParams(k=2, eta=0.05, gamma=0.07, T=2))


def _fortran(p):
    return Params(shape=p.shape, weights=tuple(np.asfortranarray(w) for w in p.weights))


def test_caller_nets_in_fortran_order_train_to_the_same_bits(small_nets_module):
    """Records and final weights are those of the same nets in C order, and
    the caller's arrays are left as they were."""
    qp, kp, data = small_nets_module
    fq, fk = _fortran(qp), _fortran(kp)
    assert not any(w.flags.c_contiguous for w in fq.weights + fk.weights)
    hp = HyperParams(k=2, eta=0.05, gamma=0.07, T=3)
    want, want_q, want_k = train(qp, kp, data, hp)
    got, got_q, got_k = train(fq, fk, data, hp)
    assert _rows(got) == _rows(want)
    for a, b in zip(got_q.weights + got_k.weights, want_q.weights + want_k.weights):
        assert a.tobytes() == b.tobytes()
    for f, c in zip(fq.weights + fk.weights, qp.weights + kp.weights):
        assert f.flags.f_contiguous and np.array_equal(f, c)


def _step_peaks(monkeypatch, qp, kp, data, hp):
    """tracemalloc around each gd_step inside train: each step's peak above
    its starting allocation."""
    original, peaks = trainer.gd_step, []

    def measured_gd_step(*args, **kwargs):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = original(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return result

    monkeypatch.setattr(trainer, "gd_step", measured_gd_step)
    tracemalloc.start()
    try:
        train(qp, kp, data, hp)
    finally:
        tracemalloc.stop()
    return peaks


def _allocation_nets(seed):
    root = RngState(seed=seed)
    data = generate_separated(root.child("data"), 8, 16, 0.5)
    shape = Shape(L=3, m=256, d=32, b=16)
    return init_params(root.child("query-net"), shape), init_params(root.child("key-net"), shape), data


def test_a_step_allocates_no_weight_sized_array(monkeypatch):
    """The step's peak above its starting allocation stays below one m x m
    layer."""
    qp, kp, data = _allocation_nets(11)
    peaks = _step_peaks(monkeypatch, qp, kp, data, HyperParams(k=2, eta=0.05, gamma=0.05, T=6))
    assert len(peaks) == 6
    assert max(peaks) < qp.shape.m * qp.shape.m * 8, peaks


def test_fortran_ordered_nets_are_not_copied_every_step(monkeypatch):
    """train copies caller nets that are not C-ordered once, before the first
    step, so no step copies a layer to walk it in C order."""
    qp, kp, data = _allocation_nets(13)
    peaks = _step_peaks(monkeypatch, _fortran(qp), _fortran(kp), data,
                        HyperParams(k=2, eta=0.05, gamma=0.05, T=3))
    assert len(peaks) == 3
    assert max(peaks) < qp.shape.m * qp.shape.m * 8, peaks


def _spread(rng, n):
    """Entries over ten orders of magnitude, so that the order in which
    their squares are added shows in the sum's last bits."""
    return rng.standard_normal(n) * np.exp(rng.uniform(-12.0, 12.0, n))


def _sweep_sizes(block):
    sizes = set(range(1, 3 * 128))
    for k in (1, 2, 3, 5):
        sizes.update(range(k * block - 9, k * block + 10))
    sizes.update((511, 1001, 4097, 90_000, 131_071, 999_999, 1_000_003))
    return sorted(sizes)


@pytest.mark.parametrize("block", [None, 128, 1000])
def test_blocked_sums_of_squares_are_numpys_sums(monkeypatch, block):
    """The step's pass gives each layer's sum of squares with the bits of
    np.sum(np.square(.)), at the module's leaf size and at small ones whose
    trees are deep, and takes the step with the bits of w + (-rate) * g,
    also in place over the gradient."""
    if block is not None:
        monkeypatch.setattr(trainer, "BLOCK", block)
    buf = np.empty(trainer.BLOCK)
    rng = np.random.default_rng(2301 if block is None else block)
    rate = 0.07
    for n in _sweep_sizes(trainer.BLOCK):
        g, w, w0 = _spread(rng, n), _spread(rng, n), _spread(rng, n)
        want = (np.sum(np.square(g)), np.sum(np.square(w - w0)))
        step = w + (-rate) * g
        o = np.empty(n)
        assert tuple(trainer._layer_pass(g, w, w0, buf, rate, o)) == want, n
        assert o.tobytes() == step.tobytes(), n
        o = g.copy()
        assert tuple(trainer._layer_pass(o, w, w0, buf, rate, o)) == want, n
        assert o.tobytes() == step.tobytes(), n
        assert tuple(trainer._layer_pass(g, w, w0, buf)) == want, n


@pytest.mark.parametrize("rows, cols", [(512, 16), (512, 512), (32, 512), (2048, 2048)])
def test_blocked_sums_of_squares_of_benchmark_layers(rows, cols):
    """Every layer shape of the desk run (m=512, b=16, d=32) and of the wide
    probe (m=2048), read flat in C order."""
    rng = np.random.default_rng(rows * cols)
    w = _spread(rng, rows * cols).reshape(rows, cols)
    w0 = np.broadcast_to(0.5, rows * cols)  # no second weight-sized array
    got = trainer._layer_pass(w.reshape(-1), w.reshape(-1), w0, np.empty(trainer.BLOCK))
    diff = w - 0.5
    assert tuple(got) == (np.sum(np.square(w)), np.sum(np.square(diff, out=diff)))
