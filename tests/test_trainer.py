import math
import time

import numpy as np
import pytest

from contrast_lab.contrastive import HyperParams, grad_params
from contrast_lab.encoder import Params
from contrast_lab import trainer
from contrast_lab.errors import DivergenceError
from contrast_lab.trainer import gd_step, theoretical_hyperparams, train


def test_theoretical_hyperparams_formulas():
    n, k, L, m, d, delta, eps = 4, 2, 3, 100, 8, 0.5, 0.5
    hp, omega, tau = theoretical_hyperparams(n, k, L, m, d, delta, eps)
    assert hp.eta == pytest.approx(d * eps**2 * delta**2 / (n**7 * L**2 * k * m))
    assert hp.gamma == hp.eta
    assert hp.T == math.ceil(n**10 * L**2 * k / (delta**3 * eps**4))
    assert omega == tau
    assert omega == pytest.approx(n**3.5 * math.sqrt(d) / (delta * eps * math.sqrt(m)))
    # constants rescale linearly
    hp2, omega2, _ = theoretical_hyperparams(n, k, L, m, d, delta, eps,
                                             c_step=2.0, c_ball=3.0)
    assert hp2.eta == pytest.approx(2 * hp.eta)
    assert omega2 == pytest.approx(3 * omega)


def test_theoretical_hyperparams_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        theoretical_hyperparams(4, 2, 3, 100, 8, 0.5, 1.5)


@pytest.fixture(scope="module")
def short_run(small_nets_module):
    qp, kp, data = small_nets_module
    hp = HyperParams(k=2, eta=0.05, gamma=0.05, T=10)
    trace, qf, kf = train(qp, kp, data, hp)
    return trace, qp, kp, qf, kf, data, hp


@pytest.fixture(scope="module")
def small_nets_module():
    from contrast_lab import Shape, generate_separated, init_params
    from contrast_lab.rng import RngState
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


def test_early_stop_halts_when_loss_vectors_shrink(small_nets_module):
    qp, kp, data = small_nets_module
    hp = HyperParams(k=2, eta=0.05, gamma=0.05, T=500, epsilon=0.5)
    trace, _, _ = train(qp, kp, data, hp, early_stop=True)
    assert len(trace) < 501


def test_step_ms_covers_the_record_stage(small_nets_module, monkeypatch):
    """step_ms runs to the end of the record, in every step and in the
    closing record: with the record's gradient norms slowed by 25 ms each,
    every record reports at least 50 ms."""
    qp, kp, data = small_nets_module
    original = trainer.sum_of_squares

    def slow_sum_of_squares(arrays):
        time.sleep(0.025)
        return original(arrays)

    monkeypatch.setattr(trainer, "sum_of_squares", slow_sum_of_squares)
    trace, _, _ = train(qp, kp, data, HyperParams(k=2, eta=0.05, gamma=0.05, T=2))
    assert len(trace) == 3
    assert all(r.step_ms >= 50.0 for r in trace.records)
