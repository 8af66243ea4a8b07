import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from contrast_lab import contrastive
from contrast_lab.contrastive import (
    DRAW_BLOCK_SAMPLES,
    EncodedBatch,
    HyperParams,
    encode_batch,
    grad_params,
    loss_and_vectors,
    losshat_pair,
    total_loss_exact,
    total_loss_mc,
)
from contrast_lab.encoder import Params, backprop_matrix, forward_trace
from contrast_lab.errors import EnumerationError
from contrast_lab.rng import RngState


def random_batch(gen, n, d):
    """An encoded batch made of raw Gaussian outputs; the losses only read
    the query/key vectors, so no network is needed."""
    return EncodedBatch(
        queries=gen.standard_normal((n, d)),
        keys=gen.standard_normal((n, d)),
        query_trace=None,
        key_trace=None,
    )


class TestClosedFormsTinyCase:
    """n=2, k=1: the expectation over negative sets is a single term and
    everything reduces to one logistic expression."""

    def setup_method(self):
        gen = np.random.default_rng(5)
        self.batch = random_batch(gen, 2, 3)

    def test_loss(self):
        q, key = self.batch.queries, self.batch.keys
        expected = 0.5 * sum(
            math.log1p(math.exp(q[i] @ (key[1 - i] - key[i]))) for i in (0, 1)
        )
        assert total_loss_exact(self.batch, 1) == pytest.approx(expected, rel=1e-14)

    def test_losstilde(self):
        q, key = self.batch.queries, self.batch.keys
        got = loss_and_vectors(self.batch, 1)[1].losstilde
        for i in (0, 1):
            z = key[1 - i] - key[i]
            p = 1.0 / (1.0 + math.exp(-(q[i] @ z)))
            assert np.allclose(got[i], p * z, rtol=1e-14)

    def test_losshat(self):
        q, key = self.batch.queries, self.batch.keys
        got = loss_and_vectors(self.batch, 1)[1].losshat
        pair = {}
        for i in (0, 1):
            z = key[1 - i] - key[i]
            pair[i] = (1.0 / (1.0 + math.exp(-(q[i] @ z)))) * q[i]
        for i in (0, 1):
            assert np.allclose(got[i], pair[1 - i] - pair[i], rtol=1e-13)


def test_losshat_sums_to_zero(gen):
    batch = random_batch(gen, 7, 5)
    hat = loss_and_vectors(batch, 3)[1].losshat
    assert np.linalg.norm(hat.sum(axis=0)) <= 1e-12 * np.linalg.norm(hat)


def test_loss_invariant_under_key_translation(gen):
    # the loss depends on keys only through differences k_j - k_i
    batch = random_batch(gen, 6, 4)
    shifted = EncodedBatch(
        queries=batch.queries, keys=batch.keys + 3.7,
        query_trace=None, key_trace=None,
    )
    assert total_loss_exact(shifted, 2) == pytest.approx(
        total_loss_exact(batch, 2), rel=1e-13)


def test_losshat_pair_rejects_diagonal(gen):
    batch = random_batch(gen, 5, 3)
    with pytest.raises(IndexError):
        losshat_pair(batch, 2, 2, 2)


def test_losshat_assembles_from_pairs(gen):
    batch = random_batch(gen, 6, 4)
    k = 2
    hat = loss_and_vectors(batch, k)[1].losshat
    for i in range(6):
        acc = np.zeros(4)
        for j in range(6):
            if j == i:
                continue
            acc += losshat_pair(batch, j, i, k) - losshat_pair(batch, i, j, k)
        assert np.allclose(hat[i], acc, atol=1e-13)


def test_loss_and_vectors_matches_total_loss_exact(gen):
    batch = random_batch(gen, 6, 4)
    loss, _ = loss_and_vectors(batch, 2)
    assert loss == pytest.approx(total_loss_exact(batch, 2), rel=1e-14)


def test_enumeration_cap_enforced(gen):
    batch = random_batch(gen, 12, 3)
    with pytest.raises(EnumerationError):
        total_loss_exact(batch, 5, cap=100)


def test_mc_estimate_near_exact(gen):
    batch = random_batch(gen, 8, 4)
    exact = total_loss_exact(batch, 2)
    est, stderr = total_loss_mc(batch, 2, RngState(seed=99), samples=20_000)
    assert stderr > 0
    assert abs(est - exact) <= 4 * stderr


def test_mc_loss_vectors_near_exact(gen):
    """The Monte-Carlo loss and loss vectors lie within 5 standard errors of
    the exact ones, entry by entry.  Each is a sum over anchors of means of
    i.i.d. draws of a per-subset quantity, so its standard error follows from
    the per-subset variances, enumerated here from the exact distribution."""
    n, d, k, samples = 6, 4, 2, 4000
    batch = random_batch(gen, n, d)
    q, keys = batch.queries, batch.keys
    exact_loss, exact = loss_and_vectors(batch, k)
    mc_loss, mc = loss_and_vectors(batch, k, mode="monte-carlo", mc_samples=samples,
                                   rng=RngState(seed=31))
    var_loss, var_tilde, var_hat = 0.0, np.zeros((n, d)), np.zeros((n, d))
    for a in range(n):
        loss_draws, tilde_draws, hat_draws = [], [], []
        for subset in combinations([j for j in range(n) if j != a], k):
            logits = np.array([q[a] @ (keys[j] - keys[a]) for j in subset])
            denom = 1.0 + np.sum(np.exp(logits))
            weights = np.exp(logits) / denom
            loss_draws.append(math.log(denom) / n)
            tilde_draws.append(sum(w * (keys[j] - keys[a]) for w, j in zip(weights, subset)))
            hat = np.zeros((n, d))
            hat[a] -= weights.sum() * q[a]
            for w, j in zip(weights, subset):
                hat[j] += w * q[a]
            hat_draws.append(hat)
        var_loss += np.var(loss_draws)
        var_tilde[a] = np.var(tilde_draws, axis=0)
        var_hat += np.var(hat_draws, axis=0)
    z = 5 / math.sqrt(samples)
    assert abs(mc_loss - exact_loss) <= z * math.sqrt(var_loss)
    assert np.all(np.abs(mc.losstilde - exact.losstilde) <= z * np.sqrt(var_tilde))
    assert np.all(np.abs(mc.losshat - exact.losshat) <= z * np.sqrt(var_hat))


def _one_shot_draw(gen, samples, n, k):
    return np.argpartition(gen.random((samples, n, n - 1)), k - 1, axis=2)[:, :, :k]


@pytest.mark.parametrize("seed, n, k, samples", [
    (0, 8, 2, 2 * DRAW_BLOCK_SAMPLES + 17),
    (1, 10, 3, 10_000),
    (2, 5, 4, DRAW_BLOCK_SAMPLES),
    (3, 12, 1, 300),
])
def test_blocked_draw_matches_one_shot_draw(seed, n, k, samples, monkeypatch):
    """The block-by-block draw takes the same uniforms as one draw of the
    whole array, so both Monte-Carlo consumers stay bit-identical."""
    blocked = contrastive._draw_subsets(np.random.default_rng(seed), samples, n, k)
    assert np.array_equal(blocked, _one_shot_draw(np.random.default_rng(seed), samples, n, k))
    batch = random_batch(np.random.default_rng(seed + 100), n, 4)

    def both():
        rng = RngState(seed=seed)
        return (total_loss_mc(batch, k, rng.child("total"), samples=samples),
                loss_and_vectors(batch, k, mode="monte-carlo", mc_samples=samples,
                                 rng=rng.child("vectors")))

    (est, stderr), (loss, lv) = both()
    monkeypatch.setattr(contrastive, "_draw_subsets", _one_shot_draw)
    (est1, stderr1), (loss1, lv1) = both()
    assert (est, stderr, loss) == (est1, stderr1, loss1)
    assert np.array_equal(lv.losstilde, lv1.losstilde)
    assert np.array_equal(lv.losshat, lv1.losshat)


def test_draw_keeps_only_the_index_array():
    """At n=20, k=3 and 20,000 samples the whole-array draw kept 58 MB of
    argpartition output alive behind a 9.6 MB k-slice; the blocked draw
    retains the index array alone and peaks one block above it."""
    n, k, samples = 20, 3, 20_000
    tracemalloc.start()
    try:
        drawn = contrastive._draw_subsets(np.random.default_rng(5), samples, n, k)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_bytes = 8 * DRAW_BLOCK_SAMPLES * n * (n - 1)
    assert drawn.nbytes == 8 * samples * n * k
    assert retained <= 1.05 * drawn.nbytes
    assert peak <= drawn.nbytes + 2.5 * block_bytes


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(k=0, eta=0.1, gamma=0.1, T=1)
    with pytest.raises(ValueError):
        HyperParams(k=1, eta=-0.1, gamma=0.1, T=1)
    with pytest.raises(ValueError):
        HyperParams(k=1, eta=0.1, gamma=0.1, T=1, mode="bogus")


# ---------------------------------------------------------------------------
# independent reverse-accumulation oracle for the parameter gradients


def _oracle_grad(qp, kp, data, k):
    """Parameter gradients assembled sample by sample and subset by subset,
    through backprop_matrix on individual forward traces -- sharing no code
    with the vectorized production path."""
    n = data.points.shape[0]
    q_traces = [forward_trace(qp, x) for x in data.points]
    k_traces = [forward_trace(kp, x) for x in data.points]
    q = np.stack([t.output for t in q_traces])
    keys = np.stack([t.output for t in k_traces])

    d_out = qp.shape.d
    dq = np.zeros((n, d_out))
    dk = np.zeros((n, d_out))
    n_subsets = math.comb(n - 1, k)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for subset in combinations(others, k):
            logits = [q[i] @ (keys[j] - keys[i]) for j in subset]
            hi = max(max(logits), 0.0)
            denom = math.exp(-hi) + sum(math.exp(g - hi) for g in logits)
            for j, g in zip(subset, logits):
                p = math.exp(g - hi) / denom
                dq[i] += p * (keys[j] - keys[i]) / n_subsets
                dk[j] += p * q[i] / n_subsets
                dk[i] -= p * q[i] / n_subsets
    # push the output-space gradients through each sample's linearization
    def accumulate(p, traces, out_grads):
        grads = [np.zeros_like(w) for w in p.weights]
        L = p.shape.L
        for i, t in enumerate(traces):
            below = [t.x] + list(t.hidden)
            for l in range(L + 1):
                if l == L:
                    jac_row = out_grads[i]
                else:
                    bmat = backprop_matrix(p, t, l + 1)
                    jac_row = (bmat.T @ out_grads[i]) * t.masks[l]
                grads[l] += np.outer(jac_row, below[l]) / n
        return grads

    return accumulate(qp, q_traces, dq), accumulate(kp, k_traces, dk)


def test_grad_params_matches_reverse_accumulation_oracle(small_nets, small_data):
    qp, kp = small_nets
    hp = HyperParams(k=2, eta=0.1, gamma=0.1, T=1)
    got = grad_params(qp, kp, small_data, hp)
    want_w, want_t = _oracle_grad(qp, kp, small_data, 2)
    for a, b in zip(got.grad_w.weights, want_w):
        assert np.allclose(a, b, atol=1e-10 * max(1.0, np.abs(b).max()))
    for a, b in zip(got.grad_theta.weights, want_t):
        assert np.allclose(a, b, atol=1e-10 * max(1.0, np.abs(b).max()))


def test_grad_of_zero_weights_is_zero(small_shape, small_data):
    qp = kp = Params(shape=small_shape,
                     weights=tuple(np.zeros(dim) for dim in small_shape.layer_dims()))
    hp = HyperParams(k=2, eta=0.1, gamma=0.1, T=1)
    g = grad_params(qp, kp, small_data, hp)
    assert all(np.all(w == 0.0) for w in g.grad_w.weights)
    assert g.loss == pytest.approx(math.log(1 + 2), rel=1e-12)
