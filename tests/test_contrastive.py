import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
import scipy.stats

from contrast_lab import contrastive
from contrast_lab.contrastive import (
    DEFAULT_ENUMERATION_CAP,
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


# Chance that a uniform draw fails one anchor's chi-square test below.
UNIFORMITY_FALSE_FAILURE_P = 1e-6


@pytest.mark.parametrize("seed, n, k", [
    (0, 6, 3),
    (1, 7, 1),  # k = 1
    (2, 5, 4),  # k = n-1: one subset, which distinctness alone pins
    (3, 9, 2),
    (4, 10, 3),
])
def test_draw_is_uniform_over_the_subsets(seed, n, k):
    """Each anchor's draws are distinct members of [0, n-2], and their counts
    over all C(n-1, k) subsets pass a chi-square test at p = 1e-6.  A draw of
    t from [0, j-1], or one that keeps a duplicate t instead of taking j,
    fails it."""
    samples = 40_000
    drawn = contrastive._draw_subsets(np.random.default_rng(seed), samples, n, k)
    assert drawn.shape == (samples, n, k)
    assert drawn.min() >= 0 and drawn.max() <= n - 2
    ordered = np.sort(drawn, axis=2)
    assert np.all(ordered[..., 1:] > ordered[..., :-1])
    # a subset's code is the bit mask of its members
    codes = (1 << drawn).sum(axis=2)
    cells = (1 << contrastive._relative_subsets(n - 1, k)).sum(axis=1)
    dof = len(cells) - 1
    threshold = scipy.stats.chi2.isf(UNIFORMITY_FALSE_FAILURE_P, dof) if dof else 0.0
    expected = samples / len(cells)
    for anchor in range(n):
        counts = np.bincount(codes[:, anchor], minlength=1 << (n - 1))[cells]
        assert counts.sum() == samples
        assert np.sum((counts - expected) ** 2) / expected <= threshold, anchor


@pytest.mark.parametrize("seed, n, k", [(0, 6, 3), (3, 9, 2), (4, 10, 3)])
def test_row_draw_is_uniform_over_the_rows(seed, n, k):
    """The row draw's counts over each anchor's C(n-1, k) rows pass the same
    chi-square test.  A draw that never takes the last row fails it."""
    samples, subsets = 40_000, math.comb(n - 1, k)
    rows = contrastive._draw_rows(np.random.default_rng(seed), samples, n, subsets)
    assert rows.shape == (samples, n)
    assert rows.min() >= 0 and rows.max() <= subsets - 1
    threshold = scipy.stats.chi2.isf(UNIFORMITY_FALSE_FAILURE_P, subsets - 1)
    expected = samples / subsets
    for anchor in range(n):
        counts = np.bincount(rows[:, anchor], minlength=subsets)
        assert np.sum((counts - expected) ** 2) / expected <= threshold, anchor


def test_draw_keeps_only_the_index_array():
    """At n=20, k=3 and 20,000 samples the draw retains its 9.6 MB index array
    alone and peaks 13.2 MB, one int64 and one bool (samples, n) array above
    it.  The bound allows a second bool, 13.6 MB; two int64 arrays alive at
    once would reach 16.0 MB."""
    n, k, samples = 20, 3, 20_000
    tracemalloc.start()
    try:
        drawn = contrastive._draw_subsets(np.random.default_rng(5), samples, n, k)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert drawn.nbytes == 8 * samples * n * k
    assert retained <= 1.05 * drawn.nbytes
    assert peak <= drawn.nbytes + (8 + 2) * samples * n


def test_floyd_path_fails_a_biased_draw(gen, monkeypatch):
    """At n=10, k=4 an anchor has C(9, 4) = 126 subsets, more than 100 draws,
    so the estimate takes the Floyd draw and never the row draw.  It lies
    within the z of a 1e-6 two-sided false-failure chance of the exact loss,
    and a draw that always takes each anchor's first k others does not."""
    n, k, samples = 10, 4, 100
    batch = random_batch(gen, n, 3)
    exact = total_loss_exact(batch, k)
    z = scipy.stats.norm.isf(1e-6 / 2)

    def stderrs_off():
        est, stderr = total_loss_mc(batch, k, RngState(seed=8), samples)
        return abs(est - exact) / max(stderr, 1e-30)

    def no_rows(*args):
        raise AssertionError("the row draw ran above its rule")

    monkeypatch.setattr(contrastive, "_draw_rows", no_rows)
    assert stderrs_off() <= z
    monkeypatch.setattr(contrastive, "_draw_subsets",
                        lambda gen, samples, n, k: np.tile(np.arange(k), (samples, n, 1)))
    assert stderrs_off() > z


@pytest.mark.parametrize("n, k, d, cap, samples", [
    (24, 6, 4, DEFAULT_ENUMERATION_CAP, None),  # three groups of up to 9 anchors
    (24, 6, 4, math.comb(23, 6), None),  # one anchor per group
    (20, 3, 8, None, 20_000),  # C(19, 3) = 969 <= samples: the table of subset losses
    (20, 3, 8, None, 900),  # samples < C(19, 3): the Floyd draw
])
def test_kernel_peak_stays_within_four_logit_tables(n, k, d, cap, samples):
    """A call holds one gathered logit table at a time -- a group's in exact
    mode, the whole draw in Monte-Carlo mode, or the table of every subset,
    never larger than the draw -- beside its flat index, one shifted copy and
    per-subset vectors k times smaller."""
    batch = random_batch(np.random.default_rng(n), n, d)
    if samples is None:
        subsets = math.comb(n - 1, k)
        table = 8 * min(n, cap // subsets) * subsets * k
        contrastive._relative_subsets(n - 1, k)  # the cached enumeration outlives a call
        calls = (lambda: total_loss_exact(batch, k, cap), lambda: loss_and_vectors(batch, k, cap))
    else:
        table = 8 * samples * n * k
        calls = (lambda: total_loss_mc(batch, k, RngState(seed=1), samples),
                 lambda: loss_and_vectors(batch, k, mode="monte-carlo", mc_samples=samples,
                                          rng=RngState(seed=1)))
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * table


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(k=0, eta=0.1, gamma=0.1, T=1)
    with pytest.raises(ValueError):
        HyperParams(k=1, eta=-0.1, gamma=0.1, T=1)
    with pytest.raises(ValueError):
        HyperParams(k=1, eta=0.1, gamma=0.1, T=1, mode="bogus")


# ---------------------------------------------------------------------------
# bit-level reference: the per-anchor loop


def _per_anchor_reference(batch, subsets_of):
    """The kernel written one anchor at a time, with the softmax weights
    scattered by np.add.at.  subsets_of(i) gives anchor i's (S, k) subsets as
    indices into its n-1 others.  Returns the loss, losstilde, losshat, the
    pairwise coefficients and the (S, n) table of subset losses."""
    n, d = batch.queries.shape
    total, coeff, losstilde, losses = 0.0, np.zeros((n, n)), np.zeros((n, d)), []
    for i in range(n):
        subsets = subsets_of(i)
        others = np.concatenate([np.arange(i), np.arange(i + 1, n)])
        z = batch.keys[others] - batch.keys[i]
        a = (z @ batch.queries[i])[subsets]
        hi = np.maximum(a.max(axis=1), 0.0)
        lse = hi + np.log(np.exp(-hi) + np.sum(np.exp(a - hi[:, None]), axis=1))
        c = np.zeros(n - 1)
        np.add.at(c, subsets.ravel(), np.exp(a - lse[:, None]).ravel())
        c /= subsets.shape[0]
        coeff[i, others] = c
        losstilde[i] = z.T @ c
        total += float(np.mean(lse))
        losses.append(lse)
    losshat = coeff.T @ batch.queries - coeff.sum(axis=1)[:, None] * batch.queries
    return total / n, losstilde, losshat, coeff, np.stack(losses, axis=1)


@pytest.mark.parametrize("seed, n, k, d, cap", [
    (0, 2, 1, 3, DEFAULT_ENUMERATION_CAP),
    (1, 5, 4, 2, DEFAULT_ENUMERATION_CAP),  # k = n-1
    (2, 6, 2, 1, DEFAULT_ENUMERATION_CAP),  # d = 1
    (3, 9, 3, 4, math.comb(8, 3)),  # one anchor per group
    (4, 10, 3, 5, 2 * math.comb(9, 3) + 1),  # groups of two
    (5, 12, 4, 16, DEFAULT_ENUMERATION_CAP),
    (6, 7, 2, 3, 3 * math.comb(6, 2)),  # groups of 3, 3 and 1
])
def test_kernel_is_bit_identical_to_the_per_anchor_loop(seed, n, k, d, cap):
    gen = np.random.default_rng(seed)
    batch = EncodedBatch(queries=4 * gen.standard_normal((n, d)), keys=gen.standard_normal((n, d)),
                         query_trace=None, key_trace=None)
    rel = contrastive._relative_subsets(n - 1, k)
    loss, tilde, hat, coeff, _ = _per_anchor_reference(batch, lambda i: rel)
    assert total_loss_exact(batch, k, cap) == loss
    got_loss, lv = loss_and_vectors(batch, k, cap)
    assert got_loss == loss
    assert np.array_equal(lv.losstilde, tilde) and np.array_equal(lv.losshat, hat)
    for i, j in [(0, n - 1), (n - 1, 0), (n // 2, 0)]:
        if i != j:
            assert np.array_equal(losshat_pair(batch, i, j, k, cap), coeff[i, j] * batch.queries[i])

    # Each regime's own sampler: Floyd draws when an anchor has more subsets
    # than draws (samples=2 unless C(n-1, k) = 1), rows of rel when it has not
    # (samples=1536 everywhere here), so the losses gathered from total_loss_mc's
    # table must equal the per-draw losses of the same rows.
    for samples in (2, 1536):
        rng = RngState(seed=seed)
        if len(rel) <= samples:
            drawn = rel[contrastive._draw_rows(rng.generator(), samples, n, len(rel))]
        else:
            drawn = contrastive._draw_subsets(rng.generator(), samples, n, k)
        loss, tilde, hat, _, losses = _per_anchor_reference(batch, lambda i: drawn[:, i])
        got_loss, lv = loss_and_vectors(batch, k, mode="monte-carlo", mc_samples=samples, rng=rng)
        assert got_loss == loss
        assert np.array_equal(lv.losstilde, tilde) and np.array_equal(lv.losshat, hat)
        draws = losses.mean(axis=1)
        assert total_loss_mc(batch, k, rng, samples) == (
            float(np.mean(draws)), float(np.std(draws, ddof=1) / math.sqrt(samples)))


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
