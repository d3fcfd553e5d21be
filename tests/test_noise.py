"""Tests for the SGD gradient-noise module.

The worked toy example used throughout: four scalar per-example gradients
{1, 2, 3, 6}. Their mean is 3, the deviations are {-2, -1, 0, 3}, so
C = (4 + 1 + 0 + 9) / 4 = 3.5. At lr = 1, b = 2 the with-replacement noise
is C / b = 1.75 and the closed form gives (4 - 2) / (2 * 16) * 14 = 0.875.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bnlab.errors import SizeError
from bnlab.nn import NetworkConfig, build_network
from bnlab.noise import (
    GradientSet,
    closed_form_noise,
    empirical_sgd_noise,
    noise_constant,
    noise_summary,
    per_example_gradients,
    sgd_noise_bound,
)
from bnlab.tensor import SeededRng

TOY = GradientSet(np.array([[1.0], [2.0], [3.0], [6.0]]))


def enumerate_noise(matrix, batch_size, replacement):
    """Average squared deviation of the minibatch mean, by full enumeration."""
    n = matrix.shape[0]
    mean = matrix.mean(axis=0)
    pool = (
        itertools.product(range(n), repeat=batch_size)
        if replacement
        else itertools.combinations(range(n), batch_size)
    )
    vals = []
    for idx in pool:
        diff = matrix[list(idx)].mean(axis=0) - mean
        vals.append(float(diff @ diff))
    return float(np.mean(vals))


class TestGradientSet:
    def test_shapes(self):
        assert TOY.n == 4
        assert TOY.dim == 1
        assert_allclose(TOY.mean_gradient(), [3.0])
        assert_allclose(TOY.deviations().ravel(), [-2.0, -1.0, 0.0, 3.0])

    def test_matrix_and_deviations_are_read_only(self):
        m = SeededRng(9).generator().normal(size=(5, 3))
        gs = GradientSet(m)
        for arr in (gs.matrix, gs.deviations()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        # the caller's own array is left as it was
        assert m.flags.writeable

    def test_rejects_bad_shapes(self):
        with pytest.raises(SizeError):
            GradientSet(np.zeros(3))
        with pytest.raises(SizeError):
            GradientSet(np.zeros((0, 2)))


class TestNoiseConstant:
    def test_toy_value(self):
        assert noise_constant(TOY) == 3.5

    def test_identical_gradients_give_zero(self):
        gs = GradientSet(np.ones((5, 3)) * 2.25)
        assert noise_constant(gs) == 0.0

    def test_matches_direct_formula(self):
        gen = SeededRng(4).generator()
        m = gen.normal(size=(7, 5))
        gs = GradientSet(m)
        d = m - m.mean(0)
        assert_allclose(noise_constant(gs), np.mean(np.sum(d * d, axis=1)), rtol=1e-14)


class TestClosedForms:
    def test_toy_values(self):
        assert sgd_noise_bound(3.5, 1.0, 2) == 1.75
        assert closed_form_noise(TOY, 1.0, 2) == 0.875

    def test_full_batch_closed_form_is_zero(self):
        assert closed_form_noise(TOY, 0.3, 4) == 0.0

    def test_lr_scaling(self):
        assert_allclose(sgd_noise_bound(3.5, 0.1, 2), 0.0175, rtol=1e-14)
        assert_allclose(closed_form_noise(TOY, 2.0, 2), 3.5, rtol=1e-14)

    def test_validation(self):
        with pytest.raises(SizeError):
            sgd_noise_bound(1.0, 0.1, 0)
        with pytest.raises(SizeError):
            closed_form_noise(TOY, 0.1, 5)

    @settings(max_examples=50)
    @given(
        n=st.integers(min_value=2, max_value=6),
        dim=st.integers(min_value=1, max_value=3),
        b=st.data(),
    )
    def test_closed_form_below_bound(self, n, dim, b):
        batch = b.draw(st.integers(min_value=1, max_value=n))
        gen = SeededRng(n * 10 + dim).generator()
        gs = GradientSet(gen.normal(size=(n, dim)))
        c = noise_constant(gs)
        bound = sgd_noise_bound(c, 0.5, batch)
        closed = closed_form_noise(gs, 0.5, batch)
        assert closed <= bound + 1e-15
        assert_allclose(closed, bound * (n - batch) / n, rtol=1e-12)


class TestEmpiricalNoise:
    def test_with_replacement_expectation_is_bound(self):
        # exhaustive enumeration over all 16 ordered pairs
        exact = enumerate_noise(TOY.matrix, 2, replacement=True)
        assert exact == 1.75
        est = empirical_sgd_noise(TOY, 1.0, 2, trials=40000, seed=1)
        assert est.mode == "with_replacement"
        assert abs(est.estimate - exact) < max(5 * est.std_err, 0.05)

    def test_without_replacement_expectation(self):
        # 6 unordered pairs; finite-population correction (N-b)/(N-1)
        exact = enumerate_noise(TOY.matrix, 2, replacement=False)
        assert_allclose(exact, 3.5 * (4 - 2) / (2 * (4 - 1)), rtol=1e-14)
        est = empirical_sgd_noise(
            TOY, 1.0, 2, trials=40000, seed=2, mode="without_replacement"
        )
        assert abs(est.estimate - exact) < max(5 * est.std_err, 0.05)

    def test_enumeration_matches_formula_on_random_set(self):
        gen = SeededRng(8).generator()
        gs = GradientSet(gen.normal(size=(6, 4)))
        c = noise_constant(gs)
        for b in (1, 2, 3):
            wr = enumerate_noise(gs.matrix, b, replacement=True)
            wo = enumerate_noise(gs.matrix, b, replacement=False)
            assert_allclose(wr, c / b, rtol=1e-12)
            assert_allclose(wo, c * (6 - b) / (b * 5), rtol=1e-12)

    def test_full_batch_without_replacement_is_exactly_zero(self):
        est = empirical_sgd_noise(
            TOY, 1.0, 4, trials=50, seed=3, mode="without_replacement"
        )
        assert est.estimate == 0.0

    def test_lr_enters_only_as_a_final_factor(self):
        # same seed -> identical minibatch draws, so the lr^2 scaling is a
        # single float multiply on a shared Monte-Carlo mean
        unit = empirical_sgd_noise(TOY, 1.0, 2, trials=100, seed=5)
        a = empirical_sgd_noise(TOY, 0.3, 2, trials=100, seed=5)
        b = empirical_sgd_noise(TOY, 0.1, 2, trials=100, seed=5)
        assert a.estimate == 0.3 * 0.3 * unit.estimate
        assert b.estimate == 0.1 * 0.1 * unit.estimate
        assert_allclose(a.estimate / b.estimate, 9.0, rtol=1e-14)

    def test_reproducible(self):
        a = empirical_sgd_noise(TOY, 1.0, 2, trials=64, seed=7)
        b = empirical_sgd_noise(TOY, 1.0, 2, trials=64, seed=7)
        assert a == b

    def test_single_trial_has_nan_std_err(self):
        est = empirical_sgd_noise(TOY, 1.0, 2, trials=1, seed=0)
        assert np.isnan(est.std_err)

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_sgd_noise(TOY, 1.0, 2, trials=4, seed=0, mode="bootstrap")
        with pytest.raises(SizeError):
            empirical_sgd_noise(TOY, 1.0, 0, trials=4, seed=0)
        with pytest.raises(SizeError):
            empirical_sgd_noise(TOY, 1.0, 5, trials=4, seed=0, mode="without_replacement")
        with pytest.raises(SizeError):
            empirical_sgd_noise(TOY, 1.0, 2, trials=0, seed=0)
        # oversampling is fine with replacement
        empirical_sgd_noise(TOY, 1.0, 9, trials=4, seed=0)


def loop_summary(matrix, lr, batch_size, trials, seed):
    """noise_summary's fields by the plain per-trial loop, nothing shared."""
    n = matrix.shape[0]
    d = matrix - matrix.mean(axis=0)
    c = float(np.mean(np.einsum("ij,ij->i", d, d)))
    scale = lr * lr
    fields = {
        "noise_constant": c,
        "bound": scale * c / batch_size,
        "closed_form": scale * (n - batch_size) / (batch_size * n * n) * float(np.sum(d * d)),
    }
    for mode in ("with_replacement", "without_replacement"):
        gen = SeededRng(seed).generator()
        per_trial = np.empty(trials)
        for t in range(trials):
            if mode == "with_replacement":
                idx = gen.integers(0, n, size=batch_size)
            else:
                idx = gen.permutation(n)[:batch_size]
            diff = d[idx].mean(axis=0)
            per_trial[t] = float(diff @ diff)
        fields[mode] = (
            scale * float(np.mean(per_trial)),
            scale * float(np.std(per_trial, ddof=1)) / np.sqrt(trials),
        )
    return fields


class TestNoiseSummary:
    @pytest.mark.parametrize("lrs", [(0.1, 1.0, 0.03), (0.03, 1.0, 0.1)])
    def test_cells_equal_the_per_trial_loop(self, lrs):
        # one set serves every cell, as in noise-bound; cached draws and
        # moments must give the loop's values bit for bit in any lr order
        m = SeededRng(21).generator().normal(size=(7, 5))
        gs = GradientSet(m)
        for lr in lrs:
            for b in (1, 7):
                s = noise_summary(gs, lr=lr, batch_size=b, trials=50, seed=4)
                ref = loop_summary(m, lr, b, trials=50, seed=4)
                assert (s.lr, s.batch_size, s.n_examples) == (lr, b, 7)
                assert s.noise_constant == ref["noise_constant"]
                assert s.bound == ref["bound"]
                assert s.closed_form == ref["closed_form"]
                for mode in ("with_replacement", "without_replacement"):
                    est = getattr(s, mode)
                    assert (est.mode, est.trials) == (mode, 50)
                    assert (est.estimate, est.std_err) == ref[mode]

    def test_toy_summary(self):
        s = noise_summary(TOY, lr=1.0, batch_size=2, trials=20000, seed=11)
        assert s.noise_constant == 3.5
        assert s.bound == 1.75
        assert s.closed_form == 0.875
        assert s.n_examples == 4
        assert abs(s.with_replacement.estimate - 1.75) < 0.06
        assert abs(s.without_replacement.estimate - 7.0 / 6.0) < 0.06
        # the closed form sits below the without-replacement truth
        assert s.closed_form < s.without_replacement.estimate


class TestPerExampleGradients:
    def _net(self):
        cfg = NetworkConfig(
            depth=1, kind="dense", width=5, class_count=3,
            input_shape=(1, 2, 2), norm="none",
        )
        return build_network(cfg, SeededRng(31))

    def test_matches_manual_backprop(self):
        net = self._net()
        gen = SeededRng(32).generator()
        x = gen.normal(size=(6, 1, 2, 2))
        labels = gen.integers(0, 3, size=6)
        gs = per_example_gradients(net, x, labels)

        dense0 = net.layers[1]
        head = net.layers[3]
        w0, b0 = dense0.weight.value, dense0.bias.value
        w1, b1 = head.weight.value, head.bias.value
        xf = x.reshape(6, -1)
        h_pre = xf @ w0 + b0
        h = np.maximum(h_pre, 0.0)
        logits = h @ w1 + b1
        z = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        d = p.copy()
        d[np.arange(6), labels] -= 1.0
        for i in range(6):
            dh = (d[i] @ w1.T) * (h_pre[i] > 0)
            row = np.concatenate(
                [
                    np.outer(xf[i], dh).ravel(),
                    dh,
                    np.outer(h[i], d[i]).ravel(),
                    d[i],
                ]
            )
            assert_allclose(gs.matrix[i], row, rtol=1e-10, atol=1e-12)

    def test_mean_equals_full_batch_gradient(self):
        net = self._net()
        gen = SeededRng(33).generator()
        x = gen.normal(size=(5, 1, 2, 2))
        labels = gen.integers(0, 3, size=5)
        gs = per_example_gradients(net, x, labels)
        net.loss_and_grad(x, labels, update_stats=False)
        assert_allclose(gs.mean_gradient(), net.flat_grads(), rtol=1e-12, atol=1e-14)

    def test_empty_batch_rejected(self):
        net = self._net()
        with pytest.raises(SizeError):
            per_example_gradients(net, np.zeros((0, 1, 2, 2)), np.zeros(0, dtype=int))
