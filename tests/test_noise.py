"""Tests for the SGD gradient-noise module.

The worked toy example used throughout: four scalar per-example gradients
{1, 2, 3, 6}. Their mean is 3, the deviations are {-2, -1, 0, 3}, so
C = (4 + 1 + 0 + 9) / 4 = 3.5. At lr = 1, b = 2 the with-replacement noise
is C / b = 1.75 and the closed form gives (4 - 2) / (2 * 16) * 14 = 0.875.
"""
import inspect
import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bnlab.errors import SizeError
from bnlab.harness.cli import _init_state
from bnlab.harness.config import ExperimentConfig, parse_config_file
from bnlab.nn import BnComponents, NetworkConfig, build_network
from bnlab import noise
from bnlab.noise import (
    GradientSet,
    closed_form_noise,
    empirical_sgd_noise,
    noise_constant,
    noise_summary,
    noise_table,
    per_example_gradients,
    sgd_noise_bound,
)
from bnlab.tensor import SeededRng

from numpy_memory import numpy_held_and_peak

NOISE_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "noise_bound.cfg")
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
        assert_allclose(TOY.mean, [3.0])
        assert_allclose(TOY.square_norms, [4.0, 1.0, 0.0, 9.0])  # deviations -2, -1, 0, 3

    def test_matrix_mean_and_norms_are_read_only(self):
        m = SeededRng(9).generator().normal(size=(5, 3))
        gs = GradientSet(m)
        for arr in (gs.matrix, gs.mean, gs.square_norms):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
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
        (r,) = noise_table(TOY, [1.0], [2], trials=40000, seed=1)
        assert abs(r.mc_with_estimate - exact) < max(5 * r.mc_with_std_err, 0.05)

    def test_without_replacement_expectation(self):
        # 6 unordered pairs; finite-population correction (N-b)/(N-1)
        exact = enumerate_noise(TOY.matrix, 2, replacement=False)
        assert_allclose(exact, 3.5 * (4 - 2) / (2 * (4 - 1)), rtol=1e-14)
        (r,) = noise_table(TOY, [1.0], [2], trials=40000, seed=2)
        assert abs(r.mc_without_estimate - exact) < max(5 * r.mc_without_std_err, 0.05)

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
        # the float set's deviations have column means off 0 by rounding
        for gradients in (TOY, GradientSet(SeededRng(0).generator().normal(size=(8, 5)))):
            per_trial = empirical_sgd_noise(
                gradients, gradients.n, trials=50, seed=3, mode="without_replacement"
            )
            assert per_trial.tolist() == [0.0] * 50
            (r,) = noise_table(gradients, [1.0], [gradients.n], trials=50, seed=3)
            assert r.mc_without_estimate == 0.0

    def test_lr_enters_only_as_a_final_factor(self):
        # one draw per batch size, so the lr^2 scaling is a single float
        # multiply on a shared Monte-Carlo mean
        unit, a, b = noise_table(TOY, [1.0, 0.3, 0.1], [2], trials=100, seed=5)
        assert a.mc_with_estimate == 0.3 * 0.3 * unit.mc_with_estimate
        assert b.mc_with_estimate == 0.1 * 0.1 * unit.mc_with_estimate
        assert_allclose(a.mc_with_estimate / b.mc_with_estimate, 9.0, rtol=1e-14)

    def test_reproducible_and_read_only(self):
        a = empirical_sgd_noise(TOY, 2, trials=64, seed=7)
        b = empirical_sgd_noise(TOY, 2, trials=64, seed=7)
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable

    def test_single_trial_has_nan_std_err(self):
        (r,) = noise_table(TOY, [1.0], [2], trials=1, seed=0)
        assert np.isnan(r.mc_with_std_err) and np.isnan(r.mc_without_std_err)

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_sgd_noise(TOY, 2, trials=4, seed=0, mode="bootstrap")
        with pytest.raises(SizeError):
            empirical_sgd_noise(TOY, 0, trials=4, seed=0)
        with pytest.raises(SizeError):
            empirical_sgd_noise(TOY, 5, trials=4, seed=0, mode="without_replacement")
        with pytest.raises(SizeError):
            empirical_sgd_noise(TOY, 2, trials=0, seed=0)
        # oversampling is fine with replacement
        empirical_sgd_noise(TOY, 9, trials=4, seed=0)


def loop_summary(matrix, lr, batch_size, trials, seed):
    """A noise_table cell's fields from their definitions by the plain per-trial
    loop, nothing shared: C and sum_i ||Delta_i||^2 from the squared norms of
    the rows Delta_i = g_i - g_bar, and per trial the squared norm of the
    drawn rows' mean minus g_bar."""
    n = matrix.shape[0]
    mean = matrix.mean(axis=0)
    d = matrix - mean
    square_norms = np.einsum("ij,ij->i", d, d)
    c = float(np.mean(square_norms))
    scale = lr * lr
    fields = {
        "noise_constant": c,
        "bound": scale * c / batch_size,
        "closed_form": (
            scale * (n - batch_size) / (batch_size * n * n) * float(np.sum(square_norms))
        ),
    }
    for mode in ("with_replacement", "without_replacement"):
        gen = SeededRng(seed).generator()
        per_trial = np.empty(trials)
        for t in range(trials):
            if mode == "with_replacement":
                idx = gen.integers(0, n, size=batch_size)
            elif batch_size == n:
                per_trial[t] = 0.0  # the whole set, whose mean deviation is 0 exactly
                continue
            else:
                idx = gen.permutation(n)[:batch_size]
            diff = matrix[idx].mean(axis=0) - mean
            per_trial[t] = float(diff @ diff)
        fields[mode] = (
            scale * float(np.mean(per_trial)),
            scale * float(np.std(per_trial, ddof=1)) / np.sqrt(trials),
        )
    return fields


def _rel(got, want):
    return abs(got - want) / abs(want) if want else abs(got)


MC_FIELDS = {"with_replacement": ("mc_with_estimate", "mc_with_std_err"),
             "without_replacement": ("mc_without_estimate", "mc_without_std_err")}


class TestNoiseTable:
    @pytest.mark.parametrize("lrs", [(0.1, 1.0, 0.03), (0.03, 1.0, 0.1)])
    def test_cells_equal_the_per_trial_loop(self, lrs):
        # one set and one draw per (batch size, mode) serve every cell, as in
        # noise-bound; the rows must give the loop's values bit for bit, lr-major
        m = SeededRng(21).generator().normal(size=(7, 5))
        rows = noise_table(GradientSet(m), lrs, (1, 7), trials=50, seed=4)
        assert [(r.lr, r.batch_size) for r in rows] == list(itertools.product(lrs, (1, 7)))
        for r in rows:
            ref = loop_summary(m, r.lr, r.batch_size, trials=50, seed=4)
            assert r.noise_constant == ref["noise_constant"]
            assert r.bound == ref["bound"]
            assert r.closed_form == ref["closed_form"]
            for mode, (estimate, std_err) in MC_FIELDS.items():
                assert (getattr(r, estimate), getattr(r, std_err)) == ref[mode]

    def test_draws_once_per_batch_size_and_mode(self, monkeypatch):
        calls = []
        draw = noise.empirical_sgd_noise

        def counted(gradients, batch_size, trials, seed, mode):
            calls.append((batch_size, mode))
            return draw(gradients, batch_size, trials, seed, mode)

        monkeypatch.setattr(noise, "empirical_sgd_noise", counted)
        gs = GradientSet(SeededRng(24).generator().normal(size=(6, 3)))
        for lrs in ([1.0], [0.1, 0.3, 1.0, 3.0]):
            calls.clear()
            rows = noise_table(gs, lrs, (1, 2, 6), trials=5, seed=0)
            assert len(rows) == 3 * len(lrs)
            assert sorted(calls) == sorted(itertools.product((1, 2, 6), noise.MODES))

    @pytest.mark.parametrize("mode", ["with_replacement", "without_replacement"])
    def test_cells_match_the_explicit_deviations(self, mode):
        # 200 rows cross a 128-row block; the reference holds the full
        # deviation matrix and averages its drawn rows
        n, lr = 200, 0.1
        m = SeededRng(22).generator().normal(0.3, 1.0, size=(n, 30))
        d = m - m.mean(axis=0)
        c = float(np.mean(np.einsum("ij,ij->i", d, d)))
        total = float(np.einsum("ij,ij->", d, d))
        estimate, std_err = MC_FIELDS[mode]
        for s in noise_table(GradientSet(m), [lr], (1, 4, 64, n), trials=40, seed=6):
            b = s.batch_size
            assert _rel(s.noise_constant, c) <= 1e-14
            assert _rel(s.closed_form, lr * lr * (n - b) / (b * n * n) * total) <= 1e-14
            gen = SeededRng(6).generator()
            per_trial = np.zeros(40)
            if mode == "with_replacement" or b < n:
                for t in range(40):
                    if mode == "with_replacement":
                        idx = gen.integers(0, n, size=b)
                    else:
                        idx = gen.permutation(n)[:b]
                    diff = d[idx].mean(axis=0)
                    per_trial[t] = diff @ diff
            assert _rel(getattr(s, estimate), lr * lr * np.mean(per_trial)) <= 1e-14
            assert _rel(getattr(s, std_err),
                        lr * lr * np.std(per_trial, ddof=1) / np.sqrt(40)) <= 1e-14

    def test_a_table_adds_less_than_one_copy_of_the_rows(self):
        # building the set forms vectors beside its rows, over 128-row blocks;
        # a draw of b < N rows gathers b x P
        m = SeededRng(23).generator().normal(size=(300, 400))

        def table():
            noise_table(GradientSet(m), (0.01, 1.0), (1, 4, 64), trials=20, seed=0)

        _, added = numpy_held_and_peak(table)
        assert added < m.nbytes

    def test_toy_table(self):
        (s,) = noise_table(TOY, [1.0], [2], trials=20000, seed=11)
        assert s.noise_constant == 3.5
        assert s.bound == 1.75
        assert s.closed_form == 0.875
        assert abs(s.mc_with_estimate - 1.75) < 0.06
        assert abs(s.mc_without_estimate - 7.0 / 6.0) < 0.06
        # the closed form sits below the without-replacement truth
        assert s.closed_form < s.mc_without_estimate

    def test_noise_summary_nests_the_one_cell_row(self):
        (r,) = noise_table(TOY, [0.5], [3], trials=30, seed=2)
        s = noise_summary(TOY, 0.5, 3, trials=30, seed=2)
        assert (s.noise_constant, s.bound, s.closed_form) == r[2:5]
        assert (s.with_replacement.estimate, s.with_replacement.std_err) == r[5:7]
        assert (s.without_replacement.estimate, s.without_replacement.std_err) == r[7:9]


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
        assert_allclose(gs.mean, net.flat_grads(), rtol=1e-12, atol=1e-14)

    def test_empty_batch_rejected(self):
        net = self._net()
        with pytest.raises(SizeError):
            per_example_gradients(net, np.zeros((0, 1, 2, 2)), np.zeros(0, dtype=int))

    def test_default_chunk_is_the_default_training_batch(self):
        default = inspect.signature(per_example_gradients).parameters["batch_size"].default
        assert default == ExperimentConfig.batch_size


def _rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _single_example_loop(net, x, labels):
    """The reference: one forward and backward per example."""
    rows = []
    for i in range(x.shape[0]):
        net.loss_and_grad(x[i : i + 1], labels[i : i + 1], update_stats=False)
        rows.append(net.flat_grads())
    return np.stack(rows)


def _small_net(**overrides):
    cfg = dict(depth=3, width=4, class_count=4, input_shape=(3, 5, 5))
    return build_network(NetworkConfig(**{**cfg, **overrides}), SeededRng(41))


def _examples(n=9):
    gen = SeededRng(42).generator()
    return gen.normal(size=(n, 3, 5, 5)), gen.integers(0, 4, size=n)


class TestChunkedRows:
    @pytest.mark.parametrize("overrides", [
        dict(norm="none"),
        dict(norm="none", residual=True, depth=5),
        dict(norm="none", kind="dense"),
        dict(norm="layer"),
        dict(norm="layer", kind="dense"),
        dict(norm="group", groups=2),
    ], ids=["conv", "residual-odd", "dense", "layer", "dense-layer", "group"])
    def test_rows_are_each_examples_own_gradient_at_any_chunk(self, overrides):
        net = _small_net(**overrides)
        x, labels = _examples()
        want = _single_example_loop(net, x, labels)
        for batch_size in (1, 2, 4, 9, 128):
            got = per_example_gradients(net, x, labels, batch_size).matrix
            assert _rel_err(got, want) <= 1e-12, batch_size

    @pytest.mark.parametrize("overrides", [
        dict(norm="batch"),
        dict(norm="batch", residual=True, depth=5),
        dict(norm="batch", kind="dense"),
        dict(norm="batch", placement="final_only"),
        dict(norm="batch", bn_components=BnComponents(use_gamma=False)),
    ], ids=["conv", "residual-odd", "dense", "final-only", "no-gamma"])
    def test_bn_chunk_rows_average_to_the_chunk_gradient(self, overrides):
        net = _small_net(**overrides)
        x, labels = _examples()
        bn = next(l for l in net.layers if hasattr(l, "running_mean"))
        for batch_size in (3, 5, 9):
            got = per_example_gradients(net, x, labels, batch_size).matrix
            for start in range(0, 9, batch_size):
                chunk = slice(start, start + batch_size)
                net.loss_and_grad(x[chunk], labels[chunk], update_stats=False)
                assert _rel_err(got[chunk].mean(axis=0), net.flat_grads()) <= 1e-12
        assert bn.batch_counter == 0 and not bn.stats_initialized

    def test_noise_bound_config_rows_average_to_the_minibatch_gradient(self):
        # its 64 examples are one chunk, so the rows' mean is the BN minibatch gradient
        cfg = parse_config_file(NOISE_CFG)
        assert cfg.network.norm == "batch" and cfg.noise.examples < cfg.batch_size
        net, _, train, _ = _init_state(cfg)
        x, labels = train.images[: cfg.noise.examples], train.labels[: cfg.noise.examples]
        gs = per_example_gradients(net, x, labels, cfg.batch_size)
        net.loss_and_grad(x, labels, update_stats=False)
        assert _rel_err(gs.mean, net.flat_grads()) <= 1e-12

    def test_bad_chunk_rejected(self):
        x, labels = _examples()
        with pytest.raises(SizeError):
            per_example_gradients(_small_net(norm="none"), x, labels, 0)
