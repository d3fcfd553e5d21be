import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from bnlab.errors import (
    CacheMismatchError,
    ConfigError,
    DegenerateBatchError,
    DimensionError,
    GroupingError,
    LabelError,
    UninitializedStatsError,
)
from bnlab.nn import (
    BatchNorm,
    BnComponents,
    Conv3x3,
    Dense,
    Flatten,
    GeneralizedNorm,
    GlobalAvgPool,
    Layer,
    Network,
    NetworkConfig,
    NormCache,
    Param,
    ReLU,
    ResidualBlock,
    SgdState,
    build_network,
    norm_backward,
    norm_forward,
    sgd_step,
    softmax_xent,
)
from bnlab.tensor import InitScheme, SeededRng

from finite_diff import fd_grad
from numpy_memory import numpy_held_and_peak


def make_bn(channels=1, components=BnComponents(), eps=1e-5, period=1):
    return BatchNorm(channels, eps=eps, period=period, components=components)


def _per(v):
    return v.reshape(1, -1, 1, 1)


class TestBnForward:
    def test_hand_example(self):
        # one channel holding {1, 2, 3, 4}, gamma 2, beta 1
        layer = make_bn()
        layer.gamma.value[:] = 2.0
        layer.beta.value[:] = 1.0
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        out = layer.forward(x)
        inv = 1.0 / math.sqrt(1.25 + 1e-5)
        expect = 2.0 * (x - 2.5) * inv + 1.0
        assert_allclose(out, expect, rtol=1e-15)
        assert_allclose(
            out.ravel(), [-1.6832, 0.1056, 1.8944, 3.6832], atol=1e-4
        )

    def test_constant_channel_maps_to_beta(self):
        layer = make_bn()
        layer.beta.value[:] = 0.25
        x = np.full((12, 1), 3.0)
        out = layer.forward(x)
        assert_array_equal(out, np.full((12, 1), 0.25))

    def test_all_components_off_is_identity(self):
        off = BnComponents(False, False, False, False)
        layer = make_bn(2, components=off)
        x = SeededRng(0).generator().normal(size=(3, 2, 4, 4))
        out = layer.forward(x)
        assert_array_equal(out, x)

    def test_normalized_moments(self):
        layer = make_bn(3)
        x = SeededRng(1).generator().normal(2.0, 3.0, size=(8, 3, 5, 5))
        layer.forward(x)
        cache = layer.cache
        means = cache.xhat.mean(axis=(0, 2, 3))
        var = cache.xhat.var(axis=(0, 2, 3))
        sigma2 = x.var(axis=(0, 2, 3))
        assert np.max(np.abs(means)) < 1e-8
        assert_allclose(var, sigma2 / (sigma2 + layer.eps), atol=1e-6)

    def test_degenerate_region(self):
        layer = make_bn(2)
        with pytest.raises(DegenerateBatchError):
            layer.forward(np.zeros((1, 2)))
        with pytest.raises(DegenerateBatchError):
            layer.forward(np.zeros((1, 2, 1, 1)))

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            make_bn(2).forward(np.zeros((4, 3)))

    @given(
        st.integers(2, 6),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40)
    def test_postcondition_property(self, b, c, hw, seed):
        if b * hw * hw < 2:
            return
        layer = make_bn(c)
        gen = SeededRng(seed).generator()
        x = gen.normal(gen.uniform(-5, 5), gen.uniform(0.1, 4), size=(b, c, hw, hw))
        layer.forward(x)
        cache = layer.cache
        assert np.max(np.abs(cache.xhat.mean(axis=(0, 2, 3)))) < 1e-8
        sigma2 = x.var(axis=(0, 2, 3))
        assert_allclose(
            cache.xhat.var(axis=(0, 2, 3)), sigma2 / (sigma2 + layer.eps), atol=1e-6
        )


class TestBnEval:
    def test_frozen_unit_stats(self):
        layer = make_bn(2)
        layer.running_mean[:] = 0.0
        layer.running_var[:] = 1.0
        layer.stats_initialized = True
        x = SeededRng(2).generator().normal(size=(5, 2, 3, 3))
        out = layer.forward(x, train=False)
        assert_allclose(out, x / np.sqrt(1.0 + layer.eps), rtol=1e-15)

    def test_uninitialized_error(self):
        with pytest.raises(UninitializedStatsError):
            make_bn().forward(np.zeros((4, 1)), train=False)

    def test_running_average_update(self):
        layer = make_bn(1, eps=0.0)
        x1 = np.array([[1.0], [3.0]])  # mean 2, var 1
        x2 = np.array([[4.0], [8.0]])  # mean 6, var 4
        layer.forward(x1)
        assert_allclose(layer.running_mean, 0.9 * 0.0 + 0.1 * 2.0)
        assert_allclose(layer.running_var, 0.9 * 1.0 + 0.1 * 1.0)
        layer.forward(x2)
        assert_allclose(layer.running_mean, 0.9 * 0.2 + 0.1 * 6.0)
        assert_allclose(layer.running_var, 0.9 * 1.0 + 0.1 * 4.0)

    @pytest.mark.parametrize("period", [1, 2])
    def test_eval_between_forward_and_backward_changes_nothing(self, period):
        gen = SeededRng(16).generator()
        x0, x, x_eval = (gen.normal(size=(4, 2, 3, 3)) for _ in range(3))
        up = gen.normal(size=x.shape)
        grads = []
        for interleave in (False, True):
            layer = make_bn(2, period=period)
            layer.forward(x0)
            layer.forward(x)
            cache = layer.cache
            if interleave:
                layer.forward(x_eval, train=False)
                assert layer.cache is cache
            dx = layer.backward(up)
            grads.append((dx, layer.gamma.grad.copy(), layer.beta.grad.copy()))
        for ref, got in zip(*grads):
            assert_array_equal(got, ref)

    def test_non_mutating_forward_leaves_state(self):
        layer = make_bn(1)
        x = np.array([[1.0], [5.0]])
        layer.forward(x, update_stats=False)
        assert not layer.stats_initialized
        assert layer.batch_counter == 0

    def test_non_updating_forward_replaces_only_the_cache(self):
        layer = make_bn(2, period=2)
        gen = SeededRng(18).generator()
        layer.forward(gen.normal(size=(4, 2)))
        stats = [a.copy() for a in (layer.running_mean, layer.running_var,
                                    layer.cached_mean, layer.cached_var)]
        cache, counter = layer.cache, layer.batch_counter
        layer.forward(gen.normal(size=(4, 2)), update_stats=False)
        for got, want in zip((layer.running_mean, layer.running_var,
                              layer.cached_mean, layer.cached_var), stats):
            assert_array_equal(got, want)
        assert layer.batch_counter == counter
        assert layer.cache is not cache and layer.cache.token == cache.token + 1


class TestBnBackward:
    def test_grad_beta_is_upstream_sum(self):
        layer = make_bn(2)
        gen = SeededRng(3).generator()
        x = gen.normal(size=(4, 2, 3, 3))
        up = gen.normal(size=(4, 2, 3, 3))
        layer.forward(x)
        layer.backward(up)
        assert_allclose(layer.beta.grad, up.sum(axis=(0, 2, 3)), rtol=1e-12)

    def test_zero_upstream(self):
        layer = make_bn(2)
        x = SeededRng(4).generator().normal(size=(4, 2, 3, 3))
        layer.forward(x)
        dx = layer.backward(np.zeros_like(x))
        assert_array_equal(dx, np.zeros_like(x))
        assert_array_equal(layer.gamma.grad, np.zeros(2))
        assert_array_equal(layer.beta.grad, np.zeros(2))

    @pytest.mark.parametrize("comp,stale,flat", [
        pytest.param(comp, stale, flat,
                     id="-".join([f"comp{k}"] + ["stale"] * stale + ["2d"] * flat))
        for stale in (False, True) for flat in (False, True)
        for k, comp in enumerate(itertools.product([False, True], repeat=4))
    ])
    def test_finite_difference_all_toggles(self, comp, stale, flat):
        # stale: period 2 after one updating forward, so the statistics are frozen
        components = BnComponents(*comp)
        layer = make_bn(2, components=components, period=2 if stale else 1)
        gen = SeededRng(5).generator()
        layer.gamma.value[:] = gen.uniform(0.5, 2.0, size=2)
        layer.beta.value[:] = gen.normal(size=2)
        shape = (3, 2) if flat else (3, 2, 2, 2)
        x = gen.normal(1.0, 2.0, size=shape)
        proj = gen.normal(size=shape)
        if stale:
            layer.forward(gen.normal(size=shape))

        layer.forward(x, update_stats=False)
        assert layer.cache.fresh is not stale
        dx = layer.backward(proj)
        dgamma, dbeta = layer.gamma.grad.copy(), layer.beta.grad.copy()

        def f_x(v):
            o = layer.forward(v, update_stats=False)
            return float(np.sum(o * proj))

        assert_allclose(dx, fd_grad(f_x, x), rtol=1e-6, atol=1e-8)

        def f_gamma(g):
            old = layer.gamma.value.copy()
            layer.gamma.value[...] = g
            o = layer.forward(x, update_stats=False)
            layer.gamma.value[...] = old
            return float(np.sum(o * proj))

        def f_beta(bv):
            old = layer.beta.value.copy()
            layer.beta.value[...] = bv
            o = layer.forward(x, update_stats=False)
            layer.beta.value[...] = old
            return float(np.sum(o * proj))

        assert_allclose(dgamma, fd_grad(f_gamma, layer.gamma.value), rtol=1e-6, atol=1e-8)
        assert_allclose(dbeta, fd_grad(f_beta, layer.beta.value), rtol=1e-6, atol=1e-8)

    def test_toggled_off_components_get_zero_grads(self):
        layer = make_bn(2, components=BnComponents(use_gamma=False, use_beta=False))
        gen = SeededRng(6).generator()
        x = gen.normal(size=(4, 2, 3, 3))
        layer.gamma.grad[:] = 1.0
        layer.beta.grad[:] = 1.0
        layer.forward(x)
        layer.backward(gen.normal(size=x.shape))
        assert_array_equal(layer.gamma.grad, np.zeros(2))
        assert_array_equal(layer.beta.grad, np.zeros(2))

    def test_stale_cache_rejected(self):
        layer = make_bn(1)
        x = SeededRng(7).generator().normal(size=(4, 1))
        layer.forward(x)
        cache1 = layer.cache
        layer.forward(x + 1.0)
        layer.cache = cache1
        with pytest.raises(CacheMismatchError):
            layer.backward(np.ones_like(x))
        with pytest.raises(CacheMismatchError):
            make_bn(1).backward(np.ones_like(x))

    def test_upstream_shape_mismatch_rejected(self):
        layer = make_bn(2)
        layer.forward(SeededRng(7).generator().normal(size=(4, 2, 3, 3)))
        with pytest.raises(DimensionError, match="upstream shape"):
            layer.backward(np.ones((4, 2, 3, 2)))

    def test_dropped_network_frees_bn_layers_without_collector(self):
        cfg = NetworkConfig(depth=20, kind="conv", width=12, class_count=10,
                            input_shape=(3, 8, 8), norm="batch", residual=True)
        net = build_network(cfg, SeededRng(0).child(100))
        gen = SeededRng(8).generator()
        x, y = gen.normal(size=(64, 3, 8, 8)), gen.integers(0, 10, size=64)
        gc.disable()
        try:
            net.loss_and_grad(x, y)
            bn = weakref.ref(net.layers[-3].norm2)
            assert isinstance(bn(), BatchNorm) and bn().cache is not None
            del net
            assert bn() is None
        finally:
            gc.enable()


class TestBnPeriod:
    def test_stale_batches_reuse_stats_bitwise(self):
        layer = make_bn(2, period=2)
        gen = SeededRng(8).generator()
        x1 = gen.normal(size=(4, 2, 3, 3))
        x2 = gen.normal(3.0, 2.0, size=(4, 2, 3, 3))
        layer.forward(x1)
        c1 = layer.cache
        out2 = layer.forward(x2)
        c2 = layer.cache
        assert c2.fresh is False
        assert_array_equal(c2.mean.ravel(), c1.mean.ravel())
        assert_array_equal(c2.var.ravel(), c1.var.ravel())
        # by hand with the cached statistics
        inv = 1.0 / np.sqrt(c1.var + layer.eps)
        assert_array_equal(out2, (x2 - c1.mean) * inv)
        # third batch refreshes
        x3 = gen.normal(size=(4, 2, 3, 3))
        layer.forward(x3)
        assert layer.cache.fresh is True

    def test_period_below_one_rejected(self):
        with pytest.raises(ConfigError, match="period"):
            make_bn(2, period=0)

    def test_running_stats_update_only_on_refresh(self):
        layer = make_bn(1, period=3)
        gen = SeededRng(9).generator()
        layer.forward(gen.normal(size=(8, 1)))
        after_first = (layer.running_mean.copy(), layer.running_var.copy())
        layer.forward(gen.normal(size=(8, 1)))
        layer.forward(gen.normal(size=(8, 1)))
        assert_array_equal(layer.running_mean, after_first[0])
        assert_array_equal(layer.running_var, after_first[1])
        layer.forward(gen.normal(size=(8, 1)))  # batch 4: refresh
        assert not np.array_equal(layer.running_mean, after_first[0])

    def test_stale_statistics_are_constants_in_backward(self):
        layer = make_bn(2, period=2)
        gen = SeededRng(10).generator()
        layer.forward(gen.normal(size=(3, 2, 2, 2)))
        x = gen.normal(size=(3, 2, 2, 2))
        proj = gen.normal(size=(3, 2, 2, 2))
        layer.forward(x, update_stats=False)
        assert layer.cache.fresh is False
        dx = layer.backward(proj)

        def f(v):
            o = layer.forward(v, update_stats=False)
            return float(np.sum(o * proj))

        assert_allclose(dx, fd_grad(f, x), rtol=1e-6, atol=1e-9)


class TestRecomputedXhat:
    @pytest.mark.parametrize("stats", ["fresh", "stale", "eval"])
    @pytest.mark.parametrize("flat", [False, True], ids=["4d", "2d"])
    @pytest.mark.parametrize("comp", list(itertools.product([False, True], repeat=4)),
                             ids=[f"comp{k}" for k in range(16)])
    def test_property_and_backward_match_the_forwards_xhat_bitwise(self, comp, flat, stats):
        # gamma 1 and beta 0 leave the forward's own x-hat as its output: *1 and +0 are exact
        layer = make_bn(3, components=BnComponents(*comp), period=2)
        gen = SeededRng(61).generator()
        shape = (5, 3) if flat else (5, 3, 2, 2)
        x = gen.normal(1.0, 2.0, size=shape)
        if stats != "fresh":
            layer.forward(gen.normal(size=shape))  # period 2: the next batch is stale
        if stats == "eval":
            out = layer.forward(x, train=False)
            cache = norm_forward(x, layer.gamma.value, layer.beta.value, components=layer.components,
                                 stats=(layer.running_mean, layer.running_var), eps=layer.eps)[1]
        else:
            out = layer.forward(x)
            cache = layer.cache
            assert cache.fresh is (stats == "fresh")
        assert_array_equal(cache.xhat.view(np.int64), out.view(np.int64))
        # norm_backward forms its own x-hat on the fresh path; grad_gamma reads it
        up = gen.normal(size=shape)
        dgamma = norm_backward(up, cache)[1]
        if comp[2]:
            want = (up * cache.xhat).sum(axis=(0,) + tuple(range(2, x.ndim)))
            assert_array_equal(dgamma.view(np.int64), want.view(np.int64))


class TestRecomputedOutput:
    @pytest.mark.parametrize("stats", ["fresh", "stale"])
    @pytest.mark.parametrize("flat", [False, True], ids=["4d", "2d"])
    @pytest.mark.parametrize("comp", list(itertools.product([False, True], repeat=4)),
                             ids=[f"comp{k}" for k in range(16)])
    def test_property_matches_the_forwards_output_bitwise(self, comp, flat, stats):
        layer = make_bn(3, components=BnComponents(*comp), period=2)
        gen = SeededRng(62).generator()
        layer.gamma.value[:] = gen.uniform(0.5, 1.5, size=3)
        layer.beta.value[:] = gen.normal(size=3)
        shape = (5, 3) if flat else (5, 3, 2, 2)
        x = gen.normal(1.0, 2.0, size=shape)
        if stats == "stale":
            layer.forward(gen.normal(size=shape))  # period 2: the next batch is stale
        out = layer.forward(x)
        assert layer.cache.fresh is (stats == "fresh")
        assert_array_equal(layer.cache.out.view(np.int64), out.view(np.int64))


class TestRebuiltReluOutput:
    @pytest.mark.parametrize("stats", ["fresh", "stale"])
    @pytest.mark.parametrize("comp", list(itertools.product([False, True], repeat=4)) + [None],
                             ids=[f"comp{k}" for k in range(16)] + ["no-norm"])
    def test_block_rebuilds_its_relu_output_bitwise(self, comp, stats):
        def norm_factory(channels, name):
            if comp is None:
                return None
            bn = BatchNorm(channels, period=2 if stats == "stale" else 1,
                           components=BnComponents(*comp), name=name)
            bn.gamma.value[:] = gen.uniform(0.5, 1.5, size=channels)
            bn.beta.value[:] = gen.normal(size=channels)
            return bn

        gen = SeededRng(65).generator()
        block = ResidualBlock(3, 3, SeededRng(66), SeededRng(67), InitScheme("he"),
                              norm_factory, "block")
        x, up = gen.normal(size=(4, 3, 4, 4)), gen.normal(size=(4, 3, 4, 4))
        seen, visited = [], []
        relu_forward = block.relu1.forward
        block.relu1.forward = lambda h, *args: seen.append(relu_forward(h, *args)) or seen[-1]

        def at_conv2(layer, upstream):
            # conv2's input is in place, rebuilt, when its upstream is handed over
            if layer is block.conv2:
                assert_array_equal(layer.last_in.view(np.int64), seen[0].view(np.int64))
                assert len(layer.grad_summands(upstream)) == 1
                visited.append(layer)

        for visit in (None, at_conv2):
            if stats == "stale":
                block.forward(gen.normal(size=x.shape))  # period 2: the next batch is stale
            seen.clear()
            block.forward(x)
            if comp is None:
                # unnormalized: the ReLU's output is kept, as conv2's input,
                # through the step, and the backward leaves it as it was
                relu_out, forward_bits = seen[0], seen[0].copy().view(np.int64)
                assert block.relu1.last_out is relu_out and block.conv2.last_in is relu_out
                block.backward(up, visit)
                assert block.relu1.last_out is relu_out and block.conv2.last_in is relu_out
                assert_array_equal(relu_out.view(np.int64), forward_bits)
                continue
            assert block.norm1.cache.fresh is (stats == "fresh")
            # the forward keeps neither the ReLU's output nor conv2's copy of it
            assert block.relu1.last_out is None and block.conv2.last_in is None
            block.backward(up, visit)
            assert block.relu1.last_out is None and block.conv2.last_in is None
        assert visited == [block.conv2]


class TestNormBackwardInvariants:
    """Identities of norm_backward's closed form, per region (per channel for
    BatchNorm), over every component mask, 4-d and 2-d inputs, and fresh and
    frozen statistics. Tolerances are a few rounding errors (eps) per summed
    element (n) of the largest term."""

    @pytest.mark.parametrize("stale", [False, True], ids=["fresh", "stale"])
    @pytest.mark.parametrize("flat", [False, True], ids=["4d", "2d"])
    @pytest.mark.parametrize("comp", list(itertools.product([False, True], repeat=4)),
                             ids=[f"comp{k}" for k in range(16)])
    def test_closed_form_identities(self, comp, flat, stale):
        components = BnComponents(*comp)
        layer = make_bn(3, components=components, period=2)
        gen = SeededRng(64).generator()
        layer.gamma.value[:] = gen.uniform(0.5, 2.0, size=3)
        layer.beta.value[:] = gen.normal(size=3)
        shape = (40, 3) if flat else (10, 3, 2, 2)
        if stale:
            layer.forward(gen.normal(size=shape))  # period 2: the next batch is stale
        x = gen.normal(1.0, 2.0, size=shape)
        up = gen.normal(size=shape)
        layer.forward(x)
        cache = layer.cache
        assert cache.fresh is not stale
        dx = layer.backward(up)

        axes = (0,) if flat else (0, 2, 3)
        n, eps = cache.n, np.finfo(np.float64).eps

        def per(v):  # a per-channel vector, broadcast over x
            return v.reshape(cache.mean.shape)

        inv = cache.inv.reshape(-1) if components.use_var else np.ones(3)
        gain = layer.gamma.value if components.use_gamma else np.ones(3)
        scale = gain * inv
        if stale or not (components.use_mean or components.use_var):
            # frozen statistics are constants; so is everything without them
            assert_allclose(dx, up * per(scale), rtol=2 * eps, atol=0)
            return
        xhat = cache.xhat
        xhat_max = np.abs(xhat).max(axis=axes)
        # every term of dx is at most |scale * up| * (2 + max|(x - mean) inv| * max|xhat|)
        centered_max = (np.abs(x - cache.mean) * per(inv)).max(axis=axes)
        tol = 4 * eps * n * np.abs(scale) * np.abs(up).max(axis=axes) * (
            2 + centered_max * xhat_max)
        if components.use_mean:
            assert np.all(np.abs(dx.sum(axis=axes)) <= tol)
        if components.use_var:
            # 0 for eps = 0; the variance's eps leaves scale * eps/(var + eps) * sum(up * xhat)
            rest = scale * layer.eps * inv**2 * (up * xhat).sum(axis=axes)
            assert np.all(np.abs((dx * xhat).sum(axis=axes) - rest) <= tol * xhat_max)


class TestGeneralizedNorm:
    def shapes(self):
        gen = SeededRng(11).generator()
        x = gen.normal(1.0, 2.0, size=(2, 4, 3, 3))
        gamma = gen.uniform(0.5, 1.5, size=4)
        beta = gen.normal(size=4)
        return x, gamma, beta

    def test_batch_grouping_matches_bn_bitwise(self):
        x, gamma, beta = self.shapes()
        layer = make_bn(4)
        layer.gamma.value[:] = gamma
        layer.beta.value[:] = beta
        bn_out = layer.forward(x)
        gn_out, _ = norm_forward(x, gamma, beta, grouping="batch", eps=layer.eps)
        assert_array_equal(gn_out, bn_out)

    def test_group_degenerations(self):
        x, gamma, beta = self.shapes()
        g1, _ = norm_forward(x, gamma, beta, grouping="group", groups=1)
        ln, _ = norm_forward(x, gamma, beta, grouping="layer")
        assert_allclose(g1, ln, rtol=1e-12)
        g4, _ = norm_forward(x, gamma, beta, grouping="group", groups=4)
        inorm, _ = norm_forward(x, gamma, beta, grouping="instance")
        assert_allclose(g4, inorm, rtol=1e-12)

    def test_region_moments(self):
        x, gamma, beta = self.shapes()
        no_affine = BnComponents(use_gamma=False, use_beta=False)
        out, _ = norm_forward(x, gamma, beta, grouping="layer", components=no_affine, eps=0.0)
        assert np.max(np.abs(out.mean(axis=(1, 2, 3)))) < 1e-10
        assert_allclose(out.var(axis=(1, 2, 3)), np.ones(2), rtol=1e-10)
        out, _ = norm_forward(x, gamma, beta, grouping="instance", components=no_affine,
                              eps=0.0)
        assert np.max(np.abs(out.mean(axis=(2, 3)))) < 1e-10

    @pytest.mark.parametrize("grouping", ["batch", "layer", "instance", "group"])
    def test_finite_difference(self, grouping):
        x, gamma, beta = self.shapes()
        groups = 2 if grouping == "group" else None
        proj = SeededRng(12).generator().normal(size=x.shape)

        out, cache = norm_forward(x, gamma, beta, grouping=grouping, groups=groups)
        dx, dgamma, dbeta = norm_backward(proj, cache)

        def f_x(v):
            o, _ = norm_forward(v, gamma, beta, grouping=grouping, groups=groups)
            return float(np.sum(o * proj))

        def f_g(g):
            o, _ = norm_forward(x, g, beta, grouping=grouping, groups=groups)
            return float(np.sum(o * proj))

        def f_b(bv):
            o, _ = norm_forward(x, gamma, bv, grouping=grouping, groups=groups)
            return float(np.sum(o * proj))

        assert_allclose(dx, fd_grad(f_x, x), rtol=1e-6, atol=1e-8)
        assert_allclose(dgamma, fd_grad(f_g, gamma), rtol=1e-6, atol=1e-8)
        assert_allclose(dbeta, fd_grad(f_b, beta), rtol=1e-6, atol=1e-8)

    def test_grouping_errors(self):
        x = np.zeros((2, 4, 3, 3))
        gamma, beta = np.ones(4), np.zeros(4)
        with pytest.raises(GroupingError):
            norm_forward(x, gamma, beta, grouping="group", groups=3)
        for groups in (None, 0):
            with pytest.raises(GroupingError, match="group count"):
                norm_forward(x, gamma, beta, grouping="group", groups=groups)
        with pytest.raises(GroupingError):
            norm_forward(np.zeros((4, 6)), np.ones(6), np.zeros(6), grouping="instance")
        with pytest.raises(GroupingError):
            norm_forward(x, gamma, beta, grouping="banana")

    def test_input_rank_errors(self):
        x, gamma, beta = self.shapes()
        for shape in ((2, 4, 3), (2, 4, 3, 3, 1)):
            with pytest.raises(DimensionError, match="2-d or 4-d"):
                norm_forward(np.zeros(shape), gamma, beta)

    def test_frozen_stats_allow_single_element_regions(self):
        x, gamma, beta = self.shapes()
        x1 = x[:1, :, :1, :1]
        with pytest.raises(DegenerateBatchError):
            norm_forward(x1, gamma, beta)
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        out, cache = norm_forward(x1, gamma, beta, stats=(mean, var))
        expect = _per(gamma) * (x1 - _per(mean)) / np.sqrt(_per(var) + 1e-5) + _per(beta)
        assert_allclose(out, expect, rtol=1e-14)
        proj = SeededRng(17).generator().normal(size=x1.shape)
        dx, _, _ = norm_backward(proj, cache)
        assert_allclose(dx, proj * _per(gamma) / np.sqrt(_per(var) + 1e-5), rtol=1e-14)

    def test_layer_channel_checks(self):
        with pytest.raises(DimensionError):
            GeneralizedNorm(4, "layer").forward(np.zeros((2, 6, 3, 3)))
        with pytest.raises(DimensionError):
            GeneralizedNorm(0, "layer")

    def test_layer_wrapper_roundtrip(self):
        layer = GeneralizedNorm(4, "group", groups=2)
        x, _, _ = self.shapes()
        out = layer.forward(x)
        dx = layer.backward(np.ones_like(out))
        assert dx.shape == x.shape


class TestReLU:
    def test_backward_masks_on_the_output_as_on_the_input(self):
        # out > 0 exactly where x > 0: NaN, signed zeros and infinities included
        specials = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0]
        x = np.array(specials + list(SeededRng(63).generator().normal(size=6)))
        relu = ReLU()
        out = relu.forward(x)
        up = np.arange(1.0, x.size + 1)
        assert_array_equal(relu.backward(up).view(np.int64), (up * (x > 0)).view(np.int64))
        assert relu.last_out is out


class TestLayerBase:
    def test_forward_and_backward_are_abstract(self):
        layer = Layer()
        with pytest.raises(NotImplementedError):
            layer.forward(np.zeros((2, 3)))
        with pytest.raises(NotImplementedError):
            layer.backward(np.zeros((2, 3)))


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, grad = softmax_xent(np.zeros((7, 10)), np.arange(7) % 10)
        assert_allclose(loss, math.log(10.0), rtol=1e-15)

    def test_hand_example(self):
        loss, grad = softmax_xent(np.array([[2.0, 0.0]]), np.array([0]))
        assert_allclose(loss, math.log(1 + math.exp(-2)), rtol=1e-12)
        assert_allclose(loss, 0.126928, atol=1e-6)
        assert_allclose(grad, [[-0.119203, 0.119203]], atol=1e-6)

    def test_grad_rows_sum_to_zero(self):
        gen = SeededRng(13).generator()
        logits = gen.normal(size=(6, 5))
        _, grad = softmax_xent(logits, gen.integers(0, 5, size=6))
        assert np.max(np.abs(grad.sum(axis=1))) < 1e-15

    def test_grad_matches_finite_difference(self):
        gen = SeededRng(14).generator()
        logits = gen.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 2])
        _, grad = softmax_xent(logits, labels)
        fg = fd_grad(lambda z: softmax_xent(z, labels)[0], logits)
        assert_allclose(grad, fg, rtol=1e-6, atol=1e-10)

    def test_large_logits_stay_finite(self):
        loss, grad = softmax_xent(np.array([[1e4, 0.0], [0.0, -1e4]]), np.array([0, 0]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_shape_errors(self):
        with pytest.raises(DimensionError, match="logits"):
            softmax_xent(np.zeros((2, 3, 1)), np.array([0, 1]))
        with pytest.raises(DimensionError, match="labels"):
            softmax_xent(np.zeros((2, 3)), np.array([0, 1, 2]))

    def test_label_errors(self):
        with pytest.raises(LabelError):
            softmax_xent(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(LabelError):
            softmax_xent(np.zeros((2, 3)), np.array([-1, 0]))
        with pytest.raises(LabelError):
            softmax_xent(np.zeros((2, 3)), np.array([0.0, 1.0]))


class TestSgd:
    def test_hand_example(self):
        p = Param("w", np.array([1.0]))
        p.grad[:] = 0.5
        state = SgdState(base_lr=0.1, momentum=0.9, weight_decay=5e-4)
        finite = sgd_step([p], state)
        assert finite
        assert_allclose(state.velocities[0], [0.5005], rtol=1e-15)
        assert_allclose(p.value, [0.94995], rtol=1e-12)

    def test_plain_gradient_descent_exact(self):
        gen = SeededRng(15).generator()
        v0 = gen.normal(size=7)
        g = gen.normal(size=7)
        p = Param("w", v0.copy())
        p.grad[:] = g
        state = SgdState(base_lr=0.037, momentum=0.0, weight_decay=0.0)
        sgd_step([p], state)
        assert_array_equal(p.value, v0 - 0.037 * g)

    def test_momentum_accumulates(self):
        p = Param("w", np.array([0.0]))
        state = SgdState(base_lr=1.0, momentum=0.5, weight_decay=0.0)
        p.grad[:] = 1.0
        sgd_step([p], state)  # v=1, p=-1
        sgd_step([p], state)  # v=1.5, p=-2.5
        assert_allclose(p.value, [-2.5], rtol=1e-15)

    @pytest.mark.parametrize("kind", ["conv", "dense"])
    def test_weight_decay_reaches_every_parameter(self, kind):
        # gains, shifts and biases decay like kernels and weights
        cfg = NetworkConfig(depth=2, kind=kind, width=4, class_count=3,
                            input_shape=(2, 3, 3), norm="batch")
        net = build_network(cfg, SeededRng(16))
        gen = SeededRng(17).generator()
        for p in net.params():
            p.value[...] = gen.normal(size=p.value.shape)
            p.grad[...] = 0.0
        before = [p.value.copy() for p in net.params()]
        lr, wd = 0.1, 5e-4
        assert sgd_step(net.params(), SgdState(base_lr=lr, momentum=0.0, weight_decay=wd))
        kinds = {p.name.rsplit(".", 1)[1] for p in net.params()}
        assert {"gamma", "beta", "bias"} <= kinds
        for p, value in zip(net.params(), before):
            assert_array_equal(p.value, value - lr * (wd * value), err_msg=p.name)

    def test_schedule(self):
        state = SgdState(base_lr=0.1, schedule=((0.5, 10.0), (0.75, 10.0)))
        assert_allclose(state.lr_at(0.0), 0.1)
        assert_allclose(state.lr_at(0.49), 0.1)
        assert_allclose(state.lr_at(0.5), 0.01)
        assert_allclose(state.lr_at(0.9), 0.001)

    def test_nonfinite_gradient_flagged(self):
        p = Param("w", np.array([1.0]))
        p.grad[:] = np.nan
        assert sgd_step([p], SgdState(weight_decay=0.0)) is False
        assert np.isnan(p.value[0])

    def test_state_mismatch(self):
        p = Param("w", np.zeros(2))
        state = SgdState()
        state.velocities = [np.zeros(2), np.zeros(2)]
        with pytest.raises(DimensionError):
            sgd_step([p], state)


def tiny_conv_config(**kw):
    base = dict(
        depth=2, kind="conv", width=3, class_count=2, input_shape=(2, 4, 4),
    )
    base.update(kw)
    return NetworkConfig(**base)


class TestBuildNetwork:
    def test_conv_count_matches_depth(self):
        for depth in (1, 2, 5):
            net = build_network(tiny_conv_config(depth=depth), SeededRng(0))
            assert sum(isinstance(l, Conv3x3) for l in _weighted_layers(net)) == depth
        net = build_network(
            tiny_conv_config(depth=5, residual=True, width=4), SeededRng(0)
        )
        assert sum(isinstance(l, Conv3x3) for l in _weighted_layers(net)) == 5

    def test_norm_variants_share_initial_weights(self):
        cfg_bn = tiny_conv_config(norm="batch")
        cfg_none = tiny_conv_config(norm="none")
        net_a = build_network(cfg_bn, SeededRng(77))
        net_b = build_network(cfg_none, SeededRng(77))
        kernels_a, kernels_b = ([p for p in net.params() if p.value.ndim == 4]
                                for net in (net_a, net_b))
        assert len(kernels_a) == len(kernels_b) == 2
        for a, b in zip(kernels_a, kernels_b):
            assert_array_equal(a.value, b.value)

    def test_per_layer_norm_count(self):
        net = build_network(tiny_conv_config(depth=3), SeededRng(0))
        assert sum(isinstance(l, BatchNorm) for l in net.layers) == 3

    def test_final_only_placement(self):
        net = build_network(
            tiny_conv_config(depth=3, placement="final_only"), SeededRng(0)
        )
        bns = [l for l in net.layers if isinstance(l, BatchNorm)]
        assert len(bns) == 1
        assert isinstance(net.layers[-3], BatchNorm)

    def test_zero_input_gives_chance_loss(self):
        cfg = tiny_conv_config(norm="none", class_count=5)
        net = build_network(cfg, SeededRng(1))
        x = np.zeros((3, 2, 4, 4))
        logits = net.forward(x)
        assert_array_equal(logits, np.zeros((3, 5)))
        loss, _ = softmax_xent(logits, np.zeros(3, dtype=np.int64))
        assert_allclose(loss, math.log(5.0), rtol=1e-15)

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            build_network(tiny_conv_config(depth=0), SeededRng(0))
        with pytest.raises(ConfigError):
            build_network(tiny_conv_config(norm="group", width=3, groups=2), SeededRng(0))
        with pytest.raises(ConfigError):
            build_network(
                NetworkConfig(depth=2, kind="dense", norm="instance"), SeededRng(0)
            )
        with pytest.raises(ConfigError):
            build_network(NetworkConfig(depth=2, kind="dense", residual=True), SeededRng(0))

    @pytest.mark.parametrize("field", ["kind", "norm", "placement"])
    def test_unknown_name_rejected(self, field):
        with pytest.raises(ConfigError, match="'bogus'"):
            tiny_conv_config(**{field: "bogus"}).validate()

    def test_unknown_init_scheme_rejected(self):
        with pytest.raises(ValueError, match="'bogus'"):
            InitScheme("bogus")

    def test_flat_roundtrip(self):
        net = build_network(tiny_conv_config(), SeededRng(3))
        theta = net.flat_params()
        net.set_flat_params(theta * 2.0)
        assert_allclose(net.flat_params(), theta * 2.0, rtol=0, atol=0)
        with pytest.raises(DimensionError):
            net.set_flat_params(theta[:-1])

    def test_build_deterministic(self):
        a = build_network(tiny_conv_config(), SeededRng(9))
        b = build_network(tiny_conv_config(), SeededRng(9))
        assert_array_equal(a.flat_params(), b.flat_params())

    def test_eval_after_training_step(self):
        net = build_network(tiny_conv_config(), SeededRng(4))
        gen = SeededRng(5).generator()
        x = gen.normal(size=(6, 2, 4, 4))
        y = gen.integers(0, 2, size=6)
        net.loss_and_grad(x, y)
        acc = net.accuracy(x, y)
        assert 0.0 <= acc <= 1.0

    def _fd_check_network(self, net, x, y, rtol=2e-4, atol=1e-7):
        theta0 = net.flat_params()
        net.loss_and_grad(x, y, update_stats=False)
        g = net.flat_grads().copy()

        def f(theta):
            net.set_flat_params(theta)
            return net.loss_on((x, y))

        fg = fd_grad(f, theta0)
        net.set_flat_params(theta0)
        assert_allclose(g, fg, rtol=rtol, atol=atol)

    def test_end_to_end_gradients_bn_conv(self):
        net = build_network(tiny_conv_config(), SeededRng(6))
        gen = SeededRng(7).generator()
        x = gen.normal(size=(3, 2, 4, 4))
        y = gen.integers(0, 2, size=3)
        self._fd_check_network(net, x, y)

    def test_end_to_end_gradients_residual(self):
        cfg = tiny_conv_config(depth=2, residual=True, width=4)
        net = build_network(cfg, SeededRng(8))
        gen = SeededRng(9).generator()
        x = gen.normal(size=(3, 2, 4, 4))
        y = gen.integers(0, 2, size=3)
        self._fd_check_network(net, x, y)

    def test_end_to_end_gradients_dense_group_free(self):
        cfg = NetworkConfig(
            depth=2, kind="dense", width=5, class_count=3, input_shape=(2, 3, 3),
            norm="batch",
        )
        net = build_network(cfg, SeededRng(10))
        gen = SeededRng(11).generator()
        x = gen.normal(size=(4, 2, 3, 3))
        y = gen.integers(0, 3, size=4)
        self._fd_check_network(net, x, y)

    def test_residual_block_cannot_narrow(self):
        with pytest.raises(ConfigError, match="cannot narrow"):
            ResidualBlock(4, 3, SeededRng(0), SeededRng(1), InitScheme("xavier"),
                          lambda channels, name: None, "block")

    def test_residual_widening_shortcut(self):
        cfg = tiny_conv_config(depth=2, residual=True, width=5, norm="none")
        net = build_network(cfg, SeededRng(12))
        x = SeededRng(13).generator().normal(size=(2, 2, 4, 4))
        logits = net.forward(x)
        assert logits.shape == (2, 2)

    def test_group_norm_network(self):
        cfg = tiny_conv_config(norm="group", width=4, groups=2)
        net = build_network(cfg, SeededRng(14))
        gen = SeededRng(15).generator()
        x = gen.normal(size=(3, 2, 4, 4))
        y = gen.integers(0, 2, size=3)
        self._fd_check_network(net, x, y)


class TestEvalChangesNothing:
    NETS = [
        dict(width=4),
        dict(depth=3, residual=True, width=4, norm="none"),
        dict(kind="dense", input_shape=(2, 3, 3)),
        dict(norm="group", width=4, groups=2),
    ]
    IDS = ["conv-bn", "residual-none", "dense-bn", "group"]
    CACHES = ("last_in", "last_out", "in_shape", "cache")

    @classmethod
    def _caches(cls, net):
        nested = [[l, l.conv1, l.norm1, l.relu1, l.conv2, l.norm2]
                  if isinstance(l, ResidualBlock) else [l] for l in net.layers]
        layers = [l for ls in nested for l in ls if l]
        return [getattr(l, a) for l in layers for a in cls.CACHES if hasattr(l, a)]

    @staticmethod
    def _assert_same_objects(got, want):
        assert len(got) == len(want)
        assert all(g is w for g, w in zip(got, want))

    @pytest.mark.parametrize("overrides", NETS, ids=IDS)
    def test_accuracy_between_forward_and_backward_changes_nothing(self, overrides):
        cfg = tiny_conv_config(**overrides)
        gen = SeededRng(71).generator()
        x, y = gen.normal(size=(6,) + cfg.input_shape), gen.integers(0, 2, size=6)
        x_eval, y_eval = gen.normal(size=(5,) + cfg.input_shape), gen.integers(0, 2, size=5)
        grads, summands = [], []
        for interleave in (False, True):
            net = build_network(cfg, SeededRng(70))
            logits = net.forward(x)
            forward_caches = self._caches(net)
            if interleave:
                net.accuracy(x_eval, y_eval, batch=2)
                self._assert_same_objects(self._caches(net), forward_caches)
            summands.append([])
            net.backward(softmax_xent(logits, y)[1],
                         visit=lambda layer, up: summands[-1].extend(layer.grad_summands(up)))
            backward_caches = self._caches(net)
            if interleave:
                net.accuracy(x_eval, y_eval, batch=2)
                self._assert_same_objects(self._caches(net), backward_caches)
            grads.append(net.flat_grads())
        assert_array_equal(grads[1].view(np.int64), grads[0].view(np.int64))
        assert len(summands[0]) == len(net.params())
        for a, b in zip(*summands):
            assert_array_equal(b.view(np.int64), a.view(np.int64))


def _output_shape(layer):
    """The shape of a weighted layer's output in the last training pass."""
    if isinstance(layer, GeneralizedNorm):
        return layer.cache.x.shape
    if isinstance(layer, Conv3x3):
        return (len(layer.last_in), len(layer.kernel.value)) + layer.last_in.shape[2:]
    return (len(layer.last_in), layer.weight.value.shape[1])


def _weighted_layers(net):
    nested = [[l.conv1, l.norm1, l.conv2, l.norm2] if isinstance(l, ResidualBlock) else [l]
              for l in net.layers]
    return [l for ls in nested for l in ls if isinstance(l, (Conv3x3, Dense, GeneralizedNorm))]


class TestUpstreamOnRequest:
    NETS = [
        dict(depth=3, residual=True, width=4),
        dict(depth=2, norm="group", width=4, groups=2),
        dict(depth=2, kind="dense", input_shape=(2, 3, 3), norm="layer"),
    ]
    IDS = ["residual-bn", "group", "dense-layer"]

    @staticmethod
    def _setup(overrides):
        net = build_network(tiny_conv_config(**overrides), SeededRng(30))
        gen = SeededRng(31).generator()
        shape = (4,) + net.config.input_shape
        return net, gen.normal(size=shape), gen.integers(0, 2, size=4)

    @pytest.mark.parametrize("overrides", NETS, ids=IDS)
    def test_each_weighted_layer_is_visited_once_and_keeps_no_upstream(self, overrides):
        net, x, y = self._setup(overrides)
        visits = []

        def visit(layer, up):
            assert up.shape == _output_shape(layer)
            visits.append((layer, weakref.ref(up)))

        net.loss_and_grad(x, y, visit=visit)
        layers = _weighted_layers(net)
        assert len(layers) >= 3
        # once each, in backward order, and no upstream outlives the step
        assert [layer for layer, _ in visits] == layers[::-1]
        gc.collect()
        assert all(up() is None for _, up in visits)

    @pytest.mark.parametrize("overrides", NETS, ids=IDS)
    def test_forward_visits_each_layer_once_with_the_arrays_it_received_and_returned(
            self, overrides, monkeypatch):
        net, x, _ = self._setup(overrides)
        nested = [[*l.branch(), l] if isinstance(l, ResidualBlock) else [l] for l in net.layers]
        layers = [l for ls in nested for l in ls]
        ran = []
        for layer in layers:
            def forward(x, *args, layer=layer, run=layer.forward):
                out = run(x, *args)
                ran.append((layer, x, out))
                return out

            monkeypatch.setattr(layer, "forward", forward)
        visits = []
        net.forward(x, visit=lambda layer, x, out: visits.append((layer, x, out)))
        # once each, in post-order: block children, then their block
        assert [v[0] for v in visits] == [r[0] for r in ran] == layers
        assert all(v[1] is r[1] and v[2] is r[2] for v, r in zip(visits, ran))

    def test_unnormalized_residual_block_holds_two_activations(self):
        # the depth-20 unnormalized twin at criterion-07 shapes (b = 64, c = 12, 8x8)
        cfg = NetworkConfig(depth=20, kind="conv", width=12, class_count=10,
                            input_shape=(3, 8, 8), norm="none", residual=True)
        gen = SeededRng(8).generator()
        x, y = gen.normal(size=(64, 3, 8, 8)), gen.integers(0, 10, size=64)
        build_network(cfg, SeededRng(1)).loss_and_grad(x, y)  # sizes the conv scratch
        net = build_network(cfg, SeededRng(0).child(100))
        held, _ = numpy_held_and_peak(lambda: net.loss_and_grad(x, y))
        blocks = [l for l in net.layers if isinstance(l, ResidualBlock)]
        assert len(blocks) == 10
        assert all(b.conv2.last_in is b.relu1.last_out for b in blocks)
        # per block the ReLU's output (conv2's input) and the block sum (the
        # next block's input); the last sum feeds only the pooling, which
        # keeps its shape
        act = 64 * 12 * 8 * 8 * 8
        assert 19 * act <= held < 20 * act

    def test_bn_twin_holds_three_activations_per_block_and_eval_adds_none(self):
        # the depth-20 BN twin at criterion-07 shapes (b = 64, c = 12, 8x8)
        cfg = NetworkConfig(depth=20, kind="conv", width=12, class_count=10,
                            input_shape=(3, 8, 8), norm="batch", residual=True)
        gen = SeededRng(8).generator()
        x, y = gen.normal(size=(64, 3, 8, 8)), gen.integers(0, 10, size=64)
        x_eval, y_eval = gen.normal(size=(320, 3, 8, 8)), gen.integers(0, 10, size=320)
        build_network(cfg, SeededRng(1)).loss_and_grad(x, y)  # sizes the conv scratch
        net = build_network(cfg, SeededRng(0).child(100))
        held, _ = numpy_held_and_peak(lambda: net.loss_and_grad(x, y))
        added, eval_peak = numpy_held_and_peak(lambda: net.accuracy(x_eval, y_eval, 64))
        # per block conv1's output (norm1's input), conv2's output (norm2's
        # input) and the block sum but the last; the norms' outputs and the
        # ReLU's output are rebuilt from these, and the ReLU's input is
        # masked on its output
        act = 64 * 12 * 8 * 8 * 8
        assert 29 * act <= held < 30 * act
        # the accuracy pass leaves no activation behind (numpy's small
        # bookkeeping aside), and at most one chunk's few are live at once
        assert abs(added) < act / 10
        assert held + eval_peak < 34 * act

    @pytest.mark.parametrize("overrides", NETS, ids=IDS)
    def test_summands_at_the_visit_sum_to_the_grads(self, overrides):
        net, x, y = self._setup(overrides)
        summands = {}
        net.loss_and_grad(x, y, update_stats=False,
                          visit=lambda layer, up: summands.update(
                              zip(map(id, layer.params()), layer.grad_summands(up))))
        assert len(summands) == len(net.params())
        for p in net.params():
            assert_allclose(summands[id(p)].sum(axis=0), p.grad, rtol=1e-12, atol=1e-15)


class TestHoldContract:
    """After a training step each layer holds only what its own backward
    reads, of the batch it saw."""

    ALLOWED = {Conv3x3: {"last_in"}, Dense: {"last_in"}, GeneralizedNorm: {"cache"},
               BatchNorm: {"cache"}, ReLU: {"last_out"}, Flatten: {"in_shape"},
               GlobalAvgPool: {"in_shape"}, ResidualBlock: set()}
    NETS = {"plain": dict(depth=3), "residual": dict(depth=5, residual=True),
            "final-only": dict(depth=3, placement="final_only"),
            "dense": dict(depth=3, kind="dense")}
    B = 5  # no width, channel count or class count of these nets

    @classmethod
    def _held(cls, layer):
        """The attributes holding something of one batch: an array over its
        examples, a norm cache or an input shape."""
        def per_batch(v):
            if isinstance(v, NormCache):
                return True
            shape = v.shape if isinstance(v, np.ndarray) else v if isinstance(v, tuple) else ()
            return shape[:1] == (cls.B,)

        return {name for name, v in vars(layer).items() if per_batch(v)}

    @pytest.mark.parametrize("norm", ["batch", "none"])
    @pytest.mark.parametrize("net_kind", list(NETS))
    def test_each_layer_holds_only_what_its_kind_allows(self, net_kind, norm):
        cfg = NetworkConfig(**{"width": 4, "class_count": 2, "input_shape": (2, 3, 3),
                               "norm": norm, **self.NETS[net_kind]})
        net = build_network(cfg, SeededRng(40))
        gen = SeededRng(41).generator()
        net.loss_and_grad(gen.normal(size=(self.B, 2, 3, 3)), gen.integers(0, 2, size=self.B))
        blocks = [l for l in net.layers if isinstance(l, ResidualBlock)]
        assert all(self._held(block) == set() for block in blocks)
        for layers in [net.layers] + [block.branch() for block in blocks]:
            def after_norm(i):  # a ReLU right after a norm
                return (i > 0 and isinstance(layers[i], ReLU)
                        and isinstance(layers[i - 1], GeneralizedNorm))

            for i, l in enumerate(layers):
                allowed = self.ALLOWED[type(l)]
                if after_norm(i) or isinstance(l, (Conv3x3, Dense)) and after_norm(i - 1):
                    allowed = set()  # the backward rebuilt and dropped the ReLU's output
                assert self._held(l) == allowed, getattr(l, "name", type(l).__name__)

    @staticmethod
    def _plain_depth_eight_step(norm, placement):
        """(held, peak) of one step of a plain depth-8 net at b = 64, c = 12,
        8x8, in activations."""
        cfg = NetworkConfig(depth=8, kind="conv", width=12, class_count=10,
                            input_shape=(3, 8, 8), norm=norm, placement=placement)
        gen = SeededRng(8).generator()
        x, y = gen.normal(size=(64, 3, 8, 8)), gen.integers(0, 10, size=64)
        build_network(cfg, SeededRng(1)).loss_and_grad(x, y)  # sizes the conv scratch
        net = build_network(cfg, SeededRng(0).child(100))
        held, peak = numpy_held_and_peak(lambda: net.loss_and_grad(x, y))
        act = 64 * 12 * 8 * 8 * 8
        return held / act, peak / act

    @pytest.mark.parametrize("norm, placement, acts", [
        ("none", "per_layer", 8), ("batch", "final_only", 8), ("batch", "per_layer", 8),
    ])
    def test_plain_depth_eight_holds_one_activation_per_relu(self, norm, placement, acts):
        # without a norm in front, each ReLU's output is the next layer's
        # input; with batch norm each conv's output is its norm's input, and
        # the ReLU's output is rebuilt from that norm's cache
        held, _ = self._plain_depth_eight_step(norm, placement)
        assert acts <= held < acts + 1

    def test_plain_bn_depth_eight_step_peak(self):
        # the eight held, and at most one ReLU output rebuilt at a time
        _, peak = self._plain_depth_eight_step("batch", "per_layer")
        assert peak < 14


class TestTwoBackwardsOffOneForward:
    """A second backward off the same forward rebuilds each dropped ReLU
    output again, and so repeats the first bit for bit."""

    @pytest.mark.parametrize("overrides", [
        dict(depth=3, width=4), dict(depth=3, kind="dense", input_shape=(2, 3, 3)),
        dict(depth=3, norm="layer", width=4), dict(depth=3, residual=True, width=4),
    ], ids=["plain-bn", "dense-bn", "plain-layer", "residual-bn"])
    def test_second_backward_repeats_the_first_bitwise(self, overrides):
        net = build_network(tiny_conv_config(**overrides), SeededRng(90))
        gen = SeededRng(91).generator()
        x, y = gen.normal(size=(5,) + net.config.input_shape), gen.integers(0, 2, size=5)
        dlogits = softmax_xent(net.forward(x, update_stats=False), y)[1]
        grads, summands = [], []
        for _ in range(2):
            summands.append([])
            net.backward(dlogits, visit=lambda layer, up: summands[-1].extend(
                layer.grad_summands(up)))
            grads.append(net.flat_grads())
        assert_array_equal(grads[1].view(np.int64), grads[0].view(np.int64))
        assert len(summands[0]) == len(net.params())
        for a, b in zip(*summands):
            assert_array_equal(b.view(np.int64), a.view(np.int64))
