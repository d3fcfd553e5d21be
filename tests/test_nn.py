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
    Dense,
    GeneralizedNorm,
    Network,
    NetworkConfig,
    Param,
    ResidualBlock,
    SgdState,
    bn_backward,
    bn_forward_eval,
    bn_forward_train,
    build_network,
    generalized_norm,
    generalized_norm_backward,
    sgd_step,
    softmax_xent,
)
from bnlab.tensor import SeededRng

from finite_diff import fd_grad


def make_bn(channels=1, components=BnComponents(), eps=1e-5, period=1):
    return BatchNorm(channels, eps=eps, period=period, components=components)


class TestBnForward:
    def test_hand_example(self):
        # one channel holding {1, 2, 3, 4}, gamma 2, beta 1
        layer = make_bn()
        layer.gamma.value[:] = 2.0
        layer.beta.value[:] = 1.0
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        out, _ = bn_forward_train(x, layer)
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
        out, _ = bn_forward_train(x, layer)
        assert_array_equal(out, np.full((12, 1), 0.25))

    def test_all_components_off_is_identity(self):
        off = BnComponents(False, False, False, False)
        layer = make_bn(2, components=off)
        x = SeededRng(0).generator().normal(size=(3, 2, 4, 4))
        out, _ = bn_forward_train(x, layer)
        assert_array_equal(out, x)

    def test_normalized_moments(self):
        layer = make_bn(3)
        x = SeededRng(1).generator().normal(2.0, 3.0, size=(8, 3, 5, 5))
        _, cache = bn_forward_train(x, layer)
        means = cache.xhat.mean(axis=(0, 2, 3))
        var = cache.xhat.var(axis=(0, 2, 3))
        sigma2 = x.var(axis=(0, 2, 3))
        assert np.max(np.abs(means)) < 1e-8
        assert_allclose(var, sigma2 / (sigma2 + layer.eps), atol=1e-6)

    def test_degenerate_region(self):
        layer = make_bn(2)
        with pytest.raises(DegenerateBatchError):
            bn_forward_train(np.zeros((1, 2)), layer)
        with pytest.raises(DegenerateBatchError):
            bn_forward_train(np.zeros((1, 2, 1, 1)), layer)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            bn_forward_train(np.zeros((4, 3)), make_bn(2))

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
        _, cache = bn_forward_train(x, layer)
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
        out = bn_forward_eval(x, layer)
        assert_allclose(out, x / np.sqrt(1.0 + layer.eps), rtol=1e-15)

    def test_uninitialized_error(self):
        with pytest.raises(UninitializedStatsError):
            bn_forward_eval(np.zeros((4, 1)), make_bn())

    def test_running_average_update(self):
        layer = make_bn(1, eps=0.0)
        x1 = np.array([[1.0], [3.0]])  # mean 2, var 1
        x2 = np.array([[4.0], [8.0]])  # mean 6, var 4
        bn_forward_train(x1, layer)
        assert_allclose(layer.running_mean, 0.9 * 0.0 + 0.1 * 2.0)
        assert_allclose(layer.running_var, 0.9 * 1.0 + 0.1 * 1.0)
        bn_forward_train(x2, layer)
        assert_allclose(layer.running_mean, 0.9 * 0.2 + 0.1 * 6.0)
        assert_allclose(layer.running_var, 0.9 * 1.0 + 0.1 * 4.0)

    def test_non_mutating_forward_leaves_state(self):
        layer = make_bn(1)
        x = np.array([[1.0], [5.0]])
        bn_forward_train(x, layer, update_state=False)
        assert not layer.stats_initialized
        assert layer.batch_counter == 0


class TestBnBackward:
    def test_grad_beta_is_upstream_sum(self):
        layer = make_bn(2)
        gen = SeededRng(3).generator()
        x = gen.normal(size=(4, 2, 3, 3))
        up = gen.normal(size=(4, 2, 3, 3))
        _, cache = bn_forward_train(x, layer)
        _, _, dbeta = bn_backward(up, cache)
        assert_allclose(dbeta, up.sum(axis=(0, 2, 3)), rtol=1e-12)

    def test_zero_upstream(self):
        layer = make_bn(2)
        x = SeededRng(4).generator().normal(size=(4, 2, 3, 3))
        _, cache = bn_forward_train(x, layer)
        dx, dgamma, dbeta = bn_backward(np.zeros_like(x), cache)
        assert_array_equal(dx, np.zeros_like(x))
        assert_array_equal(dgamma, np.zeros(2))
        assert_array_equal(dbeta, np.zeros(2))

    @pytest.mark.parametrize(
        "comp", list(itertools.product([False, True], repeat=4))
    )
    def test_finite_difference_all_toggles(self, comp):
        components = BnComponents(*comp)
        layer = make_bn(2, components=components)
        gen = SeededRng(5).generator()
        layer.gamma.value[:] = gen.uniform(0.5, 2.0, size=2)
        layer.beta.value[:] = gen.normal(size=2)
        x = gen.normal(1.0, 2.0, size=(3, 2, 2, 2))
        proj = gen.normal(size=(3, 2, 2, 2))

        out, cache = bn_forward_train(x, layer, update_state=False)
        dx, dgamma, dbeta = bn_backward(proj, cache)

        def f_x(v):
            o, _ = bn_forward_train(v, layer, update_state=False)
            return float(np.sum(o * proj))

        assert_allclose(dx, fd_grad(f_x, x), rtol=1e-6, atol=1e-8)

        def f_gamma(g):
            old = layer.gamma.value.copy()
            layer.gamma.value[...] = g
            o, _ = bn_forward_train(x, layer, update_state=False)
            layer.gamma.value[...] = old
            return float(np.sum(o * proj))

        def f_beta(bv):
            old = layer.beta.value.copy()
            layer.beta.value[...] = bv
            o, _ = bn_forward_train(x, layer, update_state=False)
            layer.beta.value[...] = old
            return float(np.sum(o * proj))

        assert_allclose(dgamma, fd_grad(f_gamma, layer.gamma.value), rtol=1e-6, atol=1e-8)
        assert_allclose(dbeta, fd_grad(f_beta, layer.beta.value), rtol=1e-6, atol=1e-8)

    def test_toggled_off_components_get_zero_grads(self):
        layer = make_bn(2, components=BnComponents(use_gamma=False, use_beta=False))
        gen = SeededRng(6).generator()
        x = gen.normal(size=(4, 2, 3, 3))
        _, cache = bn_forward_train(x, layer)
        _, dgamma, dbeta = bn_backward(gen.normal(size=x.shape), cache)
        assert_array_equal(dgamma, np.zeros(2))
        assert_array_equal(dbeta, np.zeros(2))

    def test_stale_cache_rejected(self):
        layer = make_bn(1)
        x = SeededRng(7).generator().normal(size=(4, 1))
        _, cache1 = bn_forward_train(x, layer)
        bn_forward_train(x + 1.0, layer)
        with pytest.raises(CacheMismatchError):
            bn_backward(np.ones_like(x), cache1)

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
        _, c1 = bn_forward_train(x1, layer)
        out2, c2 = bn_forward_train(x2, layer)
        assert c2.fresh is False
        assert_array_equal(c2.mean.ravel(), c1.mean.ravel())
        assert_array_equal(c2.var.ravel(), c1.var.ravel())
        # by hand with the cached statistics
        inv = 1.0 / np.sqrt(c1.var + layer.eps)
        assert_array_equal(out2, (x2 - c1.mean) * inv)
        # third batch refreshes
        x3 = gen.normal(size=(4, 2, 3, 3))
        _, c3 = bn_forward_train(x3, layer)
        assert c3.fresh is True

    def test_running_stats_update_only_on_refresh(self):
        layer = make_bn(1, period=3)
        gen = SeededRng(9).generator()
        bn_forward_train(gen.normal(size=(8, 1)), layer)
        after_first = (layer.running_mean.copy(), layer.running_var.copy())
        bn_forward_train(gen.normal(size=(8, 1)), layer)
        bn_forward_train(gen.normal(size=(8, 1)), layer)
        assert_array_equal(layer.running_mean, after_first[0])
        assert_array_equal(layer.running_var, after_first[1])
        bn_forward_train(gen.normal(size=(8, 1)), layer)  # batch 4: refresh
        assert not np.array_equal(layer.running_mean, after_first[0])

    def test_stale_statistics_are_constants_in_backward(self):
        layer = make_bn(2, period=2)
        gen = SeededRng(10).generator()
        bn_forward_train(gen.normal(size=(3, 2, 2, 2)), layer)
        x = gen.normal(size=(3, 2, 2, 2))
        proj = gen.normal(size=(3, 2, 2, 2))
        out, cache = bn_forward_train(x, layer, update_state=False)
        assert cache.fresh is False
        dx, _, _ = bn_backward(proj, cache)

        def f(v):
            o, _ = bn_forward_train(v, layer, update_state=False)
            return float(np.sum(o * proj))

        assert_allclose(dx, fd_grad(f, x), rtol=1e-6, atol=1e-9)


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
        bn_out, _ = bn_forward_train(x, layer)
        gn_out, _ = generalized_norm(x, "batch", gamma, beta, eps=layer.eps)
        assert_array_equal(gn_out, bn_out)

    def test_group_degenerations(self):
        x, gamma, beta = self.shapes()
        g1, _ = generalized_norm(x, "group", gamma, beta, groups=1)
        ln, _ = generalized_norm(x, "layer", gamma, beta)
        assert_allclose(g1, ln, rtol=1e-12)
        g4, _ = generalized_norm(x, "group", gamma, beta, groups=4)
        inorm, _ = generalized_norm(x, "instance", gamma, beta)
        assert_allclose(g4, inorm, rtol=1e-12)

    def test_region_moments(self):
        x, _, _ = self.shapes()
        out, _ = generalized_norm(x, "layer", eps=0.0)
        assert np.max(np.abs(out.mean(axis=(1, 2, 3)))) < 1e-10
        assert_allclose(out.var(axis=(1, 2, 3)), np.ones(2), rtol=1e-10)
        out, _ = generalized_norm(x, "instance", eps=0.0)
        assert np.max(np.abs(out.mean(axis=(2, 3)))) < 1e-10

    @pytest.mark.parametrize("grouping", ["batch", "layer", "instance", "group"])
    def test_finite_difference(self, grouping):
        x, gamma, beta = self.shapes()
        groups = 2 if grouping == "group" else None
        proj = SeededRng(12).generator().normal(size=x.shape)

        out, cache = generalized_norm(x, grouping, gamma, beta, groups=groups)
        dx, dgamma, dbeta = generalized_norm_backward(proj, cache)

        def f_x(v):
            o, _ = generalized_norm(v, grouping, gamma, beta, groups=groups)
            return float(np.sum(o * proj))

        def f_g(g):
            o, _ = generalized_norm(x, grouping, g, beta, groups=groups)
            return float(np.sum(o * proj))

        def f_b(bv):
            o, _ = generalized_norm(x, grouping, gamma, bv, groups=groups)
            return float(np.sum(o * proj))

        assert_allclose(dx, fd_grad(f_x, x), rtol=1e-6, atol=1e-8)
        assert_allclose(dgamma, fd_grad(f_g, gamma), rtol=1e-6, atol=1e-8)
        assert_allclose(dbeta, fd_grad(f_b, beta), rtol=1e-6, atol=1e-8)

    def test_grouping_errors(self):
        x = np.zeros((2, 4, 3, 3))
        with pytest.raises(GroupingError):
            generalized_norm(x, "group", groups=3)
        with pytest.raises(GroupingError):
            generalized_norm(np.zeros((4, 6)), "instance")
        with pytest.raises(GroupingError):
            generalized_norm(x, "banana")

    def test_layer_wrapper_roundtrip(self):
        layer = GeneralizedNorm(4, "group", groups=2)
        x, _, _ = self.shapes()
        out = layer.forward(x)
        dx = layer.backward(np.ones_like(out))
        assert dx.shape == x.shape


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
        p = Param("w", np.array([0.0]), decay=False)
        state = SgdState(base_lr=1.0, momentum=0.5, weight_decay=0.0)
        p.grad[:] = 1.0
        sgd_step([p], state)  # v=1, p=-1
        sgd_step([p], state)  # v=1.5, p=-2.5
        assert_allclose(p.value, [-2.5], rtol=1e-15)

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
    def test_tap_count_matches_depth(self):
        for depth in (1, 2, 5):
            net = build_network(tiny_conv_config(depth=depth), SeededRng(0))
            assert len(net.taps) == depth
        net = build_network(
            tiny_conv_config(depth=5, residual=True, width=4), SeededRng(0)
        )
        assert len(net.taps) == 5

    def test_norm_variants_share_initial_weights(self):
        cfg_bn = tiny_conv_config(norm="batch")
        cfg_none = tiny_conv_config(norm="none")
        net_a = build_network(cfg_bn, SeededRng(77))
        net_b = build_network(cfg_none, SeededRng(77))
        for (_, a), (_, b) in zip(net_a.taps, net_b.taps):
            assert_array_equal(a.kernel.value, b.kernel.value)

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
