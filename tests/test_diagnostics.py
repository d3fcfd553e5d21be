import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bnlab.diagnostics import (
    INSTRUMENTS,
    RATIO_SATURATION,
    ChannelGradient,
    CoherenceRow,
    DivergenceMonitor,
    GradientHistogramStats,
    LayerMoments,
    MeanGradPair,
    channel_gradients,
    channel_moments,
    class_grad_heatmap,
    classwise_gradient_split,
    depth_moment_profile,
    gradient_histogram_stats,
    heatmap_from_logits,
    loss_step_probe,
    mean_vs_grad_pairs,
    sign_coherence,
    _saturated_ratio,
)
from bnlab.errors import DimensionError, LabelError, SizeError
from bnlab.nn import (
    BatchNorm,
    Conv3x3,
    Dense,
    GeneralizedNorm,
    NetworkConfig,
    ReLU,
    ResidualBlock,
    SgdState,
    build_network,
    norm_forward,
    sgd_step,
    softmax_xent,
)
from bnlab.tensor import SeededRng, conv2d_forward

from numpy_memory import numpy_held_and_peak


def small_net(norm="batch", depth=3, width=4, seed=0, **kw):
    cfg = NetworkConfig(
        depth=depth, kind="conv", width=width, class_count=3,
        input_shape=(2, 5, 5), norm=norm, **kw,
    )
    return build_network(cfg, SeededRng(seed))


def small_batch(seed=1, b=8, classes=3):
    gen = SeededRng(seed).generator()
    return gen.normal(size=(b, 2, 5, 5)), gen.integers(0, classes, size=b)


class TestChannelMoments:
    def test_hand_values(self):
        x = np.zeros((2, 2, 1, 2))
        x[:, 0] = [[[1.0, 3.0]], [[5.0, 7.0]]]
        x[:, 1] = 2.0
        means, variances = channel_moments(x)
        assert_allclose(means, [4.0, 2.0])
        assert_allclose(variances, [5.0, 0.0])

    def test_dense_activations(self):
        means, variances = channel_moments(np.array([[1.0, 0.0], [3.0, 0.0]]))
        assert_allclose(means, [2.0, 0.0])
        assert_allclose(variances, [1.0, 0.0])

    def test_errors(self):
        with pytest.raises(DimensionError):
            channel_moments(np.zeros((2, 2, 2)))
        with pytest.raises(DimensionError):
            channel_moments(np.zeros((0, 3)))


class TestDepthMomentProfile:
    def test_one_entry_per_feature_layer(self):
        for depth in (1, 4):
            net = small_net(depth=depth)
            x, _ = small_batch()
            profile = depth_moment_profile(net, x)
            assert len(profile.layers) == depth

    def test_reads_raw_conv_outputs(self):
        net = small_net(depth=1, norm="batch")
        x, _ = small_batch()
        profile = depth_moment_profile(net, x)
        conv = net.layers[0]
        raw = conv2d_forward(x, conv.kernel.value)
        assert profile.layers[0] == (
            conv.name,
            float(np.abs(raw.mean(axis=(0, 2, 3))).mean()),
            float(raw.var(axis=(0, 2, 3)).mean()),
        )

    def test_leaves_bn_state_alone(self):
        net = small_net()
        x, _ = small_batch()
        bns = [l for l in net.layers if isinstance(l, BatchNorm)]
        before = [(b.batch_counter, b.running_mean.copy()) for b in bns]
        depth_moment_profile(net, x)
        for bn, (count, rmean) in zip(bns, before):
            assert bn.batch_counter == count
            assert_array_equal(bn.running_mean, rmean)


class QuadraticModel:
    """0.5 * ||theta - target||^2; the probe curve is exactly (1 - alpha)^2."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=np.float64)
        self.theta = np.zeros_like(self.target)

    def flat_params(self):
        return self.theta.copy()

    def set_flat_params(self, v):
        self.theta = np.asarray(v, dtype=np.float64).copy()

    def loss_on(self, batch):
        d = self.theta - self.target
        return 0.5 * float(d @ d)

    def grad_on(self, batch):
        return self.theta - self.target


class TestLossStepProbe:
    def test_quadratic_closed_form(self):
        model = QuadraticModel([3.0, -2.0, 1.0])
        alphas = [0.0, 0.1, 0.5, 0.9, 1.0, 1.5, 2.0]
        curve = loss_step_probe(model, None, alphas)
        assert_allclose(curve.relative, [(1 - a) ** 2 for a in alphas], rtol=1e-12)
        assert curve.relative[0] == 1.0
        assert np.all(curve.finite)

    def test_alpha_zero_is_exactly_one(self):
        net = small_net()
        batch = small_batch()
        curve = loss_step_probe(net, batch, [0.0, 1e-5, 1e-3])
        assert curve.relative[0] == 1.0
        assert curve.relative[1] < 1.0  # descent direction

    def test_parameters_restored_bit_identically(self):
        net = small_net()
        batch = small_batch()
        before = net.flat_params().tobytes()
        loss_step_probe(net, batch, [0.0, 0.01, 10.0, 1e6])
        assert net.flat_params().tobytes() == before

    def test_overflow_flagged_not_raised(self):
        model = QuadraticModel([1.0, 1.0])
        curve = loss_step_probe(model, None, [0.0, 1e200])
        assert curve.finite[0]
        assert not curve.finite[1]

    def test_requires_zero_alpha(self):
        model = QuadraticModel([1.0])
        with pytest.raises(ValueError):
            loss_step_probe(model, None, [0.1, 0.2])
        with pytest.raises(ValueError):
            loss_step_probe(model, None, [])
        with pytest.raises(ValueError):
            loss_step_probe(model, None, [-0.1, 0.0, 0.1])

    def test_zero_baseline_rejected(self):
        model = QuadraticModel([0.0, 0.0])  # loss at origin is 0
        with pytest.raises(ValueError):
            loss_step_probe(model, None, [0.0, 0.1])


class TestDivergenceMonitor:
    def test_quiet_when_loss_is_sane(self):
        net = small_net()
        x, y = small_batch()
        mon = DivergenceMonitor(net)
        pre = net.flat_params()
        assert mon.check(0, (x, y), pre, 1.0, 999.0) is None

    def test_fires_on_threshold_and_nonfinite(self):
        net = small_net(norm="none")
        x, y = small_batch()
        mon = DivergenceMonitor(net)
        pre = net.flat_params()
        net.set_flat_params(pre * 40.0)  # simulated exploded update
        event = mon.check(3, (x, y), pre, 1.2, float("inf"))
        assert event is not None
        assert event.step == 3 and event.post_loss == float("inf")
        assert event.fractions == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert len(event.profiles) == 5
        # parameters are left in the post-update state
        assert_array_equal(net.flat_params(), pre * 40.0)
        # activations blow up along the interpolation path
        v0 = event.profiles[0].layers[-1].mean_variance
        v1 = event.profiles[-1].layers[-1].mean_variance
        assert v1 > 100 * v0

    def test_overflowed_update_leaves_the_first_profile_at_the_pre_update_point(self):
        # sgd_step applies non-finite gradients too; 0 * inf must not reach f = 0
        net = small_net(norm="none")
        x, y = small_batch()
        pre = net.flat_params()
        want = depth_moment_profile(net, x)
        post = pre.copy()
        post[0] = np.inf
        net.set_flat_params(post)
        with np.errstate(invalid="ignore", over="ignore"):  # the later profiles are NaN
            event = DivergenceMonitor(net).check(0, (x, y), pre, 1.0, float("nan"))
        assert event.fractions[0] == 0.0
        assert event.profiles[0].layers == want.layers
        assert_array_equal(net.flat_params(), post)

    def test_fires_on_large_finite_loss(self):
        net = small_net()
        x, y = small_batch()
        mon = DivergenceMonitor(net, threshold=1e3)
        pre = net.flat_params()
        event = mon.check(0, (x, y), pre, 1.0, 1000.5)
        assert event is not None

    def test_validation(self):
        net = small_net()
        with pytest.raises(ValueError):
            DivergenceMonitor(net, threshold=0.0)


class TestGradientHistogramStats:
    def test_constant_sample(self):
        s = gradient_histogram_stats(np.full(100, -2.5))
        assert s.std == 0.0
        assert math.isnan(s.excess_kurtosis)
        assert s.max_abs == 2.5

    def test_normal_sample(self):
        g = SeededRng(100).generator().normal(0.0, 0.3, size=1_000_000)
        s = gradient_histogram_stats(g)
        assert abs(s.excess_kurtosis) < 0.05
        assert abs(s.std - 0.3) < 0.002
        # |N|: p99.9 / median = 3.29053 / 0.67449
        assert abs(s.tail_ratio - 4.8785) < 0.15

    def test_laplace_sample(self):
        g = SeededRng(101).generator().laplace(0.0, 1.0, size=1_000_000)
        s = gradient_histogram_stats(g)
        assert abs(s.excess_kurtosis - 3.0) < 0.3

    def test_too_small(self):
        with pytest.raises(SizeError):
            gradient_histogram_stats(np.zeros(3))


class TestSignCoherence:
    def test_saturated_ratio_rules(self):
        assert _saturated_ratio(0.0, 0.0) == 1.0
        assert _saturated_ratio(1.0, 0.0) == RATIO_SATURATION
        assert _saturated_ratio(1.0, 1e-15) == RATIO_SATURATION
        assert _saturated_ratio(4.0, 2.0) == 2.0

    def test_rows_and_triangle_chain(self):
        net = small_net(depth=3)
        x, y = small_batch()
        rows = sign_coherence(net, x, y)
        assert len(rows) == 3
        for r in rows:
            assert r.abs_sum >= r.batch_partial - 1e-15
            assert r.abs_sum >= r.spatial_partial - 1e-15
            assert r.batch_partial >= r.net_abs - 1e-15
            assert r.spatial_partial >= r.net_abs - 1e-15
            assert r.ratio >= 1.0

    def test_bn_twin_holds_no_upstream(self):
        # the depth-20 BN twin at criterion-07 shapes (b = 64, c = 12, 8x8):
        # each conv's upstream is reduced as the backward hands it over, so
        # the pass holds what a training step does (three activations per
        # block) and peaks about one block's upstreams and scratch above it
        cfg = NetworkConfig(depth=20, kind="conv", width=12, class_count=10,
                            input_shape=(3, 8, 8), norm="batch", residual=True)
        gen = SeededRng(8).generator()
        x, y = gen.normal(size=(64, 3, 8, 8)), gen.integers(0, 10, size=64)
        sign_coherence(build_network(cfg, SeededRng(1)), x, y)  # sizes the conv scratch
        net = build_network(cfg, SeededRng(0).child(100))
        rows = []
        held, peak = numpy_held_and_peak(lambda: rows.extend(sign_coherence(net, x, y)))
        assert [r.layer for r in rows] == [f"block{i}.conv{j}" for i in range(10) for j in (1, 2)]
        act = 64 * 12 * 8 * 8 * 8
        assert held < 31 * act
        assert peak < 42 * act

    def test_ratio_consistency(self):
        net = small_net(depth=2, norm="none")
        x, y = small_batch()
        for r in sign_coherence(net, x, y):
            if r.net_abs > r.abs_sum / RATIO_SATURATION:
                assert_allclose(r.ratio, r.abs_sum / r.net_abs, rtol=1e-12)


class TestClassGradHeatmap:
    def test_hand_example(self):
        h = heatmap_from_logits(np.array([[2.0, 0.0]]), np.array([0]))
        assert_allclose(h.matrix, [[-0.119203, 0.119203]], atol=1e-6)

    def test_row_invariants(self):
        gen = SeededRng(8).generator()
        logits = gen.normal(0.0, 2.0, size=(16, 5))
        labels = gen.integers(0, 5, size=16)
        h = heatmap_from_logits(logits, labels)
        assert np.max(np.abs(h.matrix.sum(axis=1))) < 1e-10
        for b in range(16):
            negative = np.where(h.matrix[b] < 0)[0]
            assert negative.tolist() == [labels[b]]

    def test_dominant_column(self):
        logits = np.zeros((8, 4))
        logits[:, 2] = 5.0
        labels = np.zeros(8, dtype=np.int64)
        h = heatmap_from_logits(logits, labels)
        assert h.modal_column == 2
        assert h.dominant_fraction == 1.0

    def test_net_wrapper_and_errors(self):
        net = small_net()
        x, y = small_batch()
        h = class_grad_heatmap(net, x, y)
        assert h.matrix.shape == (8, 3)
        with pytest.raises(LabelError):
            heatmap_from_logits(np.zeros((2, 3)), np.array([0, 5]))


class TestClasswiseGradients:
    def test_masks_decompose_full_gradient(self):
        net = small_net(depth=2)
        x, y = small_batch()
        parts = classwise_gradient_split(net, x, y)
        total = np.sum([p.flat for p in parts], axis=0)
        net.loss_and_grad(x, y, update_stats=False)
        full = net.flat_grads()
        assert np.max(np.abs(total - full)) < 1e-10

    def test_one_part_per_class(self):
        net = small_net(depth=1)
        x, y = small_batch()
        parts = classwise_gradient_split(net, x, y)
        assert [p.class_index for p in parts] == list(range(net.config.class_count))
        assert all(p.flat.shape == net.flat_params().shape for p in parts)


class TestMeanVsGrad:
    def test_pair_count(self):
        net = small_net(depth=2, width=4)
        x, y = small_batch()
        pairs = mean_vs_grad_pairs(net, x, y)
        # conv0: 2 in x 4 out; conv1: 4 in x 4 out
        assert len(pairs) == 2 * 4 + 4 * 4

    def test_dead_input_channel(self):
        net = small_net(depth=1, norm="none")
        x, y = small_batch()
        x = x.copy()
        x[:, 1] = 0.0
        pairs = mean_vs_grad_pairs(net, x, y)
        dead = [p for p in pairs if p.layer == "conv0" and p.in_channel == 1]
        assert dead and all(p.grad_mag == 0.0 and p.input_mean == 0.0 for p in dead)

    def test_second_layer_reads_pre_relu_feed(self):
        net = small_net(depth=2, norm="none", width=4)
        x, y = small_batch()
        pairs = mean_vs_grad_pairs(net, x, y)
        conv0 = net.layers[0]
        feed = conv2d_forward(x, conv0.kernel.value)  # pre-ReLU input of conv1
        means = feed.mean(axis=(0, 2, 3))
        for p in pairs:
            if p.layer == "conv1":
                assert_allclose(p.input_mean, means[p.in_channel], rtol=1e-12)


class TestChannelGradients:
    def test_matches_manual_backprop(self):
        net = small_net(depth=1, norm="none", width=4)
        x, y = small_batch()
        rows = channel_gradients(net, x, y)
        # by hand: head -> global average pool -> ReLU mask -> conv output
        conv = net.layers[0]
        conv_out = conv2d_forward(x, conv.kernel.value)
        logits = net.forward(x, train=True, update_stats=False)
        _, dlog = softmax_xent(logits, y)
        head = net.layers[-1]
        dpool = dlog @ head.weight.value.T  # [b, c]
        h, w = conv_out.shape[2:]
        dconv = (dpool[:, :, None, None] / (h * w)) * (conv_out > 0)
        manual = np.abs(dconv.sum(axis=(0, 2, 3)))
        assert len(rows) == 4
        for r in rows:
            assert_allclose(r.value, manual[r.channel], rtol=1e-10)

    def test_zero_upstream_gives_zero(self):
        net = small_net(depth=1, norm="none")
        x, y = small_batch()
        logits = net.forward(x, train=True, update_stats=False)
        conv, sums = net.layers[0], []
        net.backward(np.zeros_like(logits),
                     visit=lambda layer, up: layer is conv and sums.append(up.sum(axis=(0, 2, 3))))
        assert len(sums) == 1
        assert_array_equal(sums[0], np.zeros(4))


class TestInstrumentsAreReadOnly:
    def test_trajectory_identical_with_and_without_instruments(self):
        def run(with_instruments):
            cfg = NetworkConfig(
                depth=2, kind="conv", width=4, class_count=3,
                input_shape=(2, 5, 5), norm="batch",
            )
            net = build_network(cfg, SeededRng(50))
            state = SgdState(base_lr=0.05)
            gen = SeededRng(51).generator()
            for step in range(6):
                x = gen.normal(size=(8, 2, 5, 5))
                y = gen.integers(0, 3, size=8)
                loss, _ = net.loss_and_grad(x, y)
                pre = net.flat_params()
                sgd_step(net.params(), state)
                if with_instruments:
                    post_loss = net.loss_only(x, y)
                    # threshold tiny so the monitor fires and restores state
                    DivergenceMonitor(net, threshold=1e-9).check(
                        step, (x, y), pre, loss, post_loss
                    )
                    depth_moment_profile(net, x)
                    sign_coherence(net, x, y)
                    class_grad_heatmap(net, x, y)
                    classwise_gradient_split(net, x, y)
                    mean_vs_grad_pairs(net, x, y)
                    channel_gradients(net, x, y)
                    loss_step_probe(net, (x, y), [0.0, 0.01, 0.1])
            return net

        bare = run(False)
        instrumented = run(True)
        assert bare.flat_params().tobytes() == instrumented.flat_params().tobytes()
        for la, lb in zip(bare.layers, instrumented.layers):
            if isinstance(la, BatchNorm):
                assert la.batch_counter == lb.batch_counter
                assert la.running_mean.tobytes() == lb.running_mean.tobytes()
                assert la.running_var.tobytes() == lb.running_var.tobytes()


def _norm_output(norm):
    """A norm layer's output in the last training pass (None before one),
    worked out anew from its cached input (the statistics are fresh in these
    nets, so norm_forward recomputes them)."""
    if norm.cache is None:
        return None
    return norm_forward(
        norm.cache.x, norm.gamma.value, norm.beta.value, grouping=norm.grouping,
        groups=norm.groups, components=norm.components, eps=norm.eps,
    )[0]


def _layer_output(layer, norm=None):
    """A conv or dense layer's output in the last training pass (None before
    one): the input the norm after it cached, or else recomputed from the
    layer's own input with the forward's operations (bit for bit)."""
    if norm is not None:
        return None if norm.cache is None else norm.cache.x
    if layer.last_in is None:
        return None
    if isinstance(layer, Conv3x3):
        return conv2d_forward(layer.last_in, layer.kernel.value)
    return layer.last_in @ layer.weight.value + layer.bias.value


def _feature_layers(net):
    """Every feature conv / dense layer by name, its output, and the tensor
    feeding each conv, read off the layer stack after a pass: the conv's own
    input (the network input, or a block sum, which the next block's conv1
    keeps as its input), unless a ReLU is in front of it, whose input it is.
    A ReLU keeps only its output, so its input is worked out here: the
    output of the norm or the conv in front of it."""
    layers, outputs, feeds, pre_relu, after_relu = {}, {}, {}, None, False

    def feed(conv):
        return pre_relu if after_relu else conv.last_in

    stack = net.layers + [None]
    for layer, after in zip(stack, stack[1:]):
        if isinstance(layer, ResidualBlock):
            conv1, conv2, norm1 = layer.conv1, layer.conv2, layer.norm1
            layers[conv1.name], layers[conv2.name] = conv1, conv2
            outputs[conv1.name] = _layer_output(conv1, norm1)
            outputs[conv2.name] = _layer_output(conv2, layer.norm2)
            feeds[conv1.name] = feed(conv1)
            feeds[conv2.name] = _norm_output(norm1) if norm1 else outputs[conv1.name]
            after_relu = False
        elif isinstance(layer, (Conv3x3, Dense)) and layer.name != "head":
            layers[layer.name] = layer
            if isinstance(layer, Conv3x3):
                feeds[layer.name], after_relu = feed(layer), False
            norm = after if isinstance(after, GeneralizedNorm) else None
            outputs[layer.name] = pre_relu = _layer_output(layer, norm)
        elif isinstance(layer, GeneralizedNorm):
            pre_relu = _norm_output(layer)
        elif isinstance(layer, ReLU):
            after_relu = True
    return layers, outputs, feeds


class TestTapRules:
    """Which layers and tensors the instruments read, per architecture."""

    CASES = {
        "plain-batch": (dict(depth=3), ["conv0", "conv1", "conv2"]),
        "plain-none": (dict(depth=3, norm="none"), ["conv0", "conv1", "conv2"]),
        "plain-final-only": (
            dict(depth=3, placement="final_only"), ["conv0", "conv1", "conv2"],
        ),
        "residual-even-batch": (
            dict(depth=4, residual=True),
            ["block0.conv1", "block0.conv2", "block1.conv1", "block1.conv2"],
        ),
        "residual-even-none": (
            dict(depth=4, residual=True, norm="none"), ["block0.conv1", "block1.conv1"],
        ),
        "residual-odd-batch": (
            dict(depth=5, residual=True),
            ["conv0", "block0.conv1", "block0.conv2", "block1.conv1", "block1.conv2"],
        ),
        "residual-odd-none": (
            dict(depth=5, residual=True, norm="none"),
            ["conv0", "block0.conv1", "block1.conv1"],
        ),
        "residual-odd-final-only": (
            dict(depth=5, residual=True, placement="final_only"),
            ["conv0", "block0.conv1", "block1.conv1"],
        ),
        "dense-batch": (dict(depth=3, kind="dense"), ["dense0", "dense1", "dense2"]),
        "dense-none": (dict(depth=2, kind="dense", norm="none"), ["dense0", "dense1"]),
        "dense-final-only": (
            dict(depth=2, kind="dense", placement="final_only"), ["dense0", "dense1"],
        ),
    }

    @staticmethod
    def _net(kw):
        cfg = NetworkConfig(
            **{"kind": "conv", "width": 4, "class_count": 3, "input_shape": (2, 5, 5),
               **kw}
        )
        return build_network(cfg, SeededRng(3))

    @pytest.mark.parametrize("case", list(CASES))
    def test_depth_profile_reads_each_profiled_layer_output(self, case):
        kw, expected = self.CASES[case]
        net = self._net(kw)
        x, _ = small_batch()
        profile = depth_moment_profile(net, x)
        assert [lm.layer for lm in profile.layers] == expected
        _, outputs, _ = _feature_layers(net)
        for lm in profile.layers:
            out = outputs[lm.layer]
            axes = (0, 2, 3) if out.ndim == 4 else (0,)
            assert lm.mean_abs_mean == float(np.abs(out.mean(axis=axes)).mean())
            assert lm.mean_variance == float(out.var(axis=axes).mean())

    @pytest.mark.parametrize("case", list(CASES))
    def test_conv_instruments_read_every_conv_and_its_feed(self, case):
        kw, _ = self.CASES[case]
        net = self._net(kw)
        x, y = small_batch()
        layers, _, _ = _feature_layers(net)
        convs = [name for name, layer in layers.items() if isinstance(layer, Conv3x3)]
        if kw.get("kind") == "dense":
            assert convs == []
        assert [r.layer for r in sign_coherence(net, x, y)] == convs
        rows = channel_gradients(net, x, y)
        assert [r.layer for r in rows] == [name for name in convs for _ in range(4)]
        pairs = mean_vs_grad_pairs(net, x, y)
        _, _, feeds = _feature_layers(net)
        assert list(dict.fromkeys(p.layer for p in pairs)) == convs
        for p in pairs:
            feed = feeds[p.layer]
            assert p.input_mean == float(feed.mean(axis=(0, 2, 3))[p.in_channel])


class TestInstrumentRegistry:
    """Every instrument's table on a plain conv, a residual and a dense net."""

    NETS = {"plain": dict(depth=3), "residual": dict(depth=5, residual=True),
            "dense": dict(depth=3, kind="dense")}
    ROW_TYPES = {"moments": LayerMoments, "coherence": CoherenceRow,
                 "mean_grad": MeanGradPair, "channel_grads": ChannelGradient}
    CONV_ONLY = ("histogram", "coherence", "mean_grad", "channel_grads")

    def test_row_fields_are_the_headers(self):
        for name, row_type in self.ROW_TYPES.items():
            assert INSTRUMENTS[name][0] == row_type._fields
        assert INSTRUMENTS["histogram"][0] == ("layer", *GradientHistogramStats._fields)

    @pytest.mark.parametrize("kind", list(NETS))
    @pytest.mark.parametrize("name", list(INSTRUMENTS))
    def test_table(self, name, kind):
        columns, measure, rows = INSTRUMENTS[name]
        table = list(rows(measure(TestTapRules._net(self.NETS[kind]), small_batch())))
        # the conv-only instruments write a header-only table on a dense net
        assert (table == []) == (kind == "dense" and name in self.CONV_ONLY)
        for row in table:
            assert len(row) == len(columns)
            if name in self.ROW_TYPES:
                assert type(row) is self.ROW_TYPES[name]
            cells = dict(zip(columns, row))
            for column, v in cells.items():
                if not isinstance(v, float) or math.isfinite(v):
                    continue
                # the only columns whose docstrings allow a non-finite float
                if column == "excess_kurtosis":
                    assert math.isnan(v)
                elif column == "tail_ratio":
                    assert v == math.inf
                else:
                    assert column == "relative_loss"
            if name == "probe":
                assert math.isfinite(cells["relative_loss"]) == bool(cells["finite"])
