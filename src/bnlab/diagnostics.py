"""Training-dynamics instruments.

Every instrument here is read-only: it may run extra forward/backward passes
(which overwrite layer activation caches and parameter gradient buffers, both
of which training recomputes from scratch each step), but it never changes
parameter values, normalization statistics, or counters. A training run with
instruments attached therefore follows a bit-identical parameter trajectory
to one without. INSTRUMENTS, at the end, gives each scheduled instrument
its one table. The moments, histogram, coherence, mean_grad and
channel_grads rows are NamedTuples whose fields are the table's columns.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, SizeError
from .nn import (Conv3x3, Dense, GeneralizedNorm, Network, ReLU, _xent_rows,
                 softmax_xent)
from .tensor import Array, as_tensor, conv2d_summand_stats

RATIO_SATURATION = 1e12


# ---------------------------------------------------------------------------
# activation moments


class LayerMoments(NamedTuple):
    """A moments.csv row: the channel moments of one conv or dense output."""
    layer: str
    mean_abs_mean: float  # mean over channels of |channel mean|
    mean_variance: float  # mean over channels of the channel variance


@dataclass(frozen=True)
class MomentProfile:
    layers: tuple[LayerMoments, ...]

    def variance_ratio(self) -> float:
        """Last layer's mean channel variance over the first layer's."""
        first = self.layers[0].mean_variance
        last = self.layers[-1].mean_variance
        return last / first if first > 0 else np.inf


def channel_moments(acts: Array) -> tuple[Array, Array]:
    """Per-channel mean and variance of a [b, c, h, w] or [b, f] activation."""
    acts = np.asarray(acts, dtype=np.float64)
    if acts.ndim == 4:
        axes = (0, 2, 3)
    elif acts.ndim == 2:
        axes = (0,)
    else:
        raise DimensionError(f"expected 2-d or 4-d activations, got {acts.shape}")
    if acts.size == 0:
        raise DimensionError("empty activation tensor")
    return acts.mean(axis=axes), acts.var(axis=axes)


def depth_moment_profile(net: Network, x: Array) -> MomentProfile:
    """Moments of each convolution or dense output on one batch, in depth
    order, read where a norm or a ReLU receives it.

    So growth with depth is visible even when a normalizer would wipe it
    out one line later. An output that reaches neither -- the second
    convolution's of an unnormalized residual block, which feeds only the
    block sum -- is not read, nor is a block sum that a final-only norm
    receives. Runs its own forward pass; no state changes. Each output is
    reduced as the forward hands it over, overflow warnings ignored there too.
    """
    read, previous = [], None

    def visit(layer, received, out):
        # post-order: previous is the layer that ran last, whose output this one received
        nonlocal previous
        if isinstance(layer, (GeneralizedNorm, ReLU)) and isinstance(previous, (Conv3x3, Dense)):
            means, variances = channel_moments(received)
            read.append(LayerMoments(previous.name, float(np.abs(means).mean()),
                                     float(variances.mean())))
        previous = layer

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        net.forward(x, train=True, update_stats=False, visit=visit)
    return MomentProfile(tuple(read))


# ---------------------------------------------------------------------------
# loss probe along the update direction


@dataclass(frozen=True)
class LossProbeCurve:
    """Relative loss along the negative-gradient ray.

    relative[i] is loss(theta - alphas[i] * grad) / loss(theta); the entry
    for alpha = 0 is exactly 1.0 by construction. finite[i] records whether
    the probed loss evaluated to a finite number; where it did not,
    relative[i] is inf or nan.
    """

    alphas: Array
    relative: Array
    finite: Array  # bool


def loss_step_probe(model, batch, alphas) -> LossProbeCurve:
    """Evaluate the loss along theta - alpha * grad for each alpha.

    model implements flat_params / set_flat_params / loss_on / grad_on.
    alphas must be non-negative and include 0. Parameters are restored
    bit-identically afterwards, whatever happens in between.
    """
    alphas = np.sort(np.asarray(alphas, dtype=np.float64))
    if alphas.size == 0 or alphas[0] != 0.0:
        raise ValueError("alphas must be non-negative and include 0")
    theta0 = np.array(model.flat_params(), dtype=np.float64, copy=True)
    base = float(model.loss_on(batch))
    if not np.isfinite(base) or base <= 0.0:
        raise ValueError(f"baseline loss {base} is unusable as a denominator")
    grad = np.array(model.grad_on(batch), dtype=np.float64, copy=True)
    relative = np.empty_like(alphas)
    finite = np.zeros(alphas.shape, dtype=bool)
    try:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for i, a in enumerate(alphas):
                if a == 0.0:
                    relative[i] = 1.0
                    finite[i] = True
                    continue
                model.set_flat_params(theta0 - a * grad)
                val = float(model.loss_on(batch))
                relative[i] = val / base
                finite[i] = bool(np.isfinite(val))
    finally:
        model.set_flat_params(theta0)
    return LossProbeCurve(alphas=alphas, relative=relative, finite=finite)


# ---------------------------------------------------------------------------
# divergence capture

# where along a diverging update the moment profiles are taken
CAPTURE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class DivergenceEvent:
    """A parameter update that blew the minibatch loss past the threshold.

    profiles[i] holds the activation-moment profile at
    theta_pre + fractions[i] * (theta_post - theta_pre) (theta_pre itself at
    fraction 0), measured on the very batch whose update diverged.
    """

    step: int
    pre_loss: float
    post_loss: float
    fractions: tuple[float, ...]
    profiles: tuple[MomentProfile, ...]


class DivergenceMonitor:
    """Watches post-update minibatch losses and captures the blow-up.

    Fires iff the post-update loss on the just-used minibatch exceeds the
    threshold or is non-finite. On firing, re-applies the update scaled by
    each of CAPTURE_FRACTIONS (from the saved pre-update parameters),
    records a moment profile at each, and restores the post-update state.
    """

    def __init__(self, net: Network, threshold: float = 1e3):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.net = net
        self.threshold = float(threshold)

    def check(self, step: int, batch, pre_params: Array, pre_loss: float,
              post_loss: float) -> DivergenceEvent | None:
        if np.isfinite(post_loss) and post_loss <= self.threshold:
            return None
        x, _ = batch
        post_params = self.net.flat_params()
        delta = post_params - pre_params
        profiles = []
        for f in CAPTURE_FRACTIONS:
            # f = 0 is pre_params itself: 0 * delta is NaN where the update overflowed
            self.net.set_flat_params(pre_params + f * delta if f else pre_params)
            profiles.append(depth_moment_profile(self.net, x))
        self.net.set_flat_params(post_params)
        return DivergenceEvent(
            step=step,
            pre_loss=float(pre_loss),
            post_loss=float(post_loss),
            fractions=CAPTURE_FRACTIONS,
            profiles=tuple(profiles),
        )


# ---------------------------------------------------------------------------
# gradient distribution shape


class GradientHistogramStats(NamedTuple):
    """A histogram.csv row after its layer column: one gradient sample's shape."""
    mean: float
    std: float
    excess_kurtosis: float  # nan when the variance underflows
    tail_ratio: float  # p99.9 of |g| over median of |g|; inf when only the median is 0
    max_abs: float


def gradient_histogram_stats(grads: Array) -> GradientHistogramStats:
    """Summary statistics of a gradient sample's distribution shape."""
    g = np.asarray(grads, dtype=np.float64).ravel()
    if g.size < 4:
        raise SizeError(f"need at least 4 gradient entries, got {g.size}")
    mean = float(g.mean())
    centered = g - mean
    m2 = float(np.mean(centered**2))
    if m2 < 1e-30:
        kurt = float("nan")
    else:
        kurt = float(np.mean(centered**4) / m2**2 - 3.0)
    a = np.abs(g)
    med = float(np.median(a))
    p999 = float(np.quantile(a, 0.999))
    tail = p999 / med if med > 0 else (np.inf if p999 > 0 else 1.0)
    return GradientHistogramStats(mean, float(np.sqrt(m2)), kurt, float(tail), float(a.max()))


# ---------------------------------------------------------------------------
# sign coherence of kernel-gradient summands


class CoherenceRow(NamedTuple):
    """A coherence.csv row: the cancellation profile of one convolution's kernel gradient.

    All four sums are averaged over the kernel parameters. abs_sum adds
    |summand| over batch and position; batch_partial first sums within each
    example, spatial_partial first sums across the batch at fixed position;
    net_abs is |sum of summands| (the actual gradient magnitude). ratio is
    abs_sum / net_abs, saturated at 1e12; near 1 means the summands agree in
    sign, large means they cancel.
    """

    layer: str
    abs_sum: float
    batch_partial: float
    spatial_partial: float
    net_abs: float
    ratio: float


def _reduce_conv_upstreams(net: Network, x: Array, labels: Array, reduce) -> list[tuple]:
    """(name, reduce(upstream, input)) per convolution, in depth order, from
    one forward/backward that leaves normalization state untouched; each
    upstream is reduced as the backward hands it over (visit), deepest first."""
    results = []

    def visit(layer, upstream):
        if isinstance(layer, Conv3x3):
            results.append((layer.name, reduce(upstream, layer.last_in)))

    net.loss_and_grad(x, labels, update_stats=False, visit=visit)
    return results[::-1]


def _saturated_ratio(a: float, b: float) -> float:
    if a == 0.0:
        return 1.0
    if b <= a / RATIO_SATURATION:
        return RATIO_SATURATION
    return min(a / b, RATIO_SATURATION)


def sign_coherence(net: Network, x: Array, labels: Array) -> list[CoherenceRow]:
    """Per-convolution summand-cancellation rows on one batch.

    Runs one forward/backward (without touching normalization state) and
    reduces each convolution's kernel-gradient summands as its upstream
    arrives.
    """
    rows = []
    for name, s in _reduce_conv_upstreams(net, x, labels, conv2d_summand_stats):
        a = float(s.abs_sum.mean())
        b = float(np.abs(s.total).mean())
        rows.append(CoherenceRow(name, a, float(s.batch_partial.mean()),
                                 float(s.spatial_partial.mean()), b, _saturated_ratio(a, b)))
    return rows


# ---------------------------------------------------------------------------
# class-resolved gradients at the logits


@dataclass(frozen=True)
class ClassGradHeatmap:
    """Per-example loss gradients at the logits.

    matrix[b, j] = d(loss of example b) / d(logit j) = softmax - onehot.
    Each row sums to zero and has exactly one negative entry, at the true
    label. dominant_fraction is the share of examples whose largest entry
    falls in the modal column: near 1 means one class's logit dominates the
    gradient for almost every example.
    """

    matrix: Array
    labels: Array
    modal_column: int
    dominant_fraction: float


def class_grad_heatmap(net: Network, x: Array, labels: Array) -> ClassGradHeatmap:
    logits = net.forward(x, train=True, update_stats=False)
    return heatmap_from_logits(logits, labels)


def heatmap_from_logits(logits: Array, labels: Array) -> ClassGradHeatmap:
    _, matrix = _xent_rows(logits, labels)
    b, k = matrix.shape
    counts = np.bincount(np.argmax(matrix, axis=1), minlength=k)
    modal = int(np.argmax(counts))
    return ClassGradHeatmap(
        matrix=matrix,
        labels=np.array(labels),
        modal_column=modal,
        dominant_fraction=float(counts[modal] / b),
    )


@dataclass(frozen=True)
class ClasswiseGradient:
    """Parameter gradients with the logit gradient masked to one class."""

    class_index: int
    flat: Array


def classwise_gradient_split(net: Network, x: Array, labels: Array) -> list[ClasswiseGradient]:
    """Backpropagate each class's column of the loss gradient alone, off one
    forward pass.

    The columns over all classes sum to the full gradient (masking is linear),
    so this decomposes every parameter's gradient by which logit sourced it.
    """
    logits = net.forward(x, train=True, update_stats=False)
    _, full = softmax_xent(logits, labels)
    parts = []
    for j in range(logits.shape[1]):
        masked = np.zeros_like(full)
        masked[:, j] = full[:, j]
        net.backward(masked)
        parts.append(ClasswiseGradient(class_index=j, flat=net.flat_grads()))
    return parts


# ---------------------------------------------------------------------------
# activation level vs gradient magnitude, and channel bias gradients


class MeanGradPair(NamedTuple):
    """A mean_grad.csv row: one (in, out) channel pair of a convolution."""
    layer: str
    in_channel: int
    out_channel: int
    input_mean: float  # mean incoming activation of the in-channel
    grad_mag: float  # mean |kernel gradient| over the 3x3 offsets


def mean_vs_grad_pairs(net: Network, x: Array, labels: Array) -> list[MeanGradPair]:
    """(incoming activation level, kernel gradient magnitude) per channel pair.

    The activation is what the ReLU in front of the convolution received,
    or else the convolution's own input (the network input for the first
    layer, the unrectified block sum for a convolution fed by a residual
    trunk), read as the forward hands it over. Gradients come from one
    backward pass over the given sample.
    """
    feed_means, relu_in, relu_out = {}, None, None

    def visit(layer, received, out):
        nonlocal relu_in, relu_out
        if isinstance(layer, ReLU):
            relu_in, relu_out = received, out
        elif isinstance(layer, Conv3x3):
            feed = relu_in if received is relu_out else received
            feed_means[layer] = as_tensor(feed).mean(axis=(0, 2, 3))

    logits = net.forward(x, train=True, update_stats=False, visit=visit)
    net.backward(softmax_xent(logits, labels)[1])
    # the kernel's mean |gradient| is [c_out, c_in]: transposed, row ci holds in-channel ci's
    return [MeanGradPair(conv.name, ci, co, float(means[ci]), float(mag))
            for conv, means in feed_means.items()
            for ci, mags in enumerate(np.abs(conv.kernel.grad).mean(axis=(2, 3)).T)
            for co, mag in enumerate(mags)]


class ChannelGradient(NamedTuple):
    """A channel_grads.csv row: one convolution output channel."""
    layer: str
    channel: int
    value: float  # |sum over batch and positions of the upstream gradient|


def channel_gradients(net: Network, x: Array, labels: Array) -> list[ChannelGradient]:
    """Bias-equivalent gradient magnitude per convolution output channel.

    The gradient of the loss with respect to a per-channel bias added to the
    convolution output is the upstream gradient summed over batch and
    positions; its magnitude is reported per channel.
    """
    sums = _reduce_conv_upstreams(net, x, labels, lambda up, _: up.sum(axis=(0, 2, 3)))
    return [ChannelGradient(name, c, float(abs(v))) for name, s in sums for c, v in enumerate(s)]


# ---------------------------------------------------------------------------
# the instrument registry

# log-spaced step sizes for the loss probe; 0 is prepended (exact baseline)
PROBE_ALPHAS = tuple([0.0] + list(np.geomspace(1e-5, 10.0, 25)))


def _kernel_histograms(net: Network, batch) -> list[tuple]:
    """(name, *GradientHistogramStats) of each convolution kernel's gradient,
    from one backward pass of its own over the batch."""
    net.loss_and_grad(*batch, update_stats=False)
    return [(p.name, *gradient_histogram_stats(p.grad)) for p in net.params() if p.value.ndim == 4]


# name -> (columns, measure(net, batch) -> result, rows(result)): each
# instrument's one table; rows picks it out of a heatmap, probe or classwise
# result, which carries more. Training puts a step column in front of it, the
# analysis subcommands write it for the initial network and batch, and
# divergence capture writes the moments rows with a fraction column in
# front. Config keys diagnostics.<name> fire in this order. The measures
# call the instruments through this module's names, so rebinding a name
# here reaches every caller.
INSTRUMENTS = {
    "moments": (
        LayerMoments._fields,
        lambda net, batch: depth_moment_profile(net, batch[0]),
        lambda prof: prof.layers,
    ),
    "histogram": (("layer", *GradientHistogramStats._fields), _kernel_histograms, list),
    "coherence": (CoherenceRow._fields, lambda net, batch: sign_coherence(net, *batch), list),
    "heatmap": (
        ("modal_column", "dominant_fraction"),
        lambda net, batch: class_grad_heatmap(net, *batch),
        lambda h: [(h.modal_column, h.dominant_fraction)],
    ),
    "probe": (
        ("alpha", "relative_loss", "finite"),
        lambda net, batch: loss_step_probe(net, batch, PROBE_ALPHAS),
        lambda c: [(float(a), float(r), int(f)) for a, r, f in zip(c.alphas, c.relative, c.finite)],
    ),
    "classwise": (
        ("class_index", "grad_norm"),
        lambda net, batch: classwise_gradient_split(net, *batch),
        lambda parts: [(p.class_index, float(np.linalg.norm(p.flat))) for p in parts],
    ),
    "mean_grad": (MeanGradPair._fields, lambda net, batch: mean_vs_grad_pairs(net, *batch), list),
    "channel_grads": (
        ChannelGradient._fields, lambda net, batch: channel_gradients(net, *batch), list,
    ),
}
