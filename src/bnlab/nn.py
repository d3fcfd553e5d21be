"""Network layers and training primitives.

All normalization runs through one core, norm_forward / norm_backward:
subtract a region's mean (batch, layer, instance or group region), divide
by its standard deviation, scale and shift, each step switchable, with
statistics either fresh (gradients flow through them) or frozen
(constants in backward). BatchNorm picks fresh statistics, the cached ones
on stale batches, or the running averages in evaluation.

Layers follow a plain forward/backward discipline: a training forward
caches what backward needs on the layer instance, backward overwrites
parameter gradients (no accumulation across calls). Nothing mutates its
input arrays.

After a training step a layer holds only what its backward reads: a
convolution or dense layer its input (`last_in`), a norm layer its
NormCache (the input and the statistics; x-hat and the output are
recomputed from them on demand), a ReLU its output (out > 0 exactly where
x > 0), Flatten and GlobalAvgPool the input's shape, and a residual block
nothing of its own. A ReLU right after a norm, and a conv or dense layer
after it, let go of the ReLU's output once that layer has run: the one
backward walk, of a network and of a block's branch alike, rebuilds it bit
for bit from the norm's cache where it is read, and drops it again. No
layer keeps the gradient at its output (its upstream): a backward given
`visit` calls visit(layer, upstream) once per weighted layer (convolution,
dense, norm) just before that layer's backward reads it, with its caches,
rebuilt ones too, in place; `grad_summands` and the coherence and
channel-gradient instruments read it there. A forward given `visit` calls
visit(layer, x, out) in post-order, once each layer (a block's children,
then the block) has run, with the very arrays it received and returned;
the depth profile and the mean_grad instrument read activations there. An
evaluation forward (train=False) changes no layer state, so an accuracy
pass between a training forward and its backward changes nothing.

Training is momentum SGD (sgd_step) with one weight decay on every
parameter, norm gains and shifts and dense biases included, as in the
setup of Bjorck et al. (2018).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import (
    CacheMismatchError,
    ConfigError,
    DegenerateBatchError,
    DimensionError,
    GroupingError,
    LabelError,
    UninitializedStatsError,
)
from .tensor import (
    XAVIER,
    Array,
    InitScheme,
    SeededRng,
    as_tensor,
    conv2d_backward,
    conv2d_example_kernel_grads,
    conv2d_forward,
    init_tensor,
)


@dataclass
class Param:
    """A named trainable array with its gradient buffer."""

    name: str
    value: Array
    grad: Array = None

    def __post_init__(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)


class Layer:
    name = "layer"

    def forward(self, x: Array, train: bool = True, update_stats: bool = True,
                visit: Callable | None = None) -> Array:
        """visit: as in Network.forward, for a residual block's children."""
        raise NotImplementedError

    def backward(self, dout: Array, visit: Callable | None = None) -> Array:
        raise NotImplementedError

    def params(self) -> list[Param]:
        return []

    def grad_summands(self, upstream: Array) -> list[Array]:
        """Each batch element's share of each parameter gradient, given the
        gradient at this layer's output (as visit receives it) and the
        caches of the forward it follows: one [b, *shape] array per entry of
        params(), in that order, summing over b to the param's grad."""
        return []


# ---------------------------------------------------------------------------
# normalization


def _per_channel(v: Array, region_shape: tuple[int, ...], ndim: int) -> Array:
    """Reshape a length-c vector so it broadcasts over the channel axes of a
    region view of an ndim-d input (a group view splits c into two axes)."""
    lead = len(region_shape) - ndim + 1
    return v.reshape((1,) + tuple(region_shape[1 : 1 + lead]) + (1,) * (ndim - 2))


def _fold(inv: Array | None, gain: Array | None) -> Array | None:
    """The one factor that scales x - mean: inv * gain, either one, or None."""
    if inv is None or gain is None:
        return gain if inv is None else inv
    return inv * gain


def _region_sum(a: Array, axes: tuple[int, ...], b: Array | None = None) -> Array:
    """The sum of a (or of a * b) over axes, which are kept as length 1: one
    einsum pass, which forms no product array."""
    idx = "abcde"[: a.ndim]
    keep = "".join(idx[i] for i in range(a.ndim) if i not in axes)
    operands = (a,) if b is None else (a, b)
    total = np.einsum(",".join([idx] * len(operands)) + "->" + keep, *operands)
    return total.reshape(tuple(1 if i in axes else s for i, s in enumerate(a.shape)))


@dataclass(frozen=True)
class BnComponents:
    """Which pieces of the normalization are active."""

    use_mean: bool = True
    use_var: bool = True
    use_gamma: bool = True
    use_beta: bool = True


def _region_view(x: Array, grouping: str, groups: int | None):
    """Reshape + axes describing the normalization region for each scheme."""
    if x.ndim == 4:
        b, c, h, w = x.shape
        if grouping == "batch":
            return x, (0, 2, 3), b * h * w
        if grouping == "layer":
            return x, (1, 2, 3), c * h * w
        if grouping == "instance":
            return x, (2, 3), h * w
        if grouping == "group":
            if groups is None or groups < 1:
                raise GroupingError("group normalization needs a group count >= 1")
            if c % groups != 0:
                raise GroupingError(f"channels ({c}) not divisible by groups ({groups})")
            xg = x.reshape(b, groups, c // groups, h, w)
            return xg, (2, 3, 4), (c // groups) * h * w
        raise GroupingError(f"unknown grouping {grouping!r}")
    if x.ndim == 2:
        if grouping == "batch":
            return x, (0,), x.shape[0]
        if grouping == "layer":
            return x, (1,), x.shape[1]
        raise GroupingError(f"grouping {grouping!r} undefined for 2-d inputs")
    raise DimensionError(f"expected 2-d or 4-d input, got shape {x.shape}")


@dataclass
class NormCache:
    """Everything norm_backward needs from one norm_forward."""

    x: Array
    mean: Array  # region shape, reduced axes kept
    var: Array
    inv: Array | None  # None when the variance division is off
    axes: tuple[int, ...]
    n: int
    region_shape: tuple[int, ...]
    fresh: bool  # statistics were computed from x (so gradients flow through them)
    components: BnComponents
    gamma: Array
    beta: Array
    token: int = 0

    def gain(self) -> Array | None:
        """gamma in the region layout, or None when the gain is off."""
        if not self.components.use_gamma:
            return None
        return _per_channel(self.gamma, self.region_shape, self.x.ndim)

    def _normalized(self, scale: Array | None, shift: Array | None,
                    centered: Array | None = None) -> Array:
        """(x - mean) * scale + shift in input shape, each step only where
        its component is on: norm_forward's operations, in its order. A
        given centered (x - mean, region layout) is used up in place."""
        if centered is None:
            xr = self.x.reshape(self.region_shape)
            centered = xr - self.mean if self.components.use_mean else xr.copy()
        if scale is not None:
            centered *= scale
        if shift is not None:
            centered += shift
        return centered.reshape(self.x.shape)

    def _output(self, centered: Array | None = None) -> Array:
        shift = None
        if self.components.use_beta:
            shift = _per_channel(self.beta, self.region_shape, self.x.ndim)
        return self._normalized(_fold(self.inv, self.gain()), shift, centered)

    @property
    def xhat(self) -> Array:
        """The normalized input (x - mean) * inv, in input shape: with gain
        1 and shift 0, norm_forward's output bit for bit."""
        return self._normalized(self.inv, None)

    @property
    def out(self) -> Array:
        """norm_forward's output, recomputed with its own operations and so
        equal to it bit for bit -- until the next parameter update, since
        gamma and beta are the live parameter arrays."""
        return self._output()


def norm_forward(x: Array, gamma: Array, beta: Array, *, grouping: str = "batch",
                 groups: int | None = None, components: BnComponents = BnComponents(),
                 stats: tuple[Array, Array] | None = None,
                 eps: float = 1e-5) -> tuple[Array, NormCache]:
    """Normalize x over the region named by `grouping`; returns (output, cache).

    grouping: "batch" (per channel, over batch and positions), "layer"
    (per example, over channels and positions), "instance" (per example and
    channel, over positions), or "group" (per example and channel-group).
    gamma/beta are per-channel affine parameters; `components` switches off
    any of mean subtraction, variance division, gain and shift. With
    stats=None the region's mean and population variance are computed from
    x and gradients flow through them; given (mean, var), one entry per
    region (per channel for "batch"), they are frozen: constants in
    norm_backward, and a region may then hold a single element.

    The output is (x - mean) * (gamma * inv) + beta, inv = 1/sqrt(var + eps):
    the gain folded into the inverse deviation, so one product scales x.
    """
    x = as_tensor(x)
    xr, axes, n = _region_view(x, grouping, groups)
    centered = None
    if stats is None:
        if n < 2:
            raise DegenerateBatchError(
                f"{grouping} normalization region has {n} element(s); need >= 2"
            )
        mean = _region_sum(xr, axes) / n
        centered = xr - mean
        var = _region_sum(centered, axes, centered) / n
        if not components.use_mean:
            centered = None
    else:
        shape = tuple(1 if a in axes else s for a, s in enumerate(xr.shape))
        mean, var = (np.reshape(s, shape) for s in stats)
    inv = 1.0 / np.sqrt(var + eps) if components.use_var else None
    cache = NormCache(x, mean, var, inv, axes, n, xr.shape, stats is None, components, gamma,
                      beta)
    return cache._output(centered), cache


def norm_backward(dout: Array, cache: NormCache | None) -> tuple[Array, Array, Array]:
    """Gradients through norm_forward: (grad_input, grad_gamma, grad_beta).

    One closed form, each term guarded by its component, with sums and
    means over each region:

        dx = gain * inv * (d - mean(d) - (x - mean) * inv * mean(d * xhat))

    d is dout (times gamma when the gain varies within a region; gain is
    then 1). The mean(d) term needs fresh statistics and mean subtraction,
    the mean(d * xhat) term fresh statistics and the variance division:
    frozen statistics are constants. Toggled-off components contribute no
    gradient: grad_gamma / grad_beta are zero when theirs is off.
    """
    if cache is None:
        raise CacheMismatchError("no forward cache available")
    dout = as_tensor(dout)
    if dout.shape != cache.x.shape:
        raise DimensionError(
            f"upstream shape {dout.shape} does not match input {cache.x.shape}"
        )
    comp = cache.components
    c = cache.x.shape[1]
    affine_axes = (0,) + tuple(range(2, cache.x.ndim))
    axes, n, inv = cache.axes, cache.n, cache.inv
    fresh_var = cache.fresh and comp.use_var
    xhat = cache.xhat if comp.use_gamma or fresh_var else None
    dbeta = _region_sum(dout, affine_axes).reshape(c) if comp.use_beta else None
    dgamma = (dout * xhat).sum(axis=affine_axes) if comp.use_gamma else None

    d = dout.reshape(cache.region_shape)
    gain = cache.gain()
    if gain is not None and any(gain.shape[a] > 1 for a in axes):
        d, gain = d * gain, None
    scale = _fold(inv, gain)
    # batch regions are the affine sums' regions, and d is dout there
    batch = axes == affine_axes

    def times_scale(k):  # k / n, times the scale: one entry per region
        k = k.reshape(cache.mean.shape) / n
        return k if scale is None else k * scale

    dx = d * scale if scale is not None else d.copy()
    if fresh_var:
        xhat_r = xhat.reshape(cache.region_shape)
        proj = dgamma if batch and dgamma is not None else _region_sum(d, axes, xhat_r)
        # the variance is taken about the mean even where the mean is not subtracted
        term = (xhat_r if comp.use_mean
                else (cache.x.reshape(cache.region_shape) - cache.mean) * inv)
        term *= times_scale(proj)
        dx -= term
    if cache.fresh and comp.use_mean:
        dx -= times_scale(dbeta if batch and dbeta is not None else _region_sum(d, axes))
    return (dx.reshape(cache.x.shape), np.zeros(c) if dgamma is None else dgamma,
            np.zeros(c) if dbeta is None else dbeta)


class GeneralizedNorm(Layer):
    """Normalization over the region named by `grouping` (see norm_forward)
    with per-channel gamma and beta, statistics always fresh: layer,
    instance or group norm. BatchNorm adds running and stale statistics and
    the ablations to the "batch" region."""

    components = BnComponents()

    def __init__(self, channels: int, grouping: str, groups: int | None = None,
                 eps: float = 1e-5, name: str = "norm"):
        if channels < 1:
            raise DimensionError("channels must be >= 1")
        self.channels = channels
        self.grouping = grouping
        self.groups = groups
        self.eps = float(eps)
        self.name = name
        self.gamma = Param(name + ".gamma", np.ones(channels))
        self.beta = Param(name + ".beta", np.zeros(channels))
        self.cache: NormCache | None = None

    def params(self) -> list[Param]:
        on = (self.components.use_gamma, self.components.use_beta)
        return [p for p, keep in zip((self.gamma, self.beta), on) if keep]

    def grad_summands(self, upstream):
        positions = tuple(range(2, upstream.ndim))
        terms = []
        if self.components.use_gamma:
            xhat = self.cache.xhat  # a fresh array, so the product can go into it
            terms.append(np.multiply(upstream, xhat, out=xhat).sum(axis=positions))
        if self.components.use_beta:
            terms.append(upstream.sum(axis=positions))
        return terms

    def _normalize(self, x: Array, stats=None) -> tuple[Array, NormCache]:
        x = as_tensor(x)
        if x.ndim < 2 or x.shape[1] != self.channels:
            raise DimensionError(
                f"{self.name}: expected {self.channels} channels, got shape {x.shape}"
            )
        return norm_forward(
            x, self.gamma.value, self.beta.value, grouping=self.grouping,
            groups=self.groups, components=self.components, stats=stats, eps=self.eps,
        )

    def forward(self, x, train=True, update_stats=True, visit=None):
        if not train:
            return self._normalize(x)[0]
        out, self.cache = self._normalize(x)
        return out

    def backward(self, dout, visit=None):
        if visit:
            visit(self, dout)
        dx, dgamma, dbeta = norm_backward(dout, self.cache)
        self.gamma.grad[...] = dgamma
        self.beta.grad[...] = dbeta
        return dx


class BatchNorm(GeneralizedNorm):
    """Per-channel batch normalization with ablatable components.

    Statistics are taken over (batch, height, width) for 4-d inputs and over
    the batch for 2-d inputs. Running averages (momentum rho) are the frozen
    statistics of the evaluation path, which leaves the training cache
    alone. With period = k > 1, fresh batch statistics are computed only on
    every k-th training batch and the cached ones are reused, frozen, in
    between; running averages are updated only on refresh batches. A
    training forward with update_stats=False changes no statistics (no
    running average, cached statistics or batch counter) -- used by
    read-only instruments; like every training forward it does replace the
    layer's cache, which the next backward reads.
    """

    def __init__(self, channels: int, eps: float = 1e-5, rho: float = 0.9,
                 period: int = 1, components: BnComponents = BnComponents(),
                 name: str = "bn"):
        super().__init__(channels, "batch", eps=eps, name=name)
        if period < 1:
            raise ConfigError("stat update period must be >= 1")
        self.rho = float(rho)
        self.period = int(period)
        self.components = components
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.stats_initialized = False
        self.batch_counter = 0
        self.cached_mean: Array | None = None
        self.cached_var: Array | None = None
        self._serial = 0

    def forward(self, x, train=True, update_stats=True, visit=None):
        if not train:
            if not self.stats_initialized:
                raise UninitializedStatsError(
                    f"{self.name}: no running statistics yet; run a training batch first"
                )
            return self._normalize(x, (self.running_mean, self.running_var))[0]
        stale = self.batch_counter % self.period != 0 and self.cached_mean is not None
        stats = (self.cached_mean, self.cached_var) if stale else None
        out, cache = self._normalize(x, stats)
        self._serial += 1
        cache.token = self._serial
        self.cache = cache
        if update_stats:
            if cache.fresh:
                rho = self.rho
                mean, var = cache.mean.reshape(-1).copy(), cache.var.reshape(-1).copy()
                self.cached_mean, self.cached_var = mean, var
                self.running_mean = rho * self.running_mean + (1.0 - rho) * mean
                self.running_var = rho * self.running_var + (1.0 - rho) * var
                self.stats_initialized = True
            self.batch_counter += 1
        return out

    def backward(self, dout: Array, visit=None) -> Array:
        if self.cache is not None and self.cache.token != self._serial:
            raise CacheMismatchError(
                f"{self.name}: cache is from forward #{self.cache.token}, "
                f"layer has since run forward #{self._serial}"
            )
        return super().backward(dout, visit)


# ---------------------------------------------------------------------------
# plain layers


class Conv3x3(Layer):
    def __init__(self, c_in: int, c_out: int, rng: SeededRng,
                 init: InitScheme = XAVIER, name: str = "conv"):
        self.name = name
        self.kernel = Param(name + ".kernel", init_tensor((c_out, c_in, 3, 3), init, rng))
        self.last_in: Array | None = None

    def params(self):
        return [self.kernel]

    def forward(self, x, train=True, update_stats=True, visit=None):
        if not train:
            return conv2d_forward(x, self.kernel.value)
        self.last_in = as_tensor(x)
        return conv2d_forward(self.last_in, self.kernel.value)

    def backward(self, dout, visit=None):
        dout = as_tensor(dout)
        if visit:
            visit(self, dout)
        dx, dk = conv2d_backward(dout, self.last_in, self.kernel.value)
        self.kernel.grad[...] = dk
        return dx

    def grad_summands(self, upstream):
        return [conv2d_example_kernel_grads(upstream, self.last_in)]


class Dense(Layer):
    def __init__(self, d_in: int, d_out: int, rng: SeededRng,
                 init: InitScheme = XAVIER, name: str = "dense"):
        self.name = name
        self.weight = Param(name + ".weight", init_tensor((d_in, d_out), init, rng))
        self.bias = Param(name + ".bias", np.zeros(d_out))
        self.last_in: Array | None = None

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, train=True, update_stats=True, visit=None):
        if not train:
            return as_tensor(x) @ self.weight.value + self.bias.value
        self.last_in = as_tensor(x)
        return self.last_in @ self.weight.value + self.bias.value

    def backward(self, dout, visit=None):
        dout = as_tensor(dout)
        if visit:
            visit(self, dout)
        self.weight.grad[...] = self.last_in.T @ dout
        self.bias.grad[...] = dout.sum(axis=0)
        return dout @ self.weight.value.T

    def grad_summands(self, upstream):
        return [self.last_in[:, :, None] * upstream[:, None, :], upstream]


class ReLU(Layer):
    """max(x, 0). It keeps its output, which the next layer holds as its
    input anyway: out > 0 exactly where x > 0 (for every float64, NaN and
    the signed zeros and infinities included), so that mask is the
    backward's. After a norm the walks drop and rebuild it (_backward_through)."""

    def __init__(self):
        self.last_out: Array | None = None

    def forward(self, x, train=True, update_stats=True, visit=None):
        if not train:
            return np.maximum(x, 0.0)
        self.last_out = np.maximum(x, 0.0)
        return self.last_out

    def backward(self, dout, visit=None):
        return dout * (self.last_out > 0)


class Flatten(Layer):
    def __init__(self):
        self.in_shape = None

    def forward(self, x, train=True, update_stats=True, visit=None):
        if train:
            self.in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout, visit=None):
        return dout.reshape(self.in_shape)


class GlobalAvgPool(Layer):
    def __init__(self):
        self.in_shape = None

    def forward(self, x, train=True, update_stats=True, visit=None):
        if train:
            self.in_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dout, visit=None):
        b, c, h, w = self.in_shape
        return np.broadcast_to(dout[:, :, None, None], self.in_shape) / (h * w)


def _relu_after_norm(layers: list[Layer], i: int) -> bool:
    """Whether layers[i] is a ReLU right after a norm, and not the last layer."""
    return (0 < i < len(layers) - 1 and isinstance(layers[i], ReLU)
            and isinstance(layers[i - 1], GeneralizedNorm))


def _relu_output(layers: list[Layer], i: int, rebuild: bool) -> None:
    """Rebuild the output of the ReLU at i from the norm's cache, or drop it,
    as the ReLU's output and as the input of a conv or dense layer after it."""
    out = layers[i - 1].cache.out if rebuild else None
    layers[i].last_out = out if out is None else np.maximum(out, 0.0, out=out)
    if isinstance(layers[i + 1], (Conv3x3, Dense)):
        layers[i + 1].last_in = out


def _forward_through(layers: list[Layer], x: Array, train: bool, update_stats: bool,
                     visit: Callable | None) -> Array:
    """x through each layer in turn; once a layer has run, visit(layer, x,
    out), if given, with the very arrays it received and returned; a training
    forward then drops a ReLU output as _backward_through says."""
    for i, l in enumerate(layers):
        out = l.forward(x, train, update_stats, visit)
        if visit:
            visit(l, x, out)
        if train and _relu_after_norm(layers, i - 1):
            _relu_output(layers, i - 1, rebuild=False)
        x = out
    return x


def _backward_through(layers: list[Layer], d: Array, visit: Callable | None) -> Array:
    """d back through each layer, last first; visit as in Network.backward.
    The output of a ReLU right after a norm, dropped once the next layer has
    run, is rebuilt from the norm's cache (bit for bit, until the next
    parameter update) just before the conv or dense layer it feeds runs its
    backward, or else just before the ReLU's own, and dropped after that."""
    for i in reversed(range(len(layers))):
        l = layers[i]
        j = i - 1 if isinstance(l, (Conv3x3, Dense)) and _relu_after_norm(layers, i - 1) else i
        if _relu_after_norm(layers, j) and layers[j].last_out is None:
            _relu_output(layers, j, rebuild=True)
        d = l.backward(d, visit)
        if _relu_after_norm(layers, i):
            _relu_output(layers, i, rebuild=False)
    return d


class ResidualBlock(Layer):
    """conv - [norm] - relu - conv - [norm], added onto an identity shortcut.

    The sum itself is the block output: rectification happens only inside
    the branch, so the skip path carries activations through the whole stack
    untouched and every block's branch adds its variance on top of the
    trunk's. When the block widens (c_out > c_in) the shortcut zero-pads the
    extra channels.
    """

    def __init__(self, c_in, c_out, rng_a, rng_b, init, norm_factory, name):
        self.name = name
        self.c_in, self.c_out = c_in, c_out
        if c_out < c_in:
            raise ConfigError(f"{name}: residual blocks cannot narrow ({c_in}->{c_out})")
        self.conv1 = Conv3x3(c_in, c_out, rng_a, init, name + ".conv1")
        self.norm1 = norm_factory(c_out, name + ".norm1")
        self.relu1 = ReLU()
        self.conv2 = Conv3x3(c_out, c_out, rng_b, init, name + ".conv2")
        self.norm2 = norm_factory(c_out, name + ".norm2")

    def branch(self) -> list[Layer]:
        """The branch's layers in forward order, absent norms left out."""
        return [l for l in (self.conv1, self.norm1, self.relu1, self.conv2, self.norm2) if l]

    def params(self):
        return [p for l in self.branch() for p in l.params()]

    def forward(self, x, train=True, update_stats=True, visit=None):
        h = _forward_through(self.branch(), x, train, update_stats, visit)
        if self.c_out > self.c_in:
            x = np.pad(x, ((0, 0), (0, self.c_out - self.c_in), (0, 0), (0, 0)))
        return h + x

    def backward(self, dout, visit=None):
        dx = _backward_through(self.branch(), dout, visit)
        dshort = dout[:, : self.c_in] if self.c_out > self.c_in else dout
        return dx + dshort


# ---------------------------------------------------------------------------
# loss


def _xent_rows(logits: Array, labels: Array) -> tuple[Array, Array]:
    """Per-example cross-entropy and its gradient at the logits,
    softmax(logits) - onehot(labels), for [b, k] logits and b integer labels
    in [0, k). Log-sum-exp is stabilized by max subtraction, so arbitrarily
    large finite logits stay finite."""
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise DimensionError(f"logits must be [b, k], got {logits.shape}")
    b, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise DimensionError(f"labels must have shape ({b},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise LabelError("labels must be integers")
    if labels.min() < 0 or labels.max() >= k:
        raise LabelError(f"labels must lie in [0, {k})")
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    residual = np.exp(logp)
    residual[np.arange(b), labels] -= 1.0
    return -logp[np.arange(b), labels], residual


def softmax_xent(logits: Array, labels: Array) -> tuple[float, Array]:
    """Mean cross-entropy of softmax(logits) against integer labels.

    Returns (loss, grad_logits) where grad_logits = (softmax - onehot) / b,
    the gradient of the mean loss.
    """
    losses, residual = _xent_rows(logits, labels)
    return float(losses.mean()), residual / losses.size


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class SgdState:
    """Momentum-SGD state with a piecewise-constant learning-rate schedule.

    schedule entries are (epoch_fraction, divisor): once the run's progress
    reaches the fraction, the learning rate is divided by the divisor
    (cumulatively across entries).
    """

    base_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    schedule: tuple[tuple[float, float], ...] = ()
    velocities: list = field(default_factory=list)

    def lr_at(self, epoch_fraction: float) -> float:
        lr = self.base_lr
        for frac, divisor in self.schedule:
            if epoch_fraction >= frac:
                lr /= divisor
        return lr


def sgd_step(params: list[Param], state: SgdState, epoch_fraction: float = 0.0) -> bool:
    """One momentum-SGD update, in place.

    v <- momentum * v + (grad + weight_decay * value); value <- value - lr * v,
    for every parameter alike.
    Returns False when any gradient entry was non-finite (the update is still
    applied, so the caller can decide what to do with the wreckage).
    """
    if not state.velocities:
        state.velocities = [np.zeros_like(p.value) for p in params]
    if len(state.velocities) != len(params):
        raise DimensionError("optimizer state does not match the parameter list")
    lr = state.lr_at(epoch_fraction)
    finite = True
    for p, v in zip(params, state.velocities):
        g = p.grad
        if state.weight_decay != 0.0:
            g = g + state.weight_decay * p.value
        if not np.all(np.isfinite(g)):
            finite = False
        v *= state.momentum
        v += g
        p.value -= lr * v
    return finite


# ---------------------------------------------------------------------------
# network assembly


# the allowed values of NetworkConfig.kind, .norm and .placement
NETWORK_KINDS = ("conv", "dense")
NORMS = ("batch", "layer", "instance", "group", "none")
PLACEMENTS = ("per_layer", "final_only")


@dataclass
class NetworkConfig:
    """Architecture description.

    depth counts feature layers (convolutions for kind="conv", hidden dense
    layers for kind="dense"); the classifier head is extra. norm picks the
    normalization scheme (one of NORMS; "none" for no normalization) and
    placement puts it after every feature layer ("per_layer") or only after
    the last one ("final_only"). residual groups convolutions into 2-conv
    identity-shortcut blocks (even depth: depth/2 blocks; odd depth: a stem
    convolution followed by (depth-1)/2 blocks).
    """

    depth: int
    kind: str = "conv"
    width: int = 16
    class_count: int = 10
    input_shape: tuple[int, int, int] = (3, 8, 8)
    norm: str = "batch"
    placement: str = "per_layer"
    groups: int = 4
    residual: bool = False
    init: InitScheme = XAVIER
    bn_eps: float = 1e-5
    bn_rho: float = 0.9
    bn_period: int = 1
    bn_components: BnComponents = BnComponents()

    def validate(self):
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if self.kind not in NETWORK_KINDS:
            raise ConfigError(f"unknown network kind {self.kind!r}")
        if self.norm not in NORMS:
            raise ConfigError(f"unknown norm {self.norm!r}")
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"unknown norm placement {self.placement!r}")
        if self.width < 1 or self.groups < 1 or self.class_count < 2:
            raise ConfigError("width and groups must be >= 1 and class_count >= 2")
        if not 0 < self.bn_eps < np.inf or not 0 <= self.bn_rho <= 1:
            raise ConfigError("bn_eps must be positive and finite and bn_rho must lie in [0, 1]")
        if self.bn_period < 1:
            raise ConfigError("bn_period must be >= 1")
        if self.residual and self.kind != "conv":
            raise ConfigError("residual blocks require kind='conv'")
        if self.residual and self.depth % 2 == 0 and self.width < self.input_shape[0]:
            raise ConfigError(f"a residual net of even depth cannot have width ({self.width}) "
                              f"below the input channels ({self.input_shape[0]}): its first "
                              "block would narrow")
        if self.kind == "dense" and self.norm in ("instance", "group"):
            raise ConfigError(f"norm {self.norm!r} undefined for dense networks")
        if self.norm == "group" and self.width % self.groups != 0:
            raise ConfigError(
                f"width ({self.width}) not divisible by groups ({self.groups})"
            )
        # one example's normalization region: channels per position times positions
        channels = {"layer": self.width, "instance": 1, "group": self.width // self.groups}
        positions = self.input_shape[1] * self.input_shape[2] if self.kind == "conv" else 1
        if self.norm in channels and channels[self.norm] * positions < 2:
            raise ConfigError(f"{self.norm} normalization region would hold 1 element "
                              f"(network.width = {self.width}, network.groups = {self.groups}, "
                              f"{positions} position(s) per channel); need >= 2")


class Network:
    """A feature stack plus classifier head."""

    def __init__(self, config: NetworkConfig, layers: list[Layer]):
        self.config = config
        self.layers = layers
        self._params = []
        for l in layers:
            self._params.extend(l.params())

    def params(self) -> list[Param]:
        return self._params

    def forward(self, x: Array, train: bool = True, update_stats: bool = True,
                visit=None) -> Array:
        """Forward through every layer; visit, if given, sees each layer's
        input and output as the module docstring says."""
        return _forward_through(self.layers, x, train, update_stats, visit)

    def backward(self, dlogits: Array, visit=None) -> Array:
        """Backward through every layer; each weighted layer hands the
        gradient at its output to visit(layer, upstream), if given, just
        before its backward reads it (see the module docstring)."""
        return _backward_through(self.layers, dlogits, visit)

    def loss_and_grad(self, x, labels, update_stats=True,
                      visit=None) -> tuple[float, Array]:
        """Training forward + backward; fills parameter gradients. Returns
        (loss, logits). visit as in backward: the per-example summands
        (grad_summands) and the upstream readers take it there."""
        logits = self.forward(x, train=True, update_stats=update_stats)
        loss, dlogits = softmax_xent(logits, labels)
        self.backward(dlogits, visit)
        return loss, logits

    def loss_only(self, x, labels) -> float:
        """Training-mode loss, without a backward pass or a statistics
        update. Its training forward still replaces every layer's caches, so a
        backward after it reads this forward."""
        logits = self.forward(x, train=True, update_stats=False)
        loss, _ = softmax_xent(logits, labels)
        return loss

    def accuracy(self, x, labels, batch: int = 512) -> float:
        """Evaluation-mode accuracy, in chunks of batch examples. An
        evaluation forward changes no layer state: the caches of the last
        training forward stay, and no chunk's activations outlive it."""
        hits = 0
        for i in range(0, x.shape[0], batch):
            logits = self.forward(x[i : i + batch], train=False)
            hits += int(np.sum(np.argmax(logits, axis=1) == labels[i : i + batch]))
        return hits / x.shape[0]

    # flat-vector protocol (used by the loss probe)

    def flat_params(self) -> Array:
        return np.concatenate([p.value.ravel() for p in self._params])

    def set_flat_params(self, flat: Array) -> None:
        total = sum(p.value.size for p in self._params)
        if flat.size != total:
            raise DimensionError(
                f"flat vector has {flat.size} entries, network expects {total}"
            )
        i = 0
        for p in self._params:
            n = p.value.size
            p.value[...] = flat[i : i + n].reshape(p.value.shape)
            i += n

    def flat_grads(self) -> Array:
        return np.concatenate([p.grad.ravel() for p in self._params])

    def loss_on(self, batch) -> float:
        x, labels = batch
        return self.loss_only(x, labels)

    def grad_on(self, batch) -> Array:
        x, labels = batch
        self.loss_and_grad(x, labels, update_stats=False)
        return self.flat_grads()


def build_network(config: NetworkConfig, rng: SeededRng) -> Network:
    """Assemble a network.

    Weight layers draw their initial values from rng.child(k) with k the
    layer's ordinal, so two configs differing only in normalization get
    identical initial weights.
    """
    config.validate()
    config = replace(config)  # keep the caller's object out of reach
    rngs = map(rng.child, itertools.count())

    def norm_factory(channels, name):
        if config.norm == "none" or config.placement == "final_only":
            return None
        return _make_norm(config, channels, name)

    layers: list[Layer] = []

    if config.kind == "conv":
        w = config.width
        c_prev = config.input_shape[0]
        # a residual net of odd depth starts with one plain stem layer
        plain = config.depth % 2 if config.residual else config.depth
        for d in range(plain):
            conv = Conv3x3(c_prev, w, next(rngs), config.init, f"conv{d}")
            n = norm_factory(w, f"norm{d}")
            layers += [conv, n, ReLU()] if n else [conv, ReLU()]
            c_prev = w
        for bi in range((config.depth - plain) // 2):
            layers.append(ResidualBlock(
                c_prev, w, next(rngs), next(rngs), config.init, norm_factory, f"block{bi}"
            ))
            c_prev = w
    else:
        layers.append(Flatten())
        prev = int(np.prod(config.input_shape))
        for d in range(config.depth):
            dense = Dense(prev, config.width, next(rngs), config.init, f"dense{d}")
            n = norm_factory(config.width, f"norm{d}")
            layers += [dense, n, ReLU()] if n else [dense, ReLU()]
            prev = config.width
    if config.placement == "final_only" and config.norm != "none":
        layers.append(_make_norm(config, config.width, "norm_final"))
    if config.kind == "conv":
        layers.append(GlobalAvgPool())
    layers.append(Dense(config.width, config.class_count, next(rngs), config.init, "head"))

    return Network(config, layers)


def _make_norm(config: NetworkConfig, channels: int, name: str) -> Layer:
    if config.norm == "batch":
        return BatchNorm(
            channels,
            eps=config.bn_eps,
            rho=config.bn_rho,
            period=config.bn_period,
            components=config.bn_components,
            name=name,
        )
    return GeneralizedNorm(
        channels, config.norm,
        groups=config.groups if config.norm == "group" else None,
        eps=config.bn_eps, name=name,
    )
