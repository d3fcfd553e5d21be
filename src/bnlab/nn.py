"""Network layers and training primitives.

The centerpiece is a batch-normalization layer whose four components
(mean subtraction, variance division, scale, shift) can be toggled
independently, and whose batch statistics can be refreshed only every
k-th batch (stale statistics are then reused as constants in between).

Layers follow a plain forward/backward discipline: forward caches what
backward needs on the layer instance, backward overwrites parameter
gradients (no accumulation across calls). Nothing mutates its input
arrays.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace

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
    conv2d_forward,
    init_tensor,
)


@dataclass
class Param:
    """A named trainable array with its gradient buffer."""

    name: str
    value: Array
    grad: Array = None
    decay: bool = True

    def __post_init__(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)


class Layer:
    def forward(self, x: Array, train: bool = True, update_stats: bool = True) -> Array:
        raise NotImplementedError

    def backward(self, dout: Array) -> Array:
        raise NotImplementedError

    def params(self) -> list[Param]:
        return []


# ---------------------------------------------------------------------------
# normalization


def _region_moments(x: Array, axes: tuple[int, ...]) -> tuple[Array, Array]:
    """Mean and population variance over the given axes (keepdims)."""
    mean = x.mean(axis=axes, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=axes, keepdims=True)
    return mean, var


def _channel_axes(x: Array) -> tuple[tuple[int, ...], int]:
    """Per-channel normalization region for 4-d [b, c, h, w] or 2-d [b, f]."""
    if x.ndim == 4:
        axes = (0, 2, 3)
    elif x.ndim == 2:
        axes = (0,)
    else:
        raise DimensionError(f"expected 2-d or 4-d input, got shape {x.shape}")
    n = 1
    for a in axes:
        n *= x.shape[a]
    return axes, n


def _per_channel(v: Array, ndim: int) -> Array:
    """Reshape a length-c vector so it broadcasts over the channel axis."""
    return v.reshape((1, -1) + (1,) * (ndim - 2))


@dataclass(frozen=True)
class BnComponents:
    """Which pieces of the normalization are active."""

    use_mean: bool = True
    use_var: bool = True
    use_gamma: bool = True
    use_beta: bool = True


@dataclass
class BnCache:
    """Everything bn_backward needs; valid only for the most recent forward."""

    x: Array
    xhat: Array
    mean: Array
    var: Array
    inv: Array | None
    axes: tuple[int, ...]
    n: int
    fresh: bool  # statistics were computed from x (so gradients flow through them)
    components: BnComponents
    layer: "weakref.ref[BatchNorm]"  # weak: the layer holds this cache
    token: int


class BatchNorm(Layer):
    """Per-channel batch normalization with ablatable components.

    Statistics are taken over (batch, height, width) for 4-d inputs and over
    the batch for 2-d inputs. Running averages (momentum rho) feed the
    evaluation path. With stat_update_period = k > 1, fresh batch statistics
    are computed only on every k-th training batch and the cached ones are
    reused (as constants, also in backward) in between; running averages are
    updated only on refresh batches.
    """

    def __init__(
        self,
        channels: int,
        eps: float = 1e-5,
        rho: float = 0.9,
        period: int = 1,
        components: BnComponents = BnComponents(),
        name: str = "bn",
    ):
        if channels < 1:
            raise DimensionError("channels must be >= 1")
        if period < 1:
            raise ConfigError("stat update period must be >= 1")
        self.channels = channels
        self.eps = float(eps)
        self.rho = float(rho)
        self.period = int(period)
        self.components = components
        self.name = name
        self.gamma = Param(name + ".gamma", np.ones(channels))
        self.beta = Param(name + ".beta", np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.stats_initialized = False
        self.batch_counter = 0
        self.cached_mean: Array | None = None
        self.cached_var: Array | None = None
        self._serial = 0
        self.cache: BnCache | None = None

    def params(self) -> list[Param]:
        out = []
        if self.components.use_gamma:
            out.append(self.gamma)
        if self.components.use_beta:
            out.append(self.beta)
        return out

    def forward(self, x: Array, train: bool = True, update_stats: bool = True) -> Array:
        if train:
            out, self.cache = bn_forward_train(x, self, update_state=update_stats)
            return out
        return bn_forward_eval(x, self)

    def backward(self, dout: Array) -> Array:
        dx, dgamma, dbeta = bn_backward(dout, self.cache)
        self.gamma.grad[...] = dgamma
        self.beta.grad[...] = dbeta
        return dx


def bn_forward_train(
    x: Array, layer: BatchNorm, *, update_state: bool = True
) -> tuple[Array, BnCache]:
    """Training-mode batch normalization.

    Returns (output, cache). With update_state=False the arithmetic is the
    one the next training batch would see, but no layer state changes (no
    running-average update, no cache refresh, no counter bump) -- used by
    read-only instruments.
    """
    x = as_tensor(x)
    if x.shape[1] != layer.channels:
        raise DimensionError(
            f"{layer.name}: expected {layer.channels} channels, got {x.shape[1]}"
        )
    axes, n = _channel_axes(x)
    if n < 2:
        raise DegenerateBatchError(
            f"{layer.name}: normalization region has {n} element(s); need >= 2"
        )
    comp = layer.components
    refresh = layer.batch_counter % layer.period == 0
    if refresh or layer.cached_mean is None:
        mean, var = _region_moments(x, axes)
        fresh = True
    else:
        mean = _per_channel(layer.cached_mean, x.ndim)
        var = _per_channel(layer.cached_var, x.ndim)
        fresh = False

    centered = x - mean if comp.use_mean else x
    if comp.use_var:
        inv = 1.0 / np.sqrt(var + layer.eps)
        xhat = centered * inv
    else:
        inv = None
        xhat = centered
    out = xhat
    if comp.use_gamma:
        out = _per_channel(layer.gamma.value, x.ndim) * out
    if comp.use_beta:
        out = out + _per_channel(layer.beta.value, x.ndim)

    layer._serial += 1
    cache = BnCache(
        x=x,
        xhat=xhat,
        mean=mean,
        var=var,
        inv=inv,
        axes=axes,
        n=n,
        fresh=fresh,
        components=comp,
        layer=weakref.ref(layer),
        token=layer._serial,
    )
    if update_state:
        if fresh:
            layer.cached_mean = mean.reshape(-1).copy()
            layer.cached_var = var.reshape(-1).copy()
            layer.running_mean = (
                layer.rho * layer.running_mean + (1.0 - layer.rho) * layer.cached_mean
            )
            layer.running_var = (
                layer.rho * layer.running_var + (1.0 - layer.rho) * layer.cached_var
            )
            layer.stats_initialized = True
        layer.batch_counter += 1
    return out, cache


def bn_forward_eval(x: Array, layer: BatchNorm) -> Array:
    """Evaluation-mode normalization using the running statistics."""
    x = as_tensor(x)
    if not layer.stats_initialized:
        raise UninitializedStatsError(
            f"{layer.name}: no running statistics yet; run a training batch first"
        )
    if x.shape[1] != layer.channels:
        raise DimensionError(
            f"{layer.name}: expected {layer.channels} channels, got {x.shape[1]}"
        )
    comp = layer.components
    out = x - _per_channel(layer.running_mean, x.ndim) if comp.use_mean else x
    if comp.use_var:
        out = out / np.sqrt(_per_channel(layer.running_var, x.ndim) + layer.eps)
    if comp.use_gamma:
        out = _per_channel(layer.gamma.value, x.ndim) * out
    if comp.use_beta:
        out = out + _per_channel(layer.beta.value, x.ndim)
    return out


def bn_backward(dout: Array, cache: BnCache) -> tuple[Array, Array, Array]:
    """Gradients through bn_forward_train.

    When the cache carries fresh statistics the gradient flows through the
    batch mean and variance; stale (cached-period) statistics are constants.
    Toggled-off components contribute no gradient: grad_gamma / grad_beta are
    zero when the corresponding component is off.
    """
    if cache is None:
        raise CacheMismatchError("no forward cache available")
    layer = cache.layer()
    if layer is None:
        raise CacheMismatchError("the layer that made this cache no longer exists")
    if cache.token != layer._serial:
        raise CacheMismatchError(
            f"{layer.name}: cache is from forward #{cache.token}, "
            f"layer has since run forward #{layer._serial}"
        )
    dout = as_tensor(dout)
    if dout.shape != cache.x.shape:
        raise DimensionError(
            f"upstream shape {dout.shape} does not match input {cache.x.shape}"
        )
    comp = cache.components
    axes, n = cache.axes, cache.n
    ndim = cache.x.ndim

    dgamma = np.zeros(layer.channels)
    dbeta = np.zeros(layer.channels)
    if comp.use_beta:
        dbeta = dout.sum(axis=axes)
    if comp.use_gamma:
        dgamma = (dout * cache.xhat).sum(axis=axes)
        dxhat = dout * _per_channel(layer.gamma.value, ndim)
    else:
        dxhat = dout

    if comp.use_var:
        inv = cache.inv
        if not cache.fresh:
            dx = dxhat * inv
        else:
            centered_tilde = cache.x - cache.mean if comp.use_mean else cache.x
            true_centered = cache.x - cache.mean
            dvar = (dxhat * centered_tilde).sum(axis=axes, keepdims=True) * (
                -0.5
            ) * inv**3
            dx = dxhat * inv + dvar * 2.0 * true_centered / n
            if comp.use_mean:
                dmean = -(dxhat.sum(axis=axes, keepdims=True)) * inv + dvar * (
                    -2.0 / n
                ) * true_centered.sum(axis=axes, keepdims=True)
                dx = dx + dmean / n
    else:
        dx = dxhat
        if comp.use_mean and cache.fresh:
            dx = dx - dxhat.sum(axis=axes, keepdims=True) / n
    return dx, dgamma, dbeta


@dataclass
class NormCache:
    x: Array
    xhat_region: Array  # in the (possibly grouped) region view
    xhat: Array  # original shape
    mean: Array
    inv: Array
    axes: tuple[int, ...]
    n: int
    grouping: str
    gamma: Array | None
    region_shape: tuple[int, ...]


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
                raise GroupingError(
                    f"channels ({c}) not divisible by groups ({groups})"
                )
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


def generalized_norm(
    x: Array,
    grouping: str,
    gamma: Array | None = None,
    beta: Array | None = None,
    *,
    groups: int | None = None,
    eps: float = 1e-5,
) -> tuple[Array, NormCache]:
    """Normalize over the region named by `grouping`.

    grouping: "batch" (per channel, over batch and positions), "layer"
    (per example, over channels and positions), "instance" (per example and
    channel, over positions), or "group" (per example and channel-group).
    gamma/beta, when given, are per-channel affine parameters. grouping
    "batch" agrees bitwise with a fresh-statistics BatchNorm forward.
    """
    x = as_tensor(x)
    xr, axes, n = _region_view(x, grouping, groups)
    if n < 2:
        raise DegenerateBatchError(
            f"{grouping} normalization region has {n} element(s); need >= 2"
        )
    mean, var = _region_moments(xr, axes)
    inv = 1.0 / np.sqrt(var + eps)
    xhat_region = (xr - mean) * inv
    xhat = xhat_region.reshape(x.shape)
    out = xhat
    if gamma is not None:
        out = _per_channel(np.asarray(gamma, dtype=np.float64), x.ndim) * out
    if beta is not None:
        out = out + _per_channel(np.asarray(beta, dtype=np.float64), x.ndim)
    cache = NormCache(
        x=x,
        xhat_region=xhat_region,
        xhat=xhat,
        mean=mean,
        inv=inv,
        axes=axes,
        n=n,
        grouping=grouping,
        gamma=None if gamma is None else np.asarray(gamma, dtype=np.float64),
        region_shape=xr.shape,
    )
    return out, cache


def generalized_norm_backward(
    dout: Array, cache: NormCache
) -> tuple[Array, Array | None, Array | None]:
    """Gradients through generalized_norm: (grad_input, grad_gamma, grad_beta)."""
    dout = as_tensor(dout)
    if dout.shape != cache.x.shape:
        raise DimensionError(
            f"upstream shape {dout.shape} does not match input {cache.x.shape}"
        )
    ndim = cache.x.ndim
    affine_axes = tuple(a for a in range(ndim) if a != 1)
    dgamma = dbeta = None
    if cache.gamma is not None:
        dgamma = (dout * cache.xhat).sum(axis=affine_axes)
        dxhat = (dout * _per_channel(cache.gamma, ndim)).reshape(cache.region_shape)
    else:
        dxhat = dout.reshape(cache.region_shape)
    dbeta = dout.sum(axis=affine_axes)

    axes, n = cache.axes, cache.n
    xr = cache.x.reshape(cache.region_shape)
    centered = xr - cache.mean
    inv = cache.inv
    dvar = (dxhat * centered).sum(axis=axes, keepdims=True) * (-0.5) * inv**3
    dmean = -(dxhat.sum(axis=axes, keepdims=True)) * inv + dvar * (
        -2.0 / n
    ) * centered.sum(axis=axes, keepdims=True)
    dx = dxhat * inv + dvar * 2.0 * centered / n + dmean / n
    return dx.reshape(cache.x.shape), dgamma, dbeta


class GeneralizedNorm(Layer):
    """Layer wrapper for generalized_norm with per-channel affine parameters."""

    def __init__(self, channels: int, grouping: str, groups: int | None = None,
                 eps: float = 1e-5, name: str = "norm"):
        self.channels = channels
        self.grouping = grouping
        self.groups = groups
        self.eps = float(eps)
        self.name = name
        self.gamma = Param(name + ".gamma", np.ones(channels))
        self.beta = Param(name + ".beta", np.zeros(channels))
        self.cache: NormCache | None = None

    def params(self) -> list[Param]:
        return [self.gamma, self.beta]

    def forward(self, x, train=True, update_stats=True):
        out, self.cache = generalized_norm(
            x, self.grouping, self.gamma.value, self.beta.value,
            groups=self.groups, eps=self.eps,
        )
        return out

    def backward(self, dout):
        dx, dgamma, dbeta = generalized_norm_backward(dout, self.cache)
        self.gamma.grad[...] = dgamma
        self.beta.grad[...] = dbeta
        return dx


# ---------------------------------------------------------------------------
# plain layers


class Conv3x3(Layer):
    def __init__(self, c_in: int, c_out: int, rng: SeededRng,
                 init: InitScheme = XAVIER, name: str = "conv"):
        self.name = name
        self.kernel = Param(name + ".kernel", init_tensor((c_out, c_in, 3, 3), init, rng))
        self.last_in: Array | None = None
        self.last_out: Array | None = None
        self.last_upstream: Array | None = None

    def params(self):
        return [self.kernel]

    def forward(self, x, train=True, update_stats=True):
        self.last_in = as_tensor(x)
        self.last_out = conv2d_forward(self.last_in, self.kernel.value)
        return self.last_out

    def backward(self, dout):
        self.last_upstream = as_tensor(dout)
        dx, dk = conv2d_backward(self.last_upstream, self.last_in, self.kernel.value)
        self.kernel.grad[...] = dk
        return dx


class Dense(Layer):
    def __init__(self, d_in: int, d_out: int, rng: SeededRng,
                 init: InitScheme = XAVIER, name: str = "dense"):
        self.name = name
        self.weight = Param(name + ".weight", init_tensor((d_in, d_out), init, rng))
        self.bias = Param(name + ".bias", np.zeros(d_out))
        self.last_in: Array | None = None
        self.last_out: Array | None = None
        self.last_upstream: Array | None = None

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, train=True, update_stats=True):
        self.last_in = as_tensor(x)
        self.last_out = self.last_in @ self.weight.value + self.bias.value
        return self.last_out

    def backward(self, dout):
        self.last_upstream = as_tensor(dout)
        self.weight.grad[...] = self.last_in.T @ dout
        self.bias.grad[...] = dout.sum(axis=0)
        return dout @ self.weight.value.T


class ReLU(Layer):
    def __init__(self):
        self.last_in: Array | None = None

    def forward(self, x, train=True, update_stats=True):
        self.last_in = x
        return np.maximum(x, 0.0)

    def backward(self, dout):
        return dout * (self.last_in > 0)


class Flatten(Layer):
    def __init__(self):
        self.in_shape = None

    def forward(self, x, train=True, update_stats=True):
        self.in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self.in_shape)


class GlobalAvgPool(Layer):
    def __init__(self):
        self.in_shape = None

    def forward(self, x, train=True, update_stats=True):
        self.in_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dout):
        b, c, h, w = self.in_shape
        return np.broadcast_to(dout[:, :, None, None], self.in_shape) / (h * w)


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
        self.last_sum: Array | None = None

    def params(self):
        out = self.conv1.params() + (self.norm1.params() if self.norm1 else [])
        out += self.conv2.params() + (self.norm2.params() if self.norm2 else [])
        return out

    def forward(self, x, train=True, update_stats=True):
        h = self.conv1.forward(x, train, update_stats)
        if self.norm1:
            h = self.norm1.forward(h, train, update_stats)
        h = self.relu1.forward(h, train, update_stats)
        h = self.conv2.forward(h, train, update_stats)
        if self.norm2:
            h = self.norm2.forward(h, train, update_stats)
        if self.c_out > self.c_in:
            b, _, hh, ww = x.shape
            shortcut = np.concatenate(
                [x, np.zeros((b, self.c_out - self.c_in, hh, ww))], axis=1
            )
        else:
            shortcut = x
        self.last_sum = h + shortcut
        return self.last_sum

    def backward(self, dout):
        dh = dout
        if self.norm2:
            dh = self.norm2.backward(dh)
        dh = self.conv2.backward(dh)
        dh = self.relu1.backward(dh)
        if self.norm1:
            dh = self.norm1.backward(dh)
        dx = self.conv1.backward(dh)
        dshort = dout[:, : self.c_in] if self.c_out > self.c_in else dout
        return dx + dshort


# ---------------------------------------------------------------------------
# loss


def softmax_xent(logits: Array, labels: Array) -> tuple[float, Array]:
    """Mean cross-entropy of softmax(logits) against integer labels.

    Returns (loss, grad_logits) where grad_logits = (softmax - onehot) / b,
    the gradient of the mean loss. Log-sum-exp is stabilized by max
    subtraction, so arbitrarily large finite logits stay finite.
    """
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
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    loss = float(-logp[np.arange(b), labels].mean())
    grad = np.exp(logp)
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b


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

    v <- momentum * v + (grad + weight_decay * value); value <- value - lr * v.
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
        if p.decay and state.weight_decay != 0.0:
            g = g + state.weight_decay * p.value
        if not np.all(np.isfinite(g)):
            finite = False
        v *= state.momentum
        v += g
        p.value -= lr * v
    return finite


# ---------------------------------------------------------------------------
# network assembly


@dataclass
class NetworkConfig:
    """Architecture description.

    depth counts feature layers (convolutions for kind="conv", hidden dense
    layers for kind="dense"); the classifier head is extra. norm picks the
    normalization scheme ("batch", "layer", "instance", "group", "none") and
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
        if self.kind not in ("conv", "dense"):
            raise ConfigError(f"unknown network kind {self.kind!r}")
        if self.norm not in ("batch", "layer", "instance", "group", "none"):
            raise ConfigError(f"unknown norm {self.norm!r}")
        if self.placement not in ("per_layer", "final_only"):
            raise ConfigError(f"unknown norm placement {self.placement!r}")
        if self.width < 1 or self.class_count < 2:
            raise ConfigError("width must be >= 1 and class_count >= 2")
        if self.residual and self.kind != "conv":
            raise ConfigError("residual blocks require kind='conv'")
        if self.kind == "dense" and self.norm in ("instance", "group"):
            raise ConfigError(f"norm {self.norm!r} undefined for dense networks")
        if self.norm == "group" and self.width % self.groups != 0:
            raise ConfigError(
                f"width ({self.width}) not divisible by groups ({self.groups})"
            )


class Network:
    """A feature stack plus classifier head, with instrument taps.

    taps lists (label, layer) for every feature convolution / dense layer in
    order. moment_taps lists (label, getter) for depth-profile readings: the
    tensor feeding each normalizer (normalized layers) or each ReLU
    (unnormalized layers), in depth order — a residual conv that feeds only
    the shortcut sum appears in taps but not in moment_taps. mv_taps
    additionally carries, per convolution, a getter for the tensor feeding
    it, read before that conv's preceding ReLU when one exists (a residual
    trunk feeds the raw block sum onward).
    """

    def __init__(self, config: NetworkConfig, layers: list[Layer],
                 taps: list[tuple[str, Layer]], mv_taps: list[tuple[str, Conv3x3, object]],
                 moment_taps: list[tuple[str, object]]):
        self.config = config
        self.layers = layers
        self.taps = taps
        self.mv_taps = mv_taps
        self.moment_taps = moment_taps
        self._params = []
        for l in layers:
            self._params.extend(l.params())

    def params(self) -> list[Param]:
        return self._params

    def forward(self, x: Array, train: bool = True, update_stats: bool = True) -> Array:
        for l in self.layers:
            x = l.forward(x, train, update_stats)
        return x

    def backward(self, dlogits: Array) -> Array:
        d = dlogits
        for l in reversed(self.layers):
            d = l.backward(d)
        return d

    def loss_and_grad(self, x, labels, update_stats=True) -> tuple[float, Array]:
        """Training forward + backward; fills parameter gradients. Returns
        (loss, logits)."""
        logits = self.forward(x, train=True, update_stats=update_stats)
        loss, dlogits = softmax_xent(logits, labels)
        self.backward(dlogits)
        return loss, logits

    def loss_only(self, x, labels, train=True) -> float:
        """Loss without a backward pass and without touching any state."""
        logits = self.forward(x, train=train, update_stats=False)
        loss, _ = softmax_xent(logits, labels)
        return loss

    def predict(self, x) -> Array:
        return self.forward(x, train=False)

    def accuracy(self, x, labels, batch: int = 512) -> float:
        hits = 0
        for i in range(0, x.shape[0], batch):
            logits = self.predict(x[i : i + batch])
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
        return self.loss_only(x, labels, train=True)

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
    counter = {"k": 0}

    def next_rng():
        r = rng.child(counter["k"])
        counter["k"] += 1
        return r

    def norm_factory(channels, name):
        if config.norm == "none" or config.placement == "final_only":
            return None
        return _make_norm(config, channels, name)

    layers: list[Layer] = []
    taps: list[tuple[str, Layer]] = []
    mv_taps = []
    moment_taps: list[tuple[str, object]] = []

    if config.kind == "conv":
        c_in = config.input_shape[0]
        w = config.width
        ordinal = 0

        def producer_of(layer, attr="last_in"):
            return lambda: getattr(layer, attr)

        if config.residual:
            prev_feed = None  # getter for the tensor feeding the next conv
            c_prev = c_in
            remaining = config.depth
            if config.depth % 2 == 1:
                stem = Conv3x3(c_prev, w, next_rng(), config.init, f"conv{ordinal}")
                layers.append(stem)
                taps.append((stem.name, stem))
                mv_taps.append((stem.name, stem, producer_of(stem)))
                moment_taps.append((stem.name, producer_of(stem, "last_out")))
                n = norm_factory(w, f"norm{ordinal}")
                if n:
                    layers.append(n)
                relu = ReLU()
                layers.append(relu)
                prev_feed = producer_of(relu)
                ordinal += 1
                c_prev = w
                remaining -= 1
            for bi in range(remaining // 2):
                block = ResidualBlock(
                    c_prev, w, next_rng(), next_rng(), config.init,
                    lambda ch, nm: norm_factory(ch, nm), f"block{bi}",
                )
                # taps: the two convolutions inside the block
                taps.append((block.conv1.name, block.conv1))
                taps.append((block.conv2.name, block.conv2))
                first_producer = (
                    producer_of(block.conv1) if prev_feed is None else prev_feed
                )
                mv_taps.append((block.conv1.name, block.conv1, first_producer))
                mv_taps.append((block.conv2.name, block.conv2, producer_of(block.relu1)))
                # conv1 feeds a norm or its ReLU either way; conv2 feeds its
                # norm when present, otherwise only the shortcut sum.
                moment_taps.append(
                    (block.conv1.name, producer_of(block.conv1, "last_out"))
                )
                if block.norm2 is not None:
                    moment_taps.append(
                        (block.conv2.name, producer_of(block.conv2, "last_out"))
                    )
                layers.append(block)
                prev_feed = producer_of(block, "last_sum")
                c_prev = w
                ordinal += 2
        else:
            c_prev = c_in
            prev_pre_relu = None
            for d in range(config.depth):
                conv = Conv3x3(c_prev, w, next_rng(), config.init, f"conv{d}")
                layers.append(conv)
                taps.append((conv.name, conv))
                producer = (
                    producer_of(conv) if prev_pre_relu is None else producer_of(prev_pre_relu)
                )
                mv_taps.append((conv.name, conv, producer))
                moment_taps.append((conv.name, producer_of(conv, "last_out")))
                n = norm_factory(w, f"norm{d}")
                if n:
                    layers.append(n)
                relu = ReLU()
                layers.append(relu)
                prev_pre_relu = relu
                c_prev = w
        if config.placement == "final_only" and config.norm != "none":
            layers.append(_make_norm(config, w, "norm_final"))
        layers.append(GlobalAvgPool())
        layers.append(Dense(w, config.class_count, next_rng(), config.init, "head"))
    else:
        d_in = int(np.prod(config.input_shape))
        layers.append(Flatten())
        prev = d_in
        for d in range(config.depth):
            dense = Dense(prev, config.width, next_rng(), config.init, f"dense{d}")
            layers.append(dense)
            taps.append((dense.name, dense))
            moment_taps.append((dense.name, lambda d=dense: d.last_out))
            n = norm_factory(config.width, f"norm{d}")
            if n:
                layers.append(n)
            layers.append(ReLU())
            prev = config.width
        if config.placement == "final_only" and config.norm != "none":
            layers.append(_make_norm(config, prev, "norm_final"))
        layers.append(Dense(prev, config.class_count, next_rng(), config.init, "head"))

    return Network(config, layers, taps, mv_taps, moment_taps)


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
