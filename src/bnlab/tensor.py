"""Dense float64 arrays: seeded streams, initialization, 3x3 convolution, Gram spectra.

Functions over numpy float64 arrays; none mutates its inputs. Stateful things
(parameter stores, running statistics) live in higher layers. The conv kernels
take their padded grids, accumulator and products from module-private scratch
buffers that are reused across calls and never returned, so a result stays
valid after later calls; one thread at a time calls these kernels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

Array = np.ndarray


def as_tensor(data) -> Array:
    """Coerce to a C-contiguous float64 ndarray (copying only when needed)."""
    return np.ascontiguousarray(data, dtype=np.float64)


@dataclass(frozen=True)
class SeededRng:
    """A reproducible random stream.

    The same (seed, stream) pair always yields the same draw sequence, and
    distinct stream ids give statistically independent streams off one seed,
    so trials / legs / layers can each own a stream without coordinating.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, k: int) -> "SeededRng":
        """Derive a sub-stream; distinct k give distinct streams."""
        return SeededRng(self.seed, self.stream * 1_000_003 + k + 1)


INIT_KINDS = ("xavier", "he")  # the allowed values of InitScheme.kind


@dataclass(frozen=True)
class InitScheme:
    """Weight initialization family.

    kind, one of INIT_KINDS: "xavier" (var = 2 / (fan_in + fan_out)) or
    "he" (var = 2 / fan_in). Draws are i.i.d. zero-mean normal in either case.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ValueError(f"must be one of {INIT_KINDS}, got {self.kind!r}")


XAVIER = InitScheme("xavier")
HE = InitScheme("he")


def _fans(shape: tuple[int, ...]) -> tuple[float, float]:
    # Dense [d_in, d_out]; conv kernels [c_out, c_in, kh, kw] where the fan
    # counts include the receptive field.
    if len(shape) == 2:
        return float(shape[0]), float(shape[1])
    if len(shape) == 4:
        c_out, c_in, kh, kw = shape
        return float(c_in * kh * kw), float(c_out * kh * kw)
    raise DimensionError(f"fan computation needs a 2-d or 4-d shape, got {shape}")


def init_tensor(shape: tuple[int, ...], scheme: InitScheme, rng: SeededRng) -> Array:
    """Draw a freshly initialized tensor for the given scheme."""
    if any(int(s) <= 0 for s in shape):
        raise DimensionError(f"all dims must be positive, got {shape}")
    fan_in, fan_out = _fans(tuple(int(s) for s in shape))
    if scheme.kind == "xavier":
        std = np.sqrt(2.0 / (fan_in + fan_out))
    else:
        std = np.sqrt(2.0 / fan_in)
    return rng.generator().normal(0.0, std, size=shape)


# One flat buffer per role, grown on demand and kept: freeing the ~0.5 MB
# buffers after each call hands them back to the OS, and every call then
# page-faults them in again. A role's view is overwritten by the next call that
# takes it, so two arrays live at once must take distinct roles.
_SCRATCH: dict[str, Array] = {}


def _scratch(role: str, shape: tuple[int, ...]) -> Array:
    """A C-contiguous float64 view of `shape` on role's buffer, contents undefined."""
    size = math.prod(shape)
    buf = _SCRATCH.get(role)
    if buf is None or buf.size < size:
        buf = _SCRATCH[role] = np.empty(size)
    return buf[:size].reshape(shape)


def _padded(x: Array, role: str) -> tuple[Array, int]:
    """Images end to end on one zero-padded grid: ([c, w + 2 + n + w + 2], n).

    Rows end in a zero and images in a zero row the next image shares as padding.
    Output (k, r, s) is grid position p = k*(h+1)*(w+1) + r*(w+1) + s, with r = h or
    s = w junk; its input under kernel offset (i, j) is column p + i*(w+1) + j.
    The grid is a view on role's scratch buffer.
    """
    b, c, h, w = x.shape
    n = b * (h + 1) * (w + 1)
    flat = _scratch(role, (c, n + 2 * w + 4))
    flat.fill(0.0)
    grid = flat[:, w + 2 : w + 2 + n].reshape(c, b, h + 1, w + 1)
    grid[:, :, :h, :w] = x.transpose(1, 0, 2, 3)
    return flat, n


def _shifted(flat: Array, n: int, w: int) -> list[tuple[int, int, Array]]:
    """(i, j, input under kernel offset (i, j) at all n grid positions), as views."""
    return [(i, j, flat[:, i * (w + 1) + j :][:, :n]) for i in range(3) for j in range(3)]


def _check_conv_args(x: Array, kernel: Array) -> None:
    if x.ndim != 4:
        raise DimensionError(f"conv input must be [b, c, h, w], got {x.shape}")
    if kernel.ndim != 4 or kernel.shape[2:] != (3, 3):
        raise DimensionError(f"kernel must be [c_out, c_in, 3, 3], got {kernel.shape}")
    if x.shape[1] != kernel.shape[1]:
        raise DimensionError(
            f"channel mismatch: input has {x.shape[1]}, kernel expects {kernel.shape[1]}"
        )


def conv2d_forward(x: Array, kernel: Array) -> Array:
    """Same-size 3x3 convolution with zero padding.

    out[b, o, x, y] = sum over c and offsets (i, j) in {-1, 0, 1}^2 of
    x[b, c, x + i, y + j] * kernel[o, c, i, j] (out-of-range input reads 0),
    as one product per offset over the padded layout's shifted slices.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    _check_conv_args(x, kernel)
    return _conv_padded(*_padded(x, "x"), kernel, x.shape)


def _conv_padded(flat: Array, n: int, kernel: Array, shape: tuple[int, ...]) -> Array:
    """conv2d_forward of the [b, c, h, w] input `shape` whose padded grid is (flat, n)."""
    b, _, h, w = shape
    o = kernel.shape[0]
    acc, term = _scratch("acc", (o, n)), _scratch("term", (o, n))
    (i, j, first), *rest = _shifted(flat, n, w)
    np.matmul(kernel[:, :, i, j], first, out=acc)
    for i, j, window in rest:
        acc += np.matmul(kernel[:, :, i, j], window, out=term)
    out = acc.reshape(o, b, h + 1, w + 1)[:, :, :h, :w]
    # copy(), not ascontiguousarray: at b = o = h = w = 1 the slice is already
    # contiguous, and the latter would return the scratch itself.
    return out.transpose(1, 0, 2, 3).copy()


def conv2d_backward(upstream: Array, x: Array, kernel: Array) -> tuple[Array, Array]:
    """Gradients of a scalar loss through conv2d_forward: (grad_input, grad_kernel).

    grad_kernel[o, c, i, j] is the plain sum over batch and positions of
    upstream[b, o, x, y] * x_pad[b, c, x+i, y+j]; grad_input is the same-size conv
    of upstream with the spatially flipped, channel-transposed kernel.
    """
    upstream = as_tensor(upstream)
    x = as_tensor(x)
    kernel = as_tensor(kernel)
    _check_conv_args(x, kernel)
    (b, c, h, w), o = x.shape, kernel.shape[0]
    if upstream.shape != (b, o, h, w):
        raise DimensionError(
            f"upstream shape {upstream.shape} does not match output {(b, o, h, w)}"
        )
    flat, n = _padded(x, "x")
    up_flat = _padded(upstream, "up")[0]
    # Read from the first image on, padded upstream is upstream on the grid, 0 at junk.
    up = up_flat[:, w + 2 :][:, :n]
    grad_kernel = np.empty((o, c, 3, 3))
    for i, j, window in _shifted(flat, n, w):
        grad_kernel[:, :, i, j] = up @ window.T
    flipped = as_tensor(kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return _conv_padded(up_flat, n, flipped, upstream.shape), grad_kernel


def _summand_args(upstream: Array, x: Array) -> tuple[Array, Array]:
    """(upstream, x) as tensors, checked to be [b, c_out, h, w] and [b, c_in, h, w]."""
    upstream, x = as_tensor(upstream), as_tensor(x)
    if x.ndim != 4 or upstream.ndim != 4:
        raise DimensionError("expected [b, c, h, w] activations")
    if upstream.shape[0] != x.shape[0] or upstream.shape[2:] != x.shape[2:]:
        raise DimensionError(f"upstream {upstream.shape} does not match input {x.shape}")
    return upstream, x


def conv2d_example_kernel_grads(upstream: Array, x: Array) -> Array:
    """Each batch element's share of conv2d_backward's grad_kernel: [b, c_out, c_in, 3, 3].

    Entry k is the sum over positions (x, y) of upstream[k, o, x, y] * x_pad[k, c, x+i, y+j];
    the entries sum over k to grad_kernel. One batched product per kernel offset
    over the padded layout's shifted slices, each image's grid a batch of its own.
    """
    upstream, x = _summand_args(upstream, x)
    (b, c, h, w), o = x.shape, upstream.shape[1]
    flat, n = _padded(x, "x")
    cells = (h + 1) * (w + 1)
    # [b, o, cells]: upstream on each image's grid, 0 at junk (see conv2d_backward)
    up = _padded(upstream, "up")[0][:, w + 2 :][:, :n].reshape(o, b, cells).transpose(1, 0, 2)
    out = np.empty((b, o, c, 3, 3))
    for i, j, window in _shifted(flat, n, w):
        out[..., i, j] = up @ window.reshape(c, b, cells).transpose(1, 2, 0)
    return out


@dataclass(frozen=True)
class SummandReduction:
    """Reductions over the per-summand kernel gradients.

    The kernel gradient is a sum of one term per (batch, position):
    d[b, x, y][o, c, i, j] = upstream[b, o, x, y] * x_pad[b, c, x+i, y+j].
    Each field has shape [c_out, c_in, 3, 3]:

    total            sum of d over (b, x, y)  -- the kernel gradient itself
    abs_sum          sum of |d| over (b, x, y)
    batch_partial    sum over b of |sum over (x, y) of d|
    spatial_partial  sum over (x, y) of |sum over b of d|

    abs_sum >= batch_partial >= |total| and abs_sum >= spatial_partial >= |total|
    entrywise (triangle inequality applied at different grouping levels).
    """

    total: Array
    abs_sum: Array
    batch_partial: Array
    spatial_partial: Array


def conv2d_summand_stats(upstream: Array, x: Array) -> SummandReduction:
    """Sign-cancellation reductions of the conv kernel-gradient summands."""
    upstream, x = _summand_args(upstream, x)
    per_batch = conv2d_example_kernel_grads(upstream, x)
    abs_sum = conv2d_example_kernel_grads(np.abs(upstream), np.abs(x)).sum(axis=0)
    (b, c, h, w), o = x.shape, upstream.shape[1]
    flat, n = _padded(x, "x")
    cells = (h + 1) * (w + 1)
    # [cells, o, b] @ [cells, b, c] per offset: each grid cell's sum over b, 0 at junk
    up = _padded(upstream, "up")[0][:, w + 2 :][:, :n].reshape(o, b, cells).transpose(2, 0, 1)
    spatial_partial = np.empty((o, c, 3, 3))
    for i, j, window in _shifted(flat, n, w):
        per_pos = up @ window.reshape(c, b, cells).transpose(2, 1, 0)
        spatial_partial[..., i, j] = np.abs(per_pos).sum(axis=0)
    return SummandReduction(per_batch.sum(axis=0), abs_sum, np.abs(per_batch).sum(axis=0),
                            spatial_partial)


def gram_eigenvalues(x: Array) -> Array:
    """Eigenvalues of X^T X in ascending order.

    Computed as squared singular values of X itself. Each singular value
    carries an absolute error of about eps * sigma_max, not a relative one,
    so an eigenvalue sigma^2 means something only while sigma stays well
    above eps * sigma_max: once cond(X) nears 1/eps (about 4.5e15) the
    small end is rounding noise. For a product of matrices formed before
    the call, the product's own rounding adds an error of the same size.
    Forming X^T X and calling a symmetric eigensolver would be worse still:
    its absolute error is about eps * sigma_max^2, so the small end is lost
    once cond(X) nears 1/sqrt(eps) (about 6.7e7).
    """
    x = as_tensor(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionError(f"expected a square matrix, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix has non-finite entries")
    sv = np.linalg.svd(x, compute_uv=False)
    return np.maximum(sv[::-1] ** 2, 0.0)
