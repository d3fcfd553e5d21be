"""Dense float64 arrays: seeded streams, initialization, 3x3 convolution, Gram spectra.

Functions over numpy float64 arrays; none mutates its inputs. Stateful things
(parameter stores, running statistics) live in higher layers. A conv kernel
checks its operands (_conv_args), pads each once per call (_padded) and forms
one product per kernel offset, for the convolution or the kernel gradient
(_kernel_products), on module-private scratch buffers that are reused across
calls and never returned; one thread at a time calls these kernels.
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


def _padded(x: Array, role: str) -> Array:
    """Images end to end on one zero-padded grid: [c, w + 2 + n + w + 2], n = b*(h+1)*(w+1).

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
    return flat


def _shifted(flat: Array, shape: tuple[int, ...]) -> list[tuple[int, int, Array]]:
    """(i, j, input under kernel offset (i, j) at all n grid positions), as views on
    the padded grid of a [b, c, h, w] array `shape`. Under the centre offset (1, 1)
    it is that array on the grid, 0 at junk."""
    b, _, h, w = shape
    n = b * (h + 1) * (w + 1)
    return [(i, j, flat[:, i * (w + 1) + j :][:, :n]) for i in range(3) for j in range(3)]


def _conv_args(x: Array, kernel: Array | None = None,
               upstream: Array | None = None) -> tuple[Array, Array | None, Array | None]:
    """x [b, c_in, h, w], kernel [c_out, c_in, 3, 3], upstream [b, c_out, h, w]:
    as tensors, each one given checked."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise DimensionError(f"conv input must be [b, c, h, w], got {x.shape}")
    if kernel is not None:
        kernel = as_tensor(kernel)
        if kernel.ndim != 4 or kernel.shape[1:] != (x.shape[1], 3, 3):
            raise DimensionError(f"kernel must be [c_out, {x.shape[1]}, 3, 3] for input "
                                 f"{x.shape}, got {kernel.shape}")
    if upstream is not None:
        upstream = as_tensor(upstream)
        # c_out is the kernel's, else upstream's own: a rank other than 4 never matches
        c_out = upstream.shape[1:2] if kernel is None else kernel.shape[:1]
        if upstream.shape != (x.shape[0], *c_out, *x.shape[2:]):
            raise DimensionError(
                f"upstream must be [b, c_out, h, w] for input {x.shape}, got {upstream.shape}"
            )
    return x, kernel, upstream


def conv2d_forward(x: Array, kernel: Array) -> Array:
    """Same-size 3x3 convolution with zero padding.

    out[b, o, x, y] = sum over c and offsets (i, j) in {-1, 0, 1}^2 of
    x[b, c, x + i, y + j] * kernel[o, c, i, j] (out-of-range input reads 0),
    as one product per offset over the padded layout's shifted slices.
    """
    x, kernel, _ = _conv_args(x, kernel)
    return _conv_padded(_padded(x, "x"), kernel, x.shape)


def _conv_padded(flat: Array, kernel: Array, shape: tuple[int, ...]) -> Array:
    """conv2d_forward of the [b, c, h, w] input `shape` whose padded grid is flat."""
    b, _, h, w = shape
    (i, j, first), *rest = _shifted(flat, shape)
    o, n = kernel.shape[0], first.shape[1]
    acc, term = _scratch("acc", (o, n)), _scratch("term", (o, n))
    np.matmul(kernel[:, :, i, j], first, out=acc)
    for i, j, window in rest:
        acc += np.matmul(kernel[:, :, i, j], window, out=term)
    out = acc.reshape(o, b, h + 1, w + 1)[:, :, :h, :w]
    # copy(), not ascontiguousarray: at b = o = h = w = 1 the slice is already
    # contiguous, and the latter would return the scratch itself.
    return out.transpose(1, 0, 2, 3).copy()


def _kernel_products(x_grid: Array, up_grid: Array, shape: tuple[int, ...],
                     perm: tuple[int, int, int] | None = None) -> Array:
    """Sums of upstream[b, o, x, y] * x_pad[b, c, x+i, y+j], [*groups, c_out, c_in, 3, 3],
    off the padded grids of the input `shape` and its upstream: over the whole grid
    with perm None (conv2d_backward's grad_kernel), else per group, perm ordering a
    grid's (channel, image, cell) axes groups first: (1, 0, 2) images, (2, 0, 1) cells."""
    def grouped(a):
        return a if perm is None else a.reshape(a.shape[0], shape[0], -1).transpose(perm)

    # the upstream on the grid, 0 at junk, so junk positions add 0
    up = grouped(_shifted(up_grid, shape)[4][2])
    out = np.empty(up.shape[:-1] + (shape[1], 3, 3))
    for i, j, window in _shifted(x_grid, shape):
        out[..., i, j] = up @ grouped(window).swapaxes(-1, -2)
    return out


def conv2d_backward(upstream: Array, x: Array, kernel: Array) -> tuple[Array, Array]:
    """Gradients of a scalar loss through conv2d_forward: (grad_input, grad_kernel).

    grad_kernel[o, c, i, j] is the plain sum over batch and positions of
    upstream[b, o, x, y] * x_pad[b, c, x+i, y+j]; grad_input is the same-size conv
    of upstream with the spatially flipped, channel-transposed kernel.
    """
    x, kernel, upstream = _conv_args(x, kernel, upstream)
    up_grid = _padded(upstream, "up")
    grad_kernel = _kernel_products(_padded(x, "x"), up_grid, x.shape)
    flipped = as_tensor(kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return _conv_padded(up_grid, flipped, upstream.shape), grad_kernel


def conv2d_example_kernel_grads(upstream: Array, x: Array) -> Array:
    """Each batch element's share of conv2d_backward's grad_kernel: [b, c_out, c_in, 3, 3].

    Entry k is the sum over positions (x, y) of upstream[k, o, x, y] * x_pad[k, c, x+i, y+j];
    the entries sum over k to grad_kernel.
    """
    x, _, upstream = _conv_args(x, upstream=upstream)
    return _kernel_products(_padded(x, "x"), _padded(upstream, "up"), x.shape, (1, 0, 2))


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
    x, _, upstream = _conv_args(x, upstream=upstream)
    x_grid, up_grid = _padded(x, "x"), _padded(upstream, "up")
    per_image = _kernel_products(x_grid, up_grid, x.shape, (1, 0, 2))
    per_cell = _kernel_products(x_grid, up_grid, x.shape, (2, 0, 1))
    spatial_partial = np.abs(per_cell, out=per_cell).sum(axis=0)
    # |d| is the product of the grids' absolute values, 0 at padding and junk
    # alike; the grids are this call's scratch, so they are taken in place
    abs_sum = _kernel_products(np.abs(x_grid, out=x_grid), np.abs(up_grid, out=up_grid),
                               x.shape, (1, 0, 2)).sum(axis=0)
    return SummandReduction(per_image.sum(axis=0), abs_sum, np.abs(per_image).sum(axis=0),
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
