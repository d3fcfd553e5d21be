"""SGD gradient noise: how far a minibatch step strays from the full-batch one.

Given per-example loss gradients g_1 .. g_N with mean g_bar (for a BN net,
the examples' shares of minibatch gradients; see per_example_gradients), the
deviations Delta_i = g_i - g_bar have mean-square size

    C = (1/N) sum_i ||Delta_i||^2      (the noise constant).

A minibatch of size b drawn uniformly with replacement has step noise
E ||lr * (g_hat - g_bar)||^2 equal to lr^2 C / b exactly. Sampling without
replacement shrinks this by (N - b)/(N - 1). A third quantity reported here,
closed_form_noise, is lr^2 C (N - b) / (b N): the finite-population variance
written with an N instead of the N - 1. All three are kept separate so they
can be compared against the Monte-Carlo estimate rather than silently
reconciled.

A GradientSet forms g_bar and every ||Delta_i||^2 when it is built; C and
the closed form are then sums over that vector.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeError
from .tensor import Array, SeededRng

MODES = ("with_replacement", "without_replacement")


# rows per block when the squared deviation norms are formed; one block of
# deviations is their only temporary
_ROW_BLOCK = 128


class GradientSet:
    """Per-example gradients, one row per example.

    `matrix` is a read-only view of the array passed in (which the caller
    must not write to afterwards). The constructor also forms the mean
    gradient `mean` and each deviation's squared norm `square_norms`,
    ||Delta_i||^2, over blocks of rows, so no N x P deviations copy is held;
    `draws` keeps the per-trial squared norms of each Monte-Carlo cell drawn
    on the set. A table over many (lr, batch size) cells thus does the
    lr-free work once.
    """

    def __init__(self, matrix: Array):
        m = np.asarray(matrix, dtype=np.float64).view()
        if m.ndim != 2 or m.shape[0] < 1:
            raise SizeError(f"gradient matrix must be 2-d and non-empty, got {m.shape}")
        m.flags.writeable = False
        self.matrix = m  # [n_examples, n_params]
        self.n = m.shape[0]
        self.mean = m.mean(axis=0)
        self.mean.flags.writeable = False
        self.square_norms = np.empty(self.n)
        for s in range(0, self.n, _ROW_BLOCK):
            d = m[s : s + _ROW_BLOCK] - self.mean
            self.square_norms[s : s + _ROW_BLOCK] = np.einsum("ij,ij->i", d, d)
        self.square_norms.flags.writeable = False
        # per-trial squared norms keyed by (batch_size, trials, seed, mode)
        self.draws: dict[tuple, Array] = {}


def per_example_gradients(net, x: Array, labels: Array, batch_size: int = 128) -> GradientSet:
    """One gradient row per example at the network's current parameters.

    The examples pass in chunks of batch_size consecutive ones (the last
    chunk may be shorter), one training forward and backward per chunk with
    running statistics left untouched. The chunk's mean-loss gradient is a
    sum of one summand per example, formed from each layer's upstream as
    the backward hands it over (grad_summands: outer products for dense
    layers, per-example kernel gradients for convs, per-example sums for
    norm gains and shifts) and written straight into its parameter's
    columns; a row is the chunk size times its example's summand, so each
    chunk's rows average exactly to that chunk's minibatch gradient.

    Without batch normalization no example's summand depends on the others
    in its chunk, and a row is that example's own loss gradient, whatever
    batch_size is. With it, a row is the example's share of the true BN
    minibatch gradient at batch size batch_size (statistics taken over its
    chunk, gradient flowing through them), and C is the spread of those
    shares. Rows then depend on batch_size, and a chunk must give each BN
    region two or more elements.
    """
    n = x.shape[0]
    if n < 1:
        raise SizeError("need at least one example")
    if batch_size < 1:
        raise SizeError(f"batch size must be >= 1, got {batch_size}")
    sizes = [p.value.size for p in net.params()]
    cols = dict(zip(map(id, net.params()), np.cumsum([0] + sizes).tolist()))
    rows = np.empty((n, sum(sizes)))

    def write(layer, upstream):
        for p, s in zip(layer.params(), layer.grad_summands(upstream)):
            c = cols[id(p)]
            np.multiply(s.reshape(len(s), -1), len(s), out=rows[chunk, c : c + p.value.size])

    for start in range(0, n, batch_size):
        chunk = slice(start, min(start + batch_size, n))
        net.loss_and_grad(x[chunk], labels[chunk], update_stats=False, visit=write)
    return GradientSet(rows)


def noise_constant(gradients: GradientSet) -> float:
    """C = mean squared deviation of per-example gradients from their mean."""
    return float(np.mean(gradients.square_norms))


def sgd_noise_bound(c: float, lr: float, batch_size: int) -> float:
    """lr^2 C / b: the exact with-replacement step noise."""
    if batch_size < 1:
        raise SizeError(f"batch size must be >= 1, got {batch_size}")
    return lr * lr * c / batch_size


def closed_form_noise(gradients: GradientSet, lr: float, batch_size: int) -> float:
    """lr^2 (N - b) / (b N^2) * sum_i ||Delta_i||^2.

    Equals the with-replacement value scaled by (N - b)/N; vanishes at
    b = N and is slightly below the true without-replacement noise, which
    carries (N - b)/(N - 1) instead.
    """
    n = gradients.n
    if not 1 <= batch_size <= n:
        raise SizeError(f"batch size must be in [1, {n}], got {batch_size}")
    total = float(np.sum(gradients.square_norms))
    return lr * lr * (n - batch_size) / (batch_size * n * n) * total


@dataclass(frozen=True)
class EmpiricalNoise:
    estimate: float
    std_err: float


def empirical_sgd_noise(
    gradients: GradientSet,
    lr: float,
    batch_size: int,
    trials: int,
    seed: int,
    mode: str = "with_replacement",
) -> EmpiricalNoise:
    """Monte-Carlo estimate of the squared minibatch step deviation.

    A trial's deviation is the mean of its drawn rows minus g_bar. The
    per-trial squared norms are drawn once per (batch_size, trials, seed,
    mode) and kept in `gradients.draws`; the lr^2 factor multiplies their average
    at the end, so estimates for two learning rates on the same seed differ
    by exactly (lr1/lr2)^2.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    n = gradients.n
    if batch_size < 1:
        raise SizeError(f"batch size must be >= 1, got {batch_size}")
    if mode == "without_replacement" and batch_size > n:
        raise SizeError(f"cannot draw {batch_size} of {n} examples without replacement")
    if trials < 1:
        raise SizeError(f"trials must be >= 1, got {trials}")
    key = (batch_size, trials, seed, mode)
    per_trial = gradients.draws.get(key)
    if per_trial is None:
        per_trial = np.zeros(trials)
        # Without replacement at b = N every trial takes the whole set, whose mean
        # deviation is 0 by definition; drawing it would leave only rounding noise.
        if mode == "with_replacement" or batch_size < n:
            rows, mean = gradients.matrix, gradients.mean
            gen = SeededRng(seed).generator()
            for t in range(trials):
                if mode == "with_replacement":
                    idx = gen.integers(0, n, size=batch_size)
                else:
                    idx = gen.permutation(n)[:batch_size]
                diff = rows[idx].mean(axis=0)
                diff -= mean
                per_trial[t] = float(diff @ diff)
        per_trial.flags.writeable = False
        gradients.draws[key] = per_trial
    scale = lr * lr
    estimate = scale * float(np.mean(per_trial))
    if trials >= 2:
        std_err = scale * float(np.std(per_trial, ddof=1)) / np.sqrt(trials)
    else:
        std_err = float("nan")
    return EmpiricalNoise(estimate=estimate, std_err=std_err)


@dataclass(frozen=True)
class NoiseEstimate:
    noise_constant: float
    bound: float  # lr^2 C / b
    closed_form: float  # lr^2 C (N - b) / (b N)
    with_replacement: EmpiricalNoise
    without_replacement: EmpiricalNoise


def noise_summary(
    gradients: GradientSet,
    lr: float,
    batch_size: int,
    *,
    trials: int,
    seed: int,
) -> NoiseEstimate:
    """All noise quantities for one (lr, batch size) pair in one report."""
    c = noise_constant(gradients)
    return NoiseEstimate(
        noise_constant=c,
        bound=sgd_noise_bound(c, lr, batch_size),
        closed_form=closed_form_noise(gradients, lr, batch_size),
        with_replacement=empirical_sgd_noise(
            gradients, lr, batch_size, trials, seed, "with_replacement"
        ),
        without_replacement=empirical_sgd_noise(
            gradients, lr, batch_size, trials, seed, "without_replacement"
        ),
    )
