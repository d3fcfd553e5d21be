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
the closed form are then sums over that vector. noise_table reports every
(lr, batch size) cell as a NoiseRow, whose fields are noise.csv's columns:
it draws each (batch size, mode) once at lr = 1 (empirical_sgd_noise) and
scales by lr^2 last.
"""
from __future__ import annotations

from types import SimpleNamespace
from typing import NamedTuple

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
    ||Delta_i||^2, over blocks of rows, so no N x P deviations copy is held.
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


def empirical_sgd_noise(
    gradients: GradientSet,
    batch_size: int,
    trials: int,
    seed: int,
    mode: str = "with_replacement",
) -> Array:
    """Per-trial squared norms of the minibatch step deviation at lr = 1.

    A trial's deviation is the mean of its drawn rows minus g_bar; the
    returned array is read-only. At any lr the step deviation is lr times
    this one, so one draw serves every learning rate.
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
    return per_trial


class NoiseRow(NamedTuple):
    """One (lr, batch size) cell of the noise table; the fields are the
    columns of noise.csv. Each Monte Carlo pair is lr^2 times the mean of
    the cell's per-trial draws, and its standard error."""

    lr: float
    batch_size: int
    noise_constant: float
    bound: float  # lr^2 C / b
    closed_form: float  # lr^2 C (N - b) / (b N)
    mc_with_estimate: float
    mc_with_std_err: float
    mc_without_estimate: float
    mc_without_std_err: float


def _scaled_mean(per_trial: Array, scale: float) -> tuple[float, float]:
    """scale times the mean of per_trial, and its standard error (nan for one trial)."""
    estimate = scale * float(np.mean(per_trial))
    if per_trial.size < 2:
        return estimate, float("nan")
    return estimate, scale * float(np.std(per_trial, ddof=1)) / np.sqrt(per_trial.size)


def noise_table(gradients: GradientSet, lrs, batch_sizes, *, trials: int,
                seed: int) -> list[NoiseRow]:
    """Every (lr, batch size) cell, lr-major. Each (batch size, mode) is
    drawn once, on the one seed, and every lr scales those same draws by
    lr^2 last."""
    c = noise_constant(gradients)
    draws = {b: [empirical_sgd_noise(gradients, b, trials, seed, mode) for mode in MODES]
             for b in batch_sizes}
    return [NoiseRow(lr, b, c, sgd_noise_bound(c, lr, b), closed_form_noise(gradients, lr, b),
                     *_scaled_mean(draws[b][0], lr * lr), *_scaled_mean(draws[b][1], lr * lr))
            for lr in lrs for b in batch_sizes]


def noise_summary(gradients: GradientSet, lr: float, batch_size: int, *, trials: int,
                  seed: int) -> SimpleNamespace:
    """The one-cell noise_table with each Monte Carlo (estimate, std_err) pair
    nested under its mode, the shape bench/tests/test_bench_checks.py reads."""
    r = noise_table(gradients, [lr], [batch_size], trials=trials, seed=seed)[0]
    pairs = [SimpleNamespace(estimate=e, std_err=se) for e, se in (r[5:7], r[7:9])]
    return SimpleNamespace(**r._asdict(), **dict(zip(MODES, pairs)))
