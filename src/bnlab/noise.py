"""SGD gradient noise: how far a minibatch step strays from the full-batch one.

Given per-example loss gradients g_1 .. g_N with mean g_bar, the deviations
Delta_i = g_i - g_bar have mean-square size

    C = (1/N) sum_i ||Delta_i||^2      (the noise constant).

A minibatch of size b drawn uniformly with replacement has step noise
E ||lr * (g_hat - g_bar)||^2 equal to lr^2 C / b exactly. Sampling without
replacement shrinks this by (N - b)/(N - 1). A third quantity reported here,
closed_form_noise, is lr^2 C (N - b) / (b N): the finite-population variance
written with an N instead of the N - 1. All three are kept separate so they
can be compared against the Monte-Carlo estimate rather than silently
reconciled.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SizeError
from .tensor import Array, SeededRng

MODES = ("with_replacement", "without_replacement")


@dataclass(frozen=True)
class GradientSet:
    """Per-example gradients, one row per example.

    The set is immutable: `matrix` is a read-only view of the array passed
    in (which the caller must not write to afterwards), and the deviations,
    C, sum_i ||Delta_i||^2 and every Monte-Carlo draw are computed on first
    use and kept, so a table over many (lr, batch size) cells does the
    lr-free work once.
    """

    matrix: Array  # [n_examples, n_params]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64).view()
        if m.ndim != 2 or m.shape[0] < 1:
            raise SizeError(f"gradient matrix must be 2-d and non-empty, got {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        # per-trial squared norms keyed by (batch_size, trials, seed, mode)
        object.__setattr__(self, "_draws", {})

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def mean_gradient(self) -> Array:
        return self.matrix.mean(axis=0)

    def deviations(self) -> Array:
        return self._deviations

    @cached_property
    def _deviations(self) -> Array:
        d = self.matrix - self.mean_gradient()
        d.flags.writeable = False
        return d

    @cached_property
    def _noise_constant(self) -> float:
        d = self._deviations
        return float(np.mean(np.einsum("ij,ij->i", d, d)))

    @cached_property
    def _total_square(self) -> float:
        d = self._deviations
        return float(np.sum(d * d))


def per_example_gradients(net, x: Array, labels: Array) -> GradientSet:
    """Gradient of each example's loss at the network's current parameters.

    Examples pass through one at a time, so any normalization layer sees
    single-example batches; running statistics are left untouched.
    """
    n = x.shape[0]
    if n < 1:
        raise SizeError("need at least one example")
    rows = []
    for i in range(n):
        net.loss_and_grad(x[i : i + 1], labels[i : i + 1], update_stats=False)
        rows.append(net.flat_grads())
    return GradientSet(np.stack(rows))


def noise_constant(gradients: GradientSet) -> float:
    """C = mean squared deviation of per-example gradients from their mean."""
    return gradients._noise_constant


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
    return lr * lr * (n - batch_size) / (batch_size * n * n) * gradients._total_square


@dataclass(frozen=True)
class EmpiricalNoise:
    estimate: float
    std_err: float
    trials: int
    mode: str


def empirical_sgd_noise(
    gradients: GradientSet,
    lr: float,
    batch_size: int,
    trials: int,
    seed: int,
    mode: str = "with_replacement",
) -> EmpiricalNoise:
    """Monte-Carlo estimate of the squared minibatch step deviation.

    The per-trial squared norms are drawn once per (batch_size, trials,
    seed, mode) and kept on `gradients`; the lr^2 factor multiplies their
    average at the end, so estimates for two learning rates on the same seed
    differ by exactly (lr1/lr2)^2.
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
    per_trial = gradients._draws.get(key)
    if per_trial is None:
        devs = gradients.deviations()
        gen = SeededRng(seed).generator()
        per_trial = np.empty(trials)
        for t in range(trials):
            if mode == "with_replacement":
                idx = gen.integers(0, n, size=batch_size)
            else:
                idx = gen.permutation(n)[:batch_size]
            diff = devs[idx].mean(axis=0)
            per_trial[t] = float(diff @ diff)
        per_trial.flags.writeable = False
        gradients._draws[key] = per_trial
    scale = lr * lr
    estimate = scale * float(np.mean(per_trial))
    if trials >= 2:
        std_err = scale * float(np.std(per_trial, ddof=1)) / np.sqrt(trials)
    else:
        std_err = float("nan")
    return EmpiricalNoise(estimate=estimate, std_err=std_err, trials=trials, mode=mode)


@dataclass(frozen=True)
class NoiseEstimate:
    lr: float
    batch_size: int
    n_examples: int
    noise_constant: float
    bound: float  # lr^2 C / b
    closed_form: float  # lr^2 C (N - b) / (b N)
    with_replacement: EmpiricalNoise
    without_replacement: EmpiricalNoise


def noise_summary(
    gradients: GradientSet,
    lr: float,
    batch_size: int,
    trials: int = 2000,
    seed: int = 0,
) -> NoiseEstimate:
    """All noise quantities for one (lr, batch size) pair in one report."""
    c = noise_constant(gradients)
    return NoiseEstimate(
        lr=lr,
        batch_size=batch_size,
        n_examples=gradients.n,
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
