"""Spectra of products of square Gaussian matrices.

The limiting distribution of the squared singular values of a product of M
independent N x N matrices with i.i.d. N(0, 1/N) entries has density

    rho_M(x) = sin(phi) * sin((M+1) phi) / (pi * x * sin(M phi))

parametrized by phi in (0, pi/(M+1)) through

    x(phi) = sin((M+1) phi)^(M+1) / (sin(phi) * sin(M phi)^M),

supported on (0, (M+1)^(M+1) / M^M). M = 1 recovers the quarter-circle
law for squared singular values: rho_1(x) = sqrt(4 - x) / (2 pi sqrt(x))
on (0, 4). x(phi) decreases from the upper edge to 0 as phi sweeps the
interval, so phi is recovered from x by bisection, a whole array at once.

Everything here is NumPy: the inversion is bisection, the total mass is
Gauss-Legendre quadrature and the CDF is exact, 1 - (M+1) phi / pi + M x rho_M(x),
so no bnlab command loads SciPy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeError
from .tensor import Array, SeededRng, gram_eigenvalues

SATURATION_FLOOR = 1e-300
MASS_NODES = 256  # Gauss-Legendre nodes of total_mass


def support_upper(m: int) -> float:
    """Upper edge of the squared-singular-value support: (M+1)^(M+1) / M^M."""
    _check_m(m)
    return float((m + 1) ** (m + 1) / m**m)


def _check_m(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise DomainError(f"matrix count M must be an integer >= 1, got {m!r}")


def _phi_limit(m: int) -> float:
    return np.pi / (m + 1)


def _x(m: int, phi: np.ndarray) -> np.ndarray:
    """x(phi) on an array, as (u / v)^m * u / sin(phi): u = sin((m+1) phi) and
    v = sin(m phi) are raised to the m-th power only as their ratio, which
    stays finite where each of them alone would underflow."""
    u = np.sin((m + 1) * phi)
    v = np.sin(m * phi)
    return (u / v) ** m * u / np.sin(phi)


def x_of_phi(m: int, phi: float) -> float:
    """The squared-singular-value coordinate at parameter phi."""
    _check_m(m)
    phi = float(phi)
    if not 0.0 < phi < _phi_limit(m):
        raise DomainError(f"phi must lie in (0, pi/{m + 1}), got {phi}")
    return float(_x(m, np.array([phi]))[0])


def _bisect_phi(m: int, x: np.ndarray) -> np.ndarray:
    """phi with x(phi) = x for each element of a 1-D array inside the support.

    Bisection of [1e-12, 1 - 1e-14] * pi/(m+1) until no midpoint lies strictly
    between its bracket's ends; an element stops moving once its own bracket
    has, and drops out of the halvings, so each result is the same whatever
    else the array holds. x beyond the bracket's images gets the bracket's end.
    """
    top = _phi_limit(m)
    ends = np.array([top * 1e-12, top * (1.0 - 1e-14)])
    x_ends = _x(m, ends)
    phi = np.full(x.shape, ends[0])
    # the still-moving elements: their indices, brackets and targets
    at, lo, hi, target = np.arange(x.size), phi.copy(), np.full(x.shape, ends[1]), x
    while at.size:
        mid = 0.5 * (lo + hi)
        moving = (lo < mid) & (mid < hi)
        if not moving.all():
            phi[at] = lo
            at, lo, hi, target, mid = (a[moving] for a in (at, lo, hi, target, mid))
        up = _x(m, mid) > target  # x(phi) decreases, so the root lies above mid
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return np.where(x >= x_ends[0], ends[0], np.where(x <= x_ends[1], ends[1], phi))


def phi_of_x(m: int, x):
    """Invert x_of_phi on the open support (scalar or array), by bisection to
    the float64 fixed point."""
    _check_m(m)
    xs = np.asarray(x, dtype=np.float64)
    upper = support_upper(m)
    outside = ~((xs > 0.0) & (xs < upper))
    if outside.any():
        raise DomainError(f"x must lie in (0, {upper}), got {xs[outside].flat[0]}")
    phi = _bisect_phi(m, xs.reshape(-1)).reshape(xs.shape)
    return float(phi) if xs.ndim == 0 else phi


def density(m: int, x) -> np.ndarray | float:
    """Limiting density of squared singular values at x (scalar or array)."""
    _check_m(m)
    xs = np.asarray(x, dtype=np.float64)
    flat = xs.reshape(-1)
    phi = phi_of_x(m, flat)
    u = np.sin((m + 1) * phi)
    v = np.sin(m * phi)
    rho = (np.sin(phi) * u / (np.pi * flat * v)).reshape(xs.shape)
    return float(rho) if xs.ndim == 0 else rho


def _mass_integrand(m: int, phi):
    """rho(x(phi)) * |dx/dphi|: the density's mass element in phi (scalar or array)."""
    u = np.sin((m + 1) * phi)
    v = np.sin(m * phi)
    s = np.sin(phi)
    term1 = (m + 1) ** 2 * s * np.cos((m + 1) * phi) / v
    term2 = -np.cos(phi) * u / v
    term3 = -(m**2) * s * u * np.cos(m * phi) / (v * v)
    return -(term1 + term2 + term3) / np.pi


def total_mass(m: int) -> float:
    """Integral of the density over its support (should be 1), by
    MASS_NODES-point Gauss-Legendre quadrature in phi."""
    _check_m(m)
    nodes, weights = np.polynomial.legendre.leggauss(MASS_NODES)
    half = _phi_limit(m) / 2.0
    return float(half * np.dot(weights, _mass_integrand(m, half * (nodes + 1.0))))


@dataclass(frozen=True)
class FussCatalanDensity:
    """The limiting law for M matrices, with its exact CDF for distribution tests."""

    m: int

    def __post_init__(self):
        _check_m(self.m)

    def cdf(self, x):
        """P(X <= x) (scalar or array), exact: 0 for x <= 0, 1 from the upper edge,
        and 1 - (M+1) phi / pi + M sin(phi) sin((M+1) phi) / (pi sin(M phi)) between,
        at phi = phi_of_x(M, x). In phi the mass element is an exact derivative:
        (1/pi)[(M+1) - M d/dphi(sin phi sin((M+1) phi) / sin M phi)] dphi."""
        m = self.m
        xs = np.asarray(x, dtype=np.float64)
        upper = support_upper(m)
        f = np.where(xs <= 0.0, 0.0, np.where(xs >= upper, 1.0, np.nan))
        inside = (xs > 0.0) & (xs < upper)
        phi = phi_of_x(m, xs[inside])
        f[inside] = (1.0 - (m + 1) * phi / np.pi
                     + m * np.sin(phi) * np.sin((m + 1) * phi) / (np.pi * np.sin(m * phi)))
        return float(f) if xs.ndim == 0 else f


def ks_distance(values: Array, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a CDF callable."""
    v = np.sort(np.asarray(values, dtype=np.float64).ravel())
    n = v.size
    if n == 0:
        raise SizeError("empty sample")
    f = np.asarray(cdf(v), dtype=np.float64)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(np.abs(f - i / n), np.abs(f - (i - 1) / n))))


@dataclass(frozen=True)
class SpectrumSample:
    """Squared singular values of sampled products of M N x N matrices
    with i.i.d. N(0, 1/N) entries.

    per_trial[t] holds trial t's Gram eigenvalues in ascending order;
    eigenvalues pools all trials, sorted.
    """

    m: int
    eigenvalues: Array
    per_trial: Array


def sample_product_spectra(ms, n: int, trials: int, seed: int) -> list[SpectrumSample]:
    """Sample Gram spectra of products of M N x N matrices whose entries are
    drawn i.i.d. N(0, 1/N), for each M in ms (in the order given).

    Trial t draws from SeededRng(seed, stream=t), so individual trials are
    reproducible in isolation and the result does not depend on evaluation
    order. Each trial forms one product chain X_1 X_2 ... X_max(ms), left to
    right, and takes the spectrum of every requested prefix, so the sample
    for M does not depend on the other entries of ms. A repeated M gets the
    same sample object.
    """
    ms = list(ms)
    if not ms:
        raise SizeError("need at least one matrix count")
    for m in ms:
        _check_m(m)
    if n < 2:
        raise SizeError(f"matrix size must be >= 2, got {n}")
    if trials < 1:
        raise SizeError(f"trials must be >= 1, got {trials}")
    rows = {m: np.empty((trials, n)) for m in ms}
    scale = 1.0 / np.sqrt(n)
    for t in range(trials):
        gen = SeededRng(seed, stream=t).generator()
        x = gen.normal(0.0, scale, size=(n, n))
        for k in range(1, max(ms) + 1):
            if k > 1:
                x = x @ gen.normal(0.0, scale, size=(n, n))
            if k in rows:
                rows[k][t] = gram_eigenvalues(x)
    samples = {m: SpectrumSample(m=m, eigenvalues=np.sort(r.ravel()), per_trial=r)
               for m, r in rows.items()}
    return [samples[m] for m in ms]


def sample_product_spectrum(m: int, n: int, trials: int, seed: int) -> SpectrumSample:
    """sample_product_spectra for the one matrix count M."""
    return sample_product_spectra([m], n, trials, seed)[0]


@dataclass(frozen=True)
class ConditionEntry:
    m: int
    trial: int
    kappa: float  # sqrt(lambda_max / lambda_min)
    sigma_max: float  # sqrt(lambda_max)
    saturated: bool  # lambda_min below the representable floor


@dataclass(frozen=True)
class ConditionSummary:
    m: int
    median_kappa: float
    mean_kappa: float
    median_sigma_max: float
    mean_sigma_max: float
    saturated_trials: int


@dataclass(frozen=True)
class ConditionReport:
    entries: tuple[ConditionEntry, ...]
    summaries: tuple[ConditionSummary, ...]


def condition_report(samples: list[SpectrumSample]) -> ConditionReport:
    """Condition numbers and largest singular values, per trial and summarized.

    Trials whose smallest eigenvalue falls below 1e-300 cannot yield a
    meaningful condition number in float64; they are flagged saturated and
    excluded from the per-M aggregates.
    """
    entries = []
    summaries = []
    for s in samples:
        kappas, smaxes_ok, smaxes_all = [], [], []
        sat = 0
        for t, lam in enumerate(s.per_trial):
            lam_min, lam_max = float(lam[0]), float(lam[-1])
            smax = float(np.sqrt(lam_max))
            smaxes_all.append(smax)
            if lam_min < SATURATION_FLOOR:
                entries.append(ConditionEntry(s.m, t, float("inf"), smax, True))
                sat += 1
                continue
            kappa = float(np.sqrt(lam_max / lam_min))
            entries.append(ConditionEntry(s.m, t, kappa, smax, False))
            kappas.append(kappa)
            smaxes_ok.append(smax)
        smaxes = smaxes_ok if smaxes_ok else smaxes_all
        summaries.append(
            ConditionSummary(
                m=s.m,
                median_kappa=float(np.median(kappas)) if kappas else float("inf"),
                mean_kappa=float(np.mean(kappas)) if kappas else float("inf"),
                median_sigma_max=float(np.median(smaxes)),
                mean_sigma_max=float(np.mean(smaxes)),
                saturated_trials=sat,
            )
        )
    return ConditionReport(entries=tuple(entries), summaries=tuple(summaries))
