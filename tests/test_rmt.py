"""Tests for spectra of Gaussian matrix products.

Independent oracles used here:

* M = 1 reduces to the standard quarter-circle law for squared singular
  values, rho(x) = sqrt(4 - x) / (2 pi sqrt(x)) on (0, 4), whose CDF has
  the closed form (2 theta + sin 2 theta) / pi with theta = asin(sqrt(x)/2).
* The n-th moment of the limiting density for M factors is the generalized
  Catalan number binom((M+1) n, n) / (M n + 1), giving 1, 2, 5 for M = 1
  and 1, 3, 12 for M = 2.
"""
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.special import comb

import bnlab
from bnlab.errors import DomainError, SizeError
from bnlab.rmt import (
    ConditionEntry,
    FussCatalanDensity,
    SpectrumSample,
    condition_report,
    density,
    ks_distance,
    phi_of_x,
    sample_product_spectra,
    sample_product_spectrum,
    support_upper,
    total_mass,
    x_of_phi,
    _mass_integrand,
    _phi_limit,
)


def mp_density(x):
    x = np.asarray(x, dtype=np.float64)
    return np.sqrt(4.0 - x) / (2.0 * np.pi * np.sqrt(x))


def mp_cdf(x):
    x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 4.0)
    theta = np.arcsin(np.sqrt(x) / 2.0)
    return (2.0 * theta + np.sin(2.0 * theta)) / np.pi


def product_moment(m, n):
    """binom((m+1) n, n) / (m n + 1), the n-th moment for m factors."""
    return comb((m + 1) * n, n, exact=True) / (m * n + 1)


class TestSupport:
    def test_upper_edges(self):
        assert support_upper(1) == 4.0
        assert support_upper(2) == 6.75
        assert_allclose(support_upper(3), 256.0 / 27.0, rtol=1e-15)

    def test_bad_m(self):
        with pytest.raises(DomainError):
            support_upper(0)
        with pytest.raises(DomainError):
            density(-1, 1.0)


class TestParametrization:
    def test_x_of_phi_matches_quarter_circle_form(self):
        # for one factor, x(phi) = 4 cos^2(phi)
        for phi in np.linspace(0.05, np.pi / 2 - 0.05, 20):
            assert_allclose(x_of_phi(1, phi), 4.0 * np.cos(phi) ** 2, rtol=1e-13)

    def test_known_point_two_factors(self):
        assert_allclose(x_of_phi(2, np.pi / 6), 8.0 / 3.0, rtol=1e-14)

    def test_x_decreases_in_phi(self):
        for m in (1, 2, 3):
            phis = np.linspace(1e-3, _phi_limit(m) - 1e-3, 50)
            xs = np.array([x_of_phi(m, p) for p in phis])
            assert np.all(np.diff(xs) < 0)

    def test_phi_domain_errors(self):
        with pytest.raises(DomainError):
            x_of_phi(1, 0.0)
        with pytest.raises(DomainError):
            x_of_phi(1, np.pi / 2)
        with pytest.raises(DomainError):
            x_of_phi(2, np.pi / 3 + 0.1)

    def test_round_trip_grid(self):
        for m in (1, 2, 3, 4):
            upper = support_upper(m)
            for x in np.linspace(upper * 1e-4, upper * (1 - 1e-4), 30):
                phi = phi_of_x(m, x)
                assert_allclose(x_of_phi(m, phi), x, rtol=1e-9)

    @settings(max_examples=60)
    @given(
        m=st.integers(min_value=1, max_value=3),
        frac=st.floats(min_value=1e-5, max_value=1.0 - 1e-5),
    )
    def test_round_trip_property(self, m, frac):
        x = frac * support_upper(m)
        assert_allclose(x_of_phi(m, phi_of_x(m, x)), x, rtol=1e-8)

    def test_phi_of_x_domain_errors(self):
        for bad in (0.0, -1.0, 4.0, 5.0, np.nan):
            with pytest.raises(DomainError):
                phi_of_x(1, bad)
            with pytest.raises(DomainError):
                phi_of_x(1, np.array([1.0, bad, 2.0]))

    def test_phi_of_x_array_equals_scalar_calls(self):
        xs = np.linspace(0.0, support_upper(3), 52)[1:-1].reshape(5, 10)
        phis = phi_of_x(3, xs)
        assert phis.shape == (5, 10)
        assert phis.tobytes() == np.array([phi_of_x(3, x) for x in xs.ravel()]).tobytes()
        assert isinstance(phi_of_x(3, 1.0), float)

    def test_phi_of_x_is_a_bisection_fixed_point(self):
        # phi and the next float up bracket the root: x(phi) > x >= x(next)
        for m in (1, 4, 28):
            for x in np.linspace(0.0, support_upper(m), 9)[1:-1]:
                phi = phi_of_x(m, x)
                assert x_of_phi(m, phi) > x >= x_of_phi(m, np.nextafter(phi, np.inf))


class TestDensity:
    def test_matches_quarter_circle_law(self):
        xs = np.linspace(0.01, 3.99, 400)
        assert_allclose(density(1, xs), mp_density(xs), rtol=1e-10)

    def test_frozen_points(self):
        assert_allclose(density(1, 2.0), 1.0 / (2.0 * np.pi), rtol=1e-12)
        assert_allclose(density(2, 8.0 / 3.0), np.sqrt(3.0) / (8.0 * np.pi), rtol=1e-12)

    def test_scalar_in_scalar_out(self):
        assert isinstance(density(2, 1.0), float)

    @pytest.mark.parametrize("m", [1, 2, 8, 28, 200])
    def test_array_equals_per_point_bit_for_bit(self, m):
        xs = np.linspace(0.0, support_upper(m), 402)[1:-1]
        per_point = np.array([density(m, float(x)) for x in xs])
        assert density(m, xs).tobytes() == per_point.tobytes()
        assert density(m, xs[::-1]).tobytes() == per_point[::-1].tobytes()

    def test_array_shape_preserved(self):
        xs = np.array([[0.5, 1.0], [2.0, 3.0]])
        out = density(1, xs)
        assert out.shape == (2, 2)

    def test_outside_support_raises(self):
        with pytest.raises(DomainError):
            density(1, 4.5)
        with pytest.raises(DomainError):
            density(2, -0.1)

    def test_normalization(self):
        for m in range(1, 6):
            assert_allclose(total_mass(m), 1.0, atol=1e-9)

    def test_normalization_many_factors(self):
        for m in (8, 28, 100):
            assert_allclose(total_mass(m), 1.0, atol=1e-9)

    def test_moments_match_generalized_catalan(self):
        # integrate x^n rho(x) dx in the phi parametrization
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                val, _ = quad(
                    lambda p: x_of_phi(m, p) ** n * _mass_integrand(m, p),
                    1e-12,
                    _phi_limit(m) - 1e-12,
                    limit=200,
                )
                assert_allclose(val, product_moment(m, n), rtol=1e-7)

    def test_mass_integrand_nonnegative(self):
        for m in (1, 2, 4):
            phis = np.linspace(1e-6, _phi_limit(m) - 1e-6, 200)
            g = np.array([_mass_integrand(m, p) for p in phis])
            assert np.all(g >= 0.0)


class TestCdf:
    def test_matches_closed_form_for_one_factor(self):
        fc = FussCatalanDensity(1)
        xs = np.linspace(0.0, 4.0, 801)
        assert np.max(np.abs(fc.cdf(xs) - mp_cdf(xs))) < 1e-13

    def test_monotone_and_bounded(self):
        fc = FussCatalanDensity(3)
        xs = np.linspace(0.0, support_upper(3), 500)
        vals = fc.cdf(xs)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_clamps_outside_support(self):
        fc = FussCatalanDensity(2)
        assert fc.cdf(-1.0) == 0.0
        assert_allclose(fc.cdf(100.0), 1.0, atol=1e-6)

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 28, 100, 200])
    def test_matches_quadrature_of_the_density(self, m):
        fc = FussCatalanDensity(m)
        top = _phi_limit(m)
        for frac in np.linspace(0.0, 1.0, 17)[1:-1]:
            x = frac * support_upper(m)
            # mass below x is the mass above phi(x) in phi
            want, _ = quad(lambda p: _mass_integrand(m, p), phi_of_x(m, x), top,
                           epsabs=1e-13, epsrel=1e-13, limit=200)
            assert abs(fc.cdf(x) - want) <= 1e-13
        assert fc.cdf(0.0) == 0.0 and fc.cdf(support_upper(m)) == 1.0


class TestKsDistance:
    def test_hand_value(self):
        d = ks_distance(np.array([0.25, 0.5, 0.75]), lambda v: v)
        assert_allclose(d, 0.25, rtol=1e-15)

    def test_perfect_grid_sample(self):
        # midpoints of n equal bins have KS distance exactly 1/(2n)
        n = 50
        vals = (np.arange(n) + 0.5) / n
        assert_allclose(ks_distance(vals, lambda v: v), 1.0 / (2 * n), rtol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(SizeError):
            ks_distance(np.array([]), lambda v: v)


class TestSampling:
    def test_shapes_and_sorting(self):
        s = sample_product_spectrum(2, 16, trials=3, seed=9)
        assert s.per_trial.shape == (3, 16)
        assert s.eigenvalues.shape == (48,)
        assert np.all(np.diff(s.eigenvalues) >= 0)
        for row in s.per_trial:
            assert np.all(np.diff(row) >= 0)

    def test_reproducible(self):
        a = sample_product_spectrum(1, 12, trials=2, seed=5)
        b = sample_product_spectrum(1, 12, trials=2, seed=5)
        assert_array_equal(a.eigenvalues, b.eigenvalues)

    def test_trials_are_independent_streams(self):
        # the first rows should not depend on how many trials follow them
        a = sample_product_spectrum(2, 10, trials=2, seed=3)
        b = sample_product_spectrum(2, 10, trials=5, seed=3)
        assert_array_equal(a.per_trial, b.per_trial[:2])

    def test_mean_eigenvalue_near_one(self):
        # E[lambda] = 1 for any number of factors
        for m in (1, 3):
            s = sample_product_spectrum(m, 64, trials=6, seed=2)
            assert abs(float(np.mean(s.eigenvalues)) - 1.0) < 0.15

    def test_single_factor_agrees_with_quarter_circle_cdf(self):
        s = sample_product_spectrum(1, 128, trials=6, seed=7)
        assert ks_distance(s.eigenvalues, mp_cdf) < 0.05

    def test_validation(self):
        with pytest.raises(SizeError):
            sample_product_spectrum(1, 1, trials=2, seed=0)
        with pytest.raises(SizeError):
            sample_product_spectrum(1, 8, trials=0, seed=0)
        with pytest.raises(SizeError):
            sample_product_spectra([], 8, trials=2, seed=0)
        with pytest.raises(DomainError):
            sample_product_spectra([2, 0], 8, trials=2, seed=0)

    @pytest.mark.parametrize("ms", [(1, 2, 4, 8), (8, 1, 4, 2), (2, 4, 2, 1)])
    def test_one_chain_equals_per_m_samples_bit_for_bit(self, ms):
        got = sample_product_spectra(ms, 12, trials=3, seed=21)
        assert [s.m for s in got] == list(ms)
        for s in got:
            ref = sample_product_spectrum(s.m, 12, trials=3, seed=21)
            assert s.per_trial.tobytes() == ref.per_trial.tobytes()
            assert s.eigenvalues.tobytes() == ref.eigenvalues.tobytes()


class TestConditionReport:
    def _sample(self, m, rows):
        rows = np.asarray(rows, dtype=np.float64)
        return SpectrumSample(m=m, eigenvalues=np.sort(rows.ravel()), per_trial=rows)

    def test_hand_example(self):
        rep = condition_report([self._sample(1, [[1e-310, 4.0], [1.0, 9.0]])])
        e0, e1 = rep.entries
        assert e0.saturated and e0.kappa == float("inf")
        assert_allclose(e0.sigma_max, 2.0)
        assert not e1.saturated
        assert_allclose(e1.kappa, 3.0)
        assert_allclose(e1.sigma_max, 3.0)
        (summ,) = rep.summaries
        assert summ.saturated_trials == 1
        assert_allclose(summ.median_kappa, 3.0)
        assert_allclose(summ.median_sigma_max, 3.0)

    def test_all_saturated(self):
        rep = condition_report([self._sample(2, [[1e-320, 1.0]])])
        (summ,) = rep.summaries
        assert summ.median_kappa == float("inf")
        assert summ.saturated_trials == 1
        assert_allclose(summ.median_sigma_max, 1.0)

    def test_conditioning_worsens_with_more_factors(self):
        shallow = sample_product_spectrum(1, 48, trials=5, seed=13)
        deep = sample_product_spectrum(4, 48, trials=5, seed=13)
        rep = condition_report([shallow, deep])
        by_m = {s.m: s for s in rep.summaries}
        assert by_m[4].median_kappa > by_m[1].median_kappa

    def test_multiple_samples_keep_order(self):
        rep = condition_report(
            [self._sample(1, [[1.0, 4.0]]), self._sample(2, [[0.25, 1.0]])]
        )
        assert [s.m for s in rep.summaries] == [1, 2]
        assert isinstance(rep.entries[0], ConditionEntry)


def test_importing_the_program_leaves_scipy_unloaded(tmp_path):
    # every rmt function is NumPy only: importing the program, the three rmt
    # commands and total_mass leave scipy out of sys.modules
    cfg = tmp_path / "c.cfg"
    cfg.write_text("network.depth = 1\nrmt.m = 3\nrmt.m_list = 1, 2\nrmt.n = 8\n"
                   "rmt.trials = 2\nrmt.grid_points = 16\n")
    script = (
        "import sys\n"
        "import bnlab.harness.cli, bnlab.rmt\n"
        "def unloaded():\n"
        "    assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        "unloaded()\n"
        "for command in ('rmt-density', 'rmt-spectrum', 'rmt-condition'):\n"
        f"    assert bnlab.harness.cli.main([command, '--config', {str(cfg)!r},\n"
        f"                                   '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "    unloaded()\n"
        "mass, phi = bnlab.rmt.total_mass(2), bnlab.rmt.phi_of_x(2, 1.0)\n"
        "unloaded()\n"
        "print(mass, phi)\n"
    )
    src = os.path.dirname(os.path.dirname(bnlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    mass, phi = map(float, proc.stdout.split())
    assert_allclose(mass, 1.0, atol=1e-8)
    assert_allclose(x_of_phi(2, phi), 1.0, rtol=1e-10)
