"""Each correctness check passes on a sound result and fails on a corrupted one."""
import copy

import numpy as np
import pytest

import checks
import workloads
from bnlab.diagnostics import heatmap_from_logits
from bnlab.noise import GradientSet, noise_summary
from bnlab.rmt import FussCatalanDensity, density, ks_distance, sample_product_spectrum


def _passes(result):
    name, ok, detail = result
    assert isinstance(name, str) and isinstance(detail, str)
    return ok


def _unnorm():
    return {
        "diverged": True, "steps": 3, "budget": 200, "threshold": 1e3, "event_step": 3,
        "fractions": checks.FRACTIONS, "last_tap_variance": [29.1, 28.6, 9.4e3, 6.3e9, 1.1e14],
        "losses": [2.3, 2.9, 7.1], "final_test_acc": float("nan"),
    }


def _bn():
    losses = list(np.linspace(2.3, 0.01, 50))
    return {
        "diverged": False, "steps": 50, "budget": 50, "threshold": 1e3, "event_step": None,
        "fractions": None, "last_tap_variance": None, "losses": losses, "final_test_acc": 0.9,
    }


def test_unnorm_leg():
    assert _passes(checks.unnorm_leg(_unnorm()))
    for corrupt in (
        {"diverged": False, "event_step": None},
        {"event_step": 201},
        {"fractions": (0.0, 0.5, 1.0)},
        {"last_tap_variance": [1e14, 1e10, 1e6, 1e3, 29.0]},
    ):
        s = _unnorm()
        s.update(corrupt)
        assert not _passes(checks.unnorm_leg(s)), corrupt


def test_bn_leg():
    assert _passes(checks.bn_leg(_bn()))
    s = _bn()
    s["losses"][20] = 1.5e3  # a logged loss above the threshold
    assert not _passes(checks.bn_leg(s))
    for corrupt in ({"steps": 49}, {"diverged": True}, {"final_test_acc": 0.12}):
        s = _bn()
        s.update(corrupt)
        assert not _passes(checks.bn_leg(s)), corrupt
    s = _bn()
    s["losses"][-1] = 1.9
    assert not _passes(checks.bn_leg(s))


def test_twin_weights():
    gen = np.random.default_rng(0)
    unnorm = {"block0.conv1.kernel": gen.normal(size=(4, 3, 3, 3)), "head.weight": gen.normal(size=(4, 2)),
              "head.bias": np.zeros(2)}
    bn = copy.deepcopy(unnorm)
    bn["block0.norm1.gamma"] = np.ones(4)
    assert _passes(checks.twin_weights(unnorm, bn))
    bn["block0.conv1.kernel"][0, 0, 0, 0] += 1e-12
    assert not _passes(checks.twin_weights(unnorm, bn))


def test_moments():
    assert _passes(checks.moments(15.3, 1.32))
    assert not _passes(checks.moments(2.0, 1.1))
    assert not _passes(checks.moments(15.3, 2.5))


def test_coherence():
    rows = [(4.0, 2.0, 3.0, 1.0, 4.0), (9.0, 5.0, 5.0, 0.5, 18.0)]
    assert _passes(checks.coherence_chain(rows))
    assert not _passes(checks.coherence_chain([(4.0, 4.5, 3.0, 1.0, 4.0)]))
    assert not _passes(checks.coherence_chain([(4.0, 2.0, 0.5, 1.0, 4.0)]))
    bn = [(1, 1, 1, 1, 30.0)] * 3
    assert _passes(checks.coherence_gap([(1, 1, 1, 1, 3.0)] * 3, bn))
    assert not _passes(checks.coherence_gap([(1, 1, 1, 1, 20.0)] * 3, bn))


def test_probe():
    alphas = np.array([0.0, 1e-3, 1.0])
    assert _passes(checks.probe(alphas, np.array([1.0, 0.99, 4.0]), True))
    assert not _passes(checks.probe(alphas, np.array([1.0 + 1e-15, 0.99, 4.0]), True))
    assert not _passes(checks.probe(alphas, np.array([1.0, 0.99, 4.0]), False))


def test_heatmap():
    gen = np.random.default_rng(1)
    labels = gen.integers(0, 5, size=16)
    h = heatmap_from_logits(gen.normal(size=(16, 5)), labels)
    assert _passes(checks.heatmap(h.matrix, labels))
    moved = h.matrix.copy()
    moved[3, 1] += 1e-6  # a row moved off zero sum
    assert not _passes(checks.heatmap(moved, labels))
    assert not _passes(checks.heatmap(h.matrix, (labels + 1) % 5))
    saturated = h.matrix.copy()
    saturated[0] = 0.0  # no negative entry left
    assert not _passes(checks.heatmap(saturated, labels))


def _noise_rows(gs, **corrupt):
    rows = []
    for lr in (0.1, 1.0):
        for b in (1, 4, 16):
            r = noise_summary(gs, lr, b, trials=2000, seed=3)
            row = [lr, b, r.noise_constant, r.bound, r.closed_form,
                   r.with_replacement.estimate, r.with_replacement.std_err,
                   r.without_replacement.estimate, r.without_replacement.std_err]
            for index, factor in corrupt.items():
                row[int(index[1:])] *= factor
            rows.append(tuple(row))
    return rows


def test_noise_table():
    g = np.random.default_rng(2).normal(size=(40, 6))
    gs = GradientSet(g)
    assert _passes(checks.noise_table(g, _noise_rows(gs)))
    assert not _passes(checks.noise_table(g, _noise_rows(gs, c2=1.01)))  # program's C
    assert not _passes(checks.noise_table(g, _noise_rows(gs, c4=1.01)))  # closed form
    assert not _passes(checks.noise_table(g, _noise_rows(gs, c5=1.5)))  # with replacement
    assert not _passes(checks.noise_table(g, _noise_rows(gs, c7=1.5)))  # without replacement


def test_per_example_mean():
    g = np.random.default_rng(3).normal(size=(8, 5))
    assert _passes(checks.per_example_mean(g, g.mean(axis=0)))
    assert not _passes(checks.per_example_mean(g, g.mean(axis=0) * (1 + 1e-9)))


def test_quarter_circle_and_masses():
    xs = np.linspace(0.0, 4.0, 22)[1:-1]
    assert _passes(checks.quarter_circle(xs, density(1, xs)))
    assert not _passes(checks.quarter_circle(xs, density(2, xs * 6.75 / 4.0)))
    assert _passes(checks.total_masses({1: 1.0, 2: 1.0 - 1e-9}))
    assert not _passes(checks.total_masses({1: 1.0, 8: 1.001}))


def test_spectrum_ks():
    sample = sample_product_spectrum(2, 128, trials=2, seed=5)
    right = FussCatalanDensity(2).cdf
    wrong = FussCatalanDensity(1).cdf  # the wrong M's law
    ok = ks_distance(sample.eigenvalues, right)
    assert _passes(checks.spectrum_ks(sample.eigenvalues, right, 128, ok))
    bad = ks_distance(sample.eigenvalues, wrong)
    assert not _passes(checks.spectrum_ks(sample.eigenvalues, wrong, 128, bad))
    assert not _passes(checks.spectrum_ks(sample.eigenvalues, right, 128, ok + 1e-6))


@pytest.mark.parametrize("swap", [1, 2])
def test_condition_growth(swap):
    rows = [(1, 1e3, 2.0), (2, 3e4, 2.6), (4, 4e7, 3.4), (8, 3e13, 4.5)]
    assert _passes(checks.condition_growth(rows))
    bad = [list(r) for r in rows]
    bad[1][swap], bad[2][swap] = bad[2][swap], bad[1][swap]
    assert not _passes(checks.condition_growth([tuple(r) for r in bad]))


@pytest.mark.parametrize("workload, needs_no_artifact", [
    (workloads.RmtSpectra, 1),  # total masses
    (workloads.DivergenceTwins, 8),  # twin weights
])
def test_a_check_whose_artifact_is_missing_fails(tmp_path, workload, needs_no_artifact):
    results = workload(0, str(tmp_path)).check()
    failed = [detail for _, ok, detail in results if not ok]
    assert len(failed) == len(results) - needs_no_artifact
    assert all(detail.startswith("could not run") for detail in failed)
