"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its headline numbers.

These tests pin the configurations and tolerances the library is promised
to hold; the module tests cover the same ground in finer grain.
"""
import itertools
import json
import os
import time

import numpy as np
from numpy.testing import assert_allclose

from bnlab.diagnostics import (
    class_grad_heatmap,
    classwise_gradient_split,
    depth_moment_profile,
    loss_step_probe,
    sign_coherence,
)
from bnlab.harness.cli import main as cli_main
from bnlab.harness.config import parse_config
from bnlab.harness.data import parse_cifar10_bin, preprocess, synth_dataset
from bnlab.harness.run import emit, load_dataset, run_experiment, run_leg
from bnlab.nn import (
    XAVIER,
    BatchNorm,
    BnComponents,
    Conv3x3,
    Dense,
    GeneralizedNorm,
    NetworkConfig,
    build_network,
    softmax_xent,
)
from bnlab.noise import GradientSet, noise_table
from bnlab.rmt import (
    FussCatalanDensity,
    condition_report,
    density,
    ks_distance,
    sample_product_spectrum,
    support_upper,
    total_mass,
)
from bnlab.tensor import SeededRng
from bnlab.errors import FormatError


def _report(num, slug, ok, detail=""):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {slug}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# finite-difference machinery


def _fd(f, arr, eps=1e-6):
    """Central finite differences of scalar f with respect to arr, in place."""
    g = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        keep = arr[i]
        arr[i] = keep + eps
        hi = f()
        arr[i] = keep - eps
        lo = f()
        arr[i] = keep
        g[i] = (hi - lo) / (2 * eps)
    return g


def _check_layer(layer, x, rtol=1e-6):
    """FD-check input and parameter gradients of sum(R * layer(x))."""
    gen = SeededRng(3).generator()
    out = layer.forward(x, train=True, update_stats=False)
    R = gen.normal(size=out.shape)

    def loss():
        return float((layer.forward(x, train=True, update_stats=False) * R).sum())

    loss()  # leave a fresh cache in place
    dx = layer.backward(R)
    assert_allclose(dx, _fd(loss, x), rtol=rtol, atol=1e-9)
    for p in layer.params():
        got = p.grad.copy()
        assert_allclose(got, _fd(loss, p.value), rtol=rtol, atol=1e-9)


def test_criterion_01_gradient_correctness():
    t0 = time.time()
    gen = SeededRng(1).generator()

    _check_layer(Dense(4, 3, SeededRng(11), XAVIER, "d"), gen.normal(size=(5, 4)))
    _check_layer(Conv3x3(2, 3, SeededRng(12), XAVIER, "c"), gen.normal(size=(2, 2, 3, 3)))
    for flags in itertools.product((False, True), repeat=4):
        comp = BnComponents(*flags)
        bn = BatchNorm(2, components=comp, name="bn")
        _check_layer(bn, gen.normal(size=(3, 2, 2, 2), loc=0.3, scale=1.2))
    for grouping, groups in (("layer", None), ("instance", None), ("group", 2)):
        gn = GeneralizedNorm(4, grouping, groups=groups, name="gn")
        _check_layer(gn, gen.normal(size=(3, 4, 2, 2)))

    logits = gen.normal(size=(4, 5))
    labels = gen.integers(0, 5, size=4)
    _, grad = softmax_xent(logits, labels)
    fd = _fd(lambda: softmax_xent(logits, labels)[0], logits)
    assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    cfg = NetworkConfig(depth=6, kind="conv", width=4, class_count=3,
                        input_shape=(2, 4, 4), norm="batch")
    net = build_network(cfg, SeededRng(5))
    x = gen.normal(size=(3, 2, 4, 4))
    y = gen.integers(0, 3, size=3)
    net.loss_and_grad(x, y, update_stats=False)
    got = net.flat_grads()
    theta = net.flat_params()
    fd = np.zeros_like(theta)
    eps = 1e-5
    for i in range(theta.size):
        keep = theta[i]
        theta[i] = keep + eps
        net.set_flat_params(theta)
        hi = net.loss_only(x, y)
        theta[i] = keep - eps
        net.set_flat_params(theta)
        lo = net.loss_only(x, y)
        theta[i] = keep
        fd[i] = (hi - lo) / (2 * eps)
    net.set_flat_params(theta)
    assert_allclose(got, fd, rtol=1e-4, atol=1e-9)

    elapsed = time.time() - t0
    _report(1, "gradient-correctness", elapsed < 60,
            f"{theta.size} end-to-end params, {elapsed:.1f}s")


def test_criterion_02_bn_postcondition():
    gen = SeededRng(2).generator()
    worst_mean, worst_var = 0.0, 0.0
    for shape in ((8, 3, 1, 1), (4, 2, 2, 1), (16, 5, 4, 4), (2, 3, 2, 2), (32, 4)):
        x = gen.normal(loc=gen.normal(), scale=1.0 + gen.random(), size=shape)
        bn = BatchNorm(shape[1], name="bn")
        bn.forward(x, train=True, update_stats=True)
        xhat = bn.cache.xhat
        axes = (0, 2, 3) if x.ndim == 4 else (0,)
        var_x = x.var(axis=axes)
        assert var_x.min() > 1e-3
        mean_err = float(np.abs(xhat.mean(axis=axes)).max())
        var_err = float(np.abs(xhat.var(axis=axes) - var_x / (var_x + bn.eps)).max())
        worst_mean = max(worst_mean, mean_err)
        worst_var = max(worst_var, var_err)
    _report(2, "bn-postcondition", worst_mean < 1e-8 and worst_var < 1e-6,
            f"max |mean|={worst_mean:.2e}, max var err={worst_var:.2e}")


def test_criterion_03_density_reduction():
    xs = np.linspace(0.0, 4.0, 1002)[1:-1]
    mp = np.sqrt(4.0 - xs) / (2 * np.pi * np.sqrt(xs))
    assert_allclose(density(1, xs), mp, rtol=1e-10)
    masses = {m: total_mass(m) for m in range(1, 6)}
    mass_ok = all(abs(v - 1.0) < 1e-6 for v in masses.values())
    edges_ok = support_upper(1) == 4.0 and support_upper(2) == 27.0 / 4.0
    edges_ok = edges_ok and all(
        support_upper(m) == (m + 1) ** (m + 1) / m**m for m in range(1, 6)
    )
    _report(3, "density-reduction", mass_ok and edges_ok,
            f"masses={[f'{v:.8f}' for v in masses.values()]}")


def test_criterion_04_spectrum_match():
    t0 = time.time()
    d1 = ks_distance(
        sample_product_spectrum(1, 512, trials=10, seed=7).eigenvalues,
        FussCatalanDensity(1).cdf,
    )
    d3 = ks_distance(
        sample_product_spectrum(3, 512, trials=10, seed=8).eigenvalues,
        FussCatalanDensity(3).cdf,
    )
    elapsed = time.time() - t0
    _report(4, "spectrum-match", d1 < 0.02 and d3 < 0.03 and elapsed < 300,
            f"KS(M=1)={d1:.4f}, KS(M=3)={d3:.4f}, {elapsed:.1f}s")


def test_criterion_05_condition_growth():
    samples = [sample_product_spectrum(m, 200, trials=5, seed=11) for m in (1, 2, 4, 8)]
    rows = condition_report(samples).summaries
    kappa_up = all(a.median_kappa < b.median_kappa for a, b in zip(rows, rows[1:]))
    smax_up = all(a.median_sigma_max < b.median_sigma_max for a, b in zip(rows, rows[1:]))
    _report(5, "condition-growth", kappa_up and smax_up,
            "kappa medians " + " < ".join(f"{r.median_kappa:.2e}" for r in rows))


def test_criterion_06_sgd_noise():
    toy = GradientSet(np.array([[1.0], [2.0], [3.0], [6.0]]))
    pairs = list(itertools.product(range(4), repeat=2))
    mean_g = toy.matrix.mean(axis=0)
    enum = np.mean([
        float(((toy.matrix[[i, j]].mean(axis=0) - mean_g) ** 2).sum())
        for i, j in pairs
    ])
    (s,) = noise_table(toy, [1.0], [2], trials=100_000, seed=5)
    exact_ok = (
        enum == 1.75
        and s.noise_constant == 3.5
        and s.bound == 1.75
        and s.closed_form == 0.875
    )
    mc_ok = abs(s.mc_with_estimate - 1.75) <= 4 * s.mc_with_std_err

    gen = SeededRng(21).generator()
    X = gen.normal(size=(100, 8))
    w_true = gen.normal(size=8)
    y = X @ w_true + gen.normal(scale=0.5, size=100)
    resid = X @ gen.normal(size=8) - y
    gs = GradientSet(resid[:, None] * X)
    bound_ok = True
    for r in noise_table(gs, (0.1, 1.0), (1, 5, 25), trials=20_000, seed=3):
        bound_ok &= r.closed_form <= r.bound
        bound_ok &= abs(r.mc_with_estimate - r.bound) <= 4 * r.mc_with_std_err
        bound_ok &= r.mc_without_estimate <= r.bound + 4 * r.mc_without_std_err
    hi, lo = noise_table(gs, (1.0, 0.1), (5,), trials=2_000, seed=9)
    ratio = hi.mc_with_estimate / lo.mc_with_estimate
    ratio_ok = abs(ratio - 100.0) <= 1.0

    _report(6, "sgd-noise", exact_ok and mc_ok and bound_ok and ratio_ok,
            f"enum={enum}, mc={s.mc_with_estimate:.4f}±{s.mc_with_std_err:.4f}, "
            f"alpha ratio={ratio:.10f}")


_DIVERGENCE_CFG = """
network.depth = 20
network.width = 12
network.residual = true
network.norm = {norm}
dataset.classes = 10
dataset.per_class = 32
dataset.shape = 3,8,8
dataset.separation = 10.0
train.batch_size = 64
train.base_lr = 0.1
train.epochs = 40
train.schedule = none
train.seed = {seed}
"""


def test_criterion_07_divergence_reproduction():
    t0 = time.time()
    outcomes = {}
    for norm in ("none", "batch"):
        legs = []
        for seed in range(5):
            cfg = parse_config(_DIVERGENCE_CFG.format(norm=norm, seed=seed))
            train, test = load_dataset(cfg)
            legs.append(run_leg(cfg, cfg.base_lr, 0, train, test))
        outcomes[norm] = legs
    diverged = [
        leg.diverged and leg.event.step <= 200 for leg in outcomes["none"]
    ]
    completed = [
        (not leg.diverged)
        and leg.steps == 200
        and max(row[3] for row in leg.metrics) < 1e3
        for leg in outcomes["batch"]
    ]
    elapsed = time.time() - t0
    ok = sum(diverged) >= 4 and sum(completed) >= 4 and elapsed < 600
    steps = [leg.event.step if leg.diverged else None for leg in outcomes["none"]]
    _report(7, "divergence-reproduction", ok,
            f"unnorm diverged {sum(diverged)}/5 at steps {steps}, "
            f"bn completed {sum(completed)}/5, {elapsed:.0f}s")


def test_criterion_08_moment_growth():
    train = synth_dataset(10, 32, shape=(3, 16, 16), separation=10.0, seed=0)
    (train,) = preprocess(train)
    x = train.images[:64]
    ratios = {}
    for norm in ("none", "batch"):
        ratios[norm] = []
        for seed in range(5):
            cfg = NetworkConfig(depth=20, kind="conv", width=12, class_count=10,
                                input_shape=(3, 16, 16), norm=norm, residual=True)
            net = build_network(cfg, SeededRng(seed).child(100))
            ratios[norm].append(depth_moment_profile(net, x).variance_ratio())
    grew = sum(r >= 10.0 for r in ratios["none"])
    bn_ok = all(0.5 <= r <= 2.0 for r in ratios["batch"])
    _report(8, "moment-growth", grew >= 4 and bn_ok,
            f"unnorm ratios {[f'{r:.1f}' for r in ratios['none']]}, "
            f"bn ratios {[f'{r:.2f}' for r in ratios['batch']]}")


def test_criterion_09_coherence_ordering():
    train = synth_dataset(10, 32, shape=(3, 8, 8), separation=10.0, seed=0)
    (train,) = preprocess(train)
    x, y = train.images[:64], train.labels[:64]
    medians = {}
    chain_ok = True
    for norm in ("none", "batch"):
        cfg = NetworkConfig(depth=20, kind="conv", width=12, class_count=10,
                            input_shape=(3, 8, 8), norm=norm, residual=True)
        net = build_network(cfg, SeededRng(0).child(100))
        rows = sign_coherence(net, x, y)
        medians[norm] = float(np.median([r.ratio for r in rows]))
        for r in rows:
            slack = 1e-9 * r.abs_sum
            chain_ok &= r.abs_sum + slack >= r.batch_partial >= r.net_abs - slack
            chain_ok &= r.abs_sum + slack >= r.spatial_partial >= r.net_abs - slack
    gap = medians["batch"] / medians["none"]
    _report(9, "coherence-ordering", gap >= 5.0 and chain_ok,
            f"bn median {medians['batch']:.1f} vs unnorm {medians['none']:.2f} "
            f"({gap:.1f}x), chain {'held' if chain_ok else 'broken'}")


def test_criterion_10_class_heatmap():
    cfg = NetworkConfig(depth=6, kind="conv", width=4, class_count=5,
                        input_shape=(2, 4, 4), norm="batch")
    net = build_network(cfg, SeededRng(4))
    gen = SeededRng(40).generator()
    ok = True
    worst = 0.0
    for _ in range(3):
        x = gen.normal(size=(16, 2, 4, 4))
        labels = gen.integers(0, 5, size=16)
        hm = class_grad_heatmap(net, x, labels)
        sums = np.abs(hm.matrix.sum(axis=1))
        worst = max(worst, float(sums.max()))
        ok &= bool((sums < 1e-10).all())
        neg = hm.matrix < 0
        ok &= bool((neg.sum(axis=1) == 1).all())
        ok &= bool((np.argmin(hm.matrix, axis=1) == labels).all())
        ok &= bool(neg[np.arange(16), labels].all())
    _report(10, "class-heatmap", ok, f"max |row sum| = {worst:.2e}")


def test_criterion_11_masking_decomposition():
    cfg = NetworkConfig(depth=6, kind="conv", width=4, class_count=4,
                        input_shape=(2, 4, 4), norm="batch")
    net = build_network(cfg, SeededRng(14))
    gen = SeededRng(41).generator()
    x = gen.normal(size=(8, 2, 4, 4))
    labels = gen.integers(0, 4, size=8)
    net.loss_and_grad(x, labels, update_stats=False)
    full = net.flat_grads().copy()
    parts = classwise_gradient_split(net, x, labels)
    total = np.sum([p.flat for p in parts], axis=0)
    err = float(np.abs(total - full).max())
    _report(11, "masking-decomposition", err < 1e-10, f"max |err| = {err:.2e}")


class _Quadratic:
    """loss(theta) = 0.5 theta.theta, so a full gradient step scales by 1-alpha."""

    def __init__(self, theta):
        self.theta = np.asarray(theta, dtype=np.float64).copy()

    def flat_params(self):
        return self.theta.copy()

    def set_flat_params(self, v):
        self.theta = np.asarray(v, dtype=np.float64).copy()

    def loss_on(self, batch):
        return 0.5 * float(self.theta @ self.theta)

    def grad_on(self, batch):
        return self.theta.copy()


def test_criterion_12_probe_safety():
    cfg = NetworkConfig(depth=4, kind="conv", width=4, class_count=3,
                        input_shape=(2, 4, 4), norm="batch")
    net = build_network(cfg, SeededRng(15))
    gen = SeededRng(42).generator()
    batch = (gen.normal(size=(6, 2, 4, 4)), gen.integers(0, 3, size=6))
    before = net.flat_params().copy()
    curve = loss_step_probe(net, batch, [0.0, 1e-3, 0.1, 1.0, 10.0])
    bit_identical = bool(np.array_equal(net.flat_params(), before))
    at_zero = curve.relative[curve.alphas == 0.0][0]

    alphas = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
    quad = loss_step_probe(_Quadratic([3.0, -1.0, 0.5]), None, alphas)
    quad_err = float(np.abs(quad.relative - (1.0 - alphas) ** 2).max())
    ok = bit_identical and at_zero == 1.0 and quad_err < 1e-12
    _report(12, "probe-safety", ok,
            f"params bit-identical={bit_identical}, rel(0)={at_zero}, "
            f"quad err={quad_err:.1e}")


def test_criterion_13_parser_fidelity(tmp_path):
    gen = SeededRng(43).generator()
    labels = np.array([7, 0], dtype=np.uint8)
    pixels = gen.integers(0, 256, size=(2, 3072), dtype=np.uint8)
    blob = b"".join(bytes([labels[i]]) + pixels[i].tobytes() for i in range(2))
    ds = parse_cifar10_bin(blob)
    rebuilt = b"".join(
        bytes([int(ds.labels[i])])
        + ds.images[i].astype(np.uint8).reshape(3072).tobytes()
        for i in range(2)
    )
    round_trip = rebuilt == blob

    length_err = label_err = False
    try:
        parse_cifar10_bin(blob[:-1])
    except FormatError as e:
        length_err = "3073" in str(e)
    bad = blob[:3073] + bytes([12]) + blob[3074:]
    try:
        parse_cifar10_bin(bad)
    except FormatError as e:
        label_err = "record 1" in str(e)

    path = tmp_path / "batch.bin"
    path.write_bytes(blob)
    from_file = parse_cifar10_bin(str(path))
    file_ok = bool(
        np.array_equal(from_file.images, ds.images)
        and np.array_equal(from_file.labels, ds.labels)
    )
    _report(13, "parser-fidelity", round_trip and length_err and label_err and file_ok,
            f"round_trip={round_trip}, errors raised={length_err and label_err}")


_SMALL_RUN = """
network.depth = 2
network.width = 6
dataset.classes = 3
dataset.per_class = 16
dataset.test_per_class = 6
train.batch_size = 8
train.epochs = 1
train.seed = 12
diagnostics.moments = 2
diagnostics.probe = 4
"""


def test_criterion_14_determinism(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        cfg = parse_config(_SMALL_RUN)
        art = run_experiment(cfg)
        out = tmp_path / tag
        emit(art, str(out))
        csvs = {}
        for root, _, names in os.walk(out):
            for name in sorted(names):
                if name.endswith(".csv"):
                    rel = os.path.relpath(os.path.join(root, name), out)
                    csvs[rel] = open(os.path.join(root, name), "rb").read()
        blobs.append(csvs)
    same_files = sorted(blobs[0]) == sorted(blobs[1])
    identical = same_files and all(blobs[0][k] == blobs[1][k] for k in blobs[0])

    rmt_cfg = tmp_path / "rmt.cfg"
    rmt_cfg.write_text("network.depth = 1\nrmt.m = 2\nrmt.n = 24\nrmt.trials = 3\n")
    spectra = []
    for tag in ("ra", "rb"):
        out = tmp_path / tag
        assert cli_main(["rmt-spectrum", "--config", str(rmt_cfg),
                         "--out", str(out)]) == 0
        spectra.append(open(out / "spectrum.csv", "rb").read())
    _report(14, "determinism", identical and spectra[0] == spectra[1],
            f"{len(blobs[0])} csv files byte-identical, spectrum re-run identical")
