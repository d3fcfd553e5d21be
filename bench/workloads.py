"""The benchmark's three workloads.

Each workload parses its configs, made from the run's seed, in its
constructor (the set-up). A round runs the matching CLI subcommands through
the CLI's own dispatch table, each into its own artifact directory, exactly
as `bnlab <command> --config ... --out ...` would. The checks read the
artifacts back (CSVs are written with 17 significant digits, so they hold
the full float64 values) and recompute, outside the timed rounds, whatever
the artifacts do not hold.
"""
from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import json
import os
import shutil
import sys
import traceback

import numpy as np

from bnlab import diagnostics, nn, noise, rmt, tensor
from bnlab.harness import cli
from bnlab.harness import config as hconfig
from bnlab.harness import run as hrun

import checks

# Criterion 07's config: depth-20, width-12 residual twins at lr 0.1, b = 64.
TWIN_CONFIG = """
network.depth = 20
network.width = 12
network.residual = true
network.norm = {norm}
dataset.kind = synthetic
dataset.classes = 10
dataset.per_class = 32
dataset.shape = 3,8,8
train.batch_size = 64
train.base_lr = 0.1
train.epochs = {epochs}
train.schedule = none
train.seed = {seed}
train.divergence_threshold = 1e3
diagnostics.moments = 50
"""

# configs/noise_bound.cfg with enough examples that per-example gradients
# and the Monte Carlo cells each take a sizable share of a round.
NOISE_CONFIG = """
network.depth = 4
network.width = 8
network.norm = {norm}
dataset.kind = synthetic
dataset.classes = 10
dataset.per_class = {per_class}
dataset.shape = 3,8,8
noise.examples = {examples}
noise.batch_sizes = 1, 4, 16, 64
noise.lrs = 0.001, 0.01, 0.1, 1.0
noise.trials = {trials}
train.seed = {seed}
"""

RMT_CONFIG = """
network.depth = 4
rmt.m = {m}
rmt.m_list = 1, 2, 4, 8
rmt.n = {n}
rmt.trials = {trials}
rmt.grid_points = 400
train.seed = {seed}
"""


class Ops:
    """Counts operations; a failing one is recorded and the round goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, fn) -> None:
        self.attempted += 1
        try:
            code = fn()
        except Exception:  # one failed operation must not end the run
            code = traceback.format_exc()
        if code != 0:
            self.failed += 1
            print(f"operation {label} failed: {code}", file=sys.stderr)


def csv_digest(root: str) -> str:
    """sha256 over every CSV file under root, by path relative to root."""
    h = hashlib.sha256()
    paths = sorted(os.path.relpath(os.path.join(d, f), root)
                   for d, _, files in os.walk(root) for f in files if f.endswith(".csv"))
    for rel in paths:
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def read_csv(path: str) -> dict[str, list[str]]:
    """Column name -> the column's cells."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def floats(cells) -> np.ndarray:
    return np.array([float(c) for c in cells], dtype=np.float64)


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_check(name: str, fn):
    """fn() -> (name, passed, detail); a check whose input is missing fails."""
    try:
        return fn()
    except Exception as exc:  # an artifact that is absent or malformed
        return (name, False, f"could not run: {type(exc).__name__}: {exc}")


class Workload:
    name = ""

    def __init__(self, out_dir: str):
        self.artifacts = os.path.join(out_dir, "artifacts")
        self.ops = Ops()
        self.commands: list[tuple] = []  # (label, CLI command, config, artifact subdirectory)

    def prepare(self) -> None:
        """Clear the previous round's artifacts; runs outside the timed round."""
        shutil.rmtree(self.artifacts, ignore_errors=True)

    def run_round(self) -> None:
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries only the result
            for label, command, cfg, sub in self.commands:
                self.ops.run(label, lambda: self._command(command, cfg, sub))
                # A CLI command runs in a process of its own. BN layers and
                # their caches form reference cycles, so without this their
                # arrays outlive the command until the cycle collector runs,
                # at a point that differs from run to run.
                gc.collect()

    def _command(self, command, cfg, sub) -> int:
        out = self.path(sub)
        os.makedirs(out, exist_ok=True)
        return cli._DISPATCH[command](cfg, out)

    def path(self, *parts) -> str:
        return os.path.join(self.artifacts, *parts)


class DivergenceTwins(Workload):
    """`bnlab train` on unnormalized legs until their divergence is captured,
    and on a BN twin.

    An unnormalized leg's length depends on its seed (divergence at step
    1-6), so a round runs eight of them; the BN twin of the first trains a
    fixed 50 steps, enough for its test accuracy to clear chance by far.
    """

    name = "divergence-twins"
    TWINS = 8
    UNNORM_EPOCHS = 40  # criterion 07's 200-step budget
    BN_EPOCHS = 10

    def __init__(self, seed, out_dir):
        super().__init__(out_dir)
        self.pairs = []
        for j in range(self.TWINS):
            s = seed * 100 + j
            u = hconfig.parse_config(TWIN_CONFIG.format(norm="none", epochs=self.UNNORM_EPOCHS, seed=s))
            b = hconfig.parse_config(TWIN_CONFIG.format(norm="batch", epochs=self.BN_EPOCHS, seed=s))
            self.pairs.append((u, b))
            self.commands.append((f"unnorm leg {j}", "train", u, f"twin{j}/none"))
        self.commands.append(("bn leg 0", "train", self.pairs[0][1], "twin0/batch"))

    def leg_summary(self, sub: str, cfg) -> dict:
        """What the checks need of one `train` run, read from its artifacts."""
        summary = read_json(self.path(sub, "summary.json"))
        leg = summary["legs"][0]
        leg_dir = self.path(sub, leg["dir"])
        out = {
            "diverged": leg["diverged"],
            "steps": leg["steps"],
            "budget": cfg.epochs * (summary["meta"]["train_examples"] // cfg.batch_size),
            "threshold": cfg.divergence_threshold,
            "losses": floats(read_csv(os.path.join(leg_dir, "metrics.csv"))["loss"]),
            "final_test_acc": float("nan") if leg["final_test_acc"] is None else leg["final_test_acc"],
            "event_step": None, "fractions": None, "last_tap_variance": None,
        }
        if leg["diverged"]:
            event = read_json(os.path.join(leg_dir, "divergence.json"))
            moments = read_csv(os.path.join(leg_dir, "divergence_moments.csv"))
            last = {}  # fraction -> the last tap's variance (rows run by layer)
            for f, v in zip(moments["fraction"], moments["mean_variance"]):
                last[float(f)] = float(v)
            out.update(event_step=event["step"], fractions=tuple(event["fractions"]),
                       last_tap_variance=[last[f] for f in event["fractions"]])
        return out

    def check(self) -> list:
        results = []
        for u, b in self.pairs:
            weights = []
            for cfg in (u, b):
                net = nn.build_network(cfg.network, tensor.SeededRng(cfg.seed).child(100))
                weights.append({p.name: p.value for p in net.params()})
            results.append(checks.twin_weights(*weights))
        for j, (u, _) in enumerate(self.pairs):
            results.append(run_check(f"unnormalized leg {j}",
                                     lambda: checks.unnorm_leg(self.leg_summary(f"twin{j}/none", u))))
        b = self.pairs[0][1]
        results.append(run_check("bn leg", lambda: checks.bn_leg(self.leg_summary("twin0/batch", b))))
        return results


class InitAnalysis(Workload):
    """The at-init CLI analyses on both depth-20 twins, then noise-bound tables."""

    name = "init-analysis"
    EXAMPLES = 1280
    TRIALS = 400
    NORMS = ("none", "batch")

    def __init__(self, seed, out_dir):
        super().__init__(out_dir)
        self.twins, self.noise, self.gradients = {}, {}, {}
        for norm in self.NORMS:
            cfg = self.twins[norm] = hconfig.parse_config(TWIN_CONFIG.format(norm=norm, epochs=1, seed=seed))
            for command in ("init-moments", "probe-loss", "coherence", "class-heatmap"):
                self.commands.append((f"{command} {norm}", command, cfg, f"twin-{norm}"))
            self.noise[norm] = hconfig.parse_config(NOISE_CONFIG.format(
                norm=norm, per_class=self.EXAMPLES // 10, examples=self.EXAMPLES,
                trials=self.TRIALS, seed=seed))
        for norm in self.NORMS:
            self.commands.append((f"noise-bound {norm}", "noise-bound", self.noise[norm], f"noise-{norm}"))

    def _variance_ratio(self, norm) -> float:
        v = floats(read_csv(self.path(f"twin-{norm}", "moments.csv"))["mean_variance"])
        return v[-1] / v[0]

    def _coherence(self, norm) -> list:
        t = read_csv(self.path(f"twin-{norm}", "coherence.csv"))
        cols = [floats(t[c]) for c in ("abs_sum", "batch_partial", "spatial_partial", "net_abs", "ratio")]
        return [tuple(row) for row in zip(*cols)]

    def _probe(self, norm):
        t = read_csv(self.path(f"twin-{norm}", "probe.csv"))
        # the parameter restore is seen only from inside: rerun the probe untimed
        net, batch, _, _ = cli._init_state(self.twins[norm])
        before = net.flat_params().tobytes()
        diagnostics.loss_step_probe(net, batch, hrun.PROBE_ALPHAS)
        return checks.probe(floats(t["alpha"]), floats(t["relative_loss"]),
                            net.flat_params().tobytes() == before)

    def _heatmap(self, norm):
        t = read_csv(self.path(f"twin-{norm}", "heatmap.csv"))
        classes = sorted((c for c in t if c.startswith("class_")), key=lambda c: int(c[6:]))
        matrix = np.column_stack([floats(t[c]) for c in classes])
        return checks.heatmap(matrix, np.array([int(v) for v in t["label"]]))

    def _gradients(self, norm):
        """Network, inputs and per-example gradients of a noise table.

        The gradient matrix is not an artifact, so it is recomputed here,
        outside the timed rounds.
        """
        if norm not in self.gradients:
            cfg = self.noise[norm]
            net, _, train, _ = cli._init_state(cfg)
            n = cfg.noise.examples
            x, y = train.images[:n], train.labels[:n]
            self.gradients[norm] = (net, x, y, noise.per_example_gradients(net, x, y).matrix)
        return self.gradients[norm]

    def _noise_table(self, norm):
        t = read_csv(self.path(f"noise-{norm}", "noise.csv"))
        columns = ("lr", "batch_size", "noise_constant", "bound", "closed_form",
                   "mc_with_estimate", "mc_with_std_err", "mc_without_estimate", "mc_without_std_err")
        return checks.noise_table(self._gradients(norm)[3], list(zip(*[floats(t[c]) for c in columns])))

    def _per_example_mean(self):
        net, x, y, g = self._gradients("none")
        net.loss_and_grad(x, y, update_stats=False)
        return checks.per_example_mean(g, net.flat_grads())

    def check(self) -> list:
        results = [
            run_check("variance ratio last/first", lambda: checks.moments(
                self._variance_ratio("none"), self._variance_ratio("batch"))),
            run_check("bn summands cancel more", lambda: checks.coherence_gap(
                self._coherence("none"), self._coherence("batch"))),
        ]
        for norm in self.NORMS:
            results += [
                run_check(f"coherence chain {norm}", lambda: checks.coherence_chain(self._coherence(norm))),
                run_check(f"probe {norm}", lambda: self._probe(norm)),
                run_check(f"heatmap {norm}", lambda: self._heatmap(norm)),
                run_check(f"noise table {norm}", lambda: self._noise_table(norm)),
            ]
        # on the unnormalized twin the per-example rows average to the minibatch gradient
        results.append(run_check("per-example mean", self._per_example_mean))
        return results


class RmtSpectra(Workload):
    """rmt-density and rmt-spectrum for each M of the list, then rmt-condition."""

    name = "rmt-spectra"
    N = 256
    TRIALS = 10

    def __init__(self, seed, out_dir):
        super().__init__(out_dir)
        self.cfgs = {}
        for m in (1, 2, 4, 8):
            cfg = hconfig.parse_config(RMT_CONFIG.format(m=m, n=self.N, trials=self.TRIALS, seed=seed))
            self.cfgs[m] = cfg
            self.commands.append((f"rmt-density m={m}", "rmt-density", cfg, f"m{m}"))
            self.commands.append((f"rmt-spectrum m={m}", "rmt-spectrum", cfg, f"m{m}"))
        self.commands.append(("rmt-condition", "rmt-condition", self.cfgs[1], "condition"))

    def _quarter_circle(self):
        t = read_csv(self.path("m1", "density.csv"))
        return checks.quarter_circle(floats(t["x"]), floats(t["density"]))

    def _spectrum(self, m):
        eigenvalues = floats(read_csv(self.path(f"m{m}", "spectrum.csv"))["eigenvalue"])
        summary = read_json(self.path(f"m{m}", "spectrum_summary.json"))
        return checks.spectrum_ks(eigenvalues, rmt.FussCatalanDensity(m).cdf, self.N,
                                  summary["ks_distance_to_limit"])

    def _condition(self):
        t = read_csv(self.path("condition", "condition_summary.csv"))
        return checks.condition_growth(list(zip(
            [int(m) for m in t["m"]], floats(t["median_kappa"]), floats(t["median_sigma_max"]))))

    def check(self) -> list:
        results = [
            run_check("M=1 density is the quarter-circle law", self._quarter_circle),
            checks.total_masses({m: rmt.total_mass(m) for m in self.cfgs}),
        ]
        results += [run_check(f"spectrum m={m}", lambda: self._spectrum(m)) for m in self.cfgs]
        results.append(run_check("median kappa and sigma_max rise with M", self._condition))
        return results


WORKLOADS = {w.name: w for w in (DivergenceTwins, InitAnalysis, RmtSpectra)}
