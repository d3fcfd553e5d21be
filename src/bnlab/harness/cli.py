"""Command-line entry point.

Subcommands: train, probe-loss, rmt-density, rmt-spectrum, rmt-condition,
noise-bound, init-moments, coherence, class-heatmap. Each takes --config
(path to a key = value config file) and --out (artifact directory,
defaulting to the config's out.dir); --seed overrides the config's seed.
Exit codes: 0 success (a recorded divergence is a success), 1 config error,
2 runtime, I/O or out-of-memory error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

# depth_moment_profile is re-exported: bench/ looks it up here
from ..diagnostics import INSTRUMENTS, depth_moment_profile  # noqa: F401
from ..errors import BnlabError, ConfigError
from ..noise import NoiseRow, noise_table, per_example_gradients
from ..rmt import (ConditionEntry, ConditionSummary, FussCatalanDensity, condition_report,
                   density, ks_distance, sample_product_spectra, sample_product_spectrum,
                   support_upper)
from .config import ExperimentConfig, parse_config_file
from .run import _write_json, emit, leg_start, load_dataset, run_experiment, write_csv


def _init_state(cfg: ExperimentConfig):
    """The exact network and batch a sweep's first leg would start from."""
    train, test = load_dataset(cfg)
    return (*leg_start(cfg, 0, train), train, test)


def _cmd_train(cfg: ExperimentConfig, out: str) -> int:
    artifact = run_experiment(cfg)
    emit(artifact, out)
    for i, leg in enumerate(artifact.legs):
        status = "diverged" if leg.diverged else f"test_acc={leg.final_test_acc:.4f}"
        print(f"leg {i} lr={leg.lr:g}: {leg.steps} steps, {status}")
    if artifact.best_index is not None:
        print(f"best leg: {artifact.best_index} (lr={artifact.legs[artifact.best_index].lr:g})")
    else:
        print("best leg: none (all legs diverged)")
    return 0


def _analysis(name: str, filename: str, extra=None):
    """A subcommand that writes instrument `name`'s table for the network
    and batch a sweep's first leg starts from: the step-0 rows of that
    instrument in `train`, without the step column. extra(result, out)
    adds what only the subcommand reports."""

    def command(cfg: ExperimentConfig, out: str) -> int:
        net, batch, _, _ = _init_state(cfg)
        columns, measure, rows = INSTRUMENTS[name]
        result = measure(net, batch)
        write_csv(os.path.join(out, filename), columns, rows(result))
        if extra is not None:
            extra(result, out)
        return 0

    return command


def _print_variance_ratio(prof, out: str) -> None:
    print(f"variance ratio last/first: {prof.variance_ratio():.6g}")


def _write_heatmap_matrix(h, out: str) -> None:
    classes = [f"class_{j}" for j in range(h.matrix.shape[1])]
    rows = [(i, int(label), *map(float, row))
            for i, (label, row) in enumerate(zip(h.labels, h.matrix))]
    write_csv(os.path.join(out, "heatmap.csv"), ("example", "label", *classes), rows)


def _cmd_rmt_density(cfg: ExperimentConfig, out: str) -> int:
    m = cfg.rmt.m
    xs = np.linspace(0.0, support_upper(m), cfg.rmt.grid_points + 2)[1:-1]
    rows = zip(xs.tolist(), density(m, xs).tolist(), FussCatalanDensity(m).cdf(xs).tolist())
    write_csv(os.path.join(out, "density.csv"), ("x", "density", "cdf"), rows)
    return 0


def _cmd_rmt_spectrum(cfg: ExperimentConfig, out: str) -> int:
    r = cfg.rmt
    sample = sample_product_spectrum(r.m, r.n, r.trials, cfg.seed)
    rows = [
        (t, i, float(sample.per_trial[t, i]))
        for t in range(r.trials)
        for i in range(r.n)
    ]
    write_csv(os.path.join(out, "spectrum.csv"), ("trial", "index", "eigenvalue"), rows)
    fc = FussCatalanDensity(r.m)
    _write_json(
        os.path.join(out, "spectrum_summary.json"),
        {
            "m": r.m,
            "n": r.n,
            "trials": r.trials,
            "ks_distance_to_limit": ks_distance(sample.eigenvalues, fc.cdf),
        },
    )
    return 0


def _cmd_rmt_condition(cfg: ExperimentConfig, out: str) -> int:
    r = cfg.rmt
    report = condition_report(sample_product_spectra(r.m_list, r.n, r.trials, cfg.seed))
    write_csv(os.path.join(out, "condition.csv"), ConditionEntry._fields, report.entries)
    write_csv(os.path.join(out, "condition_summary.csv"), ConditionSummary._fields,
              report.summaries)
    return 0


def _cmd_noise_bound(cfg: ExperimentConfig, out: str) -> int:
    z = cfg.noise
    # per-example gradients come in chunks of train.batch_size; a last chunk
    # of one example gives BN one-element regions on dense nets and 1x1 images
    one_pixel = cfg.network.kind == "dense" or math.prod(cfg.network.input_shape[1:]) == 1
    if cfg.network.norm == "batch" and one_pixel and z.examples % cfg.batch_size == 1:
        raise ConfigError(
            f"noise.examples = {z.examples} leaves a last chunk of 1 example at "
            f"train.batch_size = {cfg.batch_size}: batch norm would see one element"
        )
    net, _, train, _ = _init_state(cfg)
    if train.n < z.examples:
        raise ConfigError(
            f"noise.examples = {z.examples} but the training set has {train.n}"
        )
    gs = per_example_gradients(
        net, train.images[: z.examples], train.labels[: z.examples], cfg.batch_size
    )
    write_csv(os.path.join(out, "noise.csv"), NoiseRow._fields,
              noise_table(gs, z.lrs, z.batch_sizes, trials=z.trials, seed=cfg.seed))
    return 0


_DISPATCH = {
    "train": _cmd_train,
    "probe-loss": _analysis("probe", "probe.csv"),
    "rmt-density": _cmd_rmt_density,
    "rmt-spectrum": _cmd_rmt_spectrum,
    "rmt-condition": _cmd_rmt_condition,
    "noise-bound": _cmd_noise_bound,
    "init-moments": _analysis("moments", "moments.csv", _print_variance_ratio),
    "coherence": _analysis("coherence", "coherence.csv"),
    "class-heatmap": _analysis("heatmap", "heatmap_stats.csv", _write_heatmap_matrix),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bnlab",
        description="Batch-normalization training dynamics laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument(
            "--out", default=None, help="artifact directory (default: config's out.dir)"
        )
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config_file(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.validate()
        out = args.out if args.out is not None else cfg.out_dir
        os.makedirs(out, exist_ok=True)
        return _DISPATCH[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (BnlabError, OSError) as exc:  # raised after the config parsed
        print(f"run error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an allocation the machine cannot serve
        print(f"run error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
