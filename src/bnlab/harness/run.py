"""Training loops, diagnostics schedules, learning-rate sweeps, artifacts.

A run trains one leg per learning rate (the sweep list, or just base_lr).
Every leg is seeded from (config.seed, leg index) alone, so legs can run in
any order — or in parallel — and produce identical artifacts. Divergence is
always watched for: a post-update minibatch loss over the threshold stops
the leg and records the captured event in its artifact.
"""
from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

# PROBE_ALPHAS and depth_moment_profile are re-exported: bench/ looks them up here
from ..diagnostics import (  # noqa: F401
    INSTRUMENTS,
    PROBE_ALPHAS,
    DivergenceEvent,
    DivergenceMonitor,
    depth_moment_profile,
)
from ..errors import ConfigError
from ..nn import SgdState, build_network, sgd_step
from ..tensor import SeededRng
from .config import ExperimentConfig, echo_config
from .data import LabeledImageSet, augment_batch, load_cifar10_dir, preprocess, synth_dataset

METRIC_COLUMNS = ("step", "epoch", "lr", "loss", "train_acc", "test_acc")

_TEST_SEED_OFFSET = 1_000_000_007  # synthetic test split draws from its own seed


@dataclass
class LegResult:
    lr: float
    steps: int
    metrics: list  # rows matching METRIC_COLUMNS
    tables: dict  # instrument name -> (columns, rows)
    diverged: bool
    event: DivergenceEvent | None
    final_test_acc: float


@dataclass
class RunArtifact:
    config_echo: str
    legs: list[LegResult]
    best_index: int | None  # None when every leg diverged
    started: str
    finished: str
    meta: dict = field(default_factory=dict)


def load_dataset(cfg: ExperimentConfig) -> tuple[LabeledImageSet, LabeledImageSet]:
    """Train/test pair per the config, preprocessed with train statistics;
    a batch larger than the training set, or a synthetic set whose
    per-channel mean or std overflows, is a config error."""
    d = cfg.dataset
    if d.kind == "cifar10":
        train, test = load_cifar10_dir(d.directory)
    else:
        train = synth_dataset(d.classes, d.per_class, d.shape, d.separation, cfg.seed)
        test = synth_dataset(
            d.classes, d.test_per_class, d.shape, d.separation,
            cfg.seed + _TEST_SEED_OFFSET,
        )
    if cfg.batch_size > train.n:
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds the training set ({train.n})"
        )
    if d.kind == "synthetic":
        with np.errstate(over="ignore", invalid="ignore"):
            stats = train.images.mean(axis=(0, 2, 3)), train.images.std(axis=(0, 2, 3))
        if not np.isfinite(stats).all():
            raise ConfigError(f"dataset.separation = {d.separation!r} is too large: the training "
                              "set's per-channel mean or std is not finite")
    train, test = preprocess(train, test)
    return train, test


# --- one sweep leg -----------------------------------------------------------


def leg_start(cfg: ExperimentConfig, leg_index: int, train: LabeledImageSet):
    """The network leg `leg_index` starts from, and its step-0 batch: the
    first batch_size training examples."""
    net = build_network(cfg.network, SeededRng(cfg.seed).child(100 + 10 * leg_index))
    b = cfg.batch_size
    return net, (train.images[:b], train.labels[:b])


def run_leg(
    cfg: ExperimentConfig,
    lr: float,
    leg_index: int,
    train: LabeledImageSet,
    test: LabeledImageSet,
) -> LegResult:
    net, init_batch = leg_start(cfg, leg_index, train)
    root = SeededRng(cfg.seed)
    order_gen = root.child(101 + 10 * leg_index).generator()
    augment_gen = root.child(102 + 10 * leg_index).generator()

    state = SgdState(
        base_lr=lr,
        momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
        schedule=cfg.schedule,
    )
    monitor = DivergenceMonitor(net, threshold=cfg.divergence_threshold)
    enabled = dict(cfg.diagnostics)
    tables = {name: (("step", *cols), []) for name, (cols, _, _) in INSTRUMENTS.items()
              if name in enabled}

    def fire(name, batch, step):
        _, measure, rows = INSTRUMENTS[name]
        tables[name][1].extend((step, *row) for row in rows(measure(net, batch)))

    for name, _every in cfg.diagnostics:
        fire(name, init_batch, 0)

    b = cfg.batch_size
    steps_per_epoch = train.n // b
    total_steps = max(cfg.epochs * steps_per_epoch, 1)
    metrics: list = []
    event = None
    step = 0
    for epoch in range(cfg.epochs):
        order = order_gen.permutation(train.n)
        for k in range(steps_per_epoch):
            idx = order[k * b : (k + 1) * b]
            x = train.images[idx]
            if cfg.dataset.augment:
                x = augment_batch(x, augment_gen)
            batch = (x, train.labels[idx])

            fraction = step / total_steps
            lr_now = state.lr_at(fraction)
            pre_params = net.flat_params()
            pre_loss, _ = net.loss_and_grad(*batch)
            sgd_step(net.params(), state, fraction)
            post_loss = net.loss_only(*batch)
            step += 1
            metrics.append([step, epoch, lr_now, pre_loss, np.nan, np.nan])

            event = monitor.check(step, batch, pre_params, pre_loss, post_loss)
            if event is not None:
                break
            for name, every in cfg.diagnostics:
                if step % every == 0:
                    fire(name, batch, step)
        if event is not None:
            break
        if metrics:
            metrics[-1][4] = net.accuracy(train.images[:2048], train.labels[:2048], b)
            metrics[-1][5] = net.accuracy(test.images, test.labels, b)

    return LegResult(
        lr=lr,
        steps=step,
        metrics=metrics,
        tables=tables,
        diverged=event is not None,
        event=event,
        # nan when no epoch ended: no epochs, or a divergence broke this one
        final_test_acc=metrics[-1][5] if metrics else float("nan"),
    )


def run_experiment(cfg: ExperimentConfig) -> RunArtifact:
    cfg.validate()
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    train, test = load_dataset(cfg)
    lrs = cfg.lr_sweep if cfg.lr_sweep else (cfg.base_lr,)
    legs = [run_leg(cfg, lr, i, train, test) for i, lr in enumerate(lrs)]
    best = _best_leg(legs)
    return RunArtifact(
        config_echo=echo_config(cfg),
        legs=legs,
        best_index=best,
        started=started,
        finished=time.strftime("%Y-%m-%dT%H:%M:%S"),
        meta={"train_examples": train.n, "test_examples": test.n},
    )


def _best_leg(legs: list[LegResult]) -> int | None:
    """Highest final test accuracy among completed legs; ties go to the
    larger learning rate."""
    done = [i for i, leg in enumerate(legs)
            if not leg.diverged and np.isfinite(leg.final_test_acc)]
    return max(done, key=lambda i: (legs[i].final_test_acc, legs[i].lr), default=None)


# --- artifact emission --------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def write_csv(path: str, columns, rows) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    return path


def _leg_dir_name(i: int, lr: float) -> str:
    return f"leg_{i}_lr{_fmt(lr)}"


def emit(artifact: RunArtifact, out_dir: str) -> list[str]:
    """Write every artifact file; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = [_write_text(os.path.join(out_dir, "config.txt"), artifact.config_echo)]
    for i, leg in enumerate(artifact.legs):
        leg_dir = os.path.join(out_dir, _leg_dir_name(i, leg.lr))
        os.makedirs(leg_dir, exist_ok=True)
        written.append(write_csv(os.path.join(leg_dir, "metrics.csv"), METRIC_COLUMNS, leg.metrics))
        for name, (cols, rows) in leg.tables.items():
            written.append(write_csv(os.path.join(leg_dir, f"{name}.csv"), cols, rows))
        if leg.event is not None:
            ev = leg.event
            written.append(_write_json(os.path.join(leg_dir, "divergence.json"), {
                "step": ev.step,
                "pre_loss": _json_float(ev.pre_loss),
                "post_loss": _json_float(ev.post_loss),
                "fractions": list(ev.fractions),
            }))
            cols, _, moment_rows = INSTRUMENTS["moments"]
            rows = [(f, *row) for f, prof in zip(ev.fractions, ev.profiles)
                    for row in moment_rows(prof)]
            written.append(write_csv(os.path.join(leg_dir, "divergence_moments.csv"),
                                     ("fraction", *cols), rows))

    summary = {
        "started": artifact.started,
        "finished": artifact.finished,
        "meta": artifact.meta,
        "legs": [
            {
                "dir": _leg_dir_name(i, leg.lr),
                "lr": leg.lr,
                "steps": leg.steps,
                "diverged": leg.diverged,
                "final_test_acc": _json_float(leg.final_test_acc),
            }
            for i, leg in enumerate(artifact.legs)
        ],
        "best_leg": artifact.best_index,
        "best_lr": None
        if artifact.best_index is None
        else artifact.legs[artifact.best_index].lr,
    }
    written.append(_write_json(os.path.join(out_dir, "summary.json"), summary))
    return written


def _json_float(value: float) -> float | None:
    """value, or None (JSON null) where it is nan or infinite: RFC 8259 JSON
    has no token for either."""
    return value if np.isfinite(value) else None


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_text(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
