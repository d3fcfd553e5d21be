"""Line-oriented experiment configuration.

Files are `key = value` pairs with dotted section keys and # comments:

    network.depth = 8
    network.norm = batch
    dataset.kind = synthetic
    train.lr_sweep = 0.1, 0.003, 0.001
    diagnostics.moments = 50
    out.dir = runs/demo

Each key is one row of the table below: its value kind (how the text is
parsed and echoed) and the ExperimentConfig attribute it sets. Unknown keys,
bad values and duplicates are reported with their line number.
network.depth is the one required key; the dataclasses hold the defaults.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, NamedTuple

from ..diagnostics import INSTRUMENTS
from ..errors import ConfigError
from ..nn import NETWORK_KINDS, NORMS, PLACEMENTS, NetworkConfig
from ..tensor import InitScheme

# the canonical learning-rate sweep, named `standard` in a config
STANDARD_SWEEP = (0.1, 0.003, 0.001, 0.0003, 0.0001, 0.00003)


@dataclass
class RmtConfig:
    m: int = 1
    m_list: tuple[int, ...] = (1, 2, 4, 8)
    n: int = 128
    trials: int = 10
    grid_points: int = 1000


@dataclass
class NoiseConfig:
    examples: int = 100
    batch_sizes: tuple[int, ...] = (1, 5, 25)
    lrs: tuple[float, ...] = (0.1, 1.0)
    trials: int = 100_000


DATASET_KINDS = ("synthetic", "cifar10")  # the allowed values of DatasetConfig.kind


@dataclass
class DatasetConfig:
    kind: str = "synthetic"
    directory: str = ""  # cifar10 only
    classes: int = 10
    per_class: int = 64
    test_per_class: int = 16
    shape: tuple[int, int, int] = (3, 8, 8)
    separation: float = 10.0
    augment: bool = False


@dataclass
class ExperimentConfig:
    network: NetworkConfig
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    batch_size: int = 128
    base_lr: float = 0.1
    lr_sweep: tuple[float, ...] = ()
    epochs: int = 1
    seed: int = 0
    momentum: float = 0.9
    weight_decay: float = 5e-4
    schedule: tuple[tuple[float, float], ...] = ((0.5, 10.0), (0.75, 10.0))
    divergence_threshold: float = 1e3
    diagnostics: tuple[tuple[str, int], ...] = ()
    out_dir: str = "run_out"
    rmt: RmtConfig = field(default_factory=RmtConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)

    def validate(self):
        self.network.validate()
        if self.batch_size < 2:
            raise ConfigError(
                f"batch_size must be >= 2 (got {self.batch_size}): "
                "batch statistics degenerate on single-activation batches"
            )
        if not all(0 < lr < math.inf for lr in (self.base_lr, *self.lr_sweep)):
            raise ConfigError("learning rates must be positive and finite")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0 (got {self.seed})")
        if not all(0 < divisor < math.inf and math.isfinite(frac)
                   for frac, divisor in self.schedule):
            raise ConfigError("schedule divisors must be positive and every entry finite")
        if not self.divergence_threshold > 0:  # nan fails too
            raise ConfigError("divergence_threshold must be positive")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must lie in [0, 1)")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError("weight_decay must be >= 0 and finite")
        if not self.out_dir:
            raise ConfigError("out.dir must not be empty")
        for name, every in self.diagnostics:
            if name not in INSTRUMENTS:
                raise ConfigError(f"unknown instrument {name!r}")
            if every < 1:
                raise ConfigError(f"diagnostics.{name} period must be >= 1")
        if self.dataset.kind not in DATASET_KINDS:
            raise ConfigError(f"unknown dataset kind {self.dataset.kind!r}")
        if self.dataset.kind == "cifar10" and not self.dataset.directory:
            raise ConfigError("dataset.dir is required for dataset.kind = cifar10")
        if self.dataset.kind == "synthetic":
            if (self.dataset.classes < 2 or self.dataset.per_class < 1
                    or self.dataset.test_per_class < 1):
                raise ConfigError(
                    "synthetic data needs classes >= 2, per_class >= 1, test_per_class >= 1"
                )
            if not math.isfinite(self.dataset.separation):
                raise ConfigError("dataset.separation must be finite")
            dim = math.prod(self.dataset.shape)
            if self.dataset.classes > dim:
                raise ConfigError(
                    f"synthetic class count ({self.dataset.classes}) cannot exceed "
                    f"the flattened dimension ({dim})"
                )
        r, z = self.rmt, self.noise
        if not (r.m_list and z.lrs and z.batch_sizes):
            raise ConfigError("rmt.m_list, noise.lrs and noise.batch_sizes must not be empty")
        if r.m < 1 or any(m < 1 for m in r.m_list):
            raise ConfigError("rmt matrix counts must be >= 1")
        if r.n < 2 or r.trials < 1 or r.grid_points < 1:
            raise ConfigError("rmt needs n >= 2, trials >= 1, grid_points >= 1")
        if z.examples < 2 or z.trials < 1:
            raise ConfigError("noise needs examples >= 2 and trials >= 1")
        if any(b < 1 for b in z.batch_sizes) or not all(0 < lr < math.inf for lr in z.lrs):
            raise ConfigError("noise batch sizes must be >= 1 and lrs positive and finite")
        for lr in z.lrs:
            if not math.isfinite(lr * lr):  # the bound scales with lr²
                raise ConfigError(f"noise.lrs entry {lr!r} overflows: its square is not finite")
        for b in z.batch_sizes:
            if b > z.examples:
                raise ConfigError(
                    f"noise.batch_sizes entry {b} exceeds noise.examples = {z.examples}"
                )


class Kind(NamedTuple):
    """How one key's value is read from its text and written back."""

    parse: Callable[[str], Any]
    render: Callable[[Any], str]


def _float(raw):
    value = float(raw)
    if value != value:
        raise ValueError(f"not a number: {raw!r}")
    return value


def _bool(raw):
    if raw.lower() not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(f"not a boolean: {raw!r}")
    return raw.lower() in ("true", "yes", "1")


def _choice(allowed: tuple[str, ...]) -> Kind:
    def parse(raw):
        if raw not in allowed:
            raise ValueError(f"must be one of {allowed}, got {raw!r}")
        return raw

    return Kind(parse, str)


def _list(item: Kind) -> Kind:
    """Comma-separated values of one kind; empty parts are skipped."""
    return Kind(
        lambda raw: tuple(item.parse(p) for p in raw.split(",") if p.strip()),
        lambda values: ",".join(map(item.render, values)),
    )


def _shape(raw):
    parts = INTS.parse(raw)
    if len(parts) != 3 or any(p < 1 for p in parts):
        raise ValueError(f"shape needs three positive integers, got {raw!r}")
    return parts


def _step(raw):
    frac, _, div = raw.strip().partition(":")
    if not div:
        raise ValueError(f"schedule entries are fraction:divisor, got {raw.strip()!r}")
    return _float(frac), _float(div)


INT = Kind(lambda raw: int(raw, 10), str)
FLOAT = Kind(_float, repr)
BOOL = Kind(_bool, lambda v: str(v).lower())
STR = Kind(str, str)
INTS = _list(INT)
FLOATS = _list(FLOAT)
LRS = Kind(lambda raw: STANDARD_SWEEP if raw.lower() == "standard" else FLOATS.parse(raw),
           FLOATS.render)
SHAPE = Kind(_shape, INTS.render)
# "0.5:10, 0.75:10" -> ((0.5, 10.0), (0.75, 10.0)); "none" clears it
_STEPS = _list(Kind(_step, lambda step: "{!r}:{!r}".format(*step)))
SCHEDULE = Kind(lambda raw: () if raw.lower() == "none" else _STEPS.parse(raw),
                lambda steps: _STEPS.render(steps) if steps else "none")
INIT = Kind(InitScheme, lambda v: v.kind)  # InitScheme rejects an unknown kind

# key, value kind[, ExperimentConfig attribute path if not the key itself],
# in echo order. A `diagnostics.<name>` path is the instrument's period in
# the (name, period) pairs of ExperimentConfig.diagnostics.
_ROWS = {
    key: (kind, path[0] if path else key)
    for key, kind, *path in (
        ("network.depth", INT),
        ("network.kind", _choice(NETWORK_KINDS)),
        ("network.width", INT),
        ("network.norm", _choice(NORMS)),
        ("network.placement", _choice(PLACEMENTS)),
        ("network.groups", INT),
        ("network.residual", BOOL),
        ("network.init", INIT),
        ("network.bn_eps", FLOAT),
        ("network.bn_rho", FLOAT),
        ("network.bn_period", INT),
        ("network.bn_use_mean", BOOL, "network.bn_components.use_mean"),
        ("network.bn_use_var", BOOL, "network.bn_components.use_var"),
        ("network.bn_use_gamma", BOOL, "network.bn_components.use_gamma"),
        ("network.bn_use_beta", BOOL, "network.bn_components.use_beta"),
        ("dataset.kind", _choice(DATASET_KINDS)),
        ("dataset.dir", STR, "dataset.directory"),
        ("dataset.classes", INT),
        ("dataset.per_class", INT),
        ("dataset.test_per_class", INT),
        ("dataset.shape", SHAPE),
        ("dataset.separation", FLOAT),
        ("dataset.augment", BOOL),
        ("train.batch_size", INT, "batch_size"),
        ("train.base_lr", FLOAT, "base_lr"),
        ("train.lr_sweep", LRS, "lr_sweep"),
        ("train.epochs", INT, "epochs"),
        ("train.seed", INT, "seed"),
        ("train.momentum", FLOAT, "momentum"),
        ("train.weight_decay", FLOAT, "weight_decay"),
        ("train.schedule", SCHEDULE, "schedule"),
        ("train.divergence_threshold", FLOAT, "divergence_threshold"),
        *((f"diagnostics.{name}", INT) for name in INSTRUMENTS),
        ("rmt.m", INT),
        ("rmt.m_list", INTS),
        ("rmt.n", INT),
        ("rmt.trials", INT),
        ("rmt.grid_points", INT),
        ("noise.examples", INT),
        ("noise.batch_sizes", INTS),
        ("noise.lrs", LRS),
        ("noise.trials", INT),
        ("out.dir", STR, "out_dir"),
    )
}


def _get(obj, path: str):
    for name in path.split("."):
        # a tuple is ExperimentConfig.diagnostics: (name, period) pairs
        obj = dict(obj).get(name) if isinstance(obj, tuple) else getattr(obj, name)
    return obj


def _set(obj, path: str, value):
    """A copy of obj with the attribute at path set to value."""
    name, _, rest = path.partition(".")
    if rest:
        value = _set(getattr(obj, name), rest, value)
    if isinstance(obj, tuple):
        return obj + ((name, value),)
    return replace(obj, **{name: value})


_DEFAULTS = ExperimentConfig(network=NetworkConfig(depth=1))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config; defaults fill everything but network.depth."""
    values = {}
    lines = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, raw = line.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key = key.strip()
        raw = raw.strip()
        if key not in _ROWS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {lines[key]})"
            )
        try:
            values[key] = _ROWS[key][0].parse(raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        lines[key] = lineno
    cfg = ExperimentConfig(network=NetworkConfig(depth=None))  # depth: set by its row
    for key, (_, path) in _ROWS.items():
        if key in values:
            cfg = _set(cfg, path, values[key])
    if cfg.network.depth is None:
        raise ConfigError("missing required key network.depth")
    d = cfg.dataset
    if d.kind == "cifar10":
        d.shape, d.classes = (3, 32, 32), 10
    cfg.network.class_count, cfg.network.input_shape = d.classes, d.shape
    cfg.validate()
    return cfg


def parse_config_file(path: str) -> ExperimentConfig:
    """parse_config on a file's text; an unreadable or non-UTF-8 file is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: byte {exc.start} is not UTF-8") from exc
    return parse_config(text)


def echo_config(cfg: ExperimentConfig) -> str:
    """Render a config back to parseable key = value text, defaults included.

    A key left at an empty default (dataset.dir, train.lr_sweep) and an
    instrument that is off are left out."""
    out = []
    for key, (kind, path) in _ROWS.items():
        value = _get(cfg, path)
        if value is None or (value in ("", ()) and value == _get(_DEFAULTS, path)):
            continue
        out.append(f"{key} = {kind.render(value)}")
    return "\n".join(out) + "\n"
