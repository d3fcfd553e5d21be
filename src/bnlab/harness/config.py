"""Line-oriented experiment configuration.

Files are `key = value` pairs with dotted section keys and # comments:

    network.depth = 8
    network.norm = batch
    dataset.kind = synthetic
    train.lr_sweep = 0.1, 0.003, 0.001
    diagnostics.moments = 50
    out.dir = runs/demo

Every key is checked against the schema below; unknown keys, bad values, and
duplicates are reported with their line number. network.depth is the one
required key.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..nn import BnComponents, NetworkConfig
from ..tensor import HE, XAVIER

# the canonical sweep used when a config says `train.lr_sweep = standard`
STANDARD_SWEEP = (0.1, 0.003, 0.001, 0.0003, 0.0001, 0.00003)

INSTRUMENTS = (
    "moments",
    "histogram",
    "coherence",
    "heatmap",
    "probe",
    "classwise",
    "mean_grad",
    "channel_grads",
)


@dataclass
class RmtConfig:
    m: int = 1
    m_list: tuple[int, ...] = (1, 2, 4, 8)
    n: int = 128
    trials: int = 10
    grid_points: int = 1000
    sigmas: tuple[float, ...] = ()  # empty -> all ones


@dataclass
class NoiseConfig:
    examples: int = 100
    batch_sizes: tuple[int, ...] = (1, 5, 25)
    lrs: tuple[float, ...] = (0.1, 1.0)
    trials: int = 100_000


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
        if any(lr <= 0 for lr in self.lr_sweep) or self.base_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.divergence_threshold <= 0:
            raise ConfigError("divergence_threshold must be positive")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        for name, every in self.diagnostics:
            if name not in INSTRUMENTS:
                raise ConfigError(f"unknown instrument {name!r}")
            if every < 1:
                raise ConfigError(f"diagnostics.{name} period must be >= 1")
        if self.dataset.kind not in ("synthetic", "cifar10"):
            raise ConfigError(f"unknown dataset kind {self.dataset.kind!r}")
        if self.dataset.kind == "cifar10" and not self.dataset.directory:
            raise ConfigError("dataset.dir is required for dataset.kind = cifar10")
        if self.dataset.kind == "synthetic":
            if self.dataset.classes < 2 or self.dataset.per_class < 1:
                raise ConfigError("synthetic data needs classes >= 2, per_class >= 1")
            dim = 1
            for s in self.dataset.shape:
                dim *= s
            if self.dataset.classes > dim:
                raise ConfigError(
                    f"synthetic class count ({self.dataset.classes}) cannot exceed "
                    f"the flattened dimension ({dim})"
                )
        r, z = self.rmt, self.noise
        if r.m < 1 or any(m < 1 for m in r.m_list):
            raise ConfigError("rmt matrix counts must be >= 1")
        if r.n < 2 or r.trials < 1 or r.grid_points < 16:
            raise ConfigError("rmt needs n >= 2, trials >= 1, grid_points >= 16")
        if r.sigmas and (len(r.sigmas) != r.m or any(s <= 0 for s in r.sigmas)):
            raise ConfigError(f"rmt.sigmas needs {r.m} positive entries")
        if z.examples < 2 or z.trials < 1:
            raise ConfigError("noise needs examples >= 2 and trials >= 1")
        if any(b < 1 for b in z.batch_sizes) or any(lr <= 0 for lr in z.lrs):
            raise ConfigError("noise batch sizes must be >= 1 and lrs positive")
        for b in z.batch_sizes:
            if b > z.examples:
                raise ConfigError(
                    f"noise.batch_sizes entry {b} exceeds noise.examples = {z.examples}"
                )
        # The default is left to noise-bound's run-time check (as is cifar10,
        # whose size is known only once loaded): configs for the other
        # commands, and their echoes, must parse on small synthetic sets.
        n_train = self.dataset.classes * self.dataset.per_class
        if (
            self.dataset.kind == "synthetic"
            and z.examples != NoiseConfig.examples
            and z.examples > n_train
        ):
            raise ConfigError(
                f"noise.examples = {z.examples} exceeds the {n_train} synthetic "
                "training examples (dataset.classes × dataset.per_class)"
            )


# value casters -------------------------------------------------------------


def _c_int(raw):
    return int(raw, 10)


def _c_float(raw):
    return float(raw)


def _c_bool(raw):
    low = raw.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _c_str(raw):
    return raw


def _c_floats(raw):
    if raw.lower() == "standard":
        return STANDARD_SWEEP
    return tuple(float(p) for p in raw.split(",") if p.strip())


def _c_ints(raw):
    return tuple(int(p, 10) for p in raw.split(",") if p.strip())


def _c_shape(raw):
    parts = tuple(int(p, 10) for p in raw.split(",") if p.strip())
    if len(parts) != 3 or any(p < 1 for p in parts):
        raise ValueError(f"shape needs three positive integers, got {raw!r}")
    return parts


def _c_schedule(raw):
    # "0.5:10, 0.75:10" -> ((0.5, 10.0), (0.75, 10.0)); "none" clears it
    if raw.lower() == "none":
        return ()
    pairs = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        frac, _, div = part.partition(":")
        if not div:
            raise ValueError(f"schedule entries are fraction:divisor, got {part!r}")
        pairs.append((float(frac), float(div)))
    return tuple(pairs)


def _c_choice(*allowed):
    def cast(raw):
        if raw not in allowed:
            raise ValueError(f"must be one of {allowed}, got {raw!r}")
        return raw

    return cast


_SCHEMA = {
    "network.depth": _c_int,
    "network.kind": _c_choice("conv", "dense"),
    "network.width": _c_int,
    "network.norm": _c_choice("batch", "layer", "instance", "group", "none"),
    "network.placement": _c_choice("per_layer", "final_only"),
    "network.groups": _c_int,
    "network.residual": _c_bool,
    "network.init": _c_choice("xavier", "he"),
    "network.bn_eps": _c_float,
    "network.bn_rho": _c_float,
    "network.bn_period": _c_int,
    "network.bn_use_mean": _c_bool,
    "network.bn_use_var": _c_bool,
    "network.bn_use_gamma": _c_bool,
    "network.bn_use_beta": _c_bool,
    "dataset.kind": _c_choice("synthetic", "cifar10"),
    "dataset.dir": _c_str,
    "dataset.classes": _c_int,
    "dataset.per_class": _c_int,
    "dataset.test_per_class": _c_int,
    "dataset.shape": _c_shape,
    "dataset.separation": _c_float,
    "dataset.augment": _c_bool,
    "train.batch_size": _c_int,
    "train.base_lr": _c_float,
    "train.lr_sweep": _c_floats,
    "train.epochs": _c_int,
    "train.seed": _c_int,
    "train.momentum": _c_float,
    "train.weight_decay": _c_float,
    "train.schedule": _c_schedule,
    "train.divergence_threshold": _c_float,
    "out.dir": _c_str,
    "rmt.m": _c_int,
    "rmt.m_list": _c_ints,
    "rmt.n": _c_int,
    "rmt.trials": _c_int,
    "rmt.grid_points": _c_int,
    "rmt.sigmas": _c_floats,
    "noise.examples": _c_int,
    "noise.batch_sizes": _c_ints,
    "noise.lrs": _c_floats,
    "noise.trials": _c_int,
}
for _name in INSTRUMENTS:
    _SCHEMA[f"diagnostics.{_name}"] = _c_int


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
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {lines[key]})"
            )
        try:
            values[key] = _SCHEMA[key](raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        lines[key] = lineno
    if "network.depth" not in values:
        raise ConfigError("missing required key network.depth")
    cfg = _assemble(values)
    cfg.validate()
    return cfg


def parse_config_file(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _assemble(v: dict) -> ExperimentConfig:
    network = NetworkConfig(
        depth=v["network.depth"],
        kind=v.get("network.kind", "conv"),
        width=v.get("network.width", 16),
        class_count=2,  # placeholder; tied to the dataset below
        input_shape=v.get("dataset.shape", (3, 8, 8)),
        norm=v.get("network.norm", "batch"),
        placement=v.get("network.placement", "per_layer"),
        groups=v.get("network.groups", 4),
        residual=v.get("network.residual", False),
        init=HE if v.get("network.init", "xavier") == "he" else XAVIER,
        bn_eps=v.get("network.bn_eps", 1e-5),
        bn_rho=v.get("network.bn_rho", 0.9),
        bn_period=v.get("network.bn_period", 1),
        bn_components=BnComponents(
            use_mean=v.get("network.bn_use_mean", True),
            use_var=v.get("network.bn_use_var", True),
            use_gamma=v.get("network.bn_use_gamma", True),
            use_beta=v.get("network.bn_use_beta", True),
        ),
    )
    dataset = DatasetConfig(
        kind=v.get("dataset.kind", "synthetic"),
        directory=v.get("dataset.dir", ""),
        classes=v.get("dataset.classes", 10),
        per_class=v.get("dataset.per_class", 64),
        test_per_class=v.get("dataset.test_per_class", 16),
        shape=v.get("dataset.shape", (3, 8, 8)),
        separation=v.get("dataset.separation", 10.0),
        augment=v.get("dataset.augment", False),
    )
    if dataset.kind == "cifar10":
        dataset.shape = (3, 32, 32)
        dataset.classes = 10
    network.class_count = dataset.classes
    network.input_shape = dataset.shape
    diagnostics = tuple(
        (name, v[f"diagnostics.{name}"])
        for name in INSTRUMENTS
        if f"diagnostics.{name}" in v
    )
    rmt = RmtConfig(
        m=v.get("rmt.m", 1),
        m_list=v.get("rmt.m_list", (1, 2, 4, 8)),
        n=v.get("rmt.n", 128),
        trials=v.get("rmt.trials", 10),
        grid_points=v.get("rmt.grid_points", 1000),
        sigmas=v.get("rmt.sigmas", ()),
    )
    noise = NoiseConfig(
        examples=v.get("noise.examples", 100),
        batch_sizes=v.get("noise.batch_sizes", (1, 5, 25)),
        lrs=v.get("noise.lrs", (0.1, 1.0)),
        trials=v.get("noise.trials", 100_000),
    )
    return ExperimentConfig(
        network=network,
        dataset=dataset,
        batch_size=v.get("train.batch_size", 128),
        base_lr=v.get("train.base_lr", 0.1),
        lr_sweep=v.get("train.lr_sweep", ()),
        epochs=v.get("train.epochs", 1),
        seed=v.get("train.seed", 0),
        momentum=v.get("train.momentum", 0.9),
        weight_decay=v.get("train.weight_decay", 5e-4),
        schedule=v.get("train.schedule", ((0.5, 10.0), (0.75, 10.0))),
        divergence_threshold=v.get("train.divergence_threshold", 1e3),
        diagnostics=diagnostics,
        out_dir=v.get("out.dir", "run_out"),
        rmt=rmt,
        noise=noise,
    )


def echo_config(cfg: ExperimentConfig) -> str:
    """Render a config back to parseable key = value text, defaults included."""
    n, d = cfg.network, cfg.dataset
    bc = n.bn_components
    out = [
        f"network.depth = {n.depth}",
        f"network.kind = {n.kind}",
        f"network.width = {n.width}",
        f"network.norm = {n.norm}",
        f"network.placement = {n.placement}",
        f"network.groups = {n.groups}",
        f"network.residual = {str(n.residual).lower()}",
        f"network.init = {'he' if n.init is HE else 'xavier'}",
        f"network.bn_eps = {n.bn_eps!r}",
        f"network.bn_rho = {n.bn_rho!r}",
        f"network.bn_period = {n.bn_period}",
        f"network.bn_use_mean = {str(bc.use_mean).lower()}",
        f"network.bn_use_var = {str(bc.use_var).lower()}",
        f"network.bn_use_gamma = {str(bc.use_gamma).lower()}",
        f"network.bn_use_beta = {str(bc.use_beta).lower()}",
        f"dataset.kind = {d.kind}",
    ]
    if d.directory:
        out.append(f"dataset.dir = {d.directory}")
    out += [
        f"dataset.classes = {d.classes}",
        f"dataset.per_class = {d.per_class}",
        f"dataset.test_per_class = {d.test_per_class}",
        "dataset.shape = " + ",".join(str(s) for s in d.shape),
        f"dataset.separation = {d.separation!r}",
        f"dataset.augment = {str(d.augment).lower()}",
        f"train.batch_size = {cfg.batch_size}",
        f"train.base_lr = {cfg.base_lr!r}",
    ]
    if cfg.lr_sweep:
        out.append("train.lr_sweep = " + ",".join(repr(v) for v in cfg.lr_sweep))
    sched = (
        ",".join(f"{f!r}:{v!r}" for f, v in cfg.schedule) if cfg.schedule else "none"
    )
    out += [
        f"train.epochs = {cfg.epochs}",
        f"train.seed = {cfg.seed}",
        f"train.momentum = {cfg.momentum!r}",
        f"train.weight_decay = {cfg.weight_decay!r}",
        f"train.schedule = {sched}",
        f"train.divergence_threshold = {cfg.divergence_threshold!r}",
    ]
    for name, every in cfg.diagnostics:
        out.append(f"diagnostics.{name} = {every}")
    r, z = cfg.rmt, cfg.noise
    out += [
        f"rmt.m = {r.m}",
        "rmt.m_list = " + ",".join(str(m) for m in r.m_list),
        f"rmt.n = {r.n}",
        f"rmt.trials = {r.trials}",
        f"rmt.grid_points = {r.grid_points}",
    ]
    if r.sigmas:
        out.append("rmt.sigmas = " + ",".join(repr(s) for s in r.sigmas))
    out += [
        f"noise.examples = {z.examples}",
        "noise.batch_sizes = " + ",".join(str(b) for b in z.batch_sizes),
        "noise.lrs = " + ",".join(repr(lr) for lr in z.lrs),
        f"noise.trials = {z.trials}",
        f"out.dir = {cfg.out_dir}",
    ]
    return "\n".join(out) + "\n"
