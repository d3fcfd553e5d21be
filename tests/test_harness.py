"""Tests for configuration, datasets, training runs, and artifact emission."""
import glob
import json
import os
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bnlab.diagnostics import INSTRUMENTS
from bnlab.errors import ConfigError, DimensionError, FormatError, SizeError
from bnlab.harness import config as config_module
from bnlab.harness.cli import main
from bnlab.harness.config import (
    STANDARD_SWEEP,
    DatasetConfig,
    ExperimentConfig,
    echo_config,
    parse_config,
)
from bnlab.harness.data import (
    LabeledImageSet,
    augment_batch,
    load_cifar10_dir,
    pad_crop_flip,
    parse_cifar10_bin,
    preprocess,
    synth_dataset,
)
from bnlab.harness.run import (
    METRIC_COLUMNS,
    LegResult,
    _best_leg,
    emit,
    load_dataset,
    run_experiment,
    run_leg,
)
from bnlab.nn import NetworkConfig
from bnlab.tensor import SeededRng

MINIMAL = "network.depth = 8\n"

SMALL_RUN = """
network.depth = 2
network.width = 6
dataset.classes = 4
dataset.per_class = 24
dataset.test_per_class = 8
train.batch_size = 16
train.epochs = 1
train.seed = 3
"""


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.network.depth == 8
        assert cfg.dataset.kind == "synthetic"
        assert cfg.batch_size == 128
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 5e-4
        assert cfg.schedule == ((0.5, 10.0), (0.75, 10.0))

    def test_empty_input_names_missing_key(self):
        with pytest.raises(ConfigError, match="network.depth"):
            parse_config("")

    def test_degenerate_batch_rejected(self):
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config(MINIMAL + "train.batch_size = 1\n")

    def test_noise_batch_larger_than_examples_rejected(self):
        with pytest.raises(ConfigError, match="entry 16 exceeds noise.examples = 8"):
            parse_config(MINIMAL + "noise.examples = 8\nnoise.batch_sizes = 1, 16\n")

    @pytest.mark.parametrize("extra, message", [
        ("network.norm = group\nnetwork.groups = 0\n", "groups must be >= 1"),
        ("network.groups = -4\n", "groups must be >= 1"),
        ("train.schedule = 0.5:0\n", "schedule divisors must be positive"),
        ("train.schedule = 0.5:10, 0.75:-2\n", "schedule divisors must be positive"),
        ("train.divergence_threshold = nan\n", "line 2.*train.divergence_threshold.*not a number"),
        ("network.bn_eps = NaN\n", "line 2.*network.bn_eps.*not a number"),
        ("dataset.separation = nan\n", "line 2.*dataset.separation.*not a number"),
        ("train.lr_sweep = 0.1, nan\n", "line 2.*train.lr_sweep.*not a number"),
        ("train.schedule = nan:10\n", "line 2.*train.schedule.*not a number"),
        ("train.base_lr = inf\n", "positive and finite"),
        ("train.lr_sweep = 0.1, inf\n", "positive and finite"),
        ("noise.lrs = 0.1, inf\n", "positive and finite"),
        ("noise.lrs = 0.1, 1e300\n", r"noise.lrs entry 1e\+300 overflows"),
        ("network.bn_eps = 0\n", "bn_eps must be positive"),
        ("network.bn_eps = -1e-5\n", "bn_eps must be positive"),
        ("network.bn_rho = 1.5\n", r"bn_rho must lie in \[0, 1\]"),
        ("network.bn_rho = -0.1\n", r"bn_rho must lie in \[0, 1\]"),
        ("train.weight_decay = inf\n", "weight_decay must be >= 0 and finite"),
        ("dataset.separation = inf\n", "dataset.separation must be finite"),
        ("network.bn_eps = inf\n", "bn_eps must be positive and finite"),
        ("train.schedule = 0.5:inf\n", "every entry finite"),
        ("out.dir =\n", "out.dir must not be empty"),
        ("rmt.m_list =\n", "rmt.m_list, noise.lrs and noise.batch_sizes must not be empty"),
        ("noise.lrs =\n", "rmt.m_list, noise.lrs and noise.batch_sizes must not be empty"),
        ("noise.batch_sizes =\n", "rmt.m_list, noise.lrs and noise.batch_sizes must not be empty"),
        ("network.bn_period = 0\n", "bn_period must be >= 1"),
        ("network.residual = true\nnetwork.width = 2\n", "its first block would narrow"),
        ("network.kind = dense\nnetwork.norm = layer\nnetwork.width = 1\n",
         r"layer normalization region would hold 1 element \(network.width = 1, "
         r"network.groups = 4, 1 position\(s\) per channel\); need >= 2"),
        ("network.norm = layer\nnetwork.width = 1\ndataset.shape = 2,1,1\n",
         "layer normalization region would hold 1 element"),
        ("network.norm = instance\ndataset.shape = 10,1,1\n",
         "instance normalization region would hold 1 element"),
        ("network.norm = group\nnetwork.groups = 4\nnetwork.width = 4\ndataset.shape = 2,1,1\n",
         "group normalization region would hold 1 element"),
    ], ids=lambda v: v.strip().replace("\n", "; "))
    def test_unrunnable_values_rejected(self, extra, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(MINIMAL + extra)

    # one row per ConfigError raised in validate() or a value parser: a
    # config line through `bnlab train`, or, where the parser rejects the
    # value before validate() sees it, ExperimentConfig fields
    @pytest.mark.parametrize("source, message", [
        ("train.epochs = -1", "epochs must be >= 0"),
        ("train.seed = -1", r"seed must be >= 0 \(got -1\)"),
        ("train.divergence_threshold = 0", "divergence_threshold must be positive"),
        ("train.momentum = 1", r"momentum must lie in \[0, 1\)"),
        ({"diagnostics": (("nope", 1),)}, "unknown instrument 'nope'"),
        ("diagnostics.moments = 0", "diagnostics.moments period must be >= 1"),
        ({"dataset": DatasetConfig(kind="imagenet")}, "unknown dataset kind 'imagenet'"),
        ("rmt.m = 0", "rmt matrix counts must be >= 1"),
        ("rmt.n = 1", "rmt needs n >= 2"),
        ("noise.examples = 1", "noise needs examples >= 2"),
        ("network.residual = maybe", "line 2: bad value for 'network.residual': not a boolean"),
        ("dataset.shape = 3, 8", "line 2: .*shape needs three positive integers, got '3, 8'"),
        ("train.schedule = 0.5", "line 2: .*schedule entries are fraction:divisor, got '0.5'"),
    ], ids=lambda v: v if isinstance(v, str) else "fields")
    def test_each_rejection_is_reached(self, source, message, tmp_path, capsys):
        if isinstance(source, dict):
            with pytest.raises(ConfigError, match=message):
                ExperimentConfig(NetworkConfig(depth=2), **source).validate()
            return
        p = tmp_path / "c.cfg"
        p.write_text(f"network.depth = 2\n{source}\n")
        assert main(["train", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and re.search(message, err)

    def test_bounds_admit_their_edges(self):
        # a normalization region of two elements is accepted
        for extra in ("network.norm = instance\ndataset.shape = 10,2,1\n",
                      "network.kind = dense\nnetwork.norm = layer\nnetwork.width = 2\n",
                      "network.norm = group\nnetwork.width = 8\ndataset.shape = 10,1,1\n"):
            parse_config(MINIMAL + extra)
        cfg = parse_config(MINIMAL + "network.bn_rho = 0\nnetwork.groups = 1\n"
                           "train.divergence_threshold = inf\nnoise.lrs = standard\n")
        assert cfg.network.bn_rho == 0.0 and cfg.network.groups == 1
        assert cfg.noise.lrs == STANDARD_SWEEP
        assert parse_config(MINIMAL + "network.bn_rho = 1\n").network.bn_rho == 1.0

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2.*network.depht"):
            parse_config("network.depth = 8\nnetwork.depht = 9\n")

    def test_bad_value_names_line_and_key(self):
        with pytest.raises(ConfigError, match="line 1.*network.depth"):
            parse_config("network.depth = eight\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("network.depth = 8\nnetwork.depth = 9\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("network.depth 8\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# header\n\nnetwork.depth = 4  # inline\n")
        assert cfg.network.depth == 4

    def test_sweep_parsing(self):
        cfg = parse_config(MINIMAL + "train.lr_sweep = 0.1, 0.01\n")
        assert cfg.lr_sweep == (0.1, 0.01)
        cfg = parse_config(MINIMAL + "train.lr_sweep = standard\n")
        assert cfg.lr_sweep == STANDARD_SWEEP

    def test_negative_sweep_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_config(MINIMAL + "train.lr_sweep = 0.1, -0.01\n")

    def test_schedule_parsing(self):
        cfg = parse_config(MINIMAL + "train.schedule = 0.3:2, 0.6:5\n")
        assert cfg.schedule == ((0.3, 2.0), (0.6, 5.0))
        cfg = parse_config(MINIMAL + "train.schedule = none\n")
        assert cfg.schedule == ()

    def test_diagnostics_schedule(self):
        cfg = parse_config(MINIMAL + "diagnostics.moments = 10\ndiagnostics.probe = 50\n")
        assert ("moments", 10) in cfg.diagnostics
        assert ("probe", 50) in cfg.diagnostics
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "diagnostics.oscilloscope = 5\n")

    def test_bn_toggles(self):
        cfg = parse_config(MINIMAL + "network.bn_use_mean = false\n")
        assert not cfg.network.bn_components.use_mean
        assert cfg.network.bn_components.use_var

    def test_cifar_requires_directory(self):
        with pytest.raises(ConfigError, match="dataset.dir"):
            parse_config(MINIMAL + "dataset.kind = cifar10\n")

    def test_cifar_forces_image_shape(self):
        cfg = parse_config(
            MINIMAL + "dataset.kind = cifar10\ndataset.dir = /tmp/cifar\n"
        )
        assert cfg.dataset.shape == (3, 32, 32)
        assert cfg.network.input_shape == (3, 32, 32)
        assert cfg.network.class_count == 10

    def test_synthetic_class_dim_check(self):
        with pytest.raises(ConfigError, match="flattened dimension"):
            parse_config(MINIMAL + "dataset.classes = 20\ndataset.shape = 1,4,4\n")

    def test_echo_round_trips(self):
        cfg = parse_config(
            SMALL_RUN
            + "network.norm = group\nnetwork.groups = 3\n"
            + "train.lr_sweep = 0.1,0.01\ndiagnostics.coherence = 7\n"
            + "rmt.m = 2\nnoise.trials = 500\n"
        )
        again = parse_config(echo_config(cfg))
        assert again == cfg


CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.cfg")))

# echo_config of configs/small_synthetic.cfg, byte for byte
SMALL_SYNTHETIC_ECHO = """\
network.depth = 4
network.kind = conv
network.width = 8
network.norm = batch
network.placement = per_layer
network.groups = 4
network.residual = false
network.init = xavier
network.bn_eps = 1e-05
network.bn_rho = 0.9
network.bn_period = 1
network.bn_use_mean = true
network.bn_use_var = true
network.bn_use_gamma = true
network.bn_use_beta = true
dataset.kind = synthetic
dataset.classes = 10
dataset.per_class = 64
dataset.test_per_class = 16
dataset.shape = 3,8,8
dataset.separation = 10.0
dataset.augment = false
train.batch_size = 32
train.base_lr = 0.1
train.epochs = 10
train.seed = 0
train.momentum = 0.9
train.weight_decay = 0.0005
train.schedule = none
train.divergence_threshold = 1000.0
diagnostics.moments = 50
diagnostics.probe = 100
rmt.m = 1
rmt.m_list = 1,2,4,8
rmt.n = 128
rmt.trials = 10
rmt.grid_points = 1000
noise.examples = 100
noise.batch_sizes = 1,5,25
noise.lrs = 0.1,1.0
noise.trials = 100000
out.dir = runs/small_synthetic
"""

# every key set away from its default, written as echo_config writes it
EVERY_KEY = (
    """\
network.depth = 3
network.kind = conv
network.width = 6
network.norm = group
network.placement = final_only
network.groups = 3
network.residual = true
network.init = he
network.bn_eps = 0.001
network.bn_rho = 0.5
network.bn_period = 2
network.bn_use_mean = false
network.bn_use_var = false
network.bn_use_gamma = false
network.bn_use_beta = false
dataset.kind = synthetic
dataset.dir = data/unused
dataset.classes = 3
dataset.per_class = 5
dataset.test_per_class = 2
dataset.shape = 2,4,4
dataset.separation = 2.5
dataset.augment = true
train.batch_size = 4
train.base_lr = 0.05
train.lr_sweep = 0.2,0.02
train.epochs = 3
train.seed = 7
train.momentum = 0.5
train.weight_decay = 0.0
train.schedule = 0.25:2.0,0.5:4.0
train.divergence_threshold = 50.0
"""
    + "".join(f"diagnostics.{name} = {i + 1}\n" for i, name in enumerate(INSTRUMENTS))
    + """\
rmt.m = 2
rmt.m_list = 1,3
rmt.n = 16
rmt.trials = 2
rmt.grid_points = 32
noise.examples = 12
noise.batch_sizes = 2,6
noise.lrs = 0.5
noise.trials = 9
out.dir = runs/every_key
"""
)


class TestEcho:
    @pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
    def test_sample_configs_round_trip(self, path):
        with open(path, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        echo = echo_config(cfg)
        assert parse_config(echo) == cfg
        assert echo_config(parse_config(echo)) == echo

    def test_small_synthetic_echo_pinned(self):
        path = next(p for p in CONFIGS if p.endswith("small_synthetic.cfg"))
        with open(path, encoding="utf-8") as fh:
            assert echo_config(parse_config(fh.read())) == SMALL_SYNTHETIC_ECHO

    def test_every_key_set_and_echoed(self):
        keys = [line.split(" = ")[0] for line in EVERY_KEY.splitlines()]
        assert keys == list(config_module._ROWS)
        cfg = parse_config(EVERY_KEY)
        echo = echo_config(cfg)
        for key in keys:
            assert f"\n{key} = " in "\n" + echo, key
        assert echo == EVERY_KEY
        assert parse_config(echo) == cfg

    def test_empty_lists_round_trip(self):
        # an empty value whose default is not empty is echoed, not dropped (the
        # empty lists rmt.m_list, noise.lrs and noise.batch_sizes are rejected)
        cfg = parse_config(MINIMAL + "train.schedule = none\n")
        assert cfg.schedule == ()
        assert "train.schedule = none\n" in echo_config(cfg)
        assert parse_config(echo_config(cfg)) == cfg


class TestCifarParser:
    @staticmethod
    def _record(label, fill):
        body = np.full(3072, fill, dtype=np.uint8)
        return bytes([label]) + body.tobytes()

    def test_round_trip(self):
        rec0 = self._record(3, 7)
        # distinct values at channel/row/column landmarks
        px = np.zeros(3072, dtype=np.uint8)
        px[0] = 255  # red (0,0)
        px[1024] = 128  # green (0,0)
        px[2048] = 64  # blue (0,0)
        px[32 * 2 + 5] = 99  # red row 2, col 5
        rec1 = bytes([7]) + px.tobytes()
        ds = parse_cifar10_bin(rec0 + rec1)
        assert ds.n == 2
        assert list(ds.labels) == [3, 7]
        assert ds.images.shape == (2, 3, 32, 32)
        assert np.all(ds.images[0] == 7.0)
        assert ds.images[1, 0, 0, 0] == 255.0
        assert ds.images[1, 1, 0, 0] == 128.0
        assert ds.images[1, 2, 0, 0] == 64.0
        assert ds.images[1, 0, 2, 5] == 99.0

    def test_zero_length_rejected(self):
        # an empty batch file would leave accuracy a division by zero
        with pytest.raises(FormatError, match="positive multiple of 3073"):
            parse_cifar10_bin(b"")

    def test_truncated_record_rejected(self):
        with pytest.raises(FormatError, match="3073"):
            parse_cifar10_bin(bytes(3072))

    def test_bad_label_names_record(self):
        blob = self._record(1, 0) + self._record(12, 0)
        with pytest.raises(FormatError, match="record 1.*12"):
            parse_cifar10_bin(blob)

    def test_reads_from_file(self, tmp_path):
        p = tmp_path / "batch.bin"
        p.write_bytes(self._record(5, 9))
        ds = parse_cifar10_bin(str(p))
        assert list(ds.labels) == [5]

    def test_directory_training_set_is_the_five_batches_in_order(self, tmp_path):
        gen = np.random.default_rng(4)
        for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
            records = gen.integers(0, 256, size=(3, 3073), dtype=np.uint8)
            records[:, 0] %= 10
            (tmp_path / name).write_bytes(records.tobytes())
        train, test = load_cifar10_dir(str(tmp_path))
        parts = [parse_cifar10_bin(str(tmp_path / f"data_batch_{i}.bin")) for i in range(1, 6)]
        assert_array_equal(train.images, np.concatenate([p.images for p in parts]))
        assert_array_equal(train.labels, np.concatenate([p.labels for p in parts]))
        assert train.images.dtype == np.float64 and train.images.flags.c_contiguous
        assert_array_equal(test.images, parse_cifar10_bin(str(tmp_path / "test_batch.bin")).images)


class TestSynthDataset:
    def test_reproducible(self):
        a = synth_dataset(4, 10, (1, 3, 3), 5.0, seed=2)
        b = synth_dataset(4, 10, (1, 3, 3), 5.0, seed=2)
        assert_array_equal(a.images, b.images)
        assert_array_equal(a.labels, b.labels)

    def test_balanced_labels(self):
        ds = synth_dataset(5, 12, (2, 3, 3), 8.0, seed=0)
        counts = np.bincount(ds.labels, minlength=5)
        assert list(counts) == [12] * 5

    def test_class_mean_geometry(self):
        s = 10.0
        ds = synth_dataset(4, 800, (1, 4, 4), s, seed=1)
        flat = ds.images.reshape(ds.n, -1)
        mus = np.stack([flat[ds.labels == k].mean(axis=0) for k in range(4)])
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.linalg.norm(mus[i] - mus[j]) - s) < 0.4

    def test_zero_separation_uninformative(self):
        ds = synth_dataset(3, 600, (1, 3, 3), 0.0, seed=4)
        flat = ds.images.reshape(ds.n, -1)
        for k in range(3):
            assert np.all(np.abs(flat[ds.labels == k].mean(axis=0)) < 0.25)

    def test_too_many_classes_rejected(self):
        with pytest.raises(SizeError):
            synth_dataset(20, 4, (1, 4, 4), 1.0, seed=0)


# one row per error raised by a data constructor that no config reaches:
# validate() and the CIFAR-10 reader reject such inputs first
@pytest.mark.parametrize("make, error, message", [
    (lambda: LabeledImageSet(np.zeros((2, 3)), [0, 1], 2), DimensionError,
     r"images must be 4-d, got shape \(2, 3\)"),
    (lambda: LabeledImageSet(np.zeros((2, 1, 1, 1)), [0], 2), SizeError, "2 images but 1 labels"),
    (lambda: LabeledImageSet(np.zeros((2, 1, 1, 1)), [0, 2], 2), FormatError,
     r"labels must lie in \[0, 2\), got range \[0, 2\]"),
    (lambda: synth_dataset(1, 4), SizeError, "need at least 2 classes, got 1"),
    (lambda: synth_dataset(2, 0), SizeError, "need at least 1 example per class, got 0"),
], ids=["images-2d", "label-count", "label-range", "one-class", "no-examples"])
def test_each_data_rejection_is_reached(make, error, message):
    with pytest.raises(error, match=message):
        make()


class TestAugmentation:
    def test_center_crop_no_flip_is_identity(self):
        img = SeededRng(0).generator().normal(size=(3, 8, 8))
        assert_array_equal(pad_crop_flip(img, 4, 4, False), img)

    def test_double_flip_is_identity(self):
        img = SeededRng(1).generator().normal(size=(3, 8, 8))
        once = pad_crop_flip(img, 4, 4, True)
        assert_array_equal(pad_crop_flip(once, 4, 4, True), img)

    def test_top_left_crop_zero_border(self):
        img = np.ones((3, 8, 8))
        out = pad_crop_flip(img, 0, 0, False)
        assert np.all(out[:, :4, :] == 0.0)
        assert np.all(out[:, :, :4] == 0.0)
        assert np.all(out[:, 4:, 4:] == 1.0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionError):
            pad_crop_flip(np.ones((8, 8)), 0, 0, False)
        with pytest.raises(DimensionError):
            pad_crop_flip(np.ones((3, 8, 8)), 9, 0, False)

    def test_batch_deterministic(self):
        imgs = SeededRng(2).generator().normal(size=(5, 3, 8, 8))
        a = augment_batch(imgs, SeededRng(7).generator())
        b = augment_batch(imgs, SeededRng(7).generator())
        assert_array_equal(a, b)
        assert a.shape == imgs.shape


class TestPreprocess:
    def test_train_statistics_normalized(self):
        gen = SeededRng(3).generator()
        train = LabeledImageSet(
            gen.normal(3.0, 2.5, size=(40, 3, 4, 4)), np.zeros(40, dtype=int), 2
        )
        (out,) = preprocess(train)
        assert np.all(np.abs(out.images.mean(axis=(0, 2, 3))) < 1e-10)
        assert_allclose(out.images.std(axis=(0, 2, 3)), 1.0, atol=1e-8)

    def test_constant_channel_guarded(self):
        imgs = np.zeros((10, 2, 3, 3))
        imgs[:, 0] = 4.0  # constant channel
        imgs[:, 1] = SeededRng(4).generator().normal(size=(10, 3, 3))
        train = LabeledImageSet(imgs, np.zeros(10, dtype=int), 2)
        other = LabeledImageSet(imgs + 1e-8, np.zeros(10, dtype=int), 2)
        out, out_other = preprocess(train, other)
        assert np.all(out.images[:, 0] == 0.0)
        # the constant channel's std is floored at 1e-8: an offset of 1e-8 maps to ~1
        assert_allclose(out_other.images[:, 0], 1.0, rtol=1e-6)

    def test_other_sets_use_train_statistics(self):
        gen = SeededRng(5).generator()
        train = LabeledImageSet(
            gen.normal(0.0, 1.0, size=(50, 1, 4, 4)), np.zeros(50, dtype=int), 2
        )
        shifted = LabeledImageSet(
            gen.normal(10.0, 3.0, size=(50, 1, 4, 4)), np.zeros(50, dtype=int), 2
        )
        _, out_shifted = preprocess(train, shifted)
        # transformed with train stats, the shifted set keeps its offset
        mean, std = train.images.mean(axis=(0, 2, 3)), train.images.std(axis=(0, 2, 3))
        expected = (shifted.images - mean[:, None, None]) / std[:, None, None]
        assert_array_equal(out_shifted.images, expected)
        assert out_shifted.images.mean() > 5.0


class TestRunExperiment:
    def test_small_run_shape(self):
        cfg = parse_config(SMALL_RUN + "diagnostics.moments = 2\n")
        art = run_experiment(cfg)
        assert len(art.legs) == 1
        leg = art.legs[0]
        assert leg.steps == 6  # 96 examples / batch 16
        assert len(leg.metrics) == 6
        steps = [row[0] for row in leg.metrics]
        assert steps == sorted(steps)
        # epoch-end evaluation lands on the last row
        assert np.isfinite(leg.metrics[-1][4])
        assert np.isfinite(leg.metrics[-1][5])
        assert all(np.isnan(row[4]) for row in leg.metrics[:-1])
        # init firing (step 0) plus steps 2, 4, 6; two layers each
        moments = leg.tables["moments"][1]
        assert sorted({r[0] for r in moments}) == [0, 2, 4, 6]

    def test_zero_epochs_init_only(self):
        cfg = parse_config(SMALL_RUN.replace("train.epochs = 1", "train.epochs = 0")
                           + "diagnostics.heatmap = 100\n")
        art = run_experiment(cfg)
        leg = art.legs[0]
        assert leg.steps == 0
        assert leg.metrics == []
        assert not leg.diverged
        rows = leg.tables["heatmap"][1]
        assert len(rows) == 1 and rows[0][0] == 0

    def test_histogram_at_init_reads_a_real_gradient(self):
        # step 0 comes before any training backward: the instrument takes its own
        cfg = parse_config(SMALL_RUN.replace("train.epochs = 1", "train.epochs = 0")
                           + "diagnostics.histogram = 1\n")
        rows = run_experiment(cfg).legs[0].tables["histogram"][1]
        assert [r[:2] for r in rows] == [(0, "conv0.kernel"), (0, "conv1.kernel")]
        for _, _, mean, std, kurtosis, tail, max_abs in rows:
            assert std > 0 and max_abs > 0 and np.isfinite(kurtosis)

    def test_mean_grad_table_on_a_residual_bn_net(self):
        cfg = parse_config(SMALL_RUN.replace("network.depth = 2", "network.depth = 3")
                           + "network.residual = true\ndiagnostics.mean_grad = 3\n")
        columns, rows = run_experiment(cfg).legs[0].tables["mean_grad"]
        assert columns == ("step", "layer", "in_channel", "out_channel", "input_mean",
                           "grad_mag")
        # a stem convolution (3 -> 6) and one block's two (6 -> 6): sum c_in * c_out
        # rows at init and after steps 3 and 6
        per_firing = 3 * 6 + 6 * 6 + 6 * 6
        assert [r[0] for r in rows] == [0] * per_firing + [3] * per_firing + [6] * per_firing
        assert {r[1] for r in rows} == {"conv0", "block0.conv1", "block0.conv2"}
        assert all(np.isfinite(r[4]) and np.isfinite(r[5]) and r[5] >= 0 for r in rows)
        # block0.conv2 reads norm1's output rebuilt from its cache: at init (beta 0)
        # each channel's batch mean is 0 up to rounding
        fed = [r[4] for r in rows if r[0] == 0 and r[1] == "block0.conv2"]
        assert len(fed) == 36 and max(abs(m) for m in fed) < 1e-12

    def test_histogram_rows_do_not_depend_on_other_instruments(self):
        alone = parse_config(SMALL_RUN + "diagnostics.histogram = 2\n")
        crowded = parse_config(SMALL_RUN + "diagnostics.histogram = 2\n"
                               "diagnostics.classwise = 1\ndiagnostics.coherence = 3\n")
        crowded.diagnostics = tuple(reversed(crowded.diagnostics))  # histogram fires last
        assert (run_experiment(alone).legs[0].tables["histogram"]
                == run_experiment(crowded).legs[0].tables["histogram"])

    def test_divergence_recording(self, tmp_path):
        cfg = parse_config(SMALL_RUN + "train.divergence_threshold = 1e-9\n")
        art = run_experiment(cfg)
        leg = art.legs[0]
        assert leg.diverged
        assert leg.steps == 1
        assert len(leg.metrics) == 1  # metrics up to the event are kept
        assert leg.event is not None and leg.event.step == 1
        assert np.isnan(leg.final_test_acc)
        paths = emit(art, str(tmp_path / "out"))
        names = {os.path.basename(p) for p in paths}
        assert "divergence.json" in names
        assert "divergence_moments.csv" in names
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["legs"][0]["diverged"] is True
        assert summary["best_leg"] is None

    def test_sweep_marks_best(self):
        cfg = parse_config(SMALL_RUN + "train.lr_sweep = 0.05, 0.001\n")
        art = run_experiment(cfg)
        assert len(art.legs) == 2
        assert not any(leg.diverged for leg in art.legs)
        assert art.best_index is not None

    def test_learns_above_chance(self):
        # Well-separated 4-class blobs: loss must fall from ln(4) ~ 1.39
        # and test accuracy must clear twice the 0.25 chance level.
        cfg = parse_config(
            "network.depth = 2\nnetwork.width = 8\nnetwork.norm = batch\n"
            "dataset.classes = 4\ndataset.per_class = 64\n"
            "dataset.test_per_class = 16\ndataset.shape = 3,8,8\n"
            "train.batch_size = 32\ntrain.base_lr = 0.1\n"
            "train.epochs = 20\ntrain.schedule = none\ntrain.seed = 0\n"
        )
        art = run_experiment(cfg)
        leg = art.legs[0]
        assert not leg.diverged
        assert leg.metrics[-1][3] < 0.5
        assert leg.final_test_acc >= 0.5

    def test_leg_order_independence(self):
        cfg = parse_config(SMALL_RUN + "train.lr_sweep = 0.05, 0.001\n")
        train, test = load_dataset(cfg)
        forward = [run_leg(cfg, lr, i, train, test) for i, lr in enumerate(cfg.lr_sweep)]
        backward = [
            run_leg(cfg, lr, i, train, test)
            for i, lr in reversed(list(enumerate(cfg.lr_sweep)))
        ][::-1]
        for a, b in zip(forward, backward):
            assert a.metrics == b.metrics
            assert a.final_test_acc == b.final_test_acc

    def test_batch_larger_than_dataset_rejected(self):
        cfg = parse_config("network.depth = 1\ndataset.classes = 2\n"
                           "dataset.per_class = 4\ntrain.batch_size = 32\n")
        with pytest.raises(ConfigError, match="exceeds"):
            run_experiment(cfg)

    def test_best_leg_tie_breaks_to_larger_lr(self):
        def leg(lr, acc, diverged=False):
            return LegResult(lr=lr, steps=5, metrics=[], tables={},
                             diverged=diverged, event=None, final_test_acc=acc)

        assert _best_leg([leg(0.1, 0.8), leg(0.001, 0.8)]) == 0
        assert _best_leg([leg(0.001, 0.8), leg(0.1, 0.8)]) == 1
        assert _best_leg([leg(0.1, 0.5), leg(0.001, 0.9)]) == 1
        assert _best_leg([leg(0.1, 0.9, diverged=True), leg(0.001, 0.2)]) == 1
        assert _best_leg([leg(0.1, float("nan"), diverged=True)]) is None


class TestEmit:
    def _artifact(self, extra=""):
        return run_experiment(parse_config(SMALL_RUN + extra))

    def test_metrics_round_trip(self, tmp_path):
        art = self._artifact()
        emit(art, str(tmp_path))
        leg_dir = next(p for p in tmp_path.iterdir() if p.name.startswith("leg_0"))
        lines = (leg_dir / "metrics.csv").read_text().splitlines()
        assert lines[0] == ",".join(METRIC_COLUMNS)
        parsed = [line.split(",") for line in lines[1:]]
        for row, orig in zip(parsed, art.legs[0].metrics):
            assert int(row[0]) == orig[0]
            assert float(row[3]) == orig[3]  # 17 significant digits: exact
            if np.isnan(orig[4]):
                assert row[4] == "nan"

    def test_zero_epoch_header_only(self, tmp_path):
        art = self._artifact(extra="") if False else run_experiment(
            parse_config(SMALL_RUN.replace("train.epochs = 1", "train.epochs = 0"))
        )
        emit(art, str(tmp_path))
        leg_dir = next(p for p in tmp_path.iterdir() if p.name.startswith("leg_0"))
        lines = (leg_dir / "metrics.csv").read_text().splitlines()
        assert lines == [",".join(METRIC_COLUMNS)]

    def test_deterministic_emission(self, tmp_path):
        cfg_text = SMALL_RUN + "diagnostics.coherence = 3\n"
        a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
        emit(run_experiment(parse_config(cfg_text)), a_dir)
        emit(run_experiment(parse_config(cfg_text)), b_dir)
        for root, _, files in os.walk(a_dir):
            for name in files:
                if not name.endswith(".csv") and name != "config.txt":
                    continue
                a_path = os.path.join(root, name)
                b_path = a_path.replace(a_dir, b_dir, 1)
                with open(a_path, "rb") as fa, open(b_path, "rb") as fb:
                    assert fa.read() == fb.read(), name

    def test_config_echo_written(self, tmp_path):
        art = self._artifact()
        emit(art, str(tmp_path))
        echoed = (tmp_path / "config.txt").read_text()
        assert parse_config(echoed).batch_size == 16
