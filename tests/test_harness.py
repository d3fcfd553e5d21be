"""Tests for configuration, datasets, training runs, and artifact emission."""
import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bnlab.errors import ConfigError, DimensionError, FormatError, SizeError
from bnlab.harness.config import (
    STANDARD_SWEEP,
    ExperimentConfig,
    echo_config,
    parse_config,
)
from bnlab.harness.data import (
    LabeledImageSet,
    augment_batch,
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

    def test_noise_examples_beyond_synthetic_set_rejected(self):
        small = MINIMAL + "dataset.classes = 4\ndataset.per_class = 10\n"
        with pytest.raises(ConfigError, match="noise.examples = 48 exceeds the 40"):
            parse_config(small + "noise.examples = 48\n")
        assert parse_config(small + "noise.examples = 40\n").noise.examples == 40
        # the default (100) is checked when noise-bound runs
        assert parse_config(small).noise.examples == 100

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

    def test_zero_length_gives_empty_set(self):
        ds = parse_cifar10_bin(b"")
        assert ds.n == 0
        assert ds.images.shape == (0, 3, 32, 32)

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
        a = augment_batch(imgs, SeededRng(7))
        b = augment_batch(imgs, SeededRng(7))
        assert_array_equal(a, b)
        assert a.shape == imgs.shape


class TestPreprocess:
    def test_train_statistics_normalized(self):
        gen = SeededRng(3).generator()
        train = LabeledImageSet(
            gen.normal(3.0, 2.5, size=(40, 3, 4, 4)), np.zeros(40, dtype=int), 2
        )
        (out,), stats = preprocess(train)
        assert np.all(np.abs(out.images.mean(axis=(0, 2, 3))) < 1e-10)
        assert_allclose(out.images.std(axis=(0, 2, 3)), 1.0, atol=1e-8)
        assert stats.mean.shape == (3,)

    def test_constant_channel_guarded(self):
        imgs = np.zeros((10, 2, 3, 3))
        imgs[:, 0] = 4.0  # constant channel
        imgs[:, 1] = SeededRng(4).generator().normal(size=(10, 3, 3))
        train = LabeledImageSet(imgs, np.zeros(10, dtype=int), 2)
        (out,), stats = preprocess(train)
        assert np.all(out.images[:, 0] == 0.0)
        assert stats.std[0] == 1e-8

    def test_other_sets_use_train_statistics(self):
        gen = SeededRng(5).generator()
        train = LabeledImageSet(
            gen.normal(0.0, 1.0, size=(50, 1, 4, 4)), np.zeros(50, dtype=int), 2
        )
        shifted = LabeledImageSet(
            gen.normal(10.0, 3.0, size=(50, 1, 4, 4)), np.zeros(50, dtype=int), 2
        )
        (_, out_shifted), stats = preprocess(train, shifted)
        # transformed with train stats, the shifted set keeps its offset
        expected = (shifted.images - stats.mean[:, None, None]) / stats.std[:, None, None]
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
