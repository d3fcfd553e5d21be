"""End-to-end tests of the command-line interface and its exit codes."""
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bnlab
from bnlab.harness import config as config_module
from bnlab.harness.cli import _DISPATCH, main
from bnlab.harness.config import DATASET_KINDS
from bnlab.nn import NETWORK_KINDS, NORMS, PLACEMENTS
from bnlab.rmt import (FussCatalanDensity, condition_report, density, sample_product_spectrum,
                       support_upper)
from bnlab.tensor import INIT_KINDS

SMALL = """
network.depth = 2
network.width = 6
dataset.classes = 3
dataset.per_class = 16
dataset.test_per_class = 6
train.batch_size = 8
train.epochs = 1
rmt.m = 2
rmt.m_list = 1,2
rmt.n = 16
rmt.trials = 2
rmt.grid_points = 64
noise.examples = 8
noise.batch_sizes = 1,4
noise.lrs = 0.1,1.0
noise.trials = 200
"""


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(SMALL)
    return str(p)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestTrain:
    def test_exit_zero_and_artifacts(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["train", "--config", config_path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "summary.json"))
        assert os.path.exists(os.path.join(out, "config.txt"))
        printed = capsys.readouterr().out
        assert "leg 0" in printed

    def test_seed_override_changes_run(self, config_path, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["train", "--config", config_path, "--out", out_a, "--seed", "50"]) == 0
        assert main(["train", "--config", config_path, "--out", out_b, "--seed", "51"]) == 0

        def metrics(d):
            leg = next(n for n in os.listdir(d) if n.startswith("leg_0"))
            return open(os.path.join(d, leg, "metrics.csv")).read()

        assert metrics(out_a) != metrics(out_b)

    def test_same_seed_byte_identical(self, config_path, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(["train", "--config", config_path, "--out", out, "--seed", "9"]) == 0

        def metrics(d):
            leg = next(n for n in os.listdir(d) if n.startswith("leg_0"))
            return open(os.path.join(d, leg, "metrics.csv"), "rb").read()

        assert metrics(out_a) == metrics(out_b)


def _cifar_record(label, gen):
    return bytes([label]) + gen.integers(0, 256, size=3072, dtype=np.uint8).tobytes()


class TestCifarFormat:
    """train on tiny files in the CIFAR-10 binary layout: the path a real
    CIFAR-10 directory takes, without the download."""

    @pytest.fixture
    def cifar_config(self, tmp_path):
        data = tmp_path / "cifar"
        data.mkdir()
        gen = np.random.default_rng(3)
        for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
            (data / name).write_bytes(b"".join(_cifar_record(int(k), gen) for k in range(4)))
        p = tmp_path / "cifar.cfg"
        p.write_text(
            "network.depth = 2\nnetwork.width = 4\n"
            f"dataset.kind = cifar10\ndataset.dir = {data}\ndataset.augment = true\n"
            "train.batch_size = 4\ntrain.epochs = 1\ndiagnostics.moments = 2\n"
        )
        return str(p), data

    def test_trains_and_reruns_byte_identical(self, cifar_config, tmp_path):
        config, _ = cifar_config
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--config", config, "--out", str(out)]) == 0
            runs.append({str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*.csv")})
        assert {"leg_0_lr0.10000000000000001/metrics.csv",
                "leg_0_lr0.10000000000000001/moments.csv"} <= set(runs[0])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("fault", ["missing", "truncated", "label", "empty"])
    def test_bad_file_is_two(self, cifar_config, tmp_path, capsys, fault):
        config, data = cifar_config
        victim = data / ("data_batch_3.bin" if fault != "empty" else "test_batch.bin")
        blob = victim.read_bytes()
        if fault == "missing":
            victim.unlink()
        elif fault == "truncated":
            victim.write_bytes(blob[:-1])
        elif fault == "label":
            victim.write_bytes(blob[:3073] + bytes([10]) + blob[3074:])
        else:
            victim.write_bytes(b"")
        assert main(["train", "--config", config, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run error:")
        assert victim.name in err
        assert "Traceback" not in err


class TestExitCodes:
    def test_config_error_is_one(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("network.depth = 8\nnot_a_key = 1\n")
        assert main(["train", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_is_one(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert main(["train", "--config", missing, "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "rmt-spectrum"])
    @pytest.mark.parametrize("through", ["config", "flag"])
    def test_negative_seed_is_one_without_traceback(self, tmp_path, capsys, command, through):
        p = tmp_path / "c.cfg"
        p.write_text("network.depth = 2\n" + ("train.seed = -1\n" if through == "config" else ""))
        flag = ["--seed", "-1"] if through == "flag" else []
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o"), *flag]) == 1
        assert capsys.readouterr().err == "config error: seed must be >= 0 (got -1)\n"

    def test_non_utf8_config_is_one_without_traceback(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"network.depth = 2\nout.dir = r\xfcns\n")
        assert main(["train", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"config error: cannot read {p}: byte 29 is not UTF-8\n"

    def test_directory_as_config_is_one(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"config error: cannot read {tmp_path}: Is a directory\n"

    def test_missing_dataset_dir_is_two(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text(
            "network.depth = 1\ndataset.kind = cifar10\n"
            f"dataset.dir = {tmp_path / 'no_such_dir'}\n"
        )
        assert main(["train", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "run error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "rmt-density", "init-moments"])
    @pytest.mark.parametrize("extra, message", [
        ("network.norm = group\nnetwork.groups = 0\n", "width and groups must be >= 1"),
        ("network.bn_period = 0\n", "bn_period must be >= 1"),
        ("network.residual = true\nnetwork.width = 2\n",
         "a residual net of even depth cannot have width (2) below the input channels (3)"),
        ("network.kind = dense\nnetwork.norm = layer\nnetwork.width = 1\n",
         "layer normalization region would hold 1 element"),
        ("network.norm = instance\ndataset.shape = 10,1,1\n",
         "instance normalization region would hold 1 element"),
        ("network.norm = group\nnetwork.groups = 4\nnetwork.width = 4\ndataset.shape = 2,1,1\n",
         "group normalization region would hold 1 element"),
        ("network.norm = layer\nnetwork.width = 1\ndataset.shape = 2,1,1\n",
         "layer normalization region would hold 1 element"),
    ], ids=["groups", "bn-period", "narrowing", "dense-layer-region", "instance-region",
            "group-region", "layer-region"])
    def test_unrunnable_value_is_one_without_traceback(self, tmp_path, capsys, command,
                                                       extra, message):
        p = tmp_path / "c.cfg"
        p.write_text("network.depth = 2\n" + extra)
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: " + message)
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, data", [
        ("probe-loss", "dataset.classes = 2\ndataset.shape = 2,4,4\ndataset.separation = 1e308\n"),
        ("train", "dataset.classes = 2\ndataset.shape = 2,4,4\ndataset.separation = 1e308\n"),
        ("train", "dataset.classes = 10\ndataset.shape = 3,8,8\ndataset.separation = 1e200\n"),
    ], ids=["probe-loss-1e308", "train-1e308", "train-1e200"])
    def test_overflowing_separation_is_one_without_traceback(self, tmp_path, capsys, command,
                                                             data):
        # the training set's channel mean (1e308) or std (1e200) is not finite
        p = tmp_path / "c.cfg"
        p.write_text("network.depth = 2\nnetwork.width = 4\ndataset.per_class = 4\n"
                     "dataset.test_per_class = 2\ntrain.batch_size = 4\ntrain.epochs = 1\n" + data)
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: dataset.separation = ")
        assert "per-channel mean or std is not finite" in err and "Traceback" not in err

    def test_removed_sigmas_key_is_one_without_traceback(self, tmp_path, capsys):
        # factors are N(0, 1/N); per-factor scales would be divided back out
        p = tmp_path / "c.cfg"
        p.write_text("network.depth = 2\nrmt.sigmas = 1\n")
        assert main(["rmt-spectrum", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "config error: line 2: unknown key 'rmt.sigmas'\n"

    @pytest.mark.parametrize("key, allowed", [
        ("network.kind", NETWORK_KINDS), ("network.norm", NORMS),
        ("network.placement", PLACEMENTS), ("network.init", INIT_KINDS),
        ("dataset.kind", DATASET_KINDS),
    ])
    def test_bad_enumerated_value_is_one_with_its_line(self, tmp_path, capsys, key, allowed):
        p = tmp_path / "c.cfg"
        p.write_text(f"network.depth = 2\n{key} = bogus\n")
        assert main(["train", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"config error: line 2: bad value for {key!r}: must be one of {allowed}, got 'bogus'\n"
        )

    @pytest.mark.parametrize("command", ["train", "init-moments"])
    def test_batch_beyond_training_set_is_one(self, tmp_path, capsys, command):
        p = tmp_path / "c.cfg"
        p.write_text("network.depth = 1\ndataset.classes = 2\n"
                     "dataset.per_class = 4\ntrain.batch_size = 32\n")
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert "batch_size 32 exceeds the training set (8)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "init-moments", "noise-bound"])
    def test_empty_synthetic_test_set_is_one(self, tmp_path, capsys, command):
        p = tmp_path / "c.cfg"
        p.write_text("network.depth = 2\ndataset.test_per_class = 0\n")
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "config error: synthetic data needs classes >= 2, per_class >= 1, "
            "test_per_class >= 1\n"
        )

    def test_runtime_error_after_parse_is_two(self, config_path, tmp_path, capsys):
        taken = tmp_path / "a_file"
        taken.write_text("")
        assert main(["noise-bound", "--config", config_path, "--out", str(taken)]) == 2
        assert "run error" in capsys.readouterr().err

    @pytest.mark.parametrize("message", ["Unable to allocate 8.00 EiB", ""])
    def test_memory_error_is_two_without_traceback(self, config_path, tmp_path, capsys,
                                                   monkeypatch, message):
        def load_dataset(cfg):
            raise MemoryError(message)

        monkeypatch.setattr("bnlab.harness.cli.load_dataset", load_dataset)
        assert main(["init-moments", "--config", config_path, "--out", str(tmp_path)]) == 2
        want = f"run error: out of memory: {message}" if message else "run error: out of memory"
        assert capsys.readouterr().err == want + "\n"

    @pytest.mark.parametrize("extra, batch", [
        ("network.kind = dense\nnetwork.norm = batch\n", 33),
        ("dataset.shape = 3,1,1\ndataset.classes = 3\n", 9),
    ], ids=["dense", "1x1"])
    def test_last_chunk_of_one_refused_by_noise_bound_only(self, tmp_path, capsys, extra, batch):
        # 100 examples in chunks of the batch size leave a last chunk of one;
        # only noise-bound takes per-example gradients
        p = tmp_path / "c.cfg"
        p.write_text(f"network.depth = 8\n{extra}train.batch_size = {batch}\n")
        assert main(["train", "--config", str(p), "--out", str(tmp_path / "t")]) == 0
        assert "leg 0 lr=0.1: " in capsys.readouterr().out
        assert main(["noise-bound", "--config", str(p), "--out", str(tmp_path / "n")]) == 1
        assert capsys.readouterr().err == (
            f"config error: noise.examples = 100 leaves a last chunk of 1 example at "
            f"train.batch_size = {batch}: batch norm would see one element\n"
        )

    def test_noise_examples_beyond_training_set_refused_by_noise_bound_only(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("network.depth = 2\ndataset.classes = 4\ndataset.per_class = 10\n"
                     "train.batch_size = 8\nnoise.examples = 48\n")
        out = str(tmp_path / "o")
        assert main(["init-moments", "--config", str(p), "--out", out]) == 0
        assert main(["noise-bound", "--config", str(p), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == "config error: noise.examples = 48 but the training set has 40\n"

    def test_one_example_bn_chunk_is_one(self, tmp_path, capsys):
        # per-example gradients come in chunks of 5: the last, of 1, is a degenerate batch
        p = tmp_path / "c.cfg"
        p.write_text(
            "network.kind = dense\nnetwork.norm = batch\nnetwork.depth = 3\n"
            "train.batch_size = 5\nnoise.examples = 16\nnoise.batch_sizes = 1, 4\n"
        )
        assert main(["noise-bound", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert "last chunk of 1 example" in capsys.readouterr().err


# a tiny run: two classes of 2x4x4 blobs, 4 training examples each, no
# steps, and rmt and noise tables of a few entries, so that each of the nine
# subcommands takes milliseconds
TINY = {
    "network.depth": "2", "network.width": "4", "dataset.classes": "2",
    "dataset.per_class": "4", "dataset.test_per_class": "2", "dataset.shape": "2,4,4",
    "train.batch_size": "4", "train.epochs": "0", "rmt.grid_points": "5", "rmt.n": "4",
    "rmt.trials": "2", "noise.examples": "8", "noise.batch_sizes": "1, 2", "noise.trials": "20",
}
COMMANDS = tuple(_DISPATCH)
BOUNDARY = (b"-1", b"0", b"1", b"2")
LIST_VALUES = (b"1", b"2", b"1, 2", b"0", b"-1")
_LISTS = (config_module.INTS, config_module.FLOATS, config_module.LRS, config_module.SHAPE,
          config_module.SCHEDULE)
# the rows that size a normalization region, each with values around its edge
REGION_VALUES = {
    "network.norm": tuple(norm.encode() for norm in NORMS),
    "network.width": (b"1", b"2", b"4", b"8"),
    "network.groups": (b"1", b"2", b"4"),
    "dataset.shape": (b"2,1,1", b"2,2,1", b"1,4,4", b"10,1,1"),
}


def _boundary_values(key):
    kind = config_module._ROWS[key][0]
    if kind in _LISTS:
        return LIST_VALUES
    if kind is config_module.FLOAT:
        return BOUNDARY + (b"nan", b"inf", b"-inf", b"1e308")
    if kind is config_module.STR:
        return BOUNDARY + (b"r\xfcns",)  # latin-1, not UTF-8
    return BOUNDARY


def _override(keys, values):
    return st.sampled_from(keys).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(values(key))))


# one key of the table (or --seed) at a boundary value, and maybe a second
# key from the region rows
OVERRIDES = st.tuples(
    st.one_of(_override(list(config_module._ROWS), _boundary_values),
              st.tuples(st.just("--seed"), st.sampled_from(BOUNDARY))),
    st.none() | _override(list(REGION_VALUES), REGION_VALUES.get),
).map(lambda pair: [o for o in pair if o is not None])


class TestExitCodeContract:
    """One key of the key table, or --seed, at a small boundary value, and
    maybe a second key that sizes a normalization region: no exception
    leaves main, and every subcommand exits 1 exactly when it reports a
    config error, 0 otherwise. About 250 examples of nine tiny commands
    each, some 10 s."""

    @settings(derandomize=True, max_examples=250, deadline=None, database=None)
    @given(OVERRIDES)
    @example([("train.seed", b"-1")])
    @example([("--seed", b"-1")])
    @example([("out.dir", b"r\xfcns")])
    @example([("dataset.separation", b"1e308")])
    @example([("network.norm", b"instance"), ("dataset.shape", b"10,1,1")])
    @example([("network.norm", b"group"), ("dataset.shape", b"2,1,1")])
    @example([("network.kind", b"dense"), ("network.norm", b"layer"), ("network.width", b"1")])
    @example([("network.norm", b"layer"), ("network.width", b"1"), ("dataset.shape", b"2,1,1")])
    def test_boundary_value_exits_by_contract(self, overrides):
        lines = {k.encode(): v.encode() for k, v in TINY.items()}
        flag = []
        for key, value in overrides:
            if key == "--seed":
                flag = ["--seed", value.decode()]
            else:
                lines[key.encode()] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.cfg")
            with open(path, "wb") as fh:
                fh.write(b"".join(k + b" = " + v + b"\n" for k, v in lines.items()))
            for command in COMMANDS:
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main([command, "--config", path, "--out", os.path.join(tmp, "o"),
                                 *flag])
                err = err.getvalue()
                assert code == (1 if err.startswith("config error:") else 0), (command, err)


class TestAnalysisCommands:
    def test_probe_loss(self, config_path, tmp_path):
        out = str(tmp_path / "probe")
        assert main(["probe-loss", "--config", config_path, "--out", out]) == 0
        rows = _csv_rows(os.path.join(out, "probe.csv"))
        assert rows[0] == ["alpha", "relative_loss", "finite"]
        assert float(rows[1][0]) == 0.0
        assert float(rows[1][1]) == 1.0
        assert len(rows) == 27  # header + zero + 25 grid points

    def test_init_moments(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "mom")
        assert main(["init-moments", "--config", config_path, "--out", out]) == 0
        rows = _csv_rows(os.path.join(out, "moments.csv"))
        assert rows[0] == ["layer", "mean_abs_mean", "mean_variance"]
        assert len(rows) == 3  # two conv layers
        assert "variance ratio" in capsys.readouterr().out

    def test_coherence(self, config_path, tmp_path):
        out = str(tmp_path / "coh")
        assert main(["coherence", "--config", config_path, "--out", out]) == 0
        rows = _csv_rows(os.path.join(out, "coherence.csv"))
        assert rows[0][0] == "layer"
        assert len(rows) == 3
        for row in rows[1:]:
            a, ratio = float(row[1]), float(row[5])
            assert a >= 0 and ratio >= 1.0

    def test_class_heatmap(self, config_path, tmp_path):
        out = str(tmp_path / "heat")
        assert main(["class-heatmap", "--config", config_path, "--out", out]) == 0
        rows = _csv_rows(os.path.join(out, "heatmap.csv"))
        assert rows[0] == ["example", "label", "class_0", "class_1", "class_2"]
        assert len(rows) == 9  # batch of 8
        for row in rows[1:]:
            grads = [float(v) for v in row[2:]]
            assert abs(sum(grads)) < 1e-10
        stats = _csv_rows(os.path.join(out, "heatmap_stats.csv"))
        assert stats[0] == ["modal_column", "dominant_fraction"]

    def test_rmt_density(self, config_path, tmp_path):
        out = str(tmp_path / "dens")
        assert main(["rmt-density", "--config", config_path, "--out", out]) == 0
        rows = _csv_rows(os.path.join(out, "density.csv"))
        assert rows[0] == ["x", "density", "cdf"]
        assert len(rows) == 65
        cdfs = [float(r[2]) for r in rows[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(cdfs, cdfs[1:]))

    def test_rmt_density_columns_equal_per_point_calls(self, config_path, tmp_path):
        out = str(tmp_path / "dens")
        assert main(["rmt-density", "--config", config_path, "--out", out]) == 0
        cdf = FussCatalanDensity(2).cdf
        for x, rho, p in _csv_rows(os.path.join(out, "density.csv"))[1:]:
            assert float(rho) == density(2, float(x))
            assert float(p) == float(cdf(float(x)))

    def test_rmt_density_single_point_at_support_midpoint(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("network.depth = 1\nrmt.m = 2\nrmt.grid_points = 1\n")
        out = str(tmp_path / "dens")
        assert main(["rmt-density", "--config", str(p), "--out", out]) == 0
        rows = _csv_rows(os.path.join(out, "density.csv"))
        assert len(rows) == 2
        assert float(rows[1][0]) == support_upper(2) / 2

    def test_rmt_spectrum(self, config_path, tmp_path):
        out = str(tmp_path / "spect")
        assert main(["rmt-spectrum", "--config", config_path, "--out", out]) == 0
        rows = _csv_rows(os.path.join(out, "spectrum.csv"))
        assert len(rows) == 1 + 2 * 16
        summary = json.load(open(os.path.join(out, "spectrum_summary.json")))
        assert summary["m"] == 2
        assert 0.0 <= summary["ks_distance_to_limit"] <= 1.0

    @pytest.mark.parametrize("m", [28, 100, 200])
    @pytest.mark.parametrize("command", ["rmt-density", "rmt-spectrum"])
    def test_rmt_many_factors_finite(self, command, m, tmp_path):
        # sin(m phi)^m underflows near phi = 0: density from m = 28, the KS table from 200
        p = tmp_path / "c.cfg"
        p.write_text(f"network.depth = 1\nrmt.m = {m}\nrmt.n = 16\nrmt.trials = 2\n"
                     "rmt.grid_points = 64\n")
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out)]) == 0
        values = [float(v) for f in out.glob("*.csv") for row in _csv_rows(f)[1:] for v in row]
        for f in out.glob("*.json"):
            values += [v for v in json.load(open(f)).values() if isinstance(v, float)]
        assert values and all(math.isfinite(v) for v in values)

    def test_rmt_condition(self, config_path, tmp_path):
        out = str(tmp_path / "cond")
        assert main(["rmt-condition", "--config", config_path, "--out", out]) == 0
        summary = _csv_rows(os.path.join(out, "condition_summary.csv"))
        assert [r[0] for r in summary[1:]] == ["1", "2"]
        assert summary[0] == ["m", "median_kappa", "mean_kappa", "median_sigma_max",
                              "mean_sigma_max", "saturated_trials"]
        entries = _csv_rows(os.path.join(out, "condition.csv"))
        assert entries[0] == ["m", "trial", "kappa", "sigma_max", "saturated"]
        assert len(entries) == 1 + 2 * 2

    def test_rmt_condition_equals_per_m_samples(self, tmp_path):
        # one product chain per trial serves every M, unsorted and repeated too
        p = tmp_path / "c.cfg"
        p.write_text("network.depth = 1\nrmt.m_list = 4, 1, 2, 1\nrmt.n = 8\n"
                     "rmt.trials = 3\ntrain.seed = 5\n")
        out = str(tmp_path / "cond")
        assert main(["rmt-condition", "--config", str(p), "--out", out]) == 0
        report = condition_report([sample_product_spectrum(m, 8, 3, 5) for m in (4, 1, 2, 1)])
        for name, table in (("condition.csv", report.entries),
                            ("condition_summary.csv", report.summaries)):
            rows = _csv_rows(os.path.join(out, name))[1:]
            assert [tuple(map(float, r)) for r in rows] == [tuple(e) for e in table]

    def test_noise_bound_on_dense_bn(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(
            "network.kind = dense\nnetwork.norm = batch\nnetwork.depth = 3\n"
            "noise.examples = 16\nnoise.batch_sizes = 1, 4\n"
        )
        out = str(tmp_path / "o")
        assert main(["noise-bound", "--config", str(p), "--out", out]) == 0
        rows = _csv_rows(os.path.join(out, "noise.csv"))
        assert len(rows) == 1 + 2 * 2
        assert all(float(r[2]) > 0 for r in rows[1:])

    def test_noise_bound(self, config_path, tmp_path):
        out = str(tmp_path / "noise")
        assert main(["noise-bound", "--config", config_path, "--out", out]) == 0
        rows = _csv_rows(os.path.join(out, "noise.csv"))
        assert rows[0] == ["lr", "batch_size", "noise_constant", "bound", "closed_form",
                           "mc_with_estimate", "mc_with_std_err",
                           "mc_without_estimate", "mc_without_std_err"]
        assert len(rows) == 1 + 2 * 2  # two lrs x two batch sizes
        for row in rows[1:]:
            bound, closed = float(row[3]), float(row[4])
            assert closed <= bound + 1e-12


class TestAnalysesMatchTraining:
    """An analysis subcommand writes its instrument's step-0 rows of `train`."""

    ANALYSES = {
        "init-moments": ("moments", "moments.csv"),
        "probe-loss": ("probe", "probe.csv"),
        "coherence": ("coherence", "coherence.csv"),
        "class-heatmap": ("heatmap", "heatmap_stats.csv"),
    }

    @pytest.mark.parametrize("network", [
        "network.depth = 2",
        "network.depth = 3\nnetwork.residual = true\nnetwork.norm = none",
    ])
    def test_byte_identical_to_step_zero_rows(self, tmp_path, network):
        text = SMALL.replace("network.depth = 2", network)
        train_cfg = tmp_path / "train.cfg"
        train_cfg.write_text(
            text.replace("train.epochs = 1", "train.epochs = 0")
            + "".join(f"diagnostics.{name} = 1\n" for name, _ in self.ANALYSES.values())
        )
        analysis_cfg = tmp_path / "analysis.cfg"
        analysis_cfg.write_text(text)
        out = tmp_path / "train"
        assert main(["train", "--config", str(train_cfg), "--out", str(out)]) == 0
        (leg_dir,) = out.glob("leg_0_*")
        for command, (name, filename) in self.ANALYSES.items():
            cli_out = tmp_path / command
            assert main([command, "--config", str(analysis_cfg), "--out", str(cli_out)]) == 0
            lines = (leg_dir / f"{name}.csv").read_text().splitlines()
            assert lines[0].startswith("step,")
            assert all(line.startswith("0,") for line in lines[1:])
            without_step = "".join(line.split(",", 1)[1] + "\n" for line in lines)
            assert (cli_out / filename).read_text() == without_step, command


BLAS_CFG = """
network.depth = 2
network.width = 8
dataset.classes = 4
dataset.per_class = 16
train.batch_size = 16
noise.examples = 64
noise.batch_sizes = 1, 8, 64
noise.lrs = 0.1, 1.0
noise.trials = 200
rmt.m_list = 1, 2, 4
rmt.n = 96
rmt.trials = 3
"""


def test_csvs_do_not_depend_on_blas_threads(tmp_path):
    # noise-bound and rmt-condition in one process with one BLAS thread and
    # in another with two: every CSV they write is the same byte for byte
    cfg = tmp_path / "c.cfg"
    cfg.write_text(BLAS_CFG)
    script = ("import sys\nfrom bnlab.harness.cli import main\n"
              "for command in ('noise-bound', 'rmt-condition'):\n"
              "    assert main([command, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n")
    src = os.path.dirname(os.path.dirname(bnlab.__file__))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", script, str(cfg), str(out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    assert sorted(outs[0]) == ["condition.csv", "condition_summary.csv", "noise.csv"]
    assert outs[0] == outs[1]
