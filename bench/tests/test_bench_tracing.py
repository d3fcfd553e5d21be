"""The tracer patches the names callers look up and accounts self time."""
import json
import os
import sys
import types

import numpy as np
import pytest

import report
import run
import tracing
from bnlab import diagnostics, nn, tensor
from bnlab.harness import cli
from bnlab.harness import run as hrun

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_names_bound_by_import_are_patched(tracer):
    # nn binds conv2d_forward by name; the CLI binds the diagnostics by name
    for fn in (nn.conv2d_forward, cli.depth_moment_profile, hrun.depth_moment_profile,
               cli.load_dataset, diagnostics.conv2d_summand_stats):
        assert hasattr(fn, "__wrapped__")
    cfg = nn.NetworkConfig(depth=2, width=4, input_shape=(3, 4, 4), residual=True)
    net = nn.build_network(cfg, tensor.SeededRng(0))
    x = np.random.default_rng(0).normal(size=(8, 3, 4, 4))
    net.loss_and_grad(x, np.arange(8) % 10)
    fired = tracer.fired()
    for span in ("tensor.conv2d_forward", "tensor.conv2d_backward", "nn.BatchNorm.forward",
                 "nn.ResidualBlock.backward", "nn.softmax_xent", "nn.Network.loss_and_grad",
                 "nn.build_network"):
        assert span in fired, span


def test_uninstall_restores_every_name():
    original = (tensor.conv2d_forward, nn.conv2d_forward, nn.BatchNorm.__dict__["forward"],
                cli.load_dataset, hrun.emit)
    t = tracing.Tracer()
    t.install()
    t.uninstall()
    assert (tensor.conv2d_forward, nn.conv2d_forward, nn.BatchNorm.__dict__["forward"],
            cli.load_dataset, hrun.emit) == original


def test_function_objects_held_in_tables_are_patched():
    fake = types.ModuleType("bnlab._bench_table_test")
    fake.TABLE = {"moments": (("layer",), diagnostics.depth_moment_profile)}
    sys.modules[fake.__name__] = fake
    try:
        t = tracing.Tracer()
        t.install()
        try:
            assert hasattr(fake.TABLE["moments"][1], "__wrapped__")
        finally:
            t.uninstall()
        assert fake.TABLE["moments"][1] is diagnostics.depth_moment_profile
    finally:
        del sys.modules[fake.__name__]


def test_self_time_subtracts_direct_children():
    t = tracing.Tracer()
    t.spans = [
        ["nn.ResidualBlock.backward", 0.0, 10.0, -1, "round"],
        ["tensor.conv2d_backward", 1.0, 4.0, 0, "round"],
        ["nn.BatchNorm.backward", 5.0, 7.0, 0, "round"],
        ["harness.parse_config", 0.0, 0.5, -1, "setup"],
    ]
    values = t.per_layer(traced_rounds=2)
    assert values["nn.ResidualBlock.backward.self_s"] == pytest.approx(2.5)
    assert values["nn.ResidualBlock.backward.calls"] == 0.5
    assert values["tensor.conv2d_backward.ms"] == pytest.approx(3000.0)
    assert values["harness.parse_config.calls"] == 1.0  # set-up is not divided
    assert values["rmt.density.calls"] == 0.0


def test_expected_spans_are_traced():
    for spans in run.EXPECTED_SPANS.values():
        assert set(spans) <= set(tracing.SPANS)


def test_benchmark_json_matches_the_schema():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == report.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == report.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.EXPECTED_SPANS)
