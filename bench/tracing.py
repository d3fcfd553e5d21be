"""Spans around the public functions of bnlab, recorded from outside.

A Tracer wraps each function in SPANS and rebinds every name under which
the program looks that function up: the defining module, every bnlab module
that imported it by name (nn binds conv2d_forward, the CLI binds the
diagnostics), and module-level tables that hold the function object itself.
Methods are wrapped on their class. Spans (name, start, end, parent) are kept
in memory and written out when the run ends.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import time

# span name -> (defining module, attribute path)
SPANS = {
    "tensor.conv2d_forward": ("bnlab.tensor", "conv2d_forward"),
    "tensor.conv2d_backward": ("bnlab.tensor", "conv2d_backward"),
    "tensor.conv2d_summand_stats": ("bnlab.tensor", "conv2d_summand_stats"),
    "tensor.gram_eigenvalues": ("bnlab.tensor", "gram_eigenvalues"),
    "nn.BatchNorm.forward": ("bnlab.nn", "BatchNorm.forward"),
    "nn.BatchNorm.backward": ("bnlab.nn", "BatchNorm.backward"),
    "nn.ReLU.forward": ("bnlab.nn", "ReLU.forward"),
    "nn.ReLU.backward": ("bnlab.nn", "ReLU.backward"),
    "nn.ResidualBlock.forward": ("bnlab.nn", "ResidualBlock.forward"),
    "nn.ResidualBlock.backward": ("bnlab.nn", "ResidualBlock.backward"),
    "nn.softmax_xent": ("bnlab.nn", "softmax_xent"),
    "nn.Network.loss_and_grad": ("bnlab.nn", "Network.loss_and_grad"),
    "nn.Network.loss_only": ("bnlab.nn", "Network.loss_only"),
    "nn.Network.accuracy": ("bnlab.nn", "Network.accuracy"),
    "nn.sgd_step": ("bnlab.nn", "sgd_step"),
    "nn.build_network": ("bnlab.nn", "build_network"),
    "diagnostics.DivergenceMonitor.check": ("bnlab.diagnostics", "DivergenceMonitor.check"),
    "diagnostics.depth_moment_profile": ("bnlab.diagnostics", "depth_moment_profile"),
    "diagnostics.sign_coherence": ("bnlab.diagnostics", "sign_coherence"),
    "diagnostics.loss_step_probe": ("bnlab.diagnostics", "loss_step_probe"),
    "diagnostics.class_grad_heatmap": ("bnlab.diagnostics", "class_grad_heatmap"),
    "noise.per_example_gradients": ("bnlab.noise", "per_example_gradients"),
    "noise.empirical_sgd_noise": ("bnlab.noise", "empirical_sgd_noise"),
    "rmt.sample_product_spectrum": ("bnlab.rmt", "sample_product_spectrum"),
    "rmt.FussCatalanDensity.cdf": ("bnlab.rmt", "FussCatalanDensity.cdf"),
    "rmt.density": ("bnlab.rmt", "density"),
    "rmt.ks_distance": ("bnlab.rmt", "ks_distance"),
    "rmt.condition_report": ("bnlab.rmt", "condition_report"),
    "harness.parse_config": ("bnlab.harness.config", "parse_config"),
    "harness.load_dataset": ("bnlab.harness.run", "load_dataset"),
    "harness.run_leg": ("bnlab.harness.run", "run_leg"),
    "harness.emit": ("bnlab.harness.run", "emit"),
}


def _conv_flop(x_shape, kernel_shape) -> float:
    b, c, h, w = x_shape
    return 2.0 * b * h * w * kernel_shape[0] * c * 9


def _conv_forward_extra(args, kwargs, result):
    x, kernel = args[0], args[1]
    b, c, h, w = x.shape
    return {
        "tensor.conv2d_forward.gflop": _conv_flop(x.shape, kernel.shape) / 1e9,
        "tensor.conv2d_forward.col_mb": b * h * w * c * 9 * 8 / 1e6,
    }


def _conv_backward_extra(args, kwargs, result):
    # two products of the forward's size: the kernel gradient and the columns' gradient
    x, kernel = args[1], args[2]
    return {"tensor.conv2d_backward.gflop": 2 * _conv_flop(x.shape, kernel.shape) / 1e9}


def _check_extra(args, kwargs, result):
    return {"diagnostics.DivergenceMonitor.check.fired": float(result is not None)}


def _emit_extra(args, kwargs, result):
    return {"harness.emit.bytes": float(sum(os.path.getsize(p) for p in result))}


EXTRAS = {
    "tensor.conv2d_forward": _conv_forward_extra,
    "tensor.conv2d_backward": _conv_backward_extra,
    "diagnostics.DivergenceMonitor.check": _check_extra,
    "harness.emit": _emit_extra,
}

# per-layer metrics beyond <span>.calls / .ms / .self_s: name -> (unit, better)
EXTRA_METRICS = {
    "tensor.conv2d_forward.gflops": ("GFLOP/s", "higher"),
    "tensor.conv2d_forward.col_mb": ("MB", "lower"),
    "tensor.conv2d_backward.gflops": ("GFLOP/s", "higher"),
    "diagnostics.DivergenceMonitor.check.fired": ("count", "higher"),
    "harness.emit.bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer_schema() -> dict:
    """Every per-layer metric name -> (unit, better)."""
    out = {}
    for span in SPANS:
        out[span + ".calls"] = ("count", "lower")
        out[span + ".ms"] = ("ms", "lower")
        out[span + ".self_s"] = ("s", "lower")
    out.update(EXTRA_METRICS)
    return out


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a function or a method."""
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


class Tracer:
    """Records spans while installed; restores every rebound name on uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counters: dict[str, dict[str, float]] = {}  # phase -> extra -> total
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.phase]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                totals = tracer.counters.setdefault(tracer.phase, {})
                for key, value in extra(args, kwargs, result).items():
                    totals[key] = totals.get(key, 0.0) + value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bnlab" or n.startswith("bnlab."))]
        for span, (module_name, path) in SPANS.items():
            owner, attr, original = _resolve(module_name, path)
            wrapper = self._wrap(span, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append((setattr, owner, attr, original))
                continue
            for module in modules:
                self._rebind(module, original, wrapper)

    def _rebind(self, module, original, wrapper) -> None:
        """Replace original under every module-level name and table entry."""
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                self._undo.append((setattr, module, key, original))
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper
                        self._undo.append((dict.__setitem__, value, k, original))
                    elif isinstance(v, tuple) and any(e is original for e in v):
                        value[k] = tuple(wrapper if e is original else e for e in v)
                        self._undo.append((dict.__setitem__, value, k, v))

    def uninstall(self) -> None:
        for setter, owner, key, original in reversed(self._undo):
            setter(owner, key, original)
        self._undo.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, phase in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "phase": phase}) + "\n")

    def fired(self) -> set[str]:
        return {s[0] for s in self.spans}

    def per_layer(self, traced_rounds: int) -> dict[str, float]:
        """Per-layer metrics for the set-up plus one traced round.

        Counts, self times and extra totals add the set-up's share to the
        traced rounds' total divided by their number; .ms is the median
        duration over every call.
        """
        if traced_rounds < 1:
            raise ValueError("need at least one traced round")
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations: dict[str, list[float]] = {}
        share: dict[str, list[float]] = {}  # name -> [calls, self seconds]
        for i, (name, start, end, parent, phase) in enumerate(self.spans):
            weight = 1.0 if phase == "setup" else 1.0 / traced_rounds
            durations.setdefault(name, []).append(end - start)
            acc = share.setdefault(name, [0.0, 0.0])
            acc[0] += weight
            acc[1] += weight * (end - start - child_time[i])
        extras: dict[str, float] = {}
        for phase, totals in self.counters.items():
            weight = 1.0 if phase == "setup" else 1.0 / traced_rounds
            for key, value in totals.items():
                extras[key] = extras.get(key, 0.0) + weight * value
        out = {}
        for span in SPANS:
            d = durations.get(span, [])
            calls, self_s = share.get(span, (0.0, 0.0))
            out[span + ".calls"] = calls
            out[span + ".ms"] = 1e3 * statistics.median(d) if d else 0.0
            out[span + ".self_s"] = self_s
        for conv in ("tensor.conv2d_forward", "tensor.conv2d_backward"):
            busy = sum(durations.get(conv, []))
            gflop = sum(t.get(conv + ".gflop", 0.0) for t in self.counters.values())
            out[conv + ".gflops"] = gflop / busy if busy > 0 else 0.0
        out["tensor.conv2d_forward.col_mb"] = extras.get("tensor.conv2d_forward.col_mb", 0.0)
        for key in ("diagnostics.DivergenceMonitor.check.fired", "harness.emit.bytes"):
            out[key] = extras.get(key, 0.0)
        return out
