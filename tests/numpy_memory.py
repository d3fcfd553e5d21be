"""Held-memory helper shared by the tracemalloc tests."""
import tracemalloc

import numpy as np

_NUMPY_ONLY = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]


def _numpy_bytes() -> int:
    snapshot = tracemalloc.take_snapshot().filter_traces(_NUMPY_ONLY)
    return sum(trace.size for trace in snapshot.traces)


def numpy_held_and_peak(run) -> tuple[int, int]:
    """Call run() under tracemalloc and return (held, peak) in bytes: the
    array data NumPy allocated in the call and still holds after it, and
    the most held at once, which is held plus how far the traced total rose
    above its level at the end. Python objects the call leaves behind (a
    line tracer's frames among them) count in neither."""
    tracemalloc.start()
    try:
        base = _numpy_bytes()
        tracemalloc.reset_peak()
        run()
        current, peak = tracemalloc.get_traced_memory()
        held = _numpy_bytes() - base
    finally:
        tracemalloc.stop()
    return held, held + peak - current
