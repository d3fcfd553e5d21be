"""Benchmark entry point: one workload, one process, closed loop.

    python3 bench/run.py --workload divergence-twins --seed 0 --seconds 30 --trace 0

Run from the repository root. The program is imported from ./src. A run
sets up the workload, then runs identical rounds, each starting when the
previous one ended, until another round would overrun --seconds (at least
one round). Checks run after the timed rounds. The last line of stdout is
the result JSON; the line before it records the environment and the checks.
Artifacts and run records go to bench/out/.

--trace 0 reports the end-to-end metrics. set-up time is the median over
five fresh processes, each timed from its start until it has imported the
program and parsed the workload's configs.
--trace 1 reports the per-layer metrics: the set-up and every other round
(untraced, traced, untraced, ...; at least three rounds) run with spans
around the program's public functions, and trace.overhead_s is the traced
minus the untraced round time, leaving out the first round.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import report
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_PROBES = 5

# spans each workload must fire (the layer table in README.md)
EXPECTED_SPANS = {
    "divergence-twins": (
        "tensor.conv2d_forward", "tensor.conv2d_backward",
        "nn.BatchNorm.forward", "nn.BatchNorm.backward", "nn.ReLU.forward", "nn.ReLU.backward",
        "nn.ResidualBlock.forward", "nn.ResidualBlock.backward", "nn.softmax_xent",
        "nn.Network.loss_and_grad", "nn.Network.loss_only", "nn.Network.accuracy",
        "nn.sgd_step", "nn.build_network",
        "diagnostics.DivergenceMonitor.check", "diagnostics.depth_moment_profile",
        "harness.parse_config", "harness.load_dataset", "harness.run_leg", "harness.emit",
    ),
    "init-analysis": (
        "tensor.conv2d_forward", "tensor.conv2d_backward", "tensor.conv2d_summand_stats",
        "nn.BatchNorm.forward", "nn.BatchNorm.backward", "nn.build_network",
        "diagnostics.depth_moment_profile", "diagnostics.sign_coherence",
        "diagnostics.loss_step_probe", "diagnostics.class_grad_heatmap",
        "noise.per_example_gradients", "noise.empirical_sgd_noise",
        "harness.parse_config", "harness.load_dataset",
    ),
    "rmt-spectra": (
        "tensor.gram_eigenvalues", "rmt.sample_product_spectrum", "rmt.FussCatalanDensity.cdf",
        "rmt.density", "rmt.ks_distance", "rmt.condition_report", "harness.parse_config",
    ),
}


def _single_thread_blas() -> int:
    """One BLAS thread; must run before numpy loads.

    On a shared two-core machine two OpenBLAS threads slow down several-fold
    whenever another process takes a core, and one thread is as fast at
    these sizes.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def _fixed_hash_seed(argv) -> None:
    """Run again, in this process, under string-hash seed 0 unless already so.

    The hash seed changes the order of CPython's allocations and with them
    how the noise-bound rows fit into the heap: at one workload seed, the
    peak RSS of init-analysis ranged from 151 to 175 MB over six hash seeds.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        args = sys.argv[1:] if argv is None else list(argv)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *args])


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed: int, threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "seed": seed,
        "commit": _git_commit(),
    }


def _setup_sample(args) -> float:
    """Seconds from starting a fresh process until its set-up is done."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED_SPANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bnlab", "__init__.py")):
        print(f"bnlab sources not found under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    _fixed_hash_seed(argv)
    threads = _single_thread_blas()
    sys.path.insert(0, src)

    import workloads  # numpy and bnlab load here, after the thread limits

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    out_dir = os.path.join(BENCH_DIR, "out", args.workload, f"seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    if tracer is not None:
        tracer.uninstall()
        tracer.phase = "round"

    setup = [] if tracer else [_setup_sample(args) for _ in range(SETUP_PROBES)]

    walls = {False: [], True: []}  # traced? -> round seconds
    digests = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        workload.prepare()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        workload.run_round()
        walls[traced].append(time.perf_counter() - t0)
        if traced:
            tracer.uninstall()
        digests.append(workloads.csv_digest(workload.artifacts))
        every = walls[False] + walls[True]
        if tracer is not None and (len(walls[False]) < 2 or not walls[True]):
            continue
        if time.perf_counter() - start + statistics.median(every) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    missing, checks, not_run = [], [], []
    if tracer is not None:
        # taken before the checks, which call the program too
        fired = tracer.fired()
        missing = [s for s in EXPECTED_SPANS[args.workload] if s not in fired]
        checks.append(["every expected span fired", not missing,
                       "missing: " + ", ".join(missing) if missing else "all fired"])
        values = tracer.per_layer(len(walls[True]))
        # the first round also pays for warming up, so it is left out here
        values["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False][1:])
        for span in missing:
            for key in [k for k in values if k.startswith(span + ".")]:
                del values[key]
        tracer.dump(os.path.join(out_dir, "spans.jsonl"))
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls[False]),
            "peak_rss_mb": peak_rss_mb,
        }
    checks += [[name, bool(ok), detail] for name, ok, detail in workload.check()]
    if len(digests) > 1:
        checks.append(["artifacts identical in every round", len(set(digests)) == 1,
                       f"{len(digests)} rounds"])
    else:  # a single round has nothing to compare with
        not_run.append("artifacts identical in every round")
    correct = all(c[1] for c in checks)
    for name, ok, detail in checks:
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": _environment(args.seed, threads),
        "rounds": {"untraced_s": walls[False], "traced_s": walls[True]},
        "setup_samples_s": setup,
        "csv_sha256": digests[-1],
        "checks": checks,
        "checks_not_run": not_run,
        "missing_spans": missing,
    }
    with open(os.path.join(out_dir, f"record-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(report.result_line(correct, workload.ops.attempted, workload.ops.failed,
                             values, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
