"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed 1 --seconds 10 --trace 0

prints a host line and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
reports the per-layer metrics from a traced run and writes its spans to
``.perfbench-out/``.  See ``perfbench/README.md`` for what each workload
and metric means.

Every workload runs in fresh processes: set-up-only children, then one
measuring child that times its own set-up too (``setup_s`` is the median
of the ``SETUPS`` set-ups), so set-up time and peak memory belong to that
workload alone.  Every time an end-to-end metric is made of is scaled
to reference speed (``reference.py``).  The library is imported from
``src/`` of the checkout the command runs in.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("batch-fleet", "long-trajectory", "ipls-fleet", "serve-open")
#: fresh set-up processes per run; ``setup_s`` is their median
SETUPS = 3
#: reference rounds each set-up process times, on the wall clock like
#: its set-up, right after it (see ``reference.py``)
SETUP_REF_ROUNDS = 3
#: wall-clock budget of one run, under the 180 s a run may take
BUDGET_S = 170.0
#: BLAS and OpenMP threads per process: pooled workloads run 2 worker
#: threads, so single-threaded kernels keep the thread total at nproc
BLAS_THREADS = "1"
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: share of each traced call that the layer spans must account for
MIN_COVERAGE = 0.95

PER_LAYER = (
    "model.build_s",
    "batch.plan_s",
    "batch.plan_hit_ratio",
    "batch.stack_s",
    "batch.stack_calls",
    "batch.self_s",
    "core.factorize_s",
    "core.solve_s",
    "core.selinv_s",
    "core.factorize_flops",
    "core.solve_flops",
    "core.selinv_flops",
    "core.factorize_bytes",
    "core.solve_bytes",
    "core.selinv_bytes",
    "core.factorize_gflops",
    "core.selinv_gflops",
    "nonlinear.linearize_s",
    "nonlinear.linearize_calls",
    "nonlinear.objective_s",
    "nonlinear.objective_calls",
    "nonlinear.inner_solve_s",
    "nonlinear.stacked_solves",
    "nonlinear.outer_iterations",
    "nonlinear.self_s",
    "parallel.map_s",
    "parallel.map_calls",
    "parallel.tasks",
    "parallel.speedup_2w",
    "stream.submit_s",
    "stream.poll_s",
    "stream.solve_s",
    "stream.flushes",
    "stream.steps_per_flush",
    "stream.effective_max_batch",
    "stream.queue_wait_p99_ms",
    "stream.gen_late_p99_ms",
    "stream.emit_p50_ms",
    "stream.emit_p99_ms",
    "stream.slo_goodput",
    "trace.overhead_ratio",
    "trace.coverage",
)


# ----------------------------------------------------------------------
# parent: orchestrate fresh processes and report
# ----------------------------------------------------------------------
def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def _run_child(mode: str, args, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--child", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError(f"no time left for the {mode} process")
    # subprocess.run kills the child and waits for it on timeout.
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{mode} process exited with {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def parent(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: the library sources (src/repro) are not under {ROOT}",
            file=sys.stderr,
        )
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        setups = [
            _run_child("setup", args, deadline) for _ in range(SETUPS - 1)
        ]
        rec = _run_child("measure", args, deadline)
        setups.append(rec)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    host = {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **rec["versions"],
        "blas_threads": BLAS_THREADS,
        "workers": rec["workers"],
    }
    print("host: " + json.dumps(host, sort_keys=True))
    unscaled = dict(rec.get("unscaled", {}))
    for key in ("setup_raw_s", "setup_ref_s"):
        unscaled[key] = statistics.median(s[key] for s in setups)
    print("unscaled: " + json.dumps(unscaled, sort_keys=True))
    for note in rec["failures"]:
        print(f"failure: {note}", file=sys.stderr)
    if args.trace:
        metrics = {
            name: {"value": rec["layer"][name], "unit": unit}
            for name, unit in _units("per_layer").items()
        }
    else:
        values = dict(rec["metrics"])
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        values["peak_rss_mb"] = rec["peak_rss_mb"]
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in _units("end_to_end").items()
        }
    print(
        json.dumps(
            {
                "correct": rec["failed"] == 0 and rec["checks_ok"],
                "attempted": rec["attempted"],
                "failed": rec["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def _units(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


# ----------------------------------------------------------------------
# children: set-up only, or set-up then measure
# ----------------------------------------------------------------------
def child(args) -> int:
    t_start = time.perf_counter()
    import numpy as np

    import workloads as wl
    from reference import REF_S, reference_seconds

    t0 = time.perf_counter()
    workload = wl.BY_NAME[args.workload](args.seed, args.seconds)
    generate_s = time.perf_counter() - t0
    workload.construct()
    try:
        workload.cold_call()
        setup_raw_s = time.perf_counter() - t_start - generate_s
        ref_s = reference_seconds(SETUP_REF_ROUNDS, time.perf_counter)
        setup = {
            "setup_s": REF_S * setup_raw_s / ref_s,
            "setup_raw_s": setup_raw_s,
            "setup_ref_s": ref_s,
        }
        if args.child == "setup":
            print(json.dumps(setup))
            return 0
        workload.warm()
        if args.trace:
            rec = traced(workload, args)
        else:
            rec = workload.run(args.seconds)
            rec["checks_ok"] = True
    finally:
        workload.close()
    import resource

    import scipy

    rec.update(
        **setup,
        attempted=workload.attempted,
        failed=workload.failed,
        failures=workload.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        versions={"numpy": np.__version__, "scipy": scipy.__version__},
        workers=wl.WORKERS,
    )
    rec.pop("times", None)
    print(json.dumps(rec))
    return 0


def install(tracer) -> None:
    """Wrap each layer's public functions where their callers bind them."""
    import repro.batch.smoother as batch_smoother
    import repro.core.smoother as core_smoother
    from repro.batch import BatchSmoother
    from repro.model.nonlinear import NonlinearProblem
    from repro.parallel.backend import ThreadPoolBackend
    from repro.stream import ShardedStreamServer

    tracer.wrap(batch_smoother, "workload_key", "batch.workload_key")
    tracer.wrap(batch_smoother, "build_plan", "batch.build_plan")
    tracer.wrap(batch_smoother, "stack_whitened", "batch.stack")
    for module in (batch_smoother, core_smoother):
        tracer.wrap(module, "oddeven_factorize", "core.factorize", cost=True)
        tracer.wrap(module, "oddeven_back_substitute", "core.solve", cost=True)
        tracer.wrap(module, "selinv_oddeven", "core.selinv", cost=True)
    tracer.wrap(NonlinearProblem, "linearize", "nonlinear.linearize")
    tracer.wrap(NonlinearProblem, "objective", "nonlinear.objective")
    tracer.wrap(BatchSmoother, "smooth_many", "batch.smooth_many")
    tracer.wrap_pool_map(ThreadPoolBackend)
    tracer.wrap(ShardedStreamServer, "submit", "stream.submit")
    tracer.wrap(ShardedStreamServer, "poll", "stream.poll")


def _busy(rec: dict) -> float:
    """Time a run kept the library busy: the median call, or for the
    open-loop drive its wall time minus the generator's idle time."""
    if "wall" in rec:
        return rec["wall"] - rec["idle"]
    return statistics.median(rec["times"])


def traced(workload, args) -> dict:
    """An untraced then a traced measurement; per-layer metrics."""
    from tracing import Tracer, summarize

    from repro.batch.plan import default_plan_cache

    before = default_plan_cache().stats()
    plain = workload.run(args.seconds)
    after = default_plan_cache().stats()
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    plain["layer"]["batch.plan_hit_ratio"] = hits / lookups if lookups else 0.0
    plain["layer"].update(workload.observe())
    tracer = Tracer()
    install(tracer)
    try:
        rec = workload.run(args.seconds, tracer)
    finally:
        tracer.restore()
    spans = tracer.spans
    summary = summarize(spans)
    # per request: a closed-loop request may span several calls
    calls = summary["call"]["count"] / getattr(workload, "CYCLE", 1)

    def total(name):
        return summary.get(name, {}).get("total", 0.0) / calls

    def count(name):
        return summary.get(name, {}).get("count", 0) / calls

    def self_time(name):
        return summary.get(name, {}).get("self", 0.0) / calls

    layer = dict.fromkeys(PER_LAYER, 0.0)
    # Figures the workload observes itself come from the untraced run.
    layer.update(plain["layer"])
    layer["model.build_s"] = total("model.build")
    layer["batch.plan_s"] = total("batch.workload_key") + total(
        "batch.build_plan"
    )
    layer["batch.stack_s"] = total("batch.stack")
    layer["batch.stack_calls"] = count("batch.stack")
    layer["batch.self_s"] = self_time("batch.smooth_many")
    for phase in ("factorize", "solve", "selinv"):
        name = f"core.{phase}"
        cost = tracer.costs.get(name)
        layer[f"{name}_s"] = total(name)
        if cost is not None:
            layer[f"{name}_flops"] = cost.flops / calls
            layer[f"{name}_bytes"] = cost.bytes_moved / calls
    for phase in ("factorize", "selinv"):
        seconds = layer[f"core.{phase}_s"]
        if seconds:
            layer[f"core.{phase}_gflops"] = (
                layer[f"core.{phase}_flops"] / seconds / 1e9
            )
    layer["nonlinear.linearize_s"] = total("nonlinear.linearize")
    layer["nonlinear.linearize_calls"] = count("nonlinear.linearize")
    layer["nonlinear.objective_s"] = total("nonlinear.objective")
    layer["nonlinear.objective_calls"] = count("nonlinear.objective")
    layer["nonlinear.self_s"] = self_time("nonlinear.smooth_many")
    if "nonlinear.smooth_many" in summary:
        layer["nonlinear.inner_solve_s"] = total("batch.smooth_many")
        layer["nonlinear.stacked_solves"] = count("batch.smooth_many")
    if "parallel.map" in summary:
        layer["parallel.map_s"] = total("parallel.map")
        layer["parallel.map_calls"] = (
            tracer.counts["parallel.map_calls"] / calls
        )
        layer["parallel.tasks"] = tracer.counts["parallel.tasks"] / calls
    if "stream.submit" in summary:
        layer["stream.submit_s"] = total("stream.submit")
        layer["stream.poll_s"] = total("stream.poll")
        layer["stream.solve_s"] = total("batch.smooth_many")
    layer["trace.overhead_ratio"] = _busy(rec) / _busy(plain)
    layer["trace.coverage"] = 1.0 - self_time("call") / total("call")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as f:
        for span in spans:
            f.write(json.dumps(dataclasses.asdict(span)) + "\n")
    rec["layer"] = layer
    rec["checks_ok"] = layer["trace.coverage"] >= MIN_COVERAGE
    if not rec["checks_ok"]:
        workload.failures.append(
            f"layer spans cover {layer['trace.coverage']:.1%} of the "
            f"traced wall time, below {MIN_COVERAGE:.0%}"
        )
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"))
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
