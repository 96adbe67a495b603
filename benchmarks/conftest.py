"""Shared configuration for the figure-regeneration benchmarks.

Each benchmark module regenerates one paper artifact (figure or table),
prints the paper-style series, persists JSON to a per-session scratch
directory, and times a representative unit of the pipeline with
pytest-benchmark.  ``python -m repro.bench.figures`` regenerates the
committed ``results/``.

Sizes here are laptop-scaled (see ``repro.bench.workloads``): the
figures simulate multicore scaling from recorded task graphs, standing
in for the paper's 36–64-core servers.  Set ``REPRO_PAPER_SCALE=1`` for
the paper's exact sizes (hours of runtime).
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import Workload

#: Medium sizes: large enough that simulated-scaling shapes are stable,
#: small enough that the whole benchmark suite runs in a few minutes.
BENCH_WORKLOADS = {
    "n6": Workload(
        name="n6", n=6, k=4000, paper_n=6, paper_k=5_000_000
    ),
    "n48": Workload(
        name="n48", n=48, k=400, paper_n=48, paper_k=100_000
    ),
    "n500": Workload(
        name="n500", n=64, k=300, paper_n=500, paper_k=500,
        paper_block_size=1,
    ),
}


@pytest.fixture(scope="session")
def scratch_results_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("results")


@pytest.fixture(autouse=True)
def _save_results_to_scratch(monkeypatch, scratch_results_dir):
    """Point ``save_results`` at the session's scratch directory, so a
    benchmark run never rewrites the committed ``results/``."""
    import repro.bench.harness as harness

    monkeypatch.setattr(harness, "results_dir", lambda: scratch_results_dir)


@pytest.fixture(scope="session")
def bench_workloads():
    return BENCH_WORKLOADS


@pytest.fixture(scope="session")
def graph_cache():
    """Recorded task graphs shared across benchmarks in one session.

    Recording runs the full algorithm numerically; caching one graph
    per (variant, workload) keeps the suite fast while every figure
    still simulates from real recorded costs.
    """
    from repro.bench.figures import record_graph

    cache: dict = {}

    def get(variant: str, workload: Workload):
        key = (variant, *workload.effective, workload.block_size)
        if key not in cache:
            cache[key] = record_graph(
                variant, workload.build(), workload.block_size
            )
        return cache[key]

    return get
