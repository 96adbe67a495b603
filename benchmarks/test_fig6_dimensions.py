"""Figure 6 (right): Odd-Even speedups across problem dimensions.

Paper shape (Graviton3): the n=48 workload scales somewhat better than
n=6 (better computation-to-communication ratio); the n=500, k=500 run
scales worst — not enough steps to feed 64 cores ("insufficient
parallelism").  The n=500 configuration is dimension-reduced by default
(the figures simulate scaling from recorded task graphs, standing in for
the paper's 36–64-core servers): the starvation effect is controlled by
k and the task counts per level, both preserved.
"""

import pytest

from repro.bench.harness import format_series_table, save_results
from repro.bench.workloads import Workload, core_counts_for
from repro.parallel.machine import GRAVITON3
from repro.parallel.scheduler import greedy_schedule

#: Dedicated sizes: the starvation contrast needs the n=6/n=48 runs to
#: have many more steps than the k=500-class run (as in the paper,
#: where they have 200-10,000x more).
DIM_WORKLOADS = (
    Workload(name="n6", n=6, k=8000, paper_n=6, paper_k=5_000_000),
    Workload(name="n48", n=48, k=800, paper_n=48, paper_k=100_000),
    Workload(
        name="n500", n=64, k=300, paper_n=500, paper_k=500,
        paper_block_size=1,
    ),
)


@pytest.mark.benchmark(group="fig6")
def test_fig6_dimensions(benchmark, graph_cache):
    cores = core_counts_for(GRAVITON3)
    speedups = {}
    for workload in DIM_WORKLOADS:
        graph = graph_cache("Odd-Even", workload)
        times = {
            p: greedy_schedule(graph, GRAVITON3, p).seconds
            for p in cores
        }
        speedups[workload.label()] = {p: times[1] / times[p] for p in cores}

    print(
        "\n"
        + format_series_table(
            "Figure 6 right — Odd-Even speedups by dimension (Graviton3)",
            "cores",
            cores,
            speedups,
            unit="x",
            fmt="{:.2f}",
        )
    )
    save_results("fig6_right", speedups)

    labels = list(speedups)
    n6, n48, n500 = (speedups[label][64] for label in labels)
    # n=48 scales best; the k=500 run is parallelism-starved.
    assert n48 > n6 * 0.95
    assert n500 < n48
    assert n500 < 0.75 * max(n6, n48)

    graph = graph_cache("Odd-Even", DIM_WORKLOADS[-1])
    benchmark(greedy_schedule, graph, GRAVITON3, 64)
