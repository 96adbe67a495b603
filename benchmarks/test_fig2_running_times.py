"""Figure 2: running times of all six smoother variants vs cores.

Four panels: {Graviton3, Gold-6238R} x {n=6, n=48}.  Sequential
variants (Paige–Saunders, Paige–Saunders NC, Kalman/RTS) are flat
lines; the parallel variants (Odd-Even, Odd-Even NC, Associative)
descend with core count.  Times are simulated seconds on the recorded
task graphs, standing in for the paper's 36–64-core servers; shapes —
who wins, single-core overhead, Intel stagnation — are the
reproduction targets, not absolute seconds.
"""

import pytest

from repro.bench.figures import (
    PARALLEL_VARIANTS,
    SEQUENTIAL_VARIANTS,
    fig3_speedups,
)
from repro.bench.harness import format_series_table, save_results
from repro.bench.workloads import core_counts_for
from repro.parallel.machine import GOLD_6238R, GRAVITON3
from repro.parallel.scheduler import greedy_schedule

MACHINES = {"Graviton3": GRAVITON3, "Gold-6238R": GOLD_6238R}


def panel(machine, workload, graph_cache):
    cores = core_counts_for(machine)
    series = {}
    for variant in PARALLEL_VARIANTS + SEQUENTIAL_VARIANTS:
        graph = graph_cache(variant, workload)
        if variant in SEQUENTIAL_VARIANTS:
            t1 = greedy_schedule(graph, machine, 1).seconds
            series[variant] = {p: t1 for p in cores}
        else:
            series[variant] = {
                p: greedy_schedule(graph, machine, p).seconds
                for p in cores
            }
    return cores, series


@pytest.mark.benchmark(group="fig2")
@pytest.mark.parametrize("machine_name", list(MACHINES))
@pytest.mark.parametrize("workload_name", ["n6", "n48"])
def test_fig2_panel(
    benchmark, machine_name, workload_name, bench_workloads, graph_cache
):
    machine = MACHINES[machine_name]
    workload = bench_workloads[workload_name]
    cores, series = panel(machine, workload, graph_cache)

    # Benchmark one representative scheduling pass (the simulation is
    # the per-panel unit of work once graphs are recorded).
    graph = graph_cache("Odd-Even", workload)
    benchmark(greedy_schedule, graph, machine, machine.cores)

    print(
        "\n"
        + format_series_table(
            f"Figure 2 — {machine_name}, {workload.label()} "
            "(simulated seconds)",
            "cores",
            cores,
            series,
        )
    )
    save_results(f"fig2_{machine_name}_{workload_name}", series)

    # Shape assertions the paper states in §5.4:
    # (1) parallel variants carry a 1.8-2.7x single-core overhead;
    assert series["Odd-Even"][1] > 1.3 * series["Paige-Saunders"][1]
    assert series["Associative"][1] > 1.3 * series["Kalman"][1]
    # (2) with all cores, every parallel variant beats every sequential;
    pmax = machine.cores
    fastest_seq = min(series[v][pmax] for v in SEQUENTIAL_VARIANTS)
    for v in PARALLEL_VARIANTS:
        assert series[v][pmax] < fastest_seq
    # (3) Odd-Even is faster than Associative ("almost always", §1) —
    # here at every core count;
    for p in cores:
        assert series["Odd-Even"][p] < series["Associative"][p]
    # (4) NC variants are cheaper than their full versions.
    assert series["Odd-Even NC"][pmax] < series["Odd-Even"][pmax]

    speedups = fig3_speedups(series)
    if machine_name == "Gold-6238R":
        # (5) Intel scaling "mostly stagnates" past one socket.
        for v in PARALLEL_VARIANTS:
            assert speedups[v][56] < 1.35 * speedups[v][28]
