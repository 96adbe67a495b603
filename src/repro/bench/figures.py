"""Regeneration of every figure and table in the paper's evaluation.

Each ``fig*``/``table*`` function reproduces one artifact of §5:

========  ==========================================================
fig1      nonzero block structure of the odd-even ``R`` (k = 50)
fig2      running times of all six smoother variants vs cores,
          on the Graviton3 and Gold-6238R machine models, for the
          ``n=6`` and ``n=48`` workloads (4 panels)
fig3      speedups of the three parallel variants (same data)
fig4      embarrassingly-parallel micro-benchmark, 4 phases
fig5      run-time distributions under randomized work stealing
fig6      left: block-size sweep; right: speedups across dimensions
overhead  single-core work-overhead ratios quoted in §1/§5.4
stability the §6 stability contrast (QR vs normal equations)
========  ==========================================================

All return plain data structures; ``main()`` renders them as
paper-style ASCII tables and persists JSON under ``results/``.
The machine-time axis is *simulated seconds* on the recorded task
graph, which stands in for the paper's 36-64-core servers; single-core
*real* seconds for the sequential algorithms are reported by the
overhead table, which is wall-clock.
"""

from __future__ import annotations

import numpy as np

from ..api import EstimatorConfig, make_smoother
from ..core.smoother import OddEvenSmoother
from ..linalg.structure import render_ascii, structure_matrix
from ..model.dense import assemble_dense
from ..model.generators import (
    ill_conditioned_problem,
    random_orthonormal_problem,
)
from ..parallel.backend import RecordingBackend
from ..parallel.machine import GOLD_6238R, GRAVITON3, MachineModel
from ..parallel.scheduler import greedy_schedule, work_stealing_schedule
from ..parallel.tally import measure_flops
from ..parallel.task_graph import TaskGraph
from .harness import format_series_table, save_results
from .workloads import WORKLOADS, Workload, core_counts_for

__all__ = [
    "fig1_structure",
    "record_graph",
    "fig2_running_times",
    "fig3_speedups",
    "fig5_variability",
    "fig6_blocksize",
    "fig6_dimensions",
    "overhead_table",
    "stability_table",
    "main",
]

#: The six lines of Fig 2, in the paper's legend order.
PARALLEL_VARIANTS = ("Odd-Even", "Odd-Even NC", "Associative")
SEQUENTIAL_VARIANTS = ("Paige-Saunders", "Paige-Saunders NC", "Kalman")


def fig1_structure(k: int = 50) -> dict:
    """Figure 1: block structure of ``R`` for a k=50-state problem."""
    problem = random_orthonormal_problem(n=2, k=k, seed=0)
    factor = OddEvenSmoother().factorize(problem)
    occ = structure_matrix(factor.structure_rows(), factor.order)
    return {
        "k": k,
        "order": factor.order,
        "levels": [list(level) for level in factor.levels],
        "occupancy": occ,
        "nonzero_blocks": int(occ.sum()),
        "ascii": render_ascii(occ),
    }


#: Figure legend label -> (registry name, constructor options, NC?).
_VARIANT_SPECS = {
    "Odd-Even": ("odd-even", {}, None),
    "Odd-Even NC": ("odd-even", {}, False),
    "Associative": ("associative", {"parallel": True}, None),
    "Paige-Saunders": ("paige-saunders", {}, None),
    "Paige-Saunders NC": ("paige-saunders", {}, False),
    "Kalman": ("kalman-rts", {}, None),
}


def _run_variant(variant: str, problem, backend) -> None:
    try:
        name, options, compute_covariance = _VARIANT_SPECS[variant]
    except KeyError:  # pragma: no cover - defensive
        raise ValueError(f"unknown variant {variant!r}") from None
    make_smoother(name, **options).smooth(
        problem,
        config=EstimatorConfig(
            backend=backend, compute_covariance=compute_covariance
        ),
    )


def record_graph(
    variant: str, problem, block_size: int = 10
) -> TaskGraph:
    """Run one smoother variant under the recording backend."""
    backend = RecordingBackend(block_size=block_size)
    _run_variant(variant, problem, backend)
    return backend.graph


def fig2_running_times(
    workload: Workload,
    machine: MachineModel,
    core_counts: list[int] | None = None,
    variants: tuple[str, ...] = PARALLEL_VARIANTS + SEQUENTIAL_VARIANTS,
) -> dict[str, dict[int, float]]:
    """One panel of Figure 2: simulated seconds per variant per cores."""
    if core_counts is None:
        core_counts = core_counts_for(machine)
    problem = workload.build()
    series: dict[str, dict[int, float]] = {}
    for variant in variants:
        graph = record_graph(variant, problem, workload.block_size)
        if variant in SEQUENTIAL_VARIANTS:
            t1 = greedy_schedule(graph, machine, 1).seconds
            series[variant] = {p: t1 for p in core_counts}
        else:
            series[variant] = {
                p: greedy_schedule(graph, machine, p).seconds
                for p in core_counts
            }
    return series


def fig3_speedups(
    times: dict[str, dict[int, float]],
) -> dict[str, dict[int, float]]:
    """Figure 3 from Figure 2 data: ratios to the same variant at p=1."""
    out: dict[str, dict[int, float]] = {}
    for variant in PARALLEL_VARIANTS:
        if variant not in times:
            continue
        t1 = times[variant][1]
        out[variant] = {p: t1 / t for p, t in times[variant].items()}
    return out


def fig5_variability(
    workload: Workload | None = None,
    machine: MachineModel = GOLD_6238R,
    core_points: tuple[int, ...] = (1, 28),
    runs: int = 100,
    seed: int = 0,
) -> dict[int, dict]:
    """Figure 5: distribution of 100 run times, 1 core vs 28 cores."""
    if workload is None:
        workload = WORKLOADS["n6"]
    problem = workload.build()
    graph = record_graph("Odd-Even", problem, workload.block_size)
    out: dict[int, dict] = {}
    rng = np.random.default_rng(seed)
    for p in core_points:
        times = np.array(
            [
                work_stealing_schedule(
                    graph, machine, p, seed=rng.integers(2**31)
                ).seconds
                for _ in range(runs)
            ]
        )
        med = float(np.median(times))
        out[p] = {
            "times": times,
            "median": med,
            "max_deviation_pct": float(
                100.0 * np.max(np.abs(times - med)) / med
            ),
        }
    return out


def fig6_blocksize(
    workload: Workload | None = None,
    machine: MachineModel = GRAVITON3,
    cores: int = 64,
    block_sizes: tuple[int, ...] | None = None,
) -> dict[int, float]:
    """Figure 6 left: Odd-Even time on all cores vs TBB block size."""
    if workload is None:
        workload = WORKLOADS["n6"]
    problem = workload.build()
    _, k = workload.effective
    if block_sizes is None:
        block_sizes = tuple(
            b
            for b in (1, 10, 100, 1_000, 5_000, 50_000, 1_000_000)
            if b <= 4 * k
        )
    out = {}
    for bs in block_sizes:
        graph = record_graph("Odd-Even", problem, block_size=bs)
        out[bs] = greedy_schedule(graph, machine, cores).seconds
    return out


def fig6_dimensions(
    machine: MachineModel = GRAVITON3,
    core_counts: list[int] | None = None,
) -> dict[str, dict[int, float]]:
    """Figure 6 right: Odd-Even speedups for the three dimensions."""
    if core_counts is None:
        core_counts = core_counts_for(machine)
    out: dict[str, dict[int, float]] = {}
    for name in ("n6", "n48", "n500"):
        wl = WORKLOADS[name]
        problem = wl.build()
        graph = record_graph("Odd-Even", problem, wl.block_size)
        times = {
            p: greedy_schedule(graph, machine, p).seconds
            for p in core_counts
        }
        out[wl.label()] = {p: times[1] / times[p] for p in core_counts}
    return out


def overhead_table(
    workloads: tuple[str, ...] = ("n6", "n48"),
) -> dict[str, dict[str, float]]:
    """§1/§5.4 work-overhead ratios, measured in counted flops.

    ``Odd-Even / Paige-Saunders`` should land in the paper's 1.8-2.5x
    band (1.8-2.0 for NC) and ``Associative / Kalman`` in 1.8-2.7x.
    """
    out: dict[str, dict[str, float]] = {}
    for name in workloads:
        wl = WORKLOADS[name]
        problem = wl.build()
        flops: dict[str, float] = {}
        for variant in PARALLEL_VARIANTS + SEQUENTIAL_VARIANTS:
            _, tally = measure_flops(
                _run_variant, variant, problem, RecordingBackend(wl.block_size)
            )
            flops[variant] = tally.flops
        out[wl.label()] = {
            "odd-even / paige-saunders": flops["Odd-Even"]
            / flops["Paige-Saunders"],
            "odd-even-nc / paige-saunders-nc": flops["Odd-Even NC"]
            / flops["Paige-Saunders NC"],
            "associative / kalman": flops["Associative"] / flops["Kalman"],
            "_flops": flops,
        }
    return out


def stability_table(
    conds: tuple[float, ...] = (1e0, 1e3, 1e6, 1e9, 1e12),
    n: int = 4,
    k: int = 60,
    seed: int = 1,
) -> dict[float, dict[str, float]]:
    """§6 stability ablation: QR smoothers vs the normal equations.

    For each covariance condition number, measures how far each
    algorithm's objective exceeds the optimum found by a dense
    orthogonal solve (relative units): the QR methods stay near
    roundoff while the normal-equations cyclic reduction degrades with
    the squared condition number.
    """
    out: dict[float, dict[str, float]] = {}
    for cond in conds:
        problem = ill_conditioned_problem(n=n, k=k, cond=cond, seed=seed)
        dense = assemble_dense(problem)
        reference = dense.solve()
        ref_obj = problem.objective(reference)
        row: dict[str, float] = {}
        for label, smoother in (
            ("odd-even", make_smoother("odd-even", compute_covariance=False)),
            (
                "paige-saunders",
                make_smoother("paige-saunders", compute_covariance=False),
            ),
            ("normal-equations", make_smoother("normal-equations")),
        ):
            try:
                means = smoother.smooth(problem).means
                err = max(
                    float(np.max(np.abs(m - r)))
                    for m, r in zip(means, reference)
                )
                excess = problem.objective(means) - ref_obj
                row[label] = err
                row[label + "_objective_excess"] = max(excess, 0.0)
            except np.linalg.LinAlgError:
                row[label] = float("inf")
        out[cond] = row
    return out


def main(which: str = "all") -> None:  # pragma: no cover - CLI driver
    """Regenerate figures from the command line.

    ``python -m repro.bench.figures [fig1|fig2|fig5|fig6|overhead|stability|all]``
    """
    if which in ("fig1", "all"):
        data = fig1_structure()
        print(f"Figure 1 (k={data['k']}, {data['nonzero_blocks']} blocks):")
        print(data["ascii"])
        save_results(
            "fig1", {k: v for k, v in data.items() if k != "occupancy"}
        )
    if which in ("fig2", "fig3", "all"):
        for mname, machine in (("Graviton3", GRAVITON3), ("Gold-6238R", GOLD_6238R)):
            for wl_name in ("n6", "n48"):
                wl = WORKLOADS[wl_name]
                times = fig2_running_times(wl, machine)
                cores = core_counts_for(machine)
                print(
                    format_series_table(
                        f"Figure 2: {mname} {wl.label()}",
                        "cores",
                        cores,
                        times,
                    )
                )
                speedups = fig3_speedups(times)
                print(
                    format_series_table(
                        f"Figure 3: {mname} {wl.label()} speedups",
                        "cores",
                        cores,
                        speedups,
                        unit="x",
                        fmt="{:.2f}",
                    )
                )
                save_results(f"fig2_{mname}_{wl_name}", times)
                save_results(f"fig3_{mname}_{wl_name}", speedups)
    if which in ("fig4", "all"):
        from .microbench import microbench_speedups

        for mname, machine in (
            ("Graviton3", GRAVITON3),
            ("Gold-6238R", GOLD_6238R),
        ):
            cores = core_counts_for(machine)
            speedups = microbench_speedups(machine, cores, n=48, k=2000)
            print(
                format_series_table(
                    f"Figure 4: micro-benchmark phases, {mname}",
                    "cores",
                    cores,
                    speedups,
                    unit="x",
                    fmt="{:.1f}",
                )
            )
            save_results(f"fig4_{mname}", speedups)
    if which in ("fig5", "all"):
        data = fig5_variability()
        for p, d in data.items():
            print(
                f"Figure 5: p={p}: median {d['median']:.4f}s, max dev "
                f"±{d['max_deviation_pct']:.2f}%"
            )
        save_results(
            "fig5",
            {
                str(p): {
                    "median": d["median"],
                    "max_deviation_pct": d["max_deviation_pct"],
                }
                for p, d in data.items()
            },
        )
    if which in ("fig6", "all"):
        bs = fig6_blocksize()
        print(
            format_series_table(
                "Figure 6 left: Odd-Even, 64 cores, vs block size",
                "block",
                list(bs),
                {"Odd-Even": bs},
            )
        )
        dims = fig6_dimensions()
        cores = core_counts_for(GRAVITON3)
        print(
            format_series_table(
                "Figure 6 right: Odd-Even speedups by dimension",
                "cores",
                cores,
                dims,
                unit="x",
                fmt="{:.2f}",
            )
        )
        save_results("fig6_left", bs)
        save_results("fig6_right", dims)
    if which in ("overhead", "all"):
        data = overhead_table()
        for label, row in data.items():
            print(f"Overheads at {label}:")
            for key, val in row.items():
                if not key.startswith("_"):
                    print(f"  {key}: {val:.2f}x")
        save_results(
            "overhead",
            {
                k: {kk: vv for kk, vv in v.items() if not kk.startswith("_")}
                for k, v in data.items()
            },
        )
    if which in ("stability", "all"):
        data = stability_table()
        print("Stability (max abs error vs dense orthogonal solve):")
        for cond, row in data.items():
            print(
                f"  cond={cond:9.0e}: odd-even {row['odd-even']:.2e}  "
                f"paige-saunders {row['paige-saunders']:.2e}  "
                f"normal-eq {row['normal-equations']:.2e}"
            )
        save_results(
            "stability", {f"{c:.0e}": row for c, row in data.items()}
        )


if __name__ == "__main__":  # pragma: no cover
    import sys

    main(sys.argv[1] if len(sys.argv) > 1 else "all")
