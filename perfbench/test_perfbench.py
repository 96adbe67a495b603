"""Checks of the benchmark's own tracing and reference computation.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import gc

import numpy as np

import repro
import repro.batch.smoother as batch_smoother
import repro.core.smoother as core_smoother
from repro.parallel.backend import ThreadPoolBackend
from reference import reference_round
from tracing import Span, Tracer, summarize
from workloads import build_linear, linear_arrays


def _costs(run) -> dict:
    tracer = Tracer()
    for module in (batch_smoother, core_smoother):
        tracer.wrap(module, "oddeven_factorize", "core.factorize", cost=True)
        tracer.wrap(module, "oddeven_back_substitute", "core.solve", cost=True)
        tracer.wrap(module, "selinv_oddeven", "core.selinv", cost=True)
    tracer.wrap_pool_map(ThreadPoolBackend)
    try:
        with tracer.call("test"):
            run()
    finally:
        tracer.restore()
    return {
        name: (cost.flops, cost.bytes_moved, cost.kernel_calls)
        for name, cost in tracer.costs.items()
    }


def test_core_counts_repeat_exactly_on_one_shape():
    arr = linear_arrays(np.random.default_rng(0), 8, 15, 3)
    smoother = repro.make_smoother("batch-odd-even")

    def run():
        smoother.smooth_many([build_linear(arr, j) for j in range(8)])

    first, second = _costs(run), _costs(run)
    assert set(first) == {"core.factorize", "core.solve", "core.selinv"}
    assert all(flops > 0 and nbytes > 0 for flops, nbytes, _ in first.values())
    assert first == second


def test_pooled_counts_repeat_and_match_serial():
    problem = repro.random_orthonormal_problem(4, 200, seed=1)
    smoother = repro.make_smoother("odd-even")
    serial = _costs(lambda: smoother.smooth(problem))
    with ThreadPoolBackend(2) as pool:
        config = repro.EstimatorConfig(backend=pool)
        pooled = [_costs(lambda: smoother.smooth(problem, config=config))
                  for _ in range(2)]
    assert pooled[0] == pooled[1]
    for name, (flops, nbytes, calls) in serial.items():
        assert pooled[0][name][2] == calls
        assert np.isclose(pooled[0][name][0], flops, rtol=1e-12)
        assert np.isclose(pooled[0][name][1], nbytes, rtol=1e-12)


def test_restore_puts_originals_back():
    original = batch_smoother.stack_whitened
    original_map = ThreadPoolBackend.map
    tracer = Tracer()
    tracer.wrap(batch_smoother, "stack_whitened", "batch.stack")
    tracer.wrap_pool_map(ThreadPoolBackend)
    assert batch_smoother.stack_whitened is not original
    tracer.restore()
    assert batch_smoother.stack_whitened is original
    assert ThreadPoolBackend.map is original_map


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "call", 0.0, 10.0, None, "r"),
        Span(1, "a", 1.0, 4.0, 0, "r"),
        Span(2, "b", 3.0, 6.0, 0, "r"),  # overlaps a (another thread)
        Span(3, "c", 2.0, 3.0, 1, "r"),
    ]
    summary = summarize(spans)
    assert summary["call"]["self"] == 10.0 - 5.0
    assert summary["a"]["self"] == 3.0 - 1.0
    assert summary["b"]["total"] == 3.0


def test_reference_round_leaves_the_garbage_collector_alone():
    # A collection inside some rounds but not others would make the
    # reference time vary with the heap, not with the host.
    reference_round(0.05)
    before = gc.get_count()[0]
    reference_round(0.05)
    assert gc.get_count()[0] == before
