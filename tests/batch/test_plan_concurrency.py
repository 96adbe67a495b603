"""Concurrent plan replay: threaded == serial, bit for bit.

The regression under test: a cached :class:`~repro.batch.plan.SmoothPlan`
carries preallocated stacked workspaces, and before the workspace-lease
mechanism two threads hitting the same entry of the process-wide
:func:`~repro.batch.plan.default_plan_cache` wrote into the *same*
buffers mid-flight, silently corrupting each other's stacked
factorizations.  These tests drive N threads through one shared cache
entry (distinct values, identical structure) and require every threaded
result to equal serial replay of the same workload exactly — they fail
on the pre-lease code.
"""

import sys
import threading
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.batch.plan import build_plan, default_plan_cache, workload_key
from repro.model.generators import random_problem


def assert_serial_replay_equals(workloads, got, dtype=None):
    """Replaying each workload serially reproduces the threaded answers."""
    sm = repro.BatchSmoother()
    cfg = repro.EstimatorConfig(dtype=dtype)
    for t, w in enumerate(workloads):
        want = sm.smooth_many(w, config=cfg)
        assert sm.last_diagnostics["plan_cache"]["hit"] is True
        assert_identical(want, got[t])


def assert_identical(a, b):
    """Bit-for-bit equality of two SmootherResult lists."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert len(ra.means) == len(rb.means)
        for ma, mb in zip(ra.means, rb.means):
            np.testing.assert_array_equal(np.asarray(ma), np.asarray(mb))
        if ra.covariances is None:
            assert rb.covariances is None
        else:
            for ca, cb in zip(ra.covariances, rb.covariances):
                np.testing.assert_array_equal(
                    np.asarray(ca), np.asarray(cb)
                )
        assert ra.residual_sq == rb.residual_sq


def workload(lengths, seed0=0, dims=3):
    return [
        random_problem(k, seed=seed0 + i, dims=dims, random_cov=True)
        for i, k in enumerate(lengths)
    ]


@contextmanager
def aggressive_preemption():
    """Shrink the GIL switch interval so thread interleavings that
    would take minutes of wall clock to hit at the default 5 ms show
    up within a few rounds."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def run_threaded(workloads, *, rounds=4, dtype=None):
    """Each thread smooths its own workload through the default cache.

    All workloads share one structure (one cache entry).  A barrier
    maximizes overlap; each thread repeats ``rounds`` times (the result
    is deterministic per workload, so every round must reproduce it).
    Returns the per-thread results of the last round.
    """
    n = len(workloads)
    barrier = threading.Barrier(n)
    results: list = [None] * n
    errors: list = []

    def work(t):
        sm = repro.BatchSmoother()
        cfg = repro.EstimatorConfig(dtype=dtype)
        try:
            barrier.wait()
            for _ in range(rounds):
                results[t] = sm.smooth_many(workloads[t], config=cfg)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append((t, exc))

    threads = [
        threading.Thread(target=work, args=(t,)) for t in range(n)
    ]
    with aggressive_preemption():
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    assert not errors, f"threads raised: {errors}"
    return results


class TestThreadedReplayBitIdentical:
    def test_eight_threads_one_cache_entry(self):
        """The headline regression: 8 threads, one shared plan, every
        thread's answers equal its serial answers bit for bit."""
        lengths = [6, 9, 5, 7]
        workloads = [
            workload(lengths, seed0=1000 * t) for t in range(8)
        ]
        assert (
            len({workload_key(w) for w in workloads}) == 1
        ), "threads must share one cache entry for the test to bite"
        # Warm the entry so every thread replays (hits) the same plan.
        repro.BatchSmoother().smooth_many(workloads[0])
        got = run_threaded(workloads, rounds=5)
        assert_serial_replay_equals(workloads, got)

    def test_mixed_precision_threads(self):
        """The float32/refined path leases workspaces too."""
        workloads = [workload([5, 8], seed0=97 * t) for t in range(4)]
        got = run_threaded(workloads, rounds=3, dtype="mixed")
        assert_serial_replay_equals(workloads, got, dtype="mixed")

    @settings(max_examples=6, deadline=None)
    @given(
        lengths=st.lists(
            st.integers(min_value=2, max_value=9), min_size=1, max_size=3
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_threaded_equals_serial(self, lengths, seed):
        """Hypothesis sweep over workload shapes: threaded smooth_many
        over a shared cache is bit-identical to serial execution."""
        workloads = [
            workload(lengths, seed0=seed + 37 * t) for t in range(4)
        ]
        default_plan_cache().clear()  # one fresh entry per example
        got = run_threaded(workloads, rounds=3)
        assert_serial_replay_equals(workloads, got)


class TestLeaseMechanics:
    def test_uncontended_lease_reuses_the_template(self):
        probs = workload([5, 6])
        plan = build_plan(probs)
        with plan.lease_workspaces() as ws1:
            first = ws1
        with plan.lease_workspaces() as ws2:
            assert ws2 is first  # returned to the pool and re-leased
        stats = plan.workspace_stats()
        assert stats["leases"] == 2
        assert stats["clones"] == 0
        assert stats["pooled"] == 1

    def test_contended_leases_get_distinct_workspaces(self):
        probs = workload([5, 6])
        plan = build_plan(probs)
        with plan.lease_workspaces() as outer:
            with plan.lease_workspaces() as inner:
                assert inner is not outer
                for a, b in zip(outer, inner):
                    if a is None:
                        assert b is None
                        continue
                    for ba, bb in zip(a.obs_buffers, b.obs_buffers):
                        if ba is not None:
                            assert ba is not bb
                            np.testing.assert_array_equal(ba, bb)
        assert plan.workspace_stats()["clones"] == 1
        assert plan.workspace_stats()["pooled"] == 2

    def test_pool_is_bounded(self):
        probs = workload([4])
        plan = build_plan(probs)
        plan.max_pooled = 2
        from contextlib import ExitStack

        with ExitStack() as stack:
            for _ in range(5):
                stack.enter_context(plan.lease_workspaces())
        stats = plan.workspace_stats()
        assert stats["pooled"] == 2  # the rest were dropped
        assert stats["clones"] == 4

    def test_smoother_reports_workspace_stats(self):
        probs = workload([5, 6])
        sm = repro.BatchSmoother()
        sm.smooth_many(probs)
        sm.smooth_many(probs)
        ws = sm.last_diagnostics["plan_cache"]["workspaces"]
        assert ws["leases"] == 2
        assert ws["clones"] == 0
        assert ws["pooled"] == 1

    def test_associative_plans_lease_none(self):
        probs = workload([5, 5])
        plan = build_plan(probs, exact_obs=True)
        with plan.lease_workspaces() as ws:
            assert ws == [None] * len(plan.buckets)
