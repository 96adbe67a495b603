"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Keep property-based tests fast and deterministic in CI.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def _fresh_metrics_registry():
    """Isolate the process-wide obs registry per test.

    Instrumented code (plan cache, servers, backends) reports into
    :func:`repro.obs.get_registry`; without isolation, counters and
    latency reservoirs would accumulate across tests and order-dependent
    assertions would flake.
    """
    from repro import obs

    with obs.use_registry(obs.MetricsRegistry()):
        yield


@pytest.fixture(autouse=True)
def _fresh_plan_cache():
    """Start and end every test with an empty process-wide plan cache.

    ``BatchSmoother`` plans every call through
    :func:`repro.batch.plan.default_plan_cache`; without isolation, a
    test's first call could hit a plan another test compiled, and
    hit/miss and lease assertions would depend on test order.
    """
    from repro.batch.plan import default_plan_cache

    default_plan_cache().clear()
    yield
    default_plan_cache().clear()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def max_block_err(a, b) -> float:
    """Largest absolute elementwise difference over paired block lists."""
    return max(
        float(np.max(np.abs(np.asarray(x) - np.asarray(y))))
        if np.asarray(x).size
        else 0.0
        for x, y in zip(a, b)
    )


@pytest.fixture
def assert_blocks_close():
    def check(a, b, tol=1e-9, what="blocks"):
        assert len(a) == len(b), f"{what}: length {len(a)} != {len(b)}"
        err = max_block_err(a, b)
        assert err < tol, f"{what}: max abs err {err:.3e} >= {tol}"

    return check
