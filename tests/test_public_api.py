"""API-surface snapshot: ``repro.__all__`` and the registry contents.

Pins the public surface so additions and removals are deliberate: a
failing diff here means the change must also update this snapshot (and
the README's API section).  Every exported name must resolve, and every
registry entry must construct.
"""

import pytest

import repro

EXPECTED_ALL = [
    # repro.api — the unified estimator surface
    "Capabilities",
    "EstimatorConfig",
    "ServingConfig",
    "Smoother",
    "SmootherBase",
    "SmootherRegistry",
    "SmootherSpec",
    "default_registry",
    "make_smoother",
    "register_smoother",
    "registered_smoothers",
    "smoother_spec",
    # estimators
    "AssociativeSmoother",
    "BatchSmoother",
    "GaussNewtonSmoother",
    "IteratedPosteriorLinearizationSmoother",
    "KalmanFilter",
    "LevenbergMarquardtSmoother",
    "NormalEquationsSmoother",
    "OddEvenSmoother",
    "PaigeSaundersSmoother",
    "PlanCache",
    "default_plan_cache",
    "RTSSmoother",
    "UltimateKalman",
    "UltimateSmoother",
    "extended_kalman_filter",
    # odd-even machinery
    "OddEvenR",
    "oddeven_back_substitute",
    "oddeven_factorize",
    "rollup_prefix",
    "selinv_bidiagonal",
    "selinv_oddeven",
    "solve_window",
    # observability
    "MetricsRegistry",
    "NullRegistry",
    "obs",
    # streaming
    "AdaptiveBatchController",
    "AsyncStreamServer",
    "Emission",
    "FixedLagSmoother",
    "ShardedStreamServer",
    "StreamServer",
    "StreamStep",
    # model construction
    "Evolution",
    "GaussianPrior",
    "JacobianLinearizer",
    "NonlinearProblem",
    "Observation",
    "SigmaPointLinearizer",
    "StateSpaceProblem",
    "Step",
    "as_nonlinear",
    "bearings_only_tunnel_problem",
    "constant_velocity_problem",
    "cubic_sensor_problem",
    "dense_covariance",
    "dense_solve",
    "pendulum_problem",
    "random_orthonormal_problem",
    "random_problem",
    "tracking_2d_problem",
    # results and errors
    "SmootherResult",
    "ReorderBufferFullError",
    "UnobservableStateError",
    # parallel runtime
    "E5_2699V3",
    "GOLD_6238R",
    "GRAVITON3",
    "RecordingBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "greedy_schedule",
    "work_stealing_schedule",
    "worker_pool",
    "__version__",
]

EXPECTED_REGISTRY = [
    "associative",
    "batch-associative",
    "batch-odd-even",
    "gauss-newton",
    "ipls",
    "kalman-rts",
    "levenberg-marquardt",
    "normal-equations",
    "odd-even",
    "paige-saunders",
    "ultimate",
]


def test_all_snapshot():
    assert sorted(repro.__all__) == sorted(EXPECTED_ALL)


def test_no_duplicate_exports():
    assert len(repro.__all__) == len(set(repro.__all__))


@pytest.mark.parametrize("name", EXPECTED_ALL)
def test_every_export_resolves(name):
    assert getattr(repro, name) is not None


def test_star_import_is_warning_free():
    """`from repro import *` stays clean under
    -W error::DeprecationWarning."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        namespace: dict = {}
        exec("from repro import *", namespace)
    assert "OddEvenSmoother" in namespace


def _legacy_helpers_unexported():
    import repro.api

    for name in ("call_smoother", "call_smoother_many", "warn_deprecated"):
        assert name not in repro.__all__
        assert name not in repro.api.__all__


def _all_smoothers_alias_gone():
    with pytest.raises(AttributeError):
        repro.ALL_SMOOTHERS


def _positional_backend_rejected():
    problem = repro.random_problem(k=3, seed=0, dims=2)
    with pytest.raises(TypeError):
        repro.make_smoother("odd-even").smooth(problem, repro.SerialBackend())


def _associative_nc_constructor_rejected():
    with pytest.raises(ValueError, match="supports_nc"):
        repro.BatchSmoother("associative", compute_covariance=False)


def _plan_cache_option_rejected():
    with pytest.raises(TypeError):
        repro.EstimatorConfig(plan_cache=False)


def _plan_cache_field_gone():
    import dataclasses

    fields = {f.name for f in dataclasses.fields(repro.EstimatorConfig)}
    assert "plan_cache" not in fields


def _unplanned_stack_whitener_gone():
    import repro.linalg.cholesky as cholesky

    assert not hasattr(cholesky, "stack_whiten")
    assert "stack_whiten" not in cholesky.__all__


@pytest.mark.parametrize(
    "check",
    [
        _legacy_helpers_unexported,
        _all_smoothers_alias_gone,
        _positional_backend_rejected,
        _associative_nc_constructor_rejected,
        _plan_cache_option_rejected,
        _plan_cache_field_gone,
        _unplanned_stack_whitener_gone,
    ],
    ids=lambda check: check.__name__.strip("_"),
)
def test_legacy_api_surface_removed(check):
    """Options reach an engine only through ``config=``; the
    pre-``repro.api`` names and call shapes raise."""
    check()


def test_registry_snapshot():
    assert repro.registered_smoothers() == EXPECTED_REGISTRY


def test_registry_spans_the_estimator_families():
    """≥ 8 entries covering linear, batched, and nonlinear smoothing."""
    specs = [repro.smoother_spec(n) for n in repro.registered_smoothers()]
    assert len(specs) >= 8
    assert any(s.capabilities.batched for s in specs)
    assert any(s.capabilities.iterative for s in specs)
    assert any(
        not s.capabilities.batched and not s.capabilities.iterative
        for s in specs
    )
