"""EstimatorConfig: replace/merge/resolve semantics, dtype casting, and
the config path through first-party compositions."""

import dataclasses
import warnings

import numpy as np
import pytest

import repro
from repro.api import EstimatorConfig
from repro.parallel.backend import SerialBackend, ThreadPoolBackend


class TestValueSemantics:
    def test_frozen(self):
        cfg = EstimatorConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.backend = SerialBackend()

    def test_unset_by_default(self):
        cfg = EstimatorConfig()
        assert cfg.backend is None
        assert cfg.compute_covariance is None
        assert cfg.dtype is None
        assert cfg.pad is None

    def test_replace_returns_new_value(self):
        cfg = EstimatorConfig()
        nc = cfg.replace(compute_covariance=False)
        assert nc.compute_covariance is False
        assert cfg.compute_covariance is None

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            EstimatorConfig().replace(blocksize=8)


class TestMerge:
    def test_set_fields_win(self):
        base = EstimatorConfig(compute_covariance=True, pad=False)
        override = EstimatorConfig(compute_covariance=False)
        merged = base.merged(override)
        assert merged.compute_covariance is False
        assert merged.pad is False  # fell through from base

    def test_none_override_is_identity(self):
        base = EstimatorConfig(compute_covariance=False)
        assert base.merged(None) is base
        assert base.merged(EstimatorConfig()) is base

    def test_false_is_a_set_value(self):
        """``False`` must override ``True`` (tri-state, not truthiness)."""
        base = EstimatorConfig(compute_covariance=True, pad=True)
        merged = base.merged(
            EstimatorConfig(compute_covariance=False, pad=False)
        )
        assert merged.compute_covariance is False
        assert merged.pad is False


class TestResolve:
    def test_fills_global_defaults(self):
        resolved = EstimatorConfig().resolve()
        assert isinstance(resolved.backend, SerialBackend)
        assert resolved.compute_covariance is True
        assert resolved.pad is True
        assert resolved.dtype is None

    def test_respects_default_compute_covariance(self):
        resolved = EstimatorConfig().resolve(
            default_compute_covariance=False
        )
        assert resolved.compute_covariance is False

    def test_call_overrides_instance_defaults(self):
        """The constructor-vs-call override logic, in one place."""
        instance = EstimatorConfig(compute_covariance=False)
        resolved = EstimatorConfig(compute_covariance=True).resolve(instance)
        assert resolved.compute_covariance is True
        # And the other way: unset call config defers to the instance.
        resolved = EstimatorConfig().resolve(instance)
        assert resolved.compute_covariance is False

    def test_explicit_backend_survives(self):
        with ThreadPoolBackend(num_threads=2) as backend:
            resolved = EstimatorConfig(backend=backend).resolve()
            assert resolved.backend is backend


class TestDtype:
    def test_results_cast_to_requested_dtype(self):
        problem = repro.random_problem(k=4, seed=0, dims=2)
        result = repro.OddEvenSmoother().smooth(
            problem, config=EstimatorConfig(dtype=np.float32)
        )
        assert all(m.dtype == np.float32 for m in result.means)
        assert all(c.dtype == np.float32 for c in result.covariances)

    def test_batched_smooth_many_casts_too(self):
        problems = [repro.random_problem(k=k, seed=k, dims=2) for k in (3, 6)]
        results = repro.BatchSmoother().smooth_many(
            problems, config=EstimatorConfig(dtype=np.float32)
        )
        for r in results:
            assert all(m.dtype == np.float32 for m in r.means)
            assert all(c.dtype == np.float32 for c in r.covariances)

    def test_default_stays_float64(self):
        problem = repro.random_problem(k=4, seed=0, dims=2)
        result = repro.OddEvenSmoother().smooth(problem)
        assert all(m.dtype == np.float64 for m in result.means)

    def test_uncastable_result_raises(self):
        """A dtype request on a result without SmootherResult arrays
        cannot be honored and must not be dropped silently."""

        class Opaque(repro.SmootherBase):
            def _smooth(self, problem, config):
                return object()

        problem = repro.random_problem(k=4, seed=0, dims=2)
        with pytest.raises(ValueError, match="cannot honor"):
            Opaque().smooth(
                problem, config=EstimatorConfig(dtype=np.float32)
            )


class TestUltimateBackendThreading:
    def test_config_backend_reaches_the_batch_smooth(self):
        problem = repro.random_problem(k=5, seed=7, dims=2)
        backend = repro.RecordingBackend()
        repro.make_smoother("ultimate").smooth(
            problem, config=EstimatorConfig(backend=backend)
        )
        assert backend.graph.n_tasks > 0


class TestInternalNCRequests:
    """NC requests a composition generates itself never trip the
    capability check of an inner that cannot skip covariances."""

    def test_conventional_inner_still_accepted_by_nonlinear(self):
        nl, _truth = repro.pendulum_problem(k=8, seed=2)
        result = repro.GaussNewtonSmoother(inner=repro.RTSSmoother()).smooth(
            nl, config=EstimatorConfig(compute_covariance=False)
        )
        assert result.diagnostics["converged"]

    def test_ultimate_kalman_nc_with_conventional_inner(self):
        """UltimateKalman.smooth(compute_covariance=False) with a
        non-NC inner hides the covariances the inner computes."""
        problem = repro.random_problem(k=5, seed=4, dims=2)
        kalman = repro.UltimateKalman(
            2,
            prior=(problem.prior.mean, problem.prior.cov_matrix()),
            smoother=repro.RTSSmoother(),
        )
        for i, step in enumerate(problem.steps):
            if i:
                kalman.evolve_step(step.evolution)
            if step.observation is not None:
                kalman.observe_step(step.observation)
        result = kalman.smooth(compute_covariance=False)
        assert result.covariances is None


def _run_without_deprecations(fn):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return fn()


class TestCanonicalPathIsClean:
    def test_smooth_with_config(self):
        problem = repro.random_problem(k=5, seed=7, dims=2)
        _run_without_deprecations(
            lambda: repro.OddEvenSmoother().smooth(
                problem,
                config=EstimatorConfig(
                    backend=SerialBackend(), compute_covariance=False
                ),
            )
        )

    def test_smooth_many_with_config(self):
        problem = repro.random_problem(k=5, seed=7, dims=2)
        _run_without_deprecations(
            lambda: repro.BatchSmoother().smooth_many(
                [problem], config=EstimatorConfig(backend=SerialBackend())
            )
        )

    def test_first_party_compositions_are_clean(self):
        """UltimateKalman, solve_window, stream serving and the
        nonlinear smoothers run warning-free on the config path."""
        problem = repro.random_problem(k=5, seed=7, dims=2)

        def run():
            smoother = repro.make_smoother("ultimate")
            smoother.smooth(
                problem, config=EstimatorConfig(compute_covariance=False)
            )
            repro.solve_window(problem, compute_covariance=False)
            nl, _truth = repro.pendulum_problem(k=8, seed=0)
            repro.GaussNewtonSmoother().smooth(
                nl, config=EstimatorConfig(compute_covariance=False)
            )
            repro.LevenbergMarquardtSmoother().smooth(
                nl, config=EstimatorConfig(compute_covariance=False)
            )
            server = repro.StreamServer(2)
            server.open_stream("s", 2, prior=(np.zeros(2), np.eye(2)))
            for seq, step in enumerate(problem.steps):
                server.submit(
                    "s",
                    repro.StreamStep(
                        seq=seq,
                        evolution=step.evolution,
                        observation=step.observation,
                    ),
                )
                server.flush()
            server.close_stream("s")

        _run_without_deprecations(run)


class TestAdmitsProblemKind:
    def test_nonlinear_problem_needs_iterative_smoother(self):
        nl, _truth = repro.pendulum_problem(k=4, seed=0)
        assert repro.smoother_spec("odd-even").capabilities.admits(nl)
        assert repro.smoother_spec("kalman-rts").capabilities.admits(nl)
        assert (
            repro.smoother_spec("gauss-newton").capabilities.admits(nl)
            is None
        )
