"""Failure injection: every invalid input dies loudly and descriptively."""

import numpy as np
import pytest

from repro.core.smoother import OddEvenSmoother
from repro.errors import UnobservableStateError
from repro.kalman.paige_saunders import PaigeSaundersSmoother
from repro.kalman.ultimate import UltimateKalman
from repro.model.generators import random_problem
from repro.model.nonlinear import (
    NonlinearFunction,
    NonlinearProblem,
    NonlinearStep,
)
from repro.model.problem import StateSpaceProblem
from repro.model.steps import Evolution, GaussianPrior, Observation, Step
from repro.nonlinear.ekf import extended_kalman_filter
from repro.stream import FixedLagSmoother

class TestSingularCovariances:
    """§6: the QR-based smoothers require nonsingular K_i/L_i and must
    reject singular ones at construction with a clear message."""

    def test_singular_evolution_covariance(self):
        singular = np.diag([1.0, 0.0])
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            Evolution(F=np.eye(2), K=singular)

    def test_singular_observation_covariance(self):
        singular = np.zeros((2, 2))
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            Observation(G=np.eye(2), o=np.zeros(2), L=singular)

    def test_asymmetric_covariance(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError, match="symmetric"):
            Evolution(F=np.eye(2), K=bad)

    def test_negative_scalar_variance(self):
        with pytest.raises((np.linalg.LinAlgError, ValueError)):
            Observation(G=np.eye(1), o=np.zeros(1), L=-1.0)


class TestRankDeficiency:
    @pytest.mark.parametrize(
        "smoother",
        [OddEvenSmoother(), PaigeSaundersSmoother()],
        ids=["odd-even", "paige-saunders"],
    )
    def test_undetermined_states_reported(self, smoother):
        p = random_problem(
            k=4, seed=0, obs_prob=0.0, with_prior=False
        )
        p.steps[0].observation = None
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            smoother.smooth(p)

    def test_underdetermined_observations_alone(self):
        # Only 1-d observations of a 3-d state, no prior, no evolution
        # info at step 0: underdetermined at column 0.
        steps = [
            Step(
                state_dim=3,
                observation=Observation(
                    G=np.ones((1, 3)), o=np.zeros(1)
                ),
            ),
            Step(state_dim=3, evolution=Evolution(F=np.eye(3))),
        ]
        p = StateSpaceProblem(steps)
        # Both states are underdetermined; must not return garbage.
        with pytest.raises(np.linalg.LinAlgError):
            OddEvenSmoother().smooth(p)


class TestDimensionMismatches:
    def test_evolution_chain_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            StateSpaceProblem(
                [
                    Step(state_dim=2),
                    Step(state_dim=3, evolution=Evolution(F=np.eye(3))),
                ]
            )

    def test_prior_mismatch(self):
        with pytest.raises(ValueError, match="prior"):
            StateSpaceProblem(
                [Step(state_dim=2)],
                prior=GaussianPrior(mean=np.zeros(5)),
            )


class TestResultErrors:
    def test_stddevs_on_nc_result(self):
        p = random_problem(k=3, seed=1)
        result = OddEvenSmoother(compute_covariance=False).smooth(p)
        with pytest.raises(ValueError, match="NC mode"):
            result.stddevs()

    def test_stacked_means_varying_dims(self):
        p = random_problem(k=2, seed=2, dims=[2, 3, 2])
        result = OddEvenSmoother(compute_covariance=False).smooth(p)
        with pytest.raises(ValueError, match="varying"):
            result.stacked_means()

    def test_stacked_means_uniform(self):
        p = random_problem(k=2, seed=3, dims=2)
        result = OddEvenSmoother(compute_covariance=False).smooth(p)
        assert result.stacked_means().shape == (3, 2)

    def test_stddevs_shape(self):
        p = random_problem(k=2, seed=4, dims=3)
        result = OddEvenSmoother().smooth(p)
        assert all(s.shape == (3,) for s in result.stddevs())


class TestUnobservableWindows:
    """Unobservable states/windows on the incremental paths raise a
    ValueError naming the step index, never a bare LAPACK error."""

    def test_estimate_names_undetermined_state(self):
        uk = UltimateKalman(state_dim=3)  # no prior
        uk.observe(np.ones((1, 3)), np.zeros(1))
        with pytest.raises(ValueError, match="state 0"):
            uk.estimate()
        uk.evolve(F=np.eye(3))
        with pytest.raises(ValueError, match="state 1"):
            uk.estimate()
        # The specific subclass is catchable too (and is still a
        # LinAlgError for older callers).
        with pytest.raises(UnobservableStateError):
            uk.estimate()
        with pytest.raises(np.linalg.LinAlgError):
            uk.estimate()

    def test_incremental_smooth_names_window(self):
        uk = UltimateKalman(state_dim=2)  # no prior, 1-d observations
        uk.observe(np.eye(1, 2), np.zeros(1))
        uk.evolve(F=np.eye(2))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            uk.smooth()

    def test_fixed_lag_window_failure_names_global_steps(self):
        """After forgetting, the window indices named are global ones
        (the local window starts at 0 internally)."""
        fls = FixedLagSmoother(2, lag=2, auto_emit=False)
        rng = np.random.default_rng(0)
        for i in range(6):
            if i > 0:
                fls.evolve(F=np.eye(2))
            fls.observe(np.eye(2), rng.standard_normal(2))
        fls.flush_window()
        # Extend the rolled-up window with steps that destroy
        # observability: huge-noise evolutions and no observations
        # cannot happen (evolution chains keep rank) — instead shrink
        # into a wider state the old data cannot determine.
        h = np.zeros((2, 4))
        h[:, :2] = np.eye(2)
        fls.evolve(F=np.eye(2), H=h)  # 4-d state, only 2 rows of info
        # Window is global states [4, 6] after the rollup.
        with pytest.raises(ValueError, match=r"\[4, 6\]"):
            fls.flush_window()
        with pytest.raises(ValueError, match=r"\[4, 6\]"):
            fls.finalize()

    def test_ekf_singular_innovation_names_step(self):
        """A sensor whose linearization vanishes and whose noise
        covariance is zero makes the EKF innovation covariance
        singular at a known step; the error must say so instead of
        surfacing a LAPACK message."""
        identity = NonlinearFunction(
            fn=lambda x: x, jacobian=lambda x: np.eye(x.shape[0])
        )
        dead_sensor = NonlinearFunction(
            fn=lambda x: np.zeros(1), jacobian=lambda x: np.zeros((1, 2))
        )
        steps = [
            NonlinearStep(
                state_dim=2,
                observation_fn=identity,
                observation=np.zeros(2),
                observation_cov=np.eye(2),
            ),
            NonlinearStep(
                state_dim=2,
                evolution_fn=identity,
                evolution_cov=np.eye(2),
                observation_fn=dead_sensor,
                observation=np.zeros(1),
                observation_cov=np.zeros((1, 1)),
            ),
        ]
        problem = NonlinearProblem(
            steps,
            prior=GaussianPrior(mean=np.zeros(2), cov=np.eye(2)),
        )
        with pytest.raises(ValueError, match="step 1"):
            extended_kalman_filter(problem)
        with pytest.raises(UnobservableStateError, match="innovation"):
            extended_kalman_filter(problem)


class TestNaNPropagationGuard:
    def test_nan_observation_caught_at_solve(self):
        p = random_problem(k=3, seed=5, dims=2)
        p.steps[1].observation.o[0] = np.nan
        result = OddEvenSmoother(compute_covariance=False)
        with pytest.raises(np.linalg.LinAlgError):
            # NaNs corrupt the factor; the triangular check fires.
            res = result.smooth(p)
            if not all(np.isfinite(m).all() for m in res.means):
                raise np.linalg.LinAlgError("non-finite output")
