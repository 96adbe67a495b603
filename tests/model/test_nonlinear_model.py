"""Tests for nonlinear models and their Gauss–Newton linearization."""

import dataclasses

import numpy as np
import pytest

from repro import make_smoother
from repro.linalg.cholesky import Whitener
from repro.model.dense import dense_solve
from repro.model.generators import random_problem
from repro.model.nonlinear import (
    NonlinearFunction,
    NonlinearProblem,
    NonlinearStep,
    _factor_whiteners,
    coordinated_turn_problem,
    pendulum_problem,
)
from repro.model.steps import GaussianPrior


class TestNonlinearFunction:
    def test_finite_difference_jacobian(self):
        f = NonlinearFunction(lambda x: np.array([x[0] ** 2, x[0] * x[1]]))
        jac = f.jac(np.array([2.0, 3.0]))
        assert np.allclose(jac, [[4.0, 0.0], [3.0, 2.0]], atol=1e-5)

    def test_analytic_jacobian_used(self):
        f = NonlinearFunction(
            lambda x: x**2, jacobian=lambda x: np.diag(2 * x)
        )
        assert np.allclose(f.jac(np.array([1.0, 2.0])), np.diag([2.0, 4.0]))


@pytest.mark.parametrize(
    "factory",
    [pendulum_problem, coordinated_turn_problem],
    ids=["pendulum", "coordinated-turn"],
)
class TestBenchmarkModels:
    def test_analytic_jacobians_match_fd(self, factory):
        problem, truth = factory(k=5, seed=0)
        x = truth[2]
        step = problem.steps[3]
        evo_analytic = step.evolution_fn.jac(x)
        evo_fd = NonlinearFunction(step.evolution_fn.fn).jac(x)
        assert np.allclose(evo_analytic, evo_fd, atol=1e-4)
        obs_analytic = step.observation_fn.jac(x)
        obs_fd = NonlinearFunction(step.observation_fn.fn).jac(x)
        assert np.allclose(obs_analytic, obs_fd, atol=1e-4)

    def test_objective_nonnegative(self, factory):
        problem, truth = factory(k=8, seed=1)
        assert problem.objective(list(truth)) >= 0


class TestLinearize:
    def test_linear_system_linearizes_to_itself(self):
        """Linearizing an (affine) nonlinear wrapper of a linear problem
        reproduces the linear problem's solution in one step."""
        linear = random_problem(k=3, seed=2, dims=2)
        f_mats = [s.evolution.F if s.evolution else None for s in linear.steps]
        c_vecs = [s.evolution.c if s.evolution else None for s in linear.steps]
        steps = []
        for i, s in enumerate(linear.steps):
            evo_fn = None
            if i > 0:
                evo_fn = NonlinearFunction(
                    (lambda F: lambda x: F @ x)(f_mats[i]),
                    (lambda F: lambda x: F)(f_mats[i]),
                )
            obs = s.observation
            obs_fn = None
            if obs is not None:
                obs_fn = NonlinearFunction(
                    (lambda G: lambda x: G @ x)(obs.G),
                    (lambda G: lambda x: G)(obs.G),
                )
            steps.append(
                NonlinearStep(
                    state_dim=s.state_dim,
                    evolution_fn=evo_fn,
                    evolution_cov=None if i == 0 else np.eye(2),
                    c=c_vecs[i],
                    observation_fn=obs_fn,
                    observation=None if obs is None else obs.o,
                    observation_cov=None if obs is None else np.eye(obs.rows),
                )
            )
        nl = NonlinearProblem(steps, prior=linear.prior)
        anywhere = [np.ones(2) for _ in steps]
        relinearized = nl.linearize(anywhere)
        assert np.allclose(
            np.concatenate(dense_solve(relinearized)),
            np.concatenate(dense_solve(linear)),
            atol=1e-9,
        )

    def test_linearize_length_checked(self):
        problem, _ = pendulum_problem(k=3)
        with pytest.raises(ValueError, match="trajectory"):
            problem.linearize([np.zeros(2)])


class TestValidation:
    def test_first_step_evolution_rejected(self):
        with pytest.raises(ValueError):
            NonlinearProblem(
                [
                    NonlinearStep(
                        state_dim=1,
                        evolution_fn=NonlinearFunction(lambda x: x),
                    )
                ]
            )

    def test_missing_evolution_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            NonlinearProblem(
                [NonlinearStep(state_dim=1), NonlinearStep(state_dim=1)]
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            NonlinearProblem([])

    def test_prior_enters_objective(self):
        steps = [NonlinearStep(state_dim=1)]
        p0 = NonlinearProblem(
            steps, prior=GaussianPrior(mean=np.zeros(1))
        )
        assert p0.objective([np.array([2.0])]) == pytest.approx(4.0)


class TestModelView:
    """Construction validates and stacks the model once."""

    @staticmethod
    def with_step(problem, i, **changes):
        steps = list(problem.steps)
        steps[i] = dataclasses.replace(steps[i], **changes)
        return steps

    @pytest.mark.parametrize(
        "smoother", ["gauss-newton", "levenberg-marquardt", "ipls"]
    )
    def test_nan_observation_names_its_step(self, smoother):
        """A NaN observation used to surface as a singular innovation
        at the *next* step; it is now rejected where it is."""
        problem, _ = pendulum_problem(20)
        steps = self.with_step(problem, 7, observation=np.array([np.nan]))
        with pytest.raises(ValueError, match="step 7 observation"):
            make_smoother(smoother).smooth(
                NonlinearProblem(steps, prior=problem.prior)
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("c", np.array([0.0, np.inf])),
            ("evolution_cov", np.full((2, 2), np.nan)),
            ("observation_cov", np.array([[np.nan]])),
        ],
    )
    def test_non_finite_model_data_rejected(self, field, value):
        problem, _ = pendulum_problem(10)
        with pytest.raises(ValueError, match=f"step 4 {field}"):
            NonlinearProblem(
                self.with_step(problem, 4, **{field: value}),
                prior=problem.prior,
            )

    def test_misshapen_constant_rejected(self):
        problem, _ = pendulum_problem(5)
        with pytest.raises(ValueError, match="step 3 c has shape"):
            NonlinearProblem(
                self.with_step(problem, 3, c=np.zeros(3)), prior=problem.prior
            )

    def test_steps_are_fixed_after_construction(self):
        problem, _ = pendulum_problem(5)
        assert isinstance(problem.steps, tuple)
        with pytest.raises(TypeError):
            problem.steps[2] = problem.steps[3]

    def test_singular_noise_fails_at_use_naming_the_step(self):
        """The filter runs on semidefinite noise, so construction
        accepts it; the least-squares paths name the step."""
        problem, truth = pendulum_problem(6)
        steps = self.with_step(problem, 5, observation_cov=np.zeros((1, 1)))
        nl = NonlinearProblem(steps, prior=problem.prior)
        with pytest.raises(np.linalg.LinAlgError, match="step 5"):
            nl.linearize(list(truth))
        with pytest.raises(np.linalg.LinAlgError, match="step 5"):
            nl.objective(list(truth))

    def test_working_dtype_failure_does_not_poison_float64(self):
        """A covariance that is PD in float64 but singular once cast
        fails the float32 linearization only."""
        problem, truth = pendulum_problem(6)
        near = np.array([[1.0, 1.0 - 1e-12], [1.0 - 1e-12, 1.0]])
        nl = NonlinearProblem(
            self.with_step(problem, 2, evolution_cov=near),
            prior=problem.prior,
        )
        with pytest.raises(np.linalg.LinAlgError, match="step 2"):
            nl.linearize(list(truth), dtype=np.float32)
        nl.linearize(list(truth))
        assert np.isfinite(nl.objective(list(truth)))

    def test_inflated_noise_failure_names_the_step(self):
        stack = np.stack([np.eye(2), -np.eye(2)])
        with pytest.raises(
            np.linalg.LinAlgError, match="step 4 evolution covariance K"
        ):
            _factor_whiteners(stack, [3, 4], "evolution covariance K")

    def test_shared_covariances_share_one_factorization(self):
        problem, _ = pendulum_problem(8)
        q = problem.steps[1].evolution_cov
        steps = [
            dataclasses.replace(s, evolution_cov=q) if i else s
            for i, s in enumerate(problem.steps)
        ]
        nl = NonlinearProblem(steps, prior=problem.prior)
        linear = nl.linearize([np.zeros(2)] * len(steps))
        whiteners = {id(s.evolution.K) for s in linear.steps[1:]}
        assert len(whiteners) == 1

    @pytest.mark.parametrize(
        "gen", [pendulum_problem, coordinated_turn_problem]
    )
    def test_objective_matches_per_step_sum(self, gen):
        problem, truth = gen(15, seed=2)
        rng = np.random.default_rng(0)
        traj = [t + 0.1 * rng.standard_normal(t.shape) for t in truth]
        total = 0.0
        r = problem.prior.cov.whiten(traj[0] - problem.prior.mean)
        total += float(r @ r)
        for i, s in enumerate(problem.steps):
            if i > 0:
                resid = traj[i] - s.evolution_fn(traj[i - 1])
                w = Whitener(s.evolution_cov).whiten(resid)
                total += float(w @ w)
            resid = s.observation - s.observation_fn(traj[i])
            w = Whitener(s.observation_cov).whiten(resid)
            total += float(w @ w)
        assert problem.objective(traj) == pytest.approx(total, rel=1e-13)
