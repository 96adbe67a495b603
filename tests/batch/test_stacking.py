"""Tests for padding, bucketing, and batched whitening/stacking."""

import numpy as np
import pytest

from repro.batch.stacking import (
    bucket_problems,
    build_bucket_layout,
    pad_problem,
    padded_length,
    stack_whitened,
    structure_signature,
)
from repro.core.smoother import OddEvenSmoother
from repro.model.generators import random_problem, tracking_2d_problem
from repro.model.problem import StateSpaceProblem
from repro.model.steps import Evolution, GaussianPrior, Observation, Step


class TestPaddedLength:
    @pytest.mark.parametrize(
        "n,expect", [(1, 1), (2, 2), (3, 4), (5, 8), (64, 64), (65, 128)]
    )
    def test_next_power_of_two(self, n, expect):
        assert padded_length(n) == expect

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            padded_length(0)


class TestPadProblem:
    def test_padding_is_exact(self):
        problem = random_problem(k=9, seed=4, dims=3, random_cov=True)
        padded = pad_problem(problem, 16)
        assert padded.n_states == 16
        ref = OddEvenSmoother().smooth(problem)
        got = OddEvenSmoother().smooth(padded)
        for i in range(problem.n_states):
            np.testing.assert_allclose(
                got.means[i], ref.means[i], atol=1e-10
            )
            np.testing.assert_allclose(
                got.covariances[i], ref.covariances[i], atol=1e-10
            )
        assert got.residual_sq == pytest.approx(ref.residual_sq)
        # Padded states replicate the last real state's estimate
        # (identity evolution with no observations).
        np.testing.assert_allclose(
            got.means[-1], ref.means[-1], atol=1e-10
        )

    def test_noop_and_rejection(self):
        problem = random_problem(k=3, seed=0)
        assert pad_problem(problem, 4) is problem
        with pytest.raises(ValueError):
            pad_problem(problem, 2)


class TestSignatureAndBuckets:
    def test_signature_ignores_values(self):
        a = random_problem(k=5, seed=1, dims=3)
        b = random_problem(k=5, seed=99, dims=3)
        assert structure_signature(a) == structure_signature(b)

    def test_signature_obs_rows_flag(self):
        a = random_problem(k=5, seed=1, dims=3)
        sparse = random_problem(k=5, seed=1, dims=3, obs_prob=0.3)
        assert structure_signature(a) == structure_signature(sparse)
        assert structure_signature(
            a, obs_rows=True
        ) != structure_signature(sparse, obs_rows=True)

    def test_heterogeneous_lengths_share_buckets(self):
        problems = [
            random_problem(k=k, seed=k, dims=3)
            for k in (5, 7, 4, 6, 7)  # 5..8 states, all pad to 8
        ]
        buckets = bucket_problems(problems)
        assert len(buckets) == 1
        assert buckets[0].batch == 5
        assert buckets[0].n_states == 8
        assert sorted(buckets[0].indices) == list(range(5))

    def test_different_dims_split_buckets(self):
        problems = [
            random_problem(k=3, seed=0, dims=2),
            random_problem(k=3, seed=0, dims=3),
        ]
        assert len(bucket_problems(problems)) == 2

    def test_no_pad_buckets_exact_lengths(self):
        problems = [
            random_problem(k=3, seed=0, dims=3),
            random_problem(k=5, seed=0, dims=3),
        ]
        assert len(bucket_problems(problems, pad=False)) == 2


def scaled_identity_problem(k, seed, dims):
    """A random problem whose every covariance is a scaled identity."""
    base = random_problem(k=k, seed=seed, dims=dims)
    steps = []
    for i, step in enumerate(base.steps):
        evo = obs = None
        if step.evolution is not None:
            evo = Evolution(
                F=step.evolution.F, c=step.evolution.c, K=0.3 + 0.1 * i
            )
        if step.observation is not None:
            obs = Observation(
                G=step.observation.G, o=step.observation.o, L=2.0
            )
        steps.append(
            Step(state_dim=step.state_dim, evolution=evo, observation=obs)
        )
    return StateSpaceProblem(
        steps, prior=GaussianPrior(mean=base.prior.mean, cov=0.5)
    )


WHITENER_KINDS = {
    "dense": lambda s: random_problem(k=6, seed=s, dims=3, random_cov=True),
    "identity": lambda s: random_problem(k=6, seed=s, dims=3),
    "scaled": lambda s: scaled_identity_problem(k=6, seed=s, dims=3),
}


def stack_bucket(problems):
    """Stack a one-bucket workload through its compiled layout.

    Returns the bucket's physically padded problems (the per-problem
    references, in bucket order) and the stack.
    """
    (bucket,) = bucket_problems(problems)
    layout = build_bucket_layout(bucket)
    members = [problems[i] for i in bucket.indices]
    return bucket.problems, stack_whitened(members, layout)


def assert_slices_match_whiten(refs, stacked):
    """Slice ``b`` equals ``refs[b].whiten()`` to roundoff; rows past
    a slice's own observation count are exactly zero."""
    for b, ref in enumerate(refs):
        white = ref.whiten()
        assert len(stacked.steps) == len(white.steps)
        for got, ws in zip(stacked.steps, white.steps):
            rows = ws.C.shape[0]
            np.testing.assert_allclose(got.C[b][:rows], ws.C, atol=1e-12)
            np.testing.assert_allclose(
                got.rhs_C[b][:rows], ws.rhs_C, atol=1e-12
            )
            assert np.all(got.C[b][rows:] == 0.0)
            assert np.all(got.rhs_C[b][rows:] == 0.0)
            if ws.B is None:
                assert got.B is None
                continue
            np.testing.assert_allclose(got.B[b], ws.B, atol=1e-12)
            np.testing.assert_allclose(got.D[b], ws.D, atol=1e-12)
            np.testing.assert_allclose(
                got.rhs_BD[b], ws.rhs_BD, atol=1e-12
            )


class TestStackWhitened:
    """The compiled-layout stacker against per-problem ``whiten()``."""

    def test_matches_per_problem_whitening(self):
        problems = [
            random_problem(k=6, seed=s, dims=3, random_cov=True)
            for s in range(4)
        ]
        refs, stacked = stack_bucket(problems)
        assert_slices_match_whiten(refs, stacked)

    def test_mixed_lengths_pad_virtually(self):
        problems = [
            random_problem(k=k, seed=k, dims=3, random_cov=True)
            for k in (4, 7, 5, 6)  # 5..8 states, one bucket of 8
        ]
        refs, stacked = stack_bucket(problems)
        assert len(stacked.steps) == 8
        assert_slices_match_whiten(refs, stacked)

    def test_zero_pads_missing_observations(self):
        dense = random_problem(k=6, seed=1, dims=2)
        sparse = random_problem(k=6, seed=2, dims=2, obs_prob=0.4)
        refs, stacked = stack_bucket([dense, sparse])
        assert any(
            step.observation is None for step in sparse.steps
        ), "the workload must have a missing observation to pad"
        assert_slices_match_whiten(refs, stacked)

    def test_prior_folds_into_step_zero(self):
        with_prior = random_problem(k=5, seed=3, dims=3, random_cov=True)
        without = random_problem(
            k=5, seed=4, dims=3, random_cov=True, with_prior=False
        )
        refs, stacked = stack_bucket([with_prior, without])
        step0 = stacked.steps[0]
        # Prior rows plus observation rows for the first slice, only
        # observation rows (then zero padding) for the second.
        assert step0.C.shape[1] == with_prior.prior.dim + 3
        assert_slices_match_whiten(refs, stacked)

    @pytest.mark.parametrize(
        "kinds",
        [
            ("dense", "identity", "scaled"),
            ("identity", "scaled"),
            ("identity", "identity"),
        ],
        ids="-".join,
    )
    def test_whitener_kinds(self, kinds):
        """Dense factors take the batched-solve branch; all-identity
        and scaled-identity stacks take the scaling branch."""
        problems = [
            WHITENER_KINDS[kind](seed) for seed, kind in enumerate(kinds)
        ]
        refs, stacked = stack_bucket(problems)
        assert_slices_match_whiten(refs, stacked)

    def test_tracking_workload_stacks(self):
        problems = [
            tracking_2d_problem(k=10, seed=s)[0] for s in range(3)
        ]
        _, stacked = stack_bucket(problems)
        assert stacked.steps[0].C.shape[0] == 3

    def test_shape_accessors_address_trailing_axes(self):
        problems = [
            tracking_2d_problem(k=3, seed=s)[0] for s in range(5)
        ]
        _, stacked = stack_bucket(problems)
        white = problems[0].whiten()
        # Batched accessors report per-sequence row counts, not the
        # batch size.
        for got, want in zip(stacked.steps, white.steps):
            assert got.obs_rows == want.obs_rows
            assert got.evo_rows == want.evo_rows
        assert stacked.total_rows() == white.total_rows()

    def test_rejects_empty_and_mixed(self):
        """A layout takes exactly the workload it was compiled for."""
        (bucket,) = bucket_problems(
            [random_problem(k=2, seed=s, dims=2) for s in range(2)]
        )
        layout = build_bucket_layout(bucket)
        with pytest.raises(ValueError):
            stack_whitened([], layout)
        with pytest.raises(ValueError):
            stack_whitened(
                [
                    random_problem(k=2, seed=0, dims=2),
                    random_problem(k=2, seed=0, dims=3),
                ],
                layout,
            )
