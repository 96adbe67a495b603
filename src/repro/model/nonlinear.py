"""Nonlinear dynamic systems and their pluggable linearization layer.

The paper reduces nonlinear Kalman smoothing to a sequence of linear
smoothing problems (§2.2): each iteration replaces the nonlinear
``F_i``/``G_i`` by affine surrogates at the current iterate and adjusts
the constant terms so the linear solution is the next iterate.  *How*
the surrogate is produced is a policy, captured by the
:class:`Linearizer` protocol:

* :class:`JacobianLinearizer` — first-order Taylor expansion at a
  point (the classic extended/iterated Kalman smoother linearization,
  refactored out of the old ``NonlinearProblem.linearize`` body);
* :class:`SigmaPointLinearizer` — statistical linear regression (SLR)
  against a Gaussian density: unscented/cubature sigma points of
  ``N(mean, cov)`` are propagated through the function and moment
  matching yields the best affine fit ``F x + c`` *plus* the
  regression-residual covariance ``Omega`` that inflates the step's
  noise (Yaghoobi, Corenflos, Hassan & Särkkä, "Parallel Iterated
  Extended and Sigma-point Kalman Smoothers").  This is what the
  iterated posterior-linearization smoother
  (:class:`~repro.nonlinear.ipls.IteratedPosteriorLinearizationSmoother`)
  re-linearizes with around the current smoothed marginals.

This module holds the nonlinear model description, the linearization
layer, and four benchmark systems (pendulum, coordinated turn,
bearings-only tunnel, cubic sensor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np
from scipy.linalg import cholesky as _cholesky

from ..linalg.cholesky import Whitener, spd_cholesky, stack_whiten_prepared
from ..linalg.flops import cholesky_flops
from ..linalg.triangular import as_working_dtype
from ..parallel.tally import add_cost
from .problem import StateSpaceProblem
from .steps import Evolution, GaussianPrior, Observation, Step, _as_cov_whitener

__all__ = [
    "NonlinearFunction",
    "NonlinearStep",
    "NonlinearProblem",
    "Linearizer",
    "LinearizedFn",
    "JacobianLinearizer",
    "SigmaPointLinearizer",
    "as_nonlinear",
    "pendulum_problem",
    "coordinated_turn_problem",
    "bearings_only_tunnel_problem",
    "cubic_sensor_problem",
]


@dataclass
class NonlinearFunction:
    """A differentiable vector function with its Jacobian.

    ``fn(x) -> y`` and ``jacobian(x) -> dy/dx``.  When ``jacobian`` is
    omitted a central finite difference is used (tests verify analytic
    Jacobians against it).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    fd_step: float = 1e-6

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def jac(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.jacobian is not None:
            return np.atleast_2d(np.asarray(self.jacobian(x), dtype=float))
        y0 = self(x)
        jac = np.zeros((y0.shape[0], x.shape[0]))
        for j in range(x.shape[0]):
            dx = np.zeros_like(x)
            dx[j] = self.fd_step
            jac[:, j] = (self(x + dx) - self(x - dx)) / (2 * self.fd_step)
        return jac


@dataclass(frozen=True)
class LinearizedFn:
    """An affine surrogate ``y ~ F x + c`` for a nonlinear function.

    ``omega`` is the covariance of the regression residual
    ``y - F x - c`` under the linearization density (``None`` for
    point linearizations, which carry no residual model).  Iterated
    smoothers add it to the step's noise covariance, which is what
    makes posterior-linearization iterations well posed away from the
    Gauss–Newton fixed point.
    """

    F: np.ndarray
    c: np.ndarray
    omega: np.ndarray | None = None


@runtime_checkable
class Linearizer(Protocol):
    """Policy producing affine surrogates of :class:`NonlinearFunction`.

    ``linearize(fn, mean, cov)`` returns a :class:`LinearizedFn` valid
    around ``mean`` (point methods) or against the Gaussian density
    ``N(mean, cov)`` (statistical methods).  ``needs_covariance``
    advertises whether ``cov`` is required — callers without marginal
    covariances (plain Gauss–Newton) check it up front instead of
    failing mid-sweep.
    """

    name: str
    needs_covariance: bool

    def linearize(
        self,
        fn: NonlinearFunction,
        mean: np.ndarray,
        cov: np.ndarray | None = None,
    ) -> LinearizedFn: ...


@dataclass(frozen=True)
class JacobianLinearizer:
    """First-order Taylor expansion at a point (EKF/Gauss–Newton).

    ``F = fn'(mean)``, ``c = fn(mean) - F mean``, no residual
    covariance — exactly the linearization the iterated smoothers have
    always used, now behind the :class:`Linearizer` protocol.
    """

    name = "jacobian"
    needs_covariance = False

    def linearize(
        self,
        fn: NonlinearFunction,
        mean: np.ndarray,
        cov: np.ndarray | None = None,
    ) -> LinearizedFn:
        mean = np.asarray(mean, dtype=float)
        f = fn.jac(mean)
        return LinearizedFn(F=f, c=fn(mean) - f @ mean, omega=None)


@dataclass(frozen=True)
class SigmaPointLinearizer:
    """Statistical linear regression through unscented sigma points.

    Propagates the ``2n + 1`` scaled sigma points of ``N(mean, cov)``
    through ``fn`` and moment-matches the best affine fit: with
    ``P_xy = sum_j w_j (x_j - mean)(y_j - ybar)^T``,

    ``F = P_xy^T P_xx^{-1}``, ``c = ybar - F mean``,
    ``omega = P_yy - F P_xy``  (the SLR residual covariance, PSD).

    The defaults ``alpha=1, beta=0, kappa=0`` reproduce the spherical
    cubature rule (zero center weight); any valid ``alpha/beta/kappa``
    recovers ``F, c`` exactly on affine functions with ``omega = 0``,
    which is why IPLS collapses to the linear solution on linear
    problems.
    """

    alpha: float = 1.0
    beta: float = 0.0
    kappa: float = 0.0

    name = "sigma-point"
    needs_covariance = True

    def weights(self, n: int) -> tuple[float, np.ndarray, np.ndarray]:
        """Scaling ``lambda`` plus mean/covariance weight vectors."""
        lam = self.alpha**2 * (n + self.kappa) - n
        if not np.isfinite(lam) or n + lam <= 0:
            raise ValueError(
                f"sigma-point scaling n + lambda must be positive; got "
                f"alpha={self.alpha}, kappa={self.kappa} for dimension {n}"
            )
        w_mean = np.full(2 * n + 1, 1.0 / (2.0 * (n + lam)))
        w_mean[0] = lam / (n + lam)
        w_cov = w_mean.copy()
        w_cov[0] += 1.0 - self.alpha**2 + self.beta
        return lam, w_mean, w_cov

    def sigma_points(self, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
        """The ``(2n + 1, n)`` scaled sigma points of ``N(mean, cov)``."""
        mean = np.asarray(mean, dtype=float)
        n = mean.shape[0]
        lam, _, _ = self.weights(n)
        scaled = (n + lam) * _symmetrize(np.asarray(cov, dtype=float))
        root = _psd_sqrt(scaled)
        points = np.empty((2 * n + 1, n))
        points[0] = mean
        points[1 : n + 1] = mean + root.T
        points[n + 1 :] = mean - root.T
        return points

    def linearize(
        self,
        fn: NonlinearFunction,
        mean: np.ndarray,
        cov: np.ndarray | None = None,
    ) -> LinearizedFn:
        if cov is None:
            raise ValueError(
                "sigma-point linearization regresses against a density "
                "N(mean, cov): pass the marginal covariances (IPLS "
                "threads the current smoothed covariances here)"
            )
        mean = np.asarray(mean, dtype=float)
        n = mean.shape[0]
        _, w_mean, w_cov = self.weights(n)
        points = self.sigma_points(mean, cov)
        ys = np.stack([fn(p) for p in points])
        ybar = w_mean @ ys
        dx = points - mean
        dy = ys - ybar
        # Regress against the sigma-point-reconstructed P_xx (the
        # center point drops out: dx_0 = 0), so F is exactly the
        # least-squares fit on the propagated points and omega is PSD
        # up to roundoff regardless of the cov's conditioning.
        p_xx = (dx * w_cov[:, None]).T @ dx
        p_xy = (dx * w_cov[:, None]).T @ dy
        p_yy = (dy * w_cov[:, None]).T @ dy
        try:
            f = np.linalg.solve(_symmetrize(p_xx), p_xy).T
        except np.linalg.LinAlgError:
            f = np.linalg.lstsq(p_xx, p_xy, rcond=None)[0].T
        omega = _psd_clip(p_yy - f @ p_xy)
        return LinearizedFn(F=f, c=ybar - f @ mean, omega=omega)

    def linearize_stack(
        self,
        fns: list[NonlinearFunction],
        means: np.ndarray,
        covs: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`linearize` for ``B`` equal-shape slices at once.

        ``fns[b]`` is regressed against ``N(means[b], covs[b])``
        (``means`` is ``(B, n)``, ``covs`` ``(B, n, n)``); returns the
        stacked ``(F, c, omega)``.  Only the model functions are called
        point by point; sigma points, moments, the regression and the
        residual covariance are batched, with the Cholesky→eigen,
        ``solve``→``lstsq`` and PSD-clip fallbacks of :meth:`linearize`
        applied to the failing slices only.  Slice ``b`` agrees with
        ``linearize(fns[b], means[b], covs[b])`` to roundoff.
        """
        if covs is None:
            raise ValueError(
                "sigma-point linearization regresses against a density "
                "N(mean, cov): pass the marginal covariances (IPLS "
                "threads the current smoothed covariances here)"
            )
        means = np.asarray(means, dtype=float)
        batch, n = means.shape
        lam, w_mean, w_cov = self.weights(n)
        roots = _psd_sqrt(
            (n + lam) * _symmetrize(np.asarray(covs, dtype=float))
        )
        offsets = np.swapaxes(roots, 1, 2)
        points = np.empty((batch, 2 * n + 1, n))
        points[:, 0] = means
        points[:, 1 : n + 1] = means[:, None, :] + offsets
        points[:, n + 1 :] = means[:, None, :] - offsets
        ys = np.stack([fn(p) for fn, pts in zip(fns, points) for p in pts])
        ys = ys.reshape(batch, 2 * n + 1, -1)
        ybar = w_mean @ ys
        dx = points - means[:, None, :]
        dy = ys - ybar[:, None, :]
        wdx = np.swapaxes(dx * w_cov[:, None], 1, 2)
        p_xx = wdx @ dx
        p_xy = wdx @ dy
        p_yy = np.swapaxes(dy * w_cov[:, None], 1, 2) @ dy
        try:
            f = np.swapaxes(np.linalg.solve(_symmetrize(p_xx), p_xy), 1, 2)
        except np.linalg.LinAlgError:
            f = np.empty((batch, p_xy.shape[2], n))
            for b in range(batch):
                try:
                    f[b] = np.linalg.solve(_symmetrize(p_xx[b]), p_xy[b]).T
                except np.linalg.LinAlgError:
                    f[b] = np.linalg.lstsq(p_xx[b], p_xy[b], rcond=None)[0].T
        omega = _psd_clip(p_yy - f @ p_xy)
        c = ybar - (f @ means[:, :, None])[:, :, 0]
        return f, c, omega


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """A square root ``S`` with ``S S^T = a`` (lower Cholesky when PD,
    eigenvalue-clipped symmetric root otherwise).  On a ``(B, n, n)``
    stack one batched Cholesky serves every PD slice; the eigen root
    replaces only the slices it fails on."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        if a.ndim > 2:
            return np.stack([_psd_sqrt(s) for s in a])
        vals, vecs = np.linalg.eigh(a)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _psd_clip(a: np.ndarray) -> np.ndarray:
    """Project a nearly-PSD matrix onto the PSD cone (roundoff guard).

    Accepts a ``(B, m, m)`` stack: one batched ``eigh`` finds the
    slices with a negative eigenvalue, and only those are projected.
    """
    a = _symmetrize(a)
    vals, vecs = np.linalg.eigh(a)
    if vals.size == 0:
        return a
    if a.ndim > 2:
        for b in np.flatnonzero(vals[:, 0] < 0.0):
            a[b] = _psd_clip(a[b])
        return a
    if vals[0] >= 0.0:
        return a
    return _symmetrize((vecs * np.clip(vals, 0.0, None)) @ vecs.T)


def _cast(a: np.ndarray, dtype) -> np.ndarray:
    return np.asarray(a, dtype=float if dtype is None else dtype)


def _linearize_group(lin, fns, states, covs):
    """Stacked ``(F, c, omega)`` of ``fns[b]`` around ``states[b]``.

    Linearizers with a ``linearize_stack`` entry (the sigma-point one)
    take the whole group in one pass; any other :class:`Linearizer` is
    called point by point and its outputs stacked.  ``omega`` is
    ``None`` when no slice carries one; otherwise slices without one
    contribute zeros.
    """
    stacked = getattr(lin, "linearize_stack", None)
    if stacked is not None:
        cov_stack = None
        if covs is not None:
            cov_stack = np.stack([np.asarray(c, dtype=float) for c in covs])
        return stacked(fns, np.stack(states), cov_stack)
    if covs is None:
        covs = [None] * len(fns)
    parts = [lin.linearize(fn, x, c) for fn, x, c in zip(fns, states, covs)]
    omega = None
    if any(p.omega is not None for p in parts):
        omega = np.stack(
            [
                np.zeros((len(p.c),) * 2) if p.omega is None else p.omega
                for p in parts
            ]
        )
    return (
        np.stack([p.F for p in parts]),
        np.stack([p.c for p in parts]),
        omega,
    )


def _factor_whiteners(total: np.ndarray, steps, what: str) -> list[Whitener]:
    """Factor-form whiteners for a ``(B, m, m)`` stack of covariances.

    One vectorized symmetry check and one batched Cholesky validate
    the whole stack, with the tolerances of
    :func:`~repro.linalg.cholesky.spd_cholesky`; when either fails, the
    slices are re-run through ``spd_cholesky`` so the error names the
    offending step.
    """
    total = as_working_dtype(total)
    factors = None
    if np.allclose(total, np.swapaxes(total, 1, 2), rtol=1e-10, atol=1e-12):
        # numpy's single-precision Cholesky rounds differently from the
        # scipy LAPACK behind spd_cholesky; float32 stacks take scipy's
        # (slower, looped) batched form so their factors stay identical
        # to the per-step ones.
        try:
            if total.dtype == np.float64:
                factors = np.linalg.cholesky(total)
            else:
                factors = _cholesky(total, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            pass
    if factors is None:
        factors = np.stack(
            [spd_cholesky(t, f"step {i} {what}") for t, i in zip(total, steps)]
        )
    else:
        add_cost(len(steps) * cholesky_flops(total.shape[1]))
    return Whitener.from_factors(factors, what)


@dataclass
class NonlinearStep:
    """One step of a nonlinear problem.

    ``evolution_fn`` maps ``u_{i-1}`` to the predicted ``H_i u_i``
    contribution (paper form ``H_i u_i = F_i(u_{i-1}) + c_i + eps``);
    ``observation_fn`` maps ``u_i`` to the predicted observation.
    """

    state_dim: int
    evolution_fn: NonlinearFunction | None = None
    evolution_cov: np.ndarray | None = None
    c: np.ndarray | None = None
    observation_fn: NonlinearFunction | None = None
    observation: np.ndarray | None = None
    observation_cov: np.ndarray | None = None


_EVOLUTION, _OBSERVATION = 0, 1


@dataclass(frozen=True)
class _EquationGroup:
    """The equations of one kind whose shapes agree, stacked.

    Slice ``b`` is the equation of step ``steps[b]``; its function
    ``fns[b]`` reads state ``inputs[b]`` (the previous state for an
    evolution, the step's own for an observation).  ``offset`` stacks
    the constant terms (``c`` for evolutions, the observation vectors
    for observations), ``raw_covs`` the noise covariances as given,
    ``whiteners`` their validated :class:`Whitener` s (or the error
    validation raised), ``cov`` the covariances those materialize, and
    ``factors``/``scales`` the operands of
    :func:`~repro.linalg.cholesky.stack_whiten_prepared` (``cov`` and
    both operands are ``None`` when any noise covariance failed).
    """

    kind: int
    what: str
    steps: np.ndarray
    inputs: tuple[int, ...]
    fns: tuple
    offset: np.ndarray
    raw_covs: tuple
    whiteners: tuple[Whitener, ...]
    cov: np.ndarray
    factors: np.ndarray | None
    scales: np.ndarray | None


class _ModelView:
    """The validated, stacked view of a :class:`NonlinearProblem`.

    Built once per problem: the equations grouped by shape with their
    constant terms, observations and noise covariances stacked; one
    vectorized finiteness check over the data; the model noise
    covariances validated into :class:`Whitener` s (shared by steps
    that share a covariance array) and materialized once.  Every
    linearization and objective evaluation then works on these stacks
    instead of re-validating each step.

    Noise covariances that fail validation do not fail construction
    — the extended Kalman filter runs on semidefinite noise — but the
    least-squares formulation needs them nonsingular, so
    :meth:`check_noise` re-raises the first failure, naming its step.
    """

    _FIELDS = {
        _EVOLUTION: ("c", "evolution_cov", "evolution covariance K"),
        _OBSERVATION: (
            "observation", "observation_cov", "observation covariance L"
        ),
    }

    def __init__(self, steps, prior):
        members: dict[tuple, list[tuple]] = {}
        for i, s in enumerate(steps):
            if i > 0:
                c = np.zeros(s.state_dim) if s.c is None else s.c
                members.setdefault(
                    (_EVOLUTION, steps[i - 1].state_dim, s.state_dim), []
                ).append((i, i - 1, s.evolution_fn, c, s.evolution_cov))
            if s.observation_fn is not None and s.observation is not None:
                o = np.atleast_1d(np.asarray(s.observation, dtype=float))
                members.setdefault(
                    (_OBSERVATION, s.state_dim, o.shape[0]), []
                ).append((i, i, s.observation_fn, o, s.observation_cov))
        self._noise_errors: list[tuple[int, Exception]] = []
        self._memo: dict[tuple, Whitener] = {}
        bad: list[tuple[int, str]] = []
        groups = []
        for (kind, _, rows), entries in members.items():
            groups.append(self._group(kind, rows, entries, bad))
        if prior is not None and not np.all(np.isfinite(prior.mean)):
            bad.append((0, "prior mean"))
        if bad:
            step, field = min(bad)
            raise ValueError(
                f"step {step} {field} has non-finite entries; the "
                "model data must be finite"
            )
        self.groups = tuple(groups)

    def _group(self, kind, rows, entries, bad) -> _EquationGroup:
        field, cov_field, what = self._FIELDS[kind]
        steps = np.array([e[0] for e in entries], dtype=np.intp)
        vectors = [np.atleast_1d(np.asarray(e[3], dtype=float)) for e in entries]
        for (i, *_), v in zip(entries, vectors):
            if v.shape != (rows,):
                raise ValueError(
                    f"step {i} {field} has shape {v.shape}, expected ({rows},)"
                )
        offset = np.stack(vectors)
        finite = np.isfinite(offset).all(axis=1)
        bad.extend((int(i), field) for i in steps[~finite])
        arrays = []
        for i, *_, cov in entries:
            if cov is None or np.isscalar(cov) or isinstance(cov, Whitener):
                continue
            shape = np.shape(cov)
            if shape != (rows, rows):
                raise ValueError(
                    f"step {i} {cov_field} has shape {shape}, expected "
                    f"({rows}, {rows})"
                )
            arrays.append((i, cov))
        if arrays:
            finite = np.isfinite(np.stack([a for _, a in arrays])).all(
                axis=(1, 2)
            )
            bad.extend(
                (i, cov_field) for (i, _), ok in zip(arrays, finite) if not ok
            )
        whiteners = tuple(
            self._whitener(e[4], rows, what, e[0]) for e in entries
        )
        self._noise_errors.extend(
            (i, w) for i, w in zip(steps, whiteners) if isinstance(w, Exception)
        )
        cov = factors = scales = None
        if not self._noise_errors:
            cov = np.stack([w.covariance() for w in whiteners]).astype(float)
            if all(w.kind in ("identity", "scaled_identity") for w in whiteners):
                scales = np.array([w.scale for w in whiteners])
            else:
                factors = np.stack([w.factor_matrix() for w in whiteners])
        return _EquationGroup(
            kind=kind,
            what=what,
            steps=steps,
            inputs=tuple(e[1] for e in entries),
            fns=tuple(e[2] for e in entries),
            offset=offset,
            raw_covs=tuple(e[4] for e in entries),
            whiteners=whiteners,
            cov=cov,
            factors=factors,
            scales=scales,
        )

    def _whitener(self, cov, rows: int, what: str, step: int, dtype=None):
        """The validated whitener of one model covariance, or the
        exception (naming ``step``) its validation raised.  Array
        covariances are memoized by identity, so steps sharing one
        share its factorization."""
        key = None
        if isinstance(cov, np.ndarray):
            key = (id(cov), what, dtype)
            if key in self._memo:
                return self._memo[key]
            if dtype is not None:
                cov = np.asarray(cov, dtype=dtype)
        try:
            whitener = _as_cov_whitener(cov, rows, what)
        except ValueError as exc:
            whitener = type(exc)(f"step {step}: {exc}")
        if key is not None:
            self._memo[key] = whitener
        return whitener

    def check_noise(self) -> None:
        if self._noise_errors:
            _, exc = min(self._noise_errors, key=lambda e: e[0])
            raise exc.with_traceback(None)

    def model_whiteners(self, g: int, dtype) -> tuple[Whitener, ...]:
        """Group ``g``'s model whiteners for linearizing in ``dtype``.

        A working dtype re-factors the covariance arrays stored in
        another dtype (once per problem, through the memo), exactly as
        constructing the linearized :class:`Evolution`/
        :class:`Observation` from the cast matrices would.
        """
        group = self.groups[g]
        if dtype is None:
            return group.whiteners
        dtype = np.dtype(dtype)
        whiteners = tuple(
            self._whitener(raw, w.dim, group.what, int(i), dtype)
            if isinstance(raw, np.ndarray) and raw.dtype != dtype
            else w
            for raw, w, i in zip(group.raw_covs, group.whiteners, group.steps)
        )
        for w in whiteners:
            if isinstance(w, Exception):
                raise w.with_traceback(None)
        return whiteners

    def noise(self, g: int, omega, dtype) -> Sequence[Whitener]:
        """Group ``g``'s linearized noise whiteners.

        Point linearizations (``omega is None``) keep the model
        whiteners.  Statistical ones add ``omega`` to the model
        covariances and validate the sums as one stack.
        """
        if omega is None:
            return self.model_whiteners(g, dtype)
        group = self.groups[g]
        total = group.cov + omega
        if dtype is not None:
            total = np.asarray(total, dtype=dtype)
        return _factor_whiteners(total, group.steps, group.what)


class NonlinearProblem:
    """A nonlinear estimation problem (``H_i = I`` throughout).

    ``steps`` is a tuple: construction validates and stacks the model
    once (see :class:`_ModelView`), so the steps are fixed from then
    on.  Non-finite observations, constant terms or noise covariances
    raise a ``ValueError`` naming the step and field.
    """

    def __init__(
        self, steps: list[NonlinearStep], prior: GaussianPrior | None = None
    ):
        if not steps:
            raise ValueError("a problem needs at least one step")
        if steps[0].evolution_fn is not None:
            raise ValueError("steps[0] must not have an evolution function")
        for i, s in enumerate(steps[1:], start=1):
            if s.evolution_fn is None:
                raise ValueError(f"step {i} is missing its evolution function")
        self.steps = tuple(steps)
        self.prior = prior
        self._view = _ModelView(self.steps, prior)

    @property
    def k(self) -> int:
        return len(self.steps) - 1

    @property
    def state_dims(self) -> list[int]:
        return [s.state_dim for s in self.steps]

    def linearize(
        self,
        trajectory: list[np.ndarray],
        *,
        linearizer: Linearizer | None = None,
        covariances: list[np.ndarray] | None = None,
        dtype: np.dtype | type | None = None,
    ) -> StateSpaceProblem:
        """Linear problem whose solution is the next iterate.

        With the default :class:`JacobianLinearizer`, at the iterate
        ``u^0`` the evolution residual linearizes as
        ``u_i - F'(u^0_{i-1}) u_{i-1} - c_i'`` with
        ``c_i' = c_i + F(u^0_{i-1}) - F'(u^0_{i-1}) u^0_{i-1}``, and the
        observation residual as ``o_i' - G'(u^0_i) u_i`` with
        ``o_i' = o_i - G(u^0_i) + G'(u^0_i) u^0_i`` (paper §2.2, [16])
        — the classic Gauss–Newton step.

        A statistical ``linearizer`` (:class:`SigmaPointLinearizer`)
        instead regresses against ``N(u^0_i, covariances[i])`` and adds
        its residual covariance ``omega`` to the step noise — the
        posterior-linearization construction.  ``dtype`` casts the
        materialized matrices to the working dtype
        (``EstimatorConfig(dtype=...).solve_dtype``) so the
        mixed-precision batched path is not silently defeated by
        float64 inputs.

        The equations are linearized one equal-shape group at a time
        (:meth:`SigmaPointLinearizer.linearize_stack`); only the model
        functions are called per point.  Point linearizations keep the
        model's validated whiteners; statistical ones validate the
        inflated covariances ``K + omega``/``L + omega`` as one stack.
        """
        if len(trajectory) != len(self.steps):
            raise ValueError(
                f"trajectory has {len(trajectory)} states, problem has "
                f"{len(self.steps)}"
            )
        lin = linearizer if linearizer is not None else JacobianLinearizer()
        if covariances is not None and len(covariances) != len(self.steps):
            raise ValueError(
                f"got {len(covariances)} covariances for "
                f"{len(self.steps)} steps"
            )
        if lin.needs_covariance and covariances is None:
            raise ValueError(
                f"the {lin.name!r} linearizer needs per-step marginal "
                "covariances; pass covariances= (IPLS threads the "
                "current smoothed covariances automatically)"
            )
        view = self._view
        view.check_noise()
        states = [np.asarray(x, dtype=float) for x in trajectory]
        evo: list[Evolution | None] = [None] * len(self.steps)
        obs: list[Observation | None] = [None] * len(self.steps)
        for g, group in enumerate(view.groups):
            f, c, omega = _linearize_group(
                lin,
                group.fns,
                [states[j] for j in group.inputs],
                None
                if covariances is None
                else [covariances[j] for j in group.inputs],
            )
            noise = view.noise(g, omega, dtype)
            f = _cast(f, dtype)
            if group.kind == _EVOLUTION:
                c = _cast(group.offset + c, dtype)
                for b, i in enumerate(group.steps):
                    evo[i] = Evolution(F=f[b], c=c[b], K=noise[b])
            else:
                o = _cast(group.offset - c, dtype)
                for b, i in enumerate(group.steps):
                    obs[i] = Observation(G=f[b], o=o[b], L=noise[b])
        out = [
            Step(state_dim=s.state_dim, evolution=evo[i], observation=obs[i])
            for i, s in enumerate(self.steps)
        ]
        prior = self.prior
        if dtype is not None and prior is not None:
            prior = GaussianPrior(
                mean=_cast(prior.mean, dtype),
                cov=_cast(prior.cov_matrix(), dtype),
            )
        return StateSpaceProblem(out, prior=prior)

    def objective(self, trajectory: list[np.ndarray]) -> float:
        """The nonlinear generalized least-squares objective (paper eq. 4).

        Residuals are whitened one equal-shape group at a time; the
        per-equation terms are summed in step order (evolution before
        observation), as a per-step loop would.
        """
        view = self._view
        view.check_noise()
        total = 0.0
        if self.prior is not None:
            r = self.prior.cov.whiten(
                np.asarray(trajectory[0], dtype=float) - self.prior.mean
            )
            total += float(r @ r)
        terms = np.zeros((len(self.steps), 2))
        for group in view.groups:
            pred = np.stack(
                [
                    fn(np.asarray(trajectory[j], dtype=float))
                    for fn, j in zip(group.fns, group.inputs)
                ]
            )
            if group.kind == _EVOLUTION:
                u = np.stack(
                    [np.asarray(trajectory[i], dtype=float) for i in group.steps]
                )
                resid = u - pred - group.offset
            else:
                resid = group.offset - pred
            white = stack_whiten_prepared(
                resid[:, :, None], group.factors, group.scales
            )[:, :, 0]
            terms[group.steps, group.kind] = np.einsum("br,br->b", white, white)
        # A plain loop, not sum(): Python >= 3.12 compensates float sums.
        for term in terms.ravel().tolist():
            total += term
        return total


def as_nonlinear(problem: StateSpaceProblem) -> NonlinearProblem:
    """Lift a linear problem into the nonlinear form.

    The evolution/observation maps become linear
    :class:`NonlinearFunction` objects with constant Jacobians, so the
    iterated smoothers (Gauss–Newton, Levenberg–Marquardt) accept
    linear problems through the uniform ``smooth(problem)`` surface —
    on which they converge in one exact step.  Square invertible
    ``H_i`` are reduced away as in
    :func:`~repro.kalman.standard_form.to_standard_form`; rectangular
    ``H_i`` are a QR-smoother-only feature and raise.
    """
    if isinstance(problem, NonlinearProblem):
        return problem
    out: list[NonlinearStep] = []
    for i, step in enumerate(problem.steps):
        evo_fn = evo_cov = cvec = None
        if i > 0:
            evo = step.evolution
            h = evo.H
            if h.shape[0] != h.shape[1]:
                raise ValueError(
                    f"step {i} has a rectangular H ({h.shape[0]}x"
                    f"{h.shape[1]}); the nonlinear form requires H_i = I "
                    "or square invertible H_i — use the QR-based smoothers"
                )
            f, cvec, k_cov = evo.F, evo.c, evo.K.covariance()
            if not evo.is_identity_h():
                f = np.linalg.solve(h, f)
                cvec = np.linalg.solve(h, cvec)
                hinv_k = np.linalg.solve(h, k_cov)
                k_cov = np.linalg.solve(h, hinv_k.T).T
            evo_fn = NonlinearFunction(
                fn=lambda x, _f=f: _f @ x, jacobian=lambda x, _f=f: _f
            )
            evo_cov = k_cov
        obs_fn = obs = obs_cov = None
        if step.observation is not None:
            g = step.observation.G
            obs_fn = NonlinearFunction(
                fn=lambda x, _g=g: _g @ x, jacobian=lambda x, _g=g: _g
            )
            obs = step.observation.o
            obs_cov = step.observation.L.covariance()
        out.append(
            NonlinearStep(
                state_dim=step.state_dim,
                evolution_fn=evo_fn,
                evolution_cov=evo_cov,
                c=cvec,
                observation_fn=obs_fn,
                observation=obs,
                observation_cov=obs_cov,
            )
        )
    return NonlinearProblem(out, prior=problem.prior)


def pendulum_problem(
    k: int,
    dt: float = 0.05,
    q: float = 0.01,
    r: float = 0.1,
    seed: int = 0,
) -> tuple[NonlinearProblem, np.ndarray]:
    """Noisy pendulum with ``sin`` observations (Särkkä's classic demo).

    State ``[angle, angular velocity]``; dynamics
    ``theta' = omega, omega' = -g sin(theta)`` discretized by Euler;
    observation ``sin(theta)``.  Returns ``(problem, true_states)``.
    """
    g_const = 9.81
    rng = np.random.default_rng(seed)

    def evo_fn(x):
        return np.array([x[0] + dt * x[1], x[1] - dt * g_const * np.sin(x[0])])

    def evo_jac(x):
        return np.array(
            [[1.0, dt], [-dt * g_const * np.cos(x[0]), 1.0]]
        )

    def obs_fn(x):
        return np.array([np.sin(x[0])])

    def obs_jac(x):
        return np.array([[np.cos(x[0]), 0.0]])

    qcov = q * np.array([[dt**3 / 3, dt**2 / 2], [dt**2 / 2, dt]])
    qchol = np.linalg.cholesky(qcov + 1e-15 * np.eye(2))
    truth = np.zeros((k + 1, 2))
    truth[0] = [1.2, 0.0]
    steps: list[NonlinearStep] = []
    for i in range(k + 1):
        if i > 0:
            truth[i] = evo_fn(truth[i - 1]) + qchol @ rng.standard_normal(2)
        o = obs_fn(truth[i]) + np.sqrt(r) * rng.standard_normal(1)
        steps.append(
            NonlinearStep(
                state_dim=2,
                evolution_fn=None
                if i == 0
                else NonlinearFunction(evo_fn, evo_jac),
                evolution_cov=None if i == 0 else qcov + 1e-12 * np.eye(2),
                observation_fn=NonlinearFunction(obs_fn, obs_jac),
                observation=o,
                observation_cov=r * np.eye(1),
            )
        )
    prior = GaussianPrior(mean=np.array([1.2, 0.0]), cov=0.5 * np.eye(2))
    return NonlinearProblem(steps, prior=prior), truth


def coordinated_turn_problem(
    k: int,
    dt: float = 0.1,
    q_turn: float = 0.05,
    r: float = 0.3,
    seed: int = 0,
) -> tuple[NonlinearProblem, np.ndarray]:
    """Coordinated-turn target with range-bearing observations.

    State ``[px, py, v, heading, turn-rate]``; a standard nonlinear
    tracking benchmark.  Observations are range and bearing from the
    origin.  Returns ``(problem, true_states)``.
    """
    rng = np.random.default_rng(seed)

    def evo_fn(x):
        px, py, v, th, w = x
        return np.array(
            [
                px + dt * v * np.cos(th),
                py + dt * v * np.sin(th),
                v,
                th + dt * w,
                w,
            ]
        )

    def evo_jac(x):
        _px, _py, v, th, _w = x
        jac = np.eye(5)
        jac[0, 2] = dt * np.cos(th)
        jac[0, 3] = -dt * v * np.sin(th)
        jac[1, 2] = dt * np.sin(th)
        jac[1, 3] = dt * v * np.cos(th)
        jac[3, 4] = dt
        return jac

    def obs_fn(x):
        px, py = x[0], x[1]
        return np.array([np.hypot(px, py), np.arctan2(py, px)])

    def obs_jac(x):
        px, py = x[0], x[1]
        rho2 = px * px + py * py
        rho = np.sqrt(rho2)
        jac = np.zeros((2, 5))
        jac[0, 0] = px / rho
        jac[0, 1] = py / rho
        jac[1, 0] = -py / rho2
        jac[1, 1] = px / rho2
        return jac

    qcov = np.diag([1e-6, 1e-6, 1e-3, 1e-6, q_turn * dt])
    qchol = np.sqrt(qcov)
    truth = np.zeros((k + 1, 5))
    truth[0] = [5.0, 0.0, 1.0, np.pi / 2, 0.2]
    steps: list[NonlinearStep] = []
    for i in range(k + 1):
        if i > 0:
            truth[i] = evo_fn(truth[i - 1]) + qchol @ rng.standard_normal(5)
        o = obs_fn(truth[i]) + np.sqrt(r) * rng.standard_normal(2) * np.array(
            [1.0, 0.05]
        )
        lcov = r * np.diag([1.0, 0.05**2])
        steps.append(
            NonlinearStep(
                state_dim=5,
                evolution_fn=None
                if i == 0
                else NonlinearFunction(evo_fn, evo_jac),
                evolution_cov=None if i == 0 else qcov,
                observation_fn=NonlinearFunction(obs_fn, obs_jac),
                observation=o,
                observation_cov=lcov,
            )
        )
    prior = GaussianPrior(mean=truth[0], cov=0.1 * np.eye(5))
    return NonlinearProblem(steps, prior=prior), truth


def bearings_only_tunnel_problem(
    k: int,
    dt: float = 0.1,
    q: float = 0.05,
    r: float = 0.015,
    stations: tuple[tuple[float, float], ...] = ((-1.0, 1.0), (1.0, 1.0)),
    seed: int = 0,
) -> tuple[NonlinearProblem, np.ndarray]:
    """Bearings-only tracking through a "tunnel" of fixed stations.

    Constant-velocity state ``[px, py, vx, vy]``; the only observations
    are bearings ``atan2(py - sy, px - sx)`` from each station — no
    range.  Bearings change fastest (and the measurement is most
    nonlinear) while the target passes under a station, which is where
    single-pass Jacobian linearization visibly lags IPLS.  The default
    geometry keeps the target below the stations so bearings stay in
    ``(-pi, 0)`` and never wrap.  Returns ``(problem, true_states)``.
    """
    rng = np.random.default_rng(seed)
    sxy = np.asarray(stations, dtype=float)
    f_cv = np.eye(4)
    f_cv[0, 2] = f_cv[1, 3] = dt

    def evo_fn(x):
        return f_cv @ x

    def evo_jac(x):
        return f_cv

    def obs_fn(x):
        return np.arctan2(x[1] - sxy[:, 1], x[0] - sxy[:, 0])

    def obs_jac(x):
        dx = x[0] - sxy[:, 0]
        dy = x[1] - sxy[:, 1]
        rho2 = dx * dx + dy * dy
        jac = np.zeros((sxy.shape[0], 4))
        jac[:, 0] = -dy / rho2
        jac[:, 1] = dx / rho2
        return jac

    qcov = q * np.block(
        [
            [dt**3 / 3 * np.eye(2), dt**2 / 2 * np.eye(2)],
            [dt**2 / 2 * np.eye(2), dt * np.eye(2)],
        ]
    )
    qchol = np.linalg.cholesky(qcov + 1e-12 * np.eye(4))
    truth = np.zeros((k + 1, 4))
    truth[0] = [-2.0, 0.0, 0.7, 0.0]
    steps: list[NonlinearStep] = []
    for i in range(k + 1):
        if i > 0:
            truth[i] = evo_fn(truth[i - 1]) + qchol @ rng.standard_normal(4)
        o = obs_fn(truth[i]) + np.sqrt(r) * rng.standard_normal(sxy.shape[0])
        steps.append(
            NonlinearStep(
                state_dim=4,
                evolution_fn=None
                if i == 0
                else NonlinearFunction(evo_fn, evo_jac),
                evolution_cov=None if i == 0 else qcov + 1e-12 * np.eye(4),
                observation_fn=NonlinearFunction(obs_fn, obs_jac),
                observation=o,
                observation_cov=r * np.eye(sxy.shape[0]),
            )
        )
    prior = GaussianPrior(
        mean=truth[0], cov=np.diag([0.5, 0.5, 0.2, 0.2])
    )
    return NonlinearProblem(steps, prior=prior), truth


def cubic_sensor_problem(
    k: int,
    a: float = 0.98,
    q: float = 0.02,
    r: float = 0.01,
    beta: float = 1.0,
    seed: int = 0,
) -> tuple[NonlinearProblem, np.ndarray]:
    """The classic cubic sensor: scalar AR(1) state, ``x^3`` readout.

    ``x_i = a x_{i-1} + eps`` observed through ``o = beta x^3 + delta``.
    Near ``x = 0`` the Jacobian ``3 beta x^2`` vanishes, so point
    linearization throws the measurement away exactly where the state
    is hardest to pin down; sigma-point SLR keeps a useful slope from
    the spread of the density.  Returns ``(problem, true_states)``.
    """
    rng = np.random.default_rng(seed)

    def evo_fn(x):
        return a * x

    def evo_jac(x):
        return np.array([[a]])

    def obs_fn(x):
        return np.array([beta * x[0] ** 3])

    def obs_jac(x):
        return np.array([[3.0 * beta * x[0] ** 2]])

    truth = np.zeros((k + 1, 1))
    truth[0] = 0.8
    steps: list[NonlinearStep] = []
    for i in range(k + 1):
        if i > 0:
            truth[i] = evo_fn(truth[i - 1]) + np.sqrt(q) * rng.standard_normal(1)
        o = obs_fn(truth[i]) + np.sqrt(r) * rng.standard_normal(1)
        steps.append(
            NonlinearStep(
                state_dim=1,
                evolution_fn=None
                if i == 0
                else NonlinearFunction(evo_fn, evo_jac),
                evolution_cov=None if i == 0 else q * np.eye(1),
                observation_fn=NonlinearFunction(obs_fn, obs_jac),
                observation=o,
                observation_cov=r * np.eye(1),
            )
        )
    prior = GaussianPrior(mean=truth[0], cov=0.5 * np.eye(1))
    return NonlinearProblem(steps, prior=prior), truth
