"""The four benchmark workloads: inputs, set-up, measured loop, checks.

Every workload generates raw numpy arrays from the command-line seed
(input generation, never timed) and converts them into the library's
problem objects inside each measured call (``model.build``: the API
edge, where per-step ``Whitener``s are built), because a caller of the
library pays that conversion on every request.

``setup`` is what a fresh process pays before its first answer: import,
constructing the smoother or server, and the first cold call on the
first input.  ``run`` then measures warm calls for the requested number
of seconds and checks every answer; failures are counted, never dropped.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import nullcontext

import numpy as np

import repro
from repro.model.nonlinear import (
    NonlinearProblem,
    NonlinearStep,
    pendulum_problem,
)
from repro.model.problem import StateSpaceProblem
from repro.model.steps import Evolution, GaussianPrior, Observation, Step
from repro.stream import StreamStep

from reference import REF_S, reference_seconds

#: absolute agreement with the Paige-Saunders oracle (the registry
#: agreement suite's tolerance)
ORACLE_TOL = 1e-8
#: worker threads of every pooled configuration
WORKERS = 2

_NULL = nullcontext()


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else _NULL


def _traced(tracer, run: str):
    return tracer.call(run) if tracer is not None else _NULL


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# ----------------------------------------------------------------------
# raw inputs and the model layer
# ----------------------------------------------------------------------
def _spd(rng, shape: tuple, n: int) -> np.ndarray:
    """Random SPD blocks with eigenvalues >= 1 (well conditioned)."""
    a = rng.standard_normal(shape + (n, n)) / np.sqrt(n)
    return a @ np.swapaxes(a, -1, -2) + np.eye(n)


def linear_arrays(rng, count: int, k: int, n: int) -> dict:
    """Raw arrays of ``count`` random linear problems of ``k + 1``
    states: ``F, c, K`` per evolution, ``G, o, L`` per observation,
    and a Gaussian prior ``m0, P0``."""
    return {
        "F": rng.standard_normal((count, k, n, n)) / np.sqrt(n)
        + 0.5 * np.eye(n),
        "c": rng.standard_normal((count, k, n)),
        "K": _spd(rng, (count, k), n),
        "G": rng.standard_normal((count, k + 1, n, n)),
        "o": rng.standard_normal((count, k + 1, n)),
        "L": _spd(rng, (count, k + 1), n),
        "m0": rng.standard_normal((count, n)),
        "P0": _spd(rng, (count,), n),
    }


def build_linear(arr: dict, j: int) -> StateSpaceProblem:
    """Problem ``j`` of ``arr`` as library objects."""
    F, c, K = arr["F"][j], arr["c"][j], arr["K"][j]
    G, o, L = arr["G"][j], arr["o"][j], arr["L"][j]
    n = o.shape[-1]
    steps = [Step(n, observation=Observation(G=G[0], o=o[0], L=L[0]))]
    for i in range(1, o.shape[0]):
        steps.append(
            Step(
                n,
                evolution=Evolution(F=F[i - 1], c=c[i - 1], K=K[i - 1]),
                observation=Observation(G=G[i], o=o[i], L=L[i]),
            )
        )
    prior = GaussianPrior(mean=arr["m0"][j], cov=arr["P0"][j])
    return StateSpaceProblem(steps, prior=prior)


def _orthonormal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def max_error(result, oracle) -> float:
    """Largest absolute mean or covariance difference to the oracle."""
    err = float(
        np.max(np.abs(np.asarray(result.means) - np.asarray(oracle.means)))
    )
    if oracle.covariances is not None:
        err = max(
            err,
            float(
                np.max(
                    np.abs(
                        np.asarray(result.covariances)
                        - np.asarray(oracle.covariances)
                    )
                )
            ),
        )
    return err


def finite(result) -> bool:
    if not np.all(np.isfinite(np.asarray(result.means))):
        return False
    return result.covariances is None or bool(
        np.all(np.isfinite(np.asarray(result.covariances)))
    )


class Workload:
    """Interface every workload implements (see module docstring)."""

    name = ""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def construct(self) -> None:
        raise NotImplementedError

    def cold_call(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """Untimed calls that let caches fill before measuring."""

    def run(self, seconds: float, tracer=None) -> dict:
        """Measure warm calls for ``seconds`` (at least one call);
        return the call times, end-to-end metrics and the layer
        figures only the workload itself can observe."""
        raise NotImplementedError

    def observe(self) -> dict:
        """Layer figures the traced run measures untraced, after
        :meth:`run`, that the end-to-end run does not need."""
        return {}

    def close(self) -> None:
        pass


class ClosedLoop(Workload):
    """A workload whose caller waits for each call before the next."""

    #: consecutive calls that make one request: its time is their sum
    CYCLE = 1
    #: independent problems and states one request returns
    SEQS = STATES = 1
    #: calls measured however long they take
    MIN_CALLS = 1
    #: reference rounds timed before the first call and after each call
    REF_ROUNDS = 1
    #: the clock a call is timed with: process CPU time, which leaves
    #: out the time a shared virtual machine's hypervisor gives to other
    #: guests ("steal": 14% of a minute measured during a run on a
    #: 2-vCPU shared machine, where it tripled the spread of wall
    #: times).  For a compute-bound single-threaded call it equals the
    #: wall time on an unshared host.
    CLOCK = staticmethod(time.process_time)

    def __init__(self):
        super().__init__()
        self.calls = 0

    def request(self, n: int, tracer):
        """Call ``n``: build the problem objects and call the library."""
        raise NotImplementedError

    def check(self, out, n: int) -> None:
        """Check call ``n``'s output; count what is wrong as failed."""
        raise NotImplementedError

    def call(self, tracer=None) -> float | None:
        """One timed call; its seconds, or ``None`` if it raised."""
        n = self.calls
        self.calls += 1
        self.attempted += 1
        t0 = self.CLOCK()
        try:
            with _traced(tracer, f"{self.name}-{n}"):
                out = self.request(n, tracer)
        except Exception as exc:  # a failed call is counted, not fatal
            self.fail(f"call {n}: {exc!r}")
            return None
        elapsed = self.CLOCK() - t0
        self.check(out, n)
        return elapsed

    def warm(self):
        self.call()

    def reference(self) -> float:
        return reference_seconds(self.REF_ROUNDS, self.CLOCK)

    def run(self, seconds, tracer=None):
        """Alternate calls with the reference computation; each call's
        time is scaled by the reference time around it (see
        ``reference.py``).  Requests whose calls all succeeded count."""
        calls, ratios, refs = [], [], [self.reference()]
        start = time.perf_counter()
        while (
            len(calls) < self.MIN_CALLS
            or len(calls) % self.CYCLE
            or time.perf_counter() - start < seconds
        ):
            elapsed = self.call(tracer)
            refs.append(self.reference())
            calls.append(elapsed)
            if elapsed is not None:
                ratios.append(2 * elapsed / (refs[-2] + refs[-1]))
            else:
                ratios.append(None)
        times, scaled = [], []
        for i in range(0, len(calls), self.CYCLE):
            if None not in calls[i : i + self.CYCLE]:
                times.append(sum(calls[i : i + self.CYCLE]))
                scaled.append(sum(ratios[i : i + self.CYCLE]))
        p50 = REF_S * statistics.median(scaled)
        return {
            "times": times,
            "unscaled": {
                "call_p50_ms": statistics.median(times) * 1e3,
                "ref_ms": statistics.median(refs) * 1e3,
            },
            "metrics": {
                "call_p50_ms": p50 * 1e3,
                "seq_per_s": self.SEQS / p50,
                "states_per_s": self.STATES / p50,
            },
            "layer": {},
        }


# ----------------------------------------------------------------------
# batch-fleet
# ----------------------------------------------------------------------
class BatchFleet(ClosedLoop):
    """``batch-odd-even`` ``smooth_many`` with covariances, B=64, k=63,
    n=4, cycling through a pool of same-shape batches of fresh data."""

    name = "batch-fleet"
    B, K, N, POOL = 64, 63, 4, 4
    SEQS, STATES = B, B * (K + 1)

    def __init__(self, seed, seconds):
        super().__init__()
        rng = np.random.default_rng([seed, 1])
        self.pool = [
            linear_arrays(rng, self.B, self.K, self.N)
            for _ in range(self.POOL)
        ]
        self.oracle = repro.make_smoother("paige-saunders")

    def construct(self):
        self.smoother = repro.make_smoother("batch-odd-even")

    def cold_call(self):
        arr = self.pool[0]
        self.smoother.smooth_many(
            [build_linear(arr, j) for j in range(self.B)]
        )

    def request(self, n, tracer):
        arr = self.pool[n % self.POOL]
        with _span(tracer, "model.build"):
            problems = [build_linear(arr, j) for j in range(self.B)]
        return problems, self.smoother.smooth_many(problems)

    def check(self, out, n):
        # Every output finite, and one member (rotating) against the
        # oracle: the oracle is slower than the batched call itself.
        problems, results = out
        j = (n * 17) % self.B
        if not all(finite(r) for r in results):
            self.fail(f"call {n}: non-finite output")
            return
        err = max_error(results[j], self.oracle.smooth(problems[j]))
        if not err <= ORACLE_TOL:
            self.fail(f"call {n}: member {j} off by {err:.2e}")


# ----------------------------------------------------------------------
# long-trajectory
# ----------------------------------------------------------------------
class LongTrajectory(ClosedLoop):
    """Per-sequence ``odd-even`` on one paper §5.2 problem (n=6, fixed
    random orthonormal F and G, k=2000), measured on the serial backend
    and, in the traced run, on a 2-worker ``ThreadPoolBackend``.

    The end-to-end figures time the serial backend: on a shared 2-vCPU
    machine the CPU time of the 2-worker call moved from run to run by
    15% after scaling to reference speed (17% unscaled), because the
    single-threaded reference does not track what slows two threads
    handing work and the interpreter lock to each other.  The traced run
    times both backends on the wall clock for ``parallel.speedup_2w``
    and traces the 2-worker calls for the parallel layer's figures."""

    name = "long-trajectory"
    K, N = 2000, 6
    SEQS, STATES = 1, K + 1
    REF_ROUNDS = 2
    #: calls per backend the traced run times on the wall clock for
    #: ``parallel.speedup_2w``
    WALL_CALLS = 3

    def __init__(self, seed, seconds):
        super().__init__()
        rng = np.random.default_rng([seed, 2])
        self.F = _orthonormal(rng, self.N)
        self.G = _orthonormal(rng, self.N)
        self.o = rng.standard_normal((self.K + 1, self.N))
        self.mode = "serial"

    def build(self) -> StateSpaceProblem:
        n, F, G, o = self.N, self.F, self.G, self.o
        steps = [Step(n, observation=Observation(G=G, o=o[0]))]
        for i in range(1, self.K + 1):
            steps.append(
                Step(
                    n,
                    evolution=Evolution(F=F),
                    observation=Observation(G=G, o=o[i]),
                )
            )
        prior = GaussianPrior(mean=np.zeros(n), cov=np.eye(n))
        return StateSpaceProblem(steps, prior=prior)

    def construct(self):
        self.smoother = repro.make_smoother("odd-even")
        self.pool = repro.ThreadPoolBackend(WORKERS)
        self.configs = {
            "serial": repro.EstimatorConfig(backend=repro.SerialBackend()),
            "2w": repro.EstimatorConfig(backend=self.pool),
        }

    def cold_call(self):
        self.smoother.smooth(self.build(), config=self.configs["serial"])

    def close(self):
        self.pool.close()

    def request(self, n, tracer):
        with _span(tracer, "model.build"):
            problem = self.build()
        with _span(tracer, "core.smooth"):
            return self.smoother.smooth(
                problem, config=self.configs[self.mode]
            )

    def check(self, result, n):
        if not finite(result):
            self.fail(f"call {n} ({self.mode}): non-finite output")
            return
        err = max_error(result, self.oracle)
        if not err <= ORACLE_TOL:
            self.fail(f"call {n} ({self.mode}): off by {err:.2e}")

    def warm(self):
        oracle = repro.make_smoother("paige-saunders")
        self.oracle = oracle.smooth(self.build())
        self.call()

    def observe(self):
        from tracing import Tracer, summarize

        # The speed-up is a ratio of wall times, taken untraced.
        self.CLOCK = time.perf_counter
        walls = {}
        tracer = Tracer()
        try:
            for mode in ("2w", "serial"):
                self.mode = mode
                times = [self.call() for _ in range(self.WALL_CALLS)]
                walls[mode] = statistics.median(t for t in times if t)
            self.mode = "2w"
            tracer.wrap_pool_map(repro.ThreadPoolBackend)
            for _ in range(self.WALL_CALLS):
                self.call(tracer)
        finally:
            tracer.restore()
            self.mode = "serial"
            del self.CLOCK
        pooled = summarize(tracer.spans)["parallel.map"]
        return {
            "parallel.speedup_2w": walls["serial"] / walls["2w"],
            "parallel.map_s": pooled["total"] / self.WALL_CALLS,
            "parallel.map_calls": tracer.counts["parallel.map_calls"]
            / self.WALL_CALLS,
            "parallel.tasks": tracer.counts["parallel.tasks"]
            / self.WALL_CALLS,
        }


# ----------------------------------------------------------------------
# ipls-fleet
# ----------------------------------------------------------------------
class IplsFleet(ClosedLoop):
    """``ipls`` ``smooth_many`` on 16 pendulum problems with k=40, a
    quarter of the fleet per call, in an order drawn from the seed.

    A request is the whole fleet: four consecutive calls, one per
    quarter.  A call on the whole fleet took about 11 s, too long for
    the reference computation timed on each side of it to track how
    fast the host ran during it."""

    name = "ipls-fleet"
    FLEET, K, QUARTER = 16, 40, 4
    CYCLE = FLEET // QUARTER
    SEQS, STATES = FLEET, FLEET * (K + 1)
    #: outer iterations of pendulum problems 0-15 (they sum to 232)
    ITERATIONS = (12, 9, 20, 20, 17, 21, 18, 9, 12, 17, 12, 22, 12, 12, 10, 9)
    #: three whole fleets, the most that fit the run budget
    MIN_CALLS = 3 * CYCLE
    REF_ROUNDS = 2

    def __init__(self, seed, seconds):
        super().__init__()
        # The fleet is the ROADMAP's 16 pendulum problems (generator
        # seeds 0-15), in fixed quarters (seeds 0-3, 4-7, ...); the
        # command-line seed only orders the quarters and each quarter.
        # Each problem's iteration count sets the work, and fleets
        # drawn per seed differ by about 15% in call time, which would
        # swamp the run-to-run comparison.
        rng = np.random.default_rng([seed, 3])
        self.quarters = [
            [int(q * self.QUARTER + i) for i in rng.permutation(self.QUARTER)]
            for q in rng.permutation(self.CYCLE)
        ]
        self.raw = {}
        for s in range(self.FLEET):
            problem, _ = pendulum_problem(self.K, seed=s)
            self.raw[s] = {
                "evo": problem.steps[1].evolution_fn,
                "q": problem.steps[1].evolution_cov,
                "obs": problem.steps[0].observation_fn,
                "r": problem.steps[0].observation_cov,
                "o": np.array([st.observation for st in problem.steps]),
                "m0": problem.prior.mean,
                "P0": problem.prior.cov_matrix(),
            }

    def build(self, raw: dict) -> NonlinearProblem:
        steps = [
            NonlinearStep(
                state_dim=2,
                evolution_fn=None if i == 0 else raw["evo"],
                evolution_cov=None if i == 0 else raw["q"],
                observation_fn=raw["obs"],
                observation=raw["o"][i],
                observation_cov=raw["r"],
            )
            for i in range(self.K + 1)
        ]
        return NonlinearProblem(
            steps, prior=GaussianPrior(mean=raw["m0"], cov=raw["P0"])
        )

    def construct(self):
        self.smoother = repro.make_smoother("ipls")

    def cold_call(self):
        # A cold call on a quarter takes as long as a warm one (about
        # 3 s); set-up smooths one problem, to keep three set-ups per
        # run within the run budget.
        first = self.quarters[0][0]
        self.smoother.smooth_many([self.build(self.raw[first])])

    def warm(self):
        # No warm-up call: its 3 s buy more as measured calls.  The
        # first measured call also builds the stacked-solve plans,
        # which adds about 0.5% to the first fleet.
        pass

    def request(self, n, tracer):
        quarter = self.quarters[n % self.CYCLE]
        with _span(tracer, "model.build"):
            problems = [self.build(self.raw[s]) for s in quarter]
        with _span(tracer, "nonlinear.smooth_many"):
            return self.smoother.smooth_many(problems)

    def check(self, results, n):
        quarter = self.quarters[n % self.CYCLE]
        expected = [self.ITERATIONS[s] for s in quarter]
        iterations = [int(r.diagnostics["iterations"]) for r in results]
        if not all(finite(r) for r in results):
            self.fail(f"call {n}: non-finite output")
        elif iterations != expected:
            self.fail(f"call {n}: iterations {iterations} != {expected}")

    def observe(self):
        return {"nonlinear.outer_iterations": sum(self.ITERATIONS)}


# ----------------------------------------------------------------------
# serve-open
# ----------------------------------------------------------------------
class ServeOpen(Workload):
    """Open-loop serving: 256 streams submit to a ``ShardedStreamServer``
    on a fixed schedule at a total offered rate (round robin over the
    streams), under the production serving configuration."""

    name = "serve-open"
    STREAMS, N, LAG = 256, 3, 4
    #: total offered submissions per second over all streams: about a
    #: quarter of what one flush per arrival (the 2 ms deadline passes
    #: before the next arrival) sustains on a 2-core host
    RATE = 25.0
    #: seconds of schedule before the measured window opens
    WARMUP = 1.0
    SLO = 0.050
    #: measured seconds of the untimed warm-up drive
    WARM_S = 2.0
    #: share of a reference round timed right after each flushing call
    #: (about 2 ms, against a flush of about 5 ms)
    REF_SIZE = 0.01

    def __init__(self, seed, seconds):
        super().__init__()
        # Every stream first receives LAG steps untimed, so that each
        # scheduled arrival makes one state due: a stationary load from
        # the first scheduled second on.
        rng = np.random.default_rng([seed, 4])
        self.arr = linear_arrays(
            rng, self.STREAMS, self._steps(max(seconds, self.WARM_S)) - 1,
            self.N,
        )
        self.drives = 0

    def config(self):
        return repro.ServingConfig(
            shards=8,
            max_batch=256,
            max_delay=0.002,
            max_buffered=64,
            latency_slo=self.SLO,
        )

    def construct(self):
        self.registry = repro.MetricsRegistry()
        self._scope = repro.obs.use_registry(self.registry)
        self._scope.__enter__()
        self.pool = repro.ThreadPoolBackend(WORKERS)
        self.server = repro.ShardedStreamServer(
            self.LAG, self.config(), backend=self.pool, registry=self.registry
        )

    def close(self):
        self.pool.close()
        self._scope.__exit__(None, None, None)

    def _step(self, s: int, t: int) -> StreamStep:
        a = self.arr
        evolution = None
        if t > 0:
            evolution = Evolution(
                F=a["F"][s, t - 1], c=a["c"][s, t - 1], K=a["K"][s, t - 1]
            )
        return StreamStep(
            seq=t,
            evolution=evolution,
            observation=Observation(
                G=a["G"][s, t], o=a["o"][s, t], L=a["L"][s, t]
            ),
        )

    def _open(self, server, prefix: str) -> list[str]:
        ids = [f"{prefix}-{s}" for s in range(self.STREAMS)]
        for s, sid in enumerate(ids):
            server.open_stream(
                sid, self.N, prior=(self.arr["m0"][s], self.arr["P0"][s])
            )
        return ids

    def _arrivals(self, seconds: float) -> int:
        """Scheduled arrivals of a drive measuring ``seconds``."""
        return math.ceil(self.RATE * (self.WARMUP + seconds))

    def _steps(self, seconds: float) -> int:
        """Most steps one stream receives in such a drive."""
        return self.LAG + math.ceil(self._arrivals(seconds) / self.STREAMS)

    def cold_call(self):
        ids = self._open(self.server, "cold")
        for t in range(self.LAG + 1):
            self.server.submit(ids[0], self._step(0, t))
        self.server.flush_all()

    def warm(self):
        # The first drive of a process runs slower and less steadily.
        self.run(self.WARM_S)

    def run(self, seconds, tracer=None):
        """One drive on a fresh server: fill every stream to the lag,
        run the schedule (warm-up, then ``seconds`` measured), drain,
        then close every stream and check each state arrived once."""
        self.drives += 1
        server = repro.ShardedStreamServer(
            self.LAG, self.config(), backend=self.pool, registry=self.registry
        )
        S, T = self.STREAMS, self._steps(seconds)
        lag, rate = self.LAG, self.RATE
        ids = self._open(server, f"d{self.drives}")
        for t in range(lag):
            for s in range(S):
                self.attempted += 1
                server.submit(ids[s], self._step(s, t))
        flushes = self.registry.counter("repro_stream_flushes_total")
        solved = self.registry.counter("repro_batch_sequences_total")
        clock = time.monotonic  # the server's deadline clock
        sched = np.full((S, T), -np.inf)
        sent = np.zeros((S, T), dtype=bool)
        sent[:, :lag] = True
        emitted = np.zeros((S, T), dtype=np.int64)
        latencies, waits, late, flush_calls, refs = [], [], [], [], []
        delivered = nonfinite = 0
        idle = 0.0
        total = self._arrivals(seconds)
        t0 = clock()
        t_measure = t0 + self.WARMUP
        t_last = t_measure
        flush_start = t0
        solved_at_measure = None

        def call(fn, *args):
            """One call into the server; a flushing call's CPU time
            is recorded (see ``ClosedLoop.CLOCK``), and then a small
            reference computation's (see ``reference.py``)."""
            nonlocal flush_start
            before = flushes.value
            start, cpu = clock(), time.process_time()
            out = fn(*args)
            cpu, end = time.process_time() - cpu, clock()
            if flushes.value != before:
                flush_calls.append(cpu)
                with _span(tracer, "bench.reference"):
                    refs.append(reference_seconds(size=self.REF_SIZE))
                flush_start = start
            return out, end

        def poll():
            nonlocal delivered, nonfinite, t_last
            try:
                out, end = call(server.poll)
            except Exception as exc:  # its states count as lost below
                self.fail(f"poll: {exc!r}")
                return
            for sid, ems in out.items():
                s = int(sid.rsplit("-", 1)[1])
                delivered += len(ems)
                for e in ems:
                    emitted[s, e.index] += 1
                    nonfinite += not np.all(np.isfinite(e.mean))
                    # The clock starts when the step that made the
                    # state due was scheduled: index + lag, or the
                    # frontier for states emitted at the stream's end.
                    t_sched = sched[s, min(e.index + lag, e.frontier)]
                    if t_sched >= t_measure:
                        latencies.append(end - t_sched)
                        waits.append(flush_start - t_sched)
                        t_last = end

        with _traced(tracer, f"{self.name}-{self.drives}"):
            q = 0
            while q < total:
                now = clock()
                if solved_at_measure is None and now >= t_measure:
                    solved_at_measure = solved.value
                # A passed flush deadline goes first, as a flusher
                # thread would take it; then the next scheduled arrival.
                deadline = server.next_deadline()
                if deadline is not None and deadline <= now:
                    poll()
                    continue
                due = t0 + q / rate
                if now < due:
                    wake = due if deadline is None else min(due, deadline)
                    with _span(tracer, "stream.idle"):
                        time.sleep(wake - now)
                    idle += clock() - now
                    continue
                s, t = q % S, lag + q // S
                sched[s, t] = due
                if due >= t_measure:
                    late.append(now - due)
                with _span(tracer, "model.build"):
                    step = self._step(s, t)
                before = flushes.value
                self.attempted += 1
                try:
                    call(server.submit, ids[s], step)
                    sent[s, t] = True
                except Exception as exc:  # a rejected arrival is lost
                    self.fail(f"stream {s} step {t}: {exc!r}")
                if flushes.value != before:
                    poll()
                q += 1
            while (deadline := server.next_deadline()) is not None:
                now = clock()
                if deadline > now:
                    with _span(tracer, "stream.idle"):
                        time.sleep(deadline - now)
                    idle += clock() - now
                poll()
            wall = clock() - t0
        if solved_at_measure is None:
            solved_at_measure = solved.value
        # From the first measured arrival to the last measured delivery.
        window = t_last - t_measure
        stats = server.stats()
        n_flushes = sum(shard["flushes"] for shard in stats["per_shard"])
        for s, sid in enumerate(ids):
            for e in server.close_stream(sid):
                emitted[s, e.index] += 1
        for sid, ems in server.drain().items():
            s = int(sid.rsplit("-", 1)[1])
            for e in ems:
                emitted[s, e.index] += 1
        lost = int(np.sum(sent & (emitted == 0)))
        dup = int(np.sum(np.maximum(emitted - 1, 0)))
        for what, count in (
            ("lost", lost), ("duplicate", dup), ("non-finite", nonfinite)
        ):
            if count:
                self.failed += count
                self.failures.append(f"{count} {what} emissions")
        measured = sched >= t_measure
        # Each measured arrival makes the state ``lag`` steps back due.
        expected = int(np.sum(measured))
        ratios = [c / r for c, r in zip(flush_calls, refs)]
        return {
            "times": flush_calls,
            "unscaled": {
                "call_p50_ms": statistics.median(flush_calls) * 1e3,
                "ref_ms": statistics.median(refs) * 1e3,
            },
            "metrics": {
                "call_p50_ms": REF_S * statistics.median(ratios) * 1e3,
                "seq_per_s": (solved.value - solved_at_measure) / window,
                "states_per_s": int(np.sum((emitted == 1) & measured))
                / window,
            },
            "layer": {
                "stream.emit_p50_ms": percentile(latencies, 50) * 1e3,
                "stream.emit_p99_ms": percentile(latencies, 99) * 1e3,
                "stream.slo_goodput": sum(x <= self.SLO for x in latencies)
                / expected,
                "stream.queue_wait_p99_ms": percentile(waits, 99) * 1e3,
                "stream.gen_late_p99_ms": percentile(late, 99) * 1e3,
                "stream.flushes": n_flushes,
                "stream.steps_per_flush": delivered / n_flushes,
                "stream.effective_max_batch": float(server.max_batch or 0),
            },
            "wall": wall,
            "idle": idle,
        }


BY_NAME = {
    cls.name: cls for cls in (BatchFleet, LongTrajectory, IplsFleet, ServeOpen)
}
