"""A fixed reference computation that measures how fast the host runs now.

On a shared virtual machine the same code runs at a speed that drifts
with the load of other guests: over six minutes of back-to-back
``batch-fleet`` calls on a 2-vCPU Intel Xeon machine, the median CPU
time of 20 s windows moved between 0.61 s and 0.95 s, and a fixed numpy
loop timed beside each call moved with it.  Process CPU time does not
remove this (the slower guest executes fewer instructions per second,
it is not descheduled).

The benchmark therefore times this computation next to the library's
calls, with the same clock, and reports each call's time scaled to a
host on which one round of it takes :data:`REF_S` seconds.  The
computation never changes with the library: it is plain numpy with the
same mix as the library's hot path (a Python loop of small-matrix numpy
calls: a Kalman filter and RTS smoother with n=4, then one stacked
QR), on inputs fixed here, not drawn from the command-line seed.
"""

from __future__ import annotations

import time

import numpy as np

#: nominal seconds of one round; normalised times read as if one
#: round had taken exactly this long
REF_S = 0.2

_rng = np.random.default_rng(0)
_N, _STEPS = 4, 2000
_F = 0.9 * np.linalg.qr(_rng.standard_normal((_N, _N)))[0]
_Q = 0.1 * np.eye(_N)
_H = _rng.standard_normal((2, _N))
_R = np.eye(2)
_Y = _rng.standard_normal((_STEPS, 2))
_STACK = _rng.standard_normal((256, 64, 8, 4))


def reference_round(size: float = 1.0) -> np.ndarray:
    """One round: filter and smooth ``_Y``, then QR-factor ``_STACK``;
    ``size`` < 1 takes that share of both, for calls much shorter than
    a round.  It keeps its states in arrays, not in lists of tuples, so
    that it allocates no objects the garbage collector tracks: a
    collection falling inside some rounds but not others made the time
    of one round vary twice as much."""
    steps = max(2, round(size * _STEPS))
    mf, Pf = np.empty((steps, _N)), np.empty((steps, _N, _N))
    mp, Pp = np.empty((steps, _N)), np.empty((steps, _N, _N))
    m, P = np.zeros(_N), np.eye(_N)
    for i in range(steps):
        mp[i], Pp[i] = _F @ m, _F @ P @ _F.T + _Q
        S = _H @ Pp[i] @ _H.T + _R
        K = np.linalg.solve(S, _H @ Pp[i]).T
        m = mf[i] = mp[i] + K @ (_Y[i] - _H @ mp[i])
        P = Pf[i] = Pp[i] - K @ S @ K.T
    for i in range(steps - 2, -1, -1):
        G = np.linalg.solve(Pp[i + 1], _F @ Pf[i]).T
        m = mf[i] + G @ (m - mp[i + 1])
        P = Pf[i] + G @ (P - Pp[i + 1]) @ G.T
    np.linalg.qr(_STACK[: max(1, round(size * len(_STACK)))])
    return m


def reference_seconds(
    rounds: int = 1, clock=time.process_time, size: float = 1.0
) -> float:
    """Seconds one round takes on ``clock``, averaged over ``rounds``,
    scaled to a full round (divided by ``size``)."""
    t0 = clock()
    for _ in range(rounds):
        reference_round(size)
    return (clock() - t0) / rounds / size
