"""Machine-speed probe for the timed benchmark run.

The benchmark is meant to run on shared virtual machines whose speed drifts
by tens of percent over seconds to minutes, as neighbours on the host come
and go. A probe runs a fixed piece of work that uses no ``diracfem`` code:
symmetric and nonsymmetric dense eigensolves, vectorised numpy arithmetic
and a plain Python loop, the same kinds of work a request does. The worker
runs one probe before every CLI call and one after it, on the same thread,
and divides the call's time by the mean of the two probes. Multiplied by
``REFERENCE_S``, that gives the call's time on a machine running at the
speed the probe was sized on. A change to ``diracfem`` moves the request
time and not the probe, so it shows in full in the rescaled time; a change
of machine speed moves both and cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

#: Probe time, in seconds, that rescaled times refer to: about the median
#: probe between requests on the machine the benchmark was sized on (2-vCPU
#: Intel Xeon virtual machine, scipy-openblas 0.3.30, one BLAS thread), so
#: that rescaled times there read close to wall-clock times.
REFERENCE_S = 0.025
#: most probe repeats after one call
MAX_REPEATS = 10

_rng = np.random.default_rng(1111_6263)
_SYMMETRIC = _rng.standard_normal((200, 200))
_SYMMETRIC = _SYMMETRIC + _SYMMETRIC.T
_PENCIL_A = _rng.standard_normal((120, 120))
_PENCIL_B = _rng.standard_normal((120, 120)) + 12.0 * np.eye(120)
_VECTOR = _rng.standard_normal(200_000)


def _work() -> float:
    total = 0.0
    for _ in range(2):
        total += float(scipy.linalg.eigh(_SYMMETRIC, eigvals_only=True)[0])
    total += float(np.abs(scipy.linalg.eigvals(_PENCIL_A, _PENCIL_B)).max())
    for _ in range(3):
        total += float((np.sqrt(np.abs(_VECTOR)) * _VECTOR + np.exp(-_VECTOR * _VECTOR)).sum())
    for i in range(60_000):
        total += i * 1e-12
    return total


def probe(after_s: float = 0.0) -> float:
    """Seconds the fixed probe work takes now.

    After ``after_s`` seconds of other work, the probe is repeated for about
    a tenth of that time, at most ``MAX_REPEATS`` times, and the median
    repeat is returned, so that the speed a long call is rescaled by is
    itself measured over more than one short probe.
    """
    times = []
    for _ in range(max(1, min(MAX_REPEATS, round(0.1 * after_s / REFERENCE_S)))):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


_work()  # the first run pays for lazy imports and first allocations
