"""Small shared helpers: order statistics, host pace and host facts."""

from __future__ import annotations

import math
import os
import platform
import statistics
from time import perf_counter
from typing import Dict, List, Sequence


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort last."""
    if not values:
        return math.inf
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The median (``inf`` for no values)."""
    return statistics.median(values) if values else math.inf


#: The reference pace: about the median time of :func:`pace_kernel` on
#: the 2-vCPU host this benchmark was built on (CPython 3.11). Timed
#: metrics are reported scaled to it; see :class:`Pace`.
REFERENCE_PACE_S = 0.025


def pace_kernel() -> int:
    """A fixed pure-Python loop of the interpreter work the program does:
    tuples, dicts, strings, recursion and integer arithmetic."""

    def walk(term, env):
        if isinstance(term, tuple):
            return (term[0],) + tuple(walk(arg, env) for arg in term[1:])
        return env.get(term, term)

    total = 0
    for round_ in range(900):
        env = {f"X{i}": ("f", i, "a") for i in range(8)}
        term = ("g", ("h", "X1", "X2", ("k", "X3", "b")), "X4", ("m", "X5", "X6", "X7"))
        out = walk(term, env)
        table = {(j, out[0]): str(j) for j in range(20)}
        total += len(table) + len(repr(out))
        for j in range(30):
            total = (total + j * round_) % 1_000_003
    return total


class Pace:
    """How fast the host runs this process right now, against the reference.

    The 2-vCPU shared host this benchmark was built on slows a process by
    up to 2x, in swings that last from tens of milliseconds to minutes,
    and the two vCPUs swing independently. A fixed kernel timed on the
    same CPU just before and just after a unit of work tracks the swing
    the unit saw: :meth:`scale` turns the unit's seconds into seconds at
    the reference pace. Measured on that host, this halved the spread of
    single cold reorders. The kernel runs outside every timed section.
    """

    def __init__(self) -> None:
        #: Every kernel time, seconds.
        self.samples: List[float] = []
        self._last = self.sample()

    def sample(self) -> float:
        started = perf_counter()
        pace_kernel()
        seconds = perf_counter() - started
        self.samples.append(seconds)
        return seconds

    def factor(self) -> float:
        """Reference pace ÷ the pace around the unit that just ended."""
        after = self.sample()
        before, self._last = self._last, after
        return REFERENCE_PACE_S / ((before + after) / 2)

    def scale(self, seconds: float) -> float:
        """``seconds`` of a unit that just ended, at the reference pace."""
        return seconds * self.factor()

    def skip(self) -> None:
        """Start afresh after untimed work (the next unit's "before")."""
        self._last = self.sample()


def calibration_seconds(rounds: int = 3) -> float:
    """Best-of-``rounds`` time of a fixed pure-Python loop.

    Informational only: it lets results from different hosts be read
    against each other, and is never compared against a bound.
    """
    best = math.inf
    for _ in range(rounds):
        started = perf_counter()
        total = 0
        for index in range(400_000):
            total = (total + index * index) % 1_000_003
        best = min(best, perf_counter() - started)
    return best


def host_facts(pace_s: float) -> Dict[str, object]:
    """Usable CPUs, Python version, the calibration loop time, and the
    run's median pace kernel time with the factor it scaled times by."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        cpus = os.cpu_count() or 1
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "calibration_s": round(calibration_seconds(), 6),
        "pace_s": round(pace_s, 6),
        "pace_factor": round(REFERENCE_PACE_S / pace_s, 4),
    }
