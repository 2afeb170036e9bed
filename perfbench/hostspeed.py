"""Host speed reference: put every timed region on one nominal host speed.

The benchmark runs on shared hosts. There, the speed of one Python thread
moves by a third or more from one second to the next, and over spells of
ten seconds to a minute, as other tenants' load comes and goes; neither CPU
time nor the steal counter shows it. A run of a few tens of seconds cannot
average that out.

So a fixed reference computation is timed at the start and end of every
timed region and, from a SIGALRM handler, every ``INTERVAL_S`` seconds inside
it, on the same CPU (the benchmark pins itself to one). A region that ran
for ``t`` seconds (less the time spent sampling) while the reference took
``r`` seconds (the harmonic mean of its samples) is reported as
``t * NOMINAL_S / r``: the time the region would have taken on a host where
the reference takes ``NOMINAL_S``. The reference is pure Python
with the mix of work that ``ruleforge`` does (dict lookups and float
comparisons in nested any/all, integer arithmetic, small dicts and objects
made and dropped) and does not use ``ruleforge``, so a change to the program
moves a scaled time exactly as it moves the raw one.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

#: The reference's time on the nominal host. It fixes the scale only; it is
#: within the range of its times on a 2-vCPU Intel Xeon VM with Python 3.11.
NOMINAL_S = 0.0015
#: Seconds between reference samples inside a timed region.
INTERVAL_S = 0.05
#: Reference samples taken at each end of a timed region.
EDGE_SAMPLES = 3

_rng = random.Random(0)
_ROWS = [{"speed": _rng.uniform(0, 30), "dist": _rng.uniform(0, 50),
          "lane": _rng.uniform(-2, 2), "accel": _rng.uniform(-5, 3)} for _ in range(250)]
#: A disjunction of conjunctions of (variable, operator, constant).
_RULE = ((("dist", "<", 4.2), ("speed", ">", 0.0)),
         (("lane", "<", -1.5), ("accel", ">=", 1.0)),
         (("dist", ">", 40.0),))


def _holds(relation, x) -> bool:
    name, op, constant = relation
    value = x[name]
    if op == "<":
        return value < constant
    if op == ">":
        return value > constant
    return value >= constant


class _Point:
    __slots__ = ("x", "key")

    def __init__(self, x, key):
        self.x = x
        self.key = key


def _reference() -> int:
    hits = 0
    bins: dict[int, int] = {}
    for x in _ROWS:
        if any(all(_holds(rel, x) for rel in conj) for conj in _RULE):
            hits += 1
        moved = dict(x)
        moved["dist"] += 0.5
        point = _Point(moved, round(moved["dist"]))
        bins[point.key] = bins.get(point.key, 0) + 1
    total = 0
    for i in range(4000):
        total += i * i % 7
    return hits + len(bins) + total


def _time_reference() -> float:
    start = time.perf_counter()
    _reference()
    return time.perf_counter() - start


#: The Meter that SIGALRM samples for, if any.
_active: Meter | None = None


def _on_alarm(signum, frame):
    # Stays installed: an alarm that was already pending when a region ended
    # finds no active Meter and is dropped.
    if _active is not None:
        _active.tick()


class Meter:
    """Context manager that times a region on the nominal host speed.

    After the ``with`` block, ``seconds`` is the region's wall time less the
    time spent sampling, and ``scaled`` is that time on the nominal host
    speed. With ``inside=False`` the reference is sampled only at the ends,
    for a region that waits on a child process pinned to the same CPU.
    Use it from the main thread only: it takes over SIGALRM.
    """

    def __init__(self, inside: bool = True):
        self.inside = inside
        self.samples: list[float] = []
        self.spent = 0.0
        self.seconds = self.scaled = 0.0

    def tick(self):
        start = time.perf_counter()
        self.samples.append(_time_reference())
        self.spent += time.perf_counter() - start

    def scale(self, seconds: float) -> float:
        """``seconds`` measured while this Meter sampled, on the nominal host
        speed."""
        return seconds * NOMINAL_S / statistics.harmonic_mean(self.samples)

    def __enter__(self):
        global _active
        for _ in range(EDGE_SAMPLES):
            self.tick()
        self.spent = 0.0
        if self.inside:
            signal.signal(signal.SIGALRM, _on_alarm)
            _active = self
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        global _active
        elapsed = time.perf_counter() - self._start
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            _active = None
        self.seconds = elapsed - self.spent
        for _ in range(EDGE_SAMPLES):
            self.tick()
        self.scaled = self.scale(self.seconds)
        return False
