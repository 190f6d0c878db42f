"""Host speed, measured with a fixed pure-Python kernel.

The reference box is a VM that shares its CPUs with other tenants, and
its speed drifts by more than any bound a benchmark metric may have: in
one twenty-minute stretch every workload ran 2.1-2.5x faster at the end
than at the start.  In slow spells the speed also flips between two
levels from one tenth of a second to the next.  So time metrics are
reported at a fixed reference speed.  While a run measures, a ``Sampler``
thread wakes every ``INTERVAL_S``, runs one kernel unit to warm the
caches the program's work evicted and times a second one.  Every
measured time is multiplied by ``REFERENCE_UNIT_S`` over the mean timed
unit (see ``run.py``).  Sampling all through the run follows both the
drift and the flips.  A unit (about 0.2 ms) is far shorter than the GIL
switch interval (5 ms), so once it starts it runs to the end: it times
the CPU, not the program's threads.  During one slow spell, study-probe
passes took 2.44x their time at the reference speed and the timed unit
2.3-2.4x its; a unit timed without the warm-up read 3.0x.

The kernel uses no program code, so a change to the program cannot move
it.  It does the kinds of work the program does most: string formatting,
dict updates, a keyed sort, hashing and float math.  It allocates
little, so it does not move ``peak_rss_mb``.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import threading
import time

#: The kernel's unit time on the reference box when it ran fastest.
REFERENCE_UNIT_S = 0.000216
#: Seconds between two samples (each two units: under 1% of the CPU).
INTERVAL_S = 0.1
#: A unit slower than this many times the median was hit by a stall; a
#: stall costs the program a few milliseconds in a run of many seconds,
#: so it is left out rather than weighted as a whole interval.
STALL = 3.0


def _unit() -> bytes:
    counts: dict[str, int] = {}
    for i in range(300):
        key = "t%d:%d" % (i * 7919 % 997, i % 13)
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    hasher = hashlib.blake2b(digest_size=8)
    total = 0.0
    for rank, (key, count) in enumerate(ranked[:500], 1):
        hasher.update(key.encode())
        total += math.log1p(count) / rank
    hasher.update(repr(total).encode())
    return hasher.digest()


class Sampler:
    """Times a warm kernel unit every ``INTERVAL_S`` on a background thread.

    Use as a context manager around the measured work.
    """

    def __init__(self) -> None:
        self.units: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(INTERVAL_S):
            _unit()
            started = clock()
            _unit()
            self.units.append(clock() - started)

    def unit_seconds(self) -> float:
        """Mean unit time over the run, leaving out units a stall hit."""
        units = self.units or [_timed_unit()]
        ceiling = STALL * statistics.median(units)
        return statistics.mean(u for u in units if u <= ceiling)


def _timed_unit() -> float:
    started = time.perf_counter()
    _unit()
    return time.perf_counter() - started
