"""The host's current speed, read with a fixed reference job beside the work.

The benchmark runs on a few cores of a shared host whose virtual CPUs slow
down with load elsewhere on it: the same work has been seen to take up to
2.2 times its usual time, CPU time as much as wall time, in stretches that
come and go within a second and last from seconds to minutes, on one CPU
while the other runs at full speed.  No median over the rounds of a run
removes a slow stretch that lasts the whole run, so the benchmark reads
the speed of the CPU the work runs on, while it runs, and reports each
time at the speed of the reference host:

    scaled = (measured - reference jobs run meanwhile) * mean(REFERENCE_S / job time)

where the mean is over the reference jobs run during the measured
interval.  When the CPU runs at reference speed every ratio is 1 and the
figure is plain seconds; when it runs at two thirds of it for half the
interval, the figure is what the same work would have taken at full
speed.  The job uses none of the library, so a change to ``src/`` moves
the scaled times and a slow host does not.

Two ways to take the samples:

* :class:`Sampler`, a thread inside the measured process, runs the job
  every ``INTERVAL_S`` on the process's own CPU.  The main thread waits
  for the interpreter lock meanwhile, so the jobs' time is taken out of
  the measured intervals.
* :func:`read` runs ``SAMPLES`` jobs on each given CPU in turn, between two
  measured processes, for work that cannot host a thread (``repro-mc`` as
  users run it).

The job builds a hash-consed decision diagram in plain Python (dict and
tuple traffic, recursion, small-int arithmetic, a set-based walk), the
kind of interpreter work the library's kernels do.  Of the jobs tried
beside the three in-process workloads on a loaded host (this one, dict
lookups in a small table, and random lookups in a 30 000-entry one), its
slowdown followed theirs most closely: the workloads' log time rose
about 1.1 times as fast as its log time, against 1.2 and 1.3.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time
from typing import List, Sequence, Tuple

#: Size of the reference job: ``a == b`` for two words of this many bits,
#: under the variable order that makes the decision diagram exponential.
HALF = 8

#: What the reference job returns; anything else is a bug.
CHECKSUM = 2290

#: Median thread CPU seconds of one job run by a :class:`Sampler` on the
#: reference host (2-vCPU Intel Xeon VM, Python 3.11.7, unloaded).
REFERENCE_S = 0.0014

#: Seconds between two jobs of a :class:`Sampler`; the jobs take about 4%
#: of the measured process's time.
INTERVAL_S = 0.03

#: Jobs per CPU in one :func:`read`.
SAMPLES = 9


def reference_job(half: int = HALF) -> int:
    """Build the decision diagram of "word a equals word b" and walk it; return a checksum."""
    variables = 2 * half
    nodes = [(variables, 0, 0), (variables, 1, 1)]
    unique = {}

    def make(var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        node = unique.get(key)
        if node is None:
            node = unique[key] = len(nodes)
            nodes.append(key)
        return node

    def apply(op, a: int, b: int, memo: dict) -> int:
        if a < 2 and b < 2:
            return op(a, b)
        hit = memo.get((a, b))
        if hit is not None:
            return hit
        var_a, var_b = nodes[a][0], nodes[b][0]
        var = var_a if var_a < var_b else var_b
        a0, a1 = (nodes[a][1], nodes[a][2]) if var_a == var else (a, a)
        b0, b1 = (nodes[b][1], nodes[b][2]) if var_b == var else (b, b)
        memo[(a, b)] = result = make(var, apply(op, a0, b0, memo), apply(op, a1, b1, memo))
        return result

    literals = [make(var, 0, 1) for var in range(variables)]
    equal = 1
    for bit in range(half):
        same = apply(lambda x, y: 1 - (x ^ y), literals[bit], literals[bit + half], {})
        equal = apply(lambda x, y: x & y, equal, same, {})
    reachable = {equal}
    frontier = [equal]
    while frontier:
        for child in nodes[frontier.pop()][1:]:
            if child not in reachable:
                reachable.add(child)
                frontier.append(child)
    return len(nodes) + len(reachable)


def timed_job() -> float:
    """Thread CPU seconds of one reference job, run with the garbage collector off.

    The job frees everything it allocates before it returns, so with
    collections off it promotes nothing into the older generations and
    does not bring forward a full collection of the work's heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        checksum = reference_job()
        seconds = time.thread_time() - started
    finally:
        if collecting:
            gc.enable()
    if checksum != CHECKSUM:
        raise RuntimeError("reference job returned %d, not %d" % (checksum, CHECKSUM))
    return seconds


def relative_speed(job_seconds: Sequence[float]) -> float:
    """Mean speed relative to the reference host over jobs spread evenly in time."""
    return statistics.fmean(REFERENCE_S / seconds for seconds in job_seconds)


def read(cpus: Sequence[int]) -> List[float]:
    """Run ``SAMPLES`` reference jobs on each of ``cpus`` in turn; return their times."""
    allowed = os.sched_getaffinity(0)
    seconds = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            seconds += [timed_job() for _ in range(SAMPLES)]
    finally:
        os.sched_setaffinity(0, allowed)
    return seconds


class Sampler:
    """Runs the reference job every ``INTERVAL_S`` on a thread of this process.

    ``samples`` holds ``(end, seconds)`` per job: the ``time.monotonic()``
    it finished at and the thread CPU time it took.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> List[Tuple[float, float]]:
        self._stop.set()
        self._thread.join()
        return self.samples

    def _run(self) -> None:
        while True:
            seconds = timed_job()
            self.samples.append((time.monotonic(), seconds))
            if self._stop.wait(INTERVAL_S):
                return


def at_reference(samples: Sequence[Sequence[float]], start: float, end: float,
                 measured: float) -> Tuple[float, float]:
    """``measured`` seconds spent from ``start`` to ``end``, less the sampler's jobs.

    Returns ``(work, scaled)``: the seconds the work itself took and the
    seconds it would have taken on the reference host.  An interval too
    short to hold a job is scaled by the speed over all ``samples``.
    """
    inside = [seconds for finished, seconds in samples if start <= finished <= end]
    work = measured - sum(inside)
    return work, work * relative_speed(inside or [seconds for _, seconds in samples])
