"""Shared pieces of the benchmark: paths, statistics, host fingerprint."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from statistics import median
from typing import Callable, Dict, Iterable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Checkout root (the benchmark lives one level below it).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(ROOT, "tests", "golden", "digests.json")
#: Scratch space for server cache copies; removed at the end of a run.
WORK = os.path.join(ROOT, ".perfbench_work")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Calibration loops run back to back before each set-up: a single 2 ms
#: loop is too noisy to correct one 0.2 s sample.
SETUP_CALIBRATION_LOOPS = 10

#: Percentiles ``latency_tail_ms`` may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Time of :func:`_calibration_loop` on a quiet host of the kind the
#: benchmark was sized on (2 vCPUs, py3.11).  CPU-bound host times are
#: reported at this reference speed; see :func:`host_factor`.
REF_CALIBRATION_S = 0.002

#: The simulator slows down more than the calibration loop when the
#: host is contended.  On two recordings of the golden grid (100 s and
#: 150 s, the second crossing a slow phase of the host), 20 s windows of
#: per-cell medians agreed within ±2% with the loop's slowdown raised to
#: this power, against ±7% with the plain ratio and up to ±25% raw.
HOST_EXPONENT = 1.25


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: this checkout's sources only."""
    return {**os.environ, "PYTHONPATH": SRC}


def _calibration_loop() -> int:
    """Fixed pure-Python work: integer arithmetic and small-dict stores,
    the operations the simulator's inner loop is made of.  It touches no
    repro code, so no change to the program can move it."""
    total = 0
    table: Dict[int, int] = {}
    for i in range(20000):
        table[i & 255] = total
        total += (i * 7) % 13
    return total


def host_factor(loops: int = 1) -> float:
    """How much slower the host runs right now than the reference.

    The shared host slows down by up to a third within a second when
    its neighbours are busy, and for minutes at a time, which no run
    length averages away.  So each CPU-bound unit of work is preceded by
    ``loops`` calibration loops, and the unit's host time is divided by
    the loops' slowdown raised to ``HOST_EXPONENT``; medians over many
    units then take out what the calibration itself got wrong.
    """
    t0 = time.perf_counter()
    for _ in range(loops):
        _calibration_loop()
    slowdown = (time.perf_counter() - t0) / loops / REF_CALIBRATION_S
    return slowdown ** HOST_EXPONENT


def repeated_setup(make: Callable[[], T],
                   discard: Callable[[T], None] = lambda _: None
                   ) -> Tuple[T, float]:
    """Run ``make()`` ``SETUP_REPEATS`` times, each divided by the host
    factor measured just before it; ``discard`` ends each product but
    the last, outside the timed span.  Returns the last product and the
    median calibrated set-up time."""
    samples = []
    product = None
    for i in range(SETUP_REPEATS):
        if i:
            discard(product)
        factor = host_factor(SETUP_CALIBRATION_LOOPS)
        t0 = time.perf_counter()
        product = make()
        samples.append((time.perf_counter() - t0) / factor)
    return product, median(samples)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest ladder percentile that has
    at least ten samples beyond it (the max when there are too few)."""
    n = len(values)
    chosen = None
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            chosen = pct
    if chosen is None:
        return 100.0, max(values)
    return chosen, percentile(values, chosen)


def import_probe(modules: Sequence[str]) -> float:
    """Seconds a fresh interpreter takes to start and import ``modules``.

    No timeout: with one, ``subprocess`` polls for the child's exit at
    up to 50 ms intervals, which rounds the measured time up to that
    grid."""
    code = "import " + ", ".join(modules)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(),
                   check=True)
    return time.perf_counter() - t0


def loadavg() -> List[float]:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []


def fingerprint() -> Dict[str, object]:
    """Host fingerprint; records from different fingerprints never compare."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 0,
        "nproc": nproc,
    }


def latency_metrics(samples_s: Sequence[float]) -> Dict[str, object]:
    """``latency_p50_ms`` / ``latency_tail_ms`` plus the tail's label."""
    ms = [s * 1e3 for s in samples_s]
    pct, value = tail(ms)
    return {"p50": percentile(ms, 50.0), "tail": value, "tail_pct": pct,
            "samples": len(ms)}


def sim_counts(results: Iterable[Dict]) -> Dict[str, int]:
    """Simulated-statistics layer metrics summed over serialized results
    (``serialize_result`` dicts).  They repeat exactly for the same cells."""
    totals = dict.fromkeys((
        "sim.engine.ops", "coherence.l1_misses", "coherence.snoops",
        "coherence.invalidations", "core.near_decisions",
        "core.far_decisions", "noc.messages", "noc.flit_hops"), 0)
    for result in results:
        stats = result["stats"]
        totals["sim.engine.ops"] += result["instructions"]
        totals["coherence.l1_misses"] += stats["l1_misses"]
        totals["coherence.snoops"] += stats["snoops"]
        totals["coherence.invalidations"] += stats["invalidations"]
        totals["core.near_decisions"] += result["near_decisions"]
        totals["core.far_decisions"] += result["far_decisions"]
        totals["noc.messages"] += sum(result["messages"].values())
        totals["noc.flit_hops"] += result["flit_hops"]
    return totals
