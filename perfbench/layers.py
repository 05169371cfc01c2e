"""Per-layer host-time accounting for the benchmark's traced runs.

Spans are recorded here, around calls into the simulator's public
functions, not inside the program: :class:`Spans` accumulates call
counts and seconds per span name, and :func:`split_profile` turns a
``cProfile`` of ``engine.run`` into self time per layer.  The layer of a
function is the ``repro`` module it lives in; time spent in the
standard library or in builtins is charged to the nearest ``repro``
caller, so the per-layer self times partition the profiled span.

:func:`apply_injection` is the sensitivity hook used by the benchmark's
own tests: ``PERFBENCH_INJECT=engine.run=0.02`` wraps ``engine.run``
with a 20 ms busy delay per call (``ResultStore.load`` likewise).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, Tuple

#: Simulator layers, in the order they are printed.  ``other`` takes the
#: self time of repro modules outside these layers (and of the
#: benchmark's own frames) so the split still sums to the span.
LAYERS = ("workloads", "sim.engine", "sim.machine", "coherence", "core",
          "noc", "events", "other")

#: Path fragment of a repro source file -> layer.  First match wins.
_LAYER_BY_PATH = (
    ("/repro/workloads/", "workloads"),
    ("/repro/frontend/", "workloads"),  # program generators and the ISA
    ("/repro/sync/", "workloads"),      # lock/barrier code run by programs
    ("/repro/sim/engine.py", "sim.engine"),
    ("/repro/sim/events.py", "events"),
    ("/repro/sim/", "sim.machine"),
    ("/repro/mem/", "sim.machine"),
    ("/repro/coherence/", "coherence"),
    ("/repro/core/", "core"),
    ("/repro/noc/", "noc"),
    ("/repro/obs/", "events"),
    ("/repro/energy/", "events"),       # EnergySink, a bus subscriber
    ("/repro/harness/golden.py", "events"),  # TraceDigestSink
)


def _path_layer(filename: str):
    path = filename.replace(os.sep, "/")
    if "/repro/" not in path:
        return None
    for fragment, layer in _LAYER_BY_PATH:
        if fragment in path:
            return layer
    return "other"


def _is_json(func: Tuple[str, int, str]) -> bool:
    filename, _, name = func
    return ("/json/" in filename.replace(os.sep, "/")
            or "_json" in name or "c_make_encoder" in name)


class Spans:
    """Thread-safe ``name -> [calls, seconds]`` accumulator."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.totals: Dict[str, list] = {}

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            entry = self.totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` with every call recorded as one ``name`` span."""
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - t0)
        timed.__wrapped__ = func
        return timed

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0])[1]

    def mean_ms(self, name: str) -> float:
        calls, seconds = self.totals.get(name, [0, 0.0])
        return seconds / calls * 1e3 if calls else 0.0

    def merge(self, other: Dict[str, list]) -> None:
        for name, (calls, seconds) in other.items():
            self.add(name, seconds, calls)


def split_profile(stats: Dict) -> Tuple[Dict[str, float], float, int]:
    """Self time per layer from ``pstats.Stats(...).stats``.

    Returns ``(seconds_by_layer, json_seconds, emit_calls)``.  A
    function outside ``repro`` has its self time shared among its
    callers in proportion to the time each call edge spent in it, and
    recursively so until a ``repro`` frame is reached.
    """
    memo: Dict[Tuple, Dict[str, float]] = {}

    def shares(func, visiting) -> Dict[str, float]:
        if func in memo:
            return memo[func]
        layer = _path_layer(func[0])
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {c: edge[2] for c, edge in callers.items()
                   if c not in visiting}
        total = sum(weights.values())
        if total <= 0:  # no timed caller: split by call count
            weights = {c: float(edge[0]) for c, edge in callers.items()
                       if c not in visiting}
            total = sum(weights.values())
        if total <= 0:
            return {"other": 1.0}
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, part in shares(caller, visiting | {func}).items():
                out[layer] = out.get(layer, 0.0) + part * weight / total
        memo[func] = out
        return out

    by_layer = {layer: 0.0 for layer in LAYERS}
    json_s = 0.0
    emits = 0
    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        if func[2].startswith("<method 'disable' of '_lsprof"):
            continue
        for layer, part in shares(func, frozenset()).items():
            by_layer[layer] += tottime * part
        if _is_json(func):
            json_s += tottime
        if func[0].replace(os.sep, "/").endswith("/repro/sim/events.py") \
                and func[2] == "emit":
            emits += ncalls
    return by_layer, json_s, emits


def scale_to(by_layer: Dict[str, float], span_s: float) -> Dict[str, float]:
    """Rescale profiler self times so they sum exactly to ``span_s``."""
    total = sum(by_layer.values())
    if total <= 0:
        return {layer: 0.0 for layer in by_layer}
    return {layer: value * span_s / total
            for layer, value in by_layer.items()}


# --- sensitivity injection -------------------------------------------------

def busy_wait(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _delayed(func: Callable, seconds: float) -> Callable:
    def slowed(*args, **kwargs):
        busy_wait(seconds)
        return func(*args, **kwargs)
    slowed.__wrapped__ = func
    return slowed


def apply_injection(raw: str) -> None:
    """Wrap the calls named in ``raw`` (``target=seconds[,...]``) with a
    fixed busy delay."""
    for item in filter(None, (part.strip() for part in raw.split(","))):
        target, _, seconds = item.partition("=")
        if target == "engine.run":
            import repro.harness.executor as executor
            import repro.sim.engine as engine
            slowed = _delayed(engine.run, float(seconds))
            engine.run = slowed
            executor.engine_run = slowed
        elif target == "ResultStore.load":
            from repro.harness.executor import ResultStore
            ResultStore.load = _delayed(ResultStore.load, float(seconds))
        else:
            raise ValueError(f"PERFBENCH_INJECT: unknown target {target!r}")
