"""The ``repro profile`` diagnostics report.

Runs one simulation cell with the full observability sink set attached
(latency histograms, interval time-series, per-block contention counts)
and renders a terminal report: percentile tables with sparklines, the
interval series the predictor papers reason about (near/far decision
mix, invalidation and DRAM pressure over time, AMT confidence warm-up),
the top-contended cache lines, and the policy-decision breakdown.

Profiled runs always simulate fresh and never write the result cache:
observability payloads in ``metadata`` would make profile cache files
differ from sweep cache files for the same spec, breaking the
"parallel sweeps are byte-identical to serial ones" guarantee.  The
serialized report payload can instead be saved/loaded explicitly as
JSON (``repro profile --save / --load``).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.executor import (RunSpec, deserialize_result,
                                    execute_spec, serialize_result)
from repro.obs.histogram import (HistogramSink, Log2Histogram,
                                 histograms_from_metadata)
from repro.obs.timeseries import (DEFAULT_INTERVAL, IntervalSink, deltas,
                                  intervals_from_metadata)
from repro.sim.events import Event, EventKind, Sink
from repro.sim.results import SimulationResult

#: Glyph ramp for the interval time-series sparklines.
_SPARK = " .:-=+*#%@"

#: Human labels for the standard histogram set, in render order.
_HIST_LABELS = [
    ("amo_near", "AMO near"),
    ("amo_far", "AMO far"),
    ("lock_acquire", "lock acquire"),
    ("noc_queue", "NoC queueing"),
]


class ContentionSink(Sink):
    """Counts coherence churn per cache block (top-contended lines)."""

    kinds = frozenset({EventKind.INVALIDATION, EventKind.AMO_NEAR,
                       EventKind.AMO_FAR})

    def __init__(self) -> None:
        self.invalidations: Counter = Counter()
        self.far_amos: Counter = Counter()
        self.cores_touching: Dict[int, set] = {}

    def on_event(self, event: Event) -> None:
        kind = event.kind
        if kind is EventKind.INVALIDATION:
            self.invalidations[event.block] += 1
        elif kind is EventKind.AMO_FAR:
            self.far_amos[event.block] += 1
        if event.core >= 0 and event.block >= 0:
            self.cores_touching.setdefault(event.block, set()).add(event.core)

    def top_blocks(self, n: int) -> List[Tuple[int, int, int, int]]:
        """``(block, invalidations, far_amos, cores)`` rows, worst first."""
        return [
            (block, count, self.far_amos.get(block, 0),
             len(self.cores_touching.get(block, ())))
            for block, count in self.invalidations.most_common(n)
        ]

    def finalize(self, result) -> None:
        result.metadata["contention"] = [
            list(row) for row in self.top_blocks(16)]


def profile_spec(spec: RunSpec,
                 interval: int = DEFAULT_INTERVAL) -> SimulationResult:
    """Simulate ``spec`` with the observability sinks attached.

    The returned result's ``metadata`` carries the ``histograms``,
    ``intervals`` and ``contention`` payloads the report renders; the
    run bypasses the result cache entirely.
    """
    sinks = (HistogramSink(), IntervalSink(interval), ContentionSink())
    return execute_spec(spec, extra_sinks=sinks)


def save_profile(result: SimulationResult, path: str) -> None:
    """Persist a profiled result (with its obs payloads) as JSON."""
    import json

    with open(path, "w") as fh:
        json.dump(serialize_result(result), fh)


def load_profile(path: str) -> SimulationResult:
    """Load a result previously written by :func:`save_profile`."""
    import json

    with open(path) as fh:
        return deserialize_result(json.load(fh))


# --- rendering ------------------------------------------------------------


def _spark_row(values: Sequence[float]) -> str:
    peak = max(values) if values else 0
    if peak <= 0:
        return _SPARK[0] * len(values)
    out = []
    for v in values:
        if v <= 0:
            out.append(_SPARK[0])
        else:
            out.append(_SPARK[1 + int((len(_SPARK) - 2) * v / peak)])
    return "".join(out)


def _render_histograms(hists: Dict[str, Log2Histogram]) -> List[str]:
    lines = ["-- latency histograms (cycles, log2 buckets) --"]
    header = (f"  {'':14} {'count':>8} {'mean':>8} {'p50':>7} {'p90':>7} "
              f"{'p99':>7} {'max':>8}")
    lines.append(header)
    for key, label in _HIST_LABELS:
        hist = hists.get(key)
        if hist is None or hist.count == 0:
            continue
        lines.append(
            f"  {label:14} {hist.count:>8} {hist.mean:>8.1f} "
            f"{hist.percentile(50):>7.0f} {hist.percentile(90):>7.0f} "
            f"{hist.percentile(99):>7.0f} {hist.max_value:>8} "
            f"|{hist.sparkline()}|")
    if len(lines) == 2:
        lines.append("  (no latency events recorded)")
    return lines


def _render_intervals(payload: Dict[str, object]) -> List[str]:
    columns: Dict[str, List[int]] = payload["columns"]  # type: ignore
    interval = payload["interval"]
    cycles = columns.get("cycle", [])
    if not cycles:
        return ["-- interval time-series --", "  (no samples)"]
    lines = [f"-- interval time-series ({len(cycles)} samples, "
             f"{interval} cycles each; first -> last) --"]
    rows = [
        ("ops", "ops"),
        ("near_amos", "near AMOs"),
        ("far_amos", "far AMOs"),
        ("far_decisions", "far decisions"),
        ("invalidations", "invalidations"),
        ("llc_accesses", "LLC accesses"),
        ("dram_accesses", "DRAM accesses"),
    ]
    for key, label in rows:
        series = deltas(columns.get(key, []))
        if not any(series):
            continue
        lines.append(f"  {label:14} |{_spark_row(series)}| "
                     f"total={sum(series)}")
    conf = columns.get("amt_confidence_sum", [])
    entries = columns.get("amt_entries", [])
    if any(entries):
        mean_conf = [c / e if e else 0.0 for c, e in zip(conf, entries)]
        lines.append(f"  {'AMT confidence':14} |{_spark_row(mean_conf)}| "
                     f"final mean={mean_conf[-1]:.1f} over "
                     f"{entries[-1]} entries")
    return lines


def _render_contention(rows: Sequence[Sequence[int]], top: int) -> List[str]:
    lines = ["-- top-contended cache lines (by invalidations) --"]
    if not rows:
        lines.append("  (no invalidations recorded)")
        return lines
    lines.append(f"  {'block':>12} {'invalidations':>14} "
                 f"{'far AMOs':>9} {'cores':>6}")
    for block, invals, far, cores in list(rows)[:top]:
        lines.append(f"  {block:#12x} {invals:>14} {far:>9} {cores:>6}")
    return lines


def _render_decisions(result: SimulationResult) -> List[str]:
    s = result.stats
    decided = result.near_decisions + result.far_decisions
    lines = ["-- policy decision breakdown --"]
    lines.append(
        f"  decided AMOs: {decided} "
        f"(near={result.near_decisions} far={result.far_decisions})"
        + (f", far share {result.far_decisions / decided:.1%}"
           if decided else ""))
    lines.append(
        f"  Unique fast path (no decision): {s.near_amo_unique_hits}")
    lines.append(
        f"  executed: near={s.near_amos} far={s.far_amos} "
        f"(far fraction {result.far_fraction:.1%}); "
        f"AMO-buffer hits={s.amo_buffer_hits}")
    return lines


def render_profile(result: SimulationResult, top: int = 10) -> str:
    """Render the full diagnostics report for a profiled result."""
    md = result.metadata
    lines: List[str] = [result.summary(), ""]
    lines.extend(_render_histograms(histograms_from_metadata(md)))
    lines.append("")
    intervals = intervals_from_metadata(md)
    if intervals is not None:
        lines.extend(_render_intervals(intervals))
        lines.append("")
    lines.extend(_render_contention(md.get("contention", ()), top))
    lines.append("")
    lines.extend(_render_decisions(result))
    return "\n".join(lines)
