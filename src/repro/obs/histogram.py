"""Fixed-bucket log2 latency histograms and the histogram event sink.

Mean AMO latency hides exactly what the paper (and Schweizer et al.'s
atomics study) cares about: the *tail* a contended home node or a
ping-ponging line produces.  :class:`Log2Histogram` keeps a fixed array
of power-of-two buckets — cheap enough to update on every event, compact
enough to serialize into a cached result — and derives p50/p90/p99/max
by interpolating inside the bucket that crosses the requested rank.

:class:`HistogramSink` subscribes to the instrumentation bus and fills
four histograms:

* ``amo_near`` / ``amo_far`` — AMO completion latency by placement;
* ``lock_acquire`` — CAS-based lock acquisition latency, measured from
  the first *failed* CAS on a block to the completion of the CAS that
  finally succeeded (single-shot successes count their own latency);
* ``noc_queue`` — request-message queueing delay at the home-node
  ordering point (``dequeue - enqueue`` stamps on MESSAGE events).

The sink is opt-in: default-mode simulation never constructs it, so the
bus fast path stays zero-dispatch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.events import EventKind, Sink

#: Bucket count: bucket ``i`` holds values in ``[2**(i-1), 2**i)``, with
#: bucket 0 holding values <= 0; 48 buckets cover any latency a
#: :data:`~repro.harness.executor.MAX_CYCLES` run can produce.
NUM_BUCKETS = 48

#: Glyph ramp used by the terminal sparklines (space = empty bucket).
_SPARK = " .:-=+*#%@"


def bucket_of(value: int) -> int:
    """Bucket index for ``value``: 0 for <= 0, else 1 + floor(log2(v))."""
    if value <= 0:
        return 0
    return min(value.bit_length(), NUM_BUCKETS - 1)


class Log2Histogram:
    """Histogram over power-of-two buckets with percentile estimation."""

    __slots__ = ("counts", "count", "total", "max_value")

    def __init__(self) -> None:
        self.counts: List[int] = [0] * NUM_BUCKETS
        self.count = 0
        self.total = 0
        self.max_value = 0

    def record(self, value: int) -> None:
        """Add one observation (negative values clamp to bucket 0)."""
        self.counts[bucket_of(value)] += 1
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    def merge(self, other: "Log2Histogram") -> None:
        """Accumulate ``other`` into this histogram."""
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        self.max_value = max(self.max_value, other.max_value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated value at percentile ``p`` (0..100).

        Linear interpolation inside the bucket whose cumulative count
        crosses the requested rank; exact for the max (p=100) up to the
        recorded maximum.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if seen + c >= rank:
                lo = 0 if i == 0 else 1 << (i - 1)
                hi = 1 if i == 0 else 1 << i
                hi = min(hi, self.max_value) if hi > self.max_value else hi
                frac = (rank - seen) / c
                return lo + frac * (hi - lo)
            seen += c
        return float(self.max_value)

    def nonzero_span(self) -> Tuple[int, int]:
        """(first, last+1) indices of the occupied bucket range."""
        first, last = NUM_BUCKETS, -1
        for i, c in enumerate(self.counts):
            if c:
                first = min(first, i)
                last = i
        if last < 0:
            return 0, 0
        return first, last + 1

    def sparkline(self) -> str:
        """Render the occupied bucket range as a density ramp."""
        first, stop = self.nonzero_span()
        if stop == 0:
            return ""
        peak = max(self.counts[first:stop])
        out = []
        for c in self.counts[first:stop]:
            if c == 0:
                out.append(_SPARK[0])
            else:
                idx = 1 + int((len(_SPARK) - 2) * c / peak)
                out.append(_SPARK[idx])
        return "".join(out)

    def as_dict(self) -> Dict[str, object]:
        """Compact JSON form (buckets trimmed to the occupied span)."""
        first, stop = self.nonzero_span()
        return {
            "count": self.count,
            "total": self.total,
            "max": self.max_value,
            "first_bucket": first,
            "buckets": self.counts[first:stop],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Log2Histogram":
        """Rebuild from :meth:`as_dict` output."""
        hist = cls()
        first = int(data["first_bucket"])  # type: ignore[arg-type]
        buckets = list(data["buckets"])  # type: ignore[arg-type]
        if first < 0 or first + len(buckets) > NUM_BUCKETS:
            raise ValueError("histogram bucket span out of range")
        for i, c in enumerate(buckets):
            hist.counts[first + i] = int(c)
        hist.count = int(data["count"])  # type: ignore[arg-type]
        hist.total = int(data["total"])  # type: ignore[arg-type]
        hist.max_value = int(data["max"])  # type: ignore[arg-type]
        return hist


class HistogramSink(Sink):
    """Event-bus sink filling the standard latency histograms.

    Purely observational: it only reads event payloads, so attaching it
    leaves simulated timing and every counter bit-identical.
    """

    batched = True
    kinds = frozenset({EventKind.AMO_NEAR, EventKind.AMO_FAR,
                       EventKind.MESSAGE})

    def __init__(self) -> None:
        self.histograms: Dict[str, Log2Histogram] = {
            "amo_near": Log2Histogram(),
            "amo_far": Log2Histogram(),
            "lock_acquire": Log2Histogram(),
            "noc_queue": Log2Histogram(),
        }
        # (core, block) -> cycle of the first failed CAS of an ongoing
        # lock-acquire attempt.
        self._acquiring: Dict[Tuple[int, int], int] = {}

    def on_records(self, records: List[tuple]) -> None:
        hists = self.histograms
        near, far = hists["amo_near"].record, hists["amo_far"].record
        lock, queue = hists["lock_acquire"].record, hists["noc_queue"].record
        for rec in records:
            kind = rec[0].kind
            if kind is EventKind.MESSAGE:  # (..., dequeue, enqueue, hops)
                enqueue = rec[5]
                if enqueue is not None:
                    queue(rec[4] - enqueue)
                continue
            # AMO_NEAR or AMO_FAR: (..., amt, cas_ok, decided, latency)
            latency = rec[7]
            if latency is None:
                continue
            (near if kind is EventKind.AMO_NEAR else far)(latency)
            cas_ok = rec[5]
            if cas_ok is None:
                continue
            key = (rec[2], rec[3])
            if cas_ok:
                started = self._acquiring.pop(key, None)
                lock(latency if started is None
                     else rec[1] + latency - started)
            else:
                self._acquiring.setdefault(key, rec[1])

    def finalize(self, result) -> None:
        """Serialize the non-empty histograms into ``result.metadata``."""
        payload = {name: hist.as_dict()
                   for name, hist in self.histograms.items() if hist.count}
        if payload:
            result.metadata["histograms"] = payload


def histograms_from_metadata(
        metadata: Dict[str, object]) -> Dict[str, Log2Histogram]:
    """Rebuild the histogram set a :class:`HistogramSink` serialized."""
    raw = metadata.get("histograms")
    if not isinstance(raw, dict):
        return {}
    return {name: Log2Histogram.from_dict(data)
            for name, data in raw.items()}
