"""Interval time-series sampling of simulation counters.

End-of-run aggregates cannot show the *dynamics* the dynamic-placement
papers argue about: how the near/far decision mix shifts as DynAMO's
confidence counters warm up, when invalidation storms happen, whether
DRAM pressure is phased or flat.  :class:`IntervalSink` snapshots the
fused counter block (plus per-core policy state) every ``interval``
cycles into a compact columnar record that serializes into
``SimulationResult.metadata`` and renders as per-interval sparklines in
``repro profile``.

Sampling is driven off the event stream: the sink takes a snapshot the
first time it sees an event stamped at or beyond the next boundary (and
once more at ``finalize``).  It only *reads* counters, so attaching it
leaves simulated timing and every statistic bit-identical — the
timing-neutrality test pins that contract.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.events import Sink

#: Default sampling period in cycles.
DEFAULT_INTERVAL = 2000

#: Cumulative counter columns captured per sample (name -> MachineStats
#: attributes summed).
_STAT_COLUMNS = {
    "ops": ("reads", "writes", "amo_loads", "amo_stores"),
    "near_amos": ("near_amos",),
    "far_amos": ("far_amos",),
    "invalidations": ("invalidations",),
    "dram_accesses": ("dram_reads", "dram_writes"),
    "store_buffer_stalls": ("store_buffer_stalls",),
}


class IntervalSink(Sink):
    """Samples counters every ``interval`` cycles into columnar lists.

    Columns (all cumulative at sample time):

    * ``cycle`` — the boundary the sample represents;
    * the :data:`_STAT_COLUMNS` counter sums;
    * ``llc_accesses`` — LLC lookups summed over home nodes (these
      counters live on the slices, not the fused stats block);
    * ``near_decisions`` / ``far_decisions`` — policy decisions summed
      over cores (the predictor-behaviour series);
    * ``amt_entries`` / ``amt_confident`` / ``amt_confidence_sum`` — the
      per-policy AMT confidence distribution, summed over cores: resident
      entries, entries predicting near (confidence > 0), and the total
      confidence mass.  All zero for policies without an AMT.

    Not batched: a sample reads the machine's counters as they stand
    when the first record past a boundary is emitted, so the bus hands
    this sink each record at once (it flushes after every record while
    the sink is subscribed).  From a buffered block the sample would
    read counters that had already run ahead of the record.
    """

    def __init__(self, interval: int = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.columns: Dict[str, List[int]] = {
            name: [] for name in
            ("cycle", *_STAT_COLUMNS, "llc_accesses", "near_decisions",
             "far_decisions", "amt_entries", "amt_confident",
             "amt_confidence_sum")}
        self._machine = None
        self._next_boundary = interval

    def bind_machine(self, machine) -> None:
        self._machine = machine

    def on_records(self, records: List[tuple]) -> None:
        for rec in records:
            cycle = rec[1]
            if cycle >= self._next_boundary:
                # Catch up over event-free gaps without emitting a
                # duplicate sample for every skipped boundary.
                while self._next_boundary <= cycle:
                    self._next_boundary += self.interval
                self._sample(self._next_boundary - self.interval)

    def _sample(self, cycle: int) -> None:
        machine = self._machine
        if machine is None:
            return
        cols = self.columns
        cols["cycle"].append(cycle)
        stats = machine.stats
        for name, attrs in _STAT_COLUMNS.items():
            cols[name].append(sum(getattr(stats, a) for a in attrs))
        # LLC access counts live on the home nodes, not the fused
        # counter block.
        cols["llc_accesses"].append(
            sum(hn.llc_hits + hn.llc_misses for hn in machine.home_nodes))
        cols["near_decisions"].append(
            sum(ps.near_decisions for ps in machine.policy_stats))
        cols["far_decisions"].append(
            sum(ps.far_decisions for ps in machine.policy_stats))
        entries = confident = confidence_sum = 0
        for policy in machine.policies:
            amt = getattr(policy, "amt", None)
            if amt is None:
                continue
            for _block, entry in amt.items():
                conf = getattr(entry, "confidence", None)
                if conf is None:
                    continue
                entries += 1
                confidence_sum += conf
                if conf > 0:
                    confident += 1
        cols["amt_entries"].append(entries)
        cols["amt_confident"].append(confident)
        cols["amt_confidence_sum"].append(confidence_sum)

    def finalize(self, result) -> None:
        """Take the closing sample and serialize into ``metadata``."""
        if self._machine is not None:
            last = self.columns["cycle"]
            final_cycle = max(result.cycles,
                              last[-1] + self.interval if last else 0)
            if not last or last[-1] < final_cycle:
                self._sample(final_cycle)
        result.metadata["intervals"] = {
            "interval": self.interval,
            "columns": {name: list(vals)
                        for name, vals in self.columns.items()},
        }


def intervals_from_metadata(
        metadata: Dict[str, object]) -> Optional[Dict[str, object]]:
    """Return the interval payload an :class:`IntervalSink` serialized."""
    raw = metadata.get("intervals")
    if not isinstance(raw, dict) or "columns" not in raw:
        return None
    return raw


def deltas(values: List[int]) -> List[int]:
    """Per-interval increments of a cumulative column."""
    out = []
    prev = 0
    for v in values:
        out.append(v - prev)
        prev = v
    return out
