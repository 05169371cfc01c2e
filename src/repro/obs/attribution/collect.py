"""Stamp-event collectors: per-op blame and AMT decision audit.

Both sinks set ``wants_stamps`` — subscribing either one flips the
machine onto its instrumented (timing-identical) execution path, so the
OP_RETIRE / SYNC / audit-annotated AMO records they consume exist at
all; their ``kinds`` keep every other kind unrecorded.  Both fold
blocks of records (layouts in :mod:`repro.sim.events`) and write their
findings into ``result.metadata`` at finalize time, so downstream code
(``repro why``, tests) works from a plain
:class:`~repro.sim.results.SimulationResult`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.attribution.categories import merge_into
from repro.obs.attribution.critical import extract_critical_path
from repro.sim.events import EventKind, Sink

#: metadata payload schema versions (bumped on shape changes).
BLAME_SCHEMA = 1
AUDIT_SCHEMA = 1


class BlameSink(Sink):
    """Aggregates OP_RETIRE breakdowns, SYNC markers and line handoffs.

    Finalizes ``result.metadata["blame"]``: global gate/hidden category
    totals, the per-block blame table, the line-handoff census and the
    cross-core critical path (see
    :func:`~repro.obs.attribution.critical.extract_critical_path`).

    *Gate* cycles are what the issuing core actually waited (they
    partition core time together with compute); *hidden* cycles are
    store-class drain/execution chains the store buffer absorbed —
    real home-node and NoC work that never gated the core.
    """

    wants_stamps = True
    batched = True
    kinds = frozenset({EventKind.OP_RETIRE, EventKind.SYNC,
                       EventKind.LINE_HANDOFF})

    def __init__(self, top_blocks: int = 16) -> None:
        self.top_blocks = top_blocks
        #: per-block gate and hidden category cycles; the global totals
        #: are their sums, taken once when the payload is built.
        self.block_gate: Dict[int, Dict[str, int]] = {}
        self.block_hidden: Dict[int, Dict[str, int]] = {}
        #: per-core retired-op records ``(start, gate_lat, gate_bd)``,
        #: appended in execution order (starts are monotonic per core).
        self.core_ops: Dict[int, List[Tuple[int, int, Dict[str, int]]]] = {}
        #: per-core sync markers ``(cycle, what, addr)``.
        self.core_sync: Dict[int, List[Tuple[int, str, int]]] = {}
        self.handoffs: Dict[int, int] = {}
        self.handoff_cores: Dict[int, set] = {}

    def on_records(self, records: List[tuple]) -> None:
        block_gate = self.block_gate
        block_hidden = self.block_hidden
        core_ops = self.core_ops
        for rec in records:
            kind = rec[0].kind
            if kind is EventKind.OP_RETIRE:
                _shape, cycle, core, block, bd, drain, hidden, lat = rec
                totals = block_gate.get(block)
                if totals is None:
                    totals = block_gate[block] = {}
                for cat, cycles in bd.items():
                    totals[cat] = totals.get(cat, 0) + cycles
                # A WRITE carries its drain, an AMO_STORE its execution
                # chain.
                hidden = hidden or drain
                if hidden:
                    totals = block_hidden.get(block)
                    if totals is None:
                        totals = block_hidden[block] = {}
                    for cat, cycles in hidden.items():
                        totals[cat] = totals.get(cat, 0) + cycles
                ops = core_ops.get(core)
                if ops is None:
                    ops = core_ops[core] = []
                ops.append((cycle, lat, bd))
            elif kind is EventKind.SYNC:
                self.core_sync.setdefault(rec[2], []).append(
                    (rec[1], rec[0].consts["what"], rec[4]))
            else:  # LINE_HANDOFF: (..., from, to)
                _shape, _cycle, _core, block, source, target = rec
                self.handoffs[block] = self.handoffs.get(block, 0) + 1
                cores = self.handoff_cores.get(block)
                if cores is None:
                    cores = self.handoff_cores[block] = set()
                for who in (source, target):
                    if who is not None and who >= 0:
                        cores.add(who)

    def blame_payload(self, per_core_finish: List[int]) -> Dict[str, object]:
        """Build the JSON-ready blame payload (no result needed)."""
        path = extract_critical_path(self.core_ops, self.core_sync,
                                     per_core_finish)
        gate_totals: Dict[str, int] = {}
        hidden_totals: Dict[str, int] = {}
        per_block: Dict[int, Dict[str, int]] = {}
        for block, gate in self.block_gate.items():
            merge_into(gate_totals, gate)
            per_block[block] = bd = dict(gate)
            hidden = self.block_hidden.get(block)
            if hidden:
                merge_into(hidden_totals, hidden)
                merge_into(bd, hidden)
        blocks = sorted(per_block.items(),
                        key=lambda kv: -sum(kv[1].values()))
        top = [{
            "block": f"{block:#x}",
            "cycles": sum(bd.values()),
            "bd": dict(sorted(bd.items())),
            "handoffs": self.handoffs.get(block, 0),
            "handoff_cores": len(self.handoff_cores.get(block, ())),
        } for block, bd in blocks[:self.top_blocks]]
        return {
            "schema": BLAME_SCHEMA,
            "ops": sum(map(len, self.core_ops.values())),
            "gate_totals": dict(sorted(gate_totals.items())),
            "hidden_totals": dict(sorted(hidden_totals.items())),
            "critical_path": path,
            "top_blocks": top,
            "handoffs_total": sum(self.handoffs.values()),
        }

    def finalize(self, result) -> None:
        result.metadata["blame"] = self.blame_payload(
            list(result.per_core_finish))


def _amt_group(amt: Optional[Tuple[bool, Optional[int]]]) -> str:
    """Audit group for one decided AMO's pre-decide AMT snapshot."""
    if amt is None:
        return "static"
    hit, confidence = amt
    if not hit:
        return "amt-miss"
    return "amt-hit" if confidence else "amt-hit-zero"


class AuditSink(Sink):
    """Records every ``decide()`` outcome and scores it after the fact.

    Each decided AMO event (near or far) carries the policy's
    side-effect-free pre-decide AMT snapshot (its ``amt`` field) and its
    realized latency.  At finalize time the sink computes, per block,
    the mean realized latency of each placement, and scores every
    decision against the *opposite* placement's mean on the same block
    (global mean as fallback): positive ``est_saved`` cycles mean the
    chosen placement beat the counterfactual.

    The counterfactual is observational, not a re-simulation — blocks
    only ever executed one way under a static policy score as "no
    alternative observed" and contribute zero.
    """

    wants_stamps = True
    batched = True
    kinds = frozenset({EventKind.AMO_NEAR, EventKind.AMO_FAR})

    def __init__(self) -> None:
        #: decision records: (block, near?, group, realized latency).
        self.decisions: List[Tuple[int, bool, str, int]] = []
        self.unique_fast = 0

    def on_records(self, records: List[tuple]) -> None:
        decisions = self.decisions
        for rec_shape, _cycle, _core, block, amt, _cas, decided, lat \
                in records:
            if not decided:
                self.unique_fast += 1
                continue
            if isinstance(amt, list):  # trace round-trips make lists
                amt = tuple(amt)
            decisions.append((block, rec_shape.kind is EventKind.AMO_NEAR,
                              _amt_group(amt), lat))

    def audit_payload(self) -> Dict[str, object]:
        # Per-block realized latency means for each placement.
        sums: Dict[Tuple[int, bool], List[int]] = {}
        glob = {True: [0, 0], False: [0, 0]}
        for block, near, _group, lat in self.decisions:
            cell = sums.setdefault((block, near), [0, 0])
            cell[0] += lat
            cell[1] += 1
            glob[near][0] += lat
            glob[near][1] += 1

        def mean(block: int, near: bool) -> Optional[float]:
            cell = sums.get((block, near))
            if cell:
                return cell[0] / cell[1]
            total, count = glob[near]
            return total / count if count else None

        groups: Dict[str, Dict[str, float]] = {}
        scored = 0
        for block, near, group, lat in self.decisions:
            key = f"{'near' if near else 'far'}/{group}"
            row = groups.setdefault(key, {
                "count": 0, "cycles": 0, "est_saved": 0.0, "scored": 0})
            row["count"] += 1
            row["cycles"] += lat
            counter = mean(block, not near)
            if counter is not None:
                row["est_saved"] += counter - lat
                row["scored"] += 1
                scored += 1
        for row in groups.values():
            row["est_saved"] = round(row["est_saved"], 1)
        saved = sum(r["est_saved"] for r in groups.values()
                    if r["est_saved"] > 0)
        lost = -sum(r["est_saved"] for r in groups.values()
                    if r["est_saved"] < 0)
        return {
            "schema": AUDIT_SCHEMA,
            "decided": len(self.decisions),
            "unique_fast": self.unique_fast,
            "scored": scored,
            "groups": {k: groups[k] for k in sorted(groups)},
            "cycles_saved": round(saved, 1),
            "cycles_lost": round(lost, 1),
            "net_est_saved": round(saved - lost, 1),
        }

    def finalize(self, result) -> None:
        result.metadata["amt_audit"] = self.audit_payload()
