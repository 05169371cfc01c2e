"""Instrumentation bus: typed simulation events decoupled from timing.

The machine, the private caches and the home nodes *emit* events (AMO
placements, snoops, invalidations, LLC/DRAM accesses, line handoffs,
protocol messages) to an :class:`EventBus` instead of owning their
observability.  Consumers subscribe :class:`Sink` objects:

* the three *stock* sinks — :class:`StatsSink` (the `MachineStats`
  counter block), :class:`TrafficSink` (the NoC `TrafficMeter`) and the
  energy sink (:class:`repro.energy.model.EnergySink`) — reproduce the
  accounting the machine previously hard-wired;
* :class:`TraceSink` records an opt-in structured per-op JSONL trace
  (``python -m repro run --trace FILE``);
* :class:`CollectorSink` keeps every event in memory (tests).

Runtime coherence checking lives with the model checker's predicates:
:class:`repro.analysis.modelcheck.sanitize.SanitizerSink`.

Fast path: pure counters *are* their own events — a counter increment
carries no information beyond "this event happened" — so the stock
stats/traffic sinks are **fused**: the bus hands emitters a direct
reference to the underlying counter block and meter.  Everything else
is routed by kind: each sink declares the kinds it reads
(:attr:`Sink.kinds`), the bus keeps one sink tuple per kind, and every
emission site tests its kind's gate (``bus.wants_<kind>``, e.g.
``bus.wants_message``) before it builds the info dict and the
:class:`Event`.  An event no subscribed sink reads is never built, and
with only the stock sinks attached each emission site costs one
attribute test.
"""

from __future__ import annotations

import enum
import json
from operator import itemgetter
from typing import IO, Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.noc.message import TrafficMeter
from repro.sim.results import MachineStats


class EventKind(enum.Enum):
    """Typed simulation event classes (value = stable trace name)."""

    #: an AMO executed in the requesting core's L1D.
    AMO_NEAR = "amo-near"
    #: an AMO executed at the block's home node.
    AMO_FAR = "amo-far"
    #: the home node snooped a private cache.
    SNOOP = "snoop"
    #: a snoop removed a private copy.
    INVALIDATION = "invalidation"
    #: a snoop downgraded an exclusive copy to shared.
    DOWNGRADE = "downgrade"
    #: exclusive ownership of a line moved between agents.
    LINE_HANDOFF = "line-handoff"
    #: an LLC slice data-array lookup (hit or miss).
    LLC_ACCESS = "llc-access"
    #: a DRAM read issued by a home node.
    DRAM_READ = "dram-read"
    #: a DRAM write (LLC victim writeback).
    DRAM_WRITE = "dram-write"
    #: a protocol message crossed the mesh.
    MESSAGE = "message"
    #: a block departed an L1D (spill to L2 or out of the hierarchy).
    L1_EVICTION = "l1-eviction"
    #: a store-class op stalled on a full store buffer.
    STORE_BUFFER_STALL = "store-buffer-stall"
    #: a memory op retired with a per-category cycle breakdown
    #: (stamp-gated: only emitted when ``bus.stamps`` is True).
    OP_RETIRE = "op-retire"
    #: a sync phase marker (lock/barrier begin/acquired/release; also
    #: stamp-gated — see :data:`repro.frontend.isa.MARK_NAMES`).
    SYNC = "sync"

    #: A dense int per kind: the bus keeps its routes in a list indexed
    #: by it, because ``Enum.__hash__`` runs in Python and a dict keyed
    #: by EventKind would pay for it on every event.  (Annotation only,
    #: so not a member; set below.)
    slot: int


for _slot, _kind in enumerate(EventKind):
    _kind.slot = _slot
del _slot, _kind

#: Kinds only the stamped execution path emits (``bus.stamps``).
_STAMP_KINDS = frozenset({EventKind.OP_RETIRE, EventKind.SYNC})

#: ``EventBus`` gate attribute of each kind, indexed by ``kind.slot``:
#: ``wants_amo_near``, ..., ``wants_message``, ..., ``wants_sync``.
_GATES = tuple("wants_" + kind.name.lower() for kind in EventKind)


class Event:
    """One simulation event.

    ``core`` and ``block`` are -1 when the event has no core / block
    (e.g. a MESSAGE event); ``info`` carries kind-specific fields.
    """

    __slots__ = ("kind", "cycle", "core", "block", "info")

    def __init__(self, kind: EventKind, cycle: int, core: int = -1,
                 block: int = -1,
                 info: Optional[Dict[str, object]] = None) -> None:
        self.kind = kind
        self.cycle = cycle
        self.core = core
        self.block = block
        self.info = info

    def as_dict(self) -> Dict[str, object]:
        """Flat dict representation (the JSONL trace record)."""
        out: Dict[str, object] = {
            "kind": self.kind.value, "cycle": self.cycle,
            "core": self.core, "block": self.block,
        }
        if self.info:
            out.update(self.info)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.as_dict()!r})"


_encode_str = json.encoder.encode_basestring_ascii
#: ``json.dumps(value, sort_keys=True)`` without building an encoder
#: per call (``dumps`` constructs one whenever an option is passed).
_encode_nested = json.JSONEncoder(sort_keys=True).encode


def _encode(value: object) -> str:
    """A value other than an exact int as ``json.dumps(...,
    sort_keys=True)`` renders it, tested in the json encoder's order.
    Exact ints skip this: ``%s`` renders them as json does, and the
    ``type(value) is int`` test that routes them is False for bools, an
    int subclass."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _encode_str(value)
    return _encode_nested(value)


#: Per kind slot: info-key tuple -> (template, value picker).
_SHAPES: List[Dict[Tuple[str, ...], Tuple[str, Callable]]] = [
    {} for _ in EventKind]


def _compile_shape(kind: EventKind,
                   keys: Tuple[str, ...]) -> Tuple[str, Callable]:
    """The ``%``-template of one record shape, keys in ``sort_keys``
    order, and a picker of its values out of ``[cycle, core, block,
    *info.values()]``.  Info keys override the base fields, as in
    :meth:`Event.as_dict`."""
    sources: Dict[str, Optional[int]] = {
        "kind": None, "cycle": 0, "core": 1, "block": 2}
    for index, key in enumerate(keys):
        sources[key] = 3 + index
    fields = []
    order = []
    for key in sorted(sources):
        source = sources[key]
        if source is None:
            value = _encode_str(kind.value).replace("%", "%%")
        else:
            value = "%s"
            order.append(source)
        fields.append(_encode_str(key).replace("%", "%%") + ": " + value)
    return "{" + ", ".join(fields) + "}\n", itemgetter(*order)


def trace_line(event: Event) -> str:
    """One JSONL trace record, newline included: the bytes ``--trace``
    files hold and the golden trace digests hash.

    Byte-identical to ``json.dumps(event.as_dict(), sort_keys=True)``
    plus a newline (info keys are strings), but rendered from a template
    cached per ``(kind, info keys)`` shape: only nested values
    (breakdown dicts, AMT tuples) still go through a JSON encoder.
    """
    info = event.info
    if info:
        keys = tuple(info)
        values = [event.cycle, event.core, event.block, *info.values()]
    else:
        keys = ()
        values = [event.cycle, event.core, event.block]
    shapes = _SHAPES[event.kind.slot]
    shape = shapes.get(keys)
    if shape is None:
        shape = shapes[keys] = _compile_shape(event.kind, keys)
    template, pick = shape
    return template % pick([value if type(value) is int else _encode(value)
                            for value in values])


class Sink:
    """Base event consumer.

    ``kinds`` declares the event kinds the sink reads: the bus routes
    each event only to the sinks that read its kind, so a sink never
    filters by kind itself, and an event kind no subscribed sink reads
    is never built.  Sinks that only aggregate through the fused stores
    or only act at ``finalize`` time declare ``kinds = frozenset()``, so
    their presence forces no per-event dispatch at all.
    """

    #: True when this sink additionally needs the *stamp* events
    #: (OP_RETIRE breakdowns, SYNC markers, per-AMO audit fields).
    #: Stamps put the machine on an instrumented execution path that is
    #: timing-identical but slower in wall-clock, so they are gated
    #: separately from ``kinds``: a trace/digest sink can consume
    #: ordinary events without forcing stamp emission.
    wants_stamps = False
    #: The event kinds :meth:`on_event` reads (a frozenset of
    #: :class:`EventKind`); None, the default, means every kind.
    kinds: Optional[FrozenSet[EventKind]] = None

    def bind_machine(self, machine) -> None:
        """Run-start hook: the engine announces the machine under test.

        Sinks that sample live component state (policy tables, directory
        occupancy) grab their references here; the default is a no-op so
        sinks stay constructible without a machine (tests, offline use).
        """

    def on_event(self, event: Event) -> None:
        """Receive one event of a kind in ``kinds``."""

    def finalize(self, result) -> None:
        """Run-end hook: annotate the finished ``SimulationResult``."""

    def close(self) -> None:
        """Release resources (files, handles)."""


class StatsSink(Sink):
    """Stock sink owning the :class:`MachineStats` counter block.

    Fused: emitters increment ``.stats`` directly through the reference
    the bus hands out, so counting costs exactly what it did when the
    machine owned the counters.
    """

    kinds = frozenset()

    def __init__(self, stats: Optional[MachineStats] = None) -> None:
        self.stats = stats if stats is not None else MachineStats()


class TrafficSink(Sink):
    """Stock sink owning the NoC :class:`TrafficMeter` (fused)."""

    kinds = frozenset()

    def __init__(self, meter: Optional[TrafficMeter] = None) -> None:
        self.meter = meter if meter is not None else TrafficMeter()


class EventBus:
    """Connects emitters (machine, caches, home nodes) to sinks.

    Each kind has a gate, ``wants_<kind>`` (``wants_message``,
    ``wants_amo_near``, ...): True iff a subscribed sink reads that kind,
    and emitters guard every :meth:`emit` call, and the building of its
    event, on it.  The stamp kinds (OP_RETIRE, SYNC) are routed only
    while ``stamps`` is set.  ``now`` is the machine's current cycle,
    maintained so component emitters (which have no clock of their own)
    can stamp their events.
    """

    __slots__ = ("stats", "traffic", "now", "stamps", "_sinks",
                 "_routes", "stats_sink", "traffic_sink") + _GATES

    # The per-kind gates, one per EventKind (names in ``_GATES``).
    wants_amo_near: bool
    wants_amo_far: bool
    wants_snoop: bool
    wants_invalidation: bool
    wants_downgrade: bool
    wants_line_handoff: bool
    wants_llc_access: bool
    wants_dram_read: bool
    wants_dram_write: bool
    wants_message: bool
    wants_l1_eviction: bool
    wants_store_buffer_stall: bool
    wants_op_retire: bool
    wants_sync: bool

    def __init__(self, stats_sink: Optional[StatsSink] = None,
                 traffic_sink: Optional[TrafficSink] = None) -> None:
        self.stats_sink = stats_sink or StatsSink()
        self.traffic_sink = traffic_sink or TrafficSink()
        #: fused stores, referenced directly by the hot paths.
        self.stats = self.stats_sink.stats
        self.traffic = self.traffic_sink.meter
        self.now = 0
        self._sinks: List[Sink] = [self.stats_sink, self.traffic_sink]
        self._refresh()

    # --- subscription -------------------------------------------------

    def subscribe(self, sink: Sink) -> Sink:
        """Attach ``sink``; returns it for chaining."""
        self._sinks.append(sink)
        self._refresh()
        return sink

    def unsubscribe(self, sink: Sink) -> None:
        self._sinks.remove(sink)
        self._refresh()

    def _refresh(self) -> None:
        #: True iff a subscribed sink wants stamp events; the machine and
        #: engine select the instrumented (timing-identical) paths on it.
        self.stamps = any(s.wants_stamps for s in self._sinks)
        #: per-kind fan-out tuples, indexed by ``kind.slot``.
        self._routes: List[Tuple[Sink, ...]] = []
        for kind in EventKind:
            route: Tuple[Sink, ...] = ()
            if self.stamps or kind not in _STAMP_KINDS:
                route = tuple(s for s in self._sinks
                              if s.kinds is None or kind in s.kinds)
            self._routes.append(route)
            setattr(self, _GATES[kind.slot], bool(route))

    @property
    def sinks(self) -> List[Sink]:
        return list(self._sinks)

    # --- emission (only called behind the kind's ``wants_*`` gate) ----

    def emit(self, event: Event) -> None:
        for sink in self._routes[event.kind.slot]:
            sink.on_event(event)

    # --- lifecycle ----------------------------------------------------

    def bind(self, machine) -> None:
        """Announce the machine to every sink (called once per run)."""
        for sink in self._sinks:
            sink.bind_machine(machine)

    def finalize(self, result) -> None:
        """Let every sink annotate the finished result."""
        for sink in self._sinks:
            sink.finalize(result)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


class TraceSink(Sink):
    """Opt-in structured trace: one JSON object per event, one per line.

    Accepts a path (opened and owned by the sink) or an open file-like
    object (borrowed; not closed).  Counts near/far AMO events so traces
    can be reconciled against ``SimulationResult`` decision counters
    without re-parsing the file.

    ``stamps=True`` additionally requests the stamp events (OP_RETIRE
    breakdowns, SYNC markers, per-AMO audit fields), putting the machine
    on its instrumented execution path; plain traces never do.
    """

    def __init__(self, destination: Union[str, IO[str]],
                 stamps: bool = False) -> None:
        if stamps:
            self.wants_stamps = True  # instance override of the class gate
        if isinstance(destination, str):
            self._fh: IO[str] = open(destination, "w")
            self._owns = True
        else:
            self._fh = destination
            self._owns = False
        self.events_written = 0
        self.near_events = 0
        self.far_events = 0

    def on_event(self, event: Event) -> None:
        if event.kind is EventKind.AMO_NEAR:
            self.near_events += 1
        elif event.kind is EventKind.AMO_FAR:
            self.far_events += 1
        self._fh.write(trace_line(event))
        self.events_written += 1

    def close(self) -> None:
        if self._fh.closed:
            return
        if self._owns:
            self._fh.close()
        else:
            self._fh.flush()


class CollectorSink(Sink):
    """Keeps every event in memory (tests and ad-hoc analysis)."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def on_event(self, event: Event) -> None:
        self.events.append(event)

    def by_kind(self, kind: EventKind) -> List[Event]:
        return [ev for ev in self.events if ev.kind is kind]
