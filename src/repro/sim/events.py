"""Instrumentation bus: simulation records decoupled from timing.

The machine, the private caches and the home nodes report what happens
(AMO placements, snoops, invalidations, LLC/DRAM accesses, line
handoffs, protocol messages) to an :class:`EventBus`.  The stock sinks
(:class:`StatsSink`, :class:`TrafficSink`, the energy sink) are *fused*:
emitters update the counter block and traffic meter the bus hands out.
Every other sink declares the kinds it reads (:attr:`Sink.kinds`), and
each emission site tests its kind's gate (``bus.wants_<kind>``), so an
unread kind costs one attribute test.  Behind the gate the site appends
one flat tuple to the bus's buffer, ``(shape, cycle, core, block,
*fields)``: the :class:`Shape` bakes in the kind and the constant
strings (message, op and AMO names, the SYNC marker), and the fields
follow in ``sort_keys`` order, None where the shape omits one.

The bus hands the buffer to the sinks in blocks of
:data:`BLOCK_RECORDS`, and the partial block at run end.  Batched sinks
fold a block in one loop: the trace sinks render it through the shapes'
templates with one write or hash update per block, the aggregating
sinks index the tuples.  While a sink that is not batched (it reads
live machine state, or takes :class:`Event` objects) is subscribed, the
bus flushes after every record, so that sink sees each record as it is
emitted.
"""

from __future__ import annotations

import enum
import json
from typing import IO, Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.noc.message import TrafficMeter
from repro.sim.results import MachineStats

#: Records the bus buffers before it hands them to the batched sinks.
BLOCK_RECORDS = 256


class EventKind(enum.Enum):
    """Typed simulation event classes (value = stable trace name).

    Each kind declares its record schema: the constant fields a shape
    may bake in, then the variable fields of its records in
    ``sort_keys`` order with their JSON types (``i`` int, ``b`` bool,
    ``n`` int or None, ``j`` any JSON value).  ``slot`` is a dense int
    per kind, for lists indexed by kind.
    """

    slot: int
    consts: FrozenSet[str]
    fields: Tuple[Tuple[str, str], ...]

    def __new__(cls, value: str, consts: str, fields: str) -> "EventKind":
        obj = object.__new__(cls)
        obj._value_ = value
        obj.slot = len(cls.__members__)
        obj.consts = frozenset(consts.split())
        obj.fields = tuple(tuple(f.split(":")) for f in fields.split())
        return obj

    #: an AMO executed in the requesting core's L1D.
    AMO_NEAR = ("amo-near", "amo op", "amt:j cas_ok:b decided:b latency:i")
    #: an AMO executed at the block's home node.
    AMO_FAR = ("amo-far", "amo op", "amt:j cas_ok:b decided:b latency:i")
    #: the home node snooped a private cache.
    SNOOP = ("snoop", "", "slice:i with_data:b")
    #: a snoop removed a private copy.
    INVALIDATION = ("invalidation", "state", "requestor:n was_in_l1:b")
    #: a snoop downgraded an exclusive copy to shared.
    DOWNGRADE = ("downgrade", "", "")
    #: exclusive ownership of a line moved between agents.
    LINE_HANDOFF = ("line-handoff", "", "from:i to:i")
    #: an LLC slice data-array lookup (hit or miss).
    LLC_ACCESS = ("llc-access", "", "hit:b slice:i")
    #: a DRAM read issued by a home node.
    DRAM_READ = ("dram-read", "", "channel:i")
    #: a DRAM write (LLC victim writeback).
    DRAM_WRITE = ("dram-write", "", "channel:i")
    #: a protocol message crossed the mesh.
    MESSAGE = ("message", "count msg", "dequeue:i enqueue:i hops:i")
    #: a block departed an L1D (spill to L2 or out of the hierarchy).
    L1_EVICTION = ("l1-eviction", "",
                   "fetched_by_amo:b left_hierarchy:b reused:b")
    #: a store-class op stalled on a full store buffer.
    STORE_BUFFER_STALL = ("store-buffer-stall", "", "stalled_until:i")
    #: a memory op retired with a per-category cycle breakdown
    #: (stamp-gated: only emitted when ``bus.stamps`` is True).
    OP_RETIRE = ("op-retire", "amo op", "bd:j drain_bd:j exec_bd:j lat:i")
    #: a sync phase marker (lock/barrier begin/acquired/release; also
    #: stamp-gated — see :data:`repro.frontend.isa.MARK_NAMES`).
    SYNC = ("sync", "what", "addr:i")


#: Kinds only the stamped execution path emits (``bus.stamps``).
_STAMP_KINDS = frozenset({EventKind.OP_RETIRE, EventKind.SYNC})

#: ``EventBus`` gate attribute of each kind, indexed by ``kind.slot``:
#: ``wants_amo_near``, ..., ``wants_message``, ..., ``wants_sync``.
_GATES = tuple("wants_" + kind.name.lower() for kind in EventKind)


class Event:
    """One simulation event, the object form of a record.

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

    def __eq__(self, other: object) -> bool:
        """Value equality: each sink rebuilds its own Event per record."""
        return isinstance(other, Event) and (
            self.kind, self.cycle, self.core, self.block, self.info) == (
            other.kind, other.cycle, other.core, other.block, other.info)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.as_dict()!r})"


def trace_line(event: Event) -> str:
    """One JSONL trace line, newline included: the format ``--trace``
    files hold, the golden digests hash and :class:`Shape` renders."""
    return json.dumps(event.as_dict(), sort_keys=True) + "\n"


#: ``json.dumps(value, sort_keys=True)``, without an encoder per call.
_encode = json.JSONEncoder(sort_keys=True).encode
#: Expression rendering a record value of each JSON type.
_RENDER = {"i": "{}", "b": "B[{}]", "n": '("null" if {0} is None else {0})',
           "j": '("null" if {0} is None else E({0}))'}


class Shape:
    """One record layout: a kind, its baked-in constants and the fields
    its template renders (``present``: record index and name of each).

    ``render(record)`` returns the record's JSONL trace line, equal to
    :func:`trace_line` of :func:`event_of` the record; the template is
    generated at the first call.  Shapes are interned by :func:`shape`,
    so sinks may key tables on them.
    """

    __slots__ = ("kind", "slot", "consts", "present", "render")

    def __init__(self, kind: EventKind, omit: FrozenSet[str],
                 consts: Dict[str, object]) -> None:
        self.kind = kind
        self.slot = kind.slot
        self.consts = consts
        self.present = tuple((4 + i, name) for i, (name, _type)
                             in enumerate(kind.fields) if name not in omit)
        self.render: Callable[[tuple], str] = self._first_render

    def _first_render(self, record: tuple) -> str:
        # Sorted keys, each with its literal JSON text or, for a record
        # value, "%s" and the expression rendering it.
        kind = self.kind
        items = {"kind": (_encode(kind.value), ""), "cycle": ("%s", "r[1]"),
                 "core": ("%s", "r[2]"), "block": ("%s", "r[3]")}
        items.update((key, (_encode(value).replace("%", "%%"), ""))
                     for key, value in self.consts.items())
        for index, name in self.present:
            code = _RENDER[kind.fields[index - 4][1]].format(f"r[{index}]")
            items[name] = ("%s", code)
        items = dict(sorted(items.items()))
        line = "{%s}\n" % ", ".join(f"{_encode(key)}: {text}"
                                    for key, (text, _code) in items.items())
        values = "".join(code + ", " for text, code in items.values() if code)
        # Generated once per shape: one tuple and one ``%`` per record.
        self.render = eval(f"lambda r: {line!r} % ({values})",
                           {"B": ("false", "true"), "E": _encode})
        return self.render(record)


_SHAPES: Dict[tuple, Shape] = {}


def shape(kind: EventKind, *omit: str, **consts: object) -> Shape:
    """The interned shape of ``kind``'s records with ``consts`` baked
    in, rendering every field of the kind but ``omit``."""
    key = (kind, frozenset(omit), tuple(sorted(consts.items())))
    found = _SHAPES.get(key)
    if found is None:
        found = _SHAPES[key] = Shape(kind, key[1], dict(key[2]))
    return found


def record_of(event: Event) -> tuple:
    """The record an :class:`Event` stands for (tests and emitters
    outside the simulator).  Its info keys must be fields of its kind,
    with values of the schema's types."""
    kind = event.kind
    info = event.info or {}
    names = [name for name, _type in kind.fields]
    unknown = sorted(set(info) - kind.consts - set(names))
    if unknown:
        raise ValueError(f"{kind.value} records have no field {unknown}")
    return (shape(kind, *(name for name in names if name not in info),
                  **{k: v for k, v in info.items() if k in kind.consts}),
            event.cycle, event.core, event.block,
            *(info.get(name) for name in names))


def event_of(record: tuple) -> Event:
    """The :class:`Event` a record stands for."""
    info = dict(record[0].consts)
    for index, name in record[0].present:
        info[name] = record[index]
    return Event(record[0].kind, record[1], record[2], record[3],
                 info or None)


class Sink:
    """Base consumer.

    ``kinds`` declares the event kinds the sink reads: the bus hands
    each sink only records of those kinds, so a sink never filters by
    kind itself, and a kind no subscribed sink reads is never recorded.
    Sinks that only aggregate through the fused stores or only act at
    ``finalize`` time declare ``kinds = frozenset()``.
    """

    #: True when this sink also needs the *stamp* events (OP_RETIRE
    #: breakdowns, SYNC markers, per-AMO audit fields), which put the
    #: machine on its timing-identical but slower instrumented path.
    wants_stamps = False
    #: The event kinds the sink reads (a frozenset of
    #: :class:`EventKind`); None, the default, means every kind.
    kinds: Optional[FrozenSet[EventKind]] = None
    #: True when :meth:`on_records` folds whole blocks.  False (the
    #: default) makes the bus flush after every record while this sink
    #: is subscribed: a sink that reads live machine state, or takes
    #: :class:`Event` objects through :meth:`on_event`, needs that.
    batched = False

    def bind_machine(self, machine) -> None:
        """Run-start hook: the engine announces the machine under test,
        for sinks that sample live component state (the default is a
        no-op, so sinks stay constructible without a machine)."""

    def on_records(self, records: List[tuple]) -> None:
        """Receive a block of records of kinds in ``kinds``, in order;
        the default hands each to :meth:`on_event` as an Event."""
        for record in records:
            self.on_event(event_of(record))

    def on_event(self, event: Event) -> None:
        """Receive one event.  A batched sink folds it as a one-record
        block (tests and offline replays feed sinks Events)."""
        if self.batched:
            self.on_records([record_of(event)])

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

    ``wants_<kind>`` is True iff a subscribed sink reads that kind (the
    stamp kinds OP_RETIRE and SYNC only while ``stamps`` is set); an
    emitter tests it, then calls ``append(record)``.  While ``observed``
    (any gate open) the engine runs every memory op through
    ``Machine._execute_observed``, which flushes full blocks.  ``now``
    is the current cycle, for emitters that have no clock of their own.
    """

    __slots__ = ("stats", "traffic", "now", "stamps", "observed", "records",
                 "append", "block_records", "_sinks", "_consumers",
                 "stats_sink", "traffic_sink") + _GATES

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
        #: the record buffer, and the block size it is flushed at.
        self.records: List[tuple] = []
        self.block_records = BLOCK_RECORDS
        self._sinks: List[Sink] = [self.stats_sink, self.traffic_sink]
        self._refresh()

    # --- subscription -------------------------------------------------

    def subscribe(self, sink: Sink) -> Sink:
        """Attach ``sink``; returns it for chaining."""
        self.flush()
        self._sinks.append(sink)
        self._refresh()
        return sink

    def unsubscribe(self, sink: Sink) -> None:
        self.flush()
        self._sinks.remove(sink)
        self._refresh()

    def _refresh(self) -> None:
        #: True iff a subscribed sink wants stamp events.
        self.stamps = any(s.wants_stamps for s in self._sinks)
        open_slots = set()
        for kind in EventKind:
            wanted = (self.stamps or kind not in _STAMP_KINDS) and any(
                s.kinds is None or kind in s.kinds for s in self._sinks)
            setattr(self, _GATES[kind.slot], wanted)
            if wanted:
                open_slots.add(kind.slot)
        self.observed = bool(open_slots)
        #: ``(sink, slots)`` per reading sink; ``slots`` is None when the
        #: sink reads every kind that can be recorded.
        self._consumers: List[Tuple[Sink, Optional[FrozenSet[int]]]] = []
        for sink in self._sinks:
            slots = open_slots if sink.kinds is None else \
                open_slots & {kind.slot for kind in sink.kinds}
            if slots:
                self._consumers.append(
                    (sink, None if slots == open_slots else frozenset(slots)))
        live = any(not sink.batched for sink, _ in self._consumers)
        self.append: Callable[[tuple], None] = (
            self._append_live if live else self.records.append)

    # --- records (only appended behind the kind's ``wants_*`` gate) ---

    def _append_live(self, record: tuple) -> None:
        self.records.append(record)
        self.flush()

    def flush(self) -> None:
        """Hand the buffered records to their sinks as one block."""
        records = self.records
        if not records:
            return
        block = records.copy()
        records.clear()
        for sink, slots in self._consumers:
            if slots is None:
                sink.on_records(block)
            else:
                part = [rec for rec in block if rec[0].slot in slots]
                if part:
                    sink.on_records(part)

    def emit(self, event: Event) -> None:
        """Record one :class:`Event` if a sink reads its kind (emitters
        outside the simulator, tests)."""
        if getattr(self, _GATES[event.kind.slot]):
            self.append(record_of(event))

    # --- lifecycle ----------------------------------------------------

    def bind(self, machine) -> None:
        """Announce the machine to every sink (called once per run)."""
        for sink in self._sinks:
            sink.bind_machine(machine)

    def finalize(self, result) -> None:
        """Flush the partial block, then let every sink annotate the
        finished result."""
        self.flush()
        for sink in self._sinks:
            sink.finalize(result)

    def close(self) -> None:
        """Flush what a failed run left buffered, then close every sink."""
        try:
            self.flush()
        finally:
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

    batched = True

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

    def on_records(self, records: List[tuple]) -> None:
        self._fh.write("".join([rec[0].render(rec) for rec in records]))
        self.events_written += len(records)
        kinds = [rec[0].kind for rec in records]
        self.near_events += kinds.count(EventKind.AMO_NEAR)
        self.far_events += kinds.count(EventKind.AMO_FAR)

    def close(self) -> None:
        if self._fh.closed:
            return
        if self._owns:
            self._fh.close()
        else:
            self._fh.flush()


class CollectorSink(Sink):
    """Keeps every event in memory (tests and ad-hoc analysis).

    Not batched: tests and the model checker read ``events`` mid-run,
    so each record reaches the collector as it is emitted.
    """

    def __init__(self) -> None:
        self.events: List[Event] = []

    def on_event(self, event: Event) -> None:
        self.events.append(event)

    def by_kind(self, kind: EventKind) -> List[Event]:
        return [ev for ev in self.events if ev.kind is kind]
