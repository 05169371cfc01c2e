"""Instrumentation-bus tests: fast path, dispatch, tracing, invariants.

The bus must be invisible to timing (identical cycles with and without
event sinks), its stock sinks must be fused with the machine's hot-path
counters, and the opt-in sinks (trace, sanitizer, collector) must see a
stream that reconciles exactly with the run's final statistics.
"""

import io
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.modelcheck.sanitize import SanitizerSink
from repro.frontend import isa
from repro.frontend.program import GeneratorProgram
from repro.harness.executor import execute_spec, make_spec, serialize_result
from repro.harness.golden import (GOLDEN_POLICIES, GOLDEN_SCALE,
                                  GOLDEN_SEED, GOLDEN_THREADS)
from repro.noc.message import MsgType
from repro.obs.attribution import AuditSink, BlameSink
from repro.sim.config import TINY_CONFIG
from repro.sim.engine import run
from repro.sim.events import (CollectorSink, Event, EventBus, EventKind,
                              StatsSink, TraceSink, TrafficSink, trace_line)
from repro.sim.machine import Machine
from repro.sync.mutex import PthreadMutex

BLOCKS = [0x8000 + i * 64 for i in range(8)]


def mixed_program(seed, ops=150):
    """Random reads/writes/AMOs over a small shared footprint."""
    def body(core):
        rng = random.Random(seed * 7919 + core)
        for _ in range(ops):
            addr = rng.choice(BLOCKS)
            roll = rng.random()
            if roll < 0.3:
                yield isa.read(addr)
            elif roll < 0.5:
                yield isa.write(addr, rng.randrange(64))
            elif roll < 0.75:
                yield isa.stadd(addr, 1)
            else:
                yield isa.ldadd(addr, 1)
    return GeneratorProgram(body)


def run_with_sinks(policy="all-near", sinks=(), seed=3):
    bus = EventBus()
    for sink in sinks:
        bus.subscribe(sink)
    machine = Machine(TINY_CONFIG, policy, bus=bus)
    programs = [mixed_program(seed) for _ in range(TINY_CONFIG.num_cores)]
    result = run(machine, programs, max_cycles=50_000_000)
    return machine, result


# --- bus mechanics ----------------------------------------------------


def test_stock_sinks_do_not_activate_dispatch():
    bus = EventBus()
    assert not bus.active
    bus.subscribe(StatsSink())
    bus.subscribe(TrafficSink())
    assert not bus.active, "counter-only sinks must keep the fast path"
    collector = bus.subscribe(CollectorSink())
    assert bus.active
    bus.unsubscribe(collector)
    assert not bus.active


def test_every_kind_has_a_declared_gate():
    """Each kind's gate is declared on EventBus (type checkers read the
    declarations) and stays false until a sink reads the kind."""
    bus = EventBus()
    for kind in EventKind:
        gate = "wants_" + kind.name.lower()
        assert gate in EventBus.__annotations__
        assert getattr(bus, gate) is False


def test_machine_counters_are_fused_with_bus():
    machine = Machine(TINY_CONFIG, "all-near")
    assert machine.stats is machine.bus.stats
    assert machine.traffic is machine.bus.traffic
    assert machine.bus.stats is machine.bus.stats_sink.stats


def test_event_as_dict_flattens_info():
    ev = EventKind.AMO_NEAR
    d = Event(ev, 7, 2, 0x40, info={"op": "STADD"}).as_dict()
    assert d == {"kind": "amo-near", "cycle": 7, "core": 2,
                 "block": 0x40, "op": "STADD"}


# --- template trace lines ----------------------------------------------

_scalars = st.one_of(st.integers(), st.booleans(), st.none(),
                     st.text(max_size=8))
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
#: info keys, including the base fields an info key may override and a
#: '%' that the template must escape.
_keys = st.one_of(st.sampled_from(["kind", "cycle", "core", "block",
                                   "msg", "hops", "%s", "l\u00e4t"]),
                  st.text(max_size=6))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(EventKind)), cycle=st.integers(),
       core=st.integers(), block=st.integers(),
       info=st.one_of(st.none(),
                      st.dictionaries(_keys, _values, max_size=6)))
@example(kind=EventKind.AMO_NEAR, cycle=3, core=1, block=2,
         info={"decided": True, "cas_ok": False, "amt": (True, None),
               "latency": 1})
def test_trace_line_matches_json_dumps(kind, cycle, core, block, info):
    """The cached-template line is byte-identical to json.dumps."""
    event = Event(kind, cycle, core, block, info=info)
    assert trace_line(event) == \
        json.dumps(event.as_dict(), sort_keys=True) + "\n"


# --- routing by kind ----------------------------------------------------


class _NearOnly(CollectorSink):
    kinds = frozenset({EventKind.AMO_NEAR})


def test_kind_routed_sink_sees_exactly_its_kind_in_order():
    near, full = _NearOnly(), CollectorSink()
    run_with_sinks("dynamo-reuse-pn", sinks=[near, full])
    assert near.events
    assert near.events == full.by_kind(EventKind.AMO_NEAR)


def _golden_spec(workload, policy):
    return make_spec(workload, policy, threads=GOLDEN_THREADS,
                     scale=GOLDEN_SCALE, seed=GOLDEN_SEED)


def test_stamped_sinks_build_no_event_they_do_not_read(monkeypatch):
    """BlameSink + AuditSink (``repro why``): no MESSAGE, LLC_ACCESS or
    L1_EVICTION event is ever constructed, and the simulation is the
    quiet run's."""
    built = []
    init = Event.__init__

    def counting_init(self, kind, *args, **kwargs):
        built.append(kind)
        init(self, kind, *args, **kwargs)

    spec = _golden_spec("KVS", "dynamo-reuse-pn")
    quiet = serialize_result(execute_spec(spec))
    monkeypatch.setattr(Event, "__init__", counting_init)
    stamped = serialize_result(
        execute_spec(spec, extra_sinks=(BlameSink(), AuditSink())))
    kinds = set(built)
    assert kinds == BlameSink.kinds | AuditSink.kinds
    assert not kinds & {EventKind.MESSAGE, EventKind.LLC_ACCESS,
                        EventKind.L1_EVICTION}
    # AuditSink alone: not even OP_RETIRE events are built.
    built.clear()
    audited = serialize_result(execute_spec(spec, extra_sinks=(AuditSink(),)))
    assert set(built) == AuditSink.kinds
    assert audited["metadata"]["amt_audit"] == \
        stamped["metadata"]["amt_audit"]
    for payload in (stamped, audited, quiet):
        payload.pop("metadata")
    assert stamped == quiet and audited == quiet


def test_sanitizer_counts_on_a_golden_cell_are_unchanged():
    """Routing the sanitizer by kind checks exactly the events its old
    in-method filter did (counts computed before routing existed)."""
    sink = SanitizerSink()
    execute_spec(_golden_spec("KVS", "all-near"), extra_sinks=(sink,))
    assert (sink.checks, sink.sweeps) == (1851, 28)


# --- timing neutrality ------------------------------------------------


@pytest.mark.parametrize("policy", ["all-near", "unique-near",
                                    "dynamo-reuse-pn"])
def test_event_sinks_do_not_perturb_timing(policy):
    """A fully instrumented run must execute the exact same simulation."""
    _, plain = run_with_sinks(policy)
    collector = CollectorSink()
    trace = TraceSink(io.StringIO())
    _, instrumented = run_with_sinks(policy, sinks=[collector, trace])
    assert instrumented.cycles == plain.cycles
    assert instrumented.per_core_finish == plain.per_core_finish
    assert instrumented.stats.as_dict() == plain.stats.as_dict()
    assert instrumented.traffic.by_type() == plain.traffic.by_type()
    assert collector.events, "instrumented run should have emitted events"


# --- event-stream contents -------------------------------------------


def test_amo_events_reconcile_with_stats():
    collector = CollectorSink()
    _, result = run_with_sinks("dynamo-reuse-pn", sinks=[collector])
    near = collector.by_kind(EventKind.AMO_NEAR)
    far = collector.by_kind(EventKind.AMO_FAR)
    assert len(near) == result.stats.near_amos
    assert len(far) == result.stats.far_amos
    # Events flagged as policy decisions match the decision counters
    # (the rest took the Unique fast path past the policy).
    assert sum(1 for ev in near if ev.info["decided"]) == \
        result.near_decisions
    assert sum(1 for ev in far if ev.info["decided"]) == \
        result.far_decisions


def test_message_events_reconcile_with_traffic_meter():
    """Counts, flits and flit-hops of the MESSAGE stream all equal the
    meter's: a site that counts one hop value and emits another fails."""
    for policy in ("unique-near",) + GOLDEN_POLICIES:
        collector = CollectorSink()
        _, result = run_with_sinks(policy, sinks=[collector])
        messages = collector.by_kind(EventKind.MESSAGE)
        traffic = result.traffic
        assert sum(ev.info["count"] for ev in messages) == \
            traffic.total_messages(), policy
        by_type = {}
        flits = flit_hops = 0
        for ev in messages:
            info = ev.info
            by_type[info["msg"]] = by_type.get(info["msg"], 0) \
                + info["count"]
            msg_flits = MsgType[info["msg"]].flits * info["count"]
            flits += msg_flits
            flit_hops += msg_flits * info["hops"]
        assert by_type == traffic.by_type(), policy
        assert flits == traffic.flits, policy
        assert flit_hops == traffic.flit_hops, policy


def test_void_snoop_emits_messages_but_no_snoop_event():
    """A directory owner that no longer holds the line is snooped for
    nothing: the SNOOP/SNOOP_RESP messages are counted and emitted, but
    no SNOOP event is, and an unobserved run counts the same traffic."""
    block = 0x9000 >> 6
    traffic = []
    for sinks in ((), (CollectorSink(),)):
        bus = EventBus()
        for sink in sinks:
            bus.subscribe(sink)
        machine = Machine(TINY_CONFIG, "all-near", bus=bus)
        machine.directory.entry(block).owner = 1  # core 1 holds nothing
        machine.execute(0, isa.read(0x9000), 0)
        traffic.append((machine.traffic.by_type(), machine.traffic.flits,
                        machine.traffic.flit_hops))
    collector = sinks[0]
    assert not collector.by_kind(EventKind.SNOOP)
    hops = machine.mesh.s2c_hops[block % TINY_CONFIG.llc_slices][1]
    snoop_msgs = [(ev.info["msg"], ev.info["hops"])
                  for ev in collector.by_kind(EventKind.MESSAGE)
                  if ev.info["msg"].startswith("SNOOP")]
    assert snoop_msgs == [("SNOOP", hops), ("SNOOP_RESP", hops)]
    assert traffic[0] == traffic[1]
    assert traffic[0][0]["SNOOP"] == traffic[0][0]["SNOOP_RESP"] == 1


def test_component_emitters_present():
    """Cache, directory and message events all appear on a contended run."""
    collector = CollectorSink()
    _, result = run_with_sinks("unique-near", sinks=[collector])
    kinds = {ev.kind for ev in collector.events}
    assert EventKind.LLC_ACCESS in kinds
    assert EventKind.MESSAGE in kinds
    assert EventKind.INVALIDATION in kinds
    assert EventKind.LINE_HANDOFF in kinds
    llc = collector.by_kind(EventKind.LLC_ACCESS)
    assert all(ev.block >= 0 for ev in llc)
    assert all(0 <= ev.info["slice"] < TINY_CONFIG.llc_slices
               for ev in llc)


def test_trace_sink_writes_parseable_jsonl():
    buf = io.StringIO()
    sink = TraceSink(buf)
    _, result = run_with_sinks("dynamo-reuse-pn", sinks=[sink])
    lines = buf.getvalue().splitlines()
    assert len(lines) == sink.events_written > 0
    near = far = near_decided = far_decided = 0
    for line in lines:
        record = json.loads(line)
        assert {"kind", "cycle", "core", "block"} <= set(record)
        if record["kind"] == "amo-near":
            near += 1
            near_decided += record["decided"]
        elif record["kind"] == "amo-far":
            far += 1
            far_decided += record["decided"]
    assert near == sink.near_events == result.stats.near_amos
    assert far == sink.far_events == result.stats.far_amos
    # AMO records flagged `decided` are the policy's placement calls and
    # reconcile exactly with the result's decision counters.
    assert near_decided == result.near_decisions
    assert far_decided == result.far_decisions


def test_trace_sink_owns_path(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = TraceSink(str(path))
    _, _result = run_with_sinks("all-near", sinks=[sink])
    sink.close()
    sink.close()  # idempotent
    lines = path.read_text().splitlines()
    assert lines and all(json.loads(line) for line in lines)


# --- invariant checking under contention ------------------------------


def lock_program(mutex, counter_addr, rounds):
    def body(core):
        for _ in range(rounds):
            yield from mutex.acquire(core)
            val = yield isa.read(counter_addr)
            yield isa.write(counter_addr, (val or 0) + 1)
            yield from mutex.release(core)
    return GeneratorProgram(body)


@pytest.mark.parametrize("policy", ["all-near", "shared-far",
                                    "dynamo-reuse-pn"])
def test_sanitizer_sink_contended_lock(policy):
    """Coherence invariants hold mid-run under a contended pthread mutex."""
    bus = EventBus()
    machine = Machine(TINY_CONFIG, policy, bus=bus)
    sink = bus.subscribe(SanitizerSink(full_check_every=1))
    mutex = PthreadMutex(0x10000)
    counter = 0x10040
    rounds = 10
    programs = [lock_program(mutex, counter, rounds)
                for _ in range(TINY_CONFIG.num_cores)]
    run(machine, programs, max_cycles=50_000_000)
    assert sink.checks > 0, "contended locking must exercise the checker"
    assert sink.sweeps > 0, "every checked event must run a full SWMR sweep"
    assert machine.read_value(counter) == rounds * TINY_CONFIG.num_cores
