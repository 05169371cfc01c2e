"""Simulation engine: runs per-core programs against a Machine.

Each core executes a *program* — a generator yielding
:class:`~repro.frontend.isa.MemOp` values and receiving each operation's
result back through ``send`` (see :mod:`repro.frontend.program`).  The
engine processes cores in global-time order from a min-heap keyed on each
core's local clock, so inter-core interactions (lock hand-offs, directory
serialization) happen in a causally consistent order.

Value binding: AMOs apply their read-modify-write atomically when issued
(their ordering *is* the simulation's linearization order), but plain
read results are carried as :class:`~repro.sim.machine.DeferredRead` and
resolved when the core wakes up at the read's completion time — by then
every operation that completed earlier has been applied, so spin loops
observe releases with realistic timing instead of racing on stale values.
"""

from __future__ import annotations

import heapq
import sys
from typing import Iterable, Optional

from repro.frontend.isa import OpType
from repro.frontend.program import Program
from repro.sim.machine import DeferredRead, Machine
from repro.sim.results import SimulationResult


class SimulationTimeout(RuntimeError):
    """A program failed to finish within the cycle budget (likely a
    livelock in the workload, e.g. a spin loop whose release never runs)."""


def run(machine: Machine, programs: Iterable[Program],
        max_cycles: Optional[int] = None) -> SimulationResult:
    """Run ``programs`` (one per core, at most ``num_cores``) to completion.

    Args:
        machine: the system to execute on (created fresh per run).
        programs: per-core instruction streams; cores beyond the list idle.
        max_cycles: optional safety budget; exceeded -> SimulationTimeout.

    Returns:
        A :class:`SimulationResult` with timing, stats and traffic.
    """
    progs = list(programs)
    if len(progs) > machine.config.num_cores:
        raise ValueError(
            f"{len(progs)} programs for {machine.config.num_cores} cores")
    machine.bus.bind(machine)

    iterators = [prog.run(core) for core, prog in enumerate(progs)]
    finish = [0] * len(progs)
    instructions = [0] * len(progs)
    amos = [0] * len(progs)
    pending = [None] * len(progs)

    # Hot-loop bindings: the heap loop below runs once per simulated
    # operation, so method and global lookups are hoisted to locals and
    # the op-type test uses enum identity instead of the is_amo property.
    execute = machine.execute
    values = machine.values
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    amo_load = OpType.AMO_LOAD
    amo_store = OpType.AMO_STORE
    think = OpType.THINK
    read_t = OpType.READ
    write_t = OpType.WRITE
    # Direct handler bindings: the loop performs Machine.execute's
    # dispatch itself (including the bus timestamp it starts with),
    # saving one call frame per simulated operation.  Unknown op types
    # still route through execute for its ValueError.
    read_h = machine._read
    amo_h = machine._amo
    write_h = machine._write
    bus = machine.bus
    if bus.observed:
        # Sinks subscribed: bind the observed wrapper, which runs the
        # same handlers (identical timing), records OP_RETIRE when a
        # sink reads it and hands full record blocks to the sinks.
        read_h = amo_h = write_h = machine._execute_observed
    # sys.maxsize keeps the timeout compare a plain int compare when no
    # budget is set (a simulation cannot reach 2**63 cycles).
    limit = max_cycles if max_cycles is not None else sys.maxsize

    heap = []
    for core, it in enumerate(iterators):
        try:
            op = it.send(None)
        except StopIteration:
            continue
        done, result = execute(core, op, 0)
        instructions[core] += op.instructions
        kind = op.type
        if kind is amo_load or kind is amo_store:
            amos[core] += 1
        pending[core] = result
        heap.append((done, core))
    heapq.heapify(heap)

    # The loop peeks heap[0] and uses heapreplace (one sift instead of
    # pop + push).  Keys are unique, totally ordered (done, core) tuples,
    # so the pop sequence — and therefore the simulation — is identical
    # to the pop/push formulation regardless of internal heap layout.
    while heap:
        now, core = heap[0]
        if now > limit:
            raise SimulationTimeout(
                f"core {core} passed {max_cycles} cycles; "
                "workload appears livelocked")
        result = pending[core]
        if type(result) is DeferredRead:
            result = values.get(result.addr, 0)
        try:
            op = iterators[core].send(result)
        except StopIteration:
            finish[core] = now
            heappop(heap)
            continue
        kind = op.type
        if kind is think:
            # THINK touches no machine state and emits no events: the
            # completion time is computable right here, saving the
            # dispatch round-trip for the most common op class.
            done = now + op.cycles
            pending[core] = None
        elif kind is read_t:
            bus.now = now
            done, next_result = read_h(core, op, now)
            pending[core] = next_result
        elif kind is amo_load or kind is amo_store:
            bus.now = now
            done, next_result = amo_h(core, op, now)
            amos[core] += 1
            pending[core] = next_result
        elif kind is write_t:
            bus.now = now
            done, next_result = write_h(core, op, now)
            pending[core] = next_result
        else:
            done, next_result = execute(core, op, now)
            pending[core] = next_result
        instructions[core] += op.instructions
        heapreplace(heap, (done, core))

    near = sum(ps.near_decisions for ps in machine.policy_stats)
    far = sum(ps.far_decisions for ps in machine.policy_stats)
    result = SimulationResult(
        policy=machine.policy_name,
        cycles=max(finish) if finish else 0,
        per_core_finish=finish,
        instructions=sum(instructions),
        amos_committed=sum(amos),
        stats=machine.stats,
        traffic=machine.traffic,
        near_decisions=near,
        far_decisions=far,
    )
    # Let instrumentation sinks annotate the finished run (e.g. the
    # energy sink attaches the dynamic-energy breakdown).
    machine.bus.finalize(result)
    return result
