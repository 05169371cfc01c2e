"""Symbolic dry-run collector: run workload generators without the simulator.

Every workload program is a generator that *receives memory values back*
(that is what makes spin loops spin), so purely static inspection cannot
see past the first ``yield``.  The collector therefore executes all cores
**cooperatively** against a lightweight functional memory: one operation
per core per round, values applied immediately, no timing at all.  Under
this scheduling every blocking idiom the sync layer uses terminates
naturally — a CAS acquire eventually observes the zero its holder's
release wrote, a barrier spinner observes the flipped sense word — because
the core it waits for keeps making progress in the same round-robin.

What the collector records per operation is exactly what the checkers
need: the issuing core, the per-core operation index, the address, the
operation class, the *lockset* (sync locks held at that instant) and the
*barrier epoch* (how many barrier arrivals the core has performed).
Lock and barrier words are recognized by introspecting the workload for
:class:`~repro.sync.mutex.PthreadMutex`, :class:`~repro.sync.spinlock.SpinLock`
and :class:`~repro.sync.barrier.SenseBarrier` instances, so their own
internal traffic (spin reads, sense flips, the mutex's Fig. 4 bookkeeping
writes) is classified as synchronization rather than data.

Boundedness: the dry run is a *bounded unrolling*.  Two guards make it
total: a global step budget (``max_steps``) truncates pathological
workloads, and a stale-round detector notices when every live core has
stopped writing memory — which, cooperatively, can only mean all of them
are spinning on values nobody will ever change (a skipped barrier, a
never-released lock).  Stuck cores are reported with the address they
were spinning on, which the sync checkers translate into deadlock /
barrier-divergence findings.  See DESIGN.md ("Static analysis") for why
bounded unrolling is sound for these block-granularity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.frontend.isa import AmoKind, MemOp, OpType, apply_amo
from repro.sync.barrier import SenseBarrier
from repro.sync.mutex import PthreadMutex
from repro.sync.spinlock import SpinLock
from repro.workloads.base import Workload

#: Default total-operation budget across all cores (bounded unrolling).
DEFAULT_MAX_STEPS = 5_000_000
#: Consecutive write-free scheduler rounds before declaring all live
#: cores stuck.  A round with no write and no completion means every
#: live core executed a read/think — progress is still possible (finite
#: read streams drain), but ``STALE_LIMIT`` rounds of it means the reads
#: are spins on values no one will change.
DEFAULT_STALE_LIMIT = 3_000


@dataclass(frozen=True)
class LockInfo:
    """A recognized lock: its word address and bookkeeping addresses."""

    word: int
    kind: str  # "mutex" | "spinlock"
    #: non-word addresses belonging to the same object (mutex Owner/Kind/
    #: NUsers fields) — classified as lock-internal traffic.
    internal: FrozenSet[int]


@dataclass(frozen=True)
class BarrierInfo:
    """A recognized sense-reversing barrier."""

    count_addr: int
    sense_addr: int
    nthreads: int


@dataclass(frozen=True)
class Access:
    """One *data* (non-synchronization) memory operation."""

    core: int
    seq: int  # per-core operation index (provenance)
    op: OpType
    addr: int
    amo: Optional[AmoKind]
    lockset: FrozenSet[int]
    epoch: int

    @property
    def block(self) -> int:
        return self.addr >> 6

    @property
    def is_write(self) -> bool:
        return self.op is not OpType.READ

    @property
    def is_plain_write(self) -> bool:
        return self.op is OpType.WRITE

    @property
    def is_amo(self) -> bool:
        return self.op in (OpType.AMO_LOAD, OpType.AMO_STORE)

    def cite(self) -> str:
        return f"core{self.core}/op{self.seq}"


@dataclass(frozen=True)
class LockEvent:
    """A lock acquire/release/contend/misuse observation."""

    core: int
    seq: int
    lock: int
    #: "acquire" | "release" | "contend" | "bad-release" | "held-at-exit"
    action: str
    #: locks already held at an acquire, in acquisition order.
    held_before: Tuple[int, ...] = ()


@dataclass(frozen=True)
class BarrierArrival:
    core: int
    seq: int
    barrier: int  # count_addr identifies the barrier object
    #: this core's arrival number at this barrier (0-based).
    arrival_index: int


@dataclass(frozen=True)
class Stall:
    """A core that spun forever in the dry run."""

    core: int
    addr: Optional[int]  # address of the last non-THINK operation
    kind: str  # "lock" | "barrier" | "data" | "idle"


@dataclass
class DryRunTrace:
    """Everything one workload dry run produced, checker-ready."""

    workload: str
    num_threads: int
    accesses: List[Access] = field(default_factory=list)
    lock_events: List[LockEvent] = field(default_factory=list)
    barrier_arrivals: List[BarrierArrival] = field(default_factory=list)
    stalls: List[Stall] = field(default_factory=list)
    locks: Dict[int, LockInfo] = field(default_factory=dict)
    barriers: Dict[int, BarrierInfo] = field(default_factory=dict)
    truncated: bool = False
    total_ops: int = 0


# ----------------------------------------------------------------------
# sync-object discovery
# ----------------------------------------------------------------------

def discover_sync_objects(
        workload: Workload,
        max_depth: int = 4) -> Tuple[Dict[int, LockInfo],
                                     Dict[int, BarrierInfo]]:
    """Find the sync primitives a workload holds, however nested.

    Walks the workload's attributes (recursing through lists, tuples,
    sets and dict values up to ``max_depth``) and collects every
    :class:`PthreadMutex`, :class:`SpinLock` and :class:`SenseBarrier`.
    """
    locks: Dict[int, LockInfo] = {}
    barriers: Dict[int, BarrierInfo] = {}
    seen: Set[int] = set()

    def visit(obj: object, depth: int) -> None:
        if depth > max_depth or id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, PthreadMutex):
            locks[obj.lock_addr] = LockInfo(
                obj.lock_addr, "mutex",
                frozenset((obj.owner_addr, obj.kind_addr, obj.nusers_addr)))
            return
        if isinstance(obj, SpinLock):
            locks[obj.addr] = LockInfo(obj.addr, "spinlock", frozenset())
            return
        if isinstance(obj, SenseBarrier):
            barriers[obj.count_addr] = BarrierInfo(
                obj.count_addr, obj.sense_addr, obj.nthreads)
            return
        if isinstance(obj, (list, tuple, set, frozenset)):
            for item in obj:
                visit(item, depth + 1)
            return
        if isinstance(obj, dict):
            for item in obj.values():
                visit(item, depth + 1)
            return
        attrs = getattr(obj, "__dict__", None)
        if attrs is not None and depth < max_depth:
            for item in attrs.values():
                visit(item, depth + 1)

    for value in vars(workload).values():
        visit(value, 0)
    return locks, barriers


# ----------------------------------------------------------------------
# the cooperative interpreter
# ----------------------------------------------------------------------

def _is_release_store(op: MemOp) -> bool:
    """A store of 0 to a lock word: plain write, SWAP or no-return SWAP."""
    if op.type is OpType.WRITE:
        return op.value == 0
    if op.amo is AmoKind.SWAP:
        return op.value == 0
    return False


def collect(workload: Workload,
            max_steps: int = DEFAULT_MAX_STEPS,
            stale_limit: int = DEFAULT_STALE_LIMIT) -> DryRunTrace:
    """Dry-run ``workload`` and return the recorded trace.

    The run is deterministic: programs use seeded RNGs and the scheduler
    is strict round-robin over live cores.
    """
    locks, barriers = discover_sync_objects(workload)
    spec = getattr(type(workload), "spec", None)
    code = spec.code if spec is not None else "?"
    trace = DryRunTrace(workload=code, num_threads=workload.num_threads,
                        locks=locks, barriers=barriers)
    lock_internal: Dict[int, int] = {}
    for info in locks.values():
        for a in info.internal:
            lock_internal[a] = info.word
    barrier_addrs: Dict[int, BarrierInfo] = {}
    for b in barriers.values():
        barrier_addrs[b.count_addr] = b
        barrier_addrs[b.sense_addr] = b

    programs = workload.programs()
    n = len(programs)
    gens = [prog.run(core) for core, prog in enumerate(programs)]
    mem: Dict[int, int] = dict(workload.initial_values())

    live = [True] * n
    result: List[Optional[int]] = [None] * n
    primed = [False] * n
    seq = [0] * n
    epoch = [0] * n
    arrivals: List[Dict[int, int]] = [dict() for _ in range(n)]
    # held locks in acquisition order: lock word -> acquire seq.
    held: List[Dict[int, int]] = [dict() for _ in range(n)]
    last_addr: List[Optional[int]] = [None] * n
    total = 0
    stale_rounds = 0

    def finish_core(core: int) -> None:
        live[core] = False
        for lock_word in held[core]:
            trace.lock_events.append(LockEvent(
                core, seq[core], lock_word, "held-at-exit"))

    while any(live):
        wrote_this_round = False
        finished_this_round = False
        for core in range(n):
            if not live[core]:
                continue
            gen = gens[core]
            try:
                if not primed[core]:
                    primed[core] = True
                    op = gen.send(None)
                else:
                    op = gen.send(result[core])
            except StopIteration:
                finish_core(core)
                finished_this_round = True
                continue
            total += 1
            my_seq = seq[core]
            seq[core] += 1
            kind = op.type

            if kind is OpType.THINK or kind is OpType.MARK:
                # MARK: timing-neutral sync annotation; touches nothing.
                result[core] = None
                continue
            addr = op.addr
            last_addr[core] = addr

            # --- execute against the functional memory ---
            if kind is OpType.READ:
                result[core] = mem.get(addr, 0)
                old = result[core]
            elif kind is OpType.WRITE:
                mem[addr] = op.value
                result[core] = None
                old = None
                wrote_this_round = True
            else:  # AMO_LOAD / AMO_STORE
                old = mem.get(addr, 0)
                assert op.amo is not None
                mem[addr] = apply_amo(op.amo, old, op.value, op.expected)
                result[core] = old if kind is OpType.AMO_LOAD else None
                wrote_this_round = True

            # --- classify: lock word? ---
            if addr in locks:
                if op.amo is AmoKind.CAS:
                    if old == op.expected:
                        trace.lock_events.append(LockEvent(
                            core, my_seq, addr, "acquire",
                            tuple(held[core])))
                        held[core][addr] = my_seq
                    else:
                        trace.lock_events.append(LockEvent(
                            core, my_seq, addr, "contend"))
                elif _is_release_store(op):
                    if addr in held[core]:
                        del held[core][addr]
                        trace.lock_events.append(LockEvent(
                            core, my_seq, addr, "release"))
                    else:
                        trace.lock_events.append(LockEvent(
                            core, my_seq, addr, "bad-release"))
                # plain reads of the word are test-and-test-and-set spins.
                continue
            if addr in lock_internal:
                continue  # mutex Owner/Kind/NUsers bookkeeping (Fig. 4)

            # --- classify: barrier? ---
            binfo = barrier_addrs.get(addr)
            if binfo is not None:
                if (addr == binfo.count_addr and op.amo is AmoKind.ADD
                        and kind is OpType.AMO_LOAD):
                    index = arrivals[core].get(addr, 0)
                    arrivals[core][addr] = index + 1
                    trace.barrier_arrivals.append(BarrierArrival(
                        core, my_seq, binfo.count_addr, index))
                    epoch[core] += 1
                # count resets, sense writes and sense spins are internal.
                continue

            # --- plain data access ---
            trace.accesses.append(Access(
                core, my_seq, kind, addr, op.amo,
                frozenset(held[core]), epoch[core]))

        if total > max_steps:
            trace.truncated = True
            break
        if not any(live):
            break
        if wrote_this_round or finished_this_round:
            stale_rounds = 0
        else:
            stale_rounds += 1
            if stale_rounds > stale_limit:
                break

    # Any core still live at this point is stuck (stale rounds exceeded)
    # or truncated; report spinners with a classification of what they
    # were waiting on.
    if not trace.truncated:
        for core in range(n):
            if not live[core]:
                continue
            addr = last_addr[core]
            if addr is None:
                stall_kind = "idle"
            elif addr in locks:
                stall_kind = "lock"
            elif addr in barrier_addrs:
                stall_kind = "barrier"
            else:
                stall_kind = "data"
            trace.stalls.append(Stall(core, addr, stall_kind))

    trace.total_ops = total
    return trace
