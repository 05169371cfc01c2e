"""The simulated multi-core machine: protocol + timing for every operation.

This is the transaction-level model described in DESIGN.md.  Cores hand the
machine one operation at a time (:meth:`Machine.execute`); the machine
walks the CHI flow the operation triggers (Fig. 2 of the paper), updating
coherence/directory state, per-line serialization times at the home nodes,
message traffic, and the data values atomics operate on, and returns when
the operation completes from the core's point of view.

Commit semantics (paper Section III-B1):

* ``READ`` and ``AMO_LOAD`` block the core until data returns;
  ``AMO_LOAD`` additionally pays a pipeline-refill overhead.
* ``WRITE`` and ``AMO_STORE`` retire through a finite store buffer: the
  core sees a 1-cycle issue unless the buffer is full, in which case it
  stalls until the oldest entry drains.

Hot-path style (DESIGN.md §9): the transaction handlers run millions of
times per simulation, so config scalars and the mesh's dense distance
tables are bound to instance attributes once at construction, ``max()``
chains over two or three ints are flattened to compares, and the
directory holder sets are walked without building union sets.  Every
transformation here is behaviour-preserving by definition of the golden
corpus (``repro golden``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.coherence.directory import DirEntry, DirectoryState, HomeNode
from repro.coherence.l1 import Departure, PrivateCacheHierarchy
from repro.coherence.states import CacheState
from repro.core.policy import Placement, PolicyStats
from repro.core.registry import make_policy
from repro.frontend.isa import (MARK_NAMES, AmoKind, MemOp, OpType,
                                apply_amo)
from repro.mem.address import AddressMap
from repro.mem.hbm import HbmMemory
from repro.noc.mesh import Mesh
from repro.noc.message import MsgType
from repro.sim.config import SystemConfig
from repro.sim.events import EventBus, EventKind, shape

# Message-class members and their flit sizes, bound as module constants
# for the inline traffic accounting in the handlers below (the inline
# form is TrafficMeter.record with count=1).  The Machine is the only
# message-accounting site: every message is counted inline (a request
# in Machine._request), and when a sink reads MESSAGE it is also
# recorded through Machine._message.
_READ_REQ, _ATOMIC_REQ = MsgType.READ_REQ, MsgType.ATOMIC_REQ
_COMP_DATA, _F_COMP_DATA = MsgType.COMP_DATA, MsgType.COMP_DATA.flits
_COMP_ACK, _F_COMP_ACK = MsgType.COMP_ACK, MsgType.COMP_ACK.flits
_AMO_DATA, _F_AMO_DATA = MsgType.AMO_DATA, MsgType.AMO_DATA.flits
_SNOOP, _F_SNOOP = MsgType.SNOOP, MsgType.SNOOP.flits
_SNOOP_RESP, _F_SNOOP_RESP = MsgType.SNOOP_RESP, MsgType.SNOOP_RESP.flits
_SNOOP_DATA, _F_SNOOP_DATA = MsgType.SNOOP_DATA, MsgType.SNOOP_DATA.flits
_WRITEBACK, _EVICT_NOTIFY = MsgType.WRITEBACK, MsgType.EVICT_NOTIFY
_MEM_READ, _F_MEM_READ = MsgType.MEM_READ, MsgType.MEM_READ.flits
_MEM_DATA, _F_MEM_DATA = MsgType.MEM_DATA, MsgType.MEM_DATA.flits
_MEM_WRITE, _F_MEM_WRITE = MsgType.MEM_WRITE, MsgType.MEM_WRITE.flits

# Record shapes (see repro.sim.events), built once so that a site costs
# one tuple and one append.  Names come from ``_name_``, the plain
# attribute behind the Python-level ``.name`` descriptor.
_K = EventKind
#: MESSAGE per MsgType: a plain message, and a request that queued at a
#: home node (with ``enqueue``/``dequeue``).
_MESSAGE = {m: shape(_K.MESSAGE, "dequeue", "enqueue", msg=m._name_, count=1)
            for m in MsgType}
_REQUEST = {m: shape(_K.MESSAGE, msg=m._name_, count=1) for m in MsgType}
#: AMO_NEAR / AMO_FAR per (near, op type, AMO kind, audited): ``amt``
#: only on audited (stamped, decided) AMOs, ``cas_ok`` only on CAS.
_AMO = {(near, op, amo, audited): shape(
            _K.AMO_NEAR if near else _K.AMO_FAR, *("amt",) * (not audited),
            *("cas_ok",) * (amo is not AmoKind.CAS), op=op._name_,
            amo=amo._name_)
        for near in (True, False) for op in (OpType.AMO_LOAD, OpType.AMO_STORE)
        for amo in AmoKind for audited in (True, False)}
#: OP_RETIRE per (op type, AMO kind or None, drained): ``drain_bd`` only
#: on a WRITE with hidden drain work, ``exec_bd`` on every AMO_STORE.
_RETIRE = {(op, amo, drained): shape(
               _K.OP_RETIRE, *("drain_bd",) * (not drained),
               *("exec_bd",) * (op is not OpType.AMO_STORE), op=op._name_,
               **({} if amo is None else {"amo": amo._name_}))
           for op in (OpType.READ, OpType.WRITE, OpType.AMO_LOAD,
                      OpType.AMO_STORE)
           for amo in ((None,) if op < OpType.AMO_LOAD else AmoKind)
           for drained in (False, True)}
_SYNC = [shape(_K.SYNC, what=name) for name in MARK_NAMES]
_INVALIDATION = {st: shape(_K.INVALIDATION, state=st._name_)
                 for st in CacheState}
_SNOOP_REC, _DOWNGRADE, _HANDOFF, _SB_STALL, _DRAM_READ, _DRAM_WRITE = (
    shape(kind) for kind in (_K.SNOOP, _K.DOWNGRADE, _K.LINE_HANDOFF,
                             _K.STORE_BUFFER_STALL, _K.DRAM_READ,
                             _K.DRAM_WRITE))


class DeferredRead:
    """A read result to be resolved at the read's *completion* time.

    The machine computes a read's timing when the core issues it, but the
    architectural value belongs to the moment the data arrives.  Binding
    the value at issue would let every spinner in a spin loop observe a
    freed lock during the window its read is in flight — a thundering
    herd far beyond what real hardware produces.  The engine resolves the
    value when it wakes the core at completion time, by which point every
    operation that completed earlier has been applied.

    A core has at most one operation in flight, so the machine keeps one
    pooled instance per core and rebinds ``addr`` on every read — the
    steady-state read path allocates nothing.
    """

    __slots__ = ("addr",)

    def __init__(self, addr: int) -> None:
        self.addr = addr


class Machine:
    """A multi-core system executing memory operations under one policy.

    Args:
        config: system parameters (Table II by default).
        policy_name: AMO placement policy; one instance is created per
            core from :mod:`repro.core.registry`.
        bus: instrumentation bus; a fresh one (stock stats/traffic sinks
            only) is created when omitted.  The machine and its
            components emit typed events to it, and the hot-path
            counters (``stats``, ``traffic``) are aliases of the bus's
            fused stock-sink stores.
    """

    def __init__(self, config: SystemConfig, policy_name: str = "all-near",
                 bus: Optional[EventBus] = None) -> None:
        self.config = config
        self.policy_name = policy_name
        self.bus = bus if bus is not None else EventBus()
        self.mesh = Mesh(config.num_cores, config.llc_slices,
                         config.router_latency, config.link_latency)
        self.addr_map = AddressMap(config.llc_slices, config.mem_channels)
        self.memory = HbmMemory(config.mem_channels, config.mem_latency,
                                config.mem_service_cycles)
        self.privates = [PrivateCacheHierarchy(config, core_id=c,
                                               bus=self.bus)
                         for c in range(config.num_cores)]
        self.home_nodes = [HomeNode(s, config, bus=self.bus)
                           for s in range(config.llc_slices)]
        self.directory = DirectoryState()
        self.policies = [make_policy(policy_name, config)
                         for _ in range(config.num_cores)]
        self.policy_stats = [PolicyStats() for _ in range(config.num_cores)]
        self.values: Dict[int, int] = {}
        # Fused stock-sink stores (see repro.sim.events): mutating these
        # directly IS the stats/traffic-sink accounting.
        self.traffic = self.bus.traffic
        self.stats = self.bus.stats
        # Store buffers: per-core deque of in-flight drain times plus the
        # last drain time (drains are forced monotonic = in-order drain).
        self._sb: List[Deque[int]] = [deque() for _ in range(config.num_cores)]
        self._sb_last: List[int] = [0] * config.num_cores
        # Atomics are ordered with respect to each other on a core: the
        # next AMO cannot start until the previous one completed.  This is
        # what makes far AtomicStores cost something despite the store
        # buffer (single-thread far throughput in Fig. 1 is well below
        # near), and it is how a high far-AMO rate backs up into the core.
        self._amo_free: List[int] = [0] * config.num_cores
        # One pooled DeferredRead per core (at most one read in flight).
        self._deferred = [DeferredRead(0) for _ in range(config.num_cores)]
        # Hot-path aliases: config scalars and mesh distance tables bound
        # once so the transaction handlers never chase self.config/self.mesh.
        self._nslices = config.llc_slices
        self._l1_lat = config.l1_latency
        self._l2_lat = config.l2_latency
        self._llc_lat = config.llc_latency
        self._dir_lat = config.directory_latency
        self._hn_occ = config.hn_occupancy
        self._alu_lat = config.amo_alu_latency
        self._commit_stall = config.commit_stall_overhead
        self._direct_acks = config.direct_inval_acks
        self._sb_entries = config.store_buffer_entries
        self._amo_buf_lat = config.amo_buffer_latency
        self._c2s_lat = self.mesh.c2s_lat
        self._s2c_lat = self.mesh.s2c_lat
        self._c2c_lat = self.mesh.c2c_lat
        self._c2s_hops = self.mesh.c2s_hops
        self._s2c_hops = self.mesh.s2c_hops
        self._c2c_hops = self.mesh.c2c_hops
        # Per-core L1/L2 set arrays (geometry is identical across cores),
        # the directory's entry dict, and the traffic meter's message
        # Counter — aliased for the inlined lookup and accounting fast
        # paths in the handlers (the accounting is TrafficMeter.record
        # with count=1).
        self._l1sets = [p._l1_sets for p in self.privates]
        self._l2sets = [p._l2_sets for p in self.privates]
        self._l1n = self.privates[0]._l1_nsets if self.privates else 1
        self._l2n = self.privates[0]._l2_nsets if self.privates else 1
        self._dir_entries = self.directory._entries
        self._tmsgs = self.traffic.messages
        # Per-op cycle-breakdown scratch (attribution stamps).  None on
        # the default path; _execute_observed installs a fresh dict per
        # op and the transaction helpers add the components they already
        # compute.  The helpers' ``if bd is not None`` guards sit off the
        # L1-hit fast paths, so default-mode cost is zero.
        self._bd: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def execute(self, core: int, op: MemOp, now: int) -> Tuple[int, Optional[int]]:
        """Perform ``op`` for ``core`` starting at cycle ``now``.

        Returns ``(completion_time, result)``; ``result`` is the old
        value for AMO_LOAD, a :class:`DeferredRead` for READ (the engine
        resolves it at completion time), and None otherwise.
        """
        bus = self.bus
        bus.now = now
        kind = op.type
        if kind is OpType.THINK:
            return now + op.cycles, None
        if kind is OpType.MARK:
            # Sync phase marker: zero cycles, zero instructions, no
            # machine state — architecturally invisible without stamps.
            if bus.wants_sync:
                bus.append((_SYNC[op.value], now, core, op.addr >> 6,
                            op.addr))
            return now, None
        if bus.observed:
            return self._execute_observed(core, op, now)
        return self._HANDLERS[kind](self, core, op, now)

    def _execute_observed(self, core: int, op: MemOp,
                          now: int) -> Tuple[int, Optional[int]]:
        """Observed execution: the same handler, so the same timing; then
        an OP_RETIRE record if a sink reads it, and a flush once the bus
        holds a full block.

        For OP_RETIRE the handler fills ``self._bd``.  ``bd`` decomposes
        the *core-gating* latency (what the issuing core waited); store
        ops also carry the breakdown of their hidden drain/execution
        chain, so work the store buffer absorbs stays attributable.
        """
        bus = self.bus
        kind = op.type
        if not bus.wants_op_retire:
            done, result = self._HANDLERS[kind](self, core, op, now)
        else:
            bd = self._bd = {}
            done, result = self._HANDLERS[kind](self, core, op, now)
            self._bd = None
            lat = done - now
            if kind is OpType.READ and not bd:
                # L1/L2 hit fast paths record nothing; classify by latency.
                bd["l1" if lat == self._l1_lat else "l2"] = lat
            drain = hidden = None
            if kind is OpType.WRITE or kind is OpType.AMO_STORE:
                # The core only waited for store-buffer admission; the
                # drain (WRITE) or the AMO's execution chain (AMO_STORE)
                # is hidden work (paper Section III-B1).
                stall = bd.pop("sb_stall", 0)
                if kind is OpType.AMO_STORE:
                    hidden = bd
                elif bd:
                    drain = bd
                bd = {"issue": 1, "sb_stall": stall} if stall else {"issue": 1}
            resid = lat - sum(bd.values())
            if resid:
                bd["other"] = resid
            bus.append((_RETIRE[kind, op.amo, drain is not None], now, core,
                        op.addr >> 6, bd, drain, hidden, lat))
        if len(bus.records) >= bus.block_records:
            bus.flush()
        return done, result

    def read_value(self, addr: int) -> int:
        """Architectural value currently stored at ``addr``."""
        return self.values.get(addr, 0)

    def poke_value(self, addr: int, value: int) -> None:
        """Initialize memory contents (workload setup)."""
        self.values[addr] = value

    # ------------------------------------------------------------------
    # snapshot/restore (model checking)
    # ------------------------------------------------------------------

    def snapshot(self):
        """Hashable snapshot of the machine's *architectural* state.

        Captures exactly what future behaviour can depend on: private
        cache contents (with replacement order and per-line predictor
        flags), live directory entries, LLC contents per slice, memory
        values, and per-core policy predictor state.  Timing state
        (busy-until fields, store buffers, the AMO buffer) and
        accounting counters are deliberately excluded: nothing in the
        machine branches on them, so two states that agree on this
        snapshot have identical architectural futures.  The model
        checker uses the snapshot both as the fork point for exploring
        interleavings and as the canonical state hash.
        """
        return (
            tuple((p.l1.snapshot(), p.l2.snapshot()) for p in self.privates),
            self.directory.snapshot(),
            tuple(hn.llc.snapshot() for hn in self.home_nodes),
            tuple(sorted((a, v) for a, v in self.values.items() if v != 0)),
            tuple(policy.snapshot_state() for policy in self.policies),
        )

    def restore(self, snap) -> None:
        """Reset architectural state to a :meth:`snapshot` value.

        Every container is mutated in place — the hot-path aliases bound
        in ``__init__`` (``_l1sets``/``_l2sets``/``_dir_entries``) point
        at the live objects and must keep doing so after a restore.
        """
        caches, dir_snap, llc_snaps, values, policy_snaps = snap
        for priv, (l1_snap, l2_snap) in zip(self.privates, caches):
            priv.l1.restore(l1_snap)
            priv.l2.restore(l2_snap)
        self.directory.restore(dir_snap)
        for hn, llc_snap in zip(self.home_nodes, llc_snaps):
            hn.llc.restore(llc_snap)
        self.values.clear()
        self.values.update(values)
        for policy, state in zip(self.policies, policy_snaps):
            policy.restore_state(state)

    # ------------------------------------------------------------------
    # store buffer
    # ------------------------------------------------------------------

    def _store_issue(self, core: int, now: int, drain_time: int) -> int:
        """Issue a store-class op; returns when the core can move on."""
        sb = self._sb[core]
        while sb and sb[0] <= now:
            sb.popleft()
        visible = now + 1
        if len(sb) >= self._sb_entries:
            oldest = sb.popleft()
            self.stats.store_buffer_stalls += 1
            if self.bus.wants_store_buffer_stall:
                self.bus.append((_SB_STALL, now, core, -1, oldest))
            visible = oldest + 1
            bd = self._bd
            if bd is not None:
                bd["sb_stall"] = bd.get("sb_stall", 0) + (oldest - now)
        # Drains are in-order: a younger store cannot drain earlier.
        drain = drain_time
        last = self._sb_last[core]
        if last > drain:
            drain = last
        self._sb_last[core] = drain
        sb.append(drain)
        return visible

    # ------------------------------------------------------------------
    # loads
    # ------------------------------------------------------------------

    def _read(self, core: int, op: MemOp, now: int) -> Tuple[int, Optional[int]]:
        stats = self.stats
        stats.reads += 1
        block = op.addr >> 6
        deferred = self._deferred[core]
        deferred.addr = op.addr
        # Inlined PrivateCacheHierarchy.touch_l1 (the single hottest
        # lookup in a simulation): LRU-promote on hit, mark AMO reuse.
        l1_set = self._l1sets[core][block % self._l1n]
        line = l1_set.get(block)
        if line is not None:
            del l1_set[block]
            l1_set[block] = line
            if line.fetched_by_amo:
                line.reused = True
            stats.l1_hits += 1
            return now + self._l1_lat, deferred
        stats.l1_misses += 1
        if block in self._l2sets[core][block % self._l2n]:
            stats.l2_hits += 1
            result = self.privates[core].promote(block)
            self._handle_departures(core, result.departures, now)
            return now + self._l2_lat, deferred
        done = self._read_shared(core, block, now)
        return done, deferred

    def _read_shared(self, core: int, block: int, now: int) -> int:
        """Full ReadShared transaction; allocates into the L1D.

        Returns the core-visible completion time.
        """
        stats = self.stats
        stats.read_shared += 1
        slice_id, hn, entry, t_dir = self._request(core, block, now, _READ_REQ)
        tm = self.traffic
        bus = self.bus
        bd = self._bd

        owner = entry.owner
        data_from_owner = False
        if owner is not None and owner != core:
            # Snoop the owner for data; it downgrades.  Data is forwarded
            # directly owner -> requestor (CHI direct cache transfer);
            # the HN only waits for the snoop acknowledgement.
            data_ready = (t_dir + self._s2c_lat[slice_id][owner]
                          + self._l1_lat)
            data_from_owner = True
            owner_priv = self.privates[owner]
            owner_line, _lvl = owner_priv.find(block)
            stats.snoops += 1
            if owner_line is None:
                # Directory raced ahead of a silent state we do not model;
                # treat as LLC-sourced.
                entry.drop(owner)
                data_ready = t_dir + self._llc_lat
                data_from_owner = False
                # A void snoop: its messages, but no SNOOP event.
                self._record_snoop_traffic(slice_id, owner, with_data=False,
                                           snoop_event=False)
            elif owner_line.state.is_dirty:
                self._record_snoop_traffic(slice_id, owner, with_data=True,
                                           block=block)
                if hn.llc_fill_if_room(block):
                    # HN takes the dirty copy; the old owner keeps a clean
                    # shared copy (the common CHI choice).
                    owner_priv.set_state(block, CacheState.SC)
                    entry.owner = None
                    entry.sharers.add(owner)
                else:
                    # LLC set full: owner keeps data responsibility in SD —
                    # the (rare) source of the SharedDirty state.
                    owner_priv.set_state(block, CacheState.SD)
                stats.downgrades += 1
                if bus.wants_downgrade:
                    bus.append((_DOWNGRADE, bus.now, owner, block))
            else:  # UC owner: forwards clean data, drops to SC.
                self._record_snoop_traffic(slice_id, owner, with_data=True,
                                           block=block)
                owner_priv.set_state(block, CacheState.SC)
                entry.owner = None
                entry.sharers.add(owner)
                self._llc_fill(hn, block)
                stats.downgrades += 1
                if bus.wants_downgrade:
                    bus.append((_DOWNGRADE, bus.now, owner, block))
        elif hn.llc_lookup(block):
            data_ready = t_dir + self._llc_lat
        else:
            data_ready = self._dram_read(block, t_dir)
            self._llc_fill(hn, block)

        if bd is not None:
            if data_from_owner:
                bd["snoop"] = bd.get("snoop", 0) + (data_ready - t_dir)
            elif owner is not None and owner != core:
                # Raced owner: sourced from the LLC after a void snoop.
                bd["llc"] = bd.get("llc", 0) + self._llc_lat
            elif data_ready - t_dir == self._llc_lat:
                bd["llc"] = bd.get("llc", 0) + self._llc_lat
            else:
                bd["dram"] = bd.get("dram", 0) + (data_ready - t_dir)

        if data_from_owner:
            # DCT: final leg is owner -> requestor; the HN frees the line
            # once the snoop acknowledgement returns.
            entry.line_busy_until = t_dir + self._snoop_rtt(
                slice_id, owner if owner is not None else core)
            hops, resp = self._c2c_hops[owner][core], self._c2c_lat[owner][core]
        else:
            entry.line_busy_until = data_ready
            hops, resp = self._s2c_hops[slice_id][core], self._s2c_lat[slice_id][core]
        self._tmsgs[_COMP_DATA] += 1
        tm.flits += _F_COMP_DATA
        tm.flit_hops += _F_COMP_DATA * hops
        if bus.wants_message:
            self._message(_COMP_DATA, hops)
        done = data_ready + resp + self._l1_lat
        if bd is not None:
            bd["noc_resp"] = bd.get("noc_resp", 0) + resp
            bd["l1"] = bd.get("l1", 0) + self._l1_lat

        # Grant state: Unique when nobody else holds a copy.
        owner_now = entry.owner
        sharers = entry.sharers
        if (owner_now is not None and owner_now != core) or \
                (sharers and (len(sharers) > 1 or core not in sharers)):
            grant = CacheState.SC
            sharers.add(core)
        else:
            grant = CacheState.UC
            entry.owner = core
            sharers.discard(core)
            hn.llc_drop(block)
            hn.amo_buffer.invalidate(block)
            if bus.wants_line_handoff:
                self._emit_handoff(block, owner, core)
        insert = self.privates[core].insert_l1(block, grant)
        self._handle_departures(core, insert.departures, now)
        return done

    # ------------------------------------------------------------------
    # stores
    # ------------------------------------------------------------------

    def _write(self, core: int, op: MemOp, now: int) -> Tuple[int, Optional[int]]:
        stats = self.stats
        stats.writes += 1
        block = op.addr >> 6
        priv = self.privates[core]
        line = priv.touch_l1(block)
        if line is not None:
            stats.l1_hits += 1
            if line.state.is_unique:
                line.state = CacheState.UD
                drain = now + self._l1_lat
            else:
                drain = self._upgrade(core, block, now)
                line = priv.touch_l1(block)
                if line is not None:
                    line.state = CacheState.UD
        else:
            stats.l1_misses += 1
            found, level = priv.find(block)
            if found is not None and level == 2:
                stats.l2_hits += 1
                result = priv.promote(block)
                self._handle_departures(core, result.departures, now)
                if found.state.is_unique:
                    priv.set_state(block, CacheState.UD)
                    drain = now + self._l2_lat
                else:
                    drain = self._upgrade(core, block, now + self._l2_lat)
                    priv.set_state(block, CacheState.UD)
            else:
                drain = self._read_unique(core, block, now,
                                          fetched_by_amo=False)
                priv.set_state(block, CacheState.UD)
        self.values[op.addr] = op.value
        visible = self._store_issue(core, now, drain)
        return visible, None

    def _upgrade(self, core: int, block: int, now: int) -> int:
        """CleanUnique: gain write permission for a block already held
        shared; invalidates all other copies, transfers no data."""
        self.stats.upgrades += 1
        slice_id, hn, entry, t_dir = self._request(core, block, now, _READ_REQ)
        tm = self.traffic
        bus = self.bus
        bd = self._bd
        # CHI-faithful flow: snoop responses return to the HN, which then
        # sends Comp.  With ``direct_inval_acks`` the acks instead travel
        # straight to the requestor and Comp is sent at ordering time.
        prev_owner = entry.owner
        acks_done = self._invalidate_holders(slice_id, block, entry,
                                             exclude=core, now=now,
                                             t_dir=t_dir, ack_to=core)
        if bus.wants_line_handoff:
            self._emit_handoff(block, prev_owner, core)
        entry.owner = core
        entry.sharers.clear()
        entry.line_busy_until = acks_done
        hn.llc_drop(block)
        hn.amo_buffer.invalidate(block)
        self._tmsgs[_COMP_ACK] += 1
        tm.flits += _F_COMP_ACK
        tm.flit_hops += _F_COMP_ACK * self._s2c_hops[slice_id][core]
        if bus.wants_message:
            self._message(_COMP_ACK, self._s2c_hops[slice_id][core])
        if self._direct_acks:
            comp_at_core = t_dir + self._s2c_lat[slice_id][core]
            if bd is not None:
                if comp_at_core >= acks_done:
                    bd["noc_resp"] = (bd.get("noc_resp", 0)
                                      + self._s2c_lat[slice_id][core])
                else:
                    bd["inval"] = bd.get("inval", 0) + (acks_done - t_dir)
            return comp_at_core if comp_at_core >= acks_done else acks_done
        if bd is not None:
            bd["inval"] = bd.get("inval", 0) + (acks_done - t_dir)
            bd["noc_resp"] = (bd.get("noc_resp", 0)
                              + self._s2c_lat[slice_id][core])
        return acks_done + self._s2c_lat[slice_id][core]

    def _read_unique(self, core: int, block: int, now: int,
                     fetched_by_amo: bool) -> int:
        """ReadUnique: fetch the block with write permission (Fig. 2 left).

        Returns the time the block (and permission) is usable at the L1D.
        """
        stats = self.stats
        stats.read_unique += 1
        slice_id, hn, entry, t_dir = self._request(core, block, now, _READ_REQ)
        tm = self.traffic
        bus = self.bus
        bd = self._bd

        owner = entry.owner
        had_owner = owner is not None and owner != core
        dirty_source = had_owner and self._holder_is_dirty(owner, block)
        # The owner's data is always forwarded directly to the requestor
        # (direct cache transfer); pure invalidation acks follow the
        # ``direct_inval_acks`` routing.
        acks_done = self._invalidate_holders(slice_id, block, entry,
                                             exclude=core, now=now,
                                             t_dir=t_dir, ack_to=core)
        if not self._direct_acks:
            acks_done += self._s2c_lat[slice_id][core]
        if had_owner:
            data_at_core = (t_dir + self._s2c_lat[slice_id][owner]
                            + self._l1_lat
                            + self._c2c_lat[owner][core])
            if bd is not None:
                bd["snoop"] = (bd.get("snoop", 0)
                               + self._s2c_lat[slice_id][owner]
                               + self._l1_lat)
                bd["noc_resp"] = (bd.get("noc_resp", 0)
                                  + self._c2c_lat[owner][core])
        elif hn.llc_lookup(block):
            data_at_core = (t_dir + self._llc_lat
                            + self._s2c_lat[slice_id][core])
            if bd is not None:
                bd["llc"] = bd.get("llc", 0) + self._llc_lat
                bd["noc_resp"] = (bd.get("noc_resp", 0)
                                  + self._s2c_lat[slice_id][core])
        else:
            dram_done = self._dram_read(block, t_dir)
            data_at_core = dram_done + self._s2c_lat[slice_id][core]
            if bd is not None:
                bd["dram"] = bd.get("dram", 0) + (dram_done - t_dir)
                bd["noc_resp"] = (bd.get("noc_resp", 0)
                                  + self._s2c_lat[slice_id][core])
        if not had_owner:  # LLC or DRAM data: home node -> requestor
            self._tmsgs[_COMP_DATA] += 1
            tm.flits += _F_COMP_DATA
            tm.flit_hops += _F_COMP_DATA * self._s2c_hops[slice_id][core]
            if bus.wants_message:
                self._message(_COMP_DATA, self._s2c_hops[slice_id][core])

        if bus.wants_line_handoff:
            self._emit_handoff(block, owner, core)
        entry.owner = core
        entry.sharers.clear()
        busy = acks_done if acks_done >= data_at_core else data_at_core
        entry.line_busy_until = busy
        hn.llc_drop(block)
        hn.amo_buffer.invalidate(block)
        done = busy + self._l1_lat
        if bd is not None:
            if acks_done > data_at_core:
                bd["inval"] = (bd.get("inval", 0)
                               + (acks_done - data_at_core))
            bd["l1"] = bd.get("l1", 0) + self._l1_lat
        grant = CacheState.UD if dirty_source else CacheState.UC
        insert = self.privates[core].insert_l1(block, grant, fetched_by_amo)
        self._handle_departures(core, insert.departures, now)
        return done

    # ------------------------------------------------------------------
    # atomics
    # ------------------------------------------------------------------

    def _amo(self, core: int, op: MemOp, now: int) -> Tuple[int, Optional[int]]:
        stats = self.stats
        is_load = op.type is OpType.AMO_LOAD
        if is_load:
            stats.amo_loads += 1
        else:
            stats.amo_stores += 1
        block = op.addr >> 6
        # Inlined PrivateCacheHierarchy.l1_state (placement is keyed on
        # the L1D state, Table I).
        l1_line = self._l1sets[core][block % self._l1n].get(block)
        state = l1_line.state if l1_line is not None else CacheState.I
        audit = None
        if state.is_unique:
            placement = Placement.NEAR
            decided = False
            stats.near_amo_unique_hits += 1
        else:
            policy = self.policies[core]
            if self.bus.stamps:
                # Side-effect-free pre-decide snapshot (decide allocates
                # AMT entries on miss, so peek must come first).
                audit = policy.audit_info(block)
            placement = policy.decide(block, state, now)
            decided = True
            self.policy_stats[core].record(placement)
        # Per-core atomic ordering: wait for the previous AMO to complete.
        free = self._amo_free[core]
        start = now if now >= free else free
        bd = self._bd
        if bd is not None and start > now:
            bd["amo_order"] = start - now
        near = placement is Placement.NEAR
        if near:
            done, value = self._amo_near(core, op, block, state, start)
        else:
            done, value = self._amo_far(core, op, block, start)
        if done > self._amo_free[core]:
            self._amo_free[core] = done
        bus = self.bus
        if bus.wants_amo_near if near else bus.wants_amo_far:
            # ``amt`` (stamped decisions only) is the policy's pre-decide
            # view, None without an AMT; a CAS succeeded iff the old
            # value it returned equals the comparand.
            amo = op.amo
            bus.append((_AMO[near, op.type, amo, bus.stamps and decided],
                        start, core, block, audit,
                        value == op.expected if amo is AmoKind.CAS else None,
                        decided, done - start))
        if not is_load:
            # The core itself only waits for store-buffer admission (plus
            # any backlog from the atomic-ordering chain).
            return self._store_issue(core, now, done), None
        return done, value

    def _apply_amo_value(self, op: MemOp) -> int:
        """Apply the AMO to architectural state; returns the old value."""
        values = self.values
        addr = op.addr
        old = values.get(addr, 0)
        # ADD dominates every Table III workload (counters, histograms,
        # reductions); skipping the dispatch table for it is measurable.
        if op.amo is AmoKind.ADD:
            values[addr] = old + op.value
        else:
            values[addr] = apply_amo(op.amo, old, op.value, op.expected)
        return old

    def _amo_near(self, core: int, op: MemOp, block: int,
                  state: CacheState, now: int) -> Tuple[int, Optional[int]]:
        """Execute the AMO in this core's L1D, acquiring the block first."""
        stats = self.stats
        priv = self.privates[core]
        if state.is_valid:  # resident in L1: inlined touch_l1 (LRU +
            # reuse marking), then upgrade in place unless already unique.
            stats.l1_hits += 1
            l1_set = self._l1sets[core][block % self._l1n]
            line = l1_set.get(block)
            if line is not None:
                del l1_set[block]
                l1_set[block] = line
                if line.fetched_by_amo:
                    line.reused = True
            if state.is_unique:
                priv.set_state(block, CacheState.UD)
                exec_done = now + self._l1_lat + self._alu_lat
                bd = self._bd
                if bd is not None:
                    bd["l1"] = bd.get("l1", 0) + self._l1_lat
            else:  # SC or SD in L1
                done = self._upgrade(core, block, now)
                priv.set_state(block, CacheState.UD)
                exec_done = done + self._alu_lat
        else:
            stats.l1_misses += 1
            found, level = priv.find(block)
            if found is not None and level == 2:
                stats.l2_hits += 1
                result = priv.promote(block, fetched_by_amo=True)
                self._handle_departures(core, result.departures, now)
                bd = self._bd
                if bd is not None:
                    bd["l2"] = bd.get("l2", 0) + self._l2_lat
                if found.state.is_unique:
                    priv.set_state(block, CacheState.UD)
                    exec_done = now + self._l2_lat + self._alu_lat
                else:
                    done = self._upgrade(core, block, now + self._l2_lat)
                    priv.set_state(block, CacheState.UD)
                    exec_done = done + self._alu_lat
            else:
                done = self._read_unique(core, block, now, fetched_by_amo=True)
                priv.set_state(block, CacheState.UD)
                exec_done = done + self._alu_lat

        old = self._apply_amo_value(op)
        stats.near_amos += 1
        stats.amo_latency_sum += exec_done - now
        self.policies[core].on_near_amo(block, now)
        bd = self._bd
        if bd is not None:
            bd["alu"] = bd.get("alu", 0) + self._alu_lat
        if op.type is OpType.AMO_LOAD:
            if bd is not None:
                bd["commit"] = bd.get("commit", 0) + self._commit_stall
            return exec_done + self._commit_stall, old
        return exec_done, None

    def _amo_far(self, core: int, op: MemOp, block: int,
                 now: int) -> Tuple[int, Optional[int]]:
        """Execute the AMO at the home node (Fig. 2 right)."""
        stats = self.stats
        slice_id, hn, entry, t_dir = self._request(core, block, now, _ATOMIC_REQ)
        tm = self.traffic
        bus = self.bus
        bd = self._bd

        # Dirty-holder scan without materializing the holder union set.
        owner = entry.owner
        dirty_holder = (owner is not None
                        and self._holder_is_dirty(owner, block))
        if not dirty_holder:
            for holder in entry.sharers:
                if holder != owner and self._holder_is_dirty(holder, block):
                    dirty_holder = True
                    break
        prev_owner = owner
        snoop_done = self._invalidate_holders(slice_id, block, entry,
                                              exclude=None, now=now,
                                              t_dir=t_dir)
        if bus.wants_line_handoff:
            # Ownership centralizes at the home node (agent -1).
            self._emit_handoff(block, prev_owner, None)
        buffer_hit = hn.amo_buffer.access(block)
        if dirty_holder:
            data_ready = snoop_done
            if bd is not None:
                bd["snoop"] = bd.get("snoop", 0) + (snoop_done - t_dir)
        elif buffer_hit:
            stats.amo_buffer_hits += 1
            data_ready = t_dir + self._amo_buf_lat
            if bd is not None:
                bd["amo_buf"] = bd.get("amo_buf", 0) + self._amo_buf_lat
            if snoop_done > data_ready:
                if bd is not None:
                    bd["snoop"] = (bd.get("snoop", 0)
                                   + (snoop_done - data_ready))
                data_ready = snoop_done
        elif hn.llc_lookup(block):
            data_ready = t_dir + self._llc_lat
            if bd is not None:
                bd["llc"] = bd.get("llc", 0) + self._llc_lat
            if snoop_done > data_ready:
                if bd is not None:
                    bd["snoop"] = (bd.get("snoop", 0)
                                   + (snoop_done - data_ready))
                data_ready = snoop_done
        else:
            data_ready = self._dram_read(block, t_dir)
            if bd is not None:
                bd["dram"] = bd.get("dram", 0) + (data_ready - t_dir)
            if snoop_done > data_ready:
                if bd is not None:
                    bd["snoop"] = (bd.get("snoop", 0)
                                   + (snoop_done - data_ready))
                data_ready = snoop_done

        exec_done = data_ready + self._alu_lat
        if bd is not None:
            bd["alu"] = bd.get("alu", 0) + self._alu_lat
        entry.line_busy_until = exec_done
        hn.far_amos_executed += 1
        # After a far AMO no private cache holds the block; the HN does.
        self._llc_fill(hn, block)

        old = self._apply_amo_value(op)
        stats.far_amos += 1
        resp_hops = self._s2c_hops[slice_id][core]
        if op.type is OpType.AMO_LOAD:
            stats.far_amo_loads += 1
            self._tmsgs[_AMO_DATA] += 1
            tm.flits += _F_AMO_DATA
            tm.flit_hops += _F_AMO_DATA * resp_hops
            if bus.wants_message:
                self._message(_AMO_DATA, resp_hops)
            done = exec_done + self._s2c_lat[slice_id][core]
            stats.amo_latency_sum += done - now
            if bd is not None:
                bd["noc_resp"] = (bd.get("noc_resp", 0)
                                  + self._s2c_lat[slice_id][core])
                bd["commit"] = bd.get("commit", 0) + self._commit_stall
            return done + self._commit_stall, old
        stats.far_amo_stores += 1
        self._tmsgs[_COMP_ACK] += 1
        tm.flits += _F_COMP_ACK
        tm.flit_hops += _F_COMP_ACK * resp_hops
        if bus.wants_message:
            self._message(_COMP_ACK, resp_hops)
        ack = snoop_done + self._s2c_lat[slice_id][core]
        stats.amo_latency_sum += ack - now
        if bd is not None:
            bd["noc_resp"] = (bd.get("noc_resp", 0)
                              + self._s2c_lat[slice_id][core])
        return ack, None

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _request(self, core: int, block: int, now: int,
                 msg: MsgType) -> Tuple[int, HomeNode, DirEntry, int]:
        """The request leg shared by every home-node transaction: NoC
        traversal, then per-line serialization (the paper's central
        quantity), then structural home-node occupancy, then directory.

        Counts the request message and, under stamps, its breakdown;
        returns ``(slice_id, home node, directory entry, t_dir)``.
        """
        slice_id = block % self._nslices
        hn = self.home_nodes[slice_id]
        entry = self._dir_entries.get(block)
        if entry is None:
            entry = self.directory.entry(block)
        arrive = now + self._c2s_lat[core][slice_id]
        line_busy = entry.line_busy_until
        ordered = line_busy if line_busy > arrive else arrive
        if hn.busy_until > ordered:
            ordered = hn.busy_until
        hops = self._c2s_hops[core][slice_id]
        tm = self.traffic
        self._tmsgs[msg] += 1
        tm.flits += msg.flits
        tm.flit_hops += msg.flits * hops
        if self.bus.wants_message:
            self._message(msg, hops, arrive, ordered)
        bd = self._bd
        if bd is not None:
            bd["noc_req"] = bd.get("noc_req", 0) + (arrive - now)
            wait = ordered - arrive
            lw = line_busy - arrive
            if lw < 0:
                lw = 0
            elif lw > wait:
                lw = wait
            if lw:
                bd["hn_line"] = bd.get("hn_line", 0) + lw
            if wait > lw:
                bd["hn_busy"] = bd.get("hn_busy", 0) + (wait - lw)
            bd["dir"] = bd.get("dir", 0) + self._dir_lat
        hn.busy_until = ordered + self._hn_occ
        return slice_id, hn, entry, ordered + self._dir_lat

    def _snoop_rtt(self, slice_id: int, target: int) -> int:
        """Round-trip cost of snooping ``target`` from ``slice_id``."""
        return 2 * self._s2c_lat[slice_id][target] + self._l1_lat

    def _record_snoop_traffic(self, slice_id: int, target: int,
                              with_data: bool, block: int = -1,
                              snoop_event: bool = True) -> None:
        hops = self._s2c_hops[slice_id][target]
        tm = self.traffic
        # Batched snoop + response accounting (flit sums commute, so
        # combining the two messages is bit-identical).
        msgs = self._tmsgs
        msgs[_SNOOP] += 1
        if with_data:
            msgs[_SNOOP_DATA] += 1
            flits = _F_SNOOP + _F_SNOOP_DATA
        else:
            msgs[_SNOOP_RESP] += 1
            flits = _F_SNOOP + _F_SNOOP_RESP
        tm.flits += flits
        tm.flit_hops += flits * hops
        bus = self.bus
        if bus.wants_message:
            self._message(_SNOOP, hops)
            self._message(_SNOOP_DATA if with_data else _SNOOP_RESP, hops)
        if snoop_event and bus.wants_snoop:
            bus.append((_SNOOP_REC, bus.now, target, block, slice_id,
                        with_data))

    def _holder_is_dirty(self, core: int, block: int) -> bool:
        # Inlined PrivateCacheHierarchy.find (L1 then L2) — called in a
        # loop over holders on the far-AMO and ReadUnique paths.
        line = self._l1sets[core][block % self._l1n].get(block)
        if line is None:
            line = self._l2sets[core][block % self._l2n].get(block)
        return line is not None and line.state.is_dirty

    def _invalidate_holders(self, slice_id: int, block: int, entry,
                            exclude: Optional[int], now: int,
                            t_dir: int, ack_to: Optional[int] = None) -> int:
        """Snoop-invalidate every private copy of ``block``.

        Snoops go out in parallel.  With ``ack_to=None`` the responses
        return to the home node (the far-AMO case: the HN must know all
        copies are gone before it executes) and the returned time is when
        the last response reaches the HN.  With ``ack_to=<core>`` the
        invalidation acks travel directly to that requestor (the
        CleanUnique/ReadUnique case), saving a NoC leg — the structural
        reason acquiring a block for a near AMO is cheaper than
        centralizing the same invalidations at the HN.  Either way the
        returned time is ``t_dir`` when there was nothing to snoop.
        """
        owner = entry.owner
        sharers = entry.sharers
        # Same iteration order as sorted(entry.holders()) without the
        # set-union/copy on the no-holder and owner-only fast paths.
        if not sharers:
            if owner is None:
                return t_dir
            holders = (owner,)
        elif owner is None:
            holders = sorted(sharers)
        else:
            holders = sorted(sharers | {owner})
        snoop_done = t_dir
        s2c = self._s2c_lat[slice_id]
        l1_lat = self._l1_lat
        direct = self._direct_acks
        for holder in holders:
            if holder == exclude:
                continue
            line, was_in_l1 = self.privates[holder].invalidate(block)
            entry.drop(holder)
            if line is None:
                continue
            self.stats.snoops += 1
            self.stats.invalidations += 1
            # Dirty holders must forward data; a UniqueClean holder also
            # forwards since the exclusive LLC has no copy.
            forwards_data = line.state.is_dirty or line.state is CacheState.UC
            self._record_snoop_traffic(slice_id, holder,
                                       with_data=forwards_data, block=block)
            bus = self.bus
            if bus.wants_invalidation:
                bus.append((_INVALIDATION[line.state], bus.now, holder, block,
                            ack_to, was_in_l1))
            to_holder = s2c[holder]
            if ack_to is None or not direct:
                back = to_holder
            else:
                back = self._c2c_lat[holder][ack_to]
            rtt = t_dir + to_holder + l1_lat + back
            if rtt > snoop_done:
                snoop_done = rtt
            policy = self.policies[holder]
            policy.on_invalidation(block, now)
            if was_in_l1:
                policy.on_block_departure(block, line.fetched_by_amo,
                                          line.reused, now)
        return snoop_done

    def _handle_departures(self, core: int, departures: List[Departure],
                           now: int) -> None:
        """Process eviction fallout from an L1 allocation."""
        for dep in departures:
            line = dep.line
            if not dep.left_hierarchy:
                # L1 -> L2 spill: ends the L1D residency the reuse
                # predictor tracks.
                self.stats.l1_evictions += 1
                self.policies[core].on_block_departure(
                    line.block, line.fetched_by_amo, line.reused, now)
                line.fetched_by_amo = False
                line.reused = False
                continue
            self.stats.l2_evictions += 1
            self._hierarchy_departure(core, line, now)

    def _hierarchy_departure(self, core: int, line, now: int) -> None:
        """A block left the private hierarchy: update HN + traffic."""
        block = line.block
        entry = self._dir_entries.get(block)
        if entry is None:
            entry = self.directory.entry(block)
        entry.drop(core)
        slice_id = block % self._nslices
        hops = self._c2s_hops[core][slice_id]
        tm = self.traffic
        # An SC copy only tells the directory (the LLC kept a copy at the
        # shared grant); UC/UD/SD carry data back, and the exclusive LLC
        # allocates it.
        msg = _EVICT_NOTIFY if line.state is CacheState.SC else _WRITEBACK
        self._tmsgs[msg] += 1
        tm.flits += msg.flits
        tm.flit_hops += msg.flits * hops
        if self.bus.wants_message:
            self._message(msg, hops)
        if msg is _WRITEBACK:
            self._llc_fill(self.home_nodes[slice_id], block)

    def _llc_fill(self, hn: HomeNode, block: int) -> None:
        victim = hn.llc_fill(block)
        if victim is not None:
            self.stats.llc_evictions += 1
            chan = self.addr_map.channel_of_block(victim.block)
            self.memory.access(chan, 0)
            self.stats.dram_writes += 1
            tm = self.traffic
            self._tmsgs[_MEM_WRITE] += 1
            tm.flits += _F_MEM_WRITE
            tm.flit_hops += _F_MEM_WRITE
            bus = self.bus
            if bus.wants_message:
                self._message(_MEM_WRITE, 1)
            if bus.wants_dram_write:
                bus.append((_DRAM_WRITE, bus.now, -1, victim.block, chan))

    def _dram_read(self, block: int, issue_time: int) -> int:
        chan = self.addr_map.channel_of_block(block)
        done = self.memory.access(chan, issue_time)
        self.stats.dram_reads += 1
        tm = self.traffic
        msgs = self._tmsgs
        msgs[_MEM_READ] += 1
        msgs[_MEM_DATA] += 1
        flits = _F_MEM_READ + _F_MEM_DATA
        tm.flits += flits
        tm.flit_hops += flits
        bus = self.bus
        if bus.wants_message:
            self._message(_MEM_READ, 1)
            self._message(_MEM_DATA, 1)
        if bus.wants_dram_read:
            bus.append((_DRAM_READ, issue_time, -1, block, chan))
        return done

    def _message(self, msg: MsgType, hops: int,
                 enqueue: Optional[int] = None,
                 dequeue: Optional[int] = None) -> None:
        """Record a counted message (behind ``bus.wants_message``).  A
        request queued at a home node passes its arrival at, and start of
        service from, the ordering point: sinks histogram the queueing."""
        bus = self.bus
        bus.append(((_MESSAGE if enqueue is None else _REQUEST)[msg],
                    bus.now, -1, -1, dequeue, enqueue, hops))

    def _emit_handoff(self, block: int, prev_owner: Optional[int],
                      new_owner: Optional[int]) -> None:
        """Record an exclusive-ownership transfer (behind
        ``bus.wants_line_handoff``); -1 denotes the HN."""
        if prev_owner == new_owner:
            return
        bus = self.bus
        new = new_owner if new_owner is not None else -1
        bus.append((_HANDOFF, bus.now, new, block,
                    prev_owner if prev_owner is not None else -1, new))

    #: The handler of each memory-op class, indexed by OpType; functions,
    #: not bound methods, so the machine holds no reference cycle.
    _HANDLERS = (_read, _write, _amo, _amo)
