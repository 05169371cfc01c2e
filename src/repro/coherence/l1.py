"""Private cache hierarchy of one core: L1D plus a local L2.

Coherence state lives with the block wherever it currently resides in the
private hierarchy.  The L2 acts as a victim cache for L1D evictions (the
common behaviour for the private L2 of the simulated system): blocks move
L2 -> L1 on access and L1 -> L2 on eviction, and leave the private
hierarchy entirely when evicted from L2 or invalidated by a snoop.

Two kinds of "departure" matter to different consumers:

* *L1 departures* (to the L2 or out) feed the DynAMO reuse predictor,
  which tracks block lifespans in the L1D specifically (Section V-C).
* *Hierarchy departures* (out of both levels) must be reported to the
  directory, and dirty ones write their data back to the LLC.

This module is purely structural — all timing lives in
:class:`repro.sim.machine.Machine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.coherence.cache import CacheLine, SetAssocCache
from repro.coherence.states import CacheState
from repro.sim.events import EventKind, shape

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.config import SystemConfig
    from repro.sim.events import EventBus

#: L1_EVICTION record shape (see repro.sim.events).
_L1_EVICTION = shape(EventKind.L1_EVICTION)


@dataclass(slots=True)
class Departure:
    """A block that left the L1D and possibly the whole private hierarchy."""

    line: CacheLine
    #: True when the block also left the L2 (directory must be updated).
    left_hierarchy: bool


@dataclass(slots=True)
class InsertResult:
    """Outcome of allocating a block into the L1D."""

    departures: List[Departure] = field(default_factory=list)


#: Shared result for the no-victim path of :meth:`insert_l1` — by far the
#: most common outcome.  Its departures are an (immutable) empty tuple so
#: an accidental append fails loudly instead of corrupting every caller.
_NO_DEPARTURES = InsertResult(departures=())  # type: ignore[arg-type]


class PrivateCacheHierarchy:
    """L1D + private L2 of a single core.

    ``core_id`` and ``bus`` identify the hierarchy on the instrumentation
    bus; departures from the L1D are emitted as L1_EVICTION events when
    a subscribed sink reads them (the signal the DynAMO reuse predictor and
    the per-block placement analyses consume).
    """

    def __init__(self, config: SystemConfig, core_id: int = -1,
                 bus: Optional["EventBus"] = None) -> None:
        self.l1 = SetAssocCache(config.l1_size, config.l1_ways,
                                config.block_size)
        self.l2 = SetAssocCache(config.l2_size, config.l2_ways,
                                config.block_size)
        self.core_id = core_id
        self.bus = bus
        # The L1 set array and geometry, aliased for the inlined lookups
        # below — every simulated load/store/AMO passes through them.
        self._l1_sets = self.l1._sets
        self._l1_nsets = self.l1.num_sets
        self._l2_sets = self.l2._sets
        self._l2_nsets = self.l2.num_sets

    # --- lookups ---

    def l1_state(self, block: int) -> CacheState:
        """Coherence state as seen by the L1D controller (policy input).

        A block resident only in the L2 reads as Invalid here: the
        placement decision is keyed on the *L1D* state (Table I), which is
        exactly why the Shared Far policy re-fetches absent blocks — they
        may merely have been evicted to the L2.
        """
        line = self._l1_sets[block % self._l1_nsets].get(block)
        return line.state if line is not None else CacheState.I

    def find(self, block: int) -> Tuple[Optional[CacheLine], Optional[int]]:
        """Locate ``block``; returns (line, level) with level 1, 2 or None."""
        line = self._l1_sets[block % self._l1_nsets].get(block)
        if line is not None:
            return line, 1
        line = self._l2_sets[block % self._l2_nsets].get(block)
        if line is not None:
            return line, 2
        return None, None

    def touch_l1(self, block: int) -> Optional[CacheLine]:
        """LRU-touch an L1-resident block and mark AMO-fetched reuse."""
        line_set = self._l1_sets[block % self._l1_nsets]
        line = line_set.get(block)
        if line is not None:
            # Re-insert to promote to most-recently-used (dict order is
            # the LRU stack, see repro.coherence.cache).
            del line_set[block]
            line_set[block] = line
            if line.fetched_by_amo:
                line.reused = True
        return line

    # --- allocation and movement ---

    def insert_l1(self, block: int, state: CacheState,
                  fetched_by_amo: bool = False) -> InsertResult:
        """Allocate ``block`` into the L1D, spilling victims to the L2.

        Returns the departures triggered by the allocation: the L1 victim
        (if any) always departs the L1; if spilling it into the L2 evicts
        an L2 victim, that block departs the hierarchy.
        """
        new_line = CacheLine(block, state, fetched_by_amo)
        # The block may be in L2 (promotion): remove the stale copy first.
        # The L2 remove and the L1 insert are inlined dict operations on
        # the aliased set arrays (this runs once per cache fill).
        self._l2_sets[block % self._l2_nsets].pop(block, None)
        l1_set = self._l1_sets[block % self._l1_nsets]
        l1_victim = None
        if block in l1_set:
            del l1_set[block]
        elif len(l1_set) >= self.l1.ways:
            l1_victim = l1_set.pop(next(iter(l1_set)))
        l1_set[block] = new_line
        if l1_victim is None:
            return _NO_DEPARTURES
        result = InsertResult()
        l2_victim = self.l2.insert(l1_victim)
        result.departures.append(Departure(l1_victim, left_hierarchy=False))
        if l2_victim is not None:
            result.departures.append(Departure(l2_victim, left_hierarchy=True))
        bus = self.bus
        if bus is not None and bus.wants_l1_eviction:
            for dep in result.departures:
                line = dep.line
                bus.append((_L1_EVICTION, bus.now, self.core_id, line.block,
                            line.fetched_by_amo, dep.left_hierarchy,
                            line.reused))
        return result

    def promote(self, block: int, fetched_by_amo: bool = False) -> InsertResult:
        """Move an L2-resident block into the L1D (L2 hit path).

        The promoted residency starts a fresh reuse epoch; pass
        ``fetched_by_amo`` when the access performing the promotion is a
        near AMO.

        Raises:
            KeyError: if the block is not in the L2.
        """
        line = self.l2.lookup(block, touch=False)
        if line is None:
            raise KeyError(f"block {block:#x} not resident in L2")
        return self.insert_l1(block, line.state, fetched_by_amo)

    def set_state(self, block: int, state: CacheState) -> None:
        """Change the coherence state of a resident block (either level)."""
        line, _level = self.find(block)
        if line is None:
            raise KeyError(f"block {block:#x} not resident")
        line.state = state

    def invalidate(self, block: int) -> Tuple[Optional[CacheLine], bool]:
        """Snoop-invalidate ``block`` from both levels.

        Returns ``(line, was_in_l1)`` where ``line`` is the removed copy
        (None when the block was not resident).
        """
        line = self.l1.remove(block)
        if line is not None:
            self.l2.remove(block)
            return line, True
        line = self.l2.remove(block)
        return line, False

    def downgrade(self, block: int, state: CacheState) -> bool:
        """Snoop-downgrade a resident block to ``state`` (e.g. UD -> SC).

        Returns True when the block was resident.
        """
        line, _level = self.find(block)
        if line is None:
            return False
        line.state = state
        return True
