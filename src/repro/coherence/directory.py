"""Home nodes: directory state, exclusive LLC slices, and the AMO buffer.

Every cache block has exactly one *home node* (HN) — the LLC slice that is
its point of coherence.  The HN tracks which private caches hold the block
(the directory), owns the block's data when no private cache does (the
LLC is exclusive of the private levels), and, for far AMOs, performs the
atomic arithmetic with a small ALU.

Two serialization resources at the HN create the throughput behaviour of
Fig. 1:

* ``DirEntry.line_busy_until`` — transactions on the *same block* are
  ordered one at a time; a far AMO holds the line only for the short
  directory + ALU occupancy, while a near AMO holds it for a full snoop
  round-trip, which is why far AMOs win under contention.
* ``HomeNode.busy_until`` — each slice controller handles one transaction
  ordering per ``hn_occupancy`` cycles, bounding per-slice throughput.

The *AMO buffer* (Section III-B2) holds the data of recently-AMO'd blocks
next to the ALU so back-to-back far AMOs skip the slow LLC data array.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.coherence.cache import CacheLine, SetAssocCache
from repro.coherence.states import CacheState
from repro.sim.events import EventKind, shape

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.config import SystemConfig
    from repro.sim.events import EventBus

#: LLC_ACCESS record shape (see repro.sim.events).
_LLC_ACCESS = shape(EventKind.LLC_ACCESS)


class DirEntry:
    """Directory state for one cache block."""

    __slots__ = ("owner", "sharers", "line_busy_until")

    def __init__(self) -> None:
        #: core holding the block in UC/UD/SD (data responsibility), if any.
        self.owner: Optional[int] = None
        #: cores holding the block in SC (the owner is tracked separately).
        self.sharers: Set[int] = set()
        #: time until which the block's transaction slot at the HN is held.
        self.line_busy_until = 0

    def holders(self) -> Set[int]:
        """All private caches holding a copy."""
        if self.owner is None:
            return set(self.sharers)
        return self.sharers | {self.owner}

    def drop(self, core: int) -> None:
        """Remove ``core`` from the holder sets."""
        self.sharers.discard(core)
        if self.owner == core:
            self.owner = None

    def is_idle(self) -> bool:
        return self.owner is None and not self.sharers


class AmoBuffer:
    """Small fully-associative LRU buffer of recent far-AMO targets."""

    def __init__(self, entries: int) -> None:
        if entries < 0:
            raise ValueError("AMO buffer size cannot be negative")
        self.entries = entries
        self._blocks: Dict[int, None] = {}
        self.hits = 0
        self.misses = 0

    def access(self, block: int) -> bool:
        """Look up and insert ``block``; True on hit."""
        if self.entries == 0:
            self.misses += 1
            return False
        hit = block in self._blocks
        if hit:
            del self._blocks[block]
            self.hits += 1
        else:
            self.misses += 1
            if len(self._blocks) >= self.entries:
                del self._blocks[next(iter(self._blocks))]
        self._blocks[block] = None
        return hit

    def invalidate(self, block: int) -> None:
        """Drop ``block`` (its data moved to a private cache)."""
        self._blocks.pop(block, None)

    def __contains__(self, block: int) -> bool:
        return block in self._blocks


class HomeNode:
    """One LLC slice with its directory bank, AMO buffer and ALU."""

    def __init__(self, slice_id: int, config: SystemConfig,
                 bus: Optional["EventBus"] = None) -> None:
        self.slice_id = slice_id
        self.llc = SetAssocCache(config.llc_slice_size, config.llc_ways,
                                 config.block_size)
        self.amo_buffer = AmoBuffer(config.amo_buffer_entries)
        self.bus = bus
        self.busy_until = 0
        self.llc_hits = 0
        self.llc_misses = 0
        self.far_amos_executed = 0

    def llc_lookup(self, block: int) -> bool:
        """LLC presence check with hit/miss accounting."""
        hit = self.llc.lookup(block) is not None
        if hit:
            self.llc_hits += 1
        else:
            self.llc_misses += 1
        bus = self.bus
        if bus is not None and bus.wants_llc_access:
            bus.append((_LLC_ACCESS, bus.now, -1, block, hit, self.slice_id))
        return hit

    def llc_fill(self, block: int) -> Optional[CacheLine]:
        """Allocate ``block`` in this slice; returns the evicted victim."""
        return self.llc.insert(CacheLine(block, CacheState.I))

    def llc_fill_if_room(self, block: int) -> bool:
        """Allocate ``block`` only when no eviction is needed.

        Used when a snooped dirty owner would hand its data to the LLC:
        if the LLC set is full the HN declines the copy and the owner
        stays SharedDirty — the (deliberately rare) source of SD state.
        """
        if self.llc.lru_victim(block) is not None:
            return False
        self.llc.insert(CacheLine(block, CacheState.I))
        return True

    def llc_drop(self, block: int) -> None:
        """Remove ``block`` from the LLC (granted Unique to a private)."""
        self.llc.remove(block)


class DirectoryState:
    """Global directory: per-block entries, created on first touch."""

    def __init__(self) -> None:
        self._entries: Dict[int, DirEntry] = {}

    def entry(self, block: int) -> DirEntry:
        entry = self._entries.get(block)
        if entry is None:
            entry = DirEntry()
            self._entries[block] = entry
        return entry

    def peek(self, block: int) -> Optional[DirEntry]:
        return self._entries.get(block)

    def tracked_blocks(self) -> List[int]:
        """Blocks with live directory entries (for invariant checks)."""
        return [b for b, e in self._entries.items() if not e.is_idle()]

    def __len__(self) -> int:
        return len(self._entries)

    # --- snapshot/restore (model checking) ----------------------------

    def snapshot(self) -> "DirectorySnapshot":
        """Hashable snapshot of the live entries.

        Idle entries are dropped: an idle entry is architecturally
        indistinguishable from an absent one (``entry()`` recreates it
        on demand), and keeping them would split canonically equal
        states.  ``line_busy_until`` is timing, not architecture, and is
        excluded for the same reason.
        """
        return tuple(sorted(
            (block,
             -1 if e.owner is None else e.owner,
             tuple(sorted(e.sharers)))
            for block, e in self._entries.items() if not e.is_idle()))

    def restore(self, snap: "DirectorySnapshot") -> None:
        """Reset to ``snap``, mutating the aliased entry dict in place."""
        self._entries.clear()
        for block, owner, sharers in snap:
            entry = DirEntry()
            entry.owner = None if owner < 0 else owner
            entry.sharers.update(sharers)
            self._entries[block] = entry


#: One directory entry in a snapshot: (block, owner or -1, sharers).
DirectorySnapshot = Tuple[Tuple[int, int, Tuple[int, ...]], ...]
