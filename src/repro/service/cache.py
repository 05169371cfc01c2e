"""Counting store front: the service's hit/compute/join counters.

A popular cell under Zipf traffic is requested many times in the window
where it is still being simulated.  Deduplication happens in one place,
the :class:`~repro.service.scheduler.Scheduler`'s waiter table: the
first request for a key (the *leader*) runs a flight, and every
concurrent duplicate (*joiner*) is parked on it and shares its result.
:class:`SingleFlightCache` is what the leader's flight calls: a load,
or a compute and store, over the (process-shared)
:class:`~repro.harness.executor.ResultStore`, plus the counters.

Counter semantics (reported by ``GET /v1/stats``):

* ``hits`` — requests answered from the store (memo or disk) without
  entering a flight;
* ``computed`` — simulations actually executed (== distinct misses);
* ``joined`` — requests parked on another request's flight;
* ``misses`` = ``computed + joined`` — requests that found nothing in
  the store at arrival time;
* ``errors`` — flights whose compute raised.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

from repro.harness.executor import ResultStore, RunSpec
from repro.sim.results import SimulationResult

#: How a request was served (the per-cell ``source`` field).
SOURCE_CACHE = "cache"
SOURCE_COMPUTED = "computed"
SOURCE_JOINED = "joined"


class CacheStats:
    """Thread-safe hit/miss/dedup counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.computed = 0
        self.joined = 0
        self.errors = 0

    def count(self, field: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + n)

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            misses = self.computed + self.joined
            total = self.hits + misses
            return {
                "hits": self.hits,
                "computed": self.computed,
                "joined": self.joined,
                "misses": misses,
                "errors": self.errors,
                "hit_ratio": self.hits / total if total else 0.0,
            }


class SingleFlightCache:
    """Counting front over a :class:`ResultStore`.

    :meth:`get` is the one entry point: it returns ``(result, source)``
    where ``source`` is :data:`SOURCE_CACHE` or :data:`SOURCE_COMPUTED`.
    It does not deduplicate by itself; the Scheduler's waiter table
    hands it at most one call per key at a time.  A compute error is
    counted and re-raised, never stored, so a later request retries.
    """

    def __init__(self, store: Optional[ResultStore] = None) -> None:
        self.store = store if store is not None else ResultStore()
        self.stats = CacheStats()

    def get(self, spec: RunSpec,
            compute: Callable[[RunSpec], SimulationResult]
            ) -> Tuple[SimulationResult, str]:
        """Serve ``spec`` from the store, or compute and store it."""
        cached = self.store.load(spec)
        if cached is not None:
            self.stats.count("hits")
            return cached, SOURCE_CACHE
        try:
            result = compute(spec)
        except BaseException:
            self.stats.count("errors")
            raise
        self.store.store(spec, result)
        self.stats.count("computed")
        return result, SOURCE_COMPUTED
