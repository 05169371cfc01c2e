"""Run planning and execution: specs, result store, the executor.

The harness splits an experiment into three concerns:

* **Planning** — :class:`RunSpec` is a frozen, picklable description of
  one simulation cell.  It records configuration as *overrides relative
  to* :data:`~repro.sim.config.DEFAULT_CONFIG`, so a spec alone is
  enough to reconstruct the run anywhere (in particular inside a worker
  process that never saw the caller's ``SystemConfig`` object).
* **Storage** — :class:`ResultStore` memoizes results on disk keyed by
  the spec's cache key, with crash-safe writes (unique temp file +
  atomic rename, safe against concurrent sweeps sharing one cache
  directory) and an in-process memo so a sweep never deserializes the
  same JSON twice.  The store is service-grade: entries live in 256
  key-prefix shard directories, the memo is a bounded LRU so a
  long-lived server cannot leak memory across millions of distinct
  specs, all memo traffic is thread-safe, and an optional byte budget
  (``$REPRO_CACHE_BYTES``) evicts least-recently-used entries from
  disk after every write.
* **Execution** — :class:`Executor` answers a batch's hits from the
  store and computes its misses through :func:`fan_out`, in this
  process for one worker and on a ``ProcessPoolExecutor`` otherwise.
  Either way the computed result is serialized and deserialized before
  it is stored, so a parallel sweep produces byte-identical cache files
  to a serial one.  :func:`fan_out` is also how the golden oracle and
  the corpus sanitizer spread their uncached cells over workers.

Serialization is strict: :func:`deserialize_result` rejects unknown or
missing fields with :class:`CacheSchemaError`, and the store treats any
such mismatch as a cache miss — a stale cache written by a different
model revision re-runs instead of silently resurrecting drifted data.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from multiprocessing import get_context
from typing import (IO, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, TypeVar)

from repro.energy.model import EnergySink
from repro.noc.message import MsgType, TrafficMeter
from repro.sim.config import DEFAULT_CONFIG, SystemConfig
from repro.sim.engine import run as engine_run
from repro.sim.events import EventBus, Sink
from repro.sim.machine import Machine
from repro.sim.results import MachineStats, SimulationResult
from repro.workloads.base import make_workload

T = TypeVar("T")
R = TypeVar("R")

#: Bump to invalidate all cached results after a model change.
CACHE_VERSION = 8

#: Safety budget: no workload cell should ever need this many cycles.
MAX_CYCLES = 2_000_000_000


#: Shard fan-out: cache keys are hex, two prefix characters = 256 dirs.
SHARD_CHARS = 2

#: Default memo capacity (results held deserialized in memory).
DEFAULT_MEMO_ENTRIES = 4096


def default_cache_dir() -> str:
    """Cache location: ``$REPRO_CACHE_DIR`` or ``.repro_cache`` in cwd."""
    return os.environ.get("REPRO_CACHE_DIR",
                          os.path.join(os.getcwd(), ".repro_cache"))


def default_memo_entries() -> int:
    """Memo LRU capacity: ``$REPRO_MEMO_ENTRIES`` or 4096."""
    raw = os.environ.get("REPRO_MEMO_ENTRIES", "").strip()
    if not raw:
        return DEFAULT_MEMO_ENTRIES
    try:
        entries = int(raw)
    except ValueError:
        raise ValueError("REPRO_MEMO_ENTRIES must be a positive integer, "
                         f"got {raw!r}") from None
    if entries < 1:
        raise ValueError(f"REPRO_MEMO_ENTRIES must be >= 1, got {entries}")
    return entries


def default_byte_budget() -> Optional[int]:
    """On-disk cache budget: ``$REPRO_CACHE_BYTES`` or None (unbounded)."""
    raw = os.environ.get("REPRO_CACHE_BYTES", "").strip()
    if not raw:
        return None
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError("REPRO_CACHE_BYTES must be a positive integer, "
                         f"got {raw!r}") from None
    if budget < 1:
        raise ValueError(f"REPRO_CACHE_BYTES must be >= 1, got {budget}")
    return budget


def default_jobs() -> int:
    """Worker count when unspecified: ``$REPRO_JOBS`` or 1 (serial)."""
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_JOBS must be a positive integer, got {raw!r}") from None
    if jobs < 1:
        raise ValueError(f"REPRO_JOBS must be >= 1, got {jobs}")
    return jobs


class CacheSchemaError(ValueError):
    """A cached result does not match the current result schema."""


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Everything that identifies one simulation cell."""

    workload: str
    policy: str
    threads: int
    scale: float = 1.0
    seed: int = 0
    input_name: Optional[str] = None
    config_overrides: Tuple = ()  # sorted (key, value) pairs

    def with_config(self, config: SystemConfig,
                    base: SystemConfig = DEFAULT_CONFIG) -> "RunSpec":
        """Record how ``config`` differs from ``base`` (for cache keys)."""
        overrides = []
        for field in dataclasses.fields(SystemConfig):
            val = getattr(config, field.name)
            if val != getattr(base, field.name):
                overrides.append((field.name, val))
        return dataclasses.replace(self, config_overrides=tuple(overrides))

    def resolve_config(self,
                       base: SystemConfig = DEFAULT_CONFIG) -> SystemConfig:
        """Reconstruct the run's ``SystemConfig`` from the overrides.

        The inverse of :meth:`with_config`: a spec is self-describing,
        so worker processes rebuild the configuration from the spec
        alone.
        """
        if not self.config_overrides:
            return base
        return base.replace(**dict(self.config_overrides))

    def cache_key(self) -> str:
        payload = json.dumps(
            [CACHE_VERSION, self.workload, self.policy, self.threads,
             self.scale, self.seed, self.input_name,
             list(self.config_overrides)],
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:24]


def make_spec(workload: str, policy: str, threads: Optional[int] = None,
              scale: float = 1.0, seed: int = 0,
              input_name: Optional[str] = None,
              config: SystemConfig = DEFAULT_CONFIG) -> RunSpec:
    """Plan one cell: validate inputs and fold ``config`` into the spec."""
    threads = threads if threads is not None else config.num_cores
    if threads > config.num_cores:
        raise ValueError(
            f"{threads} threads > {config.num_cores} cores in config")
    return RunSpec(workload, policy, threads, scale, seed,
                   input_name).with_config(config)


# --- result (de)serialization --------------------------------------------

#: Exact top-level field set of a serialized result.  Deserialization
#: rejects any deviation so schema drift surfaces as a cache miss, never
#: as a half-populated result.
RESULT_FIELDS = frozenset({
    "policy", "cycles", "per_core_finish", "instructions",
    "amos_committed", "stats", "messages", "flits", "flit_hops",
    "near_decisions", "far_decisions", "energy", "metadata",
})


def serialize_result(result: SimulationResult) -> Dict:
    """Flatten a result to a JSON-serializable dict (stable field order)."""
    return {
        "policy": result.policy,
        "cycles": result.cycles,
        "per_core_finish": result.per_core_finish,
        "instructions": result.instructions,
        "amos_committed": result.amos_committed,
        "stats": result.stats.as_dict(),
        "messages": result.traffic.by_type(),
        "flits": result.traffic.flits,
        "flit_hops": result.traffic.flit_hops,
        "near_decisions": result.near_decisions,
        "far_decisions": result.far_decisions,
        "energy": result.energy,
        "metadata": result.metadata,
    }


def deserialize_result(data: Dict) -> SimulationResult:
    """Rebuild a result from :func:`serialize_result` output.

    Raises:
        CacheSchemaError: on unknown/missing fields anywhere in the
            payload — the data was written by a different model revision.
    """
    unknown = set(data) - RESULT_FIELDS
    if unknown:
        raise CacheSchemaError(
            f"unknown result fields: {sorted(unknown)}")
    missing = RESULT_FIELDS - set(data)
    if missing:
        raise CacheSchemaError(
            f"missing result fields: {sorted(missing)}")
    try:
        stats = MachineStats.from_dict(data["stats"])
    except ValueError as exc:
        raise CacheSchemaError(str(exc)) from None
    traffic = TrafficMeter()
    for name, count in data["messages"].items():
        try:
            traffic.messages[MsgType[name]] = count
        except KeyError:
            raise CacheSchemaError(
                f"unknown message type {name!r}") from None
    traffic.flits = data["flits"]
    traffic.flit_hops = data["flit_hops"]
    return SimulationResult(
        policy=data["policy"],
        cycles=data["cycles"],
        per_core_finish=data["per_core_finish"],
        instructions=data["instructions"],
        amos_committed=data["amos_committed"],
        stats=stats,
        traffic=traffic,
        near_decisions=data["near_decisions"],
        far_decisions=data["far_decisions"],
        energy=data["energy"],
        metadata=data["metadata"],
    )


# --- the result store -----------------------------------------------------

class ResultStore:
    """Sharded on-disk result cache with a bounded in-process memo.

    Writes go to a uniquely named temp file in the entry's shard
    directory and are published with an atomic :func:`os.replace`, so
    concurrent processes (or a crash mid-write) can never leave a torn
    JSON file behind under the final name.  Reads that fail to parse,
    fail the schema check, or fail at the OS level (a corrupted entry
    that is a directory, an unreadable file, a shard path squatted by a
    stray file) are treated as misses — a damaged cache recomputes, it
    never crashes the caller.

    Layout: entries are spread over 256 shard directories keyed by the
    first two hex characters of the cache key, keeping per-directory
    entry counts sane at service scale.

    The memo is an LRU bounded at ``memo_entries`` results (default
    ``$REPRO_MEMO_ENTRIES`` or 4096) and guarded by a lock, so a
    long-lived multi-threaded server can serve concurrent readers
    without leaking memory across millions of distinct specs.  When a
    byte budget is set (``byte_budget`` or ``$REPRO_CACHE_BYTES``),
    every write evicts least-recently-used entries (by mtime; disk
    hits re-touch their file) until the cache fits the budget.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 enabled: bool = True,
                 memo_entries: Optional[int] = None,
                 byte_budget: Optional[int] = None) -> None:
        self.cache_dir = cache_dir or default_cache_dir()
        self.enabled = enabled
        self.memo_entries = (memo_entries if memo_entries is not None
                             else default_memo_entries())
        if self.memo_entries < 1:
            raise ValueError(
                f"memo_entries must be >= 1, got {self.memo_entries}")
        self.byte_budget = (byte_budget if byte_budget is not None
                            else default_byte_budget())
        self._memo: "OrderedDict[str, SimulationResult]" = OrderedDict()
        self._lock = threading.Lock()
        if self.enabled:
            os.makedirs(self.cache_dir, exist_ok=True)

    # --- paths --------------------------------------------------------

    def shard_dir(self, key: str) -> str:
        """Shard directory holding ``key``'s entry."""
        return os.path.join(self.cache_dir, key[:SHARD_CHARS])

    def path_for(self, spec: RunSpec) -> str:
        key = spec.cache_key()
        return os.path.join(self.shard_dir(key), key + ".json")

    # --- memo (LRU, thread-safe) --------------------------------------

    def _memo_get(self, key: str) -> Optional[SimulationResult]:
        with self._lock:
            result = self._memo.get(key)
            if result is not None:
                self._memo.move_to_end(key)
            return result

    def _memo_put(self, key: str, result: SimulationResult) -> None:
        with self._lock:
            self._memo[key] = result
            self._memo.move_to_end(key)
            while len(self._memo) > self.memo_entries:
                self._memo.popitem(last=False)

    # --- read ---------------------------------------------------------

    @staticmethod
    def _read_json(path: str) -> Optional[Dict]:
        """Parse ``path`` or return None; any failure mode is a miss."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError, UnicodeDecodeError):
            # OSError covers FileNotFoundError, IsADirectoryError and
            # permission problems; ValueError covers JSONDecodeError.
            return None
        return data if isinstance(data, dict) else None

    def load(self, spec: RunSpec) -> Optional[SimulationResult]:
        """Cached result for ``spec``, or None on a miss."""
        if not self.enabled:
            return None
        key = spec.cache_key()
        memo = self._memo_get(key)
        if memo is not None:
            return memo
        path = self.path_for(spec)
        data = self._read_json(path)
        if data is None:
            return None
        try:
            result = deserialize_result(data)
        except CacheSchemaError:
            return None  # written by a different revision: recompute
        if self.byte_budget is not None:
            try:  # refresh recency so LRU eviction spares hot entries
                os.utime(path)
            except OSError:
                pass
        self._memo_put(key, result)
        return result

    # --- write --------------------------------------------------------

    def _write_entry(self, key: str, data: Dict) -> None:
        """Crash-safe publish of one serialized entry into its shard."""
        shard = self.shard_dir(key)
        os.makedirs(shard, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=shard, prefix=key + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(data, fh)
            os.replace(tmp, os.path.join(shard, key + ".json"))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def store(self, spec: RunSpec, result: SimulationResult) -> None:
        """Persist ``result`` for ``spec`` (memo always, disk if enabled)."""
        key = spec.cache_key()
        self._memo_put(key, result)
        if not self.enabled:
            return
        self._write_entry(key, serialize_result(result))
        if self.byte_budget is not None:
            self.evict_to_budget(protect=key)

    # --- eviction -----------------------------------------------------

    def _disk_entries(self) -> List[Tuple[float, int, str]]:
        """Entries in the root and the shards as ``(mtime, size, path)``."""
        entries = []
        try:
            roots = [self.cache_dir] + [
                os.path.join(self.cache_dir, d)
                for d in os.listdir(self.cache_dir)
                if os.path.isdir(os.path.join(self.cache_dir, d))]
        except OSError:
            return []
        for root in roots:
            try:
                names = os.listdir(root)
            except OSError:
                continue
            for name in names:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(root, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue  # concurrently evicted
                entries.append((st.st_mtime, st.st_size, path))
        return entries

    def disk_bytes(self) -> int:
        """Total bytes currently held on disk."""
        return sum(size for _, size, _ in self._disk_entries())

    def evict_to_budget(self, protect: Optional[str] = None) -> int:
        """Remove LRU entries until the cache fits ``byte_budget``.

        ``protect`` names a cache key that must survive this pass (the
        entry just written), so a budget smaller than one result still
        serves it.  Returns the number of entries removed.
        """
        if self.byte_budget is None:
            return 0
        entries = sorted(self._disk_entries())
        total = sum(size for _, size, _ in entries)
        removed = 0
        for _, size, path in entries:
            if total <= self.byte_budget:
                break
            if protect is not None and os.path.basename(path) == \
                    protect + ".json":
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
        return removed


# --- sweep progress -------------------------------------------------------

def spec_label(spec: RunSpec) -> str:
    """Compact human label for one cell (progress lines, reports)."""
    label = f"{spec.workload}/{spec.policy}"
    if spec.input_name:
        label += f":{spec.input_name}"
    label += f" t{spec.threads}"
    if spec.scale != 1.0:
        label += f" x{spec.scale:g}"
    return label


class SweepProgress:
    """Per-completed-cell progress lines for long sweeps.

    Cold figure grids simulate for minutes with no output; this emits
    one ``[k/n] spec-label (t.ts)`` line to stderr as each *simulated*
    cell completes (cache hits are instant and not worth a line).
    Output is suppressed when stderr is not a TTY — CI logs and shell
    pipelines stay clean — and ``$REPRO_PROGRESS`` overrides the TTY
    check ("1" forces lines on, "0" forces them off).
    """

    def __init__(self, total: int, stream: Optional[IO[str]] = None) -> None:
        self.total = total
        self.done = 0
        self._stream = stream if stream is not None else sys.stderr
        self._t0 = time.monotonic()
        forced = os.environ.get("REPRO_PROGRESS", "").strip()
        if forced == "1":
            self.enabled = total > 0
        elif forced == "0":
            self.enabled = False
        else:
            isatty = getattr(self._stream, "isatty", None)
            self.enabled = (total > 0 and isatty is not None and isatty())

    def step(self, spec: RunSpec) -> None:
        """Record (and maybe print) one completed simulation."""
        self.done += 1
        if not self.enabled:
            return
        elapsed = time.monotonic() - self._t0
        print(f"[{self.done}/{self.total}] {spec_label(spec)} "
              f"({elapsed:.1f}s)", file=self._stream, flush=True)


# --- execution ------------------------------------------------------------

def execute_spec(spec: RunSpec,
                 extra_sinks: Sequence[Sink] = ()) -> SimulationResult:
    """Simulate one cell from scratch (no cache involvement).

    An :class:`~repro.energy.model.EnergySink` is always attached so the
    result carries its dynamic-energy breakdown; ``extra_sinks`` adds
    instrumentation (tracing, invariant checking) for this run only.
    """
    config = spec.resolve_config()
    bus = EventBus()
    bus.subscribe(EnergySink(num_cores=spec.threads))
    for sink in extra_sinks:
        bus.subscribe(sink)
    try:
        wl = make_workload(spec.workload, spec.threads, scale=spec.scale,
                           seed=spec.seed, input_name=spec.input_name)
        machine = Machine(config, spec.policy, bus=bus)
        for addr, value in wl.initial_values().items():
            machine.poke_value(addr, value)
        result = engine_run(machine, wl.programs(), max_cycles=MAX_CYCLES)
    finally:
        # A failed run (a SanitizerError, a raising sink) still flushes
        # and closes every sink's output.
        bus.close()
    # Merge rather than assign: observability sinks annotate metadata at
    # finalize time (histograms, interval series, contention tables) and
    # those payloads must survive.  Default mode (no extra sinks) starts
    # from an empty dict, so cache files stay byte-identical.
    result.metadata.update({
        "workload": spec.workload,
        "input": wl.input_name,
        "threads": spec.threads,
        "scale": spec.scale,
        "amo_footprint_bytes": wl.amo_footprint_bytes,
    })
    return result


def _execute_serialized(spec: RunSpec) -> Dict:
    """Fan-out entry point: run a spec, return the serialized result.

    Workers hand back plain dicts (cheap to pickle); the calling process
    is the single writer to the store, which both keeps the memo
    coherent and makes cache files independent of the worker count.
    """
    return serialize_result(execute_spec(spec))


def fan_out(fn: Callable[[T], R], items: Sequence[T],
            jobs: int) -> Iterator[Tuple[int, R]]:
    """Yield ``(i, fn(items[i]))`` for every item, in completion order.

    The one place the harness starts worker processes.  With one worker
    or one item the calls run in this process, in order; otherwise they
    run on a pool of up to ``jobs`` spawned worker processes (``fn`` and
    the items must pickle).  When a call raises, items not yet started are
    dropped, the calls already running still yield their results, and
    then the first error is raised.  Closing the iterator early drops
    the items not yet started too.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(items) <= 1:
        for i, item in enumerate(items):
            yield i, fn(item)
        return
    error: Optional[BaseException] = None
    # Spawned, not forked: forking a process that runs threads (a server,
    # a test harness) can copy a lock some thread holds.
    with ProcessPoolExecutor(max_workers=min(jobs, len(items)),
                             mp_context=get_context("spawn")) as pool:
        index = {pool.submit(fn, item): i for i, item in enumerate(items)}
        live = set(index)
        try:
            while live:
                done, live = wait(live, return_when=FIRST_COMPLETED)
                for future in done:
                    exc = future.exception()
                    if exc is None:
                        yield index[future], future.result()
                    elif error is None:
                        error = exc
                if error is not None:
                    # Drop what has not started; cancel() fails on a
                    # running call, which stays live and still yields.
                    live = {f for f in live if not f.cancel()}
        finally:
            for future in live:
                future.cancel()
    if error is not None:
        raise error


class Executor:
    """Runs batches of cells over one :class:`ResultStore`.

    Hits are answered from the store; misses are deduplicated by cache
    key and computed through :func:`fan_out` on ``jobs`` workers
    (default ``$REPRO_JOBS`` or 1).  Every computed cell makes the same
    serialize/deserialize round trip, in-process or not, so cache files
    and returned results do not depend on the worker count.  Without a
    ``store`` the default cache is used, disabled when
    ``$REPRO_NO_CACHE`` is "1".
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 jobs: Optional[int] = None) -> None:
        if store is None:
            store = ResultStore(
                enabled=os.environ.get("REPRO_NO_CACHE") != "1")
        self.store = store
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def run(self, spec: RunSpec) -> SimulationResult:
        """One cell: its cached result, or a fresh (stored) one."""
        return self.run_many([spec])[0]

    def run_many(self, specs: Iterable[RunSpec]) -> List[SimulationResult]:
        """Results in the order of ``specs``; duplicates run once.

        When a cell fails, every cell that finished is still stored, and
        then the error is raised.
        """
        specs = list(specs)
        results: List[Optional[SimulationResult]] = [None] * len(specs)
        misses: Dict[str, Tuple[RunSpec, List[int]]] = {}
        for i, spec in enumerate(specs):
            cached = self.store.load(spec)
            if cached is not None:
                results[i] = cached
            else:
                misses.setdefault(spec.cache_key(), (spec, []))[1].append(i)
        todo = list(misses.values())
        progress = SweepProgress(len(todo))
        for n, data in fan_out(_execute_serialized,
                               [spec for spec, _ in todo], self.jobs):
            spec, idxs = todo[n]
            result = deserialize_result(data)
            self.store.store(spec, result)
            for i in idxs:
                results[i] = result
            progress.step(spec)
        return results  # type: ignore[return-value]


# The serve-zipf benchmark's set-up still imports this name; it goes
# with the benchmark follow-up that drops that import (ROADMAP item 1).
# One worker, whatever $REPRO_JOBS says: the pre-fill runs in-process.
SerialExecutor = functools.partial(Executor, jobs=1)
