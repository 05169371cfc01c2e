"""Cache-layer correctness: single-flight dedup, eviction, interleavings.

Single-flight dedup lives in the Scheduler's in-flight table, so those
tests drive a :class:`Scheduler` directly (no HTTP): identical
concurrent submits compute once, a failing flight's error reaches every
parked joiner and is never cached, parked joiners never hold the pool
slot their leader needs, and every cell of a key shares the store's
one result object.

The store property test drives random store/load/evict interleavings
against a shadow model and checks two invariants after every step:
a load never returns a *wrong* result (stale-but-evicted is a miss,
never corruption) and the on-disk footprint never exceeds the byte
budget after an eviction pass.
"""

import json
import os
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.executor import (ResultStore, make_spec,
                                    serialize_result)
from repro.service.scheduler import Scheduler
from tests.service.conftest import stub_compute

SPECS = [make_spec("HIST", "all-near", threads=8, scale=0.5, seed=s)
         for s in range(5)]


# --- single-flight (the Scheduler's in-flight table) ------------------


@pytest.fixture
def make_scheduler(tmp_path):
    """Build Schedulers over one fresh store; shut them all down after."""
    made = []

    def build(compute, workers=4):
        scheduler = Scheduler(ResultStore(str(tmp_path)), workers=workers,
                              compute=compute)
        made.append(scheduler)
        return scheduler

    yield build
    for scheduler in made:
        scheduler.shutdown()


def _settle(*jobs):
    for job in jobs:
        assert job.wait(10), f"job {job.id} did not settle"


def test_single_flight_computes_once_under_contention(make_scheduler):
    spec = SPECS[0]
    computes = []

    def slow_compute(s):
        computes.append(s.cache_key())
        time.sleep(0.05)  # keep the flight open while the others arrive
        return stub_compute(s)

    scheduler = make_scheduler(slow_compute)
    enter = threading.Barrier(8)
    jobs = [None] * 8

    def worker(i):
        enter.wait()  # all 8 threads submit the same key together
        jobs[i] = scheduler.submit([spec])

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive(), "submit must not block"
    _settle(*jobs)

    cells = [job.cells[0] for job in jobs]
    assert len(computes) == 1, "concurrent identical requests compute once"
    wires = {json.dumps(serialize_result(cell.result), sort_keys=True)
             for cell in cells}
    assert len(wires) == 1, "every caller sees the same result"
    sources = [cell.source for cell in cells]
    assert sources.count("computed") == 1
    assert set(sources) <= {"computed", "joined", "cache"}
    stats = scheduler.cache.stats
    assert stats.computed == 1
    assert stats.joined + stats.hits == 7


def test_single_flight_propagates_errors_and_retries(make_scheduler):
    spec = SPECS[0]
    calls = []

    def fails_once(s):
        calls.append(1)
        if len(calls) == 1:
            raise ValueError("seeded failure")
        return stub_compute(s)

    scheduler = make_scheduler(fails_once)
    failed = scheduler.submit([spec])
    _settle(failed)
    assert failed.cells[0].status == "error"
    assert "seeded failure" in failed.cells[0].error
    assert scheduler.cache.stats.errors == 1
    # The failure was not cached: the next request retries the compute.
    retry = scheduler.submit([spec])
    _settle(retry)
    assert retry.cells[0].source == "computed"
    assert len(calls) == 2
    # ... and the retry's success is served from cache afterwards.
    again = scheduler.submit([spec])
    _settle(again)
    assert again.cells[0].source == "cache"
    assert len(calls) == 2
    assert scheduler.cache.stats.errors == 1


def test_error_reaches_every_joiner(make_scheduler):
    spec = SPECS[1]
    release = threading.Event()
    entered = threading.Event()

    def blocking_fail(s):
        entered.set()
        release.wait(10)
        raise RuntimeError("flight failed")

    scheduler = make_scheduler(blocking_fail)
    leader = scheduler.submit([spec])
    assert entered.wait(10)
    joiners = [scheduler.submit([spec]) for _ in range(2)]
    assert scheduler.cache.stats.joined == 2, "joiners park on the flight"
    release.set()
    _settle(leader, *joiners)
    errors = [job.cells[0].error for job in (leader, *joiners)]
    assert errors == ["RuntimeError: flight failed"] * 3
    assert all(job.cells[0].status == "error"
               for job in (leader, *joiners))
    assert scheduler.cache.stats.errors == 1


def test_joiners_never_starve_a_one_worker_pool(make_scheduler):
    """Parked joiners hold no pool slot: the one worker stays free."""
    hot, cold = SPECS[2], SPECS[3]
    release = threading.Event()
    entered = threading.Event()

    def compute(s):
        if s.cache_key() == hot.cache_key():
            entered.set()
            release.wait(10)
        return stub_compute(s)

    scheduler = make_scheduler(compute, workers=1)
    leader = scheduler.submit([hot])
    assert entered.wait(10)
    joiners = [scheduler.submit([hot]), scheduler.submit([hot]),
               scheduler.submit([hot, cold])]
    cells = scheduler.stats()["cells"]
    assert (cells["in_flight"], cells["queue_depth"]) == (1, 1), \
        "hot holds the one worker; cold queues behind it"
    release.set()
    _settle(leader, *joiners)
    assert all(cell.status == "done"
               for job in (leader, *joiners) for cell in job.cells)
    stats = scheduler.cache.stats
    assert stats.computed == 2
    assert stats.joined == 3


def test_cells_share_the_store_memo_result_object(make_scheduler):
    """Computed, joined and cached cells all reference the memo's result.

    A retained job holds no per-cell copy of the wire payload: results
    are serialised when a snapshot asks for them.
    """
    spec = SPECS[4]
    release = threading.Event()
    entered = threading.Event()

    def compute(s):
        entered.set()
        release.wait(10)
        return stub_compute(s)

    scheduler = make_scheduler(compute)
    leader = scheduler.submit([spec])
    assert entered.wait(10)
    joiners = [scheduler.submit([spec, spec]) for _ in range(2)]
    release.set()
    _settle(leader, *joiners)
    hits = [scheduler.submit([spec, spec]) for _ in range(3)]
    _settle(*hits)

    jobs = [leader, *joiners, *hits]
    cells = [cell for job in jobs for cell in job.cells]
    assert [cell.source for cell in cells] == \
        ["computed"] + ["joined"] * 4 + ["cache"] * 6
    memo = scheduler.cache.store.load(spec)
    assert memo is not None
    assert all(cell.result is memo for cell in cells), \
        "every cell references the store's one result object"
    want = json.dumps(serialize_result(memo), sort_keys=True)
    for job in jobs:
        snapshot = json.dumps(job.snapshot(), sort_keys=True)
        assert json.dumps(job.snapshot(), sort_keys=True) == snapshot
        for cell in json.loads(snapshot)["cells"]:
            assert json.dumps(cell["result"], sort_keys=True) == want


# --- store/load/evict interleavings (property test) -------------------


def _entry_bytes():
    with tempfile.TemporaryDirectory() as d:
        probe = ResultStore(d)
        probe.store(SPECS[0], stub_compute(SPECS[0]))
        return os.path.getsize(probe.path_for(SPECS[0]))


ENTRY_BYTES = _entry_bytes()

ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.integers(0, 4)),
        st.tuples(st.just("load"), st.integers(0, 4)),
        st.tuples(st.just("evict"), st.just(0)),
    ),
    min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(trace=ops)
def test_store_interleavings_never_lie_and_respect_budget(trace):
    """Any store/load/evict sequence: loads are right-or-miss, disk fits."""
    budget = ENTRY_BYTES * 2 + ENTRY_BYTES // 2  # room for two entries
    with tempfile.TemporaryDirectory() as cache_dir:
        store = ResultStore(cache_dir, memo_entries=2, byte_budget=budget)
        expected = {s.cache_key(): json.dumps(
            serialize_result(stub_compute(s)), sort_keys=True)
            for s in SPECS}
        for op, i in trace:
            spec = SPECS[i]
            if op == "store":
                store.store(spec, stub_compute(spec))
                assert store.disk_bytes() <= budget, \
                    "byte budget exceeded after store"
            elif op == "load":
                result = store.load(spec)
                if result is not None:
                    wire = json.dumps(serialize_result(result),
                                      sort_keys=True)
                    assert wire == expected[spec.cache_key()], \
                        "load returned a wrong result"
            else:
                store.evict_to_budget()
                assert store.disk_bytes() <= budget


# --- threaded stress (no torn reads through one shared store) ---------


def test_concurrent_store_load_returns_right_or_miss(tmp_path):
    store = ResultStore(str(tmp_path), memo_entries=3,
                        byte_budget=ENTRY_BYTES * 3)
    expected = {s.cache_key(): json.dumps(
        serialize_result(stub_compute(s)), sort_keys=True)
        for s in SPECS}
    wrong = []

    def worker(tid):
        for round_no in range(30):
            spec = SPECS[(tid + round_no) % len(SPECS)]
            store.store(spec, stub_compute(spec))
            loaded = store.load(SPECS[round_no % len(SPECS)])
            if loaded is not None:
                wire = json.dumps(serialize_result(loaded),
                                  sort_keys=True)
                if wire != expected[SPECS[round_no %
                                          len(SPECS)].cache_key()]:
                    wrong.append(wire)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert wrong == [], "a concurrent load observed a wrong/torn result"
    assert len(store._memo) <= 3, "memo cap holds under concurrency"
