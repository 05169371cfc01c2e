"""Server process of the serve-zipf workload: ``repro serve``, optionally
with spans around its public layer calls.

Usage::

    python3 -u perfbench/serve_proc.py --cache-dir DIR [--spans FILE]

Runs ``repro serve --port 0`` with ``WORKERS`` workers (the listening
line on stdout carries the port) until SIGTERM or SIGINT.  With
``--spans`` it first wraps ``parse_batch``, ``Scheduler.submit``,
``SingleFlightCache.get``, ``ResultStore.load`` / ``store`` and
``serialize_result`` / ``deserialize_result`` with timers and, on
shutdown, writes their totals to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time

import layers
from common import SRC

sys.path.insert(0, SRC)

#: Server worker threads, one per CPU of the host this was sized on.
WORKERS = 2


def install_spans(spans: layers.Spans) -> dict:
    """Wrap the server's layer calls; returns the live counters.

    The counters classify each submitted cell by the ``ResultStore.load``
    that ``Scheduler.submit`` makes for it (memo hit, disk hit or miss).
    The further loads of a missed cell (the flight's first look and the
    leader's re-check) are timed in ``store.load`` but not counted.
    """
    import repro.harness.executor as executor
    import repro.service.app as app
    import repro.service.scheduler as scheduler
    from repro.harness.executor import ResultStore
    from repro.service.cache import SingleFlightCache
    from repro.service.scheduler import Scheduler

    counters = {"memo_hits": 0, "disk_hits": 0, "misses": 0}
    enqueued: dict = {}
    lock = threading.Lock()
    local = threading.local()

    app.parse_batch = spans.wrap("service.parse", app.parse_batch)

    submit = Scheduler.submit

    def timed_submit(self, specs):
        now = time.perf_counter()
        with lock:
            for spec in specs:
                enqueued.setdefault(spec.cache_key(), now)
        local.submitting = True
        t0 = time.perf_counter()
        try:
            return submit(self, specs)
        finally:
            spans.add("service.submit", time.perf_counter() - t0)
            local.submitting = False
    Scheduler.submit = timed_submit

    flight = SingleFlightCache.get

    def timed_flight(self, spec, compute):
        now = time.perf_counter()
        with lock:
            queued_at = enqueued.pop(spec.cache_key(), None)
        if queued_at is not None:
            spans.add("service.queue_wait", now - queued_at)
        return flight(self, spec, compute)
    SingleFlightCache.get = timed_flight

    deserialize = executor.deserialize_result

    def counted_deserialize(data):
        local.decoded = getattr(local, "decoded", 0) + 1
        t0 = time.perf_counter()
        try:
            return deserialize(data)
        finally:
            spans.add("executor.deserialize", time.perf_counter() - t0)
    executor.deserialize_result = counted_deserialize

    load = ResultStore.load

    def timed_load(self, spec):
        before = getattr(local, "decoded", 0)
        t0 = time.perf_counter()
        result = load(self, spec)
        spans.add("store.load", time.perf_counter() - t0)
        if not getattr(local, "submitting", False):
            return result
        if result is None:
            tier = "misses"
        elif getattr(local, "decoded", 0) > before:
            tier = "disk_hits"
        else:
            tier = "memo_hits"
        with lock:
            counters[tier] += 1
        return result
    ResultStore.load = timed_load

    ResultStore.store = spans.wrap("store.write", ResultStore.store)
    serialize = spans.wrap("executor.serialize", executor.serialize_result)
    executor.serialize_result = serialize
    scheduler.serialize_result = serialize
    return counters


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    # `repro serve` shuts down cleanly on KeyboardInterrupt.  Raise it on
    # SIGTERM, and on SIGINT even when the parent ignores SIGINT (as a
    # shell does for background jobs), so the benchmark can stop it.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    signal.signal(signal.SIGINT, signal.default_int_handler)

    inject = os.environ.get("PERFBENCH_INJECT", "")
    if inject:
        layers.apply_injection(inject)
    spans = counters = None
    if args.spans:
        spans = layers.Spans()
        counters = install_spans(spans)

    from repro.cli import main as repro_main
    code = repro_main(["serve", "--host", "127.0.0.1", "--port", "0",
                       "--workers", str(WORKERS),
                       "--cache-dir", args.cache_dir])
    if spans is not None:
        with open(args.spans, "w") as fh:
            json.dump({"spans": spans.totals, "counters": counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
