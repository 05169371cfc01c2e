"""The serve-zipf workload: ``repro serve`` under a closed-loop Zipf load.

The server runs in its own process (``serve_proc.py``) on a fresh copy
of a pre-filled cache directory.  One load-generator thread per
keep-alive connection (``CLIENTS`` of them, one per CPU of the host
this was sized on) sends a batch, long-polls the job to completion and
only then sends its next batch.  Batches come from one seeded Zipf
stream over a ranked universe:

* the head (ranks 0-23) is 24 cells of the golden grid, pre-filled into
  the cache: a disk read and deserialisation on first touch, memo hits
  afterwards; each served copy is hashed and checked against its
  committed ``result_sha256``;
* the tail is 2,880 cheap cold cells (4 threads, x0.1, seeds 1-120):
  a simulation plus a store write on first touch, single-flight joins
  when both clients miss on the same cell; every later copy of a tail
  cell must be byte-identical to the first one served.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

from common import (WORK, child_env, host_factor, import_probe,
                    latency_metrics, median, repeated_setup, sim_counts)

HERE = os.path.dirname(os.path.abspath(__file__))

CLIENTS = 2
BATCH = 3
#: Zipf exponent of the batch stream: about 80% of draws land on the
#: pre-filled head, so cold computes stay a small part of a request.
ALPHA = 1.4
#: Golden workloads whose cells form the pre-filled head (cheapest ones,
#: so pre-filling stays a small part of set-up).
HEAD_WORKLOADS = ("OCE", "FMM", "TC", "KVS", "BOOK", "BANK", "AMOCOST",
                  "FSHARE")
#: Workloads of the cold tail: their 4-thread x0.1 cells simulate in
#: 4-6 ms here whatever the policy, so a miss adds little to a request
#: that the keep-alive stall already holds for ~80 ms, and the server's
#: CPU per cell does not depend on which cold cells a seed draws.
TAIL_WORKLOADS = ("TC", "BOOK", "TXMIX")
TAIL_THREADS = 4
TAIL_SCALE = 0.1
TAIL_SEEDS = range(1, 121)
#: Seconds between host-factor samples while the clients run: the
#: median of about a hundred 2 ms loops per run, holding the client's
#: GIL for 2% of the time.
FACTOR_INTERVAL_S = 0.1
#: Requests replayed by each phase of a traced run.
TRACED_REQUESTS = 240


def _wire(spec) -> Dict[str, object]:
    return {"workload": spec.workload, "policy": spec.policy,
            "threads": spec.threads, "scale": spec.scale, "seed": spec.seed}


def _encoded(result: Dict) -> bytes:
    """A served result as ``tests/service/test_golden_service.py`` hashes it."""
    return json.dumps(result, sort_keys=True).encode()


class Plan:
    """The ranked universe and the head's committed digests."""

    def __init__(self, seed: int) -> None:
        from repro.core import POLICIES
        from repro.harness.executor import make_spec
        from repro.harness.golden import (cell_key, golden_specs,
                                          load_digests)
        from common import DIGESTS

        digests = load_digests(DIGESTS)["cells"]
        self.head = [spec for spec in golden_specs()
                     if spec.workload in HEAD_WORKLOADS]
        tail = [make_spec(code, policy, threads=TAIL_THREADS,
                          scale=TAIL_SCALE, seed=s)
                for s in TAIL_SEEDS
                for code in TAIL_WORKLOADS
                for policy in sorted(POLICIES)]
        self.universe = self.head + tail
        self.wire = [_wire(spec) for spec in self.universe]
        self.keys = [spec.cache_key() for spec in self.universe]
        self.golden = {spec.cache_key(): digests[cell_key(spec)]
                       for spec in self.head}
        self.seed = seed


class Trace:
    """Thread-safe seeded stream of batches (universe indices)."""

    def __init__(self, plan: Plan, seed: int,
                 limit: Optional[int] = None) -> None:
        from repro.workloads.txn.zipf import ZipfSampler

        self._sampler = ZipfSampler(len(plan.universe), ALPHA, seed=seed)
        self._lock = threading.Lock()
        self._left = limit

    def next(self) -> Optional[List[int]]:
        with self._lock:
            if self._left is not None:
                if self._left <= 0:
                    return None
                self._left -= 1
            return self._sampler.sample_distinct(BATCH)


class Server:
    """One ``serve_proc.py`` child on its own copy of the cache."""

    def __init__(self, master: str, spans: Optional[str] = None) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="serve-", dir=WORK)
        os.rmdir(self.cache_dir)
        shutil.copytree(master, self.cache_dir)
        cmd = [sys.executable, "-u", os.path.join(HERE, "serve_proc.py"),
               "--cache-dir", self.cache_dir]
        if spans:
            cmd += ["--spans", spans]
        self.proc = subprocess.Popen(
            cmd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.port = self._await_port(timeout=60.0)
        self._await_health(timeout=60.0)

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            if "listening on http://" in line:
                return int(line.split("http://", 1)[1].split()[0]
                           .rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("server did not report its port")

    def _await_health(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, _ = self.get("/v1/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("server never became healthy")

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class Context:
    """Set-up product: plan, pre-filled master cache and a live server."""

    def __init__(self, seed: int) -> None:
        from repro.harness.executor import ResultStore, SerialExecutor
        from repro.harness.golden import result_fingerprint

        self.plan = Plan(seed)
        self.master = tempfile.mkdtemp(prefix="master-", dir=WORK)
        results = SerialExecutor(ResultStore(self.master)).run_many(
            self.plan.head)
        for spec, result in zip(self.plan.head, results):
            want = self.plan.golden[spec.cache_key()]["result_sha256"]
            if result_fingerprint(result) != want:
                raise RuntimeError(f"pre-fill of {spec} drifted from golden")
        self.server = Server(self.master)

    def close(self) -> None:
        self.server.stop()
        shutil.rmtree(self.master, ignore_errors=True)


def setup(seed: int):
    """Returns a live context and ``setup_s``: the median calibrated time
    of a fresh interpreter's start and imports, then planning,
    pre-filling the cache, copying it and starting the server up to its
    first healthy ``/v1/healthz``."""
    os.makedirs(WORK, exist_ok=True)

    def make() -> Context:
        import_probe(["repro.harness.golden", "repro.service.app",
                      "repro.workloads.txn.zipf"])
        return Context(seed)
    return repeated_setup(make, Context.close)


# --- the load generator ------------------------------------------------------

class Tally:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.cells = 0
        self.latencies: List[float] = []
        self.gaps_ms: List[float] = []
        self.served: Dict[str, str] = {}
        self.computed: List[Dict] = []
        self.result_bytes = 0


def _check_cell(plan: Plan, tally: Tally, index: int, cell: Dict) -> bool:
    if cell.get("status") != "done" or "result" not in cell:
        return False
    key = plan.keys[index]
    if cell.get("key") != key:
        return False
    encoded = _encoded(cell["result"])
    sha = hashlib.sha256(encoded).hexdigest()
    with tally.lock:
        tally.result_bytes += len(encoded)
    golden = plan.golden.get(key)
    if golden is not None:
        return sha == golden["result_sha256"]
    with tally.lock:
        first = tally.served.setdefault(key, sha)
        if cell.get("source") == "computed":
            tally.computed.append(cell["result"])
    return first == sha


def _client(plan: Plan, trace: Trace, port: int, deadline: float,
            tally: Tally) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        while time.perf_counter() < deadline:
            batch = trace.next()
            if batch is None:
                return
            body = json.dumps({"cells": [plan.wire[i] for i in batch]})
            ok = False
            t0 = time.perf_counter()
            try:
                conn.request("POST", "/v1/batch", body,
                             {"Content-Type": "application/json"})
                resp = conn.getresponse()
                posted = json.loads(resp.read())
                if resp.status == 202:
                    conn.request("GET",
                                 f"/v1/batch/{posted['job']}?wait=60")
                    resp = conn.getresponse()
                    job = json.loads(resp.read())
                    ok = resp.status == 200 and job.get("done")
            except (OSError, http.client.HTTPException, ValueError) as exc:
                print(f"request failed: {exc!r}")
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=60)
            elapsed = time.perf_counter() - t0
            good = 0
            if ok:
                cells = job["cells"]
                good = sum(_check_cell(plan, tally, i, cell)
                           for i, cell in zip(batch, cells))
                server_ms = max(cell.get("wall_ms", 0.0) for cell in cells)
            with tally.lock:
                tally.attempted += len(batch)
                tally.failed += len(batch) - good
                tally.cells += good
                if ok:
                    tally.latencies.append(elapsed)
                    tally.gaps_ms.append(elapsed * 1e3 - server_ms)
            if ok and good < len(batch):
                print(f"batch {batch}: {len(batch) - good} bad cell(s)")
    finally:
        conn.close()


def drive(ctx: Context, server: Server, seconds: Optional[float],
          requests: Optional[int] = None) -> Dict[str, object]:
    """Closed-loop load until ``seconds`` elapse or ``requests`` are sent.

    The server's CPU per cell is divided by the median host factor the
    main thread samples every ``FACTOR_INTERVAL_S`` while the clients
    run.  Latency and throughput are not calibrated: the keep-alive
    stall, a timer, dominates them.
    """
    trace = Trace(ctx.plan, ctx.plan.seed, limit=requests)
    tally = Tally()
    cpu0 = server.cpu_s()
    t0 = time.perf_counter()
    deadline = t0 + seconds if seconds is not None else float("inf")
    threads = [threading.Thread(target=_client,
                                args=(ctx.plan, trace, server.port,
                                      deadline, tally))
               for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    factors = []
    while any(thread.is_alive() for thread in threads):
        factors.append(host_factor())
        time.sleep(FACTOR_INTERVAL_S)
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    cpu = server.cpu_s() - cpu0
    cells = max(1, tally.cells)
    return {"attempted": tally.attempted, "failed": tally.failed,
            "cells_per_s": tally.cells / wall,
            "cpu_ms_per_cell": cpu * 1e3 / cells / median(factors),
            "wall_s": wall, "latency": latency_metrics(tally.latencies),
            "peak_rss_mb": server.peak_rss_mb(), "tally": tally,
            "raw": f"{tally.cells} cells in {wall:.2f}s wall, "
                   f"{cpu * 1e3 / cells:.3f} ms server CPU per cell"}


def measure(ctx: Context, seconds: float) -> Dict[str, object]:
    return drive(ctx, ctx.server, seconds)


# --- traced run --------------------------------------------------------------

def traced(ctx: Context) -> Dict[str, object]:
    """The same fixed trace replayed on two fresh servers: untraced,
    then with spans; returns every per-layer metric."""
    import layers

    untraced = drive(ctx, ctx.server, None, TRACED_REQUESTS)
    ctx.server.stop()

    spans_path = os.path.join(ctx.master + ".spans.json")
    server = Server(ctx.master, spans=spans_path)
    try:
        run = drive(ctx, server, None, TRACED_REQUESTS)
        status, stats = server.get("/v1/stats")
    finally:
        server.stop()
    with open(spans_path) as fh:
        dumped = json.load(fh)
    os.unlink(spans_path)
    spans = layers.Spans()
    spans.merge(dumped["spans"])
    counters = dumped["counters"]
    cache = stats["cache"] if status == 200 else {}

    tally = run["tally"]
    loads = sum(counters.values())
    # The simulator layers' self times are left out (run.py reports them
    # as 0): computes run in server worker threads the profiler does not
    # reach.  The simulated counts are those of the cells it computed.
    return {
        "failed": untraced["failed"] + run["failed"],
        "attempted": untraced["attempted"] + run["attempted"],
        "metrics": {
            **sim_counts(tally.computed),
            "executor.serialize_ms": spans.mean_ms("executor.serialize"),
            "executor.deserialize_ms": spans.mean_ms("executor.deserialize"),
            "executor.result_bytes": (
                tally.result_bytes / max(1, tally.cells)),
            "store.load_ms": spans.mean_ms("store.load"),
            "store.write_ms": spans.mean_ms("store.write"),
            "store.memo_hits": counters["memo_hits"],
            "store.disk_hits": counters["disk_hits"],
            "store.misses": counters["misses"],
            "store.hit_ratio": (
                (loads - counters["misses"]) / loads if loads else 0.0),
            "service.parse_ms": spans.mean_ms("service.parse"),
            "service.submit_ms": spans.mean_ms("service.submit"),
            "service.queue_wait_ms": spans.mean_ms("service.queue_wait"),
            "service.hits": cache.get("hits", 0),
            "service.joined": cache.get("joined", 0),
            "service.computed": cache.get("computed", 0),
            "service.response_gap_ms": (
                median(tally.gaps_ms) if tally.gaps_ms else 0.0),
            "trace.overhead_ratio": run["wall_s"] / untraced["wall_s"],
        },
    }
