"""CI smoke: boot the service, round-trip a batch, validate ``/v1/stats``.

``python -m repro.service.smoke`` starts ``repro serve`` in-process on
an ephemeral port, then:

1. checks ``GET /v1/healthz``;
2. posts one real golden cell (``WAT/present-near`` at t8/x0.5 — the
   cheapest cell of the corpus), waits for it, and — when the committed
   digest corpus is present — verifies the served result is
   bit-identical to ``tests/golden/digests.json``;
3. re-posts the same batch and requires it to be answered from the
   cache (hit ratio > 0 afterwards), printing that POST + GET round
   trip's wall time;
4. validates the ``GET /v1/stats`` document against the checked-in
   schema (``tests/schemas/serve.schema.json``) with the same
   dependency-free validator the other CI schema jobs use;
5. shuts the server down cleanly.

Every call goes over one keep-alive ``http.client`` connection, as a
polling client's would, so a response that stalls on the client's
delayed ACK shows in the printed round-trip time.

Exit 0 on success, 1 with a reason otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import sys
import tempfile
import time
from typing import Any, Dict, Optional, Tuple

from repro.harness.executor import ResultStore
from repro.harness.golden import DEFAULT_DIGEST_PATH, load_digests
from repro.obs.attribution.schema import validate
from repro.service.app import make_server, serve

#: The pinned smoke cell: cheapest member of the golden corpus.
SMOKE_CELL = {"workload": "WAT", "policy": "present-near",
              "threads": 8, "scale": 0.5, "seed": 0}

DEFAULT_SCHEMA = "tests/schemas/serve.schema.json"


def _request(conn: http.client.HTTPConnection, path: str,
             payload: Optional[Dict] = None) -> Tuple[int, Any]:
    if payload is None:
        conn.request("GET", path)
    else:
        conn.request("POST", path, body=json.dumps(payload).encode(),
                     headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.smoke",
        description="service smoke test (CI gate)")
    parser.add_argument("--schema", default=DEFAULT_SCHEMA,
                        help="stats schema to validate against")
    parser.add_argument("--digests", default=DEFAULT_DIGEST_PATH,
                        help="golden digest corpus (skipped if absent)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as cache_dir:
        server = make_server(port=0, workers=2,
                             store=ResultStore(cache_dir))
        serve(server)
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=120)
        try:
            return _smoke(conn, args)
        finally:
            conn.close()
            server.close()


def _smoke(conn: http.client.HTTPConnection,
           args: argparse.Namespace) -> int:
    status, health = _request(conn, "/v1/healthz")
    if status != 200 or health.get("status") != "ok":
        print(f"smoke: healthz failed: {status} {health}")
        return 1
    print(f"smoke: healthz ok (uptime {health['uptime_s']}s)")

    batch = {"cells": [SMOKE_CELL]}
    status, posted = _request(conn, "/v1/batch", batch)
    if status != 202:
        print(f"smoke: POST /v1/batch failed: {status} {posted}")
        return 1
    status, job = _request(conn, f"/v1/batch/{posted['job']}?wait=90")
    if status != 200 or not job.get("done"):
        print(f"smoke: job did not finish: {status} {job}")
        return 1
    cell = job["cells"][0]
    if cell["status"] != "done":
        print(f"smoke: cell failed: {cell}")
        return 1
    print(f"smoke: batch round-trip ok "
          f"(source={cell['source']}, {cell['wall_ms']:.0f} ms)")

    try:
        corpus = load_digests(args.digests)
    except (FileNotFoundError, ValueError):
        corpus = None
        print(f"smoke: no digest corpus at {args.digests}; "
              f"skipping bit-identity check")
    if corpus is not None:
        key = f"{SMOKE_CELL['workload']}/{SMOKE_CELL['policy']}"
        want = corpus["cells"][key]["result_sha256"]
        got = hashlib.sha256(
            json.dumps(cell["result"], sort_keys=True).encode()
        ).hexdigest()
        if got != want:
            print(f"smoke: served result drifted from golden digest "
                  f"{key}: {got} != {want}")
            return 1
        print(f"smoke: served result bit-identical to golden {key}")

    t0 = time.perf_counter()
    status, again = _request(conn, "/v1/batch", batch)
    status, job2 = _request(conn, f"/v1/batch/{again['job']}?wait=90")
    round_trip_ms = (time.perf_counter() - t0) * 1e3
    source = job2["cells"][0].get("source")
    if source != "cache":
        print(f"smoke: repeat batch not served from cache: {source}")
        return 1
    print(f"smoke: cached re-post round trip {round_trip_ms:.1f} ms "
          f"(keep-alive POST + GET)")

    status, stats = _request(conn, "/v1/stats")
    if status != 200:
        print(f"smoke: stats failed: {status}")
        return 1
    if not stats["cache"]["hit_ratio"] > 0:
        print(f"smoke: expected hit ratio > 0, got {stats['cache']}")
        return 1
    try:
        with open(args.schema) as fh:
            schema = json.load(fh)
    except OSError as exc:
        print(f"smoke: cannot read schema: {exc}")
        return 1
    errors = validate(stats, schema)
    if errors:
        for error in errors:
            print(f"smoke: stats schema: {error}")
        return 1
    print(f"smoke: stats ok (hit ratio "
          f"{stats['cache']['hit_ratio']:.2f}, schema valid)")
    print("service-smoke: ok")
    return 0


if __name__ == "__main__":  # pragma: no cover - CI entry point
    sys.exit(main())
