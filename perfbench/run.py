"""Same-host benchmark of the repro simulator, its harness and its service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload golden-quiet --seed 1 \
        --seconds 20 --trace 0

Workloads: ``golden-quiet``, ``golden-observed``, ``serve-zipf`` (see
NOTES.md for why each exists).  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer split
and its overhead against an untraced pass of the same work.  Human
readable lines come first.  The line before last is a JSON object with
the host fingerprint and the load average at start and end (records
from different fingerprints must never be compared); the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Metric names and units are those of
``BENCHMARK.json``.  Any output that does not match the committed golden
digests counts as failed and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (DIGESTS, ROOT, SRC, WORK, fingerprint,  # noqa: E402
                    loadavg)

WORKLOADS = ("golden-quiet", "golden-observed", "serve-zipf")


def end_to_end(measured, setup_s: float):
    """The end-to-end metrics of one untraced run, ``name -> value``."""
    latency = measured["latency"]
    return {
        "setup_s": setup_s,
        "cells_per_s": measured["cells_per_s"],
        "latency_p50_ms": latency["p50"],
        "latency_tail_ms": latency["tail"],
        "cpu_ms_per_cell": measured["cpu_ms_per_cell"],
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def declared(kind: str, values):
    """``values`` as ``name -> (value, unit)`` for every ``kind`` metric
    of BENCHMARK.json, in its order.  A metric the workload does not
    measure (a layer it never touches) reads 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)[kind]
    unknown = set(values) - {m["name"] for m in spec}
    if unknown:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    return {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in spec}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Unwind through the cleanup below (server stop, scratch removal)
    # when terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (os.path.isdir(os.path.join(SRC, "repro"))
            and os.path.isfile(DIGESTS)):
        print(f"perfbench: no simulator sources at {SRC} or no golden "
              f"digests at {DIGESTS}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]  # cache knobs must not leak into the run
    inject = os.environ.get("PERFBENCH_INJECT", "")
    if inject:
        import layers
        layers.apply_injection(inject)

    load_start = loadavg()
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}"
          + (f"  inject {inject}" if inject else ""))

    os.makedirs(WORK, exist_ok=True)
    ctx = None
    try:
        if args.workload == "serve-zipf":
            import serve_wl as wl
            ctx, setup_s = wl.setup(args.seed)
        else:
            import golden_wl as wl
            ctx, setup_s = wl.setup(args.workload, args.seed)
        if args.trace:
            report = wl.traced(ctx)
            attempted, failed = report["attempted"], report["failed"]
            metrics = declared("per_layer", report["metrics"])
        else:
            measured = wl.measure(ctx, args.seconds)
            attempted, failed = measured["attempted"], measured["failed"]
            metrics = declared("end_to_end", end_to_end(measured, setup_s))
            latency = measured["latency"]
    finally:
        if hasattr(ctx, "close"):
            ctx.close()
        shutil.rmtree(WORK, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.4f}"
        print(f"  {name:28s} {shown:>16} {unit}")
    if not args.trace:
        print(f"  latency_tail_ms is p{latency['tail_pct']:g} of "
              f"{latency['samples']} samples; raw: {measured['raw']}")
    print(f"  failed_ratio {failed / max(1, attempted):.4f} "
          f"({failed} of {attempted})")
    print(f"total {time.perf_counter() - T_START:.1f}s")
    print(json.dumps({"host": fingerprint(),
                      "loadavg": {"start": load_start, "end": loadavg()}},
                     sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
