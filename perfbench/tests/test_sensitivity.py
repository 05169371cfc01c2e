"""Sensitivity proof: an injected delay shows up where it was injected.

Each test wraps one public layer call with a fixed busy delay (through
``PERFBENCH_INJECT``, which ``run.py`` and the server process apply
before any work) and runs the benchmark with and without it:

* a delay on ``engine.run`` must drop golden-quiet's ``cells_per_s`` by
  more than its bound, and appear in the engine's per-op time but not
  in workload build or machine init;
* a delay on ``ResultStore.load`` must move serve-zipf's latency and its
  ``store.load_ms``, and leave both golden workloads within their
  bounds (their path never touches the store).

Run from the repository root (takes a few minutes)::

    python3 -m pytest -q perfbench/tests
"""

import functools
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

ENGINE_DELAY = "engine.run=0.03"
#: Larger, so the delay stands out of the profiled engine span, which is
#: not calibrated against host speed.
ENGINE_DELAY_TRACED = "engine.run=0.1"
LOAD_DELAY = "ResultStore.load=0.01"


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


@functools.lru_cache(maxsize=None)
def bench(workload, seconds, trace=0, inject=""):
    """Metric values of one benchmark run (cached per argument tuple)."""
    env = dict(os.environ)
    env.pop("PERFBENCH_INJECT", None)
    if inject:
        env["PERFBENCH_INJECT"] = inject
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["correct"] and record["failed"] == 0
    return {name: m["value"] for name, m in record["metrics"].items()}


def change(base, slowed, name):
    return slowed[name] / base[name] - 1.0


def test_engine_delay_drops_golden_quiet_throughput_in_the_engine():
    bound = bounds()["cells_per_s"]
    base = bench("golden-quiet", 4)
    slowed = bench("golden-quiet", 4, inject=ENGINE_DELAY)
    assert change(base, slowed, "cells_per_s") < -bound

    base_t = bench("golden-quiet", 4, trace=1)
    slowed_t = bench("golden-quiet", 4, trace=1, inject=ENGINE_DELAY_TRACED)
    assert change(base_t, slowed_t, "sim.engine.ns_per_op") > 0.3
    for name in ("workloads.build_ms", "sim.machine.init_ms"):
        assert abs(change(base_t, slowed_t, name)) < 0.5, name
    # The counts are simulated statistics: a host delay cannot move them.
    for name in ("sim.engine.ops", "coherence.snoops", "noc.messages"):
        assert base_t[name] == slowed_t[name], name


def test_store_load_delay_moves_serve_zipf_only():
    limits = bounds()
    base = bench("serve-zipf", 8)
    slowed = bench("serve-zipf", 8, inject=LOAD_DELAY)
    assert change(base, slowed, "latency_p50_ms") > limits["latency_p50_ms"]

    base_t = bench("serve-zipf", 8, trace=1)
    slowed_t = bench("serve-zipf", 8, trace=1, inject=LOAD_DELAY)
    assert slowed_t["store.load_ms"] - base_t["store.load_ms"] > 8.0
    assert abs(slowed_t["service.parse_ms"] - base_t["service.parse_ms"]) \
        < 1.0

    for workload, seconds in (("golden-quiet", 4), ("golden-observed", 1)):
        quiet = bench(workload, seconds)
        delayed = bench(workload, seconds, inject=LOAD_DELAY)
        assert abs(change(quiet, delayed, "cells_per_s")) \
            < limits["cells_per_s"], workload
