"""The golden-quiet and golden-observed workloads.

Both run cells of ``repro golden``'s pinned grid (8 threads, x0.5)
serially in this process and check every output against the committed
digests in ``tests/golden/digests.json``.  The grid coordinates are
fixed, because they carry the only committed reference outputs; the
seed only shuffles the order of the cells in each pass.

* golden-quiet runs all 81 cells through ``execute_spec`` with no
  observer attached and checks each ``result_sha256``.
* golden-observed runs a fixed subset twice per pass: under
  ``TraceDigestSink`` (as ``repro golden`` does; checks ``trace_sha256``,
  ``trace_events`` and ``result_sha256``) and under ``BlameSink`` +
  ``AuditSink`` (as ``repro why`` does; checks cycles, AMOs, near and far
  AMO counts).

A run measures whole passes until ``--seconds`` have elapsed, so every
run times the same cell mix whatever the seed.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import random
import resource
import time
from typing import Dict, List, Tuple

import layers
from common import (host_factor, import_probe, latency_metrics, median,
                    repeated_setup, sim_counts)

#: Workloads left out of golden-observed: these four cells take half of
#: an observed pass over all 27 workloads, which would leave room for
#: too few passes per run when the host is slow.
OBSERVED_SKIP = ("HIST", "RAD", "RSOR", "SPMV")

#: Observer modes of golden-observed, in the order a cell runs them.
MODES = ("trace", "stamped")


class Plan:
    """Set-up product: the cells of one workload and their digests."""

    def __init__(self, workload: str, seed: int) -> None:
        from repro.harness.golden import (GOLDEN_POLICIES, cell_key,
                                          golden_specs, load_digests)
        from common import DIGESTS

        self.workload = workload
        self.digests = load_digests(DIGESTS)["cells"]
        specs = golden_specs()
        if workload == "golden-observed":
            # One cell per workload, the policy rotating in grid order.
            per_policy = len(GOLDEN_POLICIES)
            specs = [spec for i, spec in enumerate(specs)
                     if (i // per_policy) % per_policy == i % per_policy
                     and spec.workload not in OBSERVED_SKIP]
        self.specs = specs
        self.keys = [cell_key(spec) for spec in specs]
        missing = [k for k in self.keys if k not in self.digests]
        if missing:
            raise ValueError(f"no committed digest for {missing}")
        self.rng = random.Random(seed)
        self.modes = MODES if workload == "golden-observed" else ("quiet",)

    def next_pass(self) -> List[int]:
        """Cell indices of the next pass, in seeded order."""
        order = list(range(len(self.specs)))
        self.rng.shuffle(order)
        return order


def setup(workload: str, seed: int) -> Tuple[Plan, float]:
    """Returns the plan and ``setup_s``: the median calibrated time of a
    fresh interpreter's start and imports, then cell planning."""
    def make() -> Plan:
        import_probe(["repro.harness.golden", "repro.obs.attribution"])
        return Plan(workload, seed)
    return repeated_setup(make)


# --- one cell --------------------------------------------------------------

def check(plan: Plan, index: int, mode: str, result, sink=None) -> bool:
    """True iff the cell's outputs match its committed digest."""
    from repro.harness.golden import result_fingerprint

    want = plan.digests[plan.keys[index]]
    if mode == "stamped":
        return (result.cycles == want["cycles"]
                and result.amos_committed == want["amos"]
                and result.stats.near_amos == want["near_amos"]
                and result.stats.far_amos == want["far_amos"])
    ok = result_fingerprint(result) == want["result_sha256"]
    if mode == "trace":
        ok = ok and (sink.hexdigest() == want["trace_sha256"]
                     and sink.events == want["trace_events"])
    return ok


def observers(mode: str) -> tuple:
    if mode == "trace":
        from repro.harness.golden import TraceDigestSink
        return (TraceDigestSink(),)
    if mode == "stamped":
        from repro.obs.attribution import AuditSink, BlameSink
        return (BlameSink(), AuditSink())
    return ()


# --- untraced measurement ----------------------------------------------------

def measure(plan: Plan, seconds: float) -> Dict[str, object]:
    """Whole passes until ``seconds`` elapse; end-to-end numbers only.

    Each simulation is preceded by one calibration loop and its wall and
    CPU time are divided by the host factor it measured.  Every number
    then comes from each cell's median over the passes: a pass repeats
    the same cells, so the median of a cell's repeats is its latency and
    the percentiles are taken over cells.
    """
    from repro.harness.executor import execute_spec

    wall_by_unit: Dict[tuple, List[float]] = {}
    cpu_by_unit: Dict[tuple, List[float]] = {}
    attempted = failed = passes = 0
    t0 = time.perf_counter()
    while True:
        passes += 1
        for index in plan.next_pass():
            spec = plan.specs[index]
            for mode in plan.modes:
                attempted += 1
                sinks = observers(mode)
                factor = host_factor()
                cpu0 = time.process_time()
                start = time.perf_counter()
                try:
                    result = execute_spec(spec, extra_sinks=sinks)
                except Exception as exc:  # counted, reported, run goes on
                    print(f"{plan.keys[index]} [{mode}]: {exc!r}")
                    failed += 1
                    continue
                wall = (time.perf_counter() - start) / factor
                cpu = (time.process_time() - cpu0) / factor
                if not check(plan, index, mode, result,
                             sinks[0] if sinks else None):
                    print(f"{plan.keys[index]} [{mode}]: digest mismatch")
                    failed += 1
                    continue
                wall_by_unit.setdefault((index, mode), []).append(wall)
                cpu_by_unit.setdefault((index, mode), []).append(cpu)
        if time.perf_counter() - t0 >= seconds:
            break
    raw_wall = time.perf_counter() - t0
    if not wall_by_unit:
        raise RuntimeError("no cell of the pass succeeded")
    latencies = [median(v) for v in wall_by_unit.values()]
    cpus = [median(v) for v in cpu_by_unit.values()]
    return {
        "attempted": attempted, "failed": failed,
        "cells_per_s": len(latencies) / sum(latencies),
        "cpu_ms_per_cell": sum(cpus) * 1e3 / len(cpus),
        "latency": latency_metrics(latencies),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw": f"{attempted - failed} cells in {raw_wall:.2f}s wall over "
               f"{passes} passes; latency samples are per-cell medians",
        "wall_s": raw_wall,
    }


# --- traced pass -------------------------------------------------------------

def _traced_cell(spec, mode: str, spans: layers.Spans,
                 profiler: cProfile.Profile):
    """``execute_spec`` step by step, with a span around each layer call
    and the profiler running only inside ``engine.run``."""
    import repro.sim.engine as engine
    from repro.energy.model import EnergySink
    from repro.harness.executor import MAX_CYCLES
    from repro.sim.events import EventBus
    from repro.sim.machine import Machine
    from repro.workloads.base import make_workload

    sinks = observers(mode)
    config = spec.resolve_config()
    t0 = time.perf_counter()
    wl = make_workload(spec.workload, spec.threads, scale=spec.scale,
                       seed=spec.seed, input_name=spec.input_name)
    initial = wl.initial_values()
    programs = wl.programs()
    t1 = time.perf_counter()
    bus = EventBus()
    bus.subscribe(EnergySink(num_cores=spec.threads))
    for sink in sinks:
        bus.subscribe(sink)
    machine = Machine(config, spec.policy, bus=bus)
    for addr, value in initial.items():
        machine.poke_value(addr, value)
    t2 = time.perf_counter()
    profiler.enable()
    result = engine.run(machine, programs, max_cycles=MAX_CYCLES)
    profiler.disable()
    t3 = time.perf_counter()
    result.metadata.update({
        "workload": spec.workload, "input": wl.input_name,
        "threads": spec.threads, "scale": spec.scale,
        "amo_footprint_bytes": wl.amo_footprint_bytes,
    })
    bus.close()
    spans.add("workloads.build", t1 - t0)
    spans.add("sim.machine.init", t2 - t1)
    spans.add(f"sim.engine.{mode}", t3 - t2)
    return result, sinks


def traced(plan: Plan) -> Dict[str, object]:
    """One untraced pass, then one traced pass of the same cells.

    Returns every per-layer metric.  Counts are per pass and exact;
    times are traced host time, qualified by ``trace.overhead_ratio``.
    """
    from repro.harness.executor import execute_spec, serialize_result
    from repro.sim.events import EventBus

    order = plan.next_pass()
    failed = 0
    t0 = time.perf_counter()
    for index in order:
        for mode in plan.modes:
            sinks = observers(mode)
            result = execute_spec(plan.specs[index], extra_sinks=sinks)
            if not check(plan, index, mode, result,
                         sinks[0] if sinks else None):
                print(f"{plan.keys[index]} [{mode}]: digest mismatch")
                failed += 1
    untraced_wall = time.perf_counter() - t0

    spans = layers.Spans()
    profilers = {mode: cProfile.Profile() for mode in plan.modes}
    wires: List[Dict] = []
    result_bytes = 0
    original_finalize = EventBus.finalize
    EventBus.finalize = spans.wrap("events.finalize", original_finalize)
    t0 = time.perf_counter()
    try:
        for index in order:
            spec = plan.specs[index]
            for mode in plan.modes:
                result, sinks = _traced_cell(spec, mode, spans,
                                             profilers[mode])
                t1 = time.perf_counter()
                wire = serialize_result(result)
                spans.add("executor.serialize", time.perf_counter() - t1)
                wires.append(wire)
                result_bytes += len(json.dumps(wire, sort_keys=True))
                if not check(plan, index, mode, result,
                             sinks[0] if sinks else None):
                    print(f"{plan.keys[index]} [{mode}]: digest mismatch "
                          "(traced)")
                    failed += 1
    finally:
        EventBus.finalize = original_finalize
    traced_wall = time.perf_counter() - t0

    self_s = {layer: 0.0 for layer in layers.LAYERS}
    json_s = 0.0
    emits = 0
    stamped_events_s = 0.0
    engine_s = 0.0
    partitions = {}
    for mode, profiler in profilers.items():
        raw, mode_json, mode_emits = layers.split_profile(
            pstats.Stats(profiler).stats)
        span = spans.seconds(f"sim.engine.{mode}")
        engine_s += span
        scaled = layers.scale_to(raw, span)
        partitions[mode] = (span, scaled)
        for layer, value in scaled.items():
            self_s[layer] += value
        total_raw = sum(raw.values()) or 1.0
        json_s += mode_json * span / total_raw
        emits += mode_emits
        if mode == "stamped":
            stamped_events_s = scaled["events"]

    for mode, (span, scaled) in partitions.items():
        parts = "  ".join(f"{layer}={value:.3f}"
                          for layer, value in scaled.items())
        print(f"  engine.run [{mode}] span {span:.3f}s = {parts}")
    print(f"  EventBus.finalize (inside engine.run): "
          f"{spans.mean_ms('events.finalize'):.3f} ms per cell")

    counts = sim_counts(wires)
    ops = counts["sim.engine.ops"]
    # Layers the golden path never touches (store, service) are left
    # out; run.py reports them as 0.
    return {
        "failed": failed,
        "attempted": 2 * len(wires),
        "metrics": {
            **counts,
            "workloads.build_ms": spans.mean_ms("workloads.build"),
            "workloads.self_s": self_s["workloads"],
            "sim.engine.self_s": self_s["sim.engine"],
            "sim.engine.ns_per_op": engine_s / ops * 1e9 if ops else 0.0,
            "sim.machine.init_ms": spans.mean_ms("sim.machine.init"),
            "sim.machine.self_s": self_s["sim.machine"],
            "coherence.self_s": self_s["coherence"],
            "core.self_s": self_s["core"],
            "noc.self_s": self_s["noc"],
            "events.self_s": self_s["events"],
            "events.count": emits,
            "events.ns_per_event": (
                self_s["events"] / emits * 1e9 if emits else 0.0),
            "events.json_s": json_s,
            "events.stamped_self_s": stamped_events_s,
            "executor.serialize_ms": spans.mean_ms("executor.serialize"),
            "executor.result_bytes": result_bytes / len(wires),
            "trace.overhead_ratio": traced_wall / untraced_wall,
        },
    }
