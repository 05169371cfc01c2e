"""``repro bench``: wall-time trajectory tracking on a pinned micro-grid.

The ROADMAP's north star needs a perf record that survives across PRs.
This module runs a *pinned* grid of small simulation cells — always
uncached, always the same specs — through the executor layer, and
appends one record per invocation to ``BENCH_history.json``:

* ``wall_s`` — total wall time of simulating the grid (the number the
  15 % regression check watches);
* per-cell wall time and *simulated cycle count*.  Cycles are
  deterministic for a fixed model revision, so a cycle change across
  entries flags a model-behaviour change (expected when the simulator
  evolves, suspicious otherwise) without failing the check.

``check_regression`` compares a fresh run against the best recent
history entry and fails on >15 % wall-time regression; CI runs it as a
non-blocking smoke job so the trajectory accumulates from day one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import time
from typing import Dict, List, Tuple

from repro.harness.executor import Executor, ResultStore, RunSpec, make_spec

#: Default history file, at the repository/checkout root by convention.
DEFAULT_HISTORY = "BENCH_history.json"

#: Record schema version (bump when the grid or record shape changes;
#: entries with another version are ignored by the regression check).
BENCH_SCHEMA = 1

#: Wall-time regression tolerance for ``--check``.
REGRESSION_THRESHOLD = 1.15

#: How many recent comparable entries the check baselines against.
BASELINE_WINDOW = 5

#: The pinned micro-grid: (workload, policy, threads, scale).  Small
#: enough for a CI smoke job (a few seconds total), broad enough to
#: cover the hot paths: contended atomics (COUNTER), the DynAMO
#: predictor + AMT (HIST/SPMV), lock-heavy graph code (SPT).
BENCH_GRID: Tuple[Tuple[str, str, int, float], ...] = (
    ("COUNTER", "all-near", 8, 1.0),
    ("COUNTER", "unique-near", 8, 1.0),
    ("COUNTER", "dynamo-reuse-pn", 8, 1.0),
    ("HIST", "all-near", 8, 0.5),
    ("HIST", "dynamo-reuse-pn", 8, 0.5),
    ("SPMV", "dynamo-reuse-pn", 8, 0.5),
    ("SPT", "dynamo-reuse-pn", 8, 0.5),
)


def bench_specs() -> List[RunSpec]:
    """Plan the pinned grid."""
    return [make_spec(wl, pol, threads=threads, scale=scale)
            for wl, pol, threads, scale in BENCH_GRID]


def grid_fingerprint() -> str:
    """Hash of the fully resolved bench grid (specs, not cache keys).

    Wall-time records are only comparable when they measured the same
    work; the fingerprint rides along in every record so history
    entries from a different grid are never used as a baseline, and so
    a test can assert the grid has not drifted from the committed one.
    Spec *fields* are hashed (not executor cache keys) so cache-version
    bumps do not read as grid changes.
    """
    payload = json.dumps([dataclasses.asdict(s) for s in bench_specs()],
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def run_bench(jobs: int = 1) -> Dict:
    """Simulate the pinned grid (uncached) and build a history record."""
    specs = bench_specs()
    store = ResultStore(enabled=False)  # wall time must measure simulation
    executor = Executor(store, jobs)
    t0 = time.perf_counter()
    results = executor.run_many(specs)
    wall_s = time.perf_counter() - t0
    cells = []
    for (wl, pol, threads, scale), result in zip(BENCH_GRID, results):
        cells.append({
            "workload": wl, "policy": pol, "threads": threads,
            "scale": scale, "cycles": result.cycles,
            "amos": result.amos_committed,
        })
    return {
        "schema": BENCH_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "jobs": jobs,
        # Environment metadata: wall times from different interpreters or
        # machines are not comparable; these fields are additive (older
        # records without them stay valid under the same schema).
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
        "grid_sha256": grid_fingerprint(),
        "wall_s": round(wall_s, 4),
        "simulated_cycles": sum(c["cycles"] for c in cells),
        "cells": cells,
    }


def load_history(path: str) -> List[Dict]:
    """Read the history file; missing or corrupt files read as empty."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        return []
    return data if isinstance(data, list) else []


def append_history(record: Dict, path: str) -> List[Dict]:
    """Append ``record`` to the history file; returns the full history."""
    history = load_history(path)
    history.append(record)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(history, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)
    return history


def check_regression(record: Dict, history: List[Dict]) -> Tuple[bool, str]:
    """Compare ``record`` against recent history.

    Returns ``(ok, message)``.  The baseline is the *fastest* of the
    last :data:`BASELINE_WINDOW` comparable prior entries (same schema
    and job count), which keeps one slow CI machine from ratcheting the
    bar down.  A simulated-cycle change against the latest comparable
    entry is reported but never fails the check — the model is allowed
    to evolve; the wall clock is not allowed to regress silently.
    """
    prior = [entry for entry in history
             if entry is not record
             and entry.get("schema") == record["schema"]
             and entry.get("jobs") == record["jobs"]
             and entry.get("grid_sha256") == record.get("grid_sha256")]
    if not prior:
        return True, (f"no comparable history; recorded "
                      f"{record['wall_s']:.2f}s as the first baseline")
    window = prior[-BASELINE_WINDOW:]
    baseline = min(entry["wall_s"] for entry in window)
    ratio = record["wall_s"] / baseline if baseline > 0 else 1.0
    notes = []
    latest = prior[-1]
    if latest.get("simulated_cycles") != record["simulated_cycles"]:
        notes.append(
            f"note: simulated cycles changed "
            f"{latest.get('simulated_cycles')} -> "
            f"{record['simulated_cycles']} (model change?)")
    msg = (f"wall {record['wall_s']:.2f}s vs baseline {baseline:.2f}s "
           f"(x{ratio:.2f}, threshold x{REGRESSION_THRESHOLD:.2f}, "
           f"{len(window)} prior entries)")
    if notes:
        msg += "\n" + "\n".join(notes)
    if ratio > REGRESSION_THRESHOLD:
        return False, "REGRESSION: " + msg
    return True, msg


def format_record(record: Dict) -> str:
    """One-screen summary of a bench record."""
    lines = [f"bench: {len(record['cells'])} cells, "
             f"{record['simulated_cycles']} simulated cycles, "
             f"wall {record['wall_s']:.2f}s (jobs={record['jobs']})"]
    for cell in record["cells"]:
        lines.append(
            f"  {cell['workload']:8} {cell['policy']:16} "
            f"t{cell['threads']} x{cell['scale']:g}: "
            f"cycles={cell['cycles']} amos={cell['amos']}")
    return "\n".join(lines)


def bench_main(history_path: str = DEFAULT_HISTORY, jobs: int = 1,
               check: bool = False,
               append: bool = True) -> Tuple[int, str]:
    """Run the bench flow; returns ``(exit_code, report_text)``."""
    record = run_bench(jobs=jobs)
    if append:
        history = append_history(record, history_path)
    else:
        history = load_history(history_path) + [record]
    lines = [format_record(record),
             f"history: {len(history)} entries in {history_path}"]
    code = 0
    if check:
        ok, message = check_regression(record, history)
        lines.append(message)
        code = 0 if ok else 1
    return code, "\n".join(lines)
