"""Stamped-mode timing neutrality over the whole golden corpus.

``python -m repro.obs.attribution.neutrality`` runs every golden cell
with the ``repro why`` sinks (:class:`BlameSink` + :class:`AuditSink`)
attached, one worker per CPU, and checks each cell's cycles,
instructions and AMO counts against the committed digests
(``tests/golden/digests.json``): stamps may cost wall-clock, never
cycles.  It exits 1 naming the first cell that differs.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict, Optional, Sequence

from repro.obs.attribution.report import why_spec

#: Digest fields a stamped run must reproduce.
FIELDS = ("cycles", "instructions", "amos", "near_amos", "far_amos")


def stamped_cell(spec: Any) -> Dict[str, int]:
    """Simulate one cell uncached under the attribution sinks; returns
    its :data:`FIELDS`.  Importable by path, for a process pool."""
    result = why_spec(spec)
    return {"cycles": result.cycles, "instructions": result.instructions,
            "amos": result.amos_committed,
            "near_amos": result.stats.near_amos,
            "far_amos": result.stats.far_amos}


def main(specs: Optional[Sequence[Any]] = None,
         jobs: Optional[int] = None) -> int:
    """Check every golden cell (or ``specs``), one worker per CPU.

    Prints one summary line and returns 0 when every stamped cell
    matches its digest; otherwise names the first mismatching cell on
    stderr and returns 1 (2 when the digest corpus is missing).
    """
    from repro.harness.executor import fan_out
    from repro.harness.golden import (DEFAULT_DIGEST_PATH, cell_key,
                                      golden_specs, load_digests)

    if specs is None:
        specs = golden_specs()
    try:
        cells = load_digests(DEFAULT_DIGEST_PATH)["cells"]
    except FileNotFoundError:
        print(f"stamped: no committed corpus at {DEFAULT_DIGEST_PATH} "
              "(run from the repository root)", file=sys.stderr)
        return 2
    for i, got in fan_out(stamped_cell, specs, jobs or os.cpu_count() or 1):
        key = cell_key(specs[i])
        want = {field: cells[key][field] for field in FIELDS}
        if got != want:
            diff = ", ".join(f"{field} {got[field]} != {want[field]}"
                             for field in FIELDS if got[field] != want[field])
            print(f"stamped: {key}: {diff}", file=sys.stderr)
            return 1
    print(f"stamped: {len(specs)} golden cells match their digests "
          f"({', '.join(FIELDS)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
