"""Small-scope explicit-state model checker for the coherence protocol
and the AMO placement policies (``repro check``).

The checker drives the *real* :class:`~repro.sim.machine.Machine` — the
same directory, private-cache and policy objects default simulations use
— through **every** interleaving of short per-core op scripts, forking
execution with :meth:`Machine.snapshot`/:meth:`Machine.restore`.  At
each transition it checks SWMR, the data-value invariant against a
sequential shadow memory, AMO atomicity, deadlock freedom, and policy
conformance against the machine-readable spec in :mod:`repro.core.spec`.
Sleep-set partial-order reduction plus canonical state hashing keep the
exploration tractable; see DESIGN.md §11 for the soundness argument.

The runtime sanitizer that reuses these invariants on live simulations
lives in :mod:`repro.analysis.modelcheck.sanitize`, which is not
imported here so that ``python -m`` can run it as a script.
"""

from repro.analysis.modelcheck.explore import (CellResult, CheckReport,
                                               check_cell, check_grid,
                                               replay_trace)
from repro.analysis.modelcheck.invariants import Violation, check_swmr
from repro.analysis.modelcheck.report import render_json, render_text
from repro.analysis.modelcheck.scope import (DEFAULT_SCOPES, SMOKE_SCOPES,
                                             Scope, ScriptOp, scope_by_name)

__all__ = [
    "CellResult", "CheckReport", "check_cell", "check_grid", "replay_trace",
    "Violation", "check_swmr", "render_json", "render_text",
    "DEFAULT_SCOPES", "SMOKE_SCOPES", "Scope", "ScriptOp", "scope_by_name",
]
