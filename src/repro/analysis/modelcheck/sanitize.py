"""Opt-in runtime invariant sanitizer (``repro run --sanitize``).

``python -m repro.analysis.modelcheck.sanitize`` runs it over every
golden-corpus cell (see :func:`main`).

Reuses the model checker's read-only predicates against a *live*
full-size simulation: per coherence-relevant event the sanitizer checks
the event's postcondition on the affected block, and every
``full_check_every`` such events it sweeps the whole machine with
:func:`~repro.analysis.modelcheck.invariants.check_swmr`.

Gate: the sink is only subscribed when ``--sanitize`` is passed or
``REPRO_SANITIZE=1`` is set.  When it is not subscribed every
``wants_<kind>`` gate of the bus stays false, so default-mode
simulation executes the exact
instruction sequence it does without this module (the golden traces and
``repro bench --check`` pin that).
"""

from __future__ import annotations

import os
import sys
from typing import Any, Optional, Sequence, Tuple

from repro.analysis.modelcheck.invariants import check_swmr
from repro.coherence.states import CacheState
from repro.sim.events import Event, EventKind, Sink


class SanitizerError(AssertionError):
    """An invariant failed during a sanitized run."""


def sanitize_requested() -> bool:
    """True when the environment opts into sanitized runs."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


class SanitizerSink(Sink):
    """Event-driven invariant checker (zero cost when not subscribed).

    Postconditions checked per event:

    * ``AMO_NEAR`` — the requestor holds the block unique in L1 (a near
      AMO both requires and preserves exclusive ownership).
    * ``AMO_FAR`` — no private cache holds the block and the directory
      entry is idle (far AMOs centralize the line at the home node).
    * ``INVALIDATION`` — the named holder really lost its copy and the
      directory no longer lists it.
    * ``DOWNGRADE`` — the named owner now holds the block shared
      (SC/SD), not unique.

    plus a full SWMR sweep every ``full_check_every`` checked events.
    ``LINE_HANDOFF`` is deliberately not checked: it is emitted at
    protocol-dependent points relative to the directory update, so a
    postcondition on it would encode emission order, not coherence.

    Not batched: each postcondition reads the live caches and directory
    at the moment its record is emitted, before the rest of the
    transaction moves them on, so the bus flushes after every record
    while this sink is subscribed and the sink takes each one as an
    :class:`~repro.sim.events.Event`.
    """

    kinds = frozenset({
        EventKind.AMO_NEAR, EventKind.AMO_FAR, EventKind.INVALIDATION,
        EventKind.DOWNGRADE,
    })

    def __init__(self, full_check_every: int = 64) -> None:
        self.full_check_every = full_check_every
        self.checks = 0
        self.sweeps = 0
        self._machine: Optional[Any] = None

    def bind_machine(self, machine: Any) -> None:
        self._machine = machine

    def on_event(self, event: Event) -> None:
        if self._machine is None:
            return
        self.checks += 1
        block = event.block
        machine = self._machine
        if event.kind is EventKind.AMO_NEAR:
            line = machine.privates[event.core].l1.lookup(block, touch=False)
            if line is None or not line.state.is_unique:
                raise SanitizerError(
                    f"near AMO by core {event.core} on {block:#x} left the "
                    f"L1 line "
                    f"{'absent' if line is None else line.state.name}, "
                    f"not unique")
        elif event.kind is EventKind.AMO_FAR:
            for core, priv in enumerate(machine.privates):
                line, _level = priv.find(block)
                if line is not None:
                    raise SanitizerError(
                        f"far AMO on {block:#x} left a private copy at "
                        f"core {core} ({line.state.name})")
            entry = machine.directory.peek(block)
            if entry is not None and not entry.is_idle():
                raise SanitizerError(
                    f"far AMO on {block:#x} left directory holders "
                    f"{sorted(entry.holders())}")
        elif event.kind is EventKind.INVALIDATION:
            line, _level = machine.privates[event.core].find(block)
            if line is not None:
                raise SanitizerError(
                    f"invalidation of core {event.core} block {block:#x} "
                    f"left a {line.state.name} copy behind")
            entry = machine.directory.peek(block)
            if entry is not None and event.core in entry.holders():
                raise SanitizerError(
                    f"invalidation of core {event.core} block {block:#x} "
                    f"but the directory still lists it as a holder")
        elif event.kind is EventKind.DOWNGRADE:
            line, _level = machine.privates[event.core].find(block)
            if line is None or line.state not in (CacheState.SC,
                                                  CacheState.SD):
                raise SanitizerError(
                    f"downgrade of core {event.core} block {block:#x} left "
                    f"the line "
                    f"{'absent' if line is None else line.state.name}, "
                    f"not SC/SD")
        if self.checks % self.full_check_every == 0:
            self.sweeps += 1
            problems = check_swmr(machine)
            if problems:
                raise SanitizerError(
                    "SWMR sweep failed: " + "; ".join(problems))

    def finalize(self, result: Any) -> None:
        result.metadata["sanitizer"] = {
            "checks": self.checks, "sweeps": self.sweeps}


def sanitize_cell(spec: Any) -> Tuple[Optional[str], int, int]:
    """Simulate one :class:`~repro.harness.executor.RunSpec` uncached
    under a fresh :class:`SanitizerSink`.

    Returns ``(error, checks, sweeps)``; ``error`` is the
    :class:`SanitizerError` message, or None when the cell ran clean.
    Importable by path, so a process pool can sanitize a whole corpus
    (:func:`main`).
    """
    # Imported here: the model checker imports this module and needs
    # none of the harness.
    from repro.harness.executor import execute_spec

    sink = SanitizerSink()
    try:
        execute_spec(spec, extra_sinks=(sink,))
    except SanitizerError as exc:
        return str(exc), sink.checks, sink.sweeps
    return None, sink.checks, sink.sweeps


def main(specs: Optional[Sequence[Any]] = None,
         jobs: Optional[int] = None) -> int:
    """Sanitize every golden cell (or ``specs``), one worker per CPU.

    Prints one totals line and returns 0 when every cell ran clean;
    otherwise names the first failing cell on stderr and returns 1.
    """
    from repro.harness.executor import fan_out
    from repro.harness.golden import cell_key, golden_specs

    if specs is None:
        specs = golden_specs()
    checks = sweeps = 0
    for i, (error, cell_checks, cell_sweeps) in fan_out(
            sanitize_cell, specs, jobs or os.cpu_count() or 1):
        if error is not None:
            print(f"sanitizer: {cell_key(specs[i])}: {error}",
                  file=sys.stderr)
            return 1
        checks += cell_checks
        sweeps += cell_sweeps
    print(f"sanitizer: {len(specs)} golden cells clean "
          f"({checks} event checks, {sweeps} full SWMR sweeps)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
