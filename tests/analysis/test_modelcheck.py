"""Model checker tests: exhaustive grid, reduction, seeded mutations,
replayable counterexamples, the runtime sanitizer, and the JSON schema.
"""

import contextlib
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.modelcheck import (DEFAULT_SCOPES, SMOKE_SCOPES,
                                       check_cell, check_grid,
                                       replay_trace, scope_by_name)
from repro.analysis.modelcheck.report import render_json, render_text
from repro.analysis.modelcheck.sanitize import (SanitizerError,
                                                SanitizerSink,
                                                sanitize_cell)
from repro.analysis.modelcheck.sanitize import main as sanitize_main
from repro.analysis.modelcheck.scope import Scope, ScriptOp
from repro.cli import main
from repro.coherence.directory import DirEntry
from repro.core import spec as core_spec
from repro.core.dynamo_metric import DynamoMetricPolicy
from repro.core.dynamo_reuse import DynamoReusePolicy
from repro.core.registry import POLICIES
from repro.frontend.program import GeneratorProgram
from repro.harness.executor import make_spec
from repro.obs.attribution.schema import validate
from repro.sim import engine
from repro.sim.events import EventBus, EventKind
from repro.sim.machine import Machine

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "schemas")


def _load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


# --- spec self-check -------------------------------------------------------

def test_static_tables_match_policy_objects():
    assert core_spec.verify_static_tables() == []


def test_scope_serialization_roundtrip():
    for scope in DEFAULT_SCOPES:
        assert Scope.from_dict(scope.as_dict()) == scope


# --- snapshot/restore ------------------------------------------------------

@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_snapshot_restore_roundtrip(policy):
    scope = scope_by_name("mixed-rw")
    config = scope.build_config()
    machine = Machine(config, policy, bus=EventBus())
    machine.bus.bind(machine)
    ops = [scope.memop(core, op)
           for core, script in enumerate(scope.scripts)
           for op in script]
    machine.execute(0, ops[0], 0)
    snap = machine.snapshot()
    for step, op in enumerate(ops[1:], start=1):
        machine.execute(step % scope.cores, op, step)
    assert machine.snapshot() != snap
    machine.restore(snap)
    assert machine.snapshot() == snap
    # Determinism: re-running the same suffix lands in the same state.
    for step, op in enumerate(ops[1:], start=1):
        machine.execute(step % scope.cores, op, step)
    end_a = machine.snapshot()
    machine.restore(snap)
    for step, op in enumerate(ops[1:], start=1):
        machine.execute(step % scope.cores, op, step)
    assert machine.snapshot() == end_a


# --- the exhaustive grid ---------------------------------------------------

@pytest.fixture(scope="module")
def full_grid():
    return check_grid()


def test_default_grid_holds_all_invariants(full_grid):
    assert full_grid.spec_problems == []
    for cell in full_grid.cells:
        assert cell.complete, f"{cell.scope}/{cell.policy} hit the budget"
        assert cell.violations == [], (
            f"{cell.scope}/{cell.policy}: "
            f"{[r.violation.message for r in cell.violations]}")
    assert full_grid.ok
    # The grid really is the advertised shape: every scope x every policy.
    assert len(full_grid.cells) == len(DEFAULT_SCOPES) * len(POLICIES)
    names = {c.policy for c in full_grid.cells}
    assert names == set(POLICIES)


def test_reduction_prunes_majority_of_interleavings(full_grid):
    totals = render_json(full_grid)["totals"]
    assert totals["pruned_pct"] >= 50.0, totals
    # And the reducer must actually be doing something, not just the
    # visited set: sleep-set skips occur somewhere on the grid.
    assert sum(c.sleep_skipped for c in full_grid.cells) > 0


def test_disjoint_scope_collapses_to_one_schedule(full_grid):
    cells = [c for c in full_grid.cells if c.scope == "disjoint"]
    assert cells
    for cell in cells:
        assert cell.schedules == 1, (
            f"{cell.policy}: sleep sets should collapse disjoint "
            f"working sets to a single schedule, got {cell.schedules}")


def test_counter_scope_sums_exactly(full_grid):
    for cell in full_grid.cells:
        if cell.scope != "counter":
            continue
        # ldadd 1+1 and 2+2 on line 0 -> every schedule ends at 6.
        assert cell.final_memories == {((0, 6),)}


def test_smoke_subset_is_fast_and_clean():
    report = check_grid([scope_by_name(n) for n in SMOKE_SCOPES])
    assert report.ok
    assert sum(c.transitions for c in report.cells) < 5000


# --- seeded mutations: each invariant must fire and replay -----------------

MUTATIONS = [
    # directory forgets to drop holders: a far AMO leaves phantom
    # sharers behind (only the drop in _invalidate_holders cleans the
    # entry on that path).
    ("read-amo", "shared-far", "swmr",
     lambda: mock.patch.object(DirEntry, "drop",
                               lambda self, core: None)),
    # reuse predictor skips its departure update (confidence decrement
    # and global counters).
    ("counter", "dynamo-reuse-pn", "policy-conformance",
     lambda: mock.patch.object(DynamoReusePolicy, "on_block_departure",
                               lambda self, *a, **kw: None)),
    # near AMO on a Shared line without the CleanUnique upgrade: the
    # other sharer keeps a stale copy.
    ("read-amo", "all-near", "swmr",
     lambda: mock.patch.object(Machine, "_upgrade",
                               lambda self, core, block, now, **kw: now)),
    # metric predictor skips the invalidation bump.
    ("counter", "dynamo-metric", "policy-conformance",
     lambda: mock.patch.object(DynamoMetricPolicy, "on_invalidation",
                               lambda self, block, now: None)),
]


@pytest.mark.parametrize("scope_name,policy,invariant,patcher",
                         MUTATIONS,
                         ids=[f"{s}-{p}-{i}" for s, p, i, _ in MUTATIONS])
def test_seeded_mutation_fires_invariant(scope_name, policy, invariant,
                                         patcher):
    scope = scope_by_name(scope_name)
    with patcher():
        cell = check_cell(scope, policy)
    fired = {rec.violation.invariant for rec in cell.violations}
    assert invariant in fired, (
        f"mutation did not trip {invariant}; fired={fired}")
    # The counterexample replays deterministically under the mutation...
    rec = next(r for r in cell.violations
               if r.violation.invariant == invariant)
    trace = rec.trace_dict(scope, policy)
    with patcher():
        replay = replay_trace(trace)
    assert replay.reproduced
    # ... and the pristine machine passes the same schedule.
    clean = replay_trace(trace)
    assert not any(r.violation.invariant == invariant
                   for r in clean.violations)


# --- bank scope: conservation across balanced transfers --------------------

@contextlib.contextmanager
def _drop_negative_adds():
    """Seeded fault: ADD AMOs with negative operands are lost.

    Models a dropped update on the debit half of a transfer pair —
    exactly the corruption the conservation invariant exists to catch.
    The shadow serialization is patched to drop the same adds so the
    per-step value checks stay green (machine and shadow agree on the
    corrupted history); only the end-state checks, whose expectations
    come from the *script operands*, can see the loss.
    """
    from repro.analysis.modelcheck import explore
    from repro.frontend.isa import AmoKind

    real_apply = Machine._apply_amo_value
    real_shadow = explore.apply_shadow

    def patched_apply(self, op):
        if op.amo is AmoKind.ADD and op.value < 0:
            return self.values.get(op.addr, 0)
        return real_apply(self, op)

    def patched_shadow(shadow, kind, addr, value, expected):
        if kind in ("ldadd", "stadd") and value < 0:
            return shadow.get(addr, 0)
        return real_shadow(shadow, kind, addr, value, expected)

    with mock.patch.object(Machine, "_apply_amo_value", patched_apply), \
            mock.patch.object(explore, "apply_shadow", patched_shadow):
        yield


class TestBankConservation:
    def test_bank_scope_in_default_and_smoke_grids(self):
        assert any(s.name == "bank" for s in DEFAULT_SCOPES)
        assert "bank" in SMOKE_SCOPES

    def test_conservation_sums_derived_from_scripts(self):
        scope = scope_by_name("bank")
        (addrs, net), = scope.conservation_sums()
        assert len(addrs) == 2
        # The transfer pairs are balanced; only the audit ldadds (+0)
        # remain, so the net is zero.
        assert net == 0

    def test_conserve_round_trips_through_json(self):
        scope = scope_by_name("bank")
        assert scope.conserve == ((0, 1),)
        assert Scope.from_dict(scope.as_dict()) == scope

    def test_conserve_rejects_out_of_range_lines(self):
        base = scope_by_name("bank")
        with pytest.raises(ValueError, match="line"):
            Scope("bad", base.cores, base.lines, base.scripts,
                  conserve=((0, 7),))

    def test_conserve_rejects_non_add_ops(self):
        base = scope_by_name("mixed-rw")  # has plain stores on line 0
        with pytest.raises(ValueError, match="touched by 'store'"):
            Scope("bad", base.cores, base.lines, base.scripts,
                  conserve=((0,),))

    def test_bank_cell_clean_on_pristine_machine(self):
        cell = check_cell(scope_by_name("bank"), "dynamo-reuse-pn")
        assert cell.complete
        assert cell.violations == []

    def test_dropped_debit_fires_conservation(self):
        scope = scope_by_name("bank")
        with _drop_negative_adds():
            # Raise the per-cell cap: every schedule also trips the
            # per-address amo-sum invariant, which would otherwise
            # crowd the conservation record out of the first five.
            cell = check_cell(scope, "all-near", max_violations=50)
        fired = {rec.violation.invariant for rec in cell.violations}
        assert "conservation" in fired, f"fired={fired}"
        rec = next(r for r in cell.violations
                   if r.violation.invariant == "conservation")
        trace = rec.trace_dict(scope, "all-near")
        with _drop_negative_adds():
            assert replay_trace(trace).reproduced
        # The pristine machine conserves on the very same schedule.
        clean = replay_trace(trace)
        assert not any(r.violation.invariant == "conservation"
                       for r in clean.violations)


def test_mutation_report_matches_schema(tmp_path):
    scope = scope_by_name("read-amo")
    with MUTATIONS[0][3]():
        report = check_grid([scope], ["shared-far"])
    payload = render_json(report)
    assert not payload["ok"]
    assert validate(payload, _load_schema("check.schema.json")) == []
    # The embedded trace round-trips through a file and the CLI.
    trace = payload["cells"][0]["violations"][0]["trace"]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace))
    with MUTATIONS[0][3]():
        assert main(["check", "--replay", str(path)]) == 1
    assert main(["check", "--replay", str(path)]) == 0


# --- runtime sanitizer -----------------------------------------------------

def _two_core_programs(scope):
    def body(core, script):
        def fn(_core):
            for op in script:
                yield scope.memop(core, op)
        return GeneratorProgram(fn)
    return [body(core, script)
            for core, script in enumerate(scope.scripts)]


def test_sanitizer_fires_on_broken_upgrade():
    scope = scope_by_name("read-amo")
    bus = EventBus()
    bus.subscribe(SanitizerSink(full_check_every=1))
    machine = Machine(scope.build_config(), "all-near", bus=bus)
    with mock.patch.object(Machine, "_upgrade",
                           lambda self, core, block, now, **kw: now):
        with pytest.raises(SanitizerError):
            engine.run(machine, _two_core_programs(scope))


def test_sanitizer_clean_on_real_engine_run():
    scope = scope_by_name("mixed-rw")
    bus = EventBus()
    sink = bus.subscribe(SanitizerSink(full_check_every=1))
    machine = Machine(scope.build_config(), "dynamo-reuse-pn", bus=bus)
    engine.run(machine, _two_core_programs(scope))
    assert sink.checks > 0


def test_sanitize_cell_reports_clean_and_failing_cells():
    """The corpus sweep's worker returns totals, or the error message
    instead of raising, so a pool can name the failing cell."""
    spec = make_spec("HIST", "all-near", threads=4, scale=0.1)
    error, checks, sweeps = sanitize_cell(spec)
    assert error is None and checks > 0 and sweeps >= 0
    with mock.patch.object(SanitizerSink, "on_event",
                           side_effect=SanitizerError("seeded")):
        error, _checks, _sweeps = sanitize_cell(spec)
    assert error == "seeded"


def test_sanitize_main_names_the_first_failing_cell(capsys):
    """The corpus entry point totals clean cells and names a failing one."""
    specs = [make_spec("HIST", pol, threads=4, scale=0.1)
             for pol in ("all-near", "present-near")]
    assert sanitize_main(specs, jobs=1) == 0
    assert capsys.readouterr().out.startswith(
        "sanitizer: 2 golden cells clean (")
    on_event = SanitizerSink.on_event

    def seeded(sink, event):
        if sink._machine.policy_name == "present-near":
            raise SanitizerError("seeded")
        on_event(sink, event)

    with mock.patch.object(SanitizerSink, "on_event", seeded):
        assert sanitize_main(specs, jobs=1) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "sanitizer: HIST/present-near: seeded\n"


def test_sanitizer_off_keeps_bus_inactive():
    scope = scope_by_name("mixed-rw")
    machine = Machine(scope.build_config(), "all-near", bus=EventBus())
    # The zero-cost-when-off gate: no kind is routed to any sink.
    assert not any(getattr(machine.bus, "wants_" + kind.name.lower())
                   for kind in EventKind)


# --- differential: checker's schedule set covers the real engine -----------

_DIFF_KINDS = ("load", "store", "ldadd", "stadd", "swap", "cas")

_script_op = st.builds(
    ScriptOp,
    kind=st.sampled_from(_DIFF_KINDS),
    line=st.integers(0, 1),
    value=st.integers(1, 3),
    expected=st.integers(0, 2),
    offset=st.sampled_from((0, 8)),
)


@settings(max_examples=20, deadline=None)
@given(
    cores=st.integers(2, 3),
    data=st.data(),
    policy=st.sampled_from(("all-near", "shared-far", "dynamo-reuse-pn")),
)
def test_engine_final_memory_within_checker_set(cores, data, policy):
    scripts = tuple(
        tuple(data.draw(st.lists(_script_op, min_size=1, max_size=3)))
        for _ in range(cores))
    scope = Scope("diff", cores, (0, 1), scripts)
    cell = check_cell(scope, policy)
    assert cell.complete
    assert cell.violations == [], [
        r.violation.message for r in cell.violations]

    machine = Machine(scope.build_config(), policy, bus=EventBus())
    engine.run(machine, _two_core_programs(scope))
    final = tuple(sorted(
        (a, v) for a, v in machine.values.items() if v != 0))
    assert final in cell.final_memories, (
        f"engine produced {final}, checker saw {cell.final_memories}")


# --- CLI + schema ----------------------------------------------------------

def test_cli_check_text_and_json(capsys):
    assert main(["check", "--scope", "counter",
                 "--policy", "all-near", "--policy", "unique-near"]) == 0
    out = capsys.readouterr().out
    assert "explored" in out and "pruned" in out and "OK" in out

    assert main(["check", "--scope", "counter", "--policy", "all-near",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert validate(payload, _load_schema("check.schema.json")) == []
    assert payload["ok"] and payload["version"] == 1


def test_cli_check_rejects_unknown_names(capsys):
    assert main(["check", "--scope", "nope"]) == 2
    assert main(["check", "--policy", "nope"]) == 2
    capsys.readouterr()


def test_cli_check_smoke_runs_smoke_scopes(capsys):
    assert main(["check", "--smoke", "--policy", "all-near"]) == 0
    out = capsys.readouterr().out
    for name in SMOKE_SCOPES:
        assert name in out
    assert "mixed-rw" not in out


def test_cli_replay_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "nope"}))
    assert main(["check", "--replay", str(path)]) == 2
    capsys.readouterr()


def test_lint_json_matches_schema():
    from repro.analysis import lint_all, render_json as lint_render_json

    findings = lint_all(["HIST"], num_threads=4)
    payload = json.loads(lint_render_json(findings))
    assert validate(payload, _load_schema("lint.schema.json")) == []


def test_render_text_mentions_lock_cells_as_unbounded(full_grid):
    text = render_text(full_grid)
    assert "n/a" in text  # lock cells: prune ratio not meaningful
