"""Profile report tests: contention tracking, profiling, rendering."""

from repro.harness.executor import make_spec
from repro.obs.report import (ContentionSink, load_profile, profile_spec,
                              render_profile, save_profile)
from repro.sim.events import Event, EventBus, EventKind

# --- contention sink --------------------------------------------------


def _ev(kind, core, block):
    return Event(kind, 0, core, block)


def test_contention_sink_ranks_by_invalidations():
    sink = ContentionSink()
    for core in (0, 1, 2):
        sink.on_event(_ev(EventKind.INVALIDATION, core, 0x100))
    sink.on_event(_ev(EventKind.INVALIDATION, 0, 0x200))
    sink.on_event(_ev(EventKind.AMO_FAR, 1, 0x100))
    sink.on_event(_ev(EventKind.AMO_FAR, 1, 0x100))
    rows = sink.top_blocks(10)
    assert rows[0] == (0x100, 3, 2, 3)
    assert rows[1] == (0x200, 1, 0, 1)


def test_contention_sink_ignores_unrelated_events():
    """The bus routes the sink only the kinds it declares."""
    bus = EventBus()
    sink = bus.subscribe(ContentionSink())
    bus.emit(_ev(EventKind.SNOOP, 0, 0x100))
    bus.emit(Event(EventKind.MESSAGE, 0))
    assert sink.top_blocks(10) == []
    assert not sink.cores_touching


def test_contention_finalize_writes_metadata():
    class FakeResult:
        metadata = None

    sink = ContentionSink()
    sink.on_event(_ev(EventKind.INVALIDATION, 0, 0x40))
    result = FakeResult()
    result.metadata = {}
    sink.finalize(result)
    assert result.metadata["contention"] == [[0x40, 1, 0, 1]]


# --- profiling end to end ---------------------------------------------


def test_profile_spec_attaches_all_payloads():
    spec = make_spec("COUNTER", "dynamo-reuse-pn", threads=4, scale=0.5)
    result = profile_spec(spec, interval=1000)
    assert "histograms" in result.metadata
    assert "intervals" in result.metadata
    assert "contention" in result.metadata
    report = render_profile(result)
    assert "latency histograms" in report
    assert "interval time-series" in report
    assert "top-contended cache lines" in report
    assert "policy decision breakdown" in report
    assert f"cycles={result.cycles}" in report


def test_profile_save_load_round_trip(tmp_path):
    spec = make_spec("COUNTER", "all-near", threads=4, scale=0.5)
    result = profile_spec(spec, interval=1000)
    path = tmp_path / "profile.json"
    save_profile(result, str(path))
    loaded = load_profile(str(path))
    assert render_profile(loaded) == render_profile(result)


def test_render_profile_handles_bare_result():
    """A result without obs payloads still renders (e.g. cached runs)."""
    from repro.harness.executor import execute_spec

    spec = make_spec("COUNTER", "all-near", threads=2, scale=0.5)
    result = execute_spec(spec)
    report = render_profile(result)
    assert "(no latency events recorded)" in report
    assert "(no invalidations recorded)" in report
