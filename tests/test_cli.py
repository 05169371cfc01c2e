"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "HIST" in out and "dynamo-reuse-pn" in out


def test_table_command(capsys):
    assert main(["table", "1"]) == 0
    assert "present-near" in capsys.readouterr().out


def test_cost_command(capsys):
    assert main(["cost"]) == 0
    out = capsys.readouterr().out
    assert "55b/entry" in out
    assert "larger than this AMT" in out


def test_cost_custom_geometry(capsys):
    assert main(["cost", "--entries", "64", "--ways", "2"]) == 0
    assert "64-entry" in capsys.readouterr().out


def test_run_command(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["run", "RAY", "--threads", "4", "--scale", "0.15"]) == 0
    out = capsys.readouterr().out
    assert "policy=all-near" in out
    assert "energy breakdown" in out


def test_run_with_policy_and_input(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["run", "HIST", "--policy", "unique-near",
                 "--input", "BMP24", "--threads", "4",
                 "--scale", "0.15"]) == 0
    assert "policy=unique-near" in capsys.readouterr().out


def test_run_stamps_without_trace_rejected(capsys, tmp_path, monkeypatch):
    """--stamps only shapes a trace; alone it must not run a plain cell."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main(["run", "RAY", "--threads", "4", "--scale", "0.15",
              "--stamps"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--stamps requires --trace" in captured.err
    assert "policy=" not in captured.out


@pytest.mark.parametrize("argv,flag", [
    (["figure", "fig6", "--jobs", "0"], "--jobs"),
    (["golden", "--jobs", "0"], "--jobs"),
    (["bench", "--jobs", "-1", "--no-append"], "--jobs"),
    (["golden", "--jobs", "two"], "--jobs"),
    (["serve", "--workers", "0"], "--workers"),
])
def test_non_positive_jobs_is_a_usage_error(argv, flag, capsys):
    """A bad worker count exits 2 with usage before anything runs."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "NOPE"])


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["figure", "99"])


# --- observability commands -------------------------------------------


def test_profile_command(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["profile", "--workload", "histogram",
                 "--policy", "dynamo-reuse-pn",
                 "--threads", "4", "--scale", "0.15"]) == 0
    out = capsys.readouterr().out
    assert "latency histograms" in out
    assert "interval time-series" in out
    assert "policy decision breakdown" in out


def test_profile_accepts_code_or_name():
    from repro.cli import _workload_code
    assert _workload_code("HIST") == "HIST"
    assert _workload_code("hist") == "HIST"
    assert _workload_code("histogram") == "HIST"
    with pytest.raises(Exception):
        _workload_code("not-a-workload")


def test_profile_requires_workload(capsys):
    assert main(["profile"]) == 2
    assert "--workload is required" in capsys.readouterr().err


def test_profile_save_and_load(capsys, tmp_path):
    saved = tmp_path / "profile.json"
    assert main(["profile", "--workload", "COUNTER",
                 "--threads", "4", "--scale", "0.5",
                 "--save", str(saved)]) == 0
    first = capsys.readouterr().out
    assert saved.exists()
    assert main(["profile", "--load", str(saved)]) == 0
    second = capsys.readouterr().out
    # The rendered report replays identically from the saved payload.
    assert second.strip() in first


def test_perfetto_command(capsys, tmp_path):
    import json

    trace = tmp_path / "trace.jsonl"
    out = tmp_path / "chrome.json"
    assert main(["run", "COUNTER", "--threads", "4", "--scale", "0.5",
                 "--no-cache", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["perfetto", str(trace), str(out)]) == 0
    assert "trace events" in capsys.readouterr().out
    with open(out) as fh:
        document = json.load(fh)
    assert document["traceEvents"]


def test_perfetto_missing_input(capsys, tmp_path):
    assert main(["perfetto", str(tmp_path / "nope.jsonl"),
                 str(tmp_path / "out.json")]) == 1
    assert "perfetto:" in capsys.readouterr().err


def test_bench_command(capsys, tmp_path):
    history = tmp_path / "bench.json"
    assert main(["bench", "--history", str(history)]) == 0
    out = capsys.readouterr().out
    assert "bench:" in out and "wall" in out
    assert history.exists()
    assert main(["bench", "--history", str(history), "--check",
                 "--no-append"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out
