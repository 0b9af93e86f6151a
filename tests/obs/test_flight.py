"""Flight recorder ring/dumps, status beacon, and the ``repro top`` console."""

import json
import os
import signal
import sys

import pytest

from repro.obs import log as obs_log
from repro.obs.flight import beacon as beacon_mod
from repro.obs.flight import recorder as recorder_mod
from repro.obs.flight.beacon import Beacon
from repro.obs.flight.recorder import FlightRecorder
from repro.obs.flight.top import read_status, render_status, top_main
from repro.trace import tracer as trace


@pytest.fixture(autouse=True)
def _clean_globals():
    yield
    recorder_mod.reset_recorder()
    beacon_mod.reset_beacon()
    obs_log.shutdown()
    trace.set_tracer(trace.Tracer())


# ------------------------------------------------------------ flight recorder


def test_ring_is_bounded_and_counts_drops(tmp_path):
    rec = FlightRecorder(run_dir=str(tmp_path), capacity=4)
    for index in range(10):
        rec.record_log({"event": f"e{index}"})
    doc = rec.payload("test")
    assert [r["event"] for r in doc["logs"]] == ["e6", "e7", "e8", "e9"]
    assert doc["dropped"] == {"spans": 0, "logs": 6}


def test_dump_writes_wellformed_json_with_reason_and_extra(tmp_path):
    rec = FlightRecorder(run_dir=str(tmp_path), capacity=8)
    rec.record_log({"event": "boom", "level": "error"})
    path = rec.dump("audit-fault", {"experiment": "fig13"})
    assert path is not None and os.path.exists(path)
    assert "flightrec-audit-fault-" in os.path.basename(path)
    doc = json.loads(open(path).read())
    assert doc["kind"] == "flight-recorder" and doc["reason"] == "audit-fault"
    assert doc["extra"] == {"experiment": "fig13"}
    assert doc["logs"][-1]["event"] == "boom"
    # A second dump gets its own sequence number, never overwrites.
    assert rec.dump("sigusr1") != path
    assert len(rec.dumps) == 2


def test_dump_without_run_dir_is_a_noop():
    rec = FlightRecorder(run_dir=None)
    assert rec.dump("exception") is None


def test_configure_hooks_logs_and_tracer(tmp_path):
    obs_log.configure(level="debug")
    recorder_mod.configure_recorder(run_dir=str(tmp_path), install_signal=False)
    trace.enable()
    obs_log.info("hooked.event", answer=42)
    with trace.span("hooked.span", cat="test"):
        pass
    path = recorder_mod.maybe_dump("exception", {"error": "ValueError"})
    assert path is not None
    doc = json.loads(open(path).read())
    assert any(r.get("event") == "hooked.event" for r in doc["logs"])
    assert any(s.get("name") == "hooked.span" for s in doc["spans"])


def test_maybe_dump_unconfigured_is_safe():
    recorder_mod.reset_recorder()
    assert recorder_mod.maybe_dump("exception") is None


def test_sigusr1_triggers_a_dump(tmp_path):
    recorder_mod.configure_recorder(run_dir=str(tmp_path))
    rec = recorder_mod.get_recorder()
    rec.record_log({"event": "pre-signal"})
    os.kill(os.getpid(), signal.SIGUSR1)
    assert rec.dumps, "SIGUSR1 must leave a flightrec dump"
    doc = json.loads(open(rec.dumps[0]).read())
    assert doc["reason"] == "sigusr1"


def test_recorder_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


# ------------------------------------------------------------------- beacon


def test_beacon_tracks_sweep_progress_and_cache_tiers():
    b = Beacon(role="runner", run_id="r1")
    b.tasks_total = 3
    b.task_started("fig2")
    b.task_started("fig13")
    b.task_done("fig2", ok=True)
    b.task_done("fig13", ok=False)
    b.note_cache("exact")
    b.note_cache("miss")
    doc = b.snapshot()
    assert doc["kind"] == "repro-status" and doc["role"] == "runner"
    assert doc["tasks"]["done"] == 2 and doc["tasks"]["failed"] == 1
    assert doc["tasks"]["active"] == {}
    assert doc["cache"]["exact"] == 1 and doc["cache"]["miss"] == 1


def test_beacon_update_routes_unknown_fields_to_extra():
    b = Beacon()
    b.update(queue_depth=5, drain_phase="flush")
    assert b.queue_depth == 5
    assert b.snapshot()["extra"] == {"drain_phase": "flush"}


def test_eta_from_rolling_throughput(monkeypatch):
    b = Beacon()
    b.tasks_total = 10
    clock = iter([100.0, 101.0, 102.0, 103.0, 104.0])
    monkeypatch.setattr(beacon_mod.time, "time", lambda: next(clock))
    for name in ("a", "b", "c"):
        b.task_done(name)
    # 3 completions over the 100.0->102.0 samples: 1/s, 7 remaining.
    assert b.throughput() == pytest.approx(1.0)
    assert b.eta_seconds() == pytest.approx(7.0)


def test_eta_is_zero_when_done_and_none_when_cold():
    b = Beacon()
    b.tasks_total = 0
    assert b.eta_seconds() == 0.0
    b.tasks_total = 5
    assert b.eta_seconds() is None  # no samples yet: unknown, not infinite


def test_status_file_roundtrip_and_rate_limit(tmp_path):
    path = tmp_path / "status.json"
    b = Beacon(role="serve", run_id="r9", status_path=str(path))
    b.requests = 7
    assert b.write() == str(path)
    doc = read_status(status_file=str(path))
    assert doc["role"] == "serve" and doc["serve"]["requests"] == 7
    # Immediately after a write, maybe_write is rate-limited out.
    assert b.maybe_write() is None
    assert b.maybe_write(min_interval=0.0) == str(path)


def test_unconfigured_beacon_never_writes(tmp_path):
    b = Beacon()
    b.task_done("x")
    assert b.write() is None and b.maybe_write() is None


# ------------------------------------------------------------------ repro top


def _sample_doc():
    return {
        "schema": 1, "kind": "repro-status", "role": "runner", "run_id": "r1",
        "pid": 123, "ts": 1000.0, "uptime_s": 12.0,
        "tasks": {"total": 4, "done": 2, "failed": 1, "active": {"fig13": 3.2}},
        "throughput_per_s": 0.5, "eta_s": 4.0,
        "supervisor": {"queue_depth": 1, "workers": 2, "retries": 1,
                       "timeouts": 0, "respawns": 0},
        "serve": {"requests": 0, "in_flight": 0, "dedup_joins": 0, "shed": 0},
        "cache": {"exact": 3, "canonical": 0, "persistent": 1, "miss": 4},
    }


def test_render_status_shows_progress_pool_and_cache():
    frame = render_status(_sample_doc(), now=1001.0)
    assert "role=runner run=r1" in frame
    assert "2/4 (50%)" in frame and "failed=1" in frame and "eta=4s" in frame
    assert "active  1: fig13(3s)" in frame
    assert "queue=1 workers=2 retries=1" in frame
    assert "cache   exact=3 canonical=0 persistent=1 miss=4  hit-rate=50.0%" in frame
    assert "serve" not in frame  # all-zero sections are elided


def test_render_status_flags_stale_documents():
    assert "[STALE]" in render_status(_sample_doc(), now=1100.0)
    assert "[STALE]" not in render_status(_sample_doc(), now=1001.0)


def test_read_status_errors_are_runtime_errors(tmp_path):
    with pytest.raises(RuntimeError, match="cannot read"):
        read_status(status_file=str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(RuntimeError, match="malformed"):
        read_status(status_file=str(bad))
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(RuntimeError, match="not a JSON object"):
        read_status(status_file=str(array))


def test_top_once_prints_one_frame(tmp_path, capsys):
    path = tmp_path / "status.json"
    path.write_text(json.dumps(_sample_doc()))
    assert top_main(["--status-file", str(path), "--once"]) == 0
    out = capsys.readouterr().out
    assert "repro top" in out and "2/4" in out


class _ClosedPipe:
    """A stdout whose reader has gone away (``repro top ... | head``)."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write

    def isatty(self):
        return False


@pytest.mark.parametrize("mode", [["--once"], ["--plain", "--interval", "0"]])
def test_top_exits_quietly_when_stdout_closes(tmp_path, capsys, monkeypatch, mode):
    path = tmp_path / "status.json"
    path.write_text(json.dumps(_sample_doc()))
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert top_main(["--status-file", str(path), *mode]) == 0
    assert capsys.readouterr().err == ""


def test_top_once_missing_source_exits_nonzero(tmp_path, capsys):
    code = top_main(["--status-file", str(tmp_path / "nope.json"), "--once"])
    assert code == 1
    assert "repro top:" in capsys.readouterr().err
