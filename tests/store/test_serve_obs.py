"""Serve observability: trace headers, /statusz, per-route histograms,
and the connected request span tree under tracing."""

import asyncio
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.flight import beacon as beacon_mod
from repro.perf.cache import clear_cache
from repro.store import detach
from repro.store.serve import (
    RUNG_FULL,
    RUNG_SERIAL,
    ReproServer,
    ServeConfig,
    SimulationService,
    http_request,
    http_request_retry,
)
from repro.trace import context as tc
from repro.trace import tracer as trace
from repro.trace.export import span_forest

SPEC = {"n": 2, "c_in": 32, "h_in": 14, "w_in": 14, "c_out": 64,
        "h_filter": 3, "w_filter": 3, "stride": 1, "padding": 1,
        "name": "serve-spec"}


@pytest.fixture(autouse=True)
def clean_state():
    detach()
    clear_cache()
    beacon_mod.reset_beacon()
    trace.set_tracer(trace.Tracer())
    yield
    detach()
    clear_cache()
    beacon_mod.reset_beacon()
    trace.set_tracer(trace.Tracer())


async def _boot(run_id=None, **overrides):
    config = ServeConfig(host="127.0.0.1", port=0, **overrides)
    service = SimulationService(config)
    server = ReproServer(service, run_id=run_id)
    host, port = await server.start()
    return service, server, host, port


# ------------------------------------------------------------------ headers


def test_responses_carry_run_and_trace_ids():
    async def scenario():
        service, server, host, port = await _boot(run_id="run-abc")
        try:
            status, _, headers = await http_request(
                host, port, "GET", "/healthz", return_headers=True
            )
            assert status == 200
            assert headers["x-repro-run-id"] == "run-abc"
            assert len(headers["x-repro-trace-id"]) == 32
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_incoming_traceparent_is_honored_and_echoed():
    async def scenario():
        service, server, host, port = await _boot()
        try:
            ctx = tc.TraceContext.new()
            status, _, headers = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC},
                headers={"traceparent": ctx.to_traceparent()},
                return_headers=True,
            )
            assert status == 200
            assert headers["x-repro-trace-id"] == ctx.trace_id
        finally:
            await server.shutdown()

    asyncio.run(scenario())


# ------------------------------------------------------------------ statusz


def test_statusz_reflects_served_load():
    async def scenario():
        service, server, host, port = await _boot(run_id="run-z")
        try:
            for _ in range(2):
                status, _ = await http_request(
                    host, port, "POST", "/v1/conv", {"spec": SPEC}
                )
                assert status == 200
            status, doc = await http_request(host, port, "GET", "/statusz")
            assert status == 200
            assert doc["kind"] == "repro-status" and doc["role"] == "serve"
            assert doc["run_id"] == "run-z"
            assert doc["serve"]["requests"] == 2
            assert doc["serve"]["simulations"] == 1  # repeat was memoized
            assert doc["serve"]["in_flight"] == 0
            assert doc["serve"]["draining"] is False
            assert doc["budget"]["succeeded"] == 2
            # The repeat probe hit a warm tier; the first was a miss.
            assert doc["cache"]["miss"] >= 1
            assert doc["cache"]["exact"] + doc["cache"]["canonical"] >= 1
        finally:
            await server.shutdown()

    asyncio.run(scenario())


# ------------------------------------------------------- per-route histogram


def test_metrics_expose_per_route_latency_histograms():
    async def scenario():
        service, server, host, port = await _boot()
        try:
            await http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
            await http_request(host, port, "GET", "/healthz")
            await http_request(host, port, "GET", "/unknown-path")
            status, metrics = await http_request(host, port, "GET", "/metrics")
            assert status == 200
            assert "# TYPE repro_serve_request_seconds histogram" in metrics
            assert metrics.count("TYPE repro_serve_request_seconds") == 1
            for route in ("/v1/conv", "/healthz", "other"):
                assert (
                    f'repro_serve_request_seconds_count{{route="{route}"}} 1'
                    in metrics
                ), route
            # Bucket samples keep the route label alongside `le`.
            assert 'repro_serve_request_seconds_bucket{le="+Inf",route="/v1/conv"} 1' in metrics
        finally:
            await server.shutdown()

    asyncio.run(scenario())


# -------------------------------------------------------- request span tree


def _assert_traced_request_forms_one_connected_tree(rung):
    async def scenario():
        trace.enable()
        service, server, host, port = await _boot()
        try:
            service.set_rung(rung, "test")
            ctx = tc.TraceContext.new()
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC},
                headers={"traceparent": ctx.to_traceparent()},
            )
            assert status == 200
        finally:
            await server.shutdown()
            trace.disable()
        events = trace.drain_events()

        forest = span_forest(events)
        assert ctx.trace_id in forest
        tree = forest[ctx.trace_id]
        assert tree["roots"] == [ctx.span_id]
        assert tree["orphans"] == []
        names = {e.name for e in tree["spans"].values()}
        # HTTP handler -> batch group -> engine simulation, one lineage.
        assert {"serve.request", "serve.batch", "tpu.conv.batch"} <= names

    asyncio.run(scenario())


def test_traced_request_forms_one_connected_tree():
    _assert_traced_request_forms_one_connected_tree(RUNG_FULL)


def test_traced_request_forms_one_connected_tree_on_serial_rung():
    # The serial rung prices through the same engine call, so the same tree.
    _assert_traced_request_forms_one_connected_tree(RUNG_SERIAL)


def test_untraced_requests_record_no_spans():
    async def scenario():
        service, server, host, port = await _boot()
        try:
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200
        finally:
            await server.shutdown()
        assert trace.drain_events() == []

    asyncio.run(scenario())


# ------------------------------------------------------- process bootstrap


@pytest.mark.parametrize("workers", [1, 2])
def test_log_level_and_quiet_survive_daemon_start(tmp_path, workers):
    if workers > 1 and not hasattr(os, "fork"):
        pytest.skip("requires os.fork")
    repo = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONUNBUFFERED="1")
    err_path = tmp_path / "stderr.log"
    with open(err_path, "w") as err_file:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--no-watchdog", "--workers", str(workers),
             "--log-level", "debug", "--quiet"],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=err_file,
            text=True,
        )
        try:
            match = re.search(r"listening on http://[0-9.]+:(\d+)",
                              proc.stdout.readline())
            assert match, "serve did not announce its port"
            status, _, _ = asyncio.run(http_request_retry(
                "127.0.0.1", int(match.group(1)), "GET", "/healthz",
                deadline_s=30.0,
            ))
            assert status == 200
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    assert proc.returncode == 0
    err = err_path.read_text()
    # --log-level debug reaches every serving process: info events print.
    assert "serve.listening" in err
    if workers > 1:
        assert "serve.worker_spawned" in err
    # --quiet: the banner launchers wait for is the only stdout line.
    assert "drained" not in out
