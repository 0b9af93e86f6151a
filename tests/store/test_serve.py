"""Integration tests of ``repro serve``: real sockets, real asyncio loop.

Each test boots a :class:`ReproServer` on an ephemeral port inside its
own event loop and talks to it with the stdlib client from
:mod:`repro.store.serve` — no web framework on either side.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.perf.cache import clear_cache
from repro.store import attach, detach
from repro.store.serve import (
    ReproServer,
    ServeConfig,
    SimulationService,
    http_request,
)

SPEC = {"n": 2, "c_in": 32, "h_in": 14, "w_in": 14, "c_out": 64,
        "h_filter": 3, "w_filter": 3, "stride": 1, "padding": 1,
        "name": "serve-spec"}

REPO = Path(__file__).resolve().parents[2]

RESULT_FIELDS = {"name", "cycles", "seconds", "tflops", "utilization",
                 "compute_cycles", "dma_cycles", "exposed_dma_cycles",
                 "macs", "group_size", "layout"}


@pytest.fixture(autouse=True)
def clean_state():
    detach()
    clear_cache()
    yield
    detach()
    clear_cache()


async def _boot(**overrides):
    config = ServeConfig(host="127.0.0.1", port=0, **overrides)
    service = SimulationService(config)
    server = ReproServer(service)
    host, port = await server.start()
    return service, server, host, port


def test_single_query_round_trip():
    async def scenario():
        service, server, host, port = await _boot()
        try:
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200
            assert set(body) == RESULT_FIELDS
            assert body["name"].startswith("serve-spec")  # spec.describe()
            assert body["cycles"] > 0 and body["seconds"] > 0
            assert body["layout"] == "NHWC"
            assert service.simulations == 1

            status, health = await http_request(host, port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert health["budget"]["succeeded"] == 1

            status, _ = await http_request(host, port, "GET", "/nope")
            assert status == 404
            status, err = await http_request(
                host, port, "POST", "/v1/conv", {"spec": {"bogus": 1}}
            )
            assert status == 400 and "bogus" in err["error"]
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_duplicate_queries_collapse_to_one_simulation():
    async def scenario():
        service, server, host, port = await _boot(batch_window_s=0.05)
        try:
            answers = await asyncio.gather(*[
                http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
                for _ in range(8)
            ])
            assert all(status == 200 for status, _ in answers)
            bodies = [body for _, body in answers]
            assert all(body == bodies[0] for body in bodies)
            # 8 clients, one fresh engine simulation.
            assert service.simulations == 1
            counters = service.registry.counters
            assert counters["repro_serve_requests_total"] == 8
            assert counters["repro_serve_deduped_total"] >= 1
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_batch_endpoint_preserves_order():
    async def scenario():
        service, server, host, port = await _boot()
        try:
            queries = [
                {"spec": dict(SPEC, c_in=c, name=f"layer-{c}")}
                for c in (16, 32, 64)
            ]
            status, body = await http_request(
                host, port, "POST", "/v1/conv/batch", {"queries": queries}
            )
            assert status == 200
            names = [r["name"].split("[")[0] for r in body["results"]]
            assert names == ["layer-16", "layer-32", "layer-64"]

            status, err = await http_request(
                host, port, "POST", "/v1/conv/batch", {"nope": []}
            )
            assert status == 400 and "queries" in err["error"]
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_config_override_changes_the_answer():
    async def scenario():
        service, server, host, port = await _boot()
        try:
            _, base = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            _, narrow = await http_request(
                host, port, "POST", "/v1/conv",
                {"spec": SPEC, "config": {"array_rows": 32}},
            )
            assert narrow["cycles"] != base["cycles"]
            status, err = await http_request(
                host, port, "POST", "/v1/conv",
                {"spec": SPEC, "config": {"warp_size": 32}},
            )
            assert status == 400 and "warp_size" in err["error"]
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_load_shedding_returns_429_and_counts_fault():
    async def scenario():
        # A one-query budget and a long window: the first query sits in
        # the batcher's coalescing window while the second is refused.
        service, server, host, port = await _boot(
            max_pending=1, batch_window_s=0.3
        )
        try:
            first = asyncio.create_task(
                http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
            )
            await asyncio.sleep(0.05)  # admitted, still pending
            assert service.pending == 1
            status, err = await http_request(
                host, port, "POST", "/v1/conv",
                {"spec": dict(SPEC, c_in=16, name="shed-me")},
            )
            assert status == 429 and "budget" in err["error"]
            assert service.budget.faults_by_class.get("LoadShed") == 1
            assert service.registry.counters["repro_serve_shed_total"] == 1
            status, body = await first  # the admitted query still answers
            assert status == 200 and body["cycles"] > 0
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_graceful_drain_answers_inflight_then_refuses():
    async def scenario():
        service, server, host, port = await _boot(batch_window_s=0.2)
        inflight = asyncio.create_task(
            http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
        )
        await asyncio.sleep(0.05)  # admitted, inside the batch window
        assert service.pending == 1
        shutdown = asyncio.create_task(server.shutdown())
        status, body = await inflight
        assert status == 200 and body["cycles"] > 0  # drained, not dropped
        await shutdown
        assert service.pending == 0 and service.draining

    asyncio.run(scenario())


def test_draining_server_refuses_with_503():
    async def scenario():
        service, server, host, port = await _boot()
        try:
            service.draining = True
            status, err = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 503 and "draining" in err["error"]
        finally:
            service.draining = False
            await server.shutdown()

    asyncio.run(scenario())


def test_metrics_exposition_includes_serve_and_store_series(tmp_path):
    async def scenario():
        attach(tmp_path / "store")
        service, server, host, port = await _boot()
        try:
            await http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
            status, text = await http_request(host, port, "GET", "/metrics")
            assert status == 200
            for series in ("repro_serve_requests_total",
                           "repro_serve_batches_total",
                           "repro_serve_simulations_total",
                           "repro_serve_pending",
                           "repro_store_hit_rate"):
                assert series in text, series
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_serve_warm_starts_from_persistent_store(tmp_path):
    async def cold():
        attach(tmp_path / "store")
        service, server, host, port = await _boot()
        try:
            await http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
            assert service.simulations == 1
        finally:
            await server.shutdown()

    async def warm():
        store = attach(tmp_path / "store")
        service, server, host, port = await _boot()
        try:
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200 and body["cycles"] > 0
            assert service.simulations == 0  # served from the store
            assert store.stats.hits >= 1
        finally:
            await server.shutdown()

    asyncio.run(cold())
    detach()
    clear_cache()  # a "new process": only the store survives
    asyncio.run(warm())


# ------------------------------------------------------- persistent connections


async def _send(writer, method="POST", path="/v1/conv", payload=None,
                version="HTTP/1.1", headers=""):
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    writer.write(
        f"{method} {path} {version}\r\nHost: x\r\n{headers}"
        f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body
    )
    await writer.drain()


async def _receive(reader):
    """One framed response: ``(status, lower-cased headers, decoded body)``."""
    status_line = await asyncio.wait_for(reader.readline(), timeout=5.0)
    assert status_line, "connection closed before a response"
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, json.loads(body)


async def _closed_by_server(reader, within_s=5.0) -> bool:
    return await asyncio.wait_for(reader.read(), timeout=within_s) == b""


def test_keep_alive_serves_sequential_requests_on_one_socket():
    async def scenario():
        service, server, host, port = await _boot()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            answers = []
            for _ in range(2):
                await _send(writer, payload={"spec": SPEC})
                answers.append(await _receive(reader))
                # An idle gap between requests is not request latency.
                await asyncio.sleep(0.2)
            await _send(writer, "GET", "/healthz")
            health = await _receive(reader)
            for status, headers, _ in answers + [health]:
                assert status == 200
                assert headers["connection"] == "keep-alive"
            assert answers[0][2] == answers[1][2]
            assert service.simulations == 1
            latency = service.registry.histograms[
                'repro_serve_request_seconds{route="/v1/conv"}'
            ]
            assert latency.count == 2 and latency.sum < 0.2
        finally:
            writer.close()
            await server.shutdown()

    asyncio.run(scenario())


@pytest.mark.parametrize(
    "version,headers",
    [("HTTP/1.1", "Connection: close\r\n"), ("HTTP/1.0", "")],
    ids=["connection-close", "http-1.0"],
)
def test_close_requests_get_a_closed_connection(version, headers):
    async def scenario():
        service, server, host, port = await _boot()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await _send(writer, payload={"spec": SPEC}, version=version,
                        headers=headers)
            status, response_headers, body = await _receive(reader)
            assert status == 200 and body["cycles"] > 0
            assert response_headers["connection"] == "close"
            assert await _closed_by_server(reader)
        finally:
            writer.close()
            await server.shutdown()

    asyncio.run(scenario())


def test_protocol_error_answers_then_closes():
    async def scenario():
        service, server, host, port = await _boot(max_body_bytes=64)
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await _send(writer, payload={"spec": SPEC})  # body > 64 bytes
            status, headers, body = await _receive(reader)
            assert status == 413 and "64-byte limit" in body["error"]
            assert headers["connection"] == "close"
            assert await _closed_by_server(reader)
        finally:
            writer.close()
            await server.shutdown()

    asyncio.run(scenario())


def test_idle_connection_is_closed_without_a_408():
    async def scenario():
        service, server, host, port = await _boot(header_timeout_s=0.3)
        try:
            # Silent from the start: closed, no response bytes at all.
            reader, writer = await asyncio.open_connection(host, port)
            assert await _closed_by_server(reader, within_s=3.0)
            writer.close()
            # Silent after one answered request: the same.
            reader, writer = await asyncio.open_connection(host, port)
            await _send(writer, payload={"spec": SPEC})
            status, headers, _ = await _receive(reader)
            assert status == 200 and headers["connection"] == "keep-alive"
            assert await _closed_by_server(reader, within_s=3.0)
            writer.close()
            assert service.budget.failed == 0
            assert 'route="other"' not in "".join(service.registry.histograms)
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_sigterm_drain_closes_idle_connections_and_exits_zero(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--no-watchdog"],
        cwd=tmp_path, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        match = re.search(r"listening on http://[0-9.]+:(\d+)",
                          proc.stdout.readline())
        assert match, "serve did not announce its port"
        port = int(match.group(1))

        async def scenario():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await _send(writer, "GET", "/healthz")
            status, headers, _ = await _receive(reader)
            assert status == 200 and headers["connection"] == "keep-alive"
            # Idle keep-alive socket: SIGTERM must not wait out the 10 s
            # header timeout on it.
            started = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            assert await _closed_by_server(reader, within_s=5.0)
            writer.close()
            return time.monotonic() - started

        assert asyncio.run(scenario()) < 5.0
        out, _ = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out
    assert "drained" in out
