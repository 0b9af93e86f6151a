"""Warm hits are answered at admission, with the batched path's accounting.

``SimulationService.submit`` answers an in-memory memo hit (exact or
canonical key) before dedup and the queue, so it never waits
``batch_window_s``.  These tests pin both halves of that contract: the
hit path does not sleep (a 2 s window would show), and every query class
leaves the same answers, cache tiers, simulation counts and budget that
the batched path leaves — one counted probe per query.
"""

import asyncio
import time

import pytest

from repro.audit import auditor as audit_mod
from repro.core.conv_spec import ConvSpec
from repro.perf.cache import SIM_CACHE, clear_cache
from repro.resilience import faults as fault_injection
from repro.store import attach, detach
from repro.store.serve import (
    Query,
    ReproServer,
    ServeConfig,
    SimulationService,
    http_request,
    result_payload,
)
from repro.systolic.simulator import TPUSim

WARM = {"n": 1, "c_in": 16, "h_in": 9, "w_in": 9, "c_out": 16,
        "h_filter": 3, "w_filter": 3, "stride": 1, "padding": 1,
        "name": "fastpath-warm"}
COLD = dict(WARM, c_out=24, name="fastpath-cold")
# Square filter, stride 2: the H/W transpose is a canonical alias.
ALIAS_BASE = {"n": 1, "c_in": 8, "h_in": 7, "w_in": 11, "c_out": 8,
              "h_filter": 3, "w_filter": 3, "stride": 2, "padding": 1,
              "name": "fastpath-alias"}
ALIAS = dict(ALIAS_BASE, h_in=11, w_in=7, name="fastpath-transposed")
STORED = dict(WARM, c_in=24, name="fastpath-stored")
DUPLICATE = dict(WARM, c_out=40, name="fastpath-dup")


@pytest.fixture(autouse=True)
def clean_state():
    detach()
    clear_cache()
    fault_injection.deactivate()
    yield
    detach()
    clear_cache()
    fault_injection.deactivate()
    audit_mod.configure("off")


async def _boot(**overrides):
    overrides.setdefault("watchdog", False)
    service = SimulationService(ServeConfig(host="127.0.0.1", port=0, **overrides))
    server = ReproServer(service, run_id="fastpath-test")
    host, port = await server.start()
    return service, server, host, port


def _warm(spec: dict) -> None:
    TPUSim().simulate_conv(ConvSpec(**spec))


def _counter(service, name: str) -> float:
    return service.registry.counters.get(name, 0.0)


def _fresh_payload(spec: dict) -> dict:
    """The answer an in-process simulator gives, from an empty memo."""
    query = Query.parse({"spec": spec})
    return result_payload(
        query,
        TPUSim().simulate_conv(
            query.spec, group_size=query.group_size, layout=query.layout
        ),
    )


def test_warm_hit_is_answered_inside_the_batch_window():
    """The hit-path regression gate: a hit never waits batch_window_s."""

    async def scenario():
        _warm(WARM)
        service, server, host, port = await _boot(batch_window_s=2.0)
        try:
            started = time.monotonic()
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": WARM}
            )
            elapsed = time.monotonic() - started
            assert status == 200 and body["cycles"] > 0
            assert elapsed < 0.5, f"warm hit took {elapsed:.3f}s"
            assert _counter(service, "repro_serve_batches_total") == 0
            assert _counter(service, "repro_serve_admission_hits_total") == 1

            # A cold spec still pays the window, in exactly one batch...
            started = time.monotonic()
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": COLD}
            )
            assert status == 200
            assert time.monotonic() - started >= 1.9
            assert _counter(service, "repro_serve_batches_total") == 1
            assert service.simulations == 1

            # ...and its repeat is a hit at admission.
            started = time.monotonic()
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": COLD}
            )
            assert status == 200 and time.monotonic() - started < 0.5
            assert _counter(service, "repro_serve_batches_total") == 1
        finally:
            await server.shutdown()

    asyncio.run(scenario())


# Expected per-query deltas on the batched path: cache tiers (beacon and
# SIM_CACHE), fresh simulations and budget tasks/succeeded.
CASES = {
    "warm-exact": dict(spec=WARM, tier="exact", simulations=0),
    "canonical-alias": dict(spec=ALIAS, tier="canonical", simulations=0),
    "store-tier": dict(spec=STORED, tier="persistent", simulations=0),
    "cold-miss": dict(spec=COLD, tier="miss", simulations=1),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_query_class_keeps_batched_accounting(tmp_path, case):
    expected = CASES[case]

    async def scenario():
        # The store holds STORED only; the memo holds WARM and ALIAS_BASE.
        attach(tmp_path / "store")
        _warm(STORED)
        clear_cache()
        _warm(WARM)
        _warm(ALIAS_BASE)
        SIM_CACHE.reset_stats()
        service, server, host, port = await _boot(batch_window_s=0.01)
        try:
            _, before = await http_request(host, port, "GET", "/statusz")
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": expected["spec"]}
            )
            assert status == 200
            _, after = await http_request(host, port, "GET", "/statusz")
        finally:
            await server.shutdown()
        return service, body, before, after

    service, body, before, after = asyncio.run(scenario())
    tiers = {
        tier: after["cache"].get(tier, 0) - before["cache"].get(tier, 0)
        for tier in ("exact", "canonical", "persistent", "miss")
    }
    assert tiers == {
        tier: int(tier == expected["tier"]) for tier in tiers
    }, "exactly one counted probe, on the expected tier"
    stats = SIM_CACHE.stats
    assert stats.hits + stats.misses == 1
    assert stats.misses == int(expected["tier"] == "miss")
    assert stats.canonical_hits == int(expected["tier"] == "canonical")
    assert stats.persistent_hits == int(expected["tier"] == "persistent")
    assert service.simulations == expected["simulations"]
    assert after["serve"]["simulations"] == expected["simulations"]
    assert _counter(service, "repro_serve_simulations_total") == (
        expected["simulations"]
    )
    budget = service.budget.to_dict()
    assert (budget["tasks"], budget["succeeded"]) == (1, 1)

    detach()
    clear_cache()
    assert body == _fresh_payload(expected["spec"])


def test_in_flight_duplicate_joins_one_miss():
    async def scenario():
        service, server, host, port = await _boot(batch_window_s=0.2)
        try:
            answers = await asyncio.gather(*[
                http_request(host, port, "POST", "/v1/conv",
                             {"spec": DUPLICATE})
                for _ in range(2)
            ])
        finally:
            await server.shutdown()
        return service, answers

    service, answers = asyncio.run(scenario())
    assert [status for status, _ in answers] == [200, 200]
    assert answers[0][1] == answers[1][1]
    stats = SIM_CACHE.stats
    assert (stats.hits, stats.misses) == (0, 1)  # a miss counts 1, not 2
    assert _counter(service, "repro_serve_deduped_total") == 1
    assert _counter(service, "repro_serve_simulations_total") == 1
    assert service.simulations == 1
    budget = service.budget.to_dict()
    assert (budget["tasks"], budget["succeeded"]) == (2, 2)

    clear_cache()
    assert answers[0][1] == _fresh_payload(DUPLICATE)


def test_audit_break_on_a_warm_hit_still_fails_the_request():
    async def scenario():
        _warm(WARM)
        audit_mod.configure("cheap")
        fault_injection.activate(
            fault_injection.FaultPlan.parse("audit-break=any")
        )
        service, server, host, port = await _boot(
            batch_window_s=0.01, breaker_threshold=1
        )
        try:
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": WARM}
            )
            # The breaker tripped on that failure: the next ask is refused.
            again, verdict = await http_request(
                host, port, "POST", "/v1/conv", {"spec": WARM}
            )
        finally:
            await server.shutdown()
        return service, status, body, again, verdict

    service, status, body, again, verdict = asyncio.run(scenario())
    assert status == 500
    assert body["error"].startswith("AuditFault: [tpu.")
    assert "deliberately broken by fault injection" in body["error"]
    assert again == 422 and verdict["verdict"]["trip_reason"] == "AuditFault"
    budget = service.budget.to_dict()
    assert budget["tasks"] == 2 and budget["succeeded"] == 0
    assert service.budget.faults_by_class["AuditFault"] == 1
    assert service.simulations == 0
