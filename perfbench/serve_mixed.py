"""``serve-mixed``: the conv-timing daemon under a mixed request stream.

``python -m repro serve --workers 1 --store DIR --port 0`` runs as its own
process with default settings; this process is its only client and holds
at most ``nproc`` connections.  The traffic mix is drawn from ``--seed``
(:mod:`specgen`).  A run has two phases:

1. open loop: :data:`RATE_RPS` requests per second, below capacity, for
   :data:`OPEN_SHARE` of the run; each request is timed from when it was
   due, so a stall also delays the requests queued behind it;
2. closed loop: ``nproc`` callers send back to back for the rest.

Every 200 answer's ``cycles`` must equal what ``TPUSim().simulate_conv``
computes in this process; any other answer is a failed request.  Set-up
(store seeding in a separate process, server boot, hot-set warm-up) runs
:data:`SETUPS` times and reports the median; the last server is measured.
"""

from __future__ import annotations

import asyncio
import json
import re
import statistics
import subprocess
import sys
from bisect import bisect_right
from time import perf_counter, sleep
from typing import Dict, List, Optional

import layers
import spans
import specgen
from client import Client, Outcome, closed_loop, open_loop
from common import (
    BENCH_DIR, OP_PERCENTILE, ROOT, TMP, fresh_dir, log, metric, nproc, percentile,
    program_cmd, program_env, prom_totals, run_program, wait_rusage,
)

RATE_RPS = 100.0
OPEN_SHARE = 0.6
#: Requests generated for the closed loop, per second of it: well above
#: what one serve worker answers, so the loop is never short of work.
CLOSED_SUPPLY_RPS = 400.0
SETUPS = 3
LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


class Server:
    """One ``repro serve`` process, booted and warmed."""

    def __init__(self, store_dir, spans_dir=None) -> None:
        self.log_path = TMP / f"{store_dir.name}.log"
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            program_cmd(
                ["repro", "serve", "--workers", "1", "--store", str(store_dir),
                 "--port", "0"],
                spans_dir,
            ),
            cwd=ROOT, env=program_env(), stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.host, self.port = self._wait_listening()

    def _wait_listening(self, timeout: float = 60.0):
        deadline = perf_counter() + timeout
        while perf_counter() < deadline and self.proc.poll() is None:
            found = LISTENING.search(self.log_path.read_text(errors="replace"))
            if found:
                return found.group(1), int(found.group(2))
            sleep(0.005)
        self.stop()
        raise RuntimeError(f"repro serve did not start: {self.log_path.read_text()[-2000:]}")

    def stop(self):
        """SIGTERM (graceful drain), then reap: ``(exit code, peak RSS MB)``."""
        if self.proc.returncode is None:
            self.proc.terminate()
            code, rss = wait_rusage(self.proc, 30.0)
        else:
            code, rss = self.proc.returncode, 0.0
        self.log.close()
        return code, rss


async def _get(host: str, port: int, path: str) -> str:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode())
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    return data.split(b"\r\n\r\n", 1)[1].decode("utf-8")


async def _counters(server: Server) -> Dict[str, object]:
    """The daemon's public counters: ``/metrics`` and ``/statusz``."""
    prom = prom_totals(await _get(server.host, server.port, "/metrics"))
    status = json.loads(await _get(server.host, server.port, "/statusz"))
    return {"prom": prom, "cache": status["cache"]}


def _requests(sequence, expected) -> List[tuple]:
    return [(cls, {"spec": specgen.spec_doc(spec)}, expected[spec]) for cls, spec in sequence]


class Run:
    """One measured server: set-up, both phases, outcomes."""

    def __init__(self, mix, phases, expected, seconds, spans_dir=None) -> None:
        self.mix = mix
        self.phases = phases
        self.expected = expected
        self.seconds = seconds
        self.spans_dir = spans_dir
        self.outcomes: List[Outcome] = []
        self.rss: List[float] = []
        self.server_codes: List[int] = []

    async def setup(self, index: int) -> Server:
        """Seed a fresh store in its own process, boot, warm the hot set."""
        started = perf_counter()
        store_dir = fresh_dir(f"serve-store-{index}")
        specs_path = TMP / "seed-specs.json"
        seeded = [spec for phase in self.phases for cls, spec in phase if cls == "store"]
        specs_path.write_text(json.dumps([specgen.spec_doc(s) for s in seeded]))
        code, _, rss, err = run_program(
            [sys.executable, str(BENCH_DIR / "seed_store.py"), str(store_dir), str(specs_path)]
        )
        self.rss.append(rss)
        if code != 0:
            raise RuntimeError(f"store seeding failed: {err}")
        server = Server(store_dir, self.spans_dir)
        try:
            client = Client(server.host, server.port, 1)
            for spec in self.mix.hot:
                self.outcomes.append(await client.post(
                    "warm", {"spec": specgen.spec_doc(spec)}, self.expected[spec],
                    perf_counter(),
                ))
            await client.close()
        except BaseException:
            self.stop(server)
            raise
        self.setup_s = perf_counter() - started
        return server

    async def measure(self, server: Server) -> None:
        client = Client(server.host, server.port, nproc())
        self.before = await _counters(server)
        self.started = perf_counter()
        self.open, self.lateness = await open_loop(
            client, _requests(self.phases[0], self.expected), RATE_RPS
        )
        self.closed, self.closed_s = await closed_loop(
            client, _requests(self.phases[1], self.expected), nproc(),
            self.seconds * (1 - OPEN_SHARE),
        )
        self.after = await _counters(server)
        await client.close()
        self.outcomes += self.open + self.closed

    def stop(self, server: Server) -> None:
        code, rss = server.stop()
        self.rss.append(rss)
        self.server_codes.append(code)

    @property
    def closed_rps(self) -> float:
        """200 answers per second in the closed loop."""
        return sum(o.status == 200 for o in self.closed) / self.closed_s

    def phase1_p(self, q: float, cls: Optional[str] = None) -> float:
        latencies = [
            o.latency_s if o.ok else float("inf")
            for o in self.open if cls is None or o.cls == cls
        ]
        return percentile(latencies, q) * 1e3

    def count_failed(self) -> int:
        """Wrong or missing answers plus servers that did not exit cleanly."""
        bad = [o for o in self.outcomes if not o.ok]
        if bad:
            first = bad[0]
            log(f"request failed: {first.cls} status={first.status} {first.error} "
                f"cycles={first.body and first.body.get('cycles')} "
                f"expected={first.expected}")
        return len(bad) + sum(code != 0 for code in self.server_codes)


def _sizes(seconds: float) -> List[int]:
    return [
        max(1, round(RATE_RPS * seconds * OPEN_SHARE)),
        max(1, round(CLOSED_SUPPLY_RPS * seconds * (1 - OPEN_SHARE))),
    ]


def _expected(specs) -> Dict[object, float]:
    from repro.systolic.simulator import TPUSim

    sim = TPUSim()
    return {spec: sim.simulate_conv(spec).cycles for spec in specs}


async def _untraced(seed: int, seconds: float):
    mix = specgen.generate(seed, _sizes(seconds))
    run = Run(mix, mix.phases, _expected(mix.all_specs()), seconds)
    setups = []
    for index in range(SETUPS):
        server = await run.setup(index)
        setups.append(run.setup_s)
        if index < SETUPS - 1:
            run.stop(server)
    try:
        await run.measure(server)
    finally:
        run.stop(server)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(max(run.rss), "MB"),
        "op.p10_ms": metric(run.phase1_p(OP_PERCENTILE), "ms"),
        "op.per_s": metric(run.closed_rps, "1/s"),
    }
    failed = run.count_failed()
    return failed == 0, len(run.outcomes), failed, metrics


async def _one(mix, phases, expected, seconds, spans_dir=None) -> Run:
    run = Run(mix, phases, expected, seconds, spans_dir)
    server = await run.setup(0)
    try:
        await run.measure(server)
    finally:
        run.stop(server)
    return run


def _serve_layers(run: Run, docs: List[dict]) -> Dict[str, float]:
    """Per-request serve stages of the open-loop phase, from spans joined
    with the client's outcomes by request trace id."""
    phase1 = {o.trace_id: o for o in run.open if o.ok}
    server = next(d for d in docs if d["role"] == "main")
    by_name = {}
    for span in server["spans"]:
        by_name.setdefault(span[spans.NAME], []).append(span)
    batches = sorted(by_name.get("store.serve.price_batch", []), key=lambda s: s[spans.START])
    batch_starts = [b[spans.START] for b in batches]
    engine = sorted(by_name.get("systolic.simulate_conv_batch", []), key=lambda s: s[spans.START])
    engine_starts = [s[spans.START] for s in engine]

    def price_s(batch) -> float:
        lo = bisect_right(engine_starts, batch[spans.START])
        hi = bisect_right(engine_starts, batch[spans.END])
        return sum(s[spans.END] - s[spans.START] for s in engine[lo:hi])

    def batch_at(t: float):
        i = bisect_right(batch_starts, t) - 1
        if i >= 0 and batches[i][spans.END] >= t:
            return batches[i]
        return None

    def per_task(name: str) -> Dict[str, float]:
        return {
            s[spans.TASK]: s[spans.END] - s[spans.START]
            for s in by_name.get(name, []) if s[spans.TASK] in phase1
        }

    parse, encode = per_task("store.serve.parse"), per_task("store.serve.encode")
    answered, waits = {}, []
    for trace_id, submitted, done in server["answers"]:
        if trace_id in phase1 and done is not None:
            batch = batch_at(done)
            answered[trace_id] = done - submitted
            waits.append(done - submitted - (price_s(batch) if batch else 0.0))
    window = [b for b in batches if run.open[0].due <= b[spans.START] <= run.open[-1].done]
    http, unattributed, round_trips = [], 0.0, 0.0
    for trace_id, outcome in phase1.items():
        if trace_id not in answered:
            continue
        rt = outcome.done - outcome.sent
        http.append(rt - answered[trace_id])
        round_trips += rt
        unattributed += (
            rt - (outcome.connect_s or 0.0) - parse.get(trace_id, 0.0)
            - answered[trace_id] - encode.get(trace_id, 0.0)
        )
    connects = [o.connect_s for o in run.open if o.connect_s is not None]
    ops = len(run.open) + len(run.closed)
    prom = {k: run.after["prom"].get(k, 0.0) - run.before["prom"].get(k, 0.0)
            for k in run.after["prom"]}

    def median_or_0(values, scale):
        return statistics.median(values) * scale if values else 0.0

    values = {
        "store.serve.parse_us": median_or_0(list(parse.values()), 1e6),
        "store.serve.queue_wait_ms": median_or_0(waits, 1e3),
        "store.serve.price_ms": median_or_0([price_s(b) for b in window], 1e3),
        "store.serve.batch_size": (
            statistics.fmean(b[spans.NOTE] for b in window) if window else 0.0
        ),
        "store.serve.encode_us": median_or_0(list(encode.values()), 1e6),
        "store.serve.http_ms": median_or_0(http, 1e3),
        "store.serve.connect_ms": median_or_0(connects, 1e3),
        "store.serve.dedup_collapses": prom.get("repro_serve_deduped_total", 0.0) / ops,
        "store.serve.shed": prom.get("repro_serve_shed_total", 0.0) / ops,
        "store.serve.gen_late_ms": percentile(run.lateness, 99) * 1e3,
        "trace.unattributed_share": unattributed / round_trips if round_trips else 0.0,
    }
    cache = {tier: run.after["cache"][tier] - run.before["cache"].get(tier, 0)
             for tier in run.after["cache"]}
    values.update(layers.cache_metrics(cache, ops))
    return values


async def _traced(seed: int, seconds: float):
    half = seconds / 2
    sizes = _sizes(half)
    mix = specgen.generate(seed, sizes + sizes)
    expected = _expected(mix.all_specs())
    plain = await _one(mix, mix.phases[:2], expected, half)
    spans_dir = fresh_dir("serve-spans")
    traced = await _one(mix, mix.phases[2:], expected, half, spans_dir)
    docs = spans.load(spans_dir)
    for doc in docs:  # only the measured phases: drop set-up and warm-up
        doc["spans"] = [s for s in doc["spans"] if s[spans.START] >= traced.started]
        doc["answers"] = [a for a in doc["answers"] if a[1] >= traced.started]
    ops = len(traced.open) + len(traced.closed)
    values = layers.layer_values(
        spans.Totals(docs), ops, [d["import_s"] for d in docs if d["role"] == "main"]
    )
    values.update(_serve_layers(traced, docs))
    values["trace.overhead"] = (
        traced.phase1_p(OP_PERCENTILE) / plain.phase1_p(OP_PERCENTILE)
    )
    values["serve.p50_ms"] = plain.phase1_p(50)
    values["serve.p99_ms"] = plain.phase1_p(99)
    for cls in ("hit", "store", "miss"):
        values[f"serve.{cls}.p50_ms"] = plain.phase1_p(50, cls)
    failed = plain.count_failed() + traced.count_failed()
    attempted = len(plain.outcomes) + len(traced.outcomes)
    return failed == 0, attempted, failed, layers.as_metrics(values)


def run(seed: int, seconds: float, trace: bool):
    return asyncio.run(_traced(seed, seconds) if trace else _untraced(seed, seconds))
