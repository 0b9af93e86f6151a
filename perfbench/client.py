"""A small HTTP/1.1 load client for ``repro serve``.

It holds at most ``slots`` connections and so at most ``slots`` requests
in flight.  Connections are persistent unless the server answers
``Connection: close``, so the client takes keep-alive whenever the server
offers it.  Each request carries a ``traceparent`` header whose trace id
the server echoes into its spans, which lets a traced run join the
client's round trip with the server's view of the same request.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
from time import perf_counter
from typing import List, Optional, Tuple


@dataclasses.dataclass
class Outcome:
    cls: str
    trace_id: str
    due: float
    sent: float
    done: float
    status: int
    body: Optional[dict]
    connect_s: Optional[float]  # None when the request reused a connection
    expected: object = None
    error: str = ""

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        """Answered 200 with the cycles the in-process simulator computed."""
        return self.status == 200 and self.body.get("cycles") == self.expected


class _Slot:
    def __init__(self) -> None:
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


class Client:
    def __init__(self, host: str, port: int, slots: int) -> None:
        self.host = host
        self.port = port
        self.free: asyncio.Queue = asyncio.Queue()
        self.all_slots = [_Slot() for _ in range(slots)]
        for slot in self.all_slots:
            self.free.put_nowait(slot)

    async def close(self) -> None:
        for slot in self.all_slots:
            writer = slot.writer
            slot.close()
            if writer is not None:
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _exchange(self, slot: _Slot, head: bytes, body: bytes) -> Tuple[int, dict, bool]:
        slot.writer.write(head + body)
        await slot.writer.drain()
        status_line = await slot.reader.readline()
        if not status_line:
            raise ConnectionError("connection closed before a response")
        status = int(status_line.split()[1])
        length, close = 0, False
        while True:
            line = await slot.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value == "close":
                close = True
        data = await slot.reader.readexactly(length)
        return status, json.loads(data), close

    async def post(self, cls: str, payload: dict, expected, due: float) -> Outcome:
        """POST one query to ``/v1/conv``; latency runs from ``due``."""
        trace_id = os.urandom(16).hex()
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"POST /v1/conv HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"traceparent: 00-{trace_id}-{os.urandom(8).hex()}-01\r\n\r\n"
        ).encode("ascii")
        slot = await self.free.get()
        sent = perf_counter()
        connect_s = None
        try:
            for attempt in (0, 1):
                reused = slot.writer is not None
                if not reused:
                    started = perf_counter()
                    slot.reader, slot.writer = await asyncio.open_connection(
                        self.host, self.port
                    )
                    connect_s = perf_counter() - started
                try:
                    status, doc, close = await self._exchange(slot, head, body)
                    break
                except (ConnectionError, asyncio.IncompleteReadError, OSError):
                    slot.close()
                    if not reused or attempt:
                        raise  # a fresh connection failed: report it
            if close:
                slot.close()
            return Outcome(cls, trace_id, due, sent, perf_counter(), status, doc,
                           connect_s, expected)
        except (ConnectionError, asyncio.IncompleteReadError, OSError, ValueError) as err:
            slot.close()
            return Outcome(cls, trace_id, due, sent, perf_counter(), 0, None,
                           connect_s, expected, f"{type(err).__name__}: {err}")
        finally:
            self.free.put_nowait(slot)


async def open_loop(
    client: Client, requests: List[tuple], rate: float
) -> Tuple[List[Outcome], List[float]]:
    """Send ``(class, payload, expected)`` requests at a fixed ``rate``.

    Returns the outcomes and, per request, how late the generator issued
    it (seconds past its due time).
    """
    start = perf_counter() + 0.05
    tasks, lateness = [], []
    for index, (cls, payload, expected) in enumerate(requests):
        due = start + index / rate
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(perf_counter() - due)
        tasks.append(asyncio.create_task(client.post(cls, payload, expected, due)))
    return list(await asyncio.gather(*tasks)), lateness


async def closed_loop(
    client: Client, requests: List[tuple], clients: int, seconds: float
) -> Tuple[List[Outcome], float]:
    """``clients`` callers send back to back until ``seconds`` pass.

    Returns the outcomes and the elapsed seconds.  The run also ends if
    the request sequence runs out.
    """
    queue = iter(requests)
    outcomes: List[Outcome] = []
    started = perf_counter()
    deadline = started + seconds

    async def caller() -> None:
        while perf_counter() < deadline:
            item = next(queue, None)
            if item is None:
                return
            outcomes.append(await client.post(*item, perf_counter()))

    await asyncio.gather(*(caller() for _ in range(clients)))
    return outcomes, perf_counter() - started
