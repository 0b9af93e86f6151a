"""Seeded request generator for the ``serve-mixed`` workload.

Specs are conv layers from the ``repro.workloads`` zoo (the seven CNN
tables) at a batch size from 1..32 (see :class:`_Stream`).  Every spec in
one run is distinct under the simulator's symmetry-folded memo key, so a
``store`` or ``miss`` request can never be answered by an earlier
request's entry.

Request classes and their shares of the traffic:

- ``hit`` (70%): a hot set of :data:`HOT_SET` specs the server computes
  during set-up; every later request for one is an in-memory memo hit.
- ``store`` (15%): specs a separate process wrote into the persistent
  store during set-up, each requested once, so each is a store read on
  the server's cold memo.
- ``miss`` (15%): fresh specs, each requested once; each is an engine
  miss plus a store write.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Tuple

from repro.perf.cache import canonical_spec, spec_key
from repro.workloads.networks import network, network_names

SHARES = (("hit", 0.70), ("store", 0.15), ("miss", 0.15))
HOT_SET = 32
MAX_BATCH = 32


@dataclasses.dataclass
class ServeMix:
    hot: List[object]
    #: Per phase, the request sequence as ``(class, spec)``.
    phases: List[List[Tuple[str, object]]]

    def all_specs(self) -> List[object]:
        return self.hot + [
            spec for phase in self.phases for cls, spec in phase if cls != "hit"
        ]


def _classes(rng: random.Random, count: int) -> List[str]:
    names = [name for name, _ in SHARES]
    weights = [share for _, share in SHARES]
    return rng.choices(names, weights=weights, k=count)


class _Stream:
    """Fresh specs with a composition that barely depends on the seed.

    Each round visits every distinct zoo layer once, in a seeded order,
    with batch sizes dealt from seeded shuffles of 1..MAX_BATCH.  So a
    class's specs cover the zoo evenly in every run, and their cost
    distribution, which the class's latency follows, is the same across
    seeds; the seed changes which layer meets which batch size, and when.
    """

    def __init__(self, rng: random.Random, zoo: List[object], seen: set) -> None:
        self.rng, self.zoo, self.seen = rng, zoo, seen
        self.layers: List[object] = []
        self.batches: List[int] = []

    def __call__(self):
        while True:
            if not self.layers:
                self.layers = self.rng.sample(self.zoo, len(self.zoo))
            if not self.batches:
                self.batches = self.rng.sample(range(1, MAX_BATCH + 1), MAX_BATCH)
            spec = dataclasses.replace(self.layers.pop(), n=self.batches.pop())
            key = spec_key(canonical_spec(spec)[0])
            if key not in self.seen:
                self.seen.add(key)
                return spec


def _zoo() -> List[object]:
    """Every canonically distinct conv layer of the network tables."""
    layers, keys = [], set()
    for name in network_names():
        for layer in network(name, 1):
            key = spec_key(canonical_spec(layer)[0])
            if key not in keys:
                keys.add(key)
                layers.append(layer)
    return layers


def generate(seed: int, phase_sizes: List[int]) -> ServeMix:
    """The specs and request sequences of one run, fixed by ``seed``."""
    rng = random.Random(seed)
    zoo = _zoo()
    seen: set = set()
    streams = {cls: _Stream(rng, zoo, seen) for cls in ("hit", "store", "miss")}
    hot = [streams["hit"]() for _ in range(HOT_SET)]
    phases = [
        [
            (cls, rng.choice(hot) if cls == "hit" else streams[cls]())
            for cls in _classes(rng, size)
        ]
        for size in phase_sizes
    ]
    return ServeMix(hot=hot, phases=phases)


def spec_doc(spec) -> Dict[str, object]:
    """The ``spec`` object of a ``POST /v1/conv`` body."""
    return dataclasses.asdict(spec)
