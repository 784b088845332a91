"""Synthetic CAN-like trace generation.

Real bus traffic mixes periodic messages with event-triggered ones; this
generator reproduces that texture deterministically so every experiment in
the package is reproducible without proprietary vehicle recordings.

Schedule semantics:

* A periodic entry ``(id, period, jitter_fraction)`` emits at
  ``t_i = period * (i + u_i * jitter_fraction)`` with ``u_i`` uniform in
  [-1, 1]. Jitter perturbs each emission around its own nominal slot, so
  there is no accumulated drift and, because ``jitter_fraction < 0.5``,
  emissions of the same id never reorder.
* A triggered entry ``(id, trigger_id, probability, delay)`` flips a coin
  on every occurrence of ``trigger_id`` (periodic or itself triggered,
  chains are allowed) and on success emits ``id`` exactly ``delay`` later.
* A rare entry ``(id, rate_per_1000_events)`` splices events into uniformly
  random positions of the finished trace at the given rate.

Simultaneous timestamps are tie-broken by spec declaration order.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass

from .core import EventId, Trace
from .errors import InvalidSpec


@dataclass(frozen=True)
class PeriodicMessage:
    id: EventId
    period: float
    jitter_fraction: float = 0.0


@dataclass(frozen=True)
class TriggeredMessage:
    id: EventId
    trigger_id: EventId
    probability: float
    delay: float


@dataclass(frozen=True)
class RareMessage:
    id: EventId
    rate_per_1000_events: float


@dataclass(frozen=True)
class GeneratorSpec:
    periodic: tuple[PeriodicMessage, ...]
    triggered: tuple[TriggeredMessage, ...] = ()
    rare: tuple[RareMessage, ...] = ()
    duration: float = 1.0
    seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "periodic", tuple(self.periodic))
        object.__setattr__(self, "triggered", tuple(self.triggered))
        object.__setattr__(self, "rare", tuple(self.rare))
        self.validate()

    def validate(self) -> None:
        """Check every value; ``nan`` and infinities fail the range checks."""
        if not self.periodic:
            raise InvalidSpec("at least one periodic message is required")
        if not 0 < self.duration < math.inf:
            raise InvalidSpec("duration must be > 0 and finite")
        ids = [m.id for m in self.periodic] + [m.id for m in self.triggered] + [
            m.id for m in self.rare
        ]
        if len(set(ids)) != len(ids):
            raise InvalidSpec("message ids must be distinct across all entries")
        for m in self.periodic:
            if not 0 < m.period < math.inf:
                raise InvalidSpec(f"period of {m.id} must be > 0 and finite")
            if not 0 <= m.jitter_fraction < 0.5:
                raise InvalidSpec(f"jitter_fraction of {m.id} must be in [0, 0.5)")
        trigger_sources = {m.id for m in self.periodic} | {m.id for m in self.triggered}
        for m in self.triggered:
            if not 0 <= m.probability <= 1:
                raise InvalidSpec(f"probability of {m.id} must be in [0, 1]")
            if not 0 <= m.delay < math.inf:
                raise InvalidSpec(f"delay of {m.id} must be >= 0 and finite")
            if m.trigger_id not in trigger_sources:
                raise InvalidSpec(f"trigger id {m.trigger_id} of {m.id} is not emitted")
        for m in self.rare:
            if not 0 <= m.rate_per_1000_events < math.inf:
                raise InvalidSpec(f"rate of {m.id} must be >= 0 and finite")


def generate_trace(spec: GeneratorSpec) -> Trace:
    """Generate one trace; identical specs (including seed) yield identical traces."""
    rng = random.Random(spec.seed)

    # Declaration rank fixes the order of simultaneous events.
    rank: dict[EventId, int] = {}
    for m in list(spec.periodic) + list(spec.triggered) + list(spec.rare):
        rank[m.id] = len(rank)

    # Jitter draws happen per periodic entry in declaration order, then per
    # emission index, so the stream layout is stable under seed.
    emissions: list[tuple[float, int, EventId]] = []
    for m in spec.periodic:
        i = 0
        while True:
            nominal = m.period * i
            if nominal >= spec.duration:
                break
            if m.jitter_fraction > 0.0:
                u = rng.uniform(-1.0, 1.0)
                t = m.period * (i + u * m.jitter_fraction)
            else:
                t = nominal
            emissions.append((max(t, 0.0), rank[m.id], m.id))
            i += 1

    triggers: dict[EventId, list[TriggeredMessage]] = {}
    for m in spec.triggered:
        triggers.setdefault(m.trigger_id, []).append(m)

    # Event-queue simulation so triggered-on-triggered chains work. Coin
    # flips are consumed in pop order, which the heap makes deterministic.
    heap = list(emissions)
    heapq.heapify(heap)
    ids: list[EventId] = []
    times: list[float] = []
    while heap:
        t, r, eid = heapq.heappop(heap)
        ids.append(eid)
        times.append(t)
        for m in triggers.get(eid, ()):
            if m.probability >= 1.0 or rng.random() < m.probability:
                t_child = t + m.delay
                if t_child < spec.duration:
                    heapq.heappush(heap, (t_child, rank[m.id], m.id))

    for m in spec.rare:
        count = round(m.rate_per_1000_events * len(ids) / 1000.0)
        for _ in range(count):
            pos = rng.randrange(len(ids) + 1)
            left = times[pos - 1] if pos > 0 else None
            right = times[pos] if pos < len(times) else None
            if left is None:
                t = right if right is not None else 0.0
            elif right is None:
                t = left
            else:
                t = (left + right) / 2.0
            ids.insert(pos, m.id)
            times.insert(pos, t)

    return Trace(ids, times, label=spec.label)
