"""Domain types shared by every other module.

Events are identified by short hexadecimal message-id tokens, and every event
carries its timestamp. A trace is an ordered recording of such events. The
dictionary maps each id observed during training to a dense index and
reserves one trailing OTHER index that absorbs ids never seen during training
(and events named ``OTHER``), so encoded vectors have a fixed width of
``len(ids) + 1``.

numpy loads on first use, not at import: ``np`` here is a lazy module that
runs numpy's own import the first time an attribute of it is read. Each
``tracekit`` subcommand runs as its own process, and importing numpy is
most of the package's import time, yet only LSTM training, inference and
model I/O, ``encode_ids`` and the ``report`` rasters use it; the Markov and
trace paths never load it. If numpy is already in ``sys.modules``, ``np`` is
that module as it is, and a plain ``import numpy`` anywhere loads it at once.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from types import ModuleType
from typing import Iterable, Mapping, Sequence

from .errors import EmptyTrainingSet, IndexOutOfRange


def _lazy_import(name: str) -> ModuleType:
    """The module ``name``, imported on first attribute access if not yet loaded."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")

#: Reserved token returned when decoding the OTHER index.
OTHER_TOKEN = "OTHER"


class EventId(str):
    """A message identifier token, uppercase-normalized on construction.

    Subclasses ``str`` so ids hash, sort and compare like plain strings;
    ``EventId("b0") == "B0"`` holds.
    """

    __slots__ = ()

    def __new__(cls, raw: str) -> "EventId":
        token = str(raw).strip().upper()
        if not token:
            raise ValueError("event id must be a non-empty token")
        # split() breaks at exactly the characters str.isspace() accepts.
        if token.split() != [token]:
            raise ValueError(f"event id may not contain whitespace: {raw!r}")
        return super().__new__(cls, token)


@dataclass(frozen=True, slots=True)
class Event:
    """One bus message occurrence: an id plus its timestamp in seconds."""

    id: EventId
    timestamp: float

    def __post_init__(self) -> None:
        if not isinstance(self.id, EventId):
            object.__setattr__(self, "id", EventId(self.id))
        ts = float(self.timestamp)
        if not math.isfinite(ts) or ts < 0:
            raise ValueError(f"timestamp must be finite and >= 0, got {ts!r}")
        object.__setattr__(self, "timestamp", ts)


def check_time_order(events: Iterable[Event]) -> None:
    """Raise ``ValueError`` unless the events' timestamps are non-decreasing."""
    times = [ev.timestamp for ev in events]
    if times != sorted(times):  # no timestamp is NaN, so this is the order check
        raise ValueError("trace timestamps must be non-decreasing")


@dataclass(frozen=True)
class Trace:
    """An ordered sequence of events from one recording session.

    Timestamps must be non-decreasing; the restoration pipeline relies on
    that ordering.
    """

    events: tuple[Event, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        check_time_order(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def ids(self) -> list[EventId]:
        return [ev.id for ev in self.events]

    def timestamps(self) -> list[float]:
        return [ev.timestamp for ev in self.events]


@dataclass(frozen=True)
class Dictionary:
    """Bijection between observed ids and dense indices plus a reserved OTHER slot.

    ``ids[i]`` encodes to index ``i``; every id not in ``ids`` encodes to
    ``other_index``, which is always the last index.
    """

    ids: tuple[EventId, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(EventId(i) for i in self.ids))
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("dictionary ids contain duplicates")
        if OTHER_TOKEN in self.ids:
            raise ValueError(f"{OTHER_TOKEN} is the reserved slot, not a dictionary id")

    @property
    def other_index(self) -> int:
        return len(self.ids)

    @property
    def size(self) -> int:
        """Vocabulary size V = number of known ids + 1 for OTHER."""
        return len(self.ids) + 1

    @cached_property
    def _index(self) -> dict[EventId, int]:
        return {eid: i for i, eid in enumerate(self.ids)}

    def index_of(self, eid: EventId | str) -> int:
        """Dense index of ``eid``; unknown ids map to the OTHER index."""
        if not isinstance(eid, EventId):
            eid = EventId(eid)
        return self._index.get(eid, self.other_index)


def build_dictionary(traces: Sequence[Trace]) -> Dictionary:
    """Build a dictionary from training traces, indices in first-occurrence order.

    An event named ``OTHER_TOKEN`` is the OTHER slot, not a dictionary id, so
    it encodes, decodes and serializes as OTHER everywhere. Raises
    ``EmptyTrainingSet`` when no other events exist.
    """
    seen: dict[EventId, None] = {}
    for trace in traces:
        for ev in trace.events:
            seen.setdefault(ev.id, None)
    seen.pop(EventId(OTHER_TOKEN), None)
    if not seen:
        raise EmptyTrainingSet("no events in training traces besides OTHER")
    return Dictionary(tuple(seen))


def encode_ids(ids: Sequence[EventId | str], dictionary: Dictionary) -> np.ndarray:
    """One-hot encode a sequence of ids into an (L, V) matrix; unknown ids are OTHER."""
    mat = np.zeros((len(ids), dictionary.size), dtype=np.float64)
    for row, eid in enumerate(ids):
        mat[row, dictionary.index_of(eid)] = 1.0
    return mat


def decode_index(index: int, dictionary: Dictionary) -> EventId:
    """Inverse of ``encode_ids`` for one row's index: the id, OTHER at the last slot."""
    if not 0 <= index < dictionary.size:
        raise IndexOutOfRange(f"index {index} outside vocabulary of size {dictionary.size}")
    if index == dictionary.other_index:
        return EventId(OTHER_TOKEN)
    return dictionary.ids[index]


def pick_most_frequent(counts: Mapping[EventId, int], dictionary: Dictionary) -> EventId:
    """Argmax of a frequency table, ties broken by lowest dictionary index.

    Shared by the benchmark model's fallback and the network's prior fill so
    every tie in the package resolves the same way.
    """
    if not counts:
        raise ValueError("empty frequency table")
    return min(counts, key=lambda eid: (-counts[eid], dictionary.index_of(eid), eid))


def event_frequencies(traces: Iterable[Trace], dictionary: Dictionary) -> dict[EventId, int]:
    """Count id occurrences over a pool of traces, unknown ids pooled as OTHER."""
    freq: dict[EventId, int] = {}
    for trace in traces:
        for ev in trace.events:
            eid = decode_index(dictionary.index_of(ev.id), dictionary)
            freq[eid] = freq.get(eid, 0) + 1
    return freq
