"""Domain types shared by every other module.

Events are identified by short hexadecimal message-id tokens, and every event
carries its timestamp. A trace is an ordered recording of such events, held
as an id column and a timestamp column (``Trace``). The rules on timestamps
(finite, >= 0, never decreasing) are written once, in ``check_times``. The
dictionary maps each id observed during training to a dense index and
reserves one trailing OTHER index that absorbs ids never seen during
training (and events named ``OTHER``), so encoded vectors have a fixed
width of ``len(ids) + 1``.

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
import itertools
import math
import operator
import sys
from array import array
from collections import Counter
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


class TimestampError(ValueError):
    """A timestamp breaks a rule of ``check_times`` at position ``index``.

    ``step_back`` tells the two rules apart: the value is below the one
    before it, or else it is not finite and >= 0.
    """

    def __init__(self, message: str, index: int, step_back: bool):
        super().__init__(message)
        self.index = index
        self.step_back = step_back


def check_times(times: Sequence[float]) -> None:
    """Raise ``TimestampError`` unless every timestamp is finite and >= 0
    and none is below the one before it.

    The first position that breaks a rule is reported, as a check of one
    timestamp after another would find it; a value that is not finite and
    >= 0 is reported before a step back to it. The column is read in place.
    """
    # A finite sum rules out nan and infinities; only then is min() exact.
    if math.isfinite(sum(times)) and min(times, default=0.0) >= 0.0:
        bad = len(times)
    else:  # a sum that overflowed finds nothing here
        bad = next((i for i, ts in enumerate(times) if not 0.0 <= ts < math.inf), len(times))
    if not all(map(operator.le, times, itertools.islice(times, 1, bad))):
        step = next(i for i in range(1, bad) if times[i] < times[i - 1])
        raise TimestampError("trace timestamps must be non-decreasing", step, True)
    if bad < len(times):
        raise TimestampError(f"timestamp must be finite and >= 0, got {times[bad]!r}", bad, False)


def as_timestamps(times: Iterable[float]) -> array:
    """``times`` as an ``array('d')``; one that is already is kept, not copied."""
    return times if isinstance(times, array) and times.typecode == "d" else array("d", times)


_ID_TYPES = frozenset({EventId})
_SLOT_TYPES = frozenset({EventId, type(None)})


def as_event_ids(items: Iterable[EventId | str | None], lost: bool = False) -> tuple:
    """``items`` as a tuple of ``EventId``s, constructing one only for an
    item that is not an ``EventId`` yet; with ``lost``, ``None`` (a lost
    slot) stays ``None``."""
    column = tuple(items)
    if set(map(type, column)) <= (_SLOT_TYPES if lost else _ID_TYPES):
        return column
    return tuple(eid if type(eid) is EventId or (lost and eid is None) else EventId(eid)
                 for eid in column)


@dataclass(frozen=True)
class Trace:
    """An ordered recording of one session on the bus, held as two parallel columns.

    ``id_column[i]`` is event i's id and ``time_column[i]`` its timestamp in
    seconds, a float in an ``array('d')`` (8 bytes per event). Equal ids may
    share one ``EventId`` object, as the readers make them. Timestamps are
    finite, >= 0 and non-decreasing (``check_times``); the restoration
    pipeline relies on that ordering. The columns are not to be mutated.

    ``Trace(ids, times, label)`` takes any iterables: ids become a tuple of
    ``EventId``s and timestamps an ``array('d')``, and neither is copied
    when it already is one.
    """

    id_column: tuple[EventId, ...]
    time_column: array
    label: str = ""

    def __post_init__(self) -> None:
        ids = as_event_ids(self.id_column)
        times = as_timestamps(self.time_column)
        if len(ids) != len(times):
            raise ValueError(f"{len(ids)} ids for {len(times)} timestamps")
        check_times(times)
        object.__setattr__(self, "id_column", ids)
        object.__setattr__(self, "time_column", times)

    def __len__(self) -> int:
        return len(self.id_column)


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

    @cached_property
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
    seen = dict.fromkeys(itertools.chain.from_iterable(t.id_column for t in traces))
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
        for raw, count in Counter(trace.id_column).items():
            eid = decode_index(dictionary.index_of(raw), dictionary)
            freq[eid] = freq.get(eid, 0) + count
    return freq
