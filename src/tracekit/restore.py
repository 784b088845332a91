"""Loss injection, multi-step prediction and gap restoration.

A ``GappedTrace`` holds one slot per position of the original trace, as
two columns like a ``Trace``: an id column with the surviving event's id,
or ``None`` where the event was lost, and a timestamp column of the
surviving events only. ``gaps()`` derives the maximal runs of lost slots.

``fill_gaps`` is the one self-fed loop: it runs the model's ``walk`` over
the slots' ids with the lost slots scored, and writes each predicted id
into its slot before the walk reads it, so every prediction reads every id
before its slot, known or already predicted. The Markov model's walk calls
``predict_next`` per lost slot; the LSTM's walk steps every window in
flight in lockstep. ``predict_step_by_step`` is a fill of a seed followed
by lost slots. Restoration is one fill of a gapped trace's slots followed
by stamping: each filled event receives a timestamp linearly interpolated
between the known events that flank its gap, so a restored trace has the
original length and is directly minable. Both steps read and write
columns; no ``Event`` is built.

The restorer knows each gap's size by design: loss measurements compare
fixed-length traces, which presupposes knowing how much was lost.
Unknown-length gap inference is out of scope.

File form: ``GAPPED_HEADER``, then TraceFileFormat plus sentinel lines
``? <missing_count>``. Other headers are refused as in ``ingest``, and the
reader and writer use ``ingest``'s column helpers.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from array import array
from itertools import compress, groupby
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

from .core import Event, EventId, Trace, as_event_ids, as_timestamps, check_times
from .errors import DegenerateInput, InvalidFraction
from .ingest import event_lines, parse_columns, read_text

GAPPED_HEADER = "# tracekit-gapped v1"


class NextEventPredictor(Protocol):
    """Anything that predicts next ids along a sequence (both model families).

    ``walk(ids, scored)`` yields ``(q, predict_next(ids[:q]))`` for each
    position ``q`` with ``scored[q]``, in order, and reads ``ids[q]`` only
    after it has yielded ``q``. A caller may therefore write into ``ids[q]``
    between yields: ``fill_gaps`` writes each prediction there (self-fed),
    ``evaluate.next_event_accuracy`` leaves the true ids (teacher-forced).
    """

    def walk(
        self, ids: Sequence[EventId], scored: Sequence[bool]
    ) -> Iterator[tuple[int, EventId]]: ...


@dataclass(frozen=True)
class LossSpec:
    """How much to remove and in what shape.

    ``burst_length`` is the shape: the length of each lost run. Blocks of 1
    are uniformly scattered loss.
    """

    fraction: float
    burst_length: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise InvalidFraction(f"loss fraction must be in [0, 1), got {self.fraction}")
        if self.burst_length < 1:
            raise ValueError("burst_length must be >= 1")


@dataclass(frozen=True, init=False)
class GappedTrace:
    """A lossy trace held as two columns: ``id_column`` has one slot per
    original position, the surviving event's id or ``None`` where the event
    was lost; ``time_column`` has the surviving events' timestamps, in
    order, in an ``array('d')``. A lost slot costs one pointer, 8 bytes.

    At least one event survives, and the surviving timestamps obey a
    ``Trace``'s rules. ``GappedTrace(slots, label)`` builds the columns from
    ``Event``s and ``None``s; ``slots`` makes them again, one per call.
    """

    id_column: tuple[EventId | None, ...]
    time_column: array
    label: str

    def __init__(self, slots: Iterable[Event | None] = (), label: str = "") -> None:
        slots = tuple(slots)
        ids = [None if ev is None else ev.id for ev in slots]
        self._fill(ids, [ev.timestamp for ev in slots if ev is not None], label)

    @classmethod
    def from_columns(
        cls, ids: Iterable[EventId | str | None], times: Iterable[float], label: str = ""
    ) -> "GappedTrace":
        gapped = cls.__new__(cls)
        gapped._fill(ids, times, label)
        return gapped

    def _fill(
        self, ids: Iterable[EventId | str | None], times: Iterable[float], label: str
    ) -> None:
        ids = as_event_ids(ids, lost=True)
        times = as_timestamps(times)
        if not times:
            raise DegenerateInput("a gapped trace needs at least one surviving event")
        known = len(ids) - ids.count(None)
        if known != len(times):
            raise ValueError(f"{known} surviving ids for {len(times)} timestamps")
        check_times(times)
        object.__setattr__(self, "id_column", ids)
        object.__setattr__(self, "time_column", times)
        object.__setattr__(self, "label", label)

    @property
    def slots(self) -> tuple[Event | None, ...]:
        times = iter(self.time_column)
        return tuple(None if eid is None else Event(eid, next(times)) for eid in self.id_column)

    def known_trace(self) -> Trace:
        """The lossy trace as plainly observed (gaps simply absent)."""
        return Trace.from_columns(filter(None, self.id_column), self.time_column, label=self.label)

    def missing_total(self) -> int:
        return self.id_column.count(None)

    def gaps(self) -> list[tuple[int, int]]:
        """(start position, missing_count) of each maximal run of lost slots, in order."""
        out: list[tuple[int, int]] = []
        pos = 0
        for lost, run in groupby(self.id_column, key=lambda eid: eid is None):
            count = len(list(run))
            if lost:
                out.append((pos, count))
            pos += count
        return out


def inject_loss(trace: Trace, spec: LossSpec) -> GappedTrace:
    """Remove ``min(round(fraction * len), len - 1)`` events, deterministically by seed.

    At least one event always survives, so every fraction in [0, 1) gives a
    valid gapped trace, however short the trace.

    The budget is cut into blocks of ``burst_length`` (the last one
    truncated), and the k blocks are placed uniformly among the surviving
    events by choosing k of ``survivors + k`` places, so the budget is
    always met; adjacent blocks form one gap. Blocks of 1 are scattered
    loss: k of ``len`` places are chosen, uniformly random positions.
    """
    if len(trace) < 1:
        raise DegenerateInput("cannot inject loss into an empty trace")
    length = len(trace)
    budget = min(round(spec.fraction * length), length - 1)
    full, rest = divmod(budget, spec.burst_length)
    blocks = [spec.burst_length] * full + ([rest] if rest else [])
    places = length - budget + len(blocks)
    chosen = set(random.Random(spec.seed).sample(range(places), len(blocks)))
    sizes = iter(blocks)
    kept: list[bool] = []
    for place in range(places):
        kept.extend([False] * next(sizes) if place in chosen else [True])
    ids = [eid if keep else None for eid, keep in zip(trace.id_column, kept)]
    times = array("d", compress(trace.time_column, kept))
    return GappedTrace.from_columns(ids, times, label=trace.label)


# ---------------------------------------------------------------------------
# prediction and restoration


def fill_gaps(model: NextEventPredictor, slots: Sequence[EventId | None]) -> list[EventId]:
    """Replace every ``None`` in ``slots`` with ``model``'s next-event prediction.

    Slots are filled left to right by one ``model.walk`` over the lost
    slots. Each prediction reads every id before its slot, known or already
    predicted, so the model continues from its own outputs, and the known
    ids after a gap re-synchronize the context. A leading ``None`` reads the
    empty context. Known ids pass through.
    """
    ids = list(slots)
    for q, predicted in model.walk(ids, [slot is None for slot in slots]):
        ids[q] = predicted
    return ids


def predict_step_by_step(
    model: NextEventPredictor,
    seed_events: Sequence[EventId],
    horizon: int,
) -> list[EventId]:
    """Feed either model family its own outputs to predict ``horizon`` events.

    An empty seed rolls out from the empty context, like a leading gap.
    """
    return fill_gaps(model, [*seed_events, *[None] * horizon])[len(seed_events) :]


def _interpolate(before: float | None, after: float | None, j: int, count: int) -> float:
    if before is None:
        return after
    if after is None:
        return before
    return before + (j + 1) * (after - before) / (count + 1)


def restore_trace(model: NextEventPredictor, gapped: GappedTrace) -> Trace:
    """Fill every gap with one ``fill_gaps`` call, then stamp each filled event.

    Known events pass through untouched; output length equals the original
    pre-loss length. A leading gap with no context falls back to the model's
    global/prior most-frequent event (both families handle the empty
    context internally).
    """
    ids = fill_gaps(model, gapped.id_column)
    known = gapped.time_column
    times = array("d")
    done = 0  # known timestamps already copied: those before the gap
    for start, count in gapped.gaps():
        stop = start - (len(times) - done)  # known slots before the gap
        times += known[done:stop]
        done = stop
        before = known[done - 1] if done else None
        after = known[done] if done < len(known) else None
        times.extend(_interpolate(before, after, j, count) for j in range(count))
    times += known[done:]
    return Trace.from_columns(ids, times, label=gapped.label)


# ---------------------------------------------------------------------------
# gapped-trace file form


def serialize_gapped(gapped: GappedTrace) -> str:
    lines = [GAPPED_HEADER]
    known = event_lines(filter(None, gapped.id_column), gapped.time_column)
    done = lost = 0
    for start, count in gapped.gaps():
        lines += known[done : start - lost]
        lines.append(f"? {count}")
        done = start - lost
        lost += count
    lines += known[done:]
    return "\n".join(lines) + "\n"


def parse_gapped(text: str, label: str = "") -> GappedTrace:
    """Parse TraceFileFormat text with ``? <missing_count>`` sentinel lines.

    Errors name the first line that breaks a rule, as in ``ingest.parse_trace``.
    """
    return parse_columns(
        text, GAPPED_HEADER, True, lambda ids, times: GappedTrace.from_columns(ids, times, label)
    )


def write_gapped(gapped: GappedTrace, path: str | os.PathLike) -> None:
    Path(path).write_text(serialize_gapped(gapped), encoding="utf-8")


def read_gapped(path: str | os.PathLike) -> GappedTrace:
    """The gapped trace in a file, labelled by the file's stem."""
    p = Path(path)
    return parse_gapped(read_text(p), label=p.stem)
