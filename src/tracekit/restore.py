"""Loss injection, multi-step prediction and gap restoration.

A ``GappedTrace`` alternates runs of surviving events with gaps of known
size. Restoration walks the segments left to right: every gap is filled by
step-by-step prediction, where each freshly predicted event immediately
becomes context for the next one, and the following run of real events
re-synchronizes the context. Restored events receive timestamps linearly
interpolated between the flanking known events, so a restored trace has the
original length and is directly minable.

Gap sizes are known to the restorer by design: loss measurements compare
fixed-length traces, which presupposes knowing how much was lost.
Unknown-length gap inference is out of scope.

File form: ``GAPPED_HEADER``, then TraceFileFormat plus sentinel lines
``? <missing_count>``. Other headers are refused as in ``ingest``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence

from .core import Event, EventId, Trace
from .errors import DegenerateInput, InvalidFraction, MalformedLine
from .ingest import check_header, content_lines, format_event, parse_event_line

GAPPED_HEADER = "# tracekit-gapped v1"


class NextEventPredictor(Protocol):
    """Anything that maps an id context to the next id (both model families)."""

    def predict_next(self, context: Sequence[EventId]) -> EventId: ...


@dataclass(frozen=True)
class Run:
    events: tuple[Event, ...]


@dataclass(frozen=True)
class Gap:
    missing_count: int

    def __post_init__(self) -> None:
        if self.missing_count < 1:
            raise ValueError("a gap must be missing at least one event")


@dataclass(frozen=True)
class LossSpec:
    """How much to remove and in what shape."""

    fraction: float
    mode: str = "scattered"  # or "burst"
    burst_length: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise InvalidFraction(f"loss fraction must be in [0, 1), got {self.fraction}")
        if self.mode not in ("scattered", "burst"):
            raise ValueError(f"unknown loss mode {self.mode!r}")
        if self.burst_length < 1:
            raise ValueError("burst_length must be >= 1")


@dataclass(frozen=True)
class GappedTrace:
    """Alternating known-event runs and fixed-size gaps."""

    segments: tuple[Run | Gap, ...]
    label: str = ""
    provenance: LossSpec | None = None

    def __post_init__(self) -> None:
        prev_kind = None
        for seg in self.segments:
            kind = type(seg)
            if kind is prev_kind:
                raise ValueError("segments must alternate runs and gaps")
            prev_kind = kind

    def known_events(self) -> list[Event]:
        out: list[Event] = []
        for seg in self.segments:
            if isinstance(seg, Run):
                out.extend(seg.events)
        return out

    def known_trace(self) -> Trace:
        """The lossy trace as plainly observed (gaps simply absent)."""
        return Trace(tuple(self.known_events()), label=self.label)

    def missing_total(self) -> int:
        return sum(seg.missing_count for seg in self.segments if isinstance(seg, Gap))

    def original_length(self) -> int:
        return len(self.known_events()) + self.missing_total()

    def gaps(self) -> list[tuple[int, int]]:
        """(position in the original sequence, missing_count) per gap, in order."""
        out: list[tuple[int, int]] = []
        pos = 0
        for seg in self.segments:
            if isinstance(seg, Run):
                pos += len(seg.events)
            else:
                out.append((pos, seg.missing_count))
                pos += seg.missing_count
        return out


def gapped_from_flags(events: Sequence[Event], missing: Sequence[bool], label: str = "",
                      provenance: LossSpec | None = None) -> GappedTrace:
    """Build a GappedTrace from the original events and a per-event missing flag."""
    segments: list[Run | Gap] = []
    run: list[Event] = []
    gap_len = 0
    for ev, lost in zip(events, missing):
        if lost:
            if run:
                segments.append(Run(tuple(run)))
                run = []
            gap_len += 1
        else:
            if gap_len:
                segments.append(Gap(gap_len))
                gap_len = 0
            run.append(ev)
    if run:
        segments.append(Run(tuple(run)))
    if gap_len:
        segments.append(Gap(gap_len))
    return GappedTrace(tuple(segments), label=label, provenance=provenance)


def inject_loss(trace: Trace, spec: LossSpec) -> GappedTrace:
    """Remove exactly ``round(fraction * len)`` events, deterministically by seed.

    Scattered mode removes uniformly random positions; burst mode removes
    contiguous runs of ``burst_length`` (the last burst truncated to fit the
    budget).
    """
    if len(trace) < 1:
        raise DegenerateInput("cannot inject loss into an empty trace")
    length = len(trace)
    budget = round(spec.fraction * length)
    missing = [False] * length
    rng = random.Random(spec.seed)
    if budget > 0 and spec.mode == "scattered":
        for pos in rng.sample(range(length), budget):
            missing[pos] = True
    elif budget > 0:
        remaining = budget
        attempts = 0
        while remaining > 0:
            size = min(spec.burst_length, remaining)
            start = rng.randrange(length - size + 1)
            attempts += 1
            if any(missing[start : start + size]):
                if attempts > 50 * length:
                    # Dense traces: fall back to the first free slot scan.
                    start = next(
                        (
                            s
                            for s in range(length - size + 1)
                            if not any(missing[s : s + size])
                        ),
                        None,
                    )
                    if start is None:
                        break
                else:
                    continue
            for i in range(start, start + size):
                missing[i] = True
            remaining -= size
    return gapped_from_flags(trace.events, missing, label=trace.label, provenance=spec)


# ---------------------------------------------------------------------------
# prediction


def predict_step_by_step(
    model: NextEventPredictor,
    seed_events: Sequence[EventId],
    horizon: int,
) -> list[EventId]:
    """Feed either model family its own outputs to predict ``horizon`` events.

    An empty seed rolls out from the empty context, like a leading gap.
    """
    context = list(seed_events)
    out: list[EventId] = []
    for _ in range(horizon):
        nxt = model.predict_next(context)
        out.append(nxt)
        context.append(nxt)
    return out


# ---------------------------------------------------------------------------
# restoration


def _interpolate(before: float | None, after: float | None, j: int, count: int) -> float | None:
    if before is None and after is None:
        return None
    if before is None:
        return after
    if after is None:
        return before
    return before + (j + 1) * (after - before) / (count + 1)


def fill_gaps(
    gapped: GappedTrace,
    predict: Callable[[Sequence[EventId]], EventId],
) -> Trace:
    """Generic chronological gap filling shared by both model families.

    ``predict`` receives the full restored-so-far id context (possibly
    empty, for a leading gap) and returns the next id.
    """
    restored: list[Event] = []
    context: list[EventId] = []
    segments = gapped.segments
    for s, seg in enumerate(segments):
        if isinstance(seg, Run):
            restored.extend(seg.events)
            context.extend(ev.id for ev in seg.events)
            continue
        before = restored[-1].timestamp if restored else None
        after = None
        for later in segments[s + 1 :]:
            if isinstance(later, Run) and later.events:
                after = later.events[0].timestamp
                break
        for j in range(seg.missing_count):
            nxt = predict(context)
            ts = _interpolate(before, after, j, seg.missing_count)
            restored.append(Event(nxt, ts))
            context.append(nxt)
    return Trace(tuple(restored), label=gapped.label)


def restore_trace(model: NextEventPredictor, gapped: GappedTrace) -> Trace:
    """Fill every gap with step-by-step prediction from either model family.

    Known events pass through untouched; output length equals the original
    pre-loss length. A leading gap with no context falls back to the model's
    global/prior most-frequent event (both families handle the empty
    context internally).
    """
    return fill_gaps(gapped, model.predict_next)


# ---------------------------------------------------------------------------
# gapped-trace file form


def serialize_gapped(gapped: GappedTrace) -> str:
    lines = [GAPPED_HEADER]
    for seg in gapped.segments:
        if isinstance(seg, Gap):
            lines.append(f"? {seg.missing_count}")
        else:
            lines.extend(format_event(ev) for ev in seg.events)
    return "\n".join(lines) + "\n"


def parse_gapped(text: str, label: str = "") -> GappedTrace:
    """Parse TraceFileFormat text with ``? <missing_count>`` sentinel lines."""
    check_header(text, GAPPED_HEADER)
    segments: list[Run | Gap] = []
    run: list[Event] = []
    prev_ts: float | None = None

    def flush_run() -> None:
        nonlocal run
        if run:
            segments.append(Run(tuple(run)))
            run = []

    for line_no, raw, parts in content_lines(text):
        if parts[0] == "?":
            if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
                raise MalformedLine(line_no, raw, "expected `? <missing_count>`")
            flush_run()
            if segments and isinstance(segments[-1], Gap):
                segments[-1] = Gap(segments[-1].missing_count + int(parts[1]))
            else:
                segments.append(Gap(int(parts[1])))
            continue
        ev = parse_event_line(line_no, raw, parts, prev_ts)
        prev_ts = ev.timestamp
        run.append(ev)
    flush_run()
    return GappedTrace(tuple(segments), label=label)


def write_gapped(gapped: GappedTrace, path: str | os.PathLike) -> None:
    Path(path).write_text(serialize_gapped(gapped), encoding="utf-8")


def read_gapped(path: str | os.PathLike) -> GappedTrace:
    """The gapped trace in a file, labelled by the file's stem."""
    p = Path(path)
    return parse_gapped(p.read_text(encoding="utf-8"), label=p.stem)
