"""Trace file parsing, serialization and train/test splitting.

File grammar (one event per line, UTF-8)::

    <timestamp> <id>

where ``timestamp`` is a decimal number of seconds and ``id`` a hex-style
token. Lines starting with ``#`` are comments, blank lines are skipped.
Timestamps must be non-decreasing; ids are uppercase-normalized. The
conventional file extension is ``.trace``.

Written files open with ``TRACE_HEADER``; text opening with another
``# tracekit-`` header is refused, headerless text is plain user input. The
gapped form in ``restore`` reuses the line and header helpers here.

Readers leave each rule on values to the type they build: ``EventId`` (one
uppercased token), ``Event`` (a finite timestamp >= 0), ``Dictionary`` (no
duplicate, no ``OTHER``), ``Trace`` and ``GappedTrace`` (time order, which
the line loop checks again after ``Event`` only to name the line).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .core import Event, EventId, Trace
from .errors import (
    CorruptModel,
    InsufficientTraces,
    MalformedLine,
    NonMonotonicTimestamp,
    TracekitError,
    VersionMismatch,
)

TRACE_HEADER = "# tracekit-trace v1"


def read_text(path: str | os.PathLike) -> str:
    """A file's UTF-8 text; other bytes raise an error that names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TracekitError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def check_header(text: str, header: str) -> None:
    """Refuse text whose first line is a ``# tracekit-`` header other than ``header``."""
    first = text.partition("\n")[0].strip()
    if first.startswith("# tracekit-") and first != header:
        raise VersionMismatch(f"expected `{header}`, found {first!r}")


def check_format_line(lines: Sequence[str], name: str, version: int) -> None:
    """Refuse a Markov model or mining report whose first line is not ``<name> v<version>``."""
    first = lines[0] if lines else ""
    header = first.split()
    if len(header) != 2 or header[0] != name:
        raise CorruptModel(f"bad header: {first!r}, expected `{name} v{version}`")
    if header[1] != f"v{version}":
        raise VersionMismatch(f"unsupported {name} version {header[1]!r}")


def content_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(1-based line number, raw line, tokens) of every non-blank, non-comment line."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, raw, line.split()


def parse_event_line(
    line_no: int, raw: str, parts: list[str], prev_ts: float | None, ids: dict[str, EventId]
) -> Event:
    """One ``<timestamp> <id>`` line whose ``Event`` may not step back before ``prev_ts``.

    ``ids`` maps each id token already read from the same text to its
    ``EventId``, so equal tokens share one object; a line with a new token
    adds it.
    """
    if len(parts) != 2:
        raise MalformedLine(line_no, raw, "expected `<timestamp> <id>`")
    ts_token, id_token = parts
    try:
        ts = float(ts_token)
    except ValueError:
        raise MalformedLine(line_no, raw, "timestamp is not a number") from None
    try:
        eid = ids.get(id_token)
        if eid is None:
            eid = ids[id_token] = EventId(id_token)
        ev = Event(eid, ts)
    except ValueError as exc:
        raise MalformedLine(line_no, raw, str(exc)) from None
    if prev_ts is not None and ts < prev_ts:
        raise NonMonotonicTimestamp(line_no)
    return ev


def parse_trace(text: str, label: str = "") -> Trace:
    """Parse TraceFileFormat text into a Trace.

    Raises ``MalformedLine`` / ``NonMonotonicTimestamp`` carrying the
    1-based line number, and ``VersionMismatch`` for another artifact's header.
    """
    check_header(text, TRACE_HEADER)
    events: list[Event] = []
    ids: dict[str, EventId] = {}
    for line_no, raw, parts in content_lines(text):
        prev_ts = events[-1].timestamp if events else None
        events.append(parse_event_line(line_no, raw, parts, prev_ts, ids))
    return Trace(tuple(events), label=label)


def format_event(ev: Event) -> str:
    return f"{ev.timestamp!r} {ev.id}"


def serialize_trace(trace: Trace) -> str:
    """Render a trace back into TraceFileFormat text, header first.

    ``parse_trace(serialize_trace(t), label=t.label) == t`` holds because
    ``repr(float)`` round-trips exactly.
    """
    lines = [TRACE_HEADER] + [format_event(ev) for ev in trace.events]
    return "\n".join(lines) + "\n"


def write_trace(trace: Trace, path: str | os.PathLike) -> None:
    Path(path).write_text(serialize_trace(trace), encoding="utf-8")


def read_trace(path: str | os.PathLike) -> Trace:
    """The trace in a file, labelled by the file's stem."""
    p = Path(path)
    return parse_trace(read_text(p), label=p.stem)


def read_pool(directory: str | os.PathLike) -> list[Trace]:
    """Every ``*.trace`` file of ``directory``, labelled by file stem, in label order."""
    paths = list(Path(directory).glob("*.trace"))
    if not paths:
        raise InsufficientTraces(f"no .trace files in {directory}")
    return _by_label(read_trace(p) for p in paths)


def _by_label(traces: Iterable[Trace]) -> list[Trace]:
    """The one order of a pool, however it was built or read."""
    return sorted(traces, key=lambda t: t.label)


@dataclass(frozen=True)
class SplitSpec:
    """How to partition a pool of traces into training and test sets."""

    train_count: int
    test_count: int
    shuffle_seed: int

    def __post_init__(self) -> None:
        if self.train_count < 2:
            raise ValueError("train_count must be >= 2 (training draws 2 traces per round)")
        if self.test_count < 0:
            raise ValueError("test_count must be >= 0")


def split_traces(traces: Sequence[Trace], spec: SplitSpec) -> tuple[list[Trace], list[Trace]]:
    """Deterministically shuffle by seed, then cut train/test pools.

    The two pools are disjoint; together they hold the first
    ``train_count + test_count`` traces of the shuffled order, each pool in
    label order like ``read_pool``.
    """
    needed = spec.train_count + spec.test_count
    if needed > len(traces):
        raise InsufficientTraces(
            f"need {needed} traces for split, have {len(traces)}"
        )
    order = list(range(len(traces)))
    random.Random(spec.shuffle_seed).shuffle(order)
    picked = [traces[i] for i in order[:needed]]
    return _by_label(picked[: spec.train_count]), _by_label(picked[spec.train_count :])

