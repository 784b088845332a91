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

A reader works on columns, not on one line at a time (``read_columns``).
It splits a block of lines at a time into token rows, converts the
timestamps of a block with one ``map(float, ...)`` into an ``array('d')``
and builds one ``EventId`` per distinct id token, then hands the id and
timestamp columns to the trace type it builds. Each rule on values is left
to its type: ``EventId`` (one uppercased token), ``Dictionary`` (no
duplicate, no ``OTHER``), ``Trace`` and ``GappedTrace``
(``core.check_times``: finite, >= 0, never decreasing, checked once over
the column). Only when a rule is broken is the line found again, so that
the error names the first line that breaks one, with the reason a reading
of one line after another would give. The writers format straight from
the columns.
"""

from __future__ import annotations

import os
import random
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .core import EventId, TimestampError, Trace
from .errors import (
    CorruptModel,
    DegenerateInput,
    InsufficientTraces,
    MalformedLine,
    NonMonotonicTimestamp,
    TracekitError,
    VersionMismatch,
)

TRACE_HEADER = "# tracekit-trace v1"

T = TypeVar("T")


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


#: About this many characters of text are split into rows at a time, so the
#: token strings of one block, not of the whole text, are alive at once.
BLOCK_CHARS = 1 << 14


def text_blocks(text: str) -> Iterator[list[str]]:
    """The lines of ``text`` as ``str.splitlines`` cuts them, one block of
    about ``BLOCK_CHARS`` characters at a time; a block ends after a newline."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + BLOCK_CHARS) + 1 or len(text)
        yield text[start:stop].splitlines()
        start = stop


def content_rows(lines: Iterable[str]) -> list[list[str]]:
    """The tokens of every non-blank, non-comment line, in order."""
    return [parts for parts in map(str.split, lines) if parts and parts[0][0] != "#"]


def content_line(text: str, row: int) -> tuple[int, str]:
    """1-based number and raw text of the ``row``-th content line of ``text``."""
    lines = text.splitlines()
    numbers = [line_no for line_no, raw in enumerate(lines, start=1) if content_rows([raw])]
    return numbers[row], lines[numbers[row] - 1]


def event_row(sentinels: Sequence[int], event: int) -> int:
    """The row of the ``event``-th event row, when the rows in ``sentinels``
    (in order) are ``? n`` rows."""
    row = event
    for sentinel in sentinels:
        if sentinel > row:
            break
        row += 1
    return row


def _event_columns(
    rows: Sequence[list[str]], known: dict[str, EventId]
) -> tuple[list[EventId], array, int, str]:
    """The id and timestamp columns of ``<timestamp> <id>`` rows, read up
    to the first row whose text breaks a rule.

    Returns the columns of the rows before that row, its index
    (``len(rows)`` if every row reads) and the reason. A row breaks a rule
    if it has not two tokens, if its timestamp is not a number or if its id
    is not an ``EventId``; those rules go in that order, so the reason is
    the first one its row breaks. ``known`` maps each id token already read
    to its ``EventId`` and gains the new ones.
    """
    cut, reason = len(rows), ""
    if rows and set(map(len, rows)) != {2}:
        cut = next(i for i, parts in enumerate(rows) if len(parts) != 2)
        reason = "expected `<timestamp> <id>`"
    stamps, tokens = list(zip(*rows[:cut])) or ((), ())
    try:
        times = array("d", map(float, stamps))
    except ValueError:
        times = array("d")
        for stamp in stamps:
            try:
                times.append(float(stamp))
            except ValueError:
                break
        cut, reason = len(times), "timestamp is not a number"
    new = [token for token in dict.fromkeys(tokens[:cut]) if token not in known]
    for token in new:
        try:
            known[token] = EventId(token)
        except ValueError as exc:
            cut, reason = tokens.index(token), str(exc)
            break
    del times[cut:]
    return list(map(known.__getitem__, tokens[:cut])), times, cut, reason


def _is_missing_count(token: str) -> bool:
    """Whether ``token`` is a count of lost slots: decimal digits for an
    ``int`` from 1 to ``sys.maxsize``, the largest index-sized integer."""
    try:
        return token.isdecimal() and 1 <= int(token) <= sys.maxsize
    except ValueError:  # more digits than ``int`` converts
        return False


def read_columns(
    text: str, gapped: bool
) -> tuple[list[EventId | None], array, list[int], tuple[int, str] | None]:
    """The id and timestamp columns of the content rows of ``text``, read
    up to the first row whose text breaks a rule.

    With ``gapped``, a ``? <missing_count>`` row adds that many ``None`` ids
    (lost slots) and no timestamp. Returns the ids, the timestamps (of the
    events only), the rows of the ``? n`` lines read, and the first row
    that breaks a rule with the reason, or ``None``. Timestamps are only
    converted: the trace types check their values. Equal id tokens share
    one ``EventId``.
    """
    ids: list[EventId | None] = []
    times = array("d")
    known: dict[str, EventId] = {}
    sentinels: list[int] = []
    first = 0  # row index of the block's first row
    for lines in text_blocks(text):
        rows = content_rows(lines)
        marks = [row for row, parts in enumerate(rows) if parts[0] == "?"] if gapped else []
        cut, reason = len(rows), ""
        for k, row in enumerate(marks):
            parts = rows[row]
            if len(parts) != 2 or not _is_missing_count(parts[1]):
                cut, reason = row, "expected `? <missing_count>`"
                del marks[k:]
                break
        events = [parts for parts in rows[:cut] if parts[0] != "?"] if marks else rows[:cut]
        event_ids, event_times, read, event_reason = _event_columns(events, known)
        if read < len(events):
            cut, reason = event_row(marks, read), event_reason
        done = 0  # events placed
        for k, row in enumerate(marks):
            if row > cut:
                break
            ids += event_ids[done : row - k]
            done = row - k
            ids += [None] * int(rows[row][1])
            sentinels.append(first + row)
        ids += event_ids[done:]
        times += event_times
        if cut < len(rows):
            return ids, times, sentinels, (first + cut, reason)
        first += len(rows)
    return ids, times, sentinels, None


def parse_columns(text: str, header: str, gapped: bool, build: Callable[[list, array], T]) -> T:
    """``build`` of the columns ``read_columns`` reads from ``text``.

    Raises ``VersionMismatch`` for another artifact's header, and
    ``MalformedLine`` / ``NonMonotonicTimestamp`` with the 1-based number of
    the first line that breaks a rule: a rule on its text, or one of
    ``core.check_times`` that ``build`` checks.
    """
    check_header(text, header)
    ids, times, sentinels, fault = read_columns(text, gapped)
    try:
        built = build(ids, times)
    except TimestampError as exc:
        line_no, raw = content_line(text, event_row(sentinels, exc.index))
        if exc.step_back:
            raise NonMonotonicTimestamp(line_no) from None
        raise MalformedLine(line_no, raw, str(exc)) from None
    except DegenerateInput:
        if fault is None:
            raise
    if fault is not None:
        raise MalformedLine(*content_line(text, fault[0]), fault[1])
    return built


def parse_trace(text: str, label: str = "") -> Trace:
    """Parse TraceFileFormat text into a Trace.

    Raises ``MalformedLine`` / ``NonMonotonicTimestamp`` carrying the
    1-based line number, and ``VersionMismatch`` for another artifact's header.
    """
    return parse_columns(
        text, TRACE_HEADER, False, lambda ids, times: Trace(ids, times, label)
    )


def event_lines(ids: Iterable[EventId], times: Iterable[float]) -> list[str]:
    """One ``<timestamp> <id>`` line per event; ``repr(float)`` round-trips exactly."""
    return [f"{ts!r} {eid}" for eid, ts in zip(ids, times)]


def serialize_trace(trace: Trace) -> str:
    """Render a trace back into TraceFileFormat text, header first.

    ``parse_trace(serialize_trace(t), label=t.label) == t`` holds because
    ``repr(float)`` round-trips exactly.
    """
    lines = [TRACE_HEADER, *event_lines(trace.id_column, trace.time_column)]
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

