"""Simplified timed-property miner over event traces.

Two templates are mined, each over ordered pairs (P, S) of distinct known
ids (the OTHER slot is never a candidate). For a pair, write the trace
restricted to P and S events as a role string, each event as its role.
Events that are neither P nor S are ignored.

* response — every occurrence of P is answered by an S before any further
  P occurs: the role string has no ``PP`` and ends in ``S``. One unanswered
  or re-triggered P disqualifies the pair for the whole trace.
* alternating — the role string is the strict alternation P, S, P, S, ...,
  S: a response string that also starts with ``P`` and has no ``SS``.

The miner does not build role strings. It reads the trace's id column once
per P: S answers every P when S occurs in each segment that follows a P,
up to the next P or the end, so the response partners of P are the
intersection of those segments' id sets. A response pair alternates when S
occurs as often as P.

Mining reads no timestamp, so a trace is mined on its own clock and is never
rescaled. A trace without a time span (empty, or its first and last
timestamps equal; timestamps never decrease) has no timed instance, so its
report is empty. No time bound is checked: each instance's observed delay
interval is not mined yet.

``match_count`` counts P-to-S segments (the occurrences of P), while
instance identity for set comparisons is (template, P, S) alone: comparing
reports counts distinct surviving rules, not how often they fired.

A report file is the header ``tracekit-mine v2``, then one sorted
``template P S match_count`` line per instance. It names no trace, so the
same events mine to the same bytes whatever file they were read from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .core import Dictionary, EventId, Trace
from .errors import CorruptModel
from .ingest import check_format_line

_FORMAT_NAME = "tracekit-mine"
_FORMAT_VERSION = 2


class Template(enum.Enum):
    RESPONSE = "response"
    ALTERNATING = "alternating"


@dataclass(frozen=True)
class TREInstance:
    """One mined rule: a template instantiated with concrete P and S ids."""

    template: Template
    p: EventId
    s: EventId
    match_count: int

    def __post_init__(self) -> None:
        if self.p == self.s:
            raise ValueError("P and S must differ")
        if self.match_count < 1:
            raise ValueError("an instance needs at least one match")

    @property
    def key(self) -> tuple[str, EventId, EventId]:
        return (self.template.value, self.p, self.s)


@dataclass(frozen=True)
class MiningReport:
    instances: tuple[TREInstance, ...]

    def __post_init__(self) -> None:
        keys = [inst.key for inst in self.instances]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (template, P, S) instances in report")

    def keys(self) -> set[tuple[str, EventId, EventId]]:
        return {inst.key for inst in self.instances}

    def __len__(self) -> int:
        return len(self.instances)


def mine_trace(trace: Trace, dictionary: Dictionary) -> MiningReport:
    """Mine both templates over every ordered pair of distinct known ids.

    Instances come in (template, P index, S index) order: response first.
    """
    ids, times = trace.id_column, trace.time_column
    if not ids or times[0] == times[-1]:
        return MiningReport(instances=())
    positions: dict[EventId, list[int]] = {}
    for pos, eid in enumerate(ids):
        positions.setdefault(eid, []).append(pos)
    present = [eid for eid in dictionary.ids if eid in positions]
    response: list[TREInstance] = []
    alternating: list[TREInstance] = []
    for p in present:
        followers = _followers(ids, positions[p])
        count = len(positions[p])
        for s in present:
            if s not in followers:
                continue
            response.append(TREInstance(Template.RESPONSE, p, s, count))
            # Given response, each p is answered by at least one s, so
            # equal counts leave room for exactly one s after each p and
            # none before the first: the strict alternation.
            if len(positions[s]) == count:
                alternating.append(TREInstance(Template.ALTERNATING, p, s, count))
    return MiningReport(instances=tuple(response + alternating))


def _followers(ids: Sequence[EventId], marks: list[int]) -> set[EventId]:
    """The ids that occur in every segment after a position in ``marks``, up
    to the next one or the end of ``ids``: the ids that answer every P, when
    ``marks`` are the positions of P."""
    followers: set[EventId] = set()
    for start, stop in zip(marks, [*marks[1:], len(ids)]):
        segment = set(ids[start + 1 : stop])
        followers = segment if start == marks[0] else followers & segment
        if not followers:
            break
    return followers


def compare_reports(pairs: list[tuple[MiningReport, MiningReport]]) -> float:
    """Percent of original instances missing from the other report, pooled over pairs.

    Each pair is (original, other) and instances are keyed (template, P, S).
    With no original instance there is nothing to lose, so the result is 0.0.
    """
    total = kept = 0
    for original, other in pairs:
        keys = original.keys()
        total += len(keys)
        kept += len(keys & other.keys())
    return 100.0 * (total - kept) / total if total else 0.0


# ---------------------------------------------------------------------------
# report files


def report_to_text(report: MiningReport) -> str:
    lines = [f"{_FORMAT_NAME} v{_FORMAT_VERSION}"]
    body = sorted(
        f"{inst.template.value} {inst.p} {inst.s} {inst.match_count}"
        for inst in report.instances
    )
    return "\n".join(lines + body) + "\n"


def report_from_text(text: str) -> MiningReport:
    lines = text.splitlines()
    check_format_line(lines, _FORMAT_NAME, _FORMAT_VERSION)
    instances: list[TREInstance] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            template, p, s, count = line.split()
            instances.append(
                TREInstance(Template(template), EventId(p), EventId(s), int(count))
            )
        except ValueError as exc:
            raise CorruptModel(f"malformed report line {line!r}: {exc}") from exc
    try:
        return MiningReport(instances=tuple(instances))
    except ValueError as exc:
        raise CorruptModel(f"bad mining report: {exc}") from None
