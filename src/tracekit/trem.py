"""Simplified timed-property miner over event traces.

Two templates are mined, each over ordered pairs (P, S) of distinct known
ids (the OTHER slot is never a candidate):

* response — every occurrence of P is answered by an S before any further
  P occurs. One unanswered or re-triggered P disqualifies the pair for the
  whole trace.
* alternating — restricting the trace to P and S events yields the strict
  alternation P, S, P, S, ..., S (P first, S last); events that are neither
  P nor S are ignored.

Timestamps are standardized to exactly [0, 1000] before mining. The time
bound of both templates is that same full span, so it excludes no pair and
is not checked: every P-to-S delay of a standardized trace lies within it.
The bound only gains meaning once each instance's observed delay interval
is mined and compared.

``match_count`` counts P-to-S segments, while instance identity for set
comparisons is (template, P, S) alone: comparing reports counts distinct
surviving rules, not how often they fired.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

from .core import Dictionary, Event, EventId, Trace
from .errors import CorruptModel, DegenerateTimeSpan, EmptyOriginal, VersionMismatch

TIME_SPAN = 1000.0

_FORMAT_NAME = "tracekit-mine"
_FORMAT_VERSION = 1


class Template(enum.Enum):
    RESPONSE = "response"
    ALTERNATING = "alternating"

    @property
    def rank(self) -> int:
        return 0 if self is Template.RESPONSE else 1


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
    trace_label: str = ""

    def __post_init__(self) -> None:
        keys = [inst.key for inst in self.instances]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (template, P, S) instances in report")

    def keys(self) -> set[tuple[str, EventId, EventId]]:
        return {inst.key for inst in self.instances}

    def __len__(self) -> int:
        return len(self.instances)


def standardize_time(trace: Trace) -> Trace:
    """Affinely map timestamps so the trace spans exactly [0, 1000].

    Dividing by the span before scaling maps the last event to 1000 exactly;
    scaling by ``1000 / span`` first can overshoot it by an ulp.
    """
    times = trace.timestamps()
    if not times:
        raise DegenerateTimeSpan("empty trace has no time span")
    lo, hi = min(times), max(times)
    if hi == lo:
        raise DegenerateTimeSpan("all timestamps are equal")
    span = hi - lo
    events = tuple(Event(ev.id, (ev.timestamp - lo) / span * TIME_SPAN) for ev in trace.events)
    return Trace(events, label=trace.label)


def _occurrences(trace: Trace, dictionary: Dictionary) -> dict[EventId, list[int]]:
    """Positions of every known id in the trace."""
    occ: dict[EventId, list[int]] = {}
    known = set(dictionary.ids)
    for pos, ev in enumerate(trace.events):
        if ev.id in known:
            occ.setdefault(ev.id, []).append(pos)
    return occ


def mine_response(trace: Trace, dictionary: Dictionary) -> set[TREInstance]:
    """All response instances of a standardized trace."""
    occ = _occurrences(trace, dictionary)
    instances: set[TREInstance] = set()
    for p_id, p_positions in occ.items():
        for s_id, s_positions in occ.items():
            if p_id == s_id:
                continue
            count = 0
            ok = True
            for idx, p_pos in enumerate(p_positions):
                next_p = p_positions[idx + 1] if idx + 1 < len(p_positions) else None
                j = bisect_right(s_positions, p_pos)
                if j == len(s_positions):
                    ok = False
                    break
                if next_p is not None and s_positions[j] > next_p:
                    ok = False
                    break
                count += 1
            if ok and count:
                instances.add(TREInstance(Template.RESPONSE, p_id, s_id, count))
    return instances


def mine_alternating(trace: Trace, dictionary: Dictionary) -> set[TREInstance]:
    """All alternating instances of a standardized trace."""
    occ = _occurrences(trace, dictionary)
    instances: set[TREInstance] = set()
    ids = [eid for eid in dictionary.ids if eid in occ]
    for p_id in ids:
        for s_id in ids:
            if p_id == s_id:
                continue
            roles = [role for _, role in sorted(
                [(pos, 0) for pos in occ[p_id]] + [(pos, 1) for pos in occ[s_id]]
            )]
            if len(roles) < 2 or len(roles) % 2 != 0:
                continue
            if any(role != i % 2 for i, role in enumerate(roles)):
                continue
            instances.add(TREInstance(Template.ALTERNATING, p_id, s_id, len(roles) // 2))
    return instances


def mine_trace(trace: Trace, dictionary: Dictionary) -> MiningReport:
    """Standardize the trace and mine both templates."""
    standardized = standardize_time(trace)
    instances = mine_response(standardized, dictionary) | mine_alternating(
        standardized, dictionary
    )
    return MiningReport(
        instances=_sorted_instances(instances, dictionary),
        trace_label=trace.label,
    )


def _sorted_instances(
    instances: Iterable[TREInstance], dictionary: Dictionary
) -> tuple[TREInstance, ...]:
    return tuple(
        sorted(
            instances,
            key=lambda inst: (
                inst.template.rank,
                dictionary.index_of(inst.p),
                dictionary.index_of(inst.s),
            ),
        )
    )


def rank_dominant(report: MiningReport, top_k: int, dictionary: Dictionary) -> MiningReport:
    """Keep the ``top_k`` most frequently matched instances.

    Sorted by match count descending; ties resolve by (template, P index,
    S index) ascending so the ranking is reproducible.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    ranked = sorted(
        report.instances,
        key=lambda inst: (
            -inst.match_count,
            inst.template.rank,
            dictionary.index_of(inst.p),
            dictionary.index_of(inst.s),
        ),
    )
    return MiningReport(instances=tuple(ranked[:top_k]), trace_label=report.trace_label)


def compare_reports(original: MiningReport, other: MiningReport) -> float:
    """Percent of original instances missing from ``other``, keyed (template, P, S)."""
    if len(original) == 0:
        raise EmptyOriginal("original report has no instances")
    lost = original.keys() - other.keys()
    return 100.0 * len(lost) / len(original)


# ---------------------------------------------------------------------------
# report files


def report_to_text(report: MiningReport) -> str:
    lines = [f"{_FORMAT_NAME} v{_FORMAT_VERSION}", f"label {report.trace_label}"]
    body = sorted(
        f"{inst.template.value} {inst.p} {inst.s} {inst.match_count}"
        for inst in report.instances
    )
    return "\n".join(lines + body) + "\n"


def report_from_text(text: str) -> MiningReport:
    lines = text.splitlines()
    if not lines:
        raise CorruptModel("empty mining report")
    header = lines[0].split()
    if len(header) != 2 or header[0] != _FORMAT_NAME:
        raise CorruptModel(f"bad header: {lines[0]!r}")
    if header[1] != f"v{_FORMAT_VERSION}":
        raise VersionMismatch(f"unsupported report version {header[1]!r}")
    label = ""
    instances: list[TREInstance] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("label"):
            label = line[len("label") :].strip()
            continue
        try:
            template, p, s, count = line.split()
            instances.append(
                TREInstance(Template(template), EventId(p), EventId(s), int(count))
            )
        except ValueError as exc:
            raise CorruptModel(f"malformed report line {line!r}: {exc}") from exc
    try:
        return MiningReport(instances=tuple(instances), trace_label=label)
    except ValueError as exc:
        raise CorruptModel(f"bad mining report: {exc}") from None
