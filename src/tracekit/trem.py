"""Simplified timed-property miner over event traces.

Two templates are mined, each over ordered pairs (P, S) of distinct known
ids (the OTHER slot is never a candidate). For a pair, the positions of P
and S merge into one role string: the trace restricted to P and S events,
each written as its role. Events that are neither P nor S are ignored.

* response — every occurrence of P is answered by an S before any further
  P occurs: the role string has no ``PP`` and ends in ``S``. One unanswered
  or re-triggered P disqualifies the pair for the whole trace.
* alternating — the role string is the strict alternation P, S, P, S, ...,
  S: a response string that also starts with ``P`` and has no ``SS``.

Mining reads no timestamp, so a trace is mined on its own clock and is never
rescaled. A trace without a time span (empty, or its first and last
timestamps equal; timestamps never decrease) has no timed instance, so its
report is empty. No time bound is checked: each instance's observed delay
interval is not mined yet.

``match_count`` counts P-to-S segments (the occurrences of P), while
instance identity for set comparisons is (template, P, S) alone: comparing
reports counts distinct surviving rules, not how often they fired.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import Dictionary, EventId, Trace
from .errors import CorruptModel, VersionMismatch

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


def mine_trace(trace: Trace, dictionary: Dictionary) -> MiningReport:
    """Mine both templates over every ordered pair of distinct known ids.

    Instances come in (template, P index, S index) order: response first.
    """
    if not trace.events or trace.events[0].timestamp == trace.events[-1].timestamp:
        return MiningReport(instances=(), trace_label=trace.label)
    # Each known id's positions, doubled, and + 1 in the S role: a merge
    # sorts by position, and each mark's parity is its role.
    known = set(dictionary.ids)
    as_p: dict[EventId, list[int]] = {}
    for pos, eid in enumerate(trace.ids()):
        if eid in known:
            as_p.setdefault(eid, []).append(2 * pos)
    as_s = {eid: [mark + 1 for mark in marks] for eid, marks in as_p.items()}
    ids = [eid for eid in dictionary.ids if eid in as_p]
    response: list[TREInstance] = []
    alternating: list[TREInstance] = []
    for p in ids:
        for s in ids:
            if p == s:
                continue
            roles = "".join(["PS"[mark & 1] for mark in sorted(as_p[p] + as_s[s])])
            if "PP" in roles or roles[-1] != "S":
                continue
            count = len(as_p[p])
            response.append(TREInstance(Template.RESPONSE, p, s, count))
            if roles[0] == "P" and "SS" not in roles:
                alternating.append(TREInstance(Template.ALTERNATING, p, s, count))
    return MiningReport(instances=tuple(response + alternating), trace_label=trace.label)


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
