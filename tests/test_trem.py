import re

import pytest
from hypothesis import example, given, settings, strategies as st

from tracekit import cli
from tracekit.core import Dictionary, Event, EventId, Trace, build_dictionary
from tracekit.errors import CorruptModel, VersionMismatch
from tracekit.synth import (
    GeneratorSpec,
    PeriodicMessage,
    RareMessage,
    TriggeredMessage,
    generate_trace,
)
from tracekit.trem import (
    MiningReport,
    Template,
    TREInstance,
    compare_reports,
    mine_trace,
    report_from_text,
    report_to_text,
)


def timed_trace(*pairs, label=""):
    return Trace(tuple(Event(EventId(i), t) for i, t in pairs), label=label)


def evenly_timed(*ids, label=""):
    return timed_trace(*((i, t * 1.0) for t, i in enumerate(ids)), label=label)


def mined(trace, template):
    """(P, S) -> match count of every ``template`` instance mined from ``trace``."""
    report = mine_trace(trace, build_dictionary([trace]))
    return {(i.p, i.s): i.match_count for i in report.instances if i.template is template}


class TestResponse:
    def mine(self, trace):
        return mined(trace, Template.RESPONSE)

    def test_every_p_answered(self):
        got = self.mine(timed_trace(("P", 0.0), ("S", 100.0), ("P", 200.0), ("S", 300.0)))
        assert got[("P", "S")] == 2

    def test_re_triggered_p_disqualifies(self):
        got = self.mine(evenly_timed("P", "P", "S"))
        assert ("P", "S") not in got

    def test_unanswered_final_p_disqualifies(self):
        got = self.mine(evenly_timed("P", "S", "P"))
        assert ("P", "S") not in got

    def test_re_triggered_p_with_a_distant_s_disqualifies(self):
        # The second P arrives before the first is answered, however long
        # the wait for S.
        trace = timed_trace(("P", 0.0), ("X", 1.0), ("P", 2.0), ("S", 100.0), ("X", 200.0))
        got = self.mine(trace)
        assert ("P", "S") not in got

    def test_pair_spanning_the_whole_trace(self):
        # One P-S pair across the whole trace, 15 steps long.
        got = self.mine(evenly_timed("P", *"X" * 14, "S"))
        assert got[("P", "S")] == 1

    def test_other_events_ignored(self):
        got = self.mine(evenly_timed("P", "X", "Y", "S"))
        assert got[("P", "S")] == 1


class TestAlternating:
    def mine(self, trace):
        return mined(trace, Template.ALTERNATING)

    def test_strict_alternation(self):
        got = self.mine(evenly_timed("P", "S", "P", "S"))
        assert got[("P", "S")] == 2

    def test_double_p_rejected(self):
        got = self.mine(evenly_timed("P", "P", "S", "S"))
        assert ("P", "S") not in got

    def test_must_begin_with_p(self):
        got = self.mine(evenly_timed("S", "P", "S"))
        assert ("P", "S") not in got

    def test_must_end_with_s(self):
        got = self.mine(evenly_timed("P", "S", "P"))
        assert ("P", "S") not in got

    def test_interleaved_other_events_ignored(self):
        with_noise = self.mine(evenly_timed("P", "X", "S", "Y", "P", "S"))
        without = self.mine(evenly_timed("P", "S", "P", "S"))
        assert with_noise[("P", "S")] == without[("P", "S")] == 2


def regex_oracle(tokens, pattern):
    """(P, S, count of P) for every pair whose projected role string matches ``pattern``."""
    expected = set()
    symbols = list(dict.fromkeys(tokens))
    for p in symbols:
        for s in symbols:
            if p == s:
                continue
            mapped = "".join("P" if t == p else "S" for t in tokens if t in (p, s))
            if re.fullmatch(pattern, mapped):
                expected.add((p, s, mapped.count("P")))
    return expected


def mined_triples(tokens, template):
    found = mined(evenly_timed(*tokens), template)
    return {(str(p), str(s), count) for (p, s), count in found.items()}


def token_draws(test):
    """The oracles' shared Hypothesis draws over PSXY, with the worked examples."""
    for tokens in (
        # Ids that equal a role letter: S in the P role, then P in the S role.
        ["S", "P"],
        ["X", "P", "X", "P"],
        # One P-S pair across the whole trace, 15 steps long.
        ["P", *"X" * 14, "S"],
    ):
        test = example(tokens=tokens)(test)
    test = given(st.lists(st.sampled_from("PSXY"), min_size=2, max_size=40))(test)
    return settings(max_examples=120, deadline=None)(test)


class TestResponseOracle:
    """Cross-check against a direct regex on the projected symbol string."""

    @token_draws
    def test_matches_regex_oracle(self, tokens):
        response = mined_triples(tokens, Template.RESPONSE)
        assert response == regex_oracle(tokens, r"S*(PS+)+")
        assert mined_triples(tokens, Template.ALTERNATING) <= response


class TestAlternatingOracle:
    """Cross-check against a direct regex on the projected symbol string."""

    @token_draws
    def test_matches_regex_oracle(self, tokens):
        assert mined_triples(tokens, Template.ALTERNATING) == regex_oracle(tokens, r"(PS)+")

    def test_alternating_implies_answered_response_pairs(self):
        # Restricting response semantics to P/S events only: alternation
        # means every P is answered before the next P.
        trace = evenly_timed("P", "X", "S", "P", "S")
        for p, s in mined(trace, Template.ALTERNATING):
            projected = [t for t in trace.ids() if t in (p, s)]
            pending = False
            for tok in projected:
                if tok == p:
                    assert not pending
                    pending = True
                else:
                    pending = False
            assert not pending


class TestCompare:
    def make(self, pairs):
        instances = tuple(
            TREInstance(Template.RESPONSE, EventId(p), EventId(s), 1) for p, s in pairs
        )
        return MiningReport(instances)

    def test_identical_reports(self):
        r = self.make([("A", "B"), ("B", "C")])
        assert compare_reports([(r, r)]) == 0.0

    def test_empty_other(self):
        r = self.make([("A", "B"), ("B", "C")])
        assert compare_reports([(r, MiningReport(()))]) == 100.0

    def test_partial_overlap(self):
        original = self.make([("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")])
        other = self.make([("A", "B"), ("C", "D"), ("E", "F")])
        assert compare_reports([(original, other)]) == pytest.approx(50.0)

    def test_pooled_over_pairs_of_different_sizes(self):
        big = self.make([("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")])
        small = self.make([("A", "B")])
        # 75 % of the big report is lost and none of the small one: the pool
        # loses 3 of 5 instances, not the mean of 75 and 0.
        assert compare_reports([(big, small), (small, small)]) == pytest.approx(60.0)

    def test_no_original_instance_loses_nothing(self):
        r = self.make([("A", "B")])
        assert compare_reports([(MiningReport(()), r)]) == 0.0
        assert compare_reports([]) == 0.0

    def test_empty_original_rejected(self, tmp_path, capsys):
        # One pair with nothing to lose is an error when asked for on its own.
        (tmp_path / "none.txt").write_text(report_to_text(MiningReport(())))
        (tmp_path / "one.txt").write_text(report_to_text(self.make([("A", "B")])))
        code = cli.main(["compare", "--original", str(tmp_path / "none.txt"),
                         "--other", str(tmp_path / "one.txt")])
        assert code == 1
        assert "none.txt has no instances" in capsys.readouterr().err

    def test_cli_prints_the_exact_percent(self, tmp_path, capsys):
        pairs = [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "F")]
        (tmp_path / "five.txt").write_text(report_to_text(self.make(pairs)))
        (tmp_path / "four.txt").write_text(report_to_text(self.make(pairs[1:])))
        code = cli.main(["compare", "--original", str(tmp_path / "five.txt"),
                         "--other", str(tmp_path / "four.txt")])
        assert code == 0
        assert capsys.readouterr().out == "compare: 20.0 percent of original instances lost\n"

    def test_count_changes_do_not_matter(self):
        a = MiningReport((TREInstance(Template.RESPONSE, EventId("A"), EventId("B"), 5),))
        b = MiningReport((TREInstance(Template.RESPONSE, EventId("A"), EventId("B"), 2),))
        assert compare_reports([(a, b)]) == 0.0


class TestMineTrace:
    def test_degenerate_span(self):
        # Without a time span there is no timed instance: (A, B) would hold.
        d = build_dictionary([evenly_timed("A", "B")])
        same_time = mine_trace(timed_trace(("A", 1.0), ("B", 1.0), label="x"), d)
        assert same_time == MiningReport(())
        assert mine_trace(Trace((), label="y"), d) == MiningReport(())

    def test_instances_by_template_then_dictionary_index(self):
        trace = evenly_timed(*"PSQPSQ")
        d = Dictionary((EventId("Q"), EventId("S"), EventId("P")))
        report = mine_trace(trace, d)
        order = [(list(Template).index(i.template), d.index_of(i.p), d.index_of(i.s))
                 for i in report.instances]
        assert len(order) == 6  # (P, S), (P, Q) and (S, Q), once per template
        assert order == sorted(order)

    def test_other_excluded_from_candidates(self):
        trace = evenly_timed("P", "S", "P", "S")
        d = Dictionary((EventId("P"),))  # S is unknown -> OTHER
        report = mine_trace(trace, d)
        assert all("OTHER" not in (i.p, i.s) for i in report.instances)
        assert len(report) == 0

    def test_report_sorted_deterministically(self):
        trace = evenly_timed(*"PSPSQRQR")
        d = build_dictionary([trace])
        r1 = mine_trace(trace, d)
        r2 = mine_trace(trace, d)
        assert report_to_text(r1) == report_to_text(r2)


def merge_string_miner(trace, dictionary):
    """The miner as it was before segment sets: one merged role string per pair."""
    events = trace.events
    if not events or events[0].timestamp == events[-1].timestamp:
        return MiningReport(instances=())
    known = set(dictionary.ids)
    as_p = {}
    for pos, eid in enumerate(trace.ids()):
        if eid in known:
            as_p.setdefault(eid, []).append(2 * pos)
    as_s = {eid: [mark + 1 for mark in marks] for eid, marks in as_p.items()}
    ids = [eid for eid in dictionary.ids if eid in as_p]
    response, alternating = [], []
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
    return MiningReport(instances=tuple(response + alternating))


@st.composite
def traces_and_dictionaries(draw):
    """Traces over a few ids, some unknown to the dictionary or OTHER, and
    a dictionary of some of them in any order."""
    tokens = draw(st.lists(st.sampled_from(["A", "b", "B", "C", "D", "E", "OTHER"]), max_size=60))
    times = sorted(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                 min_size=len(tokens), max_size=len(tokens))))
    trace = Trace(tuple(Event(EventId(i), t) for i, t in zip(tokens, times)))
    vocabulary = draw(st.permutations(["A", "B", "C", "D", "E", "F"]))
    size = draw(st.integers(1, len(vocabulary)))
    return trace, Dictionary(tuple(EventId(i) for i in vocabulary[:size]))


class TestSegmentSets:
    @settings(max_examples=300, deadline=None)
    @given(traces_and_dictionaries())
    def test_agrees_with_the_merge_string_miner(self, drawn):
        trace, dictionary = drawn
        assert mine_trace(trace, dictionary) == merge_string_miner(trace, dictionary)

    def test_agrees_on_a_synthetic_bus_trace(self):
        trace = generate_trace(
            GeneratorSpec(
                periodic=(PeriodicMessage(EventId("A"), 0.01, 0.1),
                          PeriodicMessage(EventId("B"), 0.02, 0.1),
                          PeriodicMessage(EventId("C"), 0.05)),
                triggered=(TriggeredMessage(EventId("D"), EventId("A"), 0.5, 0.002),
                           TriggeredMessage(EventId("E"), EventId("C"), 1.0, 0.001)),
                rare=(RareMessage(EventId("F"), 20),),
                duration=2.0,
                seed=3,
            )
        )
        dictionary = build_dictionary([trace])
        report = mine_trace(trace, dictionary)
        assert len(report) > 0
        assert report == merge_string_miner(trace, dictionary)


class TestReportFiles:
    def test_round_trip(self):
        trace = evenly_timed(*"PSPSQ", label="seg")
        d = build_dictionary([trace])
        report = mine_trace(trace, d)
        text = report_to_text(report)
        again = report_from_text(text)
        assert again.keys() == report.keys()
        assert report_to_text(again) == text
        assert text.splitlines()[0] == "tracekit-mine v2"
        assert "seg" not in text  # the report names no trace

    def test_version_mismatch(self):
        for text in ("tracekit-mine v99\n", "tracekit-mine v1\nlabel x\nresponse P S 1\n"):
            with pytest.raises(VersionMismatch):
                report_from_text(text)

    def test_corrupt(self):
        with pytest.raises(CorruptModel):
            report_from_text("not a report\n")
        with pytest.raises(CorruptModel):
            report_from_text("tracekit-mine v2\nresponse P S notanumber\n")
