import pytest
from hypothesis import given, strategies as st

from tracekit import ingest, markov, trem
from tracekit.core import Event, EventId, Trace
from tracekit.errors import (
    CorruptModel,
    InsufficientTraces,
    MalformedLine,
    NonMonotonicTimestamp,
    VersionMismatch,
)
from tracekit.ingest import (
    TRACE_HEADER,
    SplitSpec,
    parse_trace,
    read_pool,
    read_trace,
    serialize_trace,
    split_traces,
)
from tracekit.restore import parse_gapped


class TestParse:
    def test_basic_two_lines(self):
        t = parse_trace("0.001 2C6\n0.002 5D7\n")
        assert [e.id for e in t.events] == ["2C6", "5D7"]
        assert t.events[0].timestamp == 0.001

    def test_comments_blanks_and_case(self):
        t = parse_trace("# header\n\n0.5 b0\n")
        assert len(t) == 1
        assert t.events[0].id == "B0"

    def test_non_monotonic(self):
        with pytest.raises(NonMonotonicTimestamp) as exc:
            parse_trace("0.2 B0\n0.1 B2\n")
        assert exc.value.line_no == 2

    def test_malformed_lines(self):
        with pytest.raises(MalformedLine) as exc:
            parse_trace("0.1 B0\nnot a line at all\n")
        assert exc.value.line_no == 2
        with pytest.raises(MalformedLine):
            parse_trace("abc B0\n")
        with pytest.raises(MalformedLine):
            parse_trace("-1.0 B0\n")
        with pytest.raises(MalformedLine):
            parse_trace("inf B0\n")

    @pytest.mark.parametrize("parse", [parse_trace, parse_gapped], ids=["trace", "gapped"])
    def test_bad_value_that_also_steps_back_is_malformed(self, parse):
        # Event checks the value before the line loop checks the order.
        with pytest.raises(MalformedLine, match="finite and >= 0") as exc:
            parse("0.5 A\n-1 B\n")
        assert exc.value.line_no == 2

    @pytest.mark.parametrize(
        "events",
        [lambda text: parse_trace(text).events,
         lambda text: parse_gapped("? 1\n" + text).known_trace().events],
        ids=["trace", "gapped"],
    )
    def test_equal_tokens_share_one_id(self, events):
        ids = [ev.id for ev in events("0.1 A\n0.2 b\n0.3 A\n0.4 b\n0.5 B\n")]
        assert ids == ["A", "B", "A", "B", "B"]
        assert ids[0] is ids[2] and ids[1] is ids[3]

    @pytest.mark.parametrize("parse", [parse_trace, parse_gapped], ids=["trace", "gapped"])
    def test_bad_id_is_malformed_at_its_own_line(self, parse, monkeypatch):
        # No token that str.split yields breaks EventId's rules, so a
        # stricter rule stands in: it rejects BAD, first seen on line 3.
        def strict_event_id(token):
            if token == "BAD":
                raise ValueError("event id BAD is rejected")
            return EventId(token)

        monkeypatch.setattr(ingest, "EventId", strict_event_id)
        with pytest.raises(MalformedLine, match="BAD is rejected") as exc:
            parse("0.1 A\n0.2 A\n0.3 BAD\n0.4 BAD\n")
        assert exc.value.line_no == 3

    def test_header_versions(self):
        assert len(parse_trace(f"{TRACE_HEADER}\n0.5 B0\n")) == 1
        with pytest.raises(VersionMismatch, match="tracekit-trace v2"):
            parse_trace("# tracekit-trace v2\n0.5 B0\n")

    def test_reads_from_path(self, tmp_path):
        p = tmp_path / "x.trace"
        p.write_text("0.1 B0\n")
        trace = read_trace(p)
        assert len(trace) == 1 and trace.label == "x"


@pytest.mark.parametrize(
    "read, module",
    [(markov.MarkovModel.from_text, markov), (trem.report_from_text, trem)],
    ids=["markov", "mining"],
)
def test_format_line_is_checked_alike(read, module):
    name, version = module._FORMAT_NAME, module._FORMAT_VERSION
    with pytest.raises(CorruptModel, match=f"bad header: '', expected `{name} v{version}`"):
        read("")
    with pytest.raises(CorruptModel, match="bad header: 'tracekit-other v"):
        read(f"tracekit-other v{version}\n")
    with pytest.raises(VersionMismatch, match=f"unsupported {name} version 'v{version + 1}'"):
        read(f"{name} v{version + 1}\n")


class TestSerialize:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["B0", "B2", "2C6", "5D7"]),
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_round_trip(self, raw):
        times = sorted(t for _, t in raw)
        events = tuple(Event(EventId(i), t) for (i, _), t in zip(raw, times))
        trace = Trace(events, label="roundtrip")
        text = serialize_trace(trace)
        assert text.startswith(f"{TRACE_HEADER}\n")
        assert parse_trace(text, label="roundtrip") == trace


class TestSplit:
    def make_traces(self, n):
        return [
            Trace((Event(EventId("A"), 0.0),), label=f"t{i}") for i in range(n)
        ]

    def test_15_5_split(self):
        train, test = split_traces(self.make_traces(20), SplitSpec(15, 5, shuffle_seed=7))
        assert len(train) == 15 and len(test) == 5
        train_labels = {t.label for t in train}
        test_labels = {t.label for t in test}
        assert not (train_labels & test_labels)
        assert len(train_labels | test_labels) == 20

    def test_insufficient(self):
        with pytest.raises(InsufficientTraces):
            split_traces(self.make_traces(3), SplitSpec(15, 5, shuffle_seed=1))

    def test_pools_come_in_label_order_as_read_back(self, tmp_path):
        train, test = split_traces(self.make_traces(12), SplitSpec(5, 4, shuffle_seed=7))
        for name, pool in (("train", train), ("test", test)):
            assert [t.label for t in pool] == sorted(t.label for t in pool)
            (tmp_path / name).mkdir()
            for trace in pool:
                (tmp_path / name / f"{trace.label}.trace").write_text(serialize_trace(trace))
            assert read_pool(tmp_path / name) == pool

    def test_same_seed_same_split(self):
        traces = self.make_traces(25)
        a = split_traces(traces, SplitSpec(15, 5, shuffle_seed=3))
        b = split_traces(traces, SplitSpec(15, 5, shuffle_seed=3))
        assert [t.label for t in a[0]] == [t.label for t in b[0]]
        assert [t.label for t in a[1]] == [t.label for t in b[1]]

    def test_train_count_minimum(self):
        with pytest.raises(ValueError):
            SplitSpec(1, 5, shuffle_seed=1)
