import math
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tracekit import ingest, markov, trem
from tracekit.core import Event, EventId, Trace
from tracekit.errors import (
    CorruptModel,
    DegenerateInput,
    InsufficientTraces,
    MalformedLine,
    NonMonotonicTimestamp,
    TracekitError,
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
    write_trace,
)
from tracekit.restore import (
    GAPPED_HEADER,
    LossSpec,
    inject_loss,
    parse_gapped,
    read_gapped,
    write_gapped,
)
from tracekit.synth import GeneratorSpec, PeriodicMessage, generate_trace


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


# ---------------------------------------------------------------------------
# The column readers against the line-by-line readers they replaced


def reference_rows(text):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, raw, line.split()


def reference_event(line_no, raw, parts, prev_ts, ids, event_id):
    """One ``<timestamp> <id>`` line as ``(id, timestamp)``, checked rule by rule."""
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
            eid = ids[id_token] = event_id(id_token)
    except ValueError as exc:
        raise MalformedLine(line_no, raw, str(exc)) from None
    if not (math.isfinite(ts) and ts >= 0):
        raise MalformedLine(line_no, raw, f"timestamp must be finite and >= 0, got {ts!r}")
    if prev_ts is not None and ts < prev_ts:
        raise NonMonotonicTimestamp(line_no)
    return eid, ts


def reference_parse(text, gapped, event_id):
    """The slots of ``text`` as ``(id, timestamp)`` or ``None``, read one line at a time."""
    ingest.check_header(text, GAPPED_HEADER if gapped else TRACE_HEADER)
    slots, prev_ts, ids = [], None, {}
    for line_no, raw, parts in reference_rows(text):
        if gapped and parts[0] == "?":
            if len(parts) != 2 or not parts[1].isdecimal() or int(parts[1]) < 1:
                raise MalformedLine(line_no, raw, "expected `? <missing_count>`")
            slots.extend([None] * int(parts[1]))
            continue
        slot = reference_event(line_no, raw, parts, prev_ts, ids, event_id)
        prev_ts = slot[1]
        slots.append(slot)
    if gapped and all(slot is None for slot in slots):
        raise DegenerateInput("a gapped trace needs at least one surviving event")
    return slots


FAULTS = {
    "three tokens": "{ts!r} A B",
    "bad float": "1.2.3 A",
    "word for a number": "abc A",
    "nan": "nan A",
    "inf": "inf A",
    "negative": "-0.5 a",
    "step back": "0.25 A",
    "lost count zero": "? 0",
    "lost count word": "? x",
    "bare lost mark": "?",
    "lost count and more": "? 1 2",
    "signed lost count": "? +1",
    "strict id": "{ts!r} q",
    # With the strict id also injected, these break two rules on one line.
    "word for a number, id q": "abc q",
    "nan, id q": "nan q",
    "three tokens, id q": "{ts!r} q B",
}


@st.composite
def reader_texts(draw, gapped, faults):
    """Valid text with comments, blanks and mixed-case ids, and a number
    of injected fault lines in the range ``faults``; returns the text and
    whether ids ``Q`` are refused."""
    lines, times, ts = [], [], 1.0
    kinds = ["event"] * 4 + ["comment", "blank"] + ["lost"] * (2 * gapped)
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(kinds))
        if kind == "event":
            ts += draw(st.sampled_from([0.0, 0.001, 0.25, 1.5]))
            stamp = draw(st.sampled_from([repr(ts), f"{ts:.3f}", f" {ts!r}"]))
            sep = draw(st.sampled_from([" ", "\t", "   "]))
            token = draw(st.sampled_from(["a1", "A1", "b0", "B0", "2c6", "OTHER"]))
            tail = draw(st.sampled_from(["", " ", "\t"]))
            lines.append(f"{stamp}{sep}{token}{tail}")
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  # 1.0 A", "#"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        else:
            lines.append(f"? {draw(st.integers(1, 3))}")
        times.append(ts)
    count = draw(st.integers(faults.start, faults.stop - 1))
    chosen = draw(st.permutations(list(FAULTS)))[:count]
    for fault in chosen:
        at = draw(st.integers(0, len(lines)))
        ts = times[at - 1] if at else 1.0
        lines.insert(at, FAULTS[fault].format(ts=ts))
        times.insert(at, ts)
    header = draw(st.sampled_from(["", (GAPPED_HEADER if gapped else TRACE_HEADER) + "\n"]))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return header + ending.join(lines) + draw(st.sampled_from(["", ending])), "strict id" in chosen


def strict_event_id(token):
    if token.upper() == "Q":
        raise ValueError(f"event id {token} is refused")
    return EventId(token)


def read_both(parse, text, gapped, strict, block_chars):
    """What ``parse`` and the reference make of ``text``: slots or the error."""
    event_id = strict_event_id if strict else EventId
    outcomes = []
    with mock.patch.object(ingest, "EventId", event_id), \
            mock.patch.object(ingest, "BLOCK_CHARS", block_chars):
        for read in (parse, lambda text: reference_parse(text, gapped, event_id)):
            try:
                outcomes.append(read(text))
            except (TracekitError, ValueError) as exc:
                outcomes.append(exc)
    return outcomes


def assert_reads_alike(data, gapped, block_chars, faults):
    text, strict = data.draw(reader_texts(gapped, faults))
    parse = parse_gapped if gapped else parse_trace
    new, reference = read_both(parse, text, gapped, strict, block_chars)
    if isinstance(reference, Exception):
        assert type(new) is type(reference)
        assert str(new) == str(reference)
        assert getattr(new, "line_no", None) == getattr(reference, "line_no", None)
        return
    assert not isinstance(new, Exception), new
    if gapped:
        times = iter(new.time_column)
        slots = [None if eid is None else (eid, next(times)) for eid in new.id_column]
    else:
        slots = list(zip(new.id_column, new.time_column))
    assert slots == reference
    assert all(type(ts) is float for ts in new.time_column)


# Blocks of a few characters put nearly every line in a block of its own.
BLOCK_SIZES = st.sampled_from([1, 1, 9, 40, 1 << 14])


class TestColumnReaders:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), gapped=st.booleans(), block_chars=BLOCK_SIZES)
    def test_agree_with_the_line_by_line_readers(self, data, gapped, block_chars):
        assert_reads_alike(data, gapped, block_chars, faults=range(2))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), gapped=st.booleans(), block_chars=BLOCK_SIZES)
    def test_name_the_first_of_several_faults(self, data, gapped, block_chars):
        assert_reads_alike(data, gapped, block_chars, faults=range(2, 4))


def kept_and_peak_bytes(read):
    """``read()``'s result, and by ``tracemalloc`` the bytes it holds and
    the most the call held at once."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = read()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before, peak - before


class TestMemory:
    # On CPython 3.11, for a 20,000-slot trace with a quarter of it lost, a
    # read trace keeps 16.5 B per event and a read gapped trace 14.7 B per
    # slot: a pointer per id and 8 bytes per known timestamp. The readers
    # peak at 68 and 72 B. With one ``Event`` per line they kept 80 and
    # 62 B and peaked at 161 and 135 B.
    KEPT_BYTES = 24
    PEAK_BYTES = 120

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        spec = GeneratorSpec(
            periodic=(PeriodicMessage(EventId("1A0"), 0.001),
                      PeriodicMessage(EventId("2B0"), 0.004)),
            duration=16.0,
        )
        trace = generate_trace(spec)
        directory = tmp_path_factory.mktemp("memory")
        write_trace(trace, directory / "long.trace")
        write_gapped(inject_loss(trace, LossSpec(0.25, seed=3)), directory / "long.gapped")
        return directory / "long.trace", directory / "long.gapped"

    def test_a_read_trace_holds_two_columns(self, files):
        read_trace(files[0])
        trace, kept, peak = kept_and_peak_bytes(lambda: read_trace(files[0]))
        assert len(trace) == 20_000
        assert kept / len(trace) < self.KEPT_BYTES
        assert peak / len(trace) < self.PEAK_BYTES

    def test_a_read_gapped_trace_holds_a_pointer_per_lost_slot(self, files):
        read_gapped(files[1])
        gapped, kept, peak = kept_and_peak_bytes(lambda: read_gapped(files[1]))
        assert len(gapped.id_column) == 20_000 and gapped.missing_total() == 5_000
        assert kept / len(gapped.id_column) < self.KEPT_BYTES
        assert peak / len(gapped.id_column) < self.PEAK_BYTES


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
