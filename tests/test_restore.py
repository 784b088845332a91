import random
import sys
from array import array
from itertools import compress

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from tracekit.core import EventId, Trace, build_dictionary, decode_index, encode_ids
from tracekit.errors import DegenerateInput, InvalidFraction, MalformedLine, UntrainedModel
from tracekit.lstm import forward_window
from tracekit.markov import learn_transitions
from tracekit.restore import (
    GAPPED_HEADER,
    GappedTrace,
    LossSpec,
    fill_gaps,
    inject_loss,
    parse_gapped,
    predict_step_by_step,
    restore_trace,
    serialize_gapped,
)


def trace_of(*ids, label=""):
    return Trace(ids, [t * 0.1 for t in range(len(ids))], label)


def gapped_of(trace, *lost):
    """``trace`` with the events at the ``lost`` positions removed."""
    kept = [i not in lost for i in range(len(trace))]
    ids = [eid if keep else None for eid, keep in zip(trace.id_column, kept)]
    return GappedTrace(ids, compress(trace.time_column, kept), trace.label)


def assert_survivors_kept(gapped, trace):
    """Each event that survives in ``gapped`` is ``trace``'s at its slot."""
    assert all(slot in (None, eid) for slot, eid in zip(gapped.id_column, trace.id_column))
    kept = [slot is not None for slot in gapped.id_column]
    assert array("d", compress(trace.time_column, kept)) == gapped.time_column


class TestGappedTrace:
    def test_needs_a_surviving_event(self):
        for ids in [(), (None,), (None, None)]:
            with pytest.raises(DegenerateInput, match="at least one surviving event"):
                GappedTrace(ids, ())

    def test_bookkeeping(self):
        g = GappedTrace(("A", None, None, "B", "C"), (0.0, 0.3, 0.4))
        assert g.missing_total() == 2
        assert len(g.id_column) == 5
        assert g.gaps() == [(1, 2)]
        assert g.known_trace() == Trace(("A", "B", "C"), (0.0, 0.3, 0.4))

    def test_survivors_out_of_time_order_are_refused(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            GappedTrace(("A", None, "B"), (2.0, 1.0))

    def test_gaps_are_maximal_runs_of_lost_slots(self):
        assert gapped_of(trace_of(*"ABCDE"), 1, 2, 4).gaps() == [(1, 2), (4, 1)]
        assert gapped_of(trace_of(*"ABCDEF"), 0, 1, 3, 5).gaps() == [(0, 2), (3, 1), (5, 1)]


class TestInjectLoss:
    def test_zero_fraction_identity(self):
        trace = trace_of(*"ABCD")
        g = inject_loss(trace, LossSpec(fraction=0.0, seed=1))
        assert g.missing_total() == 0
        assert (g.id_column, g.time_column) == (trace.id_column, trace.time_column)
        assert g.known_trace() == trace

    def test_exact_budget(self):
        trace = trace_of(*(["A"] * 1000))
        g = inject_loss(trace, LossSpec(fraction=0.25, seed=2))
        assert g.missing_total() == 250
        assert len(g.known_trace()) == 750

    def test_deterministic_under_seed(self):
        trace = trace_of(*(["A", "B"] * 100))
        a = inject_loss(trace, LossSpec(fraction=0.2, seed=3))
        b = inject_loss(trace, LossSpec(fraction=0.2, seed=3))
        c = inject_loss(trace, LossSpec(fraction=0.2, seed=4))
        assert a == b
        assert a.gaps() != c.gaps()

    def test_burst_mode_contiguity(self):
        trace = trace_of(*(["A"] * 200))
        g = inject_loss(trace, LossSpec(fraction=0.1, burst_length=5, seed=5))
        assert g.missing_total() == 20
        sizes = [count for _, count in g.gaps()]
        # adjacent bursts merge, so every gap is a whole number of bursts
        assert sum(sizes) == 20
        assert all(size % 5 == 0 for size in sizes)

    @pytest.mark.parametrize("length", [5, 10, 23])
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("burst_length", [1, 2, 4, 7])
    def test_burst_budget_is_exact(self, length, fraction, burst_length):
        trace = trace_of(*(["A", "B"] * 12)[:length])
        budget = round(fraction * length)
        for seed in range(50):
            spec = LossSpec(fraction=fraction, burst_length=burst_length, seed=seed)
            g = inject_loss(trace, spec)
            assert g.missing_total() == budget, seed
            assert_survivors_kept(g, trace)
            # whole bursts, then the truncated one last
            sizes = [count for _, count in g.gaps()] or [0]
            assert all(size % burst_length == 0 for size in sizes[:-1]), seed
            assert sizes[-1] % burst_length == budget % burst_length, seed

    @pytest.mark.parametrize("length", [1, 2, 7, 40, 301])
    @pytest.mark.parametrize("fraction", [0.0, 0.05, 0.25, 0.5, 0.99])
    def test_bursts_of_one_are_a_uniform_sample_of_positions(self, length, fraction):
        """Blocks of 1 draw the lost positions as ``sample(range(len), budget)``."""
        trace = trace_of(*(["A", "B", "C"] * 101)[:length])
        budget = min(round(fraction * length), length - 1)
        for seed in range(20):
            g = inject_loss(trace, LossSpec(fraction, seed=seed))
            lost = {pos for pos, slot in enumerate(g.id_column) if slot is None}
            assert lost == set(random.Random(seed).sample(range(length), budget)), seed

    def test_one_event_always_survives(self):
        """75 % of 2 events rounds to 2; the budget stops at 1."""
        for burst_length in (1, 2):
            spec = LossSpec(fraction=0.75, burst_length=burst_length, seed=1)
            assert inject_loss(trace_of("A", "B"), spec).missing_total() == 1

    def test_invalid_fraction(self):
        with pytest.raises(InvalidFraction):
            LossSpec(fraction=1.0)
        with pytest.raises(InvalidFraction):
            LossSpec(fraction=-0.1)


class TestRestore:
    @pytest.fixture()
    def cyclic_model(self):
        pool = [trace_of(*"ABAB" * 12)]
        return learn_transitions(pool, 2, build_dictionary(pool))

    def test_zero_gap_identity(self, cyclic_model):
        trace = trace_of(*"ABAB")
        g = inject_loss(trace, LossSpec(fraction=0.0, seed=0))
        assert restore_trace(cyclic_model, g) == trace

    def test_cyclic_gap_restored_exactly(self, cyclic_model):
        trace = trace_of(*"ABABABAB")
        g = gapped_of(trace, 2, 3)
        restored = restore_trace(cyclic_model, g)
        assert restored.id_column == tuple("ABABABAB")
        assert len(restored) == len(g.id_column)

    def test_known_events_untouched(self, cyclic_model):
        trace = trace_of(*"ABABABABAB")
        g = inject_loss(trace, LossSpec(fraction=0.3, seed=7))
        restored = restore_trace(cyclic_model, g)
        assert len(restored) == len(trace)
        assert_survivors_kept(g, restored)

    def test_timestamps_interpolated_and_monotone(self, cyclic_model):
        trace = trace_of(*"ABABAB")
        g = gapped_of(trace, 1, 2, 3)
        restored = restore_trace(cyclic_model, g)
        assert restored.time_column.tolist() == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])

    def test_edge_gaps_take_the_nearest_known_timestamp(self, cyclic_model):
        trace = trace_of(*"ABABAB")
        restored = restore_trace(cyclic_model, gapped_of(trace, 0, 1, 4, 5))
        first, last = trace.time_column[2:4]
        assert restored.time_column.tolist() == [first] * 3 + [last] * 3
        assert restored.id_column[2:4] == trace.id_column[2:4]
        assert restored.time_column[2:4] == trace.time_column[2:4]

    def test_restoration_deterministic(self, cyclic_model):
        trace = trace_of(*"ABABABAB")
        g = inject_loss(trace, LossSpec(fraction=0.25, seed=9))
        r1 = restore_trace(cyclic_model, g)
        r2 = restore_trace(cyclic_model, g)
        assert r1 == r2


class TestStepByStepPrediction:
    def test_horizon_zero_empty(self, trained_cyclic_lstm):
        model, traces = trained_cyclic_lstm
        assert predict_step_by_step(model, traces[0].id_column[:10], 0) == []

    def test_cycle_continuation(self, trained_cyclic_lstm):
        model, traces = trained_cyclic_lstm
        ids = list(traces[-1].id_column)
        cycle = 7
        horizon = 5 * cycle
        seed = ids[: 2 * cycle]
        predicted = predict_step_by_step(model, seed, horizon)
        assert predicted == ids[2 * cycle : 2 * cycle + horizon]

    def test_lstm_step_reads_the_last_unroll_window(self, trained_cyclic_lstm):
        model, traces = trained_cyclic_lstm
        ids = traces[0].id_column[:25]
        tail = ids[-model.config.unroll_steps :]
        output = forward_window(model, encode_ids(tail, model.dictionary))
        expected = decode_index(int(np.argmax(output)), model.dictionary)
        assert model.predict_next(ids) == model.predict_next(tail) == expected


def abc_markov():
    """An order-3 Markov model over the ids A, B and C."""
    pool = [trace_of(*"ABCACBBA" * 4)]
    return learn_transitions(pool, 3, build_dictionary(pool))


@pytest.fixture(params=["markov", "lstm"])
def family_model(request):
    """A model of either family over the ids A, B and C."""
    if request.param == "markov":
        return abc_markov()
    return request.getfixturevalue("trained_cyclic_lstm")[0]


class TestFillGaps:
    def test_known_slots_pass_through(self, family_model):
        slots = [None if i == "?" else EventId(i) for i in "AB??CA?B"]
        ids = fill_gaps(family_model, slots)
        assert len(ids) == len(slots)
        assert [i for i, slot in zip(ids, slots) if slot is not None] == list("ABCAB")
        assert fill_gaps(family_model, ids) == ids

    def test_trailing_gap_restores_as_a_rollout(self, family_model):
        trace = trace_of(*"ABCAACBABCB")
        k = 4
        restored = restore_trace(family_model, gapped_of(trace, *range(len(trace) - k, len(trace))))
        prefix = list(trace.id_column[:-k])
        assert list(restored.id_column) == prefix + predict_step_by_step(family_model, prefix, k)


class ReadGuard:
    """Ids that refuse a read of a scored position not yet yielded by the walk."""

    def __init__(self, ids, scored):
        self.ids = list(ids)
        self.unyielded = {q for q, wanted in enumerate(scored) if wanted}

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, key):
        read = range(len(self.ids))[key]
        early = self.unyielded.intersection(read if isinstance(read, range) else [read])
        assert not early, f"read position {min(early)} before yielding it"
        return self.ids[key]


class TestWalkReadOrder:
    @pytest.mark.parametrize(
        "lost", [range(24), range(0, 24, 3), range(9, 24)],
        ids=["every position", "every third", "trailing run"],
    )
    def test_a_scored_position_is_read_only_after_it_is_yielded(self, family_model, lost):
        scored = [q in lost for q in range(24)]
        ids = ReadGuard([EventId(e) for e in "ABCAACBABCBA" * 2], scored)
        for q, predicted in family_model.walk(ids, scored):
            ids.unyielded.remove(q)
            ids.ids[q] = predicted
        assert not ids.unyielded


def predict_next_loop(model, slots):
    """The B=1 reference for ``fill_gaps``: ``predict_next`` over the growing ids."""
    ids = []
    for slot in slots:
        ids.append(model.predict_next(ids) if slot is None else slot)
    return ids


UNROLL = 10  # of both LSTMs below

# (length, lost positions) of each slot pattern.
SLOT_PATTERNS = {
    "leading gap": (40, range(0, 3)),
    "lost inside the first unroll": (40, [1, 4, 5, 9, 10]),
    "gap longer than unroll": (50, range(20, 20 + UNROLL + 5)),
    "trailing rollout": (12 + 3 * UNROLL, range(12, 12 + 3 * UNROLL)),
    "no lost slot": (30, []),
    "one slot": (1, []),
    "one known slot": (16, [i for i in range(16) if i != 5]),
}


@pytest.fixture(params=["cyclic lstm", "random lstm"])
def lstm_and_ids(request, random_lstm):
    """An LSTM of unroll ``UNROLL`` and an id sequence to cut slots from."""
    if request.param == "cyclic lstm":
        model, traces = request.getfixturevalue("trained_cyclic_lstm")
        assert model.config.unroll_steps == UNROLL
        return model, traces[-1].id_column
    # D is outside the dictionary, so some windows hold OTHER.
    rng = random.Random(5)
    return random_lstm(UNROLL), [EventId(rng.choice("ABCD")) for _ in range(60)]


class TestLockstepFill:
    @pytest.mark.parametrize("pattern", SLOT_PATTERNS)
    def test_matches_the_predict_next_loop(self, lstm_and_ids, pattern):
        model, ids = lstm_and_ids
        length, lost = SLOT_PATTERNS[pattern]
        slots = [None if i in lost else eid for i, eid in enumerate(ids[:length])]
        assert fill_gaps(model, slots) == predict_next_loop(model, slots)

    @given(marks=st.lists(st.sampled_from(["A", "B", "C", "D", None]), max_size=40))
    def test_any_slot_mask_matches_the_predict_next_loop(self, random_lstm, marks):
        slots = [None if m is None else EventId(m) for m in marks]
        for model in (random_lstm(UNROLL), abc_markov()):
            assert fill_gaps(model, slots) == predict_next_loop(model, slots)

    @pytest.mark.parametrize(
        "lost",
        [[70], [60, 61], [0, 1, 5, 39, 41, 50], range(3, 100, 5), range(60, 100)],
        ids=["one window", "two windows", "leading gap and prefix stream", "every fifth",
             "trailing rollout"],
    )
    def test_matches_the_predict_next_loop_at_benchmark_widths(self, wide_lstm, lost):
        rng = random.Random(17)
        alphabet = [*wide_lstm.dictionary.ids, EventId("unknown")]
        slots = [None if i in lost else rng.choice(alphabet) for i in range(100)]
        assert fill_gaps(wide_lstm, slots) == predict_next_loop(wide_lstm, slots)

    def test_untrained_model_with_a_lost_slot_is_refused(self, random_lstm):
        model = random_lstm(UNROLL)
        model.event_freq = {}
        with pytest.raises(UntrainedModel):
            fill_gaps(model, [EventId("A"), None])


class TestLstmRestore:
    def test_lstm_restores_cycle(self, trained_cyclic_lstm):
        model, traces = trained_cyclic_lstm
        trace = traces[-1]
        g = inject_loss(trace, LossSpec(fraction=0.15, seed=21))
        restored = restore_trace(model, g)
        assert len(restored) == len(trace)
        assert restored.id_column == trace.id_column


@st.composite
def gapped_traces(draw):
    """Slots over ids A-C with sorted timestamps, at least one of them surviving."""
    marks = draw(st.lists(st.sampled_from(["A", "B", "C", None]), min_size=1, max_size=30))
    assume(any(marks))
    times = sorted(draw(st.lists(st.floats(0, 1e6), min_size=len(marks), max_size=len(marks))))
    survivors = [t for m, t in zip(marks, times) if m is not None]
    return GappedTrace(marks, survivors, label=draw(st.sampled_from(["", "t0"])))


def split_sentinels(text):
    """``text`` with every ``? n`` (n >= 2) written as ``? 1`` then ``? n-1``."""
    lines = []
    for line in text.splitlines():
        count = int(line[2:]) if line.startswith("? ") else 0
        lines.extend(["? 1", f"? {count - 1}"] if count >= 2 else [line])
    return "\n".join(lines) + "\n"


class TestGappedFiles:
    def test_round_trip(self):
        g = gapped_of(trace_of(*"ABCDEF", label="t0"), 1, 4, 5)
        text = serialize_gapped(g)
        assert text.startswith(f"{GAPPED_HEADER}\n")
        assert text.count("?") == 2
        assert parse_gapped(text, "t0") == g

    @given(gapped_traces())
    @example(GappedTrace((None, None, "A", None, None, None), (0.5,)))
    def test_round_trip_of_any_slots(self, g):
        text = serialize_gapped(g)
        assert parse_gapped(text, g.label) == g
        assert parse_gapped(split_sentinels(text), g.label) == g

    @given(
        length=st.integers(1, 40),
        percent=st.integers(0, 99),
        burst_length=st.integers(1, 6),
        seed=st.integers(0, 1000),
    )
    def test_injected_loss_round_trips(self, length, percent, burst_length, seed):
        spec = LossSpec(fraction=percent / 100, burst_length=burst_length, seed=seed)
        g = inject_loss(trace_of(*("AB" * 20)[:length], label="t0"), spec)
        assert parse_gapped(serialize_gapped(g), g.label) == g

    def test_sentinel_parsing(self):
        g = parse_gapped("0.1 B0\n? 3\n0.5 B2\n")
        assert g.gaps() == [(1, 3)]
        assert g.known_trace().id_column == ("B0", "B2")

    def test_adjacent_sentinels_are_one_gap(self):
        g = parse_gapped("? 1\n? 2\n0.5 A\n? 1\n? 1\n")
        assert g.gaps() == [(0, 3), (4, 2)]
        assert serialize_gapped(g) == f"{GAPPED_HEADER}\n? 3\n0.5 A\n? 2\n"

    @pytest.mark.parametrize("count", [str(sys.maxsize + 1), "9" * 20, "9" * 5000])
    def test_lost_count_past_the_longest_list_is_malformed_at_its_line(self, count):
        with pytest.raises(MalformedLine, match="expected `\\? <missing_count>`") as exc:
            parse_gapped(f"0.5 A\n? {count}\n")
        assert exc.value.line_no == 2

    def test_every_event_lost_is_refused(self):
        with pytest.raises(DegenerateInput, match="at least one surviving event"):
            parse_gapped(f"{GAPPED_HEADER}\n? 2\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_timestamp_that_is_not_finite_is_refused_at_its_line(self, value):
        with pytest.raises(MalformedLine, match="finite") as exc:
            parse_gapped(f"0.1 A\n? 2\n{value} B\n")
        assert exc.value.line_no == 3

    def test_bad_sentinel(self):
        with pytest.raises(MalformedLine):
            parse_gapped("? zero\n")
        with pytest.raises(MalformedLine):
            parse_gapped("? 0\n")
        with pytest.raises(MalformedLine):
            parse_gapped("0.1 A\n? \u00b2\n")  # a digit that int() does not read
