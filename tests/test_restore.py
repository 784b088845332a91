import numpy as np
import pytest

from tracekit.core import Event, EventId, Trace, decode_index, encode_ids
from tracekit.errors import InvalidFraction, MalformedLine
from tracekit.lstm import forward_window
from tracekit.markov import learn_transitions
from tracekit.restore import (
    GAPPED_HEADER,
    Gap,
    GappedTrace,
    LossSpec,
    Run,
    gapped_from_flags,
    inject_loss,
    parse_gapped,
    predict_step_by_step,
    restore_trace,
    serialize_gapped,
)


def trace_of(*ids, label=""):
    return Trace(tuple(Event(EventId(i), t * 0.1) for t, i in enumerate(ids)), label=label)


class TestGappedTrace:
    def test_alternation_enforced(self):
        with pytest.raises(ValueError):
            GappedTrace((Gap(1), Gap(2)))

    def test_bookkeeping(self):
        g = GappedTrace(
            (
                Run((Event(EventId("A"), 0.0),)),
                Gap(2),
                Run((Event(EventId("B"), 0.3), Event(EventId("C"), 0.4))),
            )
        )
        assert g.missing_total() == 2
        assert g.original_length() == 5
        assert g.gaps() == [(1, 2)]
        assert [str(e.id) for e in g.known_events()] == ["A", "B", "C"]

    def test_from_flags(self):
        trace = trace_of(*"ABCDE")
        g = gapped_from_flags(trace.events, [False, True, True, False, True])
        assert g.gaps() == [(1, 2), (4, 1)]
        assert g.original_length() == 5


class TestInjectLoss:
    def test_zero_fraction_identity(self):
        trace = trace_of(*"ABCD")
        g = inject_loss(trace, LossSpec(fraction=0.0, seed=1))
        assert g.missing_total() == 0
        assert g.known_trace().events == trace.events

    def test_exact_budget(self):
        trace = trace_of(*(["A"] * 1000))
        g = inject_loss(trace, LossSpec(fraction=0.25, seed=2))
        assert g.missing_total() == 250
        assert len(g.known_events()) == 750

    def test_deterministic_under_seed(self):
        trace = trace_of(*(["A", "B"] * 100))
        a = inject_loss(trace, LossSpec(fraction=0.2, seed=3))
        b = inject_loss(trace, LossSpec(fraction=0.2, seed=3))
        c = inject_loss(trace, LossSpec(fraction=0.2, seed=4))
        assert a.gaps() == b.gaps()
        assert a.gaps() != c.gaps()

    def test_burst_mode_contiguity(self):
        trace = trace_of(*(["A"] * 200))
        g = inject_loss(trace, LossSpec(fraction=0.1, mode="burst", burst_length=5, seed=5))
        assert g.missing_total() == 20
        sizes = [count for _, count in g.gaps()]
        # bursts may merge when adjacent, but each is at least burst_length
        # except a truncated final one
        assert sum(sizes) == 20
        assert max(sizes) >= 5

    def test_invalid_fraction(self):
        with pytest.raises(InvalidFraction):
            LossSpec(fraction=1.0)
        with pytest.raises(InvalidFraction):
            LossSpec(fraction=-0.1)


class TestRestore:
    @pytest.fixture()
    def cyclic_model(self):
        return learn_transitions([trace_of(*"ABAB" * 12)], order_n=2)

    def test_zero_gap_identity(self, cyclic_model):
        trace = trace_of(*"ABAB")
        g = inject_loss(trace, LossSpec(fraction=0.0, seed=0))
        assert restore_trace(cyclic_model, g).events == trace.events

    def test_cyclic_gap_restored_exactly(self, cyclic_model):
        trace = trace_of(*"ABABABAB")
        g = gapped_from_flags(trace.events, [False, False, True, True] + [False] * 4)
        restored = restore_trace(cyclic_model, g)
        assert [str(e.id) for e in restored.events] == list("ABABABAB")
        assert len(restored) == g.original_length()

    def test_known_events_untouched(self, cyclic_model):
        trace = trace_of(*"ABABABABAB")
        g = inject_loss(trace, LossSpec(fraction=0.3, seed=7))
        restored = restore_trace(cyclic_model, g)
        kept = iter(g.known_events())
        flags = []
        pos = 0
        for seg in g.segments:
            if isinstance(seg, Run):
                for ev in seg.events:
                    assert restored.events[pos] == ev
                    pos += 1
            else:
                pos += seg.missing_count
        assert len(restored) == len(trace)

    def test_timestamps_interpolated_and_monotone(self, cyclic_model):
        trace = trace_of(*"ABABAB")
        g = gapped_from_flags(trace.events, [False, True, True, True, False, False])
        restored = restore_trace(cyclic_model, g)
        times = [e.timestamp for e in restored.events]
        assert times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])

    def test_restoration_deterministic(self, cyclic_model):
        trace = trace_of(*"ABABABAB")
        g = inject_loss(trace, LossSpec(fraction=0.25, seed=9))
        r1 = restore_trace(cyclic_model, g)
        r2 = restore_trace(cyclic_model, g)
        assert r1 == r2


class TestStepByStepPrediction:
    def test_horizon_zero_empty(self, trained_cyclic_lstm):
        model, traces = trained_cyclic_lstm
        assert predict_step_by_step(model, traces[0].ids()[:10], 0) == []

    def test_cycle_continuation(self, trained_cyclic_lstm):
        model, traces = trained_cyclic_lstm
        ids = traces[-1].ids()
        cycle = 7
        horizon = 5 * cycle
        seed = ids[: 2 * cycle]
        predicted = predict_step_by_step(model, seed, horizon)
        assert predicted == ids[2 * cycle : 2 * cycle + horizon]

    def test_lstm_step_reads_the_last_unroll_window(self, trained_cyclic_lstm):
        model, traces = trained_cyclic_lstm
        ids = traces[0].ids()[:25]
        tail = ids[-model.config.unroll_steps :]
        output = forward_window(model, encode_ids(tail, model.dictionary))
        expected = decode_index(int(np.argmax(output)), model.dictionary)
        assert model.predict_next(ids) == model.predict_next(tail) == expected


class TestLstmRestore:
    def test_lstm_restores_cycle(self, trained_cyclic_lstm):
        model, traces = trained_cyclic_lstm
        trace = traces[-1]
        g = inject_loss(trace, LossSpec(fraction=0.15, seed=21))
        restored = restore_trace(model, g)
        assert len(restored) == len(trace)
        assert [str(e.id) for e in restored.events] == [str(e.id) for e in trace.events]


class TestGappedFiles:
    def test_round_trip(self):
        trace = trace_of(*"ABCDEF")
        g = gapped_from_flags(trace.events, [False, True, False, False, True, True])
        text = serialize_gapped(g)
        assert text.startswith(f"{GAPPED_HEADER}\n")
        again = parse_gapped(text)
        assert again.segments == g.segments

    def test_sentinel_parsing(self):
        g = parse_gapped("0.1 B0\n? 3\n0.5 B2\n")
        assert g.gaps() == [(1, 3)]
        assert [str(e.id) for e in g.known_events()] == ["B0", "B2"]

    def test_bad_sentinel(self):
        with pytest.raises(MalformedLine):
            parse_gapped("? zero\n")
        with pytest.raises(MalformedLine):
            parse_gapped("? 0\n")
