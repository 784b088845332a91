import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracekit.core import Dictionary, Event, EventId, Trace, build_dictionary
from tracekit.errors import DegenerateInput, LengthMismatch, UntrainedModel
from tracekit.evaluate import (
    AlignmentReport,
    align_and_classify,
    next_event_accuracy,
    render_onehot_image,
)
from tracekit.markov import learn_transitions


def ids(*tokens):
    return [EventId(t) for t in tokens]


class TestAlignmentFixtures:
    """The three worked examples of hand-scored rollout segments."""

    def test_proper_alignment(self):
        segment = ids("2C6", "5D7", "B0", "224", "B2", "20", "B4", "25", "22", "23")
        report = align_and_classify(segment, segment)
        assert report.correct == 10
        assert report.omissions == 0
        assert report.ordering_mistakes == 0
        assert report.substitutions == 0

    def test_omitted_rare_event(self):
        predicted = ids("B4", "25", "22", "23", "B0", "320", "B2", "2D0", "2C4")
        truth = ids("B4", "25", "22", "23", "340", "B0", "320", "B2", "2D0", "2C4")
        report = align_and_classify(predicted, truth)
        assert report.omissions == 1
        assert report.ordering_mistakes == 0
        assert report.substitutions == 0
        assert report.correct == 9

    def test_local_ordering_mistake(self):
        predicted = ids("25", "22", "23", "2C6", "B0", "320", "B2", "2C4", "20", "223")
        truth = ids("25", "22", "23", "2C4", "2C6", "B0", "320", "B2", "20", "223")
        report = align_and_classify(predicted, truth)
        assert report.omissions == 0
        assert report.ordering_mistakes == 1
        assert report.substitutions == 0
        assert report.correct == 9


class TestAlignmentProperties:
    @given(st.lists(st.sampled_from("ABCDE"), min_size=4, max_size=60))
    def test_identity_alignment(self, tokens):
        seq = ids(*tokens)
        report = align_and_classify(seq, seq)
        assert report.correct == len(seq)
        assert report.omissions == report.ordering_mistakes == report.substitutions == 0

    @settings(deadline=None)
    @given(st.data())
    def test_single_deletion_is_one_omission(self, data):
        tokens = data.draw(st.lists(st.sampled_from("ABCDE"), min_size=8, max_size=50))
        # Deletion site must be followed by >= lookahead matching events.
        pos = data.draw(st.integers(0, len(tokens) - 5))
        truth = ids(*tokens)
        predicted = truth[:pos] + truth[pos + 1 :]
        report = align_and_classify(predicted, truth)
        assert report.omissions == 1
        assert report.substitutions == 0
        assert report.correct == len(predicted)

    @settings(deadline=None)
    @given(st.data())
    def test_single_insertion_is_one_substitution(self, data):
        tokens = data.draw(st.lists(st.sampled_from("ABCDE"), min_size=4, max_size=50))
        pos = data.draw(st.integers(0, len(tokens)))
        truth = ids(*tokens)
        predicted = truth[:pos] + ids("X") + truth[pos:]
        report = align_and_classify(predicted, truth)
        assert report.substitutions == 1
        assert report.omissions == report.ordering_mistakes == 0
        assert report.correct == len(truth)
        assert report.total == len(truth) + 1

    @settings(deadline=None)
    @given(st.data())
    def test_single_forward_move_is_one_ordering_mistake(self, data):
        # Unique symbols keep the displaced element unambiguous.
        size = data.draw(st.integers(14, 26))
        base = [f"E{i}" for i in range(size)]
        pos = data.draw(st.integers(0, size - 11))
        shift = data.draw(st.integers(1, 9))
        truth = ids(*base)
        moved = truth.copy()
        item = moved.pop(pos)
        moved.insert(pos + shift, item)
        report = align_and_classify(moved, truth)
        assert report.ordering_mistakes == 1
        assert report.omissions == 0
        assert report.substitutions == 0

    def test_substitution_fallback(self):
        truth = ids("A", "B", "C", "D", "E")
        predicted = ids("A", "X", "C", "D", "E")
        report = align_and_classify(predicted, truth)
        assert report.substitutions == 1
        assert report.correct == 4

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            align_and_classify(ids("A", "B"), ids("A", "B", "C", "D", "E"))

    def test_plain_and_lowercase_strings_are_normalized(self):
        truth = ids("A", "B", "C", "D", "E", "F")
        as_ids = align_and_classify(ids("A", "B", "X", "D", "E", "F"), truth)
        mixed = ["a", "B", " x ", EventId("d"), "e", "F"]
        assert align_and_classify(mixed, ["a", "b", "c", "d", "e", "f"]) == as_ids
        assert as_ids.correct == 5 and as_ids.substitutions == 1
        with pytest.raises(ValueError, match="whitespace"):
            align_and_classify(["a b", *"BCDEF"], truth)

    def test_rates(self):
        report = AlignmentReport(
            total=100, correct=90, omissions=5, ordering_mistakes=2, substitutions=3
        )
        assert report.omission_rate == pytest.approx(0.05)
        assert report.accuracy == pytest.approx(0.9)


class TestRender:
    def test_single_event_raster(self, tmp_path):
        d = Dictionary((EventId("A"), EventId("B")))
        render_onehot_image([EventId("A")], d, tmp_path / "r.pgm")
        assert (tmp_path / "r.pgm").read_bytes() == b"P2\n1 3\n1\n1\n0\n0\n"

    def test_byte_identical_output(self, tmp_path):
        d = Dictionary((EventId("A"), EventId("B"), EventId("C")))
        events = ids(*"ABCCBAAB")
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        render_onehot_image(events, d, p1)
        render_onehot_image(events, d, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_dimensions(self, tmp_path):
        d = Dictionary(tuple(EventId(f"{i:X}") for i in range(43)))
        events = ids(*(f"{i % 43:X}" for i in range(100)))
        path = tmp_path / "r.pgm"
        render_onehot_image(events, d, path)
        header = path.read_bytes().split(b"\n")[:3]
        assert header == [b"P2", b"100 44", b"1"]

    def test_rejects_empty(self, tmp_path):
        d = Dictionary((EventId("A"),))
        with pytest.raises(DegenerateInput):
            render_onehot_image([], d, tmp_path / "r.pgm")
        assert not (tmp_path / "r.pgm").exists()


def shuffled_ids(length, seed, alphabet="ABCD"):
    """A reproducible pseudo-random id sequence over ``alphabet``."""
    rng = np.random.default_rng(seed)
    return [EventId(alphabet[i]) for i in rng.integers(0, len(alphabet), length)]


@pytest.fixture(params=["markov", "cyclic lstm", "random lstm"])
def scored(request):
    """A model of either family and a held-out id sequence to score it on."""
    if request.param == "markov":
        pool = [Trace(tuple(Event(e, t * 0.1) for t, e in enumerate(shuffled_ids(300, 1))))]
        return learn_transitions(pool, 3, build_dictionary(pool)), shuffled_ids(60, 2)
    if request.param == "cyclic lstm":
        model, traces = request.getfixturevalue("trained_cyclic_lstm")
        return model, traces[-1].ids()
    # D is outside the dictionary, so some windows hold OTHER.
    # 3 x unroll + 2 events, so most windows are full-length.
    model = request.getfixturevalue("random_lstm")(6)
    return model, shuffled_ids(3 * 6 + 2, 3)


def predict_next_loop(model, sequence, start):
    """The reference: ``predict_next`` over the growing true history."""
    return [model.predict_next(sequence[:k]) for k in range(start, len(sequence))]


class TestNextEventAccuracy:
    def test_walk_matches_predict_next(self, scored):
        model, sequence = scored
        for start in (0, 1, 5, 6, 7, 20, len(sequence) - 1):
            mask = [q >= start for q in range(len(sequence))]
            expected = predict_next_loop(model, sequence, start)
            assert list(model.walk(sequence, mask)) == list(enumerate(expected, start))

    def test_accuracy_counts_the_hits(self, scored):
        model, sequence = scored
        expected = predict_next_loop(model, sequence, 4)
        hits = sum(p == t for p, t in zip(expected, sequence[4:]))
        assert next_event_accuracy(model, sequence, start=4) == hits / (len(sequence) - 4)

    def test_walk_with_nothing_scored_is_empty(self, scored):
        model, sequence = scored
        assert list(model.walk(sequence, [False] * len(sequence))) == []

    @pytest.mark.parametrize("start", [0, -1, 12, 13])
    def test_start_out_of_range(self, scored, start):
        model, sequence = scored
        with pytest.raises(LengthMismatch):
            next_event_accuracy(model, sequence[:12], start=start)

    def test_untrained_lstm_rejected(self, random_lstm):
        model = random_lstm(6)
        model.event_freq = {}
        with pytest.raises(UntrainedModel):
            next_event_accuracy(model, shuffled_ids(10, 4, "ABC"), start=2)
