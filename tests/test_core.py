from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tracekit
from tracekit.core import (
    Dictionary,
    EventId,
    Trace,
    build_dictionary,
    decode_index,
    encode_ids,
    event_frequencies,
    pick_most_frequent,
)
from tracekit.errors import EmptyTrainingSet, IndexOutOfRange


def trace_of(*ids, label=""):
    return Trace(ids, [t * 0.1 for t in range(len(ids))], label)


# Whitespace by str.isspace() that is easy to miss: the C0 separators, NEL,
# no-break space, line separator and ideographic space, besides space and tab.
SPACES = "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000 \t"


class TestEventId:
    def test_uppercase_normalization(self):
        assert EventId("b0") == "B0"
        assert EventId(" 2c6 ") == "2C6"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EventId("")
        with pytest.raises(ValueError):
            EventId("   ")

    def test_behaves_like_str(self):
        assert EventId("B0") in {"B0"}
        assert sorted([EventId("B2"), EventId("B0")]) == ["B0", "B2"]

    @settings(max_examples=300)
    @given(st.text(st.sampled_from(SPACES + "b0Zß") | st.characters(), max_size=6))
    def test_rejects_exactly_empty_or_spaced_tokens(self, raw):
        token = raw.strip().upper()
        if not token or any(ch.isspace() for ch in token):
            with pytest.raises(ValueError):
                EventId(raw)
        else:
            assert EventId(raw) == token


class TestTrace:
    def test_timestamp_validation(self):
        with pytest.raises(ValueError):
            Trace(("B0",), (-1.0,))
        with pytest.raises(ValueError):
            Trace(("B0",), (float("nan"),))
        with pytest.raises(TypeError):
            Trace(("B0",))
        with pytest.raises(ValueError):
            Trace(("B0",), ())

    def test_int_timestamp_is_stored_as_a_float_and_fields_are_frozen(self):
        trace = Trace(("B0",), (1,))
        assert trace.time_column == array("d", [1.0])
        assert type(trace.time_column) is array and trace.time_column.typecode == "d"
        assert type(trace.time_column[0]) is float
        with pytest.raises(AttributeError):
            trace.time_column = array("d", [2.0])

    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(ValueError):
            Trace(("A", "B"), (0.2, 0.1))


class TestDictionary:
    def test_first_occurrence_order(self):
        d = build_dictionary([trace_of("B0", "B2", "B0")])
        assert d.ids == ("B0", "B2")
        assert d.size == 3
        assert d.other_index == 2

    def test_43_ids_gives_v44(self):
        d = build_dictionary([trace_of(*[f"{i:X}" for i in range(43)])])
        assert d.size == 44

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            build_dictionary([])
        with pytest.raises(EmptyTrainingSet):
            build_dictionary([Trace((), ())])

    def test_other_is_reserved(self):
        d = build_dictionary([trace_of("B0", "OTHER", "b2", "other")])
        assert d.ids == ("B0", "B2")
        assert d.index_of("OTHER") == d.other_index
        with pytest.raises(EmptyTrainingSet):
            build_dictionary([trace_of("OTHER")])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Dictionary((EventId("A"), EventId("A")))
        with pytest.raises(ValueError):  # would alias the OTHER slot
            Dictionary((EventId("A"), EventId("OTHER")))

    @given(st.sampled_from(["b0", "2c6", "a", "7f"]), st.sampled_from(list(SPACES)))
    def test_index_of_agrees_for_ids_and_plain_strings(self, raw, pad):
        d = Dictionary((EventId("2C6"), EventId("B0"), EventId("A")))
        index = d.index_of(EventId(raw))
        assert index == d.index_of(raw) == d.index_of(pad + raw + pad)
        assert index == (d.ids.index(raw.upper()) if raw.upper() in d.ids else d.other_index)

    def test_deterministic(self):
        traces = [trace_of("B0", "B2"), trace_of("2C6", "B0")]
        assert build_dictionary(traces).ids == build_dictionary(traces).ids


class TestEncoding:
    def test_one_hot_position(self):
        d = Dictionary((EventId("A"), EventId("B"), EventId("C")))
        mat = encode_ids([EventId("C")], d)
        assert mat.tolist() == [[0.0, 0.0, 1.0, 0.0]]

    def test_unknown_id_maps_to_other(self):
        d = build_dictionary([trace_of(*[f"{i:X}" for i in range(43)])])
        (vec,) = encode_ids([EventId("FFF")], d)
        assert vec[43] == 1.0
        assert vec.sum() == 1.0

    def test_exactly_one_active_element(self):
        d = build_dictionary([trace_of(*[f"{i:X}" for i in range(43)])])
        (vec,) = encode_ids([EventId("5")], d)
        assert (vec == 0.0).sum() == 43
        assert (vec == 1.0).sum() == 1

    def test_encode_ids_matrix(self):
        d = Dictionary((EventId("A"), EventId("B")))
        mat = encode_ids([EventId("A"), EventId("B"), EventId("Z")], d)
        assert mat.shape == (3, 3)
        assert mat.argmax(axis=1).tolist() == [0, 1, 2]

    def test_decode(self):
        d = Dictionary((EventId("B0"), EventId("B2")))
        assert decode_index(0, d) == "B0"
        assert decode_index(2, d) == "OTHER"
        with pytest.raises(IndexOutOfRange):
            decode_index(5, d)
        with pytest.raises(IndexOutOfRange):
            decode_index(-1, d)

    @given(st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=30))
    def test_round_trip(self, ids):
        d = build_dictionary([trace_of(*ids)])
        mat = encode_ids(d.ids, d)
        assert mat.shape == (len(d.ids), d.size)
        assert [decode_index(int(i), d) for i in np.argmax(mat, axis=1)] == list(d.ids)


class TestFrequencies:
    def test_pick_most_frequent_tie_breaks_by_index(self):
        d = Dictionary((EventId("A"), EventId("B"), EventId("C")))
        counts = {EventId("C"): 3, EventId("B"): 3, EventId("A"): 1}
        assert pick_most_frequent(counts, d) == "B"

    def test_event_frequencies(self):
        d = Dictionary((EventId("A"), EventId("B")))
        freq = event_frequencies([trace_of("A", "B", "A")], d)
        assert freq == {"A": 2, "B": 1}
        # Ids outside the dictionary pool as OTHER.
        freq = event_frequencies([trace_of("7F", "A", "7E", "OTHER")], Dictionary(("A",)))
        assert freq == {"A": 1, "OTHER": 3}


def test_every_public_name_resolves():
    assert tracekit.__all__
    for name in tracekit.__all__:
        getattr(tracekit, name)  # an AttributeError names the missing export
