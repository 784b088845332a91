import hashlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from tracekit import cli
from tracekit.core import Dictionary, Event, EventId, Trace, build_dictionary
from tracekit.errors import CorruptModel, EmptyTrainingSet, UntrainedModel, VersionMismatch
from tracekit.ingest import write_trace
from tracekit.markov import _FORMAT_VERSION, MarkovModel, learn_transitions
from tracekit.restore import GappedTrace, restore_trace
from tracekit.synth import GeneratorSpec, PeriodicMessage, generate_trace


def trace_of(*ids, label=""):
    return Trace(tuple(Event(EventId(i), t * 0.1) for t, i in enumerate(ids)), label=label)


def learn(traces, order_n):
    """``learn_transitions`` with the pool's own dictionary."""
    return learn_transitions(traces, order_n, build_dictionary(traces))


def table_by_ids(model):
    """Every trie path as a k-gram of ids mapped to its successor counts."""
    from tracekit.core import decode_index

    table = {}
    stack = [(0, ())]  # (node, its context read backwards from the last id)
    while stack:
        node, backwards = stack.pop()
        if node:
            table[tuple(decode_index(i, model.dictionary) for i in reversed(backwards))] = {
                decode_index(s, model.dictionary): c for s, c in model.counts[node].items()
            }
        for symbol, child in model.children[node].items():
            stack.append((child, backwards + (symbol,)))
    return table


def history_search_oracle(train_sequences, context, order_n, dictionary):
    """Rescan the raw training data for the most common successor of the
    maximal matching suffix; the model must agree with this everywhere."""
    for k in range(min(order_n, len(context)), 0, -1):
        suffix = list(context[-k:])
        counts = {}
        for seq in train_sequences:
            for i in range(len(seq) - k):
                if list(seq[i : i + k]) == suffix:
                    nxt = seq[i + k]
                    counts[nxt] = counts.get(nxt, 0) + 1
        if counts:
            return min(counts, key=lambda e: (-counts[e], dictionary.index_of(e)))
    counts = {}
    for seq in train_sequences:
        for e in seq:
            counts[e] = counts.get(e, 0) + 1
    return min(counts, key=lambda e: (-counts[e], dictionary.index_of(e)))


class TestLearning:
    def test_hand_traced_order2_table(self):
        model = learn([trace_of(*"ABABAB")], order_n=2)
        table = table_by_ids(model)
        assert table == {
            ("A", "B"): {"A": 2},
            ("B", "A"): {"B": 2},
            ("A",): {"B": 3},
            ("B",): {"A": 2},
        }

    def test_order1_self_loop(self):
        model = learn([trace_of("A", "A", "A")], order_n=1)
        assert table_by_ids(model) == {("A",): {"A": 2}}

    def test_default_order_is_40(self, tmp_path):
        # A run config without markov.order trains at order 40.
        (tmp_path / "pool").mkdir()
        for i in range(2):
            write_trace(trace_of(*"AB" * 30), tmp_path / "pool" / f"t{i}.trace")
        (tmp_path / "run.cfg").write_text("seed = 1\n")
        assert cli.main(["train-markov", "--config", str(tmp_path / "run.cfg"),
                         "--train", str(tmp_path / "pool"),
                         "--out", str(tmp_path / "m.model")]) == 0
        assert MarkovModel.load(tmp_path / "m.model").order_n == 40

    def test_global_freq_counts_every_event(self):
        model = learn([trace_of(*"AABAB")], order_n=2)
        assert sum(model.counts[0].values()) == 5

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            learn([], order_n=2)

    def test_no_state_spans_trace_boundaries(self):
        model = learn([trace_of("A", "B"), trace_of("C", "D")], order_n=2)
        assert ("B", "C") not in table_by_ids(model)

    def test_materialized_states_bounded(self):
        traces = [trace_of(*"ABCDE" * 8)]
        model = learn(traces, order_n=40)
        total_events = sum(len(t) for t in traces)
        assert model.state_count <= 40 * total_events


class TestPrediction:
    def test_argmax_of_table(self):
        model = learn([trace_of(*"ABA", "C", *"ABA")], order_n=2)
        # D[(A,B)] = {A: 2}
        assert model.predict_next([EventId("A"), EventId("B")]) == "A"

    def test_backoff_to_shorter_suffix(self):
        model = learn([trace_of(*"ABABAB")], order_n=2)
        # (C, A) unseen at k=2; D[(A,)] = {B: 3} answers via backoff.
        assert model.predict_next([EventId("C"), EventId("A")]) == "B"

    def test_empty_context_uses_global_frequency(self):
        model = learn([trace_of(*"AABAB")], order_n=2)
        assert model.predict_next([]) == "A"

    def test_untrained_model(self):
        d = Dictionary((EventId("A"),))
        with pytest.raises(UntrainedModel):
            MarkovModel(order_n=2, dictionary=d).predict_next([EventId("A")])

    def test_determinism(self):
        traces = [trace_of(*"ABCABD"), trace_of(*"ABCABD")]
        a = learn(traces, order_n=3)
        b = learn(traces, order_n=3)
        ctx = [EventId("A"), EventId("B")]
        assert a.predict_next(ctx) == b.predict_next(ctx)
        assert a.to_text() == b.to_text()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_oracle_equivalence(self, data):
        alphabet = "ABCDEF"
        n_traces = data.draw(st.integers(1, 3))
        seqs = [
            data.draw(st.lists(st.sampled_from(alphabet), min_size=2, max_size=80))
            for _ in range(n_traces)
        ]
        order = data.draw(st.integers(1, 8))
        traces = [trace_of(*s) for s in seqs]
        model = learn(traces, order_n=order)
        context = data.draw(st.lists(st.sampled_from(alphabet), min_size=0, max_size=20))
        loaded = MarkovModel.from_text(model.to_text())
        # Every prefix of the context, so contexts both shorter and longer
        # than the order are checked.
        for end in range(len(context) + 1):
            ids = [EventId(x) for x in context[:end]]
            expected = history_search_oracle(
                [[EventId(x) for x in s] for s in seqs],
                ids,
                order,
                model.dictionary,
            )
            assert model.predict_next(ids) == expected
            assert loaded.predict_next(ids) == expected


class TestPeriodicMastery:
    def test_full_accuracy_on_cycle(self):
        spec = GeneratorSpec(
            periodic=(
                PeriodicMessage(EventId("A"), 0.01, 0.0),
                PeriodicMessage(EventId("B"), 0.02, 0.0),
                PeriodicMessage(EventId("C"), 0.04, 0.0),
            ),
            duration=0.8,
            seed=0,
        )
        train_trace = generate_trace(spec)
        test_trace = generate_trace(
            GeneratorSpec(periodic=spec.periodic, duration=1.0, seed=1)
        )
        model = learn([train_trace], order_n=40)
        ids = test_trace.ids()
        cycle = 7
        hits = sum(
            model.predict_next(ids[:i]) == ids[i] for i in range(cycle, len(ids))
        )
        assert hits == len(ids) - cycle


class TestImputation:
    def test_cyclic_gap_fill(self):
        model = learn([trace_of(*"ABAB" * 10)], order_n=2)
        a, b = Event(EventId("A"), 0.0), Event(EventId("B"), 0.1)
        gapped = GappedTrace((a, b, None, None, Event(EventId("A"), 0.4)))
        restored = restore_trace(model, gapped)
        assert [str(e.id) for e in restored.events] == ["A", "B", "A", "B", "A"]
        assert [e.timestamp for e in restored.events] == pytest.approx(
            [0.0, 0.1, 0.2, 0.3, 0.4]
        )

    def test_zero_gap_identity(self):
        model = learn([trace_of(*"ABAB")], order_n=2)
        events = (Event(EventId("A"), 0.0), Event(EventId("B"), 0.1))
        assert restore_trace(model, GappedTrace(events)).events == events

    def test_leading_gap_uses_global_fallback(self):
        model = learn([trace_of(*"AAB")], order_n=2)
        gapped = GappedTrace((None, Event(EventId("A"), 0.1), Event(EventId("B"), 0.2)))
        restored = restore_trace(model, gapped)
        assert restored.events[0].id == "A"  # global most frequent


def resign(text, edit):
    """Apply ``edit`` to the body lines of a model file and recompute its checksum."""
    body = "".join(line + "\n" for line in edit(text.splitlines()[:-1]))
    return body + f"# sha256 {hashlib.sha256(body.encode('utf-8')).hexdigest()}\n"


def set_line(i, line):
    return lambda lines: lines[:i] + [line] + lines[i + 1 :]


ROOT = 3  # body line of node 0; node k is on line ROOT + k

# Edits of TestSerialization.make_model's file that keep a valid checksum
# but break the header or the node list, each with its error message.
# Node 2 is `n 1 B ...`, node 3 is `n 2 C D:1`.
BAD_BODIES = {
    "parent is the node itself": (set_line(ROOT + 2, "n 2 B C:1,D:1"),
                                  "node 2: parent 2 is not an earlier node"),
    "parent after the node": (set_line(ROOT + 2, "n 5 B C:1,D:1"),
                              "node 2: parent 5 is not an earlier node"),
    "unknown symbol id": (set_line(ROOT + 1, "n 0 Z B:3,C:1,D:1"), "node 1: unknown id 'Z'"),
    "unknown successor id": (set_line(ROOT + 3, "n 2 C Z:1"), "unknown id 'Z' in successors"),
    "duplicate parent and symbol": (lambda lines: lines + [lines[ROOT + 1]], "duplicate child"),
    "depth above order": (set_line(1, "order 2"), "depth 3 exceeds order"),
    "zero count": (set_line(ROOT + 3, "n 2 C D:0"), "non-positive count"),
    "negative count": (set_line(ROOT + 3, "n 2 C D:-1"), "non-positive count"),
    "non-integer count": (set_line(ROOT + 3, "n 2 C D:1.5"), "malformed successors"),
    "non-root node without successors": (set_line(ROOT + 3, "n 2 C "), "malformed successors"),
    "bad first line": (set_line(0, "tracekit-markov"), "bad header"),
    "no order line": (lambda lines: lines[:1] + lines[2:], "lacks order, vocab or root lines"),
    "no vocab line": (lambda lines: lines[:2] + lines[3:], "lacks order, vocab or root lines"),
    "non-integer order": (set_line(1, "order two"), "malformed model header"),
    "order 0": (set_line(1, "order 0"), "order must be >= 1, got 0"),
    "node line of 3 fields": (set_line(ROOT + 3, "n 2 C"), "malformed node line 3"),
    "first node is not the root": (set_line(ROOT, "n 0 - A:1"), "first node line is not the root"),
    "non-integer parent": (set_line(ROOT + 3, "n x C D:1"), "node 3: bad parent 'x'"),
    "repeated successor": (set_line(ROOT + 3, "n 2 C D:1,D:1"), "duplicate successor"),
}


class TestSerialization:
    def make_model(self):
        return learn(
            [trace_of(*"ABCABDAB"), trace_of(*"BACBAD")], order_n=3
        )

    def test_round_trip(self):
        model = self.make_model()
        again = MarkovModel.from_text(model.to_text())
        assert again.order_n == model.order_n
        assert again.dictionary == model.dictionary
        assert table_by_ids(again) == table_by_ids(model)
        assert again.counts[0] == model.counts[0]
        assert again.to_text() == model.to_text()

    def test_byte_stable_output(self):
        # Same transitions learned in a different trace order serialize
        # identically once the dictionary order matches.
        model = self.make_model()
        assert model.to_text() == MarkovModel.from_text(model.to_text()).to_text()
        reordered = learn_transitions(
            [trace_of(*"BACBAD"), trace_of(*"ABCABDAB")], order_n=3, dictionary=model.dictionary
        )
        assert reordered.to_text() == model.to_text()

    def test_corrupt_rejected(self, tmp_path):
        model = self.make_model()
        text = model.to_text()
        # flip one count in the body
        broken = text.replace(":1", ":2", 1)
        with pytest.raises(CorruptModel):
            MarkovModel.from_text(broken)
        # truncation loses the checksum line
        with pytest.raises(CorruptModel):
            MarkovModel.from_text("\n".join(text.splitlines()[:-1]) + "\n")

    @pytest.mark.parametrize("edit, message", BAD_BODIES.values(), ids=BAD_BODIES.keys())
    def test_malformed_node_list_rejected(self, edit, message):
        text = self.make_model().to_text()
        assert resign(text, lambda lines: lines) == text
        with pytest.raises(CorruptModel, match=re.escape(message)):
            MarkovModel.from_text(resign(text, edit))

    def test_empty_file_rejected(self):
        with pytest.raises(CorruptModel, match="empty model file"):
            MarkovModel.from_text("")

    def test_version_mismatch(self):
        text = self.make_model().to_text()
        newer = set_line(0, f"tracekit-markov v{_FORMAT_VERSION + 1}")
        with pytest.raises(VersionMismatch):
            MarkovModel.from_text(resign(text, newer))

    def test_v1_file_rejected(self):
        v1_body = "tracekit-markov v1\norder 1\nvocab A B\ng A 2\ng B 1\nt A A 1\nt A B 1\n"
        v1_text = resign(v1_body + "# sha256 -\n", lambda lines: lines)
        with pytest.raises(VersionMismatch):
            MarkovModel.from_text(v1_text)

    def test_event_named_other_is_the_other_slot(self, tmp_path):
        # `OTHER` is not a dictionary id, so the learned model and the one
        # read back from its file see the same contexts and agree.
        model = learn([trace_of("OTHER", "A", "OTHER", "A", "B")], order_n=2)
        assert model.dictionary.ids == ("A", "B")
        model.save(tmp_path / "m.model")
        again = MarkovModel.load(tmp_path / "m.model")
        assert model.predict_next(["OTHER"]) == "A"
        for context in ([], ["OTHER"], ["A"], ["OTHER", "A"], ["A", "OTHER"], ["B"], ["Z"]):
            assert again.predict_next(context) == model.predict_next(context)

    def test_save_load_file(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.model"
        model.save(path)
        again = MarkovModel.load(path)
        assert table_by_ids(again) == table_by_ids(model)
