import hashlib
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from tracekit import cli
from tracekit import markov
from tracekit.core import (
    Dictionary,
    Event,
    EventId,
    Trace,
    build_dictionary,
    decode_index,
    pick_most_frequent,
)
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


class PerSymbolTrie:
    """The trie with one node per context and one symbol per edge, as the
    model stood before chains. Its ``learn_trace`` and ``predict_next`` are
    the reference that the chain trie must agree with; its ``labels`` read
    it as a trie of one-symbol chains."""

    def __init__(self, order_n, dictionary):
        self.order_n, self.dictionary = order_n, dictionary
        self.children, self.counts = [{}], [{}]

    @property
    def labels(self):
        labels = [()] * len(self.counts)
        for branch in self.children:
            for symbol, child in branch.items():
                labels[child] = (symbol,)
        return labels

    @property
    def state_count(self):
        return len(self.counts) - 1

    def learn_trace(self, trace):
        seq = [self.dictionary.index_of(eid) for eid in trace.ids()]
        children, counts = self.children, self.counts
        root = counts[0]
        for idx in seq:
            root[idx] = root.get(idx, 0) + 1
        for j in range(1, len(seq)):
            nxt = seq[j]
            node = 0
            for i in range(j - 1, max(j - self.order_n, 0) - 1, -1):
                branch = children[node]
                child = branch.get(seq[i])
                if child is None:
                    child = branch[seq[i]] = len(counts)
                    children.append({})
                    counts.append({})
                node = child
                successors = counts[node]
                successors[nxt] = successors.get(nxt, 0) + 1

    def predict_next(self, context):
        node = 0
        for eid in reversed(context[-self.order_n :]):
            child = self.children[node].get(self.dictionary.index_of(eid))
            if child is None:
                break
            node = child
        by_id = {decode_index(idx, self.dictionary): c for idx, c in self.counts[node].items()}
        return pick_most_frequent(by_id, self.dictionary)


def expanded(model):
    """The ``PerSymbolTrie`` of a chain trie: each chain of K contexts becomes
    K nodes with the chain's counts, each a child of the one before."""
    trie = PerSymbolTrie(model.order_n, model.dictionary)
    trie.counts[0] = model.counts[0]
    stack = [(0, 0)]  # (a chain node, the trie node of its last context)
    while stack:
        node, end = stack.pop()
        for child in model.children[node].values():
            last = end
            for symbol in model.labels[child]:
                trie.children[last][symbol] = len(trie.counts)
                last = len(trie.counts)
                trie.children.append({})
                trie.counts.append(model.counts[child])
            stack.append((child, last))
    return trie


def table_by_ids(model):
    """Every context of a chain trie as a k-gram of ids mapped to its
    successor counts."""
    table, labels = {}, model.labels
    stack = [(0, ())]  # (node, its last context read backwards from the last id)
    while stack:
        node, backwards = stack.pop()
        for child in model.children[node].values():
            label = labels[child]
            successors = {
                decode_index(s, model.dictionary): c for s, c in model.counts[child].items()
            }
            for k in range(1, len(label) + 1):
                context = backwards + label[:k]
                table[tuple(decode_index(i, model.dictionary) for i in reversed(context))] = (
                    successors
                )
            stack.append((child, backwards + label))
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


ROOT = 3  # body line of node line 0; node line k is on line ROOT + k

# TestSerialization.make_model's file: a line runs on through each only
# child with its parent's counts, as `n 1 C B B:1` does.
MAKE_MODEL_TEXT = """\
tracekit-markov v3
order 3
vocab A B C D
n - - A:5,B:5,C:2,D:2
n 0 A B:3,C:1,D:1
n 1 B C:1,D:1
n 2 C D:1
n 1 C B B:1
n 1 D B B:1
n 0 B A:2,C:1,D:1
n 6 A C:1,D:1
n 7 C D:1
n 6 C A A:1
n 0 C A:1,B:1
n 10 A B B:1
n 10 B A A:1
n 0 D B A A:1
# sha256 d1e29588f157cd67c66cfa966115df564be1e5e8227a528ef31dcde40b5c9474
"""

# Malformed successor fields, each with its error message.
BAD_SUCCESSORS = {
    "unknown successor id": ("Z:1", "unknown id 'Z' in successors"),
    "zero count": ("D:0", "non-positive count"),
    "negative count": ("D:-1", "non-positive count"),
    "non-integer count": ("D:1.5", "malformed successors"),
    "non-root node without successors": ("", "malformed successors"),
    "repeated successor": ("D:1,D:1", "duplicate successor"),
}

# Edits of TestSerialization.make_model's file that keep a valid checksum
# but break the header or the node list, each with its error message.
# Node line 2 is `n 1 B ...`, line 3 is `n 2 C D:1`, line 4 is `n 1 C B B:1`
# and line 13 is `n 0 D B A A:1` (see MAKE_MODEL_TEXT).
BAD_BODIES = {
    "parent is the node itself": (set_line(ROOT + 2, "n 2 B C:1,D:1"),
                                  "node 2: parent 2 is not an earlier node"),
    "parent after the node": (set_line(ROOT + 2, "n 5 B C:1,D:1"),
                              "node 2: parent 5 is not an earlier node"),
    "unknown symbol id": (set_line(ROOT + 1, "n 0 Z B:3,C:1,D:1"), "node 1: unknown id 'Z'"),
    "duplicate parent and symbol": (lambda lines: lines + [lines[ROOT + 1]], "duplicate child"),
    "depth above order": (set_line(1, "order 2"), "depth 3 exceeds order"),
    "bad first line": (set_line(0, "tracekit-markov"), "bad header"),
    "no order line": (lambda lines: lines[:1] + lines[2:], "lacks order, vocab or root lines"),
    "no vocab line": (lambda lines: lines[:2] + lines[3:], "lacks order, vocab or root lines"),
    "non-integer order": (set_line(1, "order two"), "malformed model header"),
    "order 0": (set_line(1, "order 0"), "order must be >= 1, got 0"),
    "node line of 3 fields": (set_line(ROOT + 3, "n 2 C"), "malformed node line 3"),
    "node line with no symbol": (set_line(ROOT + 3, "n 2 D:1"), "malformed node line 3"),
    "unknown id inside a chain": (set_line(ROOT + 13, "n 0 D Z A A:1"), "node 13: unknown id 'Z'"),
    "chain past the order": (set_line(ROOT + 13, "n 0 D B A B A:1"),
                             "node 13: depth 4 exceeds order"),
    "duplicate first symbol of a chain": (set_line(ROOT + 5, "n 1 C A B:1"),
                                          "node 5: duplicate child 'C' of 1"),
    "first node is not the root": (set_line(ROOT, "n 0 - A:1"), "first node line is not the root"),
    "non-integer parent": (set_line(ROOT + 3, "n x C D:1"), "node 3: bad parent 'x'"),
    **{name: (set_line(ROOT + 3, f"n 2 C {field}"), message)
       for name, (field, message) in BAD_SUCCESSORS.items()},
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

    def test_lowercase_vocab_loads_uppercase(self):
        model = self.make_model()
        text = model.to_text()
        assert text.splitlines()[2] == "vocab A B C D"
        again = MarkovModel.from_text(resign(text, set_line(2, "vocab a b c d")))
        assert again.dictionary == model.dictionary
        assert again.to_text() == text

    def test_empty_file_rejected(self):
        expected = f"bad header: '', expected `tracekit-markov v{_FORMAT_VERSION}`"
        with pytest.raises(CorruptModel, match=re.escape(expected)):
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

    def test_v2_file_rejected(self):
        # One line per node, as the format stood before chains.
        v2_body = "tracekit-markov v2\norder 2\nvocab A B\nn - - A:2,B:1\nn 0 A B:1\nn 1 A B:1\n"
        v2_text = resign(v2_body + "# sha256 -\n", lambda lines: lines)
        with pytest.raises(VersionMismatch, match="retrain with `tracekit train-markov`"):
            MarkovModel.from_text(v2_text)

    def test_text_is_pinned(self):
        assert self.make_model().to_text() == MAKE_MODEL_TEXT

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


class TestChains:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_round_trip_bound_and_maximal_chains(self, data):
        seqs = [data.draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=60))
                for _ in range(data.draw(st.integers(1, 4)))]
        order = data.draw(st.integers(1, 45))
        traces = [trace_of(*s) for s in seqs]
        model = learn(traces, order)
        text = model.to_text()
        again = MarkovModel.from_text(text)
        # A learned trie numbers its nodes in insertion order, a loaded one
        # in pre-order, so compare contexts, not node lists.
        assert table_by_ids(again) == table_by_ids(model)
        assert again.counts[0] == model.counts[0]
        assert again.to_text() == text
        node_lines = text.splitlines()[3:-1]
        events = sum(map(len, seqs))
        assert len(node_lines) <= 2 * events + len(traces) * order + 1
        # Follow each line down the learned trie, one context per symbol: it
        # must end where a context branches, stops, or hands its only child
        # different counts.
        trie = expanded(model)
        ends = [0]
        for line in node_lines[1:]:
            _, parent, *symbols, _ = line.split(" ")
            node = ends[int(parent)]
            for token in symbols:
                node = trie.children[node][model.dictionary.index_of(token)]
            ends.append(node)
            kids = list(trie.children[node].values())
            assert not (len(kids) == 1 and trie.counts[kids[0]] == trie.counts[node])


def token_sorted_text(trie):
    """The reference writer of a ``PerSymbolTrie``: it sorts each node's
    successors and children by comparing their id tokens, and, below the
    root, runs a line on through every only child whose counts equal its
    parent's."""
    tokens = [decode_index(i, trie.dictionary) for i in range(trie.dictionary.size)]
    children, counts = trie.children, trie.counts

    def successors(node):
        ordered = sorted(counts[node].items(), key=lambda kv: tokens[kv[0]])
        return ",".join(f"{tokens[idx]}:{c}" for idx, c in ordered)

    lines = [
        f"tracekit-markov v{_FORMAT_VERSION}",
        f"order {trie.order_n}",
        "vocab " + " ".join(trie.dictionary.ids),
    ]

    def write(node, parent, symbols):
        while node and len(children[node]) == 1:
            (symbol, child), = children[node].items()
            if counts[child] != counts[node]:
                break
            symbols, node = symbols + [tokens[symbol]], child
        position = len(lines) - 3
        lines.append(f"n {parent} {' '.join(symbols)} {successors(node)}")
        for token, child in sorted((tokens[sym], child) for sym, child in children[node].items()):
            write(child, position, [token])

    write(0, "-", ["-"])
    body = "\n".join(lines) + "\n"
    return body + f"# sha256 {hashlib.sha256(body.encode('utf-8')).hexdigest()}\n"


# Dictionary ids whose token order (10, 9, A, B, OTHER, Z) no dictionary
# order shares, since OTHER is always the last index; trace ids add a
# lowercase spelling, the reserved OTHER and an id outside the dictionary.
WRITER_DICT_IDS = ("9", "10", "A", "B", "Z")
WRITER_TRACE_IDS = ("9", "10", "A", "b", "z", "OTHER", "Q")


class TestWriterOrder:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_the_token_sorting_writer(self, data):
        dictionary = Dictionary(tuple(data.draw(st.permutations(WRITER_DICT_IDS))))
        n_traces = data.draw(st.integers(1, 3))
        traces = [
            trace_of(*data.draw(st.lists(st.sampled_from(WRITER_TRACE_IDS),
                                         min_size=8, max_size=40)))
            for _ in range(n_traces)
        ]
        model = learn_transitions(traces, data.draw(st.integers(1, 6)), dictionary)
        # Below the root too, some context has several successors and some
        # several children, so both sorted paths run besides the direct ones.
        trie = expanded(model)
        assume(any(len(c) > 1 for c in trie.counts[1:]))
        assume(any(len(k) > 1 for k in trie.children[1:]))
        assert model.to_text() == token_sorted_text(trie)


class TestChainTrie:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_agrees_with_the_per_symbol_trie(self, data):
        dictionary = Dictionary(tuple(data.draw(st.permutations(WRITER_DICT_IDS))))
        seqs = [data.draw(st.lists(st.sampled_from(WRITER_TRACE_IDS), min_size=1, max_size=60))
                for _ in range(data.draw(st.integers(1, 4)))]
        order = data.draw(st.integers(1, 45))
        traces = [trace_of(*s) for s in seqs]
        model = learn_transitions(traces, order, dictionary)
        reference = PerSymbolTrie(order, dictionary)
        for trace in traces:
            reference.learn_trace(trace)
        assert table_by_ids(model) == table_by_ids(reference)
        assert model.state_count == reference.state_count
        assert model.to_text() == token_sorted_text(reference)
        # Every node is a maximal chain.
        for kids, successors in zip(model.children[1:], model.counts[1:]):
            assert not (len(kids) == 1 and model.counts[next(iter(kids.values()))] == successors)
        # Random contexts rarely reach past a chain's first context; windows
        # of the training traces stop inside chains, and a changed id in a
        # window leaves a chain midway.
        context_ids = st.lists(st.sampled_from(WRITER_TRACE_IDS), max_size=50)
        contexts = data.draw(st.lists(context_ids, max_size=4))
        for seq in seqs:
            start = data.draw(st.integers(0, len(seq) - 1))
            window = seq[start : data.draw(st.integers(start + 1, len(seq)))]
            at = data.draw(st.integers(0, len(window) - 1))
            changed = window[:at] + [data.draw(st.sampled_from(WRITER_TRACE_IDS))] + window[at + 1 :]
            contexts += [window, changed]
        loaded = MarkovModel.from_text(model.to_text())
        for context in contexts:
            expected = reference.predict_next(context)
            assert model.predict_next(context) == expected
            assert loaded.predict_next(context) == expected


# MAKE_MODEL_TEXT's last line, `n 0 D B A A:1`, split by hand into lines
# whose only child line has equal counts.
HAND_SPLIT_TAILS = {
    "in two": ["n 0 D B A:1", "n 13 A A:1"],
    "in three": ["n 0 D A:1", "n 13 B A:1", "n 14 A A:1"],
}


class TestHandSplitChains:
    @pytest.mark.parametrize("tail", HAND_SPLIT_TAILS.values(), ids=HAND_SPLIT_TAILS.keys())
    def test_loads_predicts_and_resaves_canonically(self, tail):
        assert MAKE_MODEL_TEXT.splitlines()[-2] == "n 0 D B A A:1"
        split = MarkovModel.from_text(resign(MAKE_MODEL_TEXT, lambda lines: lines[:-1] + tail))
        canonical = MarkovModel.from_text(MAKE_MODEL_TEXT)
        assert len(split.counts) == len(canonical.counts) + len(tail) - 1
        assert split.state_count == canonical.state_count
        for k in range(5):
            for context in itertools.product("ABCDZ", repeat=k):
                assert split.predict_next(context) == canonical.predict_next(context)
        assert split.to_text() == MAKE_MODEL_TEXT


def motif_traces():
    rng = random.Random(5)
    ids = [eid for _ in range(120) for eid in rng.choice(["ABAC", "ABD", "AEF", "ABACD"])]
    return [trace_of(*ids)]


def motif_model(order_n=20):
    """A model of thousands of nodes whose successor fields repeat often."""
    return learn(motif_traces(), order_n=order_n)


def kept_bytes(build):
    """``build()``, and the bytes its result holds by ``tracemalloc``."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = build()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before


class TestMemory:
    # On CPython 3.11, the motif model at order 40 (12,059 contexts in 741
    # node lines) holds about 570 B per node line, learned or read back. With
    # one node per context it held about 7,900 B per line.
    BYTES_PER_LINE = 1500

    def test_a_model_holds_memory_per_line_not_per_context(self):
        traces = motif_traces()
        dictionary = build_dictionary(traces)
        model, learned = kept_bytes(lambda: learn_transitions(traces, 40, dictionary))
        text = model.to_text()
        lines = len(successor_fields(text))
        assert model.state_count >= 10 * lines
        again, read = kept_bytes(lambda: MarkovModel.from_text(text))
        assert again.state_count == model.state_count
        assert learned < self.BYTES_PER_LINE * lines
        assert read < self.BYTES_PER_LINE * lines


def successor_fields(text):
    return [line.split(" ")[-1] for line in text.splitlines()[3:-1]]


class TestParseCache:
    def test_parses_each_distinct_successor_field_once(self, monkeypatch):
        text = motif_model().to_text()
        calls = []
        parse_counts = markov._parse_counts

        def counting_parse_counts(field_text, index):
            calls.append(field_text)
            return parse_counts(field_text, index)

        monkeypatch.setattr(markov, "_parse_counts", counting_parse_counts)
        again = MarkovModel.from_text(text)
        assert sorted(calls) == sorted(set(successor_fields(text)))
        assert 10 * len(calls) < again.state_count
        assert again.to_text() == text

    def test_every_node_owns_its_counts(self):
        dictionary = build_dictionary([trace_of(*"ABACDEF")])
        first, second = trace_of(*"ABACABACABDABAC"), trace_of(*"ABACAEFABACD")
        loaded = MarkovModel.from_text(
            learn_transitions([first], 4, dictionary).to_text()
        )
        loaded.learn_trace(second)
        both = learn_transitions([first, second], 4, dictionary)
        assert loaded.to_text() == both.to_text()

    @pytest.mark.parametrize("field, message", BAD_SUCCESSORS.values(),
                             ids=BAD_SUCCESSORS.keys())
    def test_bad_field_on_the_last_line_is_still_rejected(self, field, message):
        text = motif_model().to_text()
        assert len(successor_fields(text)) > 500

        def break_last_node(lines):
            parts = lines[-1].split(" ")
            return lines[:-1] + [" ".join(parts[:-1] + [field])]

        with pytest.raises(CorruptModel, match=re.escape(message)):
            MarkovModel.from_text(resign(text, break_last_node))
