"""Benchmark next-event model: a reversed-context trie with k-gram backoff.

Training walks every trace once. For every successor position it walks back
over at most ``order_n`` preceding events and counts the successor once for
every context it passes: the k-gram of the last k events, for each k up to
``order_n``, read backwards. Only contexts that actually occur are
materialized; the full ``d**n`` table the naive construction would imply
never exists.

The trie is path-compressed, a PATRICIA trie (Morrison, JACM 1968). A node
is a chain: a run of contexts, each one event longer than the one before,
that share one table of successor counts. Node 0 is the root: the empty
context, holding the global event frequency. Where a walk leaves a chain
midway, by another id or by stopping at the trace start or at the order, it
splits the chain in two; the rest of an unseen context becomes one new leaf.
Either way the part above has counted one more successor than the part
below. A context's counts never fall below those of a longer one, so the two
never become equal again, and every learned node is a maximal chain: one
line of the model file.

Prediction follows the last ``order_n`` context ids from the root along the
chains as far as they match. The deepest context matched is the longest
context suffix seen in training, and the counts of its chain answer, also
when the match ends inside the chain. The root's global frequency answers
when not even the last id was seen. Ties break toward the lowest dictionary
index so predictions are reproducible.

Chains store dense dictionary indices rather than id strings: equality is
unaffected (unknown ids conflate into OTHER, which never occurs inside
training states unless the training traces themselves hold unknown ids).

Serialization (format v3) is line-oriented text::

    tracekit-markov v3
    order <n>
    vocab <id> <id> ...
    n - - <succ>:<count>,...                     the root (global frequency)
    n <parent> <sym1> ... <symK> <succ>:<count>,...   one line per chain
    # sha256 <hex digest of every line above>

A line other than the root's holds a chain of K >= 1 contexts: ``<sym1>``
extends the last context of line ``<parent>`` by one event further back,
each further symbol extends the one before, and every context of the chain
has the line's successor counts. The writer writes one line per node, but
runs a line on through a node's only child while that child's counts equal
the node's. Only a model read from a hand-split file holds such a child, and
it re-saves in canonical form. So a line ends at a context that has no
children, several, or one child with different counts. Lines come in
canonical pre-order: a chain's child lines follow it, sorted by id token,
and ``<parent>`` is the position of the parent line among the node lines
(the root is 0), so it is always smaller than the line's own position.
Successors within a line are sorted by id token too, which makes model files
byte-stable. The reader builds one node per line, numbered in pre-order, and
does not expand chains. It checks each symbol: a known id, no deeper than
the order, and the first not a second child of the same symbol. The checksum
line guards against truncation and edits. v1 and v2 files (one line per
state and successor, one line per context) are refused with
``VersionMismatch``.

A file has at most ``2 * events + traces * order + 1`` node lines, so a
learned trie has at most that many nodes. Each line but the root's ends at a
distinct context. At most ``events`` of those are leaves, one per successor
position at most, and fewer branch. The rest hand their only child different
counts. Every occurrence of such a context that is not also one of its
child's must run into the start of a trace, so the context is the opening of
some trace, and there are at most ``traces * order`` of those.

A trained model has far more contexts than lines or distinct successor
fields (the benchmark's order-40 model at seed 1: 22,569 contexts in 968
lines, and 235 distinct fields), so no direction pays per-context work it
can share. The trie's memory grows with its lines, not with its contexts.
The writer ranks the id tokens once per call and orders every node's
successors and children by that integer rank, with a direct path for a node
of one successor or one child. The reader parses each distinct successor
field once and gives every node a copy of the parsed counts, so nodes never
share a dict that later training would update.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from .core import Dictionary, EventId, Trace, decode_index, pick_most_frequent
from .errors import CorruptModel, EmptyTrainingSet, UntrainedModel, VersionMismatch
from .ingest import check_format_line, read_text

_FORMAT_NAME = "tracekit-markov"
_FORMAT_VERSION = 3


@dataclass
class MarkovModel:
    """Order-n transition-frequency model over event ids.

    A node is a chain of contexts. ``labels[node]`` holds its dictionary
    indices, each one event further back than the one before, and ``()`` for
    the root, node 0. ``children[node]`` maps the first index of each child
    chain to that child; ``counts[node]`` maps a successor's index to how
    often it followed each context of the chain.
    """

    order_n: int
    dictionary: Dictionary
    labels: list[tuple[int, ...]] = field(default_factory=lambda: [()])
    children: list[dict[int, int]] = field(default_factory=lambda: [{}])
    counts: list[dict[int, int]] = field(default_factory=lambda: [{}])

    @property
    def state_count(self) -> int:
        """Number of distinct contexts seen in training: the chains' lengths."""
        return sum(map(len, self.labels))

    # -- training ---------------------------------------------------------

    def learn_trace(self, trace: Trace) -> None:
        """Accumulate transition counts from one trace.

        k-grams never span trace boundaries; each trace is an independent
        recording.
        """
        seq = [self.dictionary.index_of(eid) for eid in trace.id_column]
        labels, children, counts = self.labels, self.children, self.counts
        root = counts[0]
        for idx in seq:
            root[idx] = root.get(idx, 0) + 1
        for j in range(1, len(seq)):
            nxt = seq[j]
            stop = max(j - self.order_n, 0)
            node, i = 0, j - 1
            while i >= stop:
                child = children[node].get(seq[i])
                if child is None:
                    # The rest of an unseen context becomes one leaf chain.
                    children[node][seq[i]] = len(counts)
                    labels.append(tuple(reversed(seq[stop : i + 1])))
                    children.append({})
                    counts.append({nxt: 1})
                    break
                label = labels[child]
                reach = min(len(label), i - stop + 1)
                matched = 1
                while matched < reach and seq[i - matched] == label[matched]:
                    matched += 1
                if matched < len(label):
                    # The walk leaves the chain: its first ``matched``
                    # contexts keep the node, the rest move to a new child.
                    labels.append(label[matched:])
                    children.append(children[child])
                    counts.append(counts[child])
                    labels[child] = label[:matched]
                    children[child] = {label[matched]: len(counts) - 1}
                    counts[child] = dict(counts[child])
                node, i = child, i - matched
                successors = counts[node]
                successors[nxt] = successors.get(nxt, 0) + 1

    # -- inference --------------------------------------------------------

    def predict_next(self, context: Sequence[EventId | str]) -> EventId:
        """Most frequent successor of the longest matching context suffix.

        Only the last ``order_n`` ids of ``context`` are read. When even the
        last id was never seen in training, the global frequency table (the
        root, k=0) answers, so any context, including an empty one, gets an
        answer.
        """
        if not self.counts[0]:
            raise UntrainedModel("markov model has no transitions")
        labels, children, index_of = self.labels, self.children, self.dictionary.index_of
        node, label, matched = 0, (), 0
        for eid in reversed(context[-self.order_n :]):
            idx = index_of(eid)
            if matched < len(label):
                # Within a chain every context shares the node's counts, so
                # a partial match answers like a whole one.
                if idx != label[matched]:
                    break
                matched += 1
                continue
            child = children[node].get(idx)
            if child is None:
                break
            node, label, matched = child, labels[child], 1
        by_id = {decode_index(idx, self.dictionary): c for idx, c in self.counts[node].items()}
        return pick_most_frequent(by_id, self.dictionary)

    def walk(
        self, ids: Sequence[EventId | str], scored: Sequence[bool]
    ) -> Iterator[tuple[int, EventId]]:
        """Yields ``(q, predict_next(ids[:q]))`` for each ``q`` with
        ``scored[q]``, in order, passing ``predict_next`` only the last
        ``order_n`` ids before ``q``. ``ids[q]`` is read only after ``q`` has
        been yielded."""
        for q, wanted in enumerate(scored):
            if wanted:
                yield q, self.predict_next(ids[max(0, q - self.order_n) : q])

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """Render the model in the versioned v3 node-list text format."""
        tokens = [decode_index(i, self.dictionary) for i in range(self.dictionary.size)]
        # rank[i] is token i's place in token order: sorting indices by rank
        # sorts them by token without comparing strings at every node.
        rank = [0] * len(tokens)
        for place, i in enumerate(sorted(range(len(tokens)), key=tokens.__getitem__)):
            rank[i] = place
        by_token = rank.__getitem__
        labels, children, counts = self.labels, self.children, self.counts

        def successors(node: int) -> str:
            succ = counts[node]
            if len(succ) == 1:
                [(idx, c)] = succ.items()
                return f"{tokens[idx]}:{c}"
            return ",".join(f"{tokens[idx]}:{succ[idx]}" for idx in sorted(succ, key=by_token))

        lines = [
            f"{_FORMAT_NAME} v{_FORMAT_VERSION}",
            f"order {self.order_n}",
            "vocab " + " ".join(self.dictionary.ids),
        ]
        # Depth-first from the root: (a line's first node, the parent line's
        # position).
        stack: list[tuple[int, int | str]] = [(0, "-")]
        while stack:
            node, parent = stack.pop()
            position = len(lines) - 3
            symbols = [tokens[idx] for idx in labels[node]] or ["-"]
            kids = children[node]
            # A non-root line runs on through each only child whose counts
            # equal its parent's: such a child adds nothing of its own. Only
            # a model read from a hand-split file holds one.
            while node and len(kids) == 1:
                [child] = kids.values()
                if counts[child] != counts[node]:
                    break
                symbols.extend(tokens[idx] for idx in labels[child])
                node, kids = child, children[child]
            lines.append(f"n {parent} {' '.join(symbols)} {successors(node)}")
            if len(kids) == 1:
                [child] = kids.values()
                stack.append((child, position))
            elif kids:
                stack.extend(
                    (kids[sym], position) for sym in sorted(kids, key=by_token, reverse=True)
                )
        body = "\n".join(lines) + "\n"
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return body + f"# sha256 {digest}\n"

    @classmethod
    def from_text(cls, text: str) -> "MarkovModel":
        lines = text.splitlines()
        try:
            check_format_line(lines, _FORMAT_NAME, _FORMAT_VERSION)
        except VersionMismatch as exc:
            raise VersionMismatch(f"{exc}; retrain with `tracekit train-markov`") from None
        if not lines[-1].startswith("# sha256 "):
            raise CorruptModel("missing checksum line")
        body = "\n".join(lines[:-1]) + "\n"
        expected = lines[-1].split()[-1]
        actual = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if actual != expected:
            raise CorruptModel("checksum mismatch")
        if len(lines) < 5 or not lines[1].startswith("order ") or not lines[2].startswith("vocab "):
            raise CorruptModel("model file lacks order, vocab or root lines")
        try:
            order_n = int(lines[1][len("order ") :])
            dictionary = Dictionary(tuple(lines[2][len("vocab ") :].split()))
        except ValueError as exc:
            raise CorruptModel(f"malformed model header: {exc}") from exc
        if order_n < 1:
            raise CorruptModel(f"order must be >= 1, got {order_n}")

        index = {decode_index(i, dictionary): i for i in range(dictionary.size)}
        labels: list[tuple[int, ...]] = []
        children: list[dict[int, int]] = []
        counts: list[dict[int, int]] = []
        # The depth of each node line's last context.
        depth: list[int] = []
        # Many lines share one successor field: parse each distinct field once
        # and give every node its own copy of the result.
        parsed: dict[str, dict[int, int]] = {}

        def parsed_counts(field_text: str) -> dict[int, int]:
            if field_text not in parsed:
                parsed[field_text] = _parse_counts(field_text, index)
            return parsed[field_text]

        for position, line in enumerate(lines[3:-1]):
            fields = line.split(" ")
            if len(fields) < 4 or fields[0] != "n":
                raise CorruptModel(f"malformed node line {position}: {line!r}")
            parent_token, symbols, successors = fields[1], fields[2:-1], fields[-1]
            if position == 0:
                if parent_token != "-" or symbols != ["-"]:
                    raise CorruptModel(f"first node line is not the root: {line!r}")
                labels.append(())
                children.append({})
                counts.append(parsed_counts(successors).copy() if successors else {})
                depth.append(0)
                continue
            try:
                parent = int(parent_token)
            except ValueError as exc:
                raise CorruptModel(f"node {position}: bad parent {parent_token!r}") from exc
            if not 0 <= parent < position:
                raise CorruptModel(f"node {position}: parent {parent} is not an earlier node")
            depth.append(depth[parent] + len(symbols))
            if depth[position] > order_n:
                raise CorruptModel(f"node {position}: depth {depth[position]} exceeds order")
            label = tuple(map(index.get, symbols))
            if None in label:
                unknown = symbols[label.index(None)]
                raise CorruptModel(f"node {position}: unknown id {unknown!r}")
            if label[0] in children[parent]:
                raise CorruptModel(f"node {position}: duplicate child {symbols[0]!r} of {parent}")
            children[parent][label[0]] = position
            labels.append(label)
            children.append({})
            counts.append(parsed_counts(successors).copy())
        return cls(
            order_n=order_n, dictionary=dictionary, labels=labels, children=children, counts=counts
        )

    def save(self, path: str | os.PathLike) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "MarkovModel":
        return cls.from_text(read_text(path))


def _parse_counts(field_text: str, index: dict[str, int]) -> dict[int, int]:
    """Parse ``<id>:<count>,...`` into index -> count; every count is positive."""
    pairs = [pair.split(":") for pair in field_text.split(",")]
    try:
        counts = {index[token]: int(count) for token, count in pairs}
    except KeyError as exc:
        raise CorruptModel(f"unknown id {exc.args[0]!r} in successors {field_text!r}") from exc
    except ValueError as exc:
        raise CorruptModel(f"malformed successors {field_text!r}: {exc}") from exc
    if len(counts) != len(pairs):
        raise CorruptModel(f"duplicate successor in {field_text!r}")
    if min(counts.values()) < 1:
        raise CorruptModel(f"non-positive count in {field_text!r}")
    return counts


def learn_transitions(
    traces: Sequence[Trace], order_n: int, dictionary: Dictionary
) -> MarkovModel:
    """Train a MarkovModel of order ``order_n`` on a pool of traces."""
    if order_n < 1:
        raise ValueError("order_n must be >= 1")
    if not traces or all(len(t) == 0 for t in traces):
        raise EmptyTrainingSet("no events to learn transitions from")
    model = MarkovModel(order_n=order_n, dictionary=dictionary)
    for trace in traces:
        model.learn_trace(trace)
    return model
