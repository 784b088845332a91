"""Benchmark next-event model: a reversed-context trie with k-gram backoff.

Training walks every trace once. For every successor position it walks back
over at most ``order_n`` preceding events, one trie level per event, and
increments the successor's count at every node it passes. A node therefore
stands for one context (the path from the root read backwards) and holds the
successor counts of that k-gram. Only contexts that actually occur are
materialized; the full ``d**n`` table the naive construction would imply
never exists. Node 0 is the root: the empty context, holding the global event
frequency.

Prediction follows the last ``order_n`` context ids from the root as far as
the trie reaches. The deepest node reached is the longest context suffix seen
in training; its most frequent successor is the answer, and the root's
global frequency answers when not even the last id was seen. Ties break
toward the lowest dictionary index so predictions are reproducible.

Nodes store dense dictionary indices rather than id strings: equality is
unaffected (unknown ids conflate into OTHER, which never occurs inside
training states unless the training traces themselves hold unknown ids).

Serialization (format v3) is line-oriented text::

    tracekit-markov v3
    order <n>
    vocab <id> <id> ...
    n - - <succ>:<count>,...                     the root (global frequency)
    n <parent> <sym1> ... <symK> <succ>:<count>,...   one line per chain
    # sha256 <hex digest of every line above>

A line other than the root's holds a chain of K >= 1 nodes: ``<sym1>`` is a
child of the last node of line ``<parent>``, each further symbol a child of
the one before, and every node of the chain has the line's successor counts.
The writer runs a line on through a node's only child while that child's
counts equal the node's, so a line ends at a node that has no children,
several, or one child with different counts. Lines come in canonical
pre-order: a chain's child lines follow it, sorted by id token, and
``<parent>`` is the position of the parent line among the node lines (the
root is 0), so it is always smaller than the line's own position. Successors
within a line are sorted by id token too, which makes model files
byte-stable. The reader expands each chain into one node per symbol, numbered
in pre-order, and checks each symbol: a known id, not a second child of the
same symbol, and no deeper than the order. The checksum line guards against
truncation and edits. v1 and v2 files (one line per state and successor, one
line per node) are refused with ``VersionMismatch``.

A file has at most ``2 * events + traces * order + 1`` node lines. Each line
but the root's ends at a distinct node. At most ``events`` of those are
leaves, one per successor position at most, and fewer branch. The rest hand
their only child different counts. Every occurrence of a node's context that
is not also one of its child's must run into the start of a trace, so such a
node's context is the opening of some trace, and there are at most
``traces * order`` of those.

A trained trie has far more nodes than lines or distinct successor fields
(the benchmark's order-40 model at seed 1: 22,570 nodes in 968 lines, 105 KB
against 399 KB written one line per node, and 235 distinct fields), so
neither direction pays per-node string work it can share. The writer ranks
the id tokens once per call and orders every node's successors and children
by that integer rank, with a direct path for a node of one successor or one
child. The reader parses each distinct successor field once and gives every
node a copy of the parsed counts, so nodes never share a dict that later
training would update.
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

    ``children[node]`` maps a dictionary index to the child node one event
    further back in the context; ``counts[node]`` maps a successor's index
    to how often it followed that context. Node 0 is the root.
    """

    order_n: int
    dictionary: Dictionary
    children: list[dict[int, int]] = field(default_factory=lambda: [{}])
    counts: list[dict[int, int]] = field(default_factory=lambda: [{}])

    @property
    def state_count(self) -> int:
        """Number of distinct contexts seen in training: the non-root nodes."""
        return len(self.counts) - 1

    # -- training ---------------------------------------------------------

    def learn_trace(self, trace: Trace) -> None:
        """Accumulate transition counts from one trace.

        k-grams never span trace boundaries; each trace is an independent
        recording.
        """
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
        children = self.children
        node = 0
        for eid in reversed(context[-self.order_n :]):
            child = children[node].get(self.dictionary.index_of(eid))
            if child is None:
                break
            node = child
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
        children, counts = self.children, self.counts

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
        # Depth-first from the root: (a line's first node, its symbol token,
        # the parent line's position).
        stack: list[tuple[int, str, int | str]] = [(0, "-", "-")]
        while stack:
            node, token, parent = stack.pop()
            position = len(lines) - 3
            symbols = [token]
            kids = children[node]
            # A non-root line runs on through each only child whose counts
            # equal its parent's: such a child adds nothing of its own.
            while node and len(kids) == 1:
                [(sym, child)] = kids.items()
                if counts[child] != counts[node]:
                    break
                symbols.append(tokens[sym])
                node, kids = child, children[child]
            lines.append(f"n {parent} {' '.join(symbols)} {successors(node)}")
            if len(kids) == 1:
                [(sym, child)] = kids.items()
                stack.append((child, tokens[sym], position))
            elif kids:
                stack.extend(
                    (kids[sym], tokens[sym], position)
                    for sym in sorted(kids, key=by_token, reverse=True)
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
        children: list[dict[int, int]] = []
        counts: list[dict[int, int]] = []
        # The deepest node of each node line, and that node's depth: a later
        # line hangs its chain below it.
        end: list[int] = []
        depth: list[int] = []
        # Many nodes share one successor field: parse each distinct field once
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
                children.append({})
                counts.append(parsed_counts(successors).copy() if successors else {})
                end.append(0)
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
            successor_counts = parsed_counts(successors)
            node = end[parent]
            for symbol_token in symbols:
                symbol = index.get(symbol_token)
                if symbol is None:
                    raise CorruptModel(f"node {position}: unknown id {symbol_token!r}")
                if symbol in children[node]:
                    raise CorruptModel(
                        f"node {position}: duplicate child {symbol_token!r} of {parent}"
                    )
                children[node][symbol] = len(counts)
                node = len(counts)
                children.append({})
                counts.append(successor_counts.copy())
            end.append(node)
        return cls(order_n=order_n, dictionary=dictionary, children=children, counts=counts)

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
