"""Restoration quality measurement.

Two complementary views:

* ``next_event_accuracy`` is teacher-forced: every prediction reads the
  true history before it. It is the one teacher-forced loop: one
  ``walk`` of the model over the true ids, scoring every position from
  ``start`` on (the LSTM scores them all in one lockstep walk).
* ``align_and_classify`` mirrors how long rollouts are scored by hand: the
  predicted and true sequences are scanned together and every mismatch is
  explained as an omission (the model skipped a true event and stays in sync
  one position earlier), a local ordering mistake (one true event was
  predicted a few positions late), or, failing both, a substitution.

The alignment classifier is greedy and deterministic, not edit-distance
optimal. At a mismatch it evaluates each candidate explanation by the length
of the clean run it would produce and keeps the best-supported one; an
explanation needs at least ``LOOKAHEAD_W`` subsequent matches (or a full
match to the end of either sequence) to be accepted. A displaced event is
searched for up to ``ORDER_K`` positions ahead. Both are constants, not
parameters: every caller scores with the same rules. Spurious predicted events
(present in the prediction, absent from the truth) are folded into the
substitution count, consuming only the predicted side.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .core import Dictionary, EventId, as_event_ids, encode_ids
from .errors import DegenerateInput, LengthMismatch
from .restore import NextEventPredictor


# ---------------------------------------------------------------------------
# alignment


EVAL_HEADER = "# tracekit-eval v1"
LOOKAHEAD_W = 3
ORDER_K = 10


@dataclass(frozen=True)
class AlignmentReport:
    """Counts of alignment decisions between a prediction and the truth.

    ``total`` counts decisions, not positions: an omission consumes only a
    true event, a spurious prediction only a predicted one.
    """

    total: int
    correct: int
    omissions: int
    ordering_mistakes: int
    substitutions: int

    @property
    def omission_rate(self) -> float:
        return self.omissions / self.total if self.total else 0.0

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def to_dict(self) -> dict[str, int | float]:
        return {
            "total": self.total,
            "correct": self.correct,
            "omissions": self.omissions,
            "ordering_mistakes": self.ordering_mistakes,
            "substitutions": self.substitutions,
            "accuracy": self.accuracy,
            "omission_rate": self.omission_rate,
        }

    def to_text(self) -> str:
        """The report file: the header, then one ``key=value`` line per count."""
        lines = [EVAL_HEADER] + [f"{key}={value!r}" for key, value in self.to_dict().items()]
        return "\n".join(lines) + "\n"


def _common_prefix(a: Sequence, i: int, b: Sequence, j: int) -> int:
    run = 0
    while i + run < len(a) and j + run < len(b) and a[i + run] == b[j + run]:
        run += 1
    return run


def _displaced_prefix(pred: Sequence, p: int, tru: Sequence, t: int, shift: int) -> int:
    """``_common_prefix(pred, p, moved, t)`` where ``moved`` is ``tru`` with
    ``tru[t]`` moved ``shift`` places later (at most to the end), read in place."""
    shift = min(shift, len(tru) - 1 - t)
    for run in range(shift):
        if p + run >= len(pred) or pred[p + run] != tru[t + 1 + run]:
            return run
    if p + shift >= len(pred) or pred[p + shift] != tru[t]:
        return shift
    return shift + 1 + _common_prefix(pred, p + shift + 1, tru, t + shift + 1)


def _supported(run: int, avail: int) -> bool:
    """A candidate needs LOOKAHEAD_W matches of evidence, or everything that remains."""
    if avail <= 0:
        return False
    return run >= min(LOOKAHEAD_W, avail)


def align_and_classify(
    predicted: Sequence[EventId],
    truth: Sequence[EventId],
) -> AlignmentReport:
    """Scan both sequences and classify every mismatch; see module docstring.

    After an accepted omission the truth cursor skips the omitted event;
    after an accepted ordering mistake the displaced pair is consumed from
    both sequences (it is counted once, as the mistake); a substitution
    consumes one event from each side.
    """
    if len(predicted) < LOOKAHEAD_W + 1 or len(truth) < LOOKAHEAD_W + 1:
        raise DegenerateInput(f"sequences must be longer than LOOKAHEAD_W={LOOKAHEAD_W}")
    pred = list(as_event_ids(predicted))
    tru = as_event_ids(truth)
    p = t = 0
    correct = omissions = ordering = substitutions = 0

    while p < len(pred) and t < len(tru):
        if pred[p] == tru[t]:
            correct += 1
            p += 1
            t += 1
            continue

        # Candidate: the model omitted tru[t]; prediction is in sync with tru[t+1:].
        om_run = _common_prefix(pred, p, tru, t + 1)
        om_avail = min(len(pred) - p, len(tru) - t - 1)
        om_ok = _supported(om_run, om_avail)

        # Candidate: tru[t] was predicted late, at pred[q]; moving it there
        # must leave a clean run covering at least the displacement.
        ord_ok = False
        ord_run = -1
        ord_q = -1
        for q in range(p + 1, min(p + ORDER_K, len(pred))):
            if pred[q] != tru[t]:
                continue
            run = _displaced_prefix(pred, p, tru, t, q - p)
            avail = min(len(pred) - p, len(tru) - t)
            if run >= q - p + 1 and _supported(run, avail) and run > ord_run:
                ord_ok = True
                ord_run = run
                ord_q = q

        # Candidate: pred[p] is spurious; skipping it re-synchronizes.
        ins_run = _common_prefix(pred, p + 1, tru, t)
        ins_avail = min(len(pred) - p - 1, len(tru) - t)
        ins_ok = _supported(ins_run, ins_avail)

        best = None  # (run, kind): the longest run wins, ties to omission, then ordering
        if om_ok:
            best = (om_run, "omission")
        if ord_ok and (best is None or ord_run > best[0]):
            best = (ord_run, "ordering")
        if ins_ok and (best is None or ins_run > best[0]):
            best = (ins_run, "spurious")

        if best is None:
            substitutions += 1
            p += 1
            t += 1
        elif best[1] == "omission":
            omissions += 1
            t += 1
        elif best[1] == "ordering":
            ordering += 1
            t += 1
            del pred[ord_q]
        else:
            substitutions += 1
            p += 1

    # Leftovers: unmatched truth was never predicted; unmatched predictions
    # are spurious.
    omissions += len(tru) - t
    substitutions += len(pred) - p
    total = correct + omissions + ordering + substitutions
    return AlignmentReport(
        total=total,
        correct=correct,
        omissions=omissions,
        ordering_mistakes=ordering,
        substitutions=substitutions,
    )


# ---------------------------------------------------------------------------
# teacher-forced accuracy


def next_event_accuracy(model: NextEventPredictor, ids: Sequence[EventId], *, start: int) -> float:
    """Teacher-forced 1-step accuracy from position ``start`` onward: the
    share of positions whose true id equals ``predict_next`` of the true ids
    before it, computed by one ``walk`` over the true ids."""
    ids = as_event_ids(ids)
    if not 1 <= start < len(ids):
        raise LengthMismatch(f"need 1 <= start < {len(ids)}")
    scored = [q >= start for q in range(len(ids))]
    hits = sum(predicted == ids[q] for q, predicted in model.walk(ids, scored))
    return hits / (len(ids) - start)


# ---------------------------------------------------------------------------
# raster rendering


def render_onehot_image(
    events: Sequence[EventId],
    dictionary: Dictionary,
    path: str | os.PathLike,
) -> None:
    """Write the one-hot raster of an event sequence as a text PGM (P2).

    One column per event, one row per vocabulary entry; the active index is
    white on black. Identical inputs produce byte-identical files.
    """
    if not events:
        raise DegenerateInput("no events to render")
    mat = encode_ids(list(events), dictionary).T  # (V, L)
    height, width = mat.shape
    lines = ["P2", f"{width} {height}", "1"]
    for row in mat.astype(int):
        lines.append(" ".join(str(v) for v in row))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))
