"""Output checks made apart from the program.

Nothing here imports ``tracekit``: every file is parsed by its own reader and
every expected value is recomputed from the inputs, so a fault in the program
cannot hide behind the same fault in its check.

Each ``check_*`` function returns a list of problems (empty when the output
is right).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

OTHER = "OTHER"
LN_EPS = 1e-5
ARGMAX_TOL = 1e-9
TIME_TOL = 1e-9
TIME_SPAN = 1000.0


# ---------------------------------------------------------------------------
# file readers


def _event_lines(text: str):
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line.split()


def read_trace(path) -> list[tuple[float, str]]:
    """Events of a ``<timestamp> <id>`` file as (timestamp, upper-case id)."""
    return [(float(ts), eid.upper()) for ts, eid in _event_lines(Path(path).read_text())]


def read_gapped(path) -> list[tuple[str, object]]:
    """Segments of a gapped file: ("run", [(ts, id), ...]) or ("gap", count)."""
    segments: list[tuple[str, object]] = []
    for parts in _event_lines(Path(path).read_text()):
        if parts[0] == "?":
            if segments and segments[-1][0] == "gap":
                segments[-1] = ("gap", segments[-1][1] + int(parts[1]))
            else:
                segments.append(("gap", int(parts[1])))
        else:
            if not segments or segments[-1][0] != "run":
                segments.append(("run", []))
            segments[-1][1].append((float(parts[0]), parts[1].upper()))
    return segments


def known_events(segments) -> list[tuple[float, str]]:
    return [ev for kind, seg in segments if kind == "run" for ev in seg]


def lossy_trace_text(gapped_path) -> str:
    """The lossy trace as observed: the gapped file without its gap lines."""
    return "".join(f"{ts!r} {eid}\n" for ts, eid in known_events(read_gapped(gapped_path)))


def first_occurrence_ids(traces: list[list[str]]) -> list[str]:
    seen: dict[str, None] = {}
    for ids in traces:
        for eid in ids:
            seen.setdefault(eid, None)
    return list(seen)


def tree_digest(root) -> str:
    """SHA-256 over every file under ``root``: relative path and bytes."""
    digest = hashlib.sha256()
    root = Path(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# restored traces


def check_restored(segments, restored: list[tuple[float, str]]) -> tuple[list[str], list[int]]:
    """Length, kept known events and interpolated fill timestamps.

    Returns the problems and the positions of the filled events.
    """
    problems: list[str] = []
    expected_len = sum(len(seg) if kind == "run" else seg for kind, seg in segments)
    if len(restored) != expected_len:
        return [f"restored length {len(restored)} != original length {expected_len}"], []
    fills: list[int] = []
    pos = 0
    for s, (kind, seg) in enumerate(segments):
        if kind == "run":
            for ev in seg:
                if restored[pos] != ev:
                    problems.append(f"known event {ev} at {pos} became {restored[pos]}")
                pos += 1
            continue
        before = segments[s - 1][1][-1][0] if s > 0 else None
        after = segments[s + 1][1][0][0] if s + 1 < len(segments) else None
        for j in range(seg):
            if before is None:
                want = after
            elif after is None:
                want = before
            else:
                want = before + (after - before) * (j + 1) / (seg + 1)
            got = restored[pos][0]
            if want is not None and abs(got - want) > TIME_TOL * max(1.0, abs(want)):
                problems.append(f"fill at {pos}: timestamp {got!r}, interpolation {want!r}")
            fills.append(pos)
            pos += 1
    return problems, fills


def fill_accuracy(original: list[tuple[float, str]], restored, fills: list[int]) -> tuple[int, int]:
    """(fills equal to the original id at their position, fills)."""
    return sum(restored[p][1] == original[p][1] for p in fills), len(fills)


# ---------------------------------------------------------------------------
# LSTM


class LstmFile:
    """Weights, shape and dictionary read from a saved LSTM model file.

    Layout: magic, u32 version, u64 header length, JSON header, float64
    parameters in header order, SHA-256 of everything before it.
    """

    MAGIC = b"TKLSTMF\x00"

    def __init__(self, path):
        raw = Path(path).read_bytes()
        if raw[: len(self.MAGIC)] != self.MAGIC:
            raise ValueError(f"{path}: not an LSTM model file")
        if hashlib.sha256(raw[:-32]).digest() != raw[-32:]:
            raise ValueError(f"{path}: checksum mismatch")
        offset = len(self.MAGIC) + 4
        (header_len,) = struct.unpack_from("<Q", raw, offset)
        offset += 8
        header = json.loads(raw[offset : offset + header_len])
        offset += header_len
        self.config = header["config"]
        self.ids = [eid.upper() for eid in header["dictionary"]]
        self.params: dict[str, np.ndarray] = {}
        for name, shape in header["params"]:
            count = int(np.prod(shape))
            self.params[name] = np.frombuffer(raw, "<f8", count, offset).reshape(shape)
            offset += 8 * count
        self.vocab = len(self.ids) + 1
        self.unroll = self.config["unroll_steps"]
        self._index = {eid: i for i, eid in enumerate(self.ids)}
        # An empty context (a leading gap) gets the most frequent training
        # event, ties to the lowest dictionary index.
        freq = {eid.upper(): n for eid, n in header["event_freq"].items()}
        self.prior = min(freq, key=lambda eid: (-freq[eid], self.index(eid))) if freq else None

    def index(self, eid: str) -> int:
        return self._index.get(eid, len(self.ids))

    def token(self, index: int) -> str:
        return self.ids[index] if index < len(self.ids) else OTHER

    def forward(self, windows: list[list[str]]) -> np.ndarray:
        """Sigmoid outputs for windows of equal length, as a (B, V) array.

        Two tanh dense layers, two LSTM layers whose four gate blocks are
        each layer-normalized before their nonlinearity, sigmoid output.
        """
        p = self.params
        idx = np.array([[self.index(e) for e in w] for w in windows])
        x = np.eye(self.vocab)[idx]  # (B, T, V)
        h = np.tanh(x @ p["dense0/w"].T + p["dense0/b"])
        h = np.tanh(h @ p["dense1/w"].T + p["dense1/b"])
        batch, steps, _ = h.shape
        for layer in ("lstm0", "lstm1"):
            width = p[f"{layer}/wh"].shape[1]
            gain = p[f"{layer}/gain"].reshape(4, width)
            shift = p[f"{layer}/shift"].reshape(4, width)
            state_h = np.zeros((batch, width))
            state_c = np.zeros((batch, width))
            projected = h @ p[f"{layer}/wx"].T + p[f"{layer}/b"]
            out = np.empty((batch, steps, width))
            for t in range(steps):
                pre = (projected[:, t] + state_h @ p[f"{layer}/wh"].T).reshape(batch, 4, width)
                mu = pre.mean(axis=2, keepdims=True)
                var = pre.var(axis=2, keepdims=True)
                z = gain * (pre - mu) / np.sqrt(var + LN_EPS) + shift
                gate_i, gate_f, gate_o = (1.0 / (1.0 + np.exp(-z[:, k])) for k in (0, 1, 3))
                state_c = gate_f * state_c + gate_i * np.tanh(z[:, 2])
                state_h = gate_o * np.tanh(state_c)
                out[:, t] = state_h
            h = out
        return 1.0 / (1.0 + np.exp(-(h[:, -1] @ p["out/w"].T + p["out/b"])))

    def check_choices(self, contexts: list[list[str]], chosen: list[str], what: str) -> list[str]:
        """Each chosen id must be an argmax of the forward pass on its context."""
        problems: list[str] = []
        windows = [ctx[-self.unroll :] for ctx in contexts]
        by_len: dict[int, list[int]] = {}
        for k, w in enumerate(windows):
            if w:
                by_len.setdefault(len(w), []).append(k)
            elif chosen[k] != self.prior:
                problems.append(f"{what} {k}: chose {chosen[k]} without context, "
                                f"prior {self.prior}")
        for members in by_len.values():
            outputs = self.forward([windows[k] for k in members])
            for k, out in zip(members, outputs):
                got = out[self.index(chosen[k])]
                if got < out.max() - ARGMAX_TOL:
                    problems.append(
                        f"{what} {k}: chose {chosen[k]} ({got:.12f}), "
                        f"argmax {self.token(int(out.argmax()))} ({out.max():.12f})"
                    )
        return problems


def validation_logloss(model: LstmFile, ids: list[str]) -> float:
    """Mean summed binary cross-entropy of next-event prediction over a trace.

    One window per position ``end`` in ``1 .. len - 1``: the up to ``unroll``
    ids before it, with the one-hot id at ``end`` as target. Outputs are
    clamped to [1e-12, 1 - 1e-12].
    """
    by_len: dict[int, list[int]] = {}
    for end in range(1, len(ids)):
        by_len.setdefault(min(end, model.unroll), []).append(end)
    total = 0.0
    for length, ends in by_len.items():
        p = np.clip(model.forward([ids[end - length : end] for end in ends]), 1e-12, 1 - 1e-12)
        target = np.eye(model.vocab)[[model.index(ids[end]) for end in ends]]
        total += float(-(target * np.log(p) + (1 - target) * np.log(1 - p)).sum())
    return total / (len(ids) - 1)


def check_lstm_fills(model: LstmFile, restored, fills: list[int]) -> list[str]:
    ids = [eid for _, eid in restored]
    return model.check_choices([ids[:p] for p in fills], [ids[p] for p in fills], "fill at")


def check_lstm_predictions(model: LstmFile, seed_ids: list[str], predicted: list[str]) -> list[str]:
    contexts = [seed_ids + predicted[:k] for k in range(len(predicted))]
    return model.check_choices(contexts, predicted, "prediction")


# ---------------------------------------------------------------------------
# Markov


class MarkovOracle:
    """Longest-suffix prediction by scanning the training traces directly.

    The training traces are concatenated with a separator that matches
    nothing, so no context or successor spans two traces.
    """

    def __init__(self, training: list[list[str]], order_n: int, dictionary: list[str]):
        self.order_n = order_n
        self.dictionary = dictionary
        self._index = {eid: i for i, eid in enumerate(dictionary)}
        seq: list[int] = []
        for ids in training:
            seq.extend(self._index[e] for e in ids)
            seq.append(-1)
        self.seq = np.array(seq)
        counts = np.bincount(self.seq[self.seq >= 0], minlength=len(dictionary))
        self.fallback = dictionary[int(np.argmax(counts))]  # argmax takes the lowest index on ties

    def predict(self, context: list[str]) -> str:
        ctx = [self._index.get(e, -2) for e in context[-self.order_n :]]
        seq = self.seq
        # Successor positions j whose last k events match the context's last k.
        match = np.nonzero(seq[1:] >= 0)[0] + 1
        longest = None
        for k in range(1, len(ctx) + 1):
            match = match[match >= k]
            match = match[seq[match - k] == ctx[-k]]
            if match.size == 0:
                break
            longest = match
        if longest is None:
            return self.fallback
        counts = np.bincount(seq[longest], minlength=len(self.dictionary))
        return self.dictionary[int(np.argmax(counts))]


def check_markov_file(path, order_n: int, dictionary: list[str]) -> list[str]:
    """Checksum line, order and vocabulary of a saved Markov model."""
    text = Path(path).read_text()
    body, _, last = text.rstrip("\n").rpartition("\n")
    problems = []
    if last != "# sha256 " + hashlib.sha256((body + "\n").encode()).hexdigest():
        problems.append("model checksum line does not match its body")
    lines = body.splitlines()
    if lines[1:3] != [f"order {order_n}", "vocab " + " ".join(dictionary)]:
        problems.append(f"model header {lines[1:3]} is not order {order_n} over {dictionary}")
    return problems


def check_markov_fills(oracle: MarkovOracle, restored, fills: list[int]) -> list[str]:
    ids = [eid for _, eid in restored]
    problems = []
    for p in fills:
        want = oracle.predict(ids[:p])
        if ids[p] != want:
            problems.append(f"fill at {p}: {ids[p]}, oracle {want}")
    return problems


# ---------------------------------------------------------------------------
# mining and alignment


def read_mining(path) -> list[tuple[str, str, str, int]]:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("tracekit-mine "):
        raise ValueError(f"{path}: not a mining report")
    out = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) == 4:
            out.append((parts[0], parts[1].upper(), parts[2].upper(), int(parts[3])))
    return out


def check_mined(instances, events: list[tuple[float, str]]) -> list[str]:
    """Every mined instance must hold on a direct scan of its trace.

    Delays are compared on the trace's time span scaled to [0, 1000].
    """
    if not instances:
        return []
    times = [t for t, _ in events]
    lo, hi = min(times), max(times)
    if hi == lo:
        return ["instances mined from a trace without a time span"]
    scale = TIME_SPAN / (hi - lo)
    problems: list[str] = []

    def in_bound(tp: float, ts: float) -> bool:
        return -TIME_TOL <= (ts - tp) * scale <= TIME_SPAN * (1 + TIME_TOL)

    for template, p, s, count in instances:
        if p == s:
            problems.append(f"{template} {p} {s}: P equals S")
            continue
        projected = [(t, e) for t, e in events if e in (p, s)]
        pairs: list[tuple[float, float]] = []
        if template == "response":
            ok = True
            for i, (t, e) in enumerate(projected):
                if e != p:
                    continue
                # The next P or S event must be an S.
                if i + 1 >= len(projected) or projected[i + 1][1] != s:
                    ok = False
                    break
                pairs.append((t, projected[i + 1][0]))
        elif template == "alternating":
            roles = [e for _, e in projected]
            ok = len(roles) >= 2 and len(roles) % 2 == 0 and all(
                e == (p if i % 2 == 0 else s) for i, e in enumerate(roles)
            )
            pairs = [(projected[i][0], projected[i + 1][0]) for i in range(0, len(projected) - 1, 2)]
        else:
            problems.append(f"unknown template {template!r}")
            continue
        if not ok:
            problems.append(f"{template} {p} {s}: does not hold on the trace")
        elif not all(in_bound(a, b) for a, b in pairs):
            problems.append(f"{template} {p} {s}: a delay exceeds the time bound")
        elif len(pairs) != count:
            problems.append(f"{template} {p} {s}: count {count}, scan finds {len(pairs)}")
    return problems


def read_alignment(path) -> dict[str, float]:
    out = {}
    for line in Path(path).read_text().splitlines():
        if "=" in line and not line.startswith("#"):
            key, value = line.split("=", 1)
            out[key] = float(value)
    return out


def check_alignment(report: dict[str, float], pred_len: int, truth_len: int) -> list[str]:
    """The decision counts sum to ``total``, which lies between the two lengths."""
    parts = ("correct", "omissions", "ordering_mistakes", "substitutions")
    problems = []
    total = report["total"]
    if sum(report[k] for k in parts) != total:
        problems.append(f"alignment counts {[report[k] for k in parts]} do not sum to {total}")
    if not max(pred_len, truth_len) <= total <= pred_len + truth_len:
        problems.append(f"alignment total {total} outside [{max(pred_len, truth_len)}, "
                        f"{pred_len + truth_len}]")
    if total and not math.isclose(report["accuracy"], report["correct"] / total, rel_tol=1e-12):
        problems.append("alignment accuracy != correct / total")
    return problems


def loss_study_from_mining(mine_dir, labels: list[str], percents: list[int]) -> dict:
    """Recompute the report's loss study by set arithmetic on (template, P, S)."""
    mine_dir = Path(mine_dir)

    def keys(name: str) -> set[tuple[str, str, str]]:
        return {inst[:3] for inst in read_mining(mine_dir / f"{name}.txt")}

    study = {}
    for pct in percents:
        total = kept_lossy = kept_restored = 0
        for label in labels:
            original = keys(f"original_{label}")
            total += len(original)
            kept_lossy += len(original & keys(f"lossy_{pct:02d}_{label}"))
            kept_restored += len(original & keys(f"restored_{pct:02d}_{label}"))
        study[str(pct)] = {
            "original_instances": total,
            "lossy_decrease_pct": 100.0 * (1 - kept_lossy / total) if total else 0.0,
            "restored_decrease_pct": 100.0 * (1 - kept_restored / total) if total else 0.0,
        }
    return study


def check_loss_study(reported: dict, recomputed: dict) -> list[str]:
    problems = []
    if set(reported) != set(recomputed):
        return [f"loss levels {sorted(reported)} != {sorted(recomputed)}"]
    for pct, want in recomputed.items():
        for key, value in want.items():
            if not math.isclose(reported[pct][key], value, rel_tol=1e-12, abs_tol=1e-12):
                problems.append(f"loss {pct}% {key}: report {reported[pct][key]!r}, "
                                f"recomputed {value!r}")
    return problems
