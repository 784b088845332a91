"""From-scratch layer-normalized LSTM for next-event prediction.

Architecture (widths follow the vocabulary size V):

* input: one-hot event vectors of width V, input dropout,
* two dense tanh layers of width ``dense_width`` (2V by default) with
  dropout on their outputs,
* two recurrent layers of width ``lstm_width`` (8V by default); each gate
  pre-activation ``Wx·x + Wh·h + b`` is layer-normalized per gate before its
  nonlinearity, and the tanh candidate vector gets recurrent dropout with a
  mask held fixed across the sequence (variational style),
* a sigmoid output layer of width V scoring the next event; multi-step
  prediction feeds each predicted event back in as input.

The loss is per-node binary cross-entropy summed over output nodes, and all
gradients are exact reverse-mode derivatives through the unrolled stack,
truncated at the window start. Dropout is inverted (scaled at train time) so
inference runs the plain deterministic forward pass.

Training follows a round-based schedule: each round draws one training and
one validation trace, runs a block of flat-rate epochs followed by a block
of decaying-rate epochs of plain gradient descent over shuffled sliding
windows, then resets the learning rate while keeping the weights.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import (
    Dictionary,
    EventId,
    Trace,
    encode_ids,
    decode_index,
    event_frequencies,
    pick_most_frequent,
)
from .errors import (
    CorruptModel,
    EmptyTrainingSet,
    EmptyWindow,
    InsufficientTraces,
    UntrainedModel,
    VersionMismatch,
)

LN_EPS = 1e-5
GRAD_CLIP_NORM = 5.0
_PROB_FLOOR = 1e-12

_MAGIC = b"TKLSTMF\x00"
_FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class NetworkConfig:
    """Shape and regularization settings of the network."""

    vocab: int
    dense_width: int
    lstm_width: int
    unroll_steps: int = 40
    input_dropout: float = 0.2
    hidden_dropout: float = 0.4
    recurrent_dropout: float = 0.4

    def __post_init__(self) -> None:
        if min(self.vocab, self.dense_width, self.lstm_width) < 1:
            raise ValueError("all widths must be >= 1")
        if self.unroll_steps < 1:
            raise ValueError("unroll_steps must be >= 1")
        for rate in (self.input_dropout, self.hidden_dropout, self.recurrent_dropout):
            if not 0.0 <= rate < 1.0:
                raise ValueError("dropout rates must be in [0, 1)")

    @classmethod
    def for_vocab(cls, vocab: int, **overrides) -> "NetworkConfig":
        """Default widths: dense layers 2V, recurrent layers 8V."""
        overrides.setdefault("dense_width", 2 * vocab)
        overrides.setdefault("lstm_width", 8 * vocab)
        return cls(vocab=vocab, **overrides)

    def to_dict(self) -> dict:
        return {
            "vocab": self.vocab,
            "dense_width": self.dense_width,
            "lstm_width": self.lstm_width,
            "unroll_steps": self.unroll_steps,
            "input_dropout": self.input_dropout,
            "hidden_dropout": self.hidden_dropout,
            "recurrent_dropout": self.recurrent_dropout,
        }


@dataclass(frozen=True)
class TrainingSchedule:
    """Round-based schedule: flat-rate epochs, then per-epoch decay."""

    rounds: int
    epochs_flat: int = 10
    epochs_decay: int = 20
    base_lr: float = 0.2
    decay: float = 1.0 / 1.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.epochs_flat < 0 or self.epochs_decay < 0:
            raise ValueError("epoch counts must be >= 0")

    def learning_rate(self, epoch: int) -> float:
        """Learning rate for a 1-based epoch index within any round."""
        return self.base_lr * self.decay ** max(0, epoch - self.epochs_flat)

    @property
    def epochs_per_round(self) -> int:
        return self.epochs_flat + self.epochs_decay


# ---------------------------------------------------------------------------
# parameters


def init_parameters(config: NetworkConfig, seed: int) -> dict[str, np.ndarray]:
    """Seeded uniform init in [-s, s] with s = 1/sqrt(fan-in) per matrix.

    Layer-norm gains start at 1, offsets at 0 except the forget-gate offset,
    which starts at 1 to bias cells toward remembering early in training.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    v, d, h = config.vocab, config.dense_width, config.lstm_width

    def uniform(shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        s = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-s, s, size=shape)

    params: dict[str, np.ndarray] = {}
    params["dense0/w"] = uniform((d, v), v)
    params["dense0/b"] = np.zeros(d)
    params["dense1/w"] = uniform((d, d), d)
    params["dense1/b"] = np.zeros(d)
    for layer, in_width in ((0, d), (1, h)):
        params[f"lstm{layer}/wx"] = uniform((4 * h, in_width), in_width)
        params[f"lstm{layer}/wh"] = uniform((4 * h, h), h)
        params[f"lstm{layer}/b"] = np.zeros(4 * h)
        gain = np.ones(4 * h)
        shift = np.zeros(4 * h)
        shift[h : 2 * h] = 1.0  # forget gate slice
        params[f"lstm{layer}/gain"] = gain
        params[f"lstm{layer}/shift"] = shift
    params["out/w"] = uniform((v, h), h)
    params["out/b"] = np.zeros(v)
    return params


def parameters_checksum(params: Mapping[str, np.ndarray]) -> str:
    """SHA-256 fingerprint of all parameters, order-independent by name."""
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(params[name], dtype=np.float64).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# primitive ops


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def logloss(prediction: np.ndarray, target: np.ndarray) -> float:
    """Summed per-node binary cross-entropy.

    Predictions are clamped to [1e-12, 1-1e-12] so saturated outputs yield a
    large but finite loss.
    """
    if prediction.shape != target.shape:
        raise ValueError("prediction and target must have equal shapes")
    p = np.clip(prediction, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    return float(-(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)).sum())


@dataclass
class CellState:
    """Hidden and cell vectors of one recurrent layer."""

    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, width: int) -> "CellState":
        return cls(h=np.zeros(width), c=np.zeros(width))


def cell_step(
    params: Mapping[str, np.ndarray],
    state: CellState,
    x: np.ndarray,
    recurrent_mask: np.ndarray | None = None,
    prefix: str = "lstm0",
) -> tuple[np.ndarray, CellState]:
    """One recurrent step with per-gate layer normalization.

    ``recurrent_mask``, when given, is the per-sequence inverted-dropout mask
    applied to the tanh candidate vector; pass None for inference.
    """
    y, new_state, _ = _cell_forward(params, prefix, state, x, recurrent_mask)
    return y, new_state


def _cell_forward(params, prefix, state, x, recurrent_mask):
    h_width = state.h.shape[0]
    pre = params[f"{prefix}/wx"] @ x + params[f"{prefix}/wh"] @ state.h + params[f"{prefix}/b"]
    gain = params[f"{prefix}/gain"]
    shift = params[f"{prefix}/shift"]

    # Layer-normalize the four gate blocks at once: rows of a (4, H) view.
    pre_g = pre.reshape(4, h_width)
    mu = pre_g.mean(axis=1, keepdims=True)
    var = ((pre_g - mu) ** 2).mean(axis=1, keepdims=True)
    inv_stds = 1.0 / np.sqrt(var + LN_EPS)
    xhats = (pre_g - mu) * inv_stds
    z = gain.reshape(4, h_width) * xhats + shift.reshape(4, h_width)

    gate_i = _sigmoid(z[0])
    gate_f = _sigmoid(z[1])
    cand = np.tanh(z[2])
    gate_o = _sigmoid(z[3])
    cand_dropped = cand if recurrent_mask is None else cand * recurrent_mask

    c_new = gate_f * state.c + gate_i * cand_dropped
    tanh_c = np.tanh(c_new)
    h_new = gate_o * tanh_c

    cache = {
        "x": x,
        "h_prev": state.h,
        "c_prev": state.c,
        "xhats": xhats,
        "inv_stds": inv_stds,
        "i": gate_i,
        "f": gate_f,
        "g": cand,
        "o": gate_o,
        "gd": cand_dropped,
        "tanh_c": tanh_c,
    }
    return h_new, CellState(h=h_new, c=c_new), cache


def _cell_backward(params, prefix, cache, d_h, d_c_future, recurrent_mask, grads):
    h_width = d_h.shape[0]
    gate_i, gate_f, cand, gate_o = cache["i"], cache["f"], cache["g"], cache["o"]
    tanh_c = cache["tanh_c"]

    d_o = d_h * tanh_c
    d_c = d_c_future + d_h * gate_o * (1.0 - tanh_c**2)
    d_f = d_c * cache["c_prev"]
    d_c_prev = d_c * gate_f
    d_i = d_c * cache["gd"]
    d_gd = d_c * gate_i
    d_g = d_gd if recurrent_mask is None else d_gd * recurrent_mask

    d_z = np.empty((4, h_width))
    d_z[0] = d_i * gate_i * (1.0 - gate_i)
    d_z[1] = d_f * gate_f * (1.0 - gate_f)
    d_z[2] = d_g * (1.0 - cand**2)
    d_z[3] = d_o * gate_o * (1.0 - gate_o)

    # Layer-norm backward, all four gate blocks at once.
    xhats, inv_stds = cache["xhats"], cache["inv_stds"]
    gain = params[f"{prefix}/gain"].reshape(4, h_width)
    grads[f"{prefix}/gain"] += (d_z * xhats).reshape(-1)
    grads[f"{prefix}/shift"] += d_z.reshape(-1)
    d_xhat = d_z * gain
    d_pre = (
        inv_stds
        * (
            d_xhat
            - d_xhat.mean(axis=1, keepdims=True)
            - xhats * (d_xhat * xhats).mean(axis=1, keepdims=True)
        )
    ).reshape(-1)

    grads[f"{prefix}/wx"] += np.outer(d_pre, cache["x"])
    grads[f"{prefix}/wh"] += np.outer(d_pre, cache["h_prev"])
    grads[f"{prefix}/b"] += d_pre
    d_input = params[f"{prefix}/wx"].T @ d_pre
    d_h_prev = params[f"{prefix}/wh"].T @ d_pre
    return d_input, d_h_prev, d_c_prev


# ---------------------------------------------------------------------------
# dropout masks


@dataclass
class DropoutMasks:
    """Inverted-dropout masks for one training window.

    Input and dense-layer masks are per step; recurrent masks are held fixed
    across the sequence. ``None`` means that source of dropout is disabled.
    """

    input_masks: np.ndarray | None
    hidden_masks: np.ndarray | None
    recurrent_masks: np.ndarray | None

    @classmethod
    def disabled(cls) -> "DropoutMasks":
        return cls(None, None, None)

    @classmethod
    def sample(cls, config: NetworkConfig, steps: int, rng: np.random.Generator) -> "DropoutMasks":
        def draw(shape, rate):
            if rate <= 0.0:
                return None
            return (rng.random(shape) >= rate) / (1.0 - rate)

        return cls(
            input_masks=draw((steps, config.vocab), config.input_dropout),
            hidden_masks=draw((2, steps, config.dense_width), config.hidden_dropout),
            recurrent_masks=draw((2, config.lstm_width), config.recurrent_dropout),
        )

    def recurrent_mask(self, layer: int) -> np.ndarray | None:
        return None if self.recurrent_masks is None else self.recurrent_masks[layer]


# ---------------------------------------------------------------------------
# forward / backward over a window


def _dense_forward(params, window, masks):
    """The per-step feedforward stack, evaluated for all steps at once."""
    x0 = window if masks.input_masks is None else window * masks.input_masks
    h1 = np.tanh(x0 @ params["dense0/w"].T + params["dense0/b"])
    h1d = h1 if masks.hidden_masks is None else h1 * masks.hidden_masks[0]
    h2 = np.tanh(h1d @ params["dense1/w"].T + params["dense1/b"])
    h2d = h2 if masks.hidden_masks is None else h2 * masks.hidden_masks[1]
    return {"x0": x0, "h1": h1, "h1d": h1d, "h2": h2, "h2d": h2d}


def _forward(params, config, window, masks, keep_caches):
    steps = window.shape[0]
    dense = _dense_forward(params, window, masks)
    states = [CellState.zeros(config.lstm_width) for _ in range(2)]
    cell_caches = ([], []) if keep_caches else None
    h_top = np.zeros(config.lstm_width)

    for t in range(steps):
        y0, states[0], cache0 = _cell_forward(
            params, "lstm0", states[0], dense["h2d"][t], masks.recurrent_mask(0)
        )
        y1, states[1], cache1 = _cell_forward(
            params, "lstm1", states[1], y0, masks.recurrent_mask(1)
        )
        h_top = y1
        if keep_caches:
            cell_caches[0].append(cache0)
            cell_caches[1].append(cache1)

    logits = params["out/w"] @ h_top + params["out/b"]
    output = _sigmoid(logits)
    if not keep_caches:
        return output, None
    return output, {"dense": dense, "cells": cell_caches, "h_top": h_top}


def forward_window(
    model: "LstmModel",
    window: np.ndarray,
    masks: DropoutMasks | None = None,
) -> np.ndarray:
    """Run the network over a window of encoded events; returns sigmoid outputs.

    Windows shorter than ``unroll_steps`` simply run fewer recurrence steps
    from the zero state. Without masks this is the deterministic inference
    path.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim == 1:
        window = window[None, :]
    if window.shape[0] == 0:
        raise EmptyWindow("forward pass needs at least one event")
    if window.shape[0] > model.config.unroll_steps:
        window = window[-model.config.unroll_steps :]
    if window.shape[1] != model.config.vocab:
        raise ValueError(
            f"window width {window.shape[1]} != vocabulary {model.config.vocab}"
        )
    output, _ = _forward(model.params, model.config, window, masks or DropoutMasks.disabled(), False)
    return output


def loss_and_gradients(
    model: "LstmModel",
    window: np.ndarray,
    target: np.ndarray,
    masks: DropoutMasks | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus exact reverse-mode gradients for every parameter."""
    masks = masks or DropoutMasks.disabled()
    window = np.asarray(window, dtype=np.float64)
    if window.ndim == 1:
        window = window[None, :]
    if window.shape[0] == 0:
        raise EmptyWindow("backward pass needs at least one event")
    target = np.asarray(target, dtype=np.float64)
    params, config = model.params, model.config

    output, caches = _forward(params, config, window, masks, True)
    loss = logloss(output, target)

    grads = {name: np.zeros_like(value) for name, value in params.items()}
    # d(loss)/d(logit) for sigmoid + binary cross-entropy.
    d_logits = output - target
    grads["out/w"] += np.outer(d_logits, caches["h_top"])
    grads["out/b"] += d_logits
    d_h_out = params["out/w"].T @ d_logits

    steps = window.shape[0]
    d_h_next = [np.zeros(config.lstm_width), np.zeros(config.lstm_width)]
    d_c_next = [np.zeros(config.lstm_width), np.zeros(config.lstm_width)]
    d_h2d = np.empty((steps, config.dense_width))
    for t in range(steps - 1, -1, -1):
        d_h1 = d_h_next[1] + (d_h_out if t == steps - 1 else 0.0)
        d_u1, d_h_next[1], d_c_next[1] = _cell_backward(
            params, "lstm1", caches["cells"][1][t], d_h1, d_c_next[1],
            masks.recurrent_mask(1), grads,
        )
        d_h0 = d_h_next[0] + d_u1
        d_u0, d_h_next[0], d_c_next[0] = _cell_backward(
            params, "lstm0", caches["cells"][0][t], d_h0, d_c_next[0],
            masks.recurrent_mask(0), grads,
        )
        d_h2d[t] = d_u0

    # Dense stack backward, all steps at once.
    dense = caches["dense"]
    d_h2 = d_h2d if masks.hidden_masks is None else d_h2d * masks.hidden_masks[1]
    d_a2 = d_h2 * (1.0 - dense["h2"] ** 2)
    grads["dense1/w"] += d_a2.T @ dense["h1d"]
    grads["dense1/b"] += d_a2.sum(axis=0)
    d_h1d = d_a2 @ params["dense1/w"]
    d_h1 = d_h1d if masks.hidden_masks is None else d_h1d * masks.hidden_masks[0]
    d_a1 = d_h1 * (1.0 - dense["h1"] ** 2)
    grads["dense0/w"] += d_a1.T @ dense["x0"]
    grads["dense0/b"] += d_a1.sum(axis=0)

    return loss, grads


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float = GRAD_CLIP_NORM) -> float:
    """Scale gradients in place to a global norm of at most ``max_norm``."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


# ---------------------------------------------------------------------------
# model


@dataclass
class LstmModel:
    """Network configuration, event dictionary and learned parameters."""

    config: NetworkConfig
    dictionary: Dictionary
    params: dict[str, np.ndarray]
    trained: bool = False
    event_freq: dict[EventId, int] = field(default_factory=dict)

    @classmethod
    def initialize(cls, config: NetworkConfig, dictionary: Dictionary, seed: int) -> "LstmModel":
        if config.vocab != dictionary.size:
            raise ValueError(
                f"config vocab {config.vocab} != dictionary size {dictionary.size}"
            )
        return cls(config=config, dictionary=dictionary, params=init_parameters(config, seed))

    # -- inference ---------------------------------------------------------

    def predict_next(self, context: Sequence[EventId | str]) -> EventId:
        """Argmax next-event prediction from the last ``unroll_steps`` events.

        An empty context falls back to the most frequent training event.
        """
        if not self.trained:
            raise UntrainedModel("model has not been trained")
        if not context:
            return self.prior_event()
        tail = list(context)[-self.config.unroll_steps :]
        output = forward_window(self, encode_ids(tail, self.dictionary))
        return decode_index(int(np.argmax(output)), self.dictionary)

    def prior_event(self) -> EventId:
        """Most frequent event of the training pool (leading-gap fallback)."""
        if not self.event_freq:
            raise UntrainedModel("model has no recorded training frequencies")
        return pick_most_frequent(self.event_freq, self.dictionary)

    def checksum(self) -> str:
        return parameters_checksum(self.params)


# ---------------------------------------------------------------------------
# training


@dataclass
class EpochMetrics:
    epoch: int
    learning_rate: float
    train_logloss: float
    val_logloss: float


@dataclass
class RoundMetrics:
    round_index: int
    train_label: str
    val_label: str
    epochs: list[EpochMetrics]
    checksum_start: str
    checksum_end: str


def _window_bounds(length: int, unroll: int) -> list[tuple[int, int]]:
    """(start, end) context slices; the target is the event at ``end``."""
    return [(max(0, end - unroll), end) for end in range(1, length)]


def _validation_loss(model: LstmModel, encoded: np.ndarray) -> float:
    bounds = _window_bounds(encoded.shape[0], model.config.unroll_steps)
    if not bounds:
        return float("nan")
    total = 0.0
    for start, end in bounds:
        total += logloss(forward_window(model, encoded[start:end]), encoded[end])
    return total / len(bounds)


def train(
    model: LstmModel,
    pool: Sequence[Trace],
    schedule: TrainingSchedule,
) -> list[RoundMetrics]:
    """Train in place per the round-based schedule; returns per-round metrics.

    Each round draws 2 distinct traces from the pool (first for training,
    second for validation), runs the flat-rate epochs then the decaying
    epochs over shuffled sliding windows, and carries the weights into the
    next round while the learning rate resets. All randomness (trace draws,
    window order, dropout masks) derives from the schedule seed.
    """
    if len(pool) < 2:
        raise InsufficientTraces("training needs at least 2 traces in the pool")
    config = model.config
    for trace in pool:
        if len(trace) < 2:
            raise EmptyTrainingSet(f"trace {trace.label!r} too short for training windows")

    rng = np.random.Generator(np.random.PCG64(schedule.seed))
    model.event_freq = event_frequencies(pool)
    encoded_pool = [encode_ids(t.ids(), model.dictionary) for t in pool]

    history: list[RoundMetrics] = []
    for round_index in range(schedule.rounds):
        picked = rng.choice(len(pool), size=2, replace=False)
        train_idx, val_idx = int(picked[0]), int(picked[1])
        train_mat = encoded_pool[train_idx]
        val_mat = encoded_pool[val_idx]
        bounds = _window_bounds(train_mat.shape[0], config.unroll_steps)

        checksum_start = model.checksum()
        epoch_metrics: list[EpochMetrics] = []
        for epoch in range(1, schedule.epochs_per_round + 1):
            lr = schedule.learning_rate(epoch)
            order = rng.permutation(len(bounds))
            running_loss = 0.0
            for j in order:
                start, end = bounds[j]
                masks = DropoutMasks.sample(config, end - start, rng)
                window, target = train_mat[start:end], train_mat[end]
                loss, grads = loss_and_gradients(model, window, target, masks)
                clip_gradients(grads)
                for name, grad in grads.items():
                    model.params[name] -= lr * grad
                running_loss += loss
            epoch_metrics.append(
                EpochMetrics(
                    epoch=epoch,
                    learning_rate=lr,
                    train_logloss=running_loss / max(1, len(bounds)),
                    val_logloss=_validation_loss(model, val_mat),
                )
            )
        history.append(
            RoundMetrics(
                round_index=round_index,
                train_label=pool[train_idx].label,
                val_label=pool[val_idx].label,
                epochs=epoch_metrics,
                checksum_start=checksum_start,
                checksum_end=model.checksum(),
            )
        )
    model.trained = True
    return history


# ---------------------------------------------------------------------------
# serialization


def save_model(model: LstmModel, sink: str | os.PathLike) -> None:
    """Write the versioned binary model file (magic, header, data, checksum)."""
    manifest = [[name, list(model.params[name].shape)] for name in sorted(model.params)]
    header = {
        "config": model.config.to_dict(),
        "dictionary": list(model.dictionary.ids),
        "event_freq": {str(k): v for k, v in sorted(model.event_freq.items())},
        "trained": model.trained,
        "params": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<I", _FORMAT_VERSION)
    blob += struct.pack("<Q", len(header_bytes))
    blob += header_bytes
    for name, _ in manifest:
        blob += np.ascontiguousarray(model.params[name], dtype="<f8").tobytes()
    blob += hashlib.sha256(bytes(blob)).digest()
    Path(sink).write_bytes(bytes(blob))


def load_model(source: str | os.PathLike) -> LstmModel:
    """Inverse of ``save_model``; validates magic, version and checksum."""
    raw = Path(source).read_bytes()
    if len(raw) < len(_MAGIC) + 4 + 8 + 32:
        raise CorruptModel("model file truncated")
    if raw[: len(_MAGIC)] != _MAGIC:
        raise CorruptModel("bad magic string")
    offset = len(_MAGIC)
    (version,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    if version != _FORMAT_VERSION:
        raise VersionMismatch(f"unsupported model version {version}")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptModel("checksum mismatch")
    (header_len,) = struct.unpack_from("<Q", raw, offset)
    offset += 8
    try:
        header = json.loads(raw[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptModel(f"unreadable header: {exc}") from exc
    offset += header_len

    # A header can pass the checksum and still lack keys or carry values of
    # the wrong type or shape; any of those is a corrupt model.
    try:
        config = NetworkConfig(**header["config"])
        dictionary = Dictionary(tuple(EventId(t) for t in header["dictionary"]))
        manifest = [(name, tuple(shape)) for name, shape in header["params"]]
        shapes = dict(manifest)
        trained = bool(header["trained"])
        event_freq = {EventId(k): int(v) for k, v in header["event_freq"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CorruptModel(f"malformed header: {exc!r}") from exc
    if config.vocab != dictionary.size:
        raise CorruptModel(f"config vocab {config.vocab} != dictionary size {dictionary.size}")
    expected = {name: value.shape for name, value in init_parameters(config, 0).items()}
    if shapes != expected or len(manifest) != len(expected):
        raise CorruptModel("parameter manifest does not match the network config")
    params: dict[str, np.ndarray] = {}
    for name, _ in manifest:
        shape = expected[name]
        nbytes = math.prod(shape) * 8
        chunk = raw[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise CorruptModel(f"parameter {name!r} data truncated")
        params[name] = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(body):
        raise CorruptModel("trailing bytes after parameter data")
    return LstmModel(
        config=config, dictionary=dictionary, params=params, trained=trained, event_freq=event_freq
    )
