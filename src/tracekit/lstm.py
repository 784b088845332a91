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

Each recurrent layer runs over the whole window before the next layer
starts: its input projection ``Wx·x + b`` is one matrix product for all steps,
and only ``Wh·h`` and the gate arithmetic stay in the time loop.

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
BASE_LR = 0.2
LR_DECAY = 1.0 / 1.1
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
    """Round-based schedule: flat-rate epochs at ``BASE_LR``, then epochs
    whose rate falls by ``LR_DECAY`` each."""

    rounds: int
    epochs_flat: int = 10
    epochs_decay: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.epochs_flat < 0 or self.epochs_decay < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.epochs_flat + self.epochs_decay < 1:
            raise ValueError("a round needs at least one epoch")

    def learning_rate(self, epoch: int) -> float:
        """Learning rate for a 1-based epoch index within any round."""
        return BASE_LR * LR_DECAY ** max(0, epoch - self.epochs_flat)

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
    return 0.5 * (1.0 + np.tanh(x / 2.0))


def logloss(prediction: np.ndarray, target: np.ndarray) -> float:
    """Summed per-node binary cross-entropy.

    Predictions are clamped to [1e-12, 1-1e-12] so saturated outputs yield a
    large but finite loss.
    """
    if prediction.shape != target.shape:
        raise ValueError("prediction and target must have equal shapes")
    p = np.clip(prediction, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    return float(-(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)).sum())


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

    def last(self, steps: int) -> "DropoutMasks":
        """The masks of the last ``steps`` rows of the window they were sampled for."""
        for mask in (self.input_masks, self.hidden_masks):
            if mask is not None and mask.shape[-2] < steps:
                raise ValueError(
                    f"dropout masks cover {mask.shape[-2]} steps, the window has {steps}"
                )
        return DropoutMasks(
            input_masks=None if self.input_masks is None else self.input_masks[-steps:],
            hidden_masks=None if self.hidden_masks is None else self.hidden_masks[:, -steps:],
            recurrent_masks=self.recurrent_masks,
        )


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


def _lstm_forward(params, prefix, inputs, mask):
    """One recurrent layer over the whole window: (T, in) inputs to (T, H) outputs.

    ``mask``, when given, is the per-sequence inverted-dropout mask applied to
    the tanh candidate vector. The returned cache holds the (T, 4, H)
    normalized pre-activations and gates and the (T+1, H) hidden and cell
    states, row 0 being the zero start state.
    """
    steps = inputs.shape[0]
    wh = params[f"{prefix}/wh"]
    width = wh.shape[1]
    gain = params[f"{prefix}/gain"].reshape(4, width)
    shift = params[f"{prefix}/shift"].reshape(4, width)
    pre_x = inputs @ params[f"{prefix}/wx"].T + params[f"{prefix}/b"]
    keep = 1.0 if mask is None else mask

    xhats = np.empty((steps, 4, width))
    inv_stds = np.empty((steps, 4, 1))
    gates = np.empty((steps, 4, width))
    h = np.zeros((steps + 1, width))
    c = np.zeros((steps + 1, width))
    for t in range(steps):
        # Layer-normalize the four gate blocks at once: rows of a (4, H) view.
        pre = (pre_x[t] + wh @ h[t]).reshape(4, width)
        centered = pre - pre.sum(axis=1, keepdims=True) / width
        inv_stds[t] = 1.0 / np.sqrt((centered**2).sum(axis=1, keepdims=True) / width + LN_EPS)
        xhats[t] = centered * inv_stds[t]
        z = gain * xhats[t] + shift
        gates[t] = _sigmoid(z)
        gates[t, 2] = np.tanh(z[2])
        gate_i, gate_f, cand, gate_o = gates[t]
        c[t + 1] = gate_f * c[t] + gate_i * (cand * keep)
        h[t + 1] = gate_o * np.tanh(c[t + 1])
    return h[1:], {"inputs": inputs, "h": h, "c": c, "xhats": xhats,
                   "inv_stds": inv_stds, "gates": gates}


def _lstm_backward(params, prefix, cache, d_out, mask, grads):
    """Reverse of ``_lstm_forward``: accumulates the layer's parameter gradients
    into ``grads`` given d(loss)/d(outputs), and returns d(loss)/d(inputs)."""
    steps, width = d_out.shape
    h, c, gates = cache["h"], cache["c"], cache["gates"]
    xhats, inv_stds = cache["xhats"], cache["inv_stds"]
    gain = params[f"{prefix}/gain"].reshape(4, width)
    wh = params[f"{prefix}/wh"]
    tanh_c = np.tanh(c[1:])
    keep = 1.0 if mask is None else mask

    d_z = np.empty((steps, 4, width))
    d_pre = np.empty((steps, 4 * width))
    d_h_next = np.zeros(width)
    d_c_next = np.zeros(width)
    for t in range(steps - 1, -1, -1):
        gate_i, gate_f, cand, gate_o = gates[t]
        d_h = d_out[t] + d_h_next
        d_c = d_c_next + d_h * gate_o * (1.0 - tanh_c[t] ** 2)
        d_z[t, 0] = d_c * (cand * keep) * gate_i * (1.0 - gate_i)
        d_z[t, 1] = d_c * c[t] * gate_f * (1.0 - gate_f)
        d_z[t, 2] = d_c * gate_i * keep * (1.0 - cand**2)
        d_z[t, 3] = d_h * tanh_c[t] * gate_o * (1.0 - gate_o)
        # Layer-norm backward, all four gate blocks at once.
        d_xhat = d_z[t] * gain
        d_pre[t] = (
            inv_stds[t]
            * (
                d_xhat
                - d_xhat.sum(axis=1, keepdims=True) / width
                - xhats[t] * ((d_xhat * xhats[t]).sum(axis=1, keepdims=True) / width)
            )
        ).reshape(-1)
        d_h_next = d_pre[t] @ wh
        d_c_next = d_c * gate_f

    grads[f"{prefix}/wx"] += d_pre.T @ cache["inputs"]
    grads[f"{prefix}/wh"] += d_pre.T @ h[:-1]
    grads[f"{prefix}/b"] += d_pre.sum(axis=0)
    grads[f"{prefix}/gain"] += (d_z * xhats).sum(axis=0).reshape(-1)
    grads[f"{prefix}/shift"] += d_z.sum(axis=0).reshape(-1)
    return d_pre @ params[f"{prefix}/wx"]


def _forward(params, window, masks):
    """Dense stack, both recurrent layers and the output layer; returns the
    sigmoid outputs and the caches the backward pass reads."""
    dense = _dense_forward(params, window, masks)
    y0, lstm0 = _lstm_forward(params, "lstm0", dense["h2d"], masks.recurrent_mask(0))
    y1, lstm1 = _lstm_forward(params, "lstm1", y0, masks.recurrent_mask(1))
    output = _sigmoid(params["out/w"] @ y1[-1] + params["out/b"])
    return output, {"dense": dense, "lstm0": lstm0, "lstm1": lstm1}


def _checked_window(model: "LstmModel", window: np.ndarray, masks: DropoutMasks | None):
    """The window as a float (T, V) array of its last ``unroll_steps`` rows,
    and the masks (none if not given) cut to the same rows."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim == 1:
        window = window[None, :]
    if window.shape[0] == 0:
        raise EmptyWindow("a window needs at least one event")
    if window.shape[1] != model.config.vocab:
        raise ValueError(
            f"window width {window.shape[1]} != vocabulary {model.config.vocab}"
        )
    window = window[-model.config.unroll_steps :]
    return window, (masks or DropoutMasks.disabled()).last(window.shape[0])


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
    window, masks = _checked_window(model, window, masks)
    return _forward(model.params, window, masks)[0]


def loss_and_gradients(
    model: "LstmModel",
    window: np.ndarray,
    target: np.ndarray,
    masks: DropoutMasks | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus exact reverse-mode gradients for every parameter."""
    window, masks = _checked_window(model, window, masks)
    target = np.asarray(target, dtype=np.float64)
    params = model.params

    output, caches = _forward(params, window, masks)
    loss = logloss(output, target)

    grads = {name: np.zeros_like(value) for name, value in params.items()}
    # d(loss)/d(logit) for sigmoid + binary cross-entropy.
    d_logits = output - target
    grads["out/w"] += np.outer(d_logits, caches["lstm1"]["h"][-1])
    grads["out/b"] += d_logits
    d_top = np.zeros((window.shape[0], model.config.lstm_width))
    d_top[-1] = params["out/w"].T @ d_logits
    d_y0 = _lstm_backward(params, "lstm1", caches["lstm1"], d_top, masks.recurrent_mask(1), grads)
    d_h2d = _lstm_backward(params, "lstm0", caches["lstm0"], d_y0, masks.recurrent_mask(0), grads)

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


def clip_gradients(grads: dict[str, np.ndarray]) -> float:
    """Scale gradients in place to a global norm of at most ``GRAD_CLIP_NORM``."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > GRAD_CLIP_NORM:
        scale = GRAD_CLIP_NORM / total
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
        tail = context[-self.config.unroll_steps :]
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
    model.event_freq = event_frequencies(pool, model.dictionary)
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
                    train_logloss=running_loss / len(bounds),
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
