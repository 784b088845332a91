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

The window kernel takes one (T, V) window. Each recurrent layer runs over
the whole window before the next layer starts: its input projection
``Wx·x + b`` is one matrix product for all steps, and only ``Wh·h`` and the
gate arithmetic stay in the time loop. Training runs it on each window, and
its backward pass reads the time-major caches it keeps; ``forward_window``
runs it without dropout as the reference the inference walk is tested
against.

Every inference pass over a sequence (validation loss, teacher-forced
prediction, restoration, rollout) is one walk, ``_lockstep``: position ``q``
is scored from the window ``ids[max(0, q - unroll_steps):q]`` started from
the zero state, and the walk goes left to right, advancing every window in
flight at a position by one ``_lstm_step`` per recurrent layer, the step
the window kernel runs. At most ``unroll_steps + 1`` windows of state are
held at once, and a position's id is read only after the output scoring it
has been taken. ``LstmModel.walk`` turns those outputs into predicted ids,
so the self-fed loop of ``restore.fill_gaps`` can write each prediction
into its slot before the walk reads it as input, and the teacher-forced
loop of ``evaluate.next_event_accuracy`` reads the true ids.
The walk multiplies by C-contiguous copies of both layers' ``Wh.T`` and of
``lstm1``'s ``Wx.T``, about twice as fast at its batch sizes as the
transposed views; training keeps the views, because at a batch of one the
copy rounds differently and would change every model. The walk's ``lstm0``
input row is computed once per dictionary index, on its first read.

The loss is per-node binary cross-entropy summed over output nodes, and all
gradients are exact reverse-mode derivatives through the unrolled stack,
truncated at the window start. Dropout is inverted (scaled at train time) so
inference runs the plain deterministic forward pass. Dropout that is off is a
mask of 1.0: the kernel always multiplies by its masks, and inference passes
``NO_DROPOUT``, whose every mask is 1.0.

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
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from .core import (
    OTHER_TOKEN,
    Dictionary,
    EventId,
    Trace,
    encode_ids,
    decode_index,
    event_frequencies,
    np,
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


def _is_int(value) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        if not all(map(_is_int, (self.vocab, self.dense_width, self.lstm_width,
                                 self.unroll_steps))):
            raise ValueError("widths and unroll_steps must be integers")
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


# ---------------------------------------------------------------------------
# parameters


def _parameter_shapes(config: NetworkConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in the order ``init_parameters`` draws them."""
    v, d, h = config.vocab, config.dense_width, config.lstm_width
    shapes = {"dense0/w": (d, v), "dense0/b": (d,), "dense1/w": (d, d), "dense1/b": (d,)}
    for layer, in_width in ((0, d), (1, h)):
        shapes[f"lstm{layer}/wx"] = (4 * h, in_width)
        shapes[f"lstm{layer}/wh"] = (4 * h, h)
        for part in ("b", "gain", "shift"):
            shapes[f"lstm{layer}/{part}"] = (4 * h,)
    shapes["out/w"] = (v, h)
    shapes["out/b"] = (v,)
    return shapes


def init_parameters(config: NetworkConfig, seed: int) -> dict[str, np.ndarray]:
    """Seeded uniform init in [-s, s] with s = 1/sqrt(fan-in) per matrix, whose
    fan-in is its column count.

    Layer-norm gains start at 1, offsets at 0 except the forget-gate offset,
    which starts at 1 to bias cells toward remembering early in training.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    h = config.lstm_width
    params: dict[str, np.ndarray] = {}
    for name, shape in _parameter_shapes(config).items():
        if len(shape) == 2:
            s = 1.0 / math.sqrt(shape[1])
            params[name] = rng.uniform(-s, s, size=shape)
        elif name.endswith("/gain"):
            params[name] = np.ones(shape)
        else:
            params[name] = np.zeros(shape)
    for layer in (0, 1):
        params[f"lstm{layer}/shift"][h : 2 * h] = 1.0  # forget gate slice
    return params


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


# A mask is an array or the scalar 1.0; masks are (input, (dense0, dense1),
# (lstm0, lstm1)). A string, so that importing this module does not load numpy.
Mask = "np.ndarray | float"
Masks = tuple[Mask, tuple[Mask, Mask], tuple[Mask, Mask]]

NO_DROPOUT: Masks = (1.0, (1.0, 1.0), (1.0, 1.0))


def sample_masks(config: NetworkConfig, steps: int, rng: np.random.Generator) -> Masks:
    """Inverted-dropout masks for one training window of ``steps`` events.

    Input and dense-layer masks are per step; recurrent masks are held fixed
    across the sequence. A rate of 0 gives 1.0 and draws nothing from ``rng``.
    Draws run in the order input, dense0, dense1, lstm0, lstm1.
    """

    def draw(shape, rate):
        if rate == 0.0:
            return 1.0
        return (rng.random(shape) >= rate) / (1.0 - rate)

    dense = (steps, config.dense_width)
    recurrent = (config.lstm_width,)
    return (
        draw((steps, config.vocab), config.input_dropout),
        (draw(dense, config.hidden_dropout), draw(dense, config.hidden_dropout)),
        (draw(recurrent, config.recurrent_dropout), draw(recurrent, config.recurrent_dropout)),
    )


# ---------------------------------------------------------------------------
# forward / backward over a window


def _dense_forward(params, windows, masks):
    """The per-step feedforward stack, evaluated for all windows and steps at once."""
    input_mask, (mask0, mask1), _ = masks
    x0 = windows * input_mask
    h1 = np.tanh(x0 @ params["dense0/w"].T + params["dense0/b"])
    h1d = h1 * mask0
    h2 = np.tanh(h1d @ params["dense1/w"].T + params["dense1/b"])
    h2d = h2 * mask1
    return {"x0": x0, "h1": h1, "h1d": h1d, "h2": h2, "h2d": h2d}


def _step_weights(params, prefix):
    """What ``_lstm_step`` reads of a layer: ``Wh`` transposed and the (4, H)
    layer-norm gains and shifts."""
    wh_t = params[f"{prefix}/wh"].T
    width = wh_t.shape[0]
    gain = params[f"{prefix}/gain"].reshape(4, width)
    shift = params[f"{prefix}/shift"].reshape(4, width)
    return wh_t, gain, shift


def _input_projection(params, prefix, inputs):
    """``Wx·x + b`` of a recurrent layer for inputs of any leading shape."""
    pre_x = inputs @ params[f"{prefix}/wx"].T
    pre_x += params[f"{prefix}/b"]
    return pre_x


def _lstm_step(weights, pre_x, h, c, mask):
    """One time step of a recurrent layer for a (B, H) block of states.

    ``pre_x`` is the step's input projection, (B, 4H) or one row that all B
    windows share. Returns the new hidden and cell states, then the (B, 4, H)
    normalized pre-activations, (B, 4, 1) inverse standard deviations and
    (B, 4, H) gates that the backward pass reads. The arithmetic runs in place
    but in the order of the one-expression form the tests keep, so its bits
    match it.
    """
    wh_t, gain, shift = weights
    batch, width = h.shape
    # Layer-normalize the four gate blocks at once: rows of a (B, 4, H) view.
    xhat = h @ wh_t
    xhat += pre_x
    xhat = xhat.reshape(batch, 4, width)
    xhat -= xhat.sum(axis=2, keepdims=True) / width
    inv_std = 1.0 / np.sqrt((xhat**2).sum(axis=2, keepdims=True) / width + LN_EPS)
    xhat *= inv_std
    z = gain * xhat
    z += shift
    # The sigmoid 0.5 * (1 + tanh(z / 2)) of every block, then tanh of the candidate's.
    gate = z / 2.0
    np.tanh(gate, out=gate)
    gate += 1.0
    gate *= 0.5
    np.tanh(z[:, 2], out=gate[:, 2])
    gate_i, gate_f, cand, gate_o = gate.swapaxes(0, 1)
    c_next = gate_f * c
    update = cand * mask
    update *= gate_i
    c_next += update
    h_next = np.tanh(c_next)
    h_next *= gate_o
    return h_next, c_next, xhat, inv_std, gate


def _lstm_forward(params, prefix, inputs, mask):
    """One recurrent layer over a window: (T, in) inputs to (T, H) outputs.

    ``mask`` is the per-sequence inverted-dropout mask applied to the tanh
    candidate vector; dropout that is off is a mask of 1.0. The returned
    cache holds the (T, 4, H) normalized pre-activations and gates and the
    (T+1, H) hidden and cell states, step 0 being the zero start state, all
    time-major as ``_lstm_backward`` reads them. Each step runs
    ``_lstm_step`` on a block of one state, ``h[t : t + 1]``.
    """
    steps = inputs.shape[0]
    weights = _step_weights(params, prefix)
    width = weights[0].shape[0]
    pre_x = _input_projection(params, prefix, inputs)

    h = np.zeros((steps + 1, width))
    c = np.zeros((steps + 1, width))
    xhats = np.empty((steps, 4, width))
    inv_stds = np.empty((steps, 4, 1))
    gates = np.empty((steps, 4, width))
    for t in range(steps):
        h[t + 1], c[t + 1], xhats[t], inv_stds[t], gates[t] = _lstm_step(
            weights, pre_x[t], h[t : t + 1], c[t : t + 1], mask
        )
    cache = {"inputs": inputs, "h": h, "c": c, "xhats": xhats, "inv_stds": inv_stds,
             "gates": gates}
    return h[1:], cache


def _lstm_backward(params, prefix, cache, d_out, mask, grads):
    """Reverse of ``_lstm_forward``: accumulates the layer's parameter gradients
    into ``grads`` given d(loss)/d(outputs), and returns d(loss)/d(inputs)."""
    steps, width = d_out.shape
    h, c, gates = cache["h"], cache["c"], cache["gates"]
    xhats, inv_stds = cache["xhats"], cache["inv_stds"]
    gain = params[f"{prefix}/gain"].reshape(4, width)
    wh = params[f"{prefix}/wh"]
    tanh_c = np.tanh(c[1:])

    d_z = np.empty((steps, 4, width))
    d_pre = np.empty((steps, 4 * width))
    d_h_next = np.zeros(width)
    d_c_next = np.zeros(width)
    for t in range(steps - 1, -1, -1):
        gate_i, gate_f, cand, gate_o = gates[t]
        d_h = d_out[t] + d_h_next
        d_c = d_c_next + d_h * gate_o * (1.0 - tanh_c[t] ** 2)
        d_z[t, 0] = d_c * (cand * mask) * gate_i * (1.0 - gate_i)
        d_z[t, 1] = d_c * c[t] * gate_f * (1.0 - gate_f)
        d_z[t, 2] = d_c * gate_i * mask * (1.0 - cand**2)
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
    """Dense stack and both recurrent layers over a (T, V) window; returns
    the top layer's (T, H) outputs and the (dense, lstm0, lstm1) caches."""
    recurrent0, recurrent1 = masks[2]
    dense = _dense_forward(params, window, masks)
    y0, lstm0 = _lstm_forward(params, "lstm0", dense["h2d"], recurrent0)
    y1, lstm1 = _lstm_forward(params, "lstm1", y0, recurrent1)
    return y1, (dense, lstm0, lstm1)


def _output(params, top):
    """The sigmoid output layer on top-layer states of any leading shape."""
    return _sigmoid(top @ params["out/w"].T + params["out/b"])


def _checked_window(model: "LstmModel", window: np.ndarray) -> np.ndarray:
    """The window as a float (T, V) array of its last ``unroll_steps`` rows."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim == 1:
        window = window[None, :]
    if window.shape[0] == 0:
        raise EmptyWindow("a window needs at least one event")
    if window.shape[1] != model.config.vocab:
        raise ValueError(
            f"window width {window.shape[1]} != vocabulary {model.config.vocab}"
        )
    return window[-model.config.unroll_steps :]


def forward_window(model: "LstmModel", window: np.ndarray) -> np.ndarray:
    """Run the network over a window of encoded events; returns sigmoid outputs.

    This is the deterministic inference path, without dropout. Windows
    shorter than ``unroll_steps`` simply run fewer recurrence steps from the
    zero state. It is the B=1 reference that the tests compare ``_lockstep``
    against; inference itself runs the walk.
    """
    top, _ = _forward(model.params, _checked_window(model, window), NO_DROPOUT)
    return _output(model.params, top[-1])


def _lockstep(model: "LstmModel", ids: Sequence[EventId | str], scored: Sequence[bool]):
    """Yields ``(q, output)`` for each position ``q >= 1`` with ``scored[q]``,
    in order: the sigmoid output of the window ``ids[max(0, q - unroll):q]``
    started from the zero state, as ``forward_window`` scores it, up to
    rounding.

    The windows run in lockstep. The walk goes through the positions once,
    and at each position it takes the event's ``lstm0`` input row, computed
    by the one-hot pass on the first read of its dictionary index, then
    advances every window holding that position by one batched step per
    recurrent layer, on contiguous weight copies taken once per walk. The
    windows of scored positions up to ``unroll`` are prefixes of one stream
    from position 0, so at most ``unroll + 1`` windows are in flight.
    ``ids[p]`` is read only after the output for ``p`` has been taken, and no
    id more than ``unroll`` positions before the first scored one is read at
    all.
    """
    params, unroll, length = model.params, model.config.unroll_steps, len(scored)
    weights0, weights1 = (
        (np.ascontiguousarray(wh_t), gain, shift)
        for wh_t, gain, shift in (_step_weights(params, "lstm0"), _step_weights(params, "lstm1"))
    )
    wx1_t, b1 = np.ascontiguousarray(params["lstm1/wx"].T), params["lstm1/b"]
    # The lstm0 input projection of each dictionary index read so far.
    input_rows: dict[int, np.ndarray] = {}
    # States (h0, c0, h1, c1) of the windows in flight, oldest first, and
    # the position at which each window is read for the last time.
    states = [np.zeros((0, model.config.lstm_width))] * 4
    ends: list[int] = []
    prefix_end = max((q - 1 for q in range(1, min(unroll + 1, length)) if scored[q]),
                     default=None)
    for p in range(length - 1):
        # The window that starts here: the prefix stream, or position p + unroll's.
        end = prefix_end if p == 0 else None
        if p and p + unroll < length and scored[p + unroll]:
            end = p + unroll - 1
        if end is not None:
            states = [np.concatenate([s, np.zeros((1, s.shape[1]))]) for s in states]
            ends.append(end)
        if not ends:
            continue
        index = model.dictionary.index_of(ids[p])
        if index not in input_rows:
            dense = _dense_forward(params, encode_ids([ids[p]], model.dictionary), NO_DROPOUT)
            input_rows[index] = _input_projection(params, "lstm0", dense["h2d"])
        h0, c0, *_ = _lstm_step(weights0, input_rows[index], states[0], states[1], 1.0)
        pre_x1 = h0 @ wx1_t
        pre_x1 += b1
        h1, c1, *_ = _lstm_step(weights1, pre_x1, states[2], states[3], 1.0)
        states = [h0, c0, h1, c1]
        # Position p + 1 reads the oldest window in flight, and retires it
        # when this is its last read.
        if scored[p + 1]:
            yield p + 1, _output(params, h1[0])
            if ends[0] == p:
                states = [s[1:] for s in states]
                del ends[0]


def loss_and_gradients(
    model: "LstmModel",
    window: np.ndarray,
    target: np.ndarray,
    masks: Masks = NO_DROPOUT,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus exact reverse-mode gradients for every parameter.

    Masks that are arrays must cover the steps of the trimmed window.
    """
    window = _checked_window(model, window)
    target = np.asarray(target, dtype=np.float64)
    params = model.params

    top, (dense, lstm0, lstm1) = _forward(params, window, masks)
    output = _output(params, top[-1])
    loss = logloss(output, target)

    grads = {name: np.zeros_like(value) for name, value in params.items()}
    # d(loss)/d(logit) for sigmoid + binary cross-entropy.
    d_logits = output - target
    grads["out/w"] += np.outer(d_logits, lstm1["h"][-1])
    grads["out/b"] += d_logits
    d_top = np.zeros((window.shape[0], model.config.lstm_width))
    d_top[-1] = params["out/w"].T @ d_logits
    _, (mask0, mask1), (recurrent0, recurrent1) = masks
    d_y0 = _lstm_backward(params, "lstm1", lstm1, d_top, recurrent1, grads)
    d_h2d = _lstm_backward(params, "lstm0", lstm0, d_y0, recurrent0, grads)

    # Dense stack backward, all steps at once.
    d_h2 = d_h2d * mask1
    d_a2 = d_h2 * (1.0 - dense["h2"] ** 2)
    grads["dense1/w"] += d_a2.T @ dense["h1d"]
    grads["dense1/b"] += d_a2.sum(axis=0)
    d_h1d = d_a2 @ params["dense1/w"]
    d_h1 = d_h1d * mask0
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
    """Network configuration, event dictionary, learned parameters and the
    training pool's id frequencies, empty until ``train``."""

    config: NetworkConfig
    dictionary: Dictionary
    params: dict[str, np.ndarray]
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
        This one-window-per-call form is the B=1 reference that the tests
        compare ``walk`` against; the program's own passes run ``walk``.
        """
        if not self.event_freq:
            raise UntrainedModel("model has not been trained")
        if not context:
            return self.prior_event()
        tail = context[-self.config.unroll_steps :]
        output = forward_window(self, encode_ids(tail, self.dictionary))
        return decode_index(int(np.argmax(output)), self.dictionary)

    def walk(
        self, ids: Sequence[EventId | str], scored: Sequence[bool]
    ) -> Iterator[tuple[int, EventId]]:
        """Yields ``(q, predict_next(ids[:q]))`` for each ``q`` with
        ``scored[q]``, in order, up to rounding, all from one ``_lockstep``
        walk. ``ids[q]`` is read only after ``q`` has been yielded.
        """
        if any(scored) and not self.event_freq:
            raise UntrainedModel("model has not been trained")
        if scored and scored[0]:
            yield 0, self.prior_event()
        for q, output in _lockstep(self, ids, scored):
            yield q, decode_index(int(np.argmax(output)), self.dictionary)

    def prior_event(self) -> EventId:
        """Most frequent event of the training pool (leading-gap fallback)."""
        return pick_most_frequent(self.event_freq, self.dictionary)


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


def _window_bounds(length: int, unroll: int) -> list[tuple[int, int]]:
    """(start, end) context slices; the target is the event at ``end``."""
    return [(max(0, end - unroll), end) for end in range(1, length)]


def _validation_loss(model: LstmModel, ids: Sequence[EventId]) -> float:
    """Mean logloss of every position from 1 on, scored by one ``_lockstep`` walk."""
    targets = encode_ids(ids, model.dictionary)
    total = 0.0
    for q, output in _lockstep(model, ids, [True] * len(ids)):
        total += logloss(output, targets[q])
    return total / (len(ids) - 1)


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
    encoded_pool = [encode_ids(t.ids(), model.dictionary) for t in pool]

    history: list[RoundMetrics] = []
    for round_index in range(schedule.rounds):
        picked = rng.choice(len(pool), size=2, replace=False)
        train_idx, val_idx = int(picked[0]), int(picked[1])
        train_mat = encoded_pool[train_idx]
        val_ids = pool[val_idx].ids()
        bounds = _window_bounds(train_mat.shape[0], config.unroll_steps)

        epoch_metrics: list[EpochMetrics] = []
        for epoch in range(1, schedule.epochs_flat + schedule.epochs_decay + 1):
            lr = schedule.learning_rate(epoch)
            order = rng.permutation(len(bounds))
            running_loss = 0.0
            for j in order:
                start, end = bounds[j]
                masks = sample_masks(config, end - start, rng)
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
                    val_logloss=_validation_loss(model, val_ids),
                )
            )
        history.append(
            RoundMetrics(
                round_index=round_index,
                train_label=pool[train_idx].label,
                val_label=pool[val_idx].label,
                epochs=epoch_metrics,
            )
        )
    model.event_freq = event_frequencies(pool, model.dictionary)
    return history


# ---------------------------------------------------------------------------
# serialization


def save_model(model: LstmModel, sink: str | os.PathLike) -> None:
    """Write the versioned binary model file (magic, header, data, checksum);
    the JSON header's keys are ``config``, ``dictionary``, ``event_freq`` and
    ``params``. ``load_model`` ignores the ``trained`` key of older files."""
    manifest = [[name, list(model.params[name].shape)] for name in sorted(model.params)]
    header = {
        "config": asdict(model.config),
        "dictionary": list(model.dictionary.ids),
        "event_freq": {str(k): v for k, v in sorted(model.event_freq.items())},
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
    blob += hashlib.sha256(blob).digest()
    Path(sink).write_bytes(blob)


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
    # A view, so the file's bytes are not copied again, whole or per parameter.
    body, digest = memoryview(raw)[:-32], raw[-32:]
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
        dictionary = Dictionary(tuple(header["dictionary"]))
        manifest = [(name, tuple(shape)) for name, shape in header["params"]]
        shapes = dict(manifest)
        event_freq = {EventId(k): v for k, v in header["event_freq"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CorruptModel(f"malformed header: {exc!r}") from exc
    if config.vocab != dictionary.size:
        raise CorruptModel(f"config vocab {config.vocab} != dictionary size {dictionary.size}")
    known = {*dictionary.ids, OTHER_TOKEN}
    for eid, count in event_freq.items():
        if eid not in known or not _is_int(count) or count < 1:
            raise CorruptModel(f"event_freq entry {eid}: {count!r} is not a known id's count")
    expected = _parameter_shapes(config)
    if shapes != expected or len(manifest) != len(expected):
        raise CorruptModel("parameter manifest does not match the network config")
    params: dict[str, np.ndarray] = {}
    for name, _ in manifest:
        shape = expected[name]
        nbytes = math.prod(shape) * 8
        chunk = body[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise CorruptModel(f"parameter {name!r} data truncated")
        params[name] = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(body):
        raise CorruptModel("trailing bytes after parameter data")
    return LstmModel(config=config, dictionary=dictionary, params=params, event_freq=event_freq)
