import hashlib
import json
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracekit import lstm
from tracekit.core import Dictionary, EventId, build_dictionary, encode_ids, event_frequencies
from tracekit.errors import (
    CorruptModel,
    EmptyWindow,
    InsufficientTraces,
    UntrainedModel,
    VersionMismatch,
)
from tracekit.lstm import (
    NO_DROPOUT,
    LstmModel,
    NetworkConfig,
    TrainingSchedule,
    _FORMAT_VERSION,
    _MAGIC,
    _forward,
    _lockstep,
    _lstm_forward,
    _output,
    _validation_loss,
    clip_gradients,
    forward_window,
    init_parameters,
    load_model,
    logloss,
    loss_and_gradients,
    sample_masks,
    save_model,
    train,
)
from tracekit.restore import fill_gaps


def tiny_config(vocab=5, dense=4, width=6, unroll=5, dropout=0.0):
    return NetworkConfig(
        vocab=vocab,
        dense_width=dense,
        lstm_width=width,
        unroll_steps=unroll,
        input_dropout=dropout,
        hidden_dropout=dropout,
        recurrent_dropout=dropout,
    )


def tiny_model(config=None, seed=0):
    config = config or tiny_config()
    d = Dictionary(tuple(EventId(f"E{i}") for i in range(config.vocab - 1)))
    return LstmModel.initialize(config, d, seed=seed)


def resigned(body):
    """A model file of ``body`` with its checksum recomputed."""
    return body + hashlib.sha256(body).digest()


def with_header(raw, edit):
    """Model file ``raw`` with ``edit`` applied to its JSON header, re-signed."""
    offset = len(_MAGIC) + 4
    (length,) = struct.unpack_from("<Q", raw, offset)
    header = json.loads(raw[offset + 8 : offset + 8 + length])
    edit(header)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return resigned(raw[:offset] + struct.pack("<Q", len(text)) + text
                    + raw[offset + 8 + length : -32])


def random_window(config, rng, steps=None):
    steps = steps or rng.integers(1, config.unroll_steps + 1)
    window = np.zeros((steps, config.vocab))
    window[np.arange(steps), rng.integers(0, config.vocab, steps)] = 1.0
    return window


def random_target(config, rng):
    target = np.zeros(config.vocab)
    target[rng.integers(0, config.vocab)] = 1.0
    return target


def window_output(params, window, masks):
    """The kernel's sigmoid output for one (T, V) window."""
    top, _ = _forward(params, window, masks)
    return _output(params, top[-1])


def assert_close(actual, expected):
    """Equal within 1e-12 times the largest entry of ``expected``."""
    expected = np.asarray(expected)
    assert np.max(np.abs(np.asarray(actual) - expected)) <= 1e-12 * np.max(np.abs(expected))


def finite_difference_max_error(model, window, target, h=1e-5):
    _, grads = loss_and_gradients(model, window, target)
    worst = 0.0
    for name, p in model.params.items():
        flat = p.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = logloss(forward_window(model, window), target)
            flat[i] = orig - h
            lm = logloss(forward_window(model, window), target)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(fd - gflat[i]) / max(1.0, abs(fd), abs(gflat[i])))
    return worst


class TestNetworkConfig:
    def test_paper_ratios(self):
        cfg = NetworkConfig.for_vocab(44)
        assert cfg.dense_width == 88
        assert cfg.lstm_width == 352
        assert cfg.unroll_steps == 40
        assert cfg.input_dropout == 0.2
        assert cfg.hidden_dropout == 0.4
        assert init_parameters(cfg, 0)["out/w"].shape == (44, 352)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(vocab=0, dense_width=2, lstm_width=2)
        with pytest.raises(ValueError):
            NetworkConfig(vocab=2, dense_width=2, lstm_width=2, input_dropout=1.0)


class TestLayerNorm:
    def test_gradient_against_finite_differences(self):
        # Probe the layer-norm gradient through a one-step cell on a wider
        # vector so the normalization statistics actually matter.
        cfg = tiny_config(vocab=4, dense=3, width=6, unroll=1)
        model = tiny_model(cfg, seed=3)
        rng = np.random.default_rng(3)
        window = random_window(cfg, rng, steps=1)
        target = random_target(cfg, rng)
        assert finite_difference_max_error(model, window, target) < 1e-5


class TestLstmLayer:
    def test_zero_parameters_give_zero_state(self):
        cfg = tiny_config()
        params = {k: np.zeros_like(v) for k, v in init_parameters(cfg, 0).items()}
        inputs = np.ones((3, cfg.dense_width))
        y, cache = _lstm_forward(params, "lstm0", inputs, 1.0)
        assert y.shape == (3, cfg.lstm_width)
        assert np.allclose(y, 0.0)
        assert np.allclose(cache["h"], 0.0)
        assert np.allclose(cache["c"], 0.0)

    def test_inference_is_deterministic(self):
        cfg = tiny_config()
        params = init_parameters(cfg, 1)
        inputs = np.random.default_rng(0).normal(size=(3, cfg.dense_width))
        y1, cache1 = _lstm_forward(params, "lstm0", inputs, 1.0)
        y2, cache2 = _lstm_forward(params, "lstm0", inputs, 1.0)
        assert np.array_equal(y1, y2)
        assert np.array_equal(cache1["c"], cache2["c"])


class TestForward:
    def test_zero_parameters_output_half(self):
        cfg = tiny_config()
        model = tiny_model(cfg)
        model.params = {k: np.zeros_like(v) for k, v in model.params.items()}
        out = forward_window(model, random_window(cfg, np.random.default_rng(0)))
        assert np.allclose(out, 0.5)

    def test_output_width_and_range(self):
        cfg = tiny_config(vocab=44, dense=8, width=8, unroll=40)
        model = tiny_model(cfg, seed=2)
        out = forward_window(model, random_window(cfg, np.random.default_rng(1), steps=40))
        assert out.shape == (44,)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_short_windows_allowed(self):
        model = tiny_model()
        out = forward_window(model, random_window(model.config, np.random.default_rng(2), steps=1))
        assert out.shape == (model.config.vocab,)

    def test_empty_window_rejected(self):
        model = tiny_model()
        with pytest.raises(EmptyWindow):
            forward_window(model, np.zeros((0, model.config.vocab)))

    def test_window_longer_than_unroll_is_truncated(self):
        cfg = tiny_config(unroll=3)
        model = tiny_model(cfg, seed=4)
        rng = np.random.default_rng(3)
        long_window = random_window(cfg, rng, steps=3)
        extended = np.vstack([random_window(cfg, rng, steps=2), long_window])
        assert np.allclose(forward_window(model, extended), forward_window(model, long_window))

    def test_gradient_path_shares_the_window_checks(self):
        cfg = tiny_config(unroll=3)
        model = tiny_model(cfg, seed=4)
        rng = np.random.default_rng(5)
        target = random_target(cfg, rng)
        with pytest.raises(ValueError, match="window width"):
            loss_and_gradients(model, np.zeros((2, cfg.vocab + 1)), target)
        with pytest.raises(EmptyWindow):
            loss_and_gradients(model, np.zeros((0, cfg.vocab)), target)
        window = random_window(cfg, rng, steps=3)
        extended = np.vstack([random_window(cfg, rng, steps=2), window])
        loss, grads = loss_and_gradients(model, window, target)
        long_loss, long_grads = loss_and_gradients(model, extended, target)
        assert long_loss == loss
        assert all(np.array_equal(long_grads[name], grads[name]) for name in grads)

    def test_inference_pure_function(self):
        model = tiny_model(seed=5)
        window = random_window(model.config, np.random.default_rng(4), steps=4)
        assert np.array_equal(forward_window(model, window), forward_window(model, window))


def jittered_model(seed):
    """A tiny model of unroll 5 whose weights are jittered off their init."""
    model = tiny_model(tiny_config(unroll=5), seed=seed)
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p += rng.uniform(-0.3, 0.3, size=p.shape)
    return model


def random_ids(model, rng, length):
    """Ids over the model's dictionary plus one unknown id, which encodes as OTHER."""
    alphabet = [*model.dictionary.ids, EventId("unknown")]
    return [alphabet[i] for i in rng.integers(0, len(alphabet), length)]


def assert_walk_matches_forward_window(model, ids, scored):
    """The walk yields exactly the scored positions from 1 on, each row the
    output ``forward_window`` gives for the window before it."""
    unroll = model.config.unroll_steps
    rows = list(_lockstep(model, ids, scored))
    assert [q for q, _ in rows] == [q for q in range(1, len(ids)) if scored[q]]
    for q, output in rows:
        window = encode_ids(ids[max(0, q - unroll) : q], model.dictionary)
        assert_close(output, forward_window(model, window))


class TestLockstep:
    """The inference walk against ``forward_window`` on each window."""

    @pytest.mark.parametrize(
        "length", [4, 6, 17], ids=["shorter than unroll", "unroll + 1", "3 x unroll + 2"]
    )
    def test_every_position_matches_forward_window(self, length):
        model = jittered_model(40)
        ids = random_ids(model, np.random.default_rng(40), length)
        assert_walk_matches_forward_window(model, ids, [True] * length)

    @settings(max_examples=60, deadline=None)
    @given(scored=st.lists(st.booleans(), max_size=40), seed=st.integers(0, 2**16))
    def test_any_scored_mask_matches_forward_window(self, scored, seed):
        model = jittered_model(41)
        ids = random_ids(model, np.random.default_rng(seed), len(scored))
        assert_walk_matches_forward_window(model, ids, scored)

    def test_validation_loss_is_the_per_window_mean(self):
        model = jittered_model(41)
        ids = random_ids(model, np.random.default_rng(41), 30)
        encoded = encode_ids(ids, model.dictionary)
        losses = [logloss(forward_window(model, encoded[:k]), encoded[k]) for k in range(1, 30)]
        assert _validation_loss(model, ids) == pytest.approx(sum(losses) / 29, rel=1e-12)


# Positions scored over 100 ids at the benchmark's widths, and the number of
# windows the walk holds in flight at its busiest position.
WIDE_MASKS = {
    "one window": ([70], 1),
    "two windows": ([60, 61], 2),
    "prefix stream and two more": ([1, 5, 39, 41, 50], 3),
    "every fifth": (range(3, 100, 5), 8),
    "every position": (range(100), 40),
}


class TestLockstepAtBenchmarkWidths:
    """The walk at V=17, dense 34, H=136 and unroll 40, where the bits of a
    matrix product depend on its batch size and on the weights' layout."""

    @pytest.mark.parametrize("mask", WIDE_MASKS)
    def test_rows_match_forward_window(self, wide_lstm, mask, monkeypatch):
        positions, in_flight = WIDE_MASKS[mask]
        batches = []
        step = lstm._lstm_step

        def counting_step(weights, pre_x, h, c, recurrent_mask):
            batches.append(h.shape[0])
            return step(weights, pre_x, h, c, recurrent_mask)

        monkeypatch.setattr(lstm, "_lstm_step", counting_step)
        ids = random_ids(wide_lstm, np.random.default_rng(17), 100)
        assert_walk_matches_forward_window(wide_lstm, ids, [q in positions for q in range(100)])
        assert max(batches) == in_flight


def one_expression_step(weights, pre_x, h, c, mask):
    """``_lstm_step`` written one expression per quantity: the reference whose
    bits training, every saved model and ``lstm_golden.json`` rest on."""
    wh_t, gain, shift = weights
    batch, width = h.shape
    pre = (pre_x + h @ wh_t).reshape(batch, 4, width)
    centered = pre - pre.sum(axis=2, keepdims=True) / width
    inv_std = 1.0 / np.sqrt((centered**2).sum(axis=2, keepdims=True) / width + lstm.LN_EPS)
    xhat = centered * inv_std
    z = gain * xhat + shift
    gate = 0.5 * (1.0 + np.tanh(z / 2.0))
    gate[:, 2] = np.tanh(z[:, 2])
    gate_i, gate_f, cand, gate_o = gate.swapaxes(0, 1)
    c_next = gate_f * c + gate_i * (cand * mask)
    h_next = gate_o * np.tanh(c_next)
    return h_next, c_next, xhat, inv_std, gate


class TestStepBits:
    @pytest.mark.parametrize("batch, rows", [(1, 1), (8, 8), (8, 1)],
                             ids=["B=1", "B=8", "B=8, one shared input row"])
    def test_matches_the_one_expression_form(self, wide_lstm, batch, rows):
        rng = np.random.default_rng(batch + rows)
        width = wide_lstm.config.lstm_width
        weights = lstm._step_weights(wide_lstm.params, "lstm1")
        pre_x = rng.standard_normal((rows, 4 * width))
        h, c = rng.standard_normal((2, batch, width))
        recurrent_mask = (rng.random(width) >= 0.4) / 0.6
        for mask in (recurrent_mask, 1.0):
            got = lstm._lstm_step(weights, pre_x, h, c, mask)
            want = one_expression_step(weights, pre_x, h, c, mask)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestInputRows:
    """The walk computes each dictionary index's ``lstm0`` input row once."""

    def test_fill_runs_the_dense_stack_once_per_distinct_id(self, wide_lstm, monkeypatch):
        calls = []
        dense_forward = lstm._dense_forward

        def counting_dense_forward(*args):
            calls.append(args)
            return dense_forward(*args)

        monkeypatch.setattr(lstm, "_dense_forward", counting_dense_forward)
        ids = random_ids(wide_lstm, np.random.default_rng(18), 100)
        filled = fill_gaps(wide_lstm, [None if q % 4 == 0 else eid for q, eid in enumerate(ids)])
        assert 0 < len(calls) <= len(set(filled))

    def test_each_position_gets_its_ids_row(self, wide_lstm, monkeypatch):
        inputs = []
        step = lstm._lstm_step

        def recording_step(weights, pre_x, *rest):
            inputs.append(pre_x)
            return step(weights, pre_x, *rest)

        monkeypatch.setattr(lstm, "_lstm_step", recording_step)
        ids = random_ids(wide_lstm, np.random.default_rng(19), 60)
        list(_lockstep(wide_lstm, ids, [True] * len(ids)))
        # One step per layer and position, lstm0 first; the last id is never read.
        lstm0_inputs = inputs[0::2]
        assert len(lstm0_inputs) == len(ids) - 1
        params = wide_lstm.params
        for eid, row in zip(ids, lstm0_inputs):
            dense = lstm._dense_forward(params, encode_ids([eid], wide_lstm.dictionary), NO_DROPOUT)
            assert np.array_equal(row, lstm._input_projection(params, "lstm0", dense["h2d"]))


class TestLogloss:
    def test_perfect_prediction_near_zero(self):
        target = np.array([1.0, 0.0, 0.0])
        assert logloss(np.array([1.0, 0.0, 0.0]), target) < 1e-9

    def test_uniform_two_node_example(self):
        # Both nodes contribute ln 2.
        value = logloss(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert value == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_clamping_keeps_loss_finite(self):
        value = logloss(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert math.isfinite(value)
        assert value > 20.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            logloss(np.array([0.5]), np.array([1.0, 0.0]))


class TestBackward:
    def test_gradients_match_finite_differences_tiny_config(self):
        model = tiny_model(tiny_config(), seed=7)
        rng = np.random.default_rng(7)
        window = random_window(model.config, rng, steps=5)
        target = random_target(model.config, rng)
        assert finite_difference_max_error(model, window, target) < 1e-4

    def test_unused_output_node_still_gets_gradient(self):
        # Per-node BCE penalizes every node, so an output node whose target
        # is 0 and whose prediction is 0.5 has nonzero weight gradients.
        model = tiny_model(seed=8)
        model.params = {k: np.zeros_like(v) for k, v in model.params.items()}
        window = random_window(model.config, np.random.default_rng(8), steps=2)
        target = np.zeros(model.config.vocab)
        target[0] = 1.0
        grads = loss_and_gradients(model, window, target)[1]
        assert np.any(grads["out/b"] != 0.0)
        assert grads["out/b"][1] == pytest.approx(0.5)

    def test_duplicate_calls_identical(self):
        model = tiny_model(seed=9)
        rng = np.random.default_rng(9)
        window = random_window(model.config, rng, steps=3)
        target = random_target(model.config, rng)
        g1 = loss_and_gradients(model, window, target)[1]
        g2 = loss_and_gradients(model, window, target)[1]
        for name in g1:
            assert np.array_equal(g1[name], g2[name])

    def test_gradients_with_dropout_masks(self):
        # With fixed masks the loss is still a deterministic function; its
        # gradient must match finite differences through the same masks.
        # Biases are nudged off zero: an all-dropped step otherwise leaves a
        # gate pre-activation exactly constant, parking layer norm on its
        # epsilon floor where finite differences lose precision.
        cfg = tiny_config(dropout=0.3)
        model = tiny_model(cfg, seed=10)
        rng = np.random.default_rng(10)
        for p in model.params.values():
            p += rng.uniform(-0.05, 0.05, size=p.shape)
        window = random_window(cfg, rng, steps=4)
        target = random_target(cfg, rng)
        masks = sample_masks(cfg, 4, np.random.default_rng(11))
        _, grads = loss_and_gradients(model, window, target, masks)
        h = 1e-5
        worst = 0.0
        for name, p in model.params.items():
            flat = p.reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(0, flat.size, 7):  # sample every 7th component
                orig = flat[i]
                flat[i] = orig + h
                lp = logloss(window_output(model.params, window, masks), target)
                flat[i] = orig - h
                lm = logloss(window_output(model.params, window, masks), target)
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                worst = max(worst, abs(fd - gflat[i]) / max(1.0, abs(fd), abs(gflat[i])))
        assert worst < 1e-4

    def test_clip_gradients(self):
        grads = {"a": np.array([30.0, 40.0])}
        norm = clip_gradients(grads)
        assert norm == pytest.approx(50.0)
        assert np.linalg.norm(grads["a"]) == pytest.approx(5.0)


class TestMasks:
    def test_a_rate_of_zero_draws_nothing(self):
        cfg = tiny_config(dropout=0.3)
        cfg = NetworkConfig(**{**vars(cfg), "input_dropout": 0.0})
        rng = np.random.default_rng(30)
        masks = sample_masks(cfg, 4, rng)
        assert masks[0] == 1.0
        expected = np.random.default_rng(30)
        for shape in [(4, cfg.dense_width)] * 2 + [(cfg.lstm_width,)] * 2:
            expected.random(shape)
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_masks_at_rate_zero_change_no_bit(self):
        cfg = tiny_config(dropout=0.0)
        model = tiny_model(cfg, seed=31)
        rng = np.random.default_rng(31)
        window = random_window(cfg, rng, steps=4)
        target = random_target(cfg, rng)
        masks = sample_masks(cfg, 4, rng)
        assert masks == NO_DROPOUT
        loss, grads = loss_and_gradients(model, window, target, masks)
        plain_loss, plain_grads = loss_and_gradients(model, window, target)
        assert loss == plain_loss
        assert all(np.array_equal(grads[name], plain_grads[name]) for name in grads)


class TestGoldenValues:
    """The kernel's actual numbers on a seeded model, with and without fixed
    dropout masks. The values in ``lstm_golden.json`` were computed by a
    time-major implementation that stepped both layers cell by cell, so they
    check the layer-major arithmetic rather than its self-consistency; the two
    sum in different orders, hence the relative tolerance."""

    @pytest.mark.parametrize("case", ["plain", "masked"])
    def test_matches_pinned_values(self, case):
        cfg = tiny_config(vocab=4, dense=3, width=4, unroll=4, dropout=0.3)
        model = tiny_model(cfg, seed=21)
        window = np.eye(cfg.vocab)[[1, 3, 0, 2]]
        target = np.eye(cfg.vocab)[2]
        masks = NO_DROPOUT
        if case == "masked":
            masks = sample_masks(cfg, 4, np.random.default_rng(22))
        golden = json.loads(Path(__file__).with_name("lstm_golden.json").read_text())[case]
        loss, grads = loss_and_gradients(model, window, target, masks)
        assert_close(window_output(model.params, window, masks), golden["output"])
        assert_close(loss, golden["loss"])
        assert sorted(grads) == sorted(golden["grads"])
        for name, grad in grads.items():
            assert_close(grad.ravel(), golden["grads"][name])


class TestSchedule:
    def test_flat_then_decay(self):
        sched = TrainingSchedule(rounds=1, seed=0)
        assert sched.learning_rate(1) == pytest.approx(0.2)
        assert sched.learning_rate(10) == pytest.approx(0.2)
        assert sched.learning_rate(11) == pytest.approx(0.2 / 1.1)
        assert sched.learning_rate(12) == pytest.approx(0.2 / 1.1**2)
        assert sched.learning_rate(12) == pytest.approx(0.16529, abs=5e-6)
        assert sched.learning_rate(30) == pytest.approx(0.2 / 1.1**20)

    def test_lr_resets_every_round(self):
        # learning_rate is a per-round function of the epoch index only.
        sched = TrainingSchedule(rounds=3, seed=0)
        assert sched.learning_rate(1) == pytest.approx(0.2)


def periodic_pool(n_traces=4, length=48):
    # Deterministic alternating pattern, distinct lengths per trace.
    from tracekit.core import Trace

    pool = []
    for k in range(n_traces):
        ids = [("A", "B", "C")[i % 3] for i in range(length + 3 * k)]
        pool.append(Trace(ids, [i * 0.01 for i in range(len(ids))], label=f"p{k}"))
    return pool


def training_setup(rounds=1, seed=3):
    pool = periodic_pool()
    d = build_dictionary(pool)
    cfg = NetworkConfig(
        vocab=d.size, dense_width=6, lstm_width=10, unroll_steps=6,
        input_dropout=0.1, hidden_dropout=0.1, recurrent_dropout=0.1,
    )
    model = LstmModel.initialize(cfg, d, seed=seed)
    return model, pool, TrainingSchedule(rounds=rounds, seed=seed)


def copy_params(params):
    return {name: value.copy() for name, value in params.items()}


def params_equal(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[name], b[name]) for name in a)


@pytest.fixture(scope="module")
def three_rounds():
    """One 3-round training run, shared by the tests that only read its
    result, with copies of the weights at the start and end of every epoch."""
    model, pool, sched = training_setup(rounds=3)
    starts, ends = [], []
    learning_rate, validation_loss = TrainingSchedule.learning_rate, lstm._validation_loss

    def recording_rate(schedule, epoch):
        starts.append(copy_params(model.params))
        return learning_rate(schedule, epoch)

    def recording_loss(*args):
        ends.append(copy_params(model.params))
        return validation_loss(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TrainingSchedule, "learning_rate", recording_rate)
        patch.setattr(lstm, "_validation_loss", recording_loss)
        history = train(model, pool, sched)
    return model, history, starts, ends


class TestTraining:
    def test_requires_two_traces(self):
        model, pool, sched = training_setup()
        with pytest.raises(InsufficientTraces):
            train(model, pool[:1], sched)

    def test_metrics_shape_and_lr_schedule(self, three_rounds):
        _, history, _, _ = three_rounds
        assert len(history) == 3
        for round_metrics in history:
            assert len(round_metrics.epochs) == 30
            assert round_metrics.epochs[0].learning_rate == pytest.approx(0.2)
            assert round_metrics.epochs[10].learning_rate == pytest.approx(0.2 / 1.1)
            assert round_metrics.train_label != round_metrics.val_label

    def test_weights_carry_across_rounds(self, three_rounds):
        # Every epoch, the first of a round included, starts on the weights
        # the epoch before it ended on.
        _, _, starts, ends = three_rounds
        assert len(starts) == len(ends) == 90
        for end, start in zip(ends, starts[1:]):
            assert params_equal(start, end)
        assert not params_equal(starts[0], ends[-1])

    def test_bitwise_determinism(self, three_rounds):
        # A fresh 1-round run ends bit for bit where the shared run's first
        # round ended, so a round also does not depend on the rounds after it.
        model, pool, sched = training_setup(rounds=1)
        train(model, pool, sched)
        ends = three_rounds[3]
        assert params_equal(model.params, ends[29])  # the first round's last epoch

    def test_marks_trained_and_records_frequencies(self, three_rounds):
        model = three_rounds[0]
        _, pool, _ = training_setup()
        assert model.event_freq == event_frequencies(pool, model.dictionary)
        assert model.prior_event() == "A"

    def test_untrained_predict_rejected(self):
        model, pool, sched = training_setup()
        with pytest.raises(UntrainedModel):
            model.predict_next([EventId("A")])

    @pytest.mark.parametrize(
        "call",
        [lambda m: m.predict_next(["A", "B"]), lambda m: m.predict_next([]),
         lambda m: list(m.walk(["A", "B", "C"], [False, False, True])),
         lambda m: list(m.walk(["A"], [True]))],
        ids=["predict_next", "predict_next from nothing", "walk", "walk from nothing"],
    )
    def test_empty_event_freq_is_untrained(self, random_lstm, call):
        model = random_lstm(4)
        model.event_freq = {}
        with pytest.raises(UntrainedModel, match="not been trained"):
            call(model)


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        model = tiny_model(seed=12)
        model.event_freq = {EventId("E0"): 5, EventId("E1"): 2}
        path = tmp_path / "m.lstm"
        save_model(model, path)
        again = load_model(path)
        assert again.config == model.config
        assert again.dictionary == model.dictionary
        assert again.event_freq == model.event_freq
        assert params_equal(again.params, model.params)
        assert b'"trained"' not in path.read_bytes()

    def test_load_draws_no_network(self, tmp_path, monkeypatch):
        # The expected parameter shapes follow from the config alone.
        model = tiny_model(seed=12)
        path = tmp_path / "m.lstm"
        save_model(model, path)

        def no_draw(config, seed):
            raise AssertionError("load_model drew a random network")

        monkeypatch.setattr("tracekit.lstm.init_parameters", no_draw)
        assert params_equal(load_model(path).params, model.params)

    def test_benchmark_width_save_round_trips_without_copying_the_file(self, wide_lstm,
                                                                       tmp_path):
        path, again_path = tmp_path / "m.lstm", tmp_path / "again.lstm"
        tracemalloc.start()
        try:
            save_model(wide_lstm, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak < 1.5 * size
        again = load_model(path)
        assert params_equal(again.params, wide_lstm.params)
        save_model(again, again_path)
        assert again_path.read_bytes() == path.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        model = tiny_model(seed=13)
        path = tmp_path / "m.lstm"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_bit_flip_rejected(self, tmp_path):
        model = tiny_model(seed=14)
        path = tmp_path / "m.lstm"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptModel):
            load_model(path)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda raw: raw[: len(_MAGIC) + 4 + 8 + 31], "model file truncated"),
            (lambda raw: b"X" + raw[1:], "bad magic string"),
            (lambda raw: resigned(raw[: len(_MAGIC) + 4] + struct.pack("<Q", 4) + b"{no}"),
             "unreadable header"),
            (lambda raw: resigned(raw[:-32 - 8]), "data truncated"),
            (lambda raw: resigned(raw[:-32] + bytes(8)), "trailing bytes after parameter data"),
        ],
        ids=["shorter than the fixed header", "bad magic", "header not JSON",
             "parameter bytes cut", "trailing bytes"],
    )
    def test_damaged_file_rejected_with_its_own_message(self, tmp_path, damage, message):
        path = tmp_path / "m.lstm"
        save_model(tiny_model(seed=17), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(CorruptModel, match=message):
            load_model(path)

    @pytest.mark.parametrize("version", [1, _FORMAT_VERSION + 1], ids=["v1", "next"])
    def test_version_mismatch_rejected(self, tmp_path, version):
        model = tiny_model(seed=15)
        path = tmp_path / "m.lstm"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, len(_MAGIC), version)
        body = bytes(raw[:-32])
        path.write_bytes(resigned(body))
        with pytest.raises(VersionMismatch):
            load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.pop("config"),
            lambda h: h["config"].update(extra=1),
            lambda h: h["config"].update(vocab=h["config"]["vocab"] + 1),
            lambda h: h.update(dictionary=["E0", "E0", "E1", "E2"]),
            lambda h: h.update(event_freq=[1, 2]),
            lambda h: h["params"][0].__setitem__(0, "bogus"),
            lambda h: h["params"][1].__setitem__(1, h["params"][1][1][::-1]),
            lambda h: h.update(params=7),
            lambda h: h["config"].update(vocab=float(h["config"]["vocab"])),
            lambda h: h["config"].update(unroll_steps=4.5),
            lambda h: h["config"].update(unroll_steps=True),
            lambda h: h.update(event_freq={"ZZ": 99}),
            lambda h: h.update(event_freq={"E0": 0}),
            lambda h: h.update(event_freq={"E0": 2.5}),
        ],
        ids=["no config", "unknown config key", "vocab off by one", "duplicate id",
             "event_freq a list", "renamed parameter", "transposed shape", "params an int",
             "vocab a float", "unroll a float", "unroll a bool", "event_freq unknown id",
             "event_freq count 0", "event_freq count a float"],
    )
    def test_bad_header_rejected(self, tmp_path, edit):
        path = tmp_path / "m.lstm"
        save_model(tiny_model(seed=16), path)
        path.write_bytes(with_header(path.read_bytes(), edit))
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_file_with_the_old_trained_key_loads(self, tmp_path):
        model = tiny_model(seed=18)
        model.event_freq = {EventId("E0"): 3}
        path = tmp_path / "m.lstm"
        save_model(model, path)
        path.write_bytes(with_header(path.read_bytes(), lambda h: h.update(trained=True)))
        again = load_model(path)
        assert again.event_freq == model.event_freq
        assert params_equal(again.params, model.params)
        assert again.predict_next([]) == "E0"

    def test_lowercase_dictionary_ids_load_uppercase(self, tmp_path):
        path = tmp_path / "m.lstm"
        save_model(tiny_model(seed=19), path)
        lowered = lambda h: h.update(dictionary=[t.lower() for t in h["dictionary"]])
        path.write_bytes(with_header(path.read_bytes(), lowered))
        assert load_model(path).dictionary.ids == ("E0", "E1", "E2", "E3")
