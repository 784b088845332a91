import dataclasses
import re

import pytest

from tracekit.config import _KNOWN_KEYS, RunConfig, derive_seed
from tracekit.core import EventId
from tracekit.errors import ConfigError
from tracekit.ingest import SplitSpec
from tracekit.lstm import NetworkConfig, TrainingSchedule
from tracekit.restore import LossSpec
from tracekit.synth import PeriodicMessage

NON_DEFAULT_VALUES = {  # a valid value for each key, other than its default
    "seed": "2",
    "synth.traces": "3",
    "synth.duration": "0.5",
    "synth.periodic": "A 0.1 0.0",
    "synth.triggered": "B A 0.5 0.001",
    "synth.rare": "C 1.0",
    "split.train": "3",
    "split.test": "2",
    "markov.order": "6",
    "lstm.dense_width": "3",
    "lstm.lstm_width": "4",
    "lstm.unroll": "8",
    "train.rounds": "2",
    "train.epochs_flat": "1",
    "train.epochs_decay": "1",
    "loss.fractions": "10",
    "loss.burst_length": "2",
    "loss.restorer": "markov",
    "eval.start": "5",
}


class TestParse:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("seed = 1\nsplit.trian = 3\n", "line 2: unknown key 'split.trian'"),
            ("seed = 1\nseed = 2\n", "line 2: duplicate key 'seed'"),
            ("seed = 1\nmarkov.order 4\n", "line 2: expected `key = value`"),
            ("seed = 1\nmarkov.order =   # no value\n", "line 2: empty value for 'markov.order'"),
            ("seed = 1\nsynth.label = run\n", "line 2: unknown key 'synth.label'"),
        ] + [  # constants, spec fields that keep their defaults, and removed keys
            (f"seed = 1\n{key} = 0.5\n", f"line 2: unknown key '{key}'")
            for key in ("synth.duration_step", "lstm.input_dropout", "lstm.hidden_dropout",
                        "lstm.recurrent_dropout", "train.base_lr", "train.decay", "mine.top_k")
        ],
    )
    def test_rejected_lines(self, text, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig.parse(text)

    def test_comments_and_blank_lines_are_skipped(self):
        config = RunConfig.parse("# a run\n\nseed = 3  # the only seed\n")
        assert config.seed == 3
        assert config == dataclasses.replace(RunConfig.parse("seed = 3\n"),
                                             source_text=config.source_text)

    def test_repeatable_keys_accumulate_in_file_order(self):
        config = RunConfig.parse(
            "seed = 1\n"
            "synth.periodic = B2 0.02 0.0\n"
            "synth.rare = 340 1.0\n"
            "synth.periodic = B0 0.01 0.0\n"
        )
        assert config.synth["periodic"] == (PeriodicMessage(EventId("B2"), 0.02, 0.0),
                                            PeriodicMessage(EventId("B0"), 0.01, 0.0))
        spec = config.generator_spec(0)
        assert [m.id for m in spec.periodic] == ["B2", "B0"]
        assert [m.id for m in spec.rare] == ["340"]

    def test_digest_is_of_the_source_text(self):
        assert RunConfig.parse("seed = 1\n").digest() != RunConfig.parse("seed = 1 \n").digest()
        assert RunConfig.parse("seed = 1\n").digest() == RunConfig.parse("seed = 1\n").digest()


class TestValues:
    def test_non_integer_value(self):
        with pytest.raises(ConfigError, match="'markov.order' must be an integer, got 'four'"):
            RunConfig.parse("seed = 1\nmarkov.order = four\n")

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="missing required key 'seed'"):
            RunConfig.parse("markov.order = 4\n")

    def test_defaults(self):
        config = RunConfig.parse("seed = 1\n")
        assert config.synth_traces == 20
        assert config.markov_order == 40
        assert config.restorer == "lstm"
        assert config.eval_start is None
        assert config.loss_fractions == (0.05, 0.1, 0.15, 0.2, 0.25)

    def test_seed_alone_builds_the_spec_defaults(self):
        config = RunConfig.parse("seed = 1\n")
        assert config.split == SplitSpec(15, 5, derive_seed(1, "split"))
        assert config.network_config(5) == NetworkConfig.for_vocab(5)
        assert config.schedule == TrainingSchedule(rounds=4, seed=derive_seed(1, "train"))
        assert config.loss_spec(0.1, "t") == LossSpec(0.1, seed=derive_seed(1, "loss:0.1:t"))

    def test_set_keys_override_the_spec_defaults(self):
        config = RunConfig.parse(
            "seed = 1\nlstm.lstm_width = 7\ntrain.epochs_decay = 5\nloss.burst_length = 3\n")
        assert config.network_config(5) == NetworkConfig.for_vocab(5, lstm_width=7)
        assert config.schedule.epochs_decay == 5
        assert config.loss_spec(0.1, "t").burst_length == 3

    def test_synthetic_traces_are_labelled_like_their_files(self):
        config = RunConfig.parse("seed = 1\nsynth.periodic = A 0.1 0.0\n")
        assert config.generator_spec(3).label == "trace_003"

    @pytest.mark.parametrize("value", ["lstm", "markov"])
    def test_restorer_accepts_both_families(self, value):
        assert RunConfig.parse(f"seed = 1\nloss.restorer = {value}\n").restorer == value

    def test_restorer_rejects_anything_else(self):
        with pytest.raises(ConfigError, match="loss.restorer must be lstm or markov"):
            RunConfig.parse("seed = 1\nloss.restorer = LSTM\n")

    @pytest.mark.parametrize(
        "line, build",
        [
            ("split.train = 1", lambda c: c.split),
            ("lstm.unroll = 0", lambda c: c.network_config(5)),
            ("train.rounds = 0", lambda c: c.schedule),
            ("loss.burst_length = 0", lambda c: c.loss_spec(0.1, "t")),
            ("loss.mode = bursty", lambda c: c.loss_spec(0.1, "t")),
            ("markov.order = 0", lambda c: c.markov_order),
            ("synth.periodic = A 0 0.1", lambda c: c.generator_spec(0)),
            ("loss.fractions = 10 150", lambda c: c.loss_fractions),
            ("loss.fractions = 10.4 10.2 12.5", lambda c: c.loss_fractions),
            ("loss.fractions = 10 5 10", lambda c: c.loss_fractions),
            ("eval.start = 0", lambda c: c.eval_start),
            ("eval.start = -5", lambda c: c.eval_start),
        ],
    )
    def test_out_of_range_values_are_config_errors(self, line, build):
        with pytest.raises(ConfigError):
            build(RunConfig.parse(f"seed = 1\n{line}\n"))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("split.train = 1", "bad SplitSpec values: train_count must be >= 2"),
            ("lstm.unroll = 0", "bad NetworkConfig.for_vocab values: unroll_steps must be >= 1"),
            ("lstm.dense_width = 0", "bad NetworkConfig.for_vocab values: all widths must be >= 1"),
            ("train.rounds = 0", "bad TrainingSchedule values: rounds must be >= 1"),
            ("train.epochs_flat = -1", "bad TrainingSchedule values: epoch counts must be >= 0"),
            ("train.epochs_flat = 0\ntrain.epochs_decay = 0",
             "bad TrainingSchedule values: a round needs at least one epoch"),
            ("loss.burst_length = 0", "bad LossSpec values: burst_length must be >= 1"),
            ("loss.mode = bursty", "line 2: unknown key 'loss.mode'"),
            ("markov.order = 0", "markov.order must be >= 1, got 0"),
            ("synth.traces = many", "key 'synth.traces' must be an integer, got 'many'"),
            ("synth.traces = 0", "synth.traces must be >= 1, got 0"),
            ("synth.duration = long", "key 'synth.duration' must be a number, got 'long'"),
            ("synth.rare = A", "bad synth message entry: not enough values to unpack"),
            ("loss.fractions = 10 150", "bad LossSpec values: loss fraction must be in [0, 1)"),
            ("loss.fractions = 10.4 10.2 12.5", "loss.fractions must be whole percents"),
            ("loss.fractions = 10 5 10", "loss.fractions repeats a level: '10 5 10'"),
            ("eval.start = 0", "eval.start must be >= 1, got 0"),
            ("eval.start = -5", "eval.start must be >= 1, got -5"),
        ],
    )
    def test_every_value_is_checked_when_the_config_is_read(self, line, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig.parse(f"seed = 1\n{line}\n")

    @pytest.mark.parametrize("key", sorted(_KNOWN_KEYS))
    def test_every_key_changes_the_parsed_config(self, key):
        # A key that nothing reads would parse to the same config as its absence.
        def parse(entries):
            config = RunConfig.parse("".join(f"{k} = {v}\n" for k, v in entries.items()))
            return dataclasses.replace(config, source_text="")

        base = {"seed": "1"}
        assert parse(dict(base, **{key: NON_DEFAULT_VALUES[key]})) != parse(base)

    def test_generator_values_are_checked_when_a_trace_is_generated(self):
        # A config for real traces sets no generator key, so only synth refuses it.
        config = RunConfig.parse("seed = 1\nsynth.periodic = A 0 0.1\n")
        with pytest.raises(ConfigError, match="bad GeneratorSpec values: period of A must be > 0"):
            config.generator_spec(0)

    @pytest.mark.parametrize("line", [
        "synth.duration = nan",
        "synth.duration = inf",
        "synth.periodic = B nan 0.0",
        "synth.periodic = B inf 0.0",
        "synth.triggered = T A 0.5 nan",
        "synth.rare = R nan",
        "synth.rare = R inf",
    ])
    def test_non_finite_generator_values_are_refused(self, line):
        config = RunConfig.parse(f"seed = 1\nsynth.periodic = A 0.1 0.0\n{line}\n")
        with pytest.raises(ConfigError, match="bad GeneratorSpec values: .* finite"):
            config.generator_spec(0)


class TestSeeds:
    def test_derive_seed_is_pinned(self):
        # sha256("42:split"), first 8 bytes little-endian, shifted right once.
        assert derive_seed(42, "split") == 5847245045058050867

    def test_substreams_differ(self):
        assert derive_seed(42, "split") != derive_seed(42, "train")
        assert derive_seed(42, "split") != derive_seed(43, "split")

    def test_loss_seed_derives_from_fraction_and_label(self):
        config = RunConfig.parse("seed = 7\n")
        spec = config.loss_spec(0.1, "synthetic_000")
        assert spec.seed == derive_seed(7, "loss:0.1:synthetic_000")
        assert spec.seed != config.loss_spec(0.1, "trace_000").seed
