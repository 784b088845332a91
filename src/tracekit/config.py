"""Run configuration: a flat ``key = value`` text format.

Lines are ``key = value``; ``#`` starts a comment and blank lines are
skipped. Repeatable keys (the generator's message lists) accumulate in
file order. Unknown keys are rejected, and every random
decision in a run flows from the single ``seed`` key through named
substreams, so there are no wall-clock defaults anywhere.

``RunConfig.parse`` reads, converts and range-checks every key once, so a
bad value fails when the file is loaded, before any stage runs. The one
exception is the generator spec, which needs a ``synth.periodic`` line that a
config for real traces does not have: ``synth``, ``report``'s first stage,
builds and checks it for each trace. ``report`` also checks, before its
first stage, that ``synth.traces`` fills ``split.train + split.test``;
``split`` reads a directory of any size, so the file cannot. The output
directory is no key: ``report --out`` names it and is required.

A key left out takes the default of the stage spec it feeds, so each default
is stated once. The network's dropout rates have no key: they keep their
``NetworkConfig`` defaults, which ``lstm.model`` records. The learning rate
and its per-epoch decay are constants of ``lstm``. Loss levels are distinct
whole percents, one ``loss_<pct>`` directory each. Synthetic traces are
labelled ``trace_###``, their file stem.

Example::

    seed = 42
    synth.traces = 20
    synth.duration = 1.0
    synth.periodic = B0 0.01 0.0
    synth.periodic = B2 0.02 0.05
    synth.triggered = 2C4 B0 0.3 0.002
    synth.rare = 340 1.0
    split.train = 15
    split.test = 5
    markov.order = 40
    lstm.unroll = 40
    train.rounds = 4
    loss.fractions = 5 10 15 20 25
    loss.restorer = lstm
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from .core import EventId
from .errors import ConfigError, InvalidFraction, InvalidSpec
from .ingest import SplitSpec, read_text
from .lstm import NetworkConfig, TrainingSchedule
from .restore import LossSpec
from .synth import GeneratorSpec, PeriodicMessage, RareMessage, TriggeredMessage

_REPEATABLE = {
    "synth.periodic",
    "synth.triggered",
    "synth.rare",
}

_KNOWN_KEYS = _REPEATABLE | {
    "seed",
    "synth.traces",
    "synth.duration",
    "split.train",
    "split.test",
    "markov.order",
    "lstm.dense_width",
    "lstm.lstm_width",
    "lstm.unroll",
    "train.rounds",
    "train.epochs_flat",
    "train.epochs_decay",
    "loss.fractions",
    "loss.burst_length",
    "loss.restorer",
    "eval.start",
}


def derive_seed(global_seed: int, name: str) -> int:
    """A named, platform-stable substream seed for one pipeline stage."""
    digest = hashlib.sha256(f"{global_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _spec(build, **fields):
    """Build a stage spec; a value the spec rejects is a configuration error."""
    try:
        return build(**fields)
    except (ValueError, InvalidSpec, InvalidFraction) as exc:
        raise ConfigError(f"bad {build.__qualname__} values: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    """Every value of a run, read and checked by ``parse``.

    The methods build the specs that need caller data: a trace index, a
    vocabulary size or a loss level.
    """

    seed: int
    synth_traces: int
    synth: dict  # GeneratorSpec fields other than seed and label
    split: SplitSpec
    markov_order: int
    network: dict  # NetworkConfig fields the file sets
    schedule: TrainingSchedule
    loss_fractions: tuple[float, ...]
    loss: LossSpec  # burst length; fraction and seed come per call
    restorer: str
    eval_start: int | None  # None means the network's unroll
    source_text: str

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        entries: dict[str, list[str]] = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {line_no}: expected `key = value`: {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
            if not value:
                raise ConfigError(f"line {line_no}: empty value for {key!r}")
            if key in entries and key not in _REPEATABLE:
                raise ConfigError(f"line {line_no}: duplicate key {key!r}")
            entries.setdefault(key, []).append(value)

        def one(key: str, default: str | None = None) -> str:
            value = entries.get(key, [default])[0]
            if value is None:
                raise ConfigError(f"missing required key {key!r}")
            return value

        def integer(key: str, default: int | None = None) -> int:
            raw = one(key, None if default is None else str(default))
            try:
                return int(raw)
            except ValueError:
                raise ConfigError(f"key {key!r} must be an integer, got {raw!r}") from None

        def at_least(minimum: int, key: str, default: int | None = None) -> int:
            value = integer(key, default)
            if value < minimum:
                raise ConfigError(f"{key} must be >= {minimum}, got {value}")
            return value

        def given(convert, **keys: str) -> dict:
            """``{field: convert(key)}`` for each ``field=key`` whose key the file
            sets; an unset field keeps the default of the spec it builds."""
            return {name: convert(key) for name, key in keys.items() if key in entries}

        seed = integer("seed")
        try:
            synth = dict(
                periodic=tuple(
                    PeriodicMessage(EventId(i), float(p), float(j))
                    for i, p, j in (v.split() for v in entries.get("synth.periodic", []))
                ),
                triggered=tuple(
                    TriggeredMessage(EventId(i), EventId(t), float(pr), float(d))
                    for i, t, pr, d in (v.split() for v in entries.get("synth.triggered", []))
                ),
                rare=tuple(
                    RareMessage(EventId(i), float(r))
                    for i, r in (v.split() for v in entries.get("synth.rare", []))
                ),
            )
        except ValueError as exc:
            raise ConfigError(f"bad synth message entry: {exc}") from exc
        if "synth.duration" in entries:
            duration = one("synth.duration")
            try:
                synth["duration"] = float(duration)
            except ValueError:
                raise ConfigError(
                    f"key 'synth.duration' must be a number, got {duration!r}") from None

        network = given(integer, dense_width="lstm.dense_width",
                        lstm_width="lstm.lstm_width", unroll_steps="lstm.unroll")
        _spec(NetworkConfig.for_vocab, vocab=1, **network)

        raw_levels = one("loss.fractions", "5 10 15 20 25")
        try:
            percents = [int(tok) for tok in raw_levels.split()]
        except ValueError:
            raise ConfigError(
                f"loss.fractions must be whole percents, got {raw_levels!r}") from None
        if len(set(percents)) != len(percents):
            raise ConfigError(f"loss.fractions repeats a level: {raw_levels!r}")

        restorer = one("loss.restorer", "lstm")
        if restorer not in ("lstm", "markov"):
            raise ConfigError(f"loss.restorer must be lstm or markov, got {restorer!r}")

        return cls(
            seed=seed,
            synth_traces=at_least(1, "synth.traces", 20),
            synth=synth,
            split=_spec(
                SplitSpec,
                train_count=integer("split.train", 15),
                test_count=integer("split.test", 5),
                shuffle_seed=derive_seed(seed, "split"),
            ),
            markov_order=at_least(1, "markov.order", 40),
            network=network,
            schedule=_spec(
                TrainingSchedule,
                rounds=integer("train.rounds", 4),
                seed=derive_seed(seed, "train"),
                **given(integer, epochs_flat="train.epochs_flat",
                        epochs_decay="train.epochs_decay"),
            ),
            loss_fractions=tuple(
                _spec(LossSpec, fraction=p / 100.0).fraction for p in percents),
            loss=_spec(
                LossSpec,
                fraction=0.0,
                **given(integer, burst_length="loss.burst_length"),
            ),
            restorer=restorer,
            eval_start=at_least(1, "eval.start") if "eval.start" in entries else None,
            source_text=text,
        )

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.parse(read_text(path))

    def digest(self) -> str:
        return hashlib.sha256(self.source_text.encode("utf-8")).hexdigest()

    def generator_spec(self, index: int) -> GeneratorSpec:
        """Spec for the index-th synthetic trace of the run, with its own derived seed."""
        return _spec(
            GeneratorSpec,
            **self.synth,
            seed=derive_seed(self.seed, f"synth:{index}"),
            label=f"trace_{index:03d}",
        )

    def network_config(self, vocab: int) -> NetworkConfig:
        return _spec(NetworkConfig.for_vocab, vocab=vocab, **self.network)

    def loss_spec(self, fraction: float, trace_label: str) -> LossSpec:
        return replace(
            self.loss,
            fraction=fraction,
            seed=derive_seed(self.seed, f"loss:{fraction!r}:{trace_label}"),
        )
