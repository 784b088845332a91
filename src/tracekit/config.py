"""Run configuration: a flat ``key = value`` text format.

Lines are ``key = value``; ``#`` starts a comment and blank lines are
skipped. Repeatable keys (the generator's message lists) accumulate in
file order. Unknown keys are rejected, and every random
decision in a run flows from the single ``seed`` key through named
substreams, so there are no wall-clock defaults anywhere.

A key left out takes the default of the stage spec it feeds, so each default
is stated once. The network's dropout rates and the schedule's learning rate
and decay have no key: they keep their spec defaults, which ``lstm.model``
records. Loss levels are distinct whole percents, one ``loss_<pct>``
directory each. Synthetic traces are labelled ``trace_###``, their file stem.

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
    loss.mode = scattered
    loss.restorer = lstm
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

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
    "out_dir",
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
    "loss.mode",
    "loss.burst_length",
    "loss.restorer",
    "mine.top_k",
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


@dataclass
class RunConfig:
    """Parsed configuration entries plus typed accessors for each stage."""

    entries: dict[str, list[str]] = field(default_factory=dict)
    source_text: str = ""

    # -- parsing -----------------------------------------------------------

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
        return cls(entries=entries, source_text=text)

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.parse(read_text(path))

    def digest(self) -> str:
        return hashlib.sha256(self.source_text.encode("utf-8")).hexdigest()

    # -- scalar access -----------------------------------------------------

    def _one(self, key: str, default: str | None = None) -> str:
        values = self.entries.get(key)
        if values is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        return values[0]

    def _int(self, key: str, default: int | None = None) -> int:
        raw = self._one(key, None if default is None else str(default))
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} must be an integer, got {raw!r}") from None

    def _float(self, key: str, default: float | None = None) -> float:
        raw = self._one(key, None if default is None else repr(default))
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} must be a number, got {raw!r}") from None

    def _given(self, parse, **keys: str) -> dict:
        """``{field: parse(key)}`` for each ``field=key`` whose key the file sets;
        an unset field keeps the default of the spec it builds."""
        return {name: parse(key) for name, key in keys.items() if key in self.entries}

    @property
    def seed(self) -> int:
        return self._int("seed")

    @property
    def out_dir(self) -> str | None:
        return self.entries.get("out_dir", [None])[0]

    # -- stage specs ---------------------------------------------------------

    def synth_trace_count(self) -> int:
        return self._int("synth.traces", 20)

    def generator_spec(self, index: int) -> GeneratorSpec:
        """Spec for the index-th synthetic trace of the run, with its own derived seed."""
        try:
            periodic = tuple(
                PeriodicMessage(EventId(i), float(p), float(j))
                for i, p, j in (v.split() for v in self.entries.get("synth.periodic", []))
            )
            triggered = tuple(
                TriggeredMessage(EventId(i), EventId(t), float(pr), float(d))
                for i, t, pr, d in (v.split() for v in self.entries.get("synth.triggered", []))
            )
            rare = tuple(
                RareMessage(EventId(i), float(r))
                for i, r in (v.split() for v in self.entries.get("synth.rare", []))
            )
        except ValueError as exc:
            raise ConfigError(f"bad synth message entry: {exc}") from exc
        return _spec(
            GeneratorSpec,
            periodic=periodic,
            triggered=triggered,
            rare=rare,
            duration=self._float("synth.duration", 1.0),
            seed=derive_seed(self.seed, f"synth:{index}"),
            label=f"trace_{index:03d}",
        )

    def split_spec(self) -> SplitSpec:
        return _spec(
            SplitSpec,
            train_count=self._int("split.train", 15),
            test_count=self._int("split.test", 5),
            shuffle_seed=derive_seed(self.seed, "split"),
        )

    def markov_order(self) -> int:
        order = self._int("markov.order", 40)
        if order < 1:
            raise ConfigError(f"markov.order must be >= 1, got {order}")
        return order

    def network_config(self, vocab: int) -> NetworkConfig:
        return _spec(
            NetworkConfig.for_vocab,
            vocab=vocab,
            **self._given(self._int, dense_width="lstm.dense_width",
                          lstm_width="lstm.lstm_width", unroll_steps="lstm.unroll"),
        )

    def training_schedule(self) -> TrainingSchedule:
        return _spec(
            TrainingSchedule,
            rounds=self._int("train.rounds", 4),
            seed=derive_seed(self.seed, "train"),
            **self._given(self._int, epochs_flat="train.epochs_flat",
                          epochs_decay="train.epochs_decay"),
        )

    def loss_fractions(self) -> list[float]:
        """Loss levels as fractions in [0, 1); configured as distinct whole percents."""
        raw = self._one("loss.fractions", "5 10 15 20 25")
        try:
            percents = [int(tok) for tok in raw.split()]
        except ValueError:
            raise ConfigError(f"loss.fractions must be whole percents, got {raw!r}") from None
        if len(set(percents)) != len(percents):
            raise ConfigError(f"loss.fractions repeats a level: {raw!r}")
        return [_spec(LossSpec, fraction=p / 100.0).fraction for p in percents]

    def loss_spec(self, fraction: float, trace_label: str) -> LossSpec:
        return _spec(
            LossSpec,
            fraction=fraction,
            seed=derive_seed(self.seed, f"loss:{fraction!r}:{trace_label}"),
            **self._given(self._one, mode="loss.mode"),
            **self._given(self._int, burst_length="loss.burst_length"),
        )

    def restorer(self) -> str:
        value = self._one("loss.restorer", "lstm")
        if value not in ("lstm", "markov"):
            raise ConfigError(f"loss.restorer must be lstm or markov, got {value!r}")
        return value

    def mine_top_k(self) -> int:
        """0 disables dominant-instance ranking before comparison."""
        top_k = self._int("mine.top_k", 0)
        if top_k < 0:
            raise ConfigError(f"mine.top_k must be >= 0, got {top_k}")
        return top_k

    def eval_start(self) -> int | None:
        """First held-out position scored; None means the network's unroll."""
        if "eval.start" not in self.entries:
            return None
        start = self._int("eval.start")
        if start < 1:
            raise ConfigError(f"eval.start must be >= 1, got {start}")
        return start
