"""Shared fixtures: a synthetic dataset and a model trained on it.

The trained model is expensive (6-10 s of training on a shared 2-CPU VM,
one BLAS thread), so it is session-scoped and shared between test modules.
All seeds are pinned; every fixture is fully deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from tracekit.core import Dictionary, EventId, build_dictionary
from tracekit.lstm import LstmModel, NetworkConfig, TrainingSchedule, train
from tracekit.synth import GeneratorSpec, PeriodicMessage, generate_trace

CYCLE_LENGTH = 7  # merge of periods 0.01 / 0.02 / 0.04 repeats [A,B,C,A,A,B,A]


def _cyclic_spec(index: int) -> GeneratorSpec:
    return GeneratorSpec(
        periodic=(
            PeriodicMessage(EventId("A"), 0.01, 0.0),
            PeriodicMessage(EventId("B"), 0.02, 0.0),
            PeriodicMessage(EventId("C"), 0.04, 0.0),
        ),
        duration=0.6 + index * 0.02,
        seed=100 + index,
        label=f"cyc_{index:03d}",
    )


@pytest.fixture(scope="session")
def cyclic_traces():
    """20 jitter-free periodic traces whose merged pattern repeats every 7 events."""
    return [generate_trace(_cyclic_spec(i)) for i in range(20)]


@pytest.fixture(scope="session")
def trained_cyclic_lstm(cyclic_traces):
    """A model trained to mastery on the periodic dataset."""
    train_pool = cyclic_traces[:15]
    dictionary = build_dictionary(train_pool)
    config = NetworkConfig(
        vocab=dictionary.size, dense_width=8, lstm_width=16, unroll_steps=10
    )
    model = LstmModel.initialize(config, dictionary, seed=7)
    train(model, train_pool, TrainingSchedule(rounds=1, seed=7))
    return model, cyclic_traces


@pytest.fixture(scope="session")
def random_lstm():
    """Builds an LSTM with jittered random weights over A-C and an event
    frequency table, which makes it trained, for a given unroll: its argmax
    varies with the context, unlike a model trained to a cycle."""

    def build(unroll):
        dictionary = Dictionary((EventId("A"), EventId("B"), EventId("C")))
        config = NetworkConfig(
            vocab=dictionary.size, dense_width=5, lstm_width=7, unroll_steps=unroll
        )
        model = LstmModel.initialize(config, dictionary, seed=3)
        rng = np.random.default_rng(3)
        for p in model.params.values():
            p += rng.uniform(-0.5, 0.5, size=p.shape)
        model.event_freq = {EventId("A"): 1}
        return model

    return build


@pytest.fixture(scope="session")
def wide_lstm():
    """An LSTM at the benchmark's widths (V=17, dense 34, H=136, unroll 40)
    with jittered random weights and an event frequency table, which makes
    it trained. At these widths BLAS takes the paths whose bits depend on
    the batch size and memory layout."""
    dictionary = Dictionary(tuple(EventId(f"E{i}") for i in range(16)))
    config = NetworkConfig(vocab=17, dense_width=34, lstm_width=136, unroll_steps=40)
    model = LstmModel.initialize(config, dictionary, seed=17)
    rng = np.random.default_rng(17)
    for p in model.params.values():
        p += rng.uniform(-0.3, 0.3, size=p.shape)
    model.event_freq = {EventId("E0"): 1}
    return model
