"""tracekit: restore lossy discrete event traces and evaluate the restoration.

The package learns next-event structure from clean traces with two model
families (an order-n transition-frequency benchmark and a from-scratch
layer-normalized LSTM), fills controlled gaps by step-by-step prediction,
and measures quality both directly (next-event accuracy, alignment
scoring) and downstream (timed-property mining on original vs. lossy vs.
restored traces).
"""

from .core import (
    Dictionary,
    EventId,
    Trace,
    build_dictionary,
    decode_index,
    encode_ids,
)
from .ingest import SplitSpec, parse_trace, serialize_trace, split_traces
from .lstm import LstmModel, NetworkConfig, TrainingSchedule
from .markov import MarkovModel, learn_transitions
from .restore import GappedTrace, LossSpec, inject_loss, restore_trace
from .synth import GeneratorSpec, PeriodicMessage, RareMessage, TriggeredMessage, generate_trace

__version__ = "0.1.0"

__all__ = [
    "Dictionary",
    "EventId",
    "GappedTrace",
    "GeneratorSpec",
    "LossSpec",
    "LstmModel",
    "MarkovModel",
    "NetworkConfig",
    "PeriodicMessage",
    "RareMessage",
    "SplitSpec",
    "Trace",
    "TrainingSchedule",
    "TriggeredMessage",
    "build_dictionary",
    "decode_index",
    "encode_ids",
    "generate_trace",
    "inject_loss",
    "learn_transitions",
    "parse_trace",
    "restore_trace",
    "serialize_trace",
    "split_traces",
]
