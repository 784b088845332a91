"""Per-layer timing by wrapping the program's public functions.

``Tracer.install`` replaces each traced function with a timing wrapper at
every name a caller can look it up by: the module that defines it, every
``tracekit`` module that imported it, and the class for methods.
``uninstall`` puts the originals back, so traced and untraced rounds can
alternate in one process.

Each wrapper records, per layer: calls, inclusive time of the outermost
call into the layer (a layer calling itself again is not counted twice),
and self time, which is a call's duration minus the time of the wrapped
calls it made. Self times of all layers therefore sum to the time of the
outermost calls.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _missing_total(args, kwargs, result):
    return {"restore.filled_events": args[1].missing_total()}


def _states(args, kwargs, result):
    return {"markov.states": result.state_count}


def _aligned(args, kwargs, result):
    return {"evaluate.aligned_events": result.total}


def _mined(args, kwargs, result):
    return {"trem.mined_events": len(args[0])}


# (layer, module, attribute path, counter hook). A dotted path names a method.
TARGETS = [
    ("cli", "tracekit.cli", "main", None),
    ("pipeline", "tracekit.pipeline", "run_pipeline", None),
    ("lstm.train", "tracekit.lstm", "train", None),
    ("lstm.grad", "tracekit.lstm", "loss_and_gradients", None),
    ("lstm.forward", "tracekit.lstm", "forward_window", None),
    ("lstm.predict", "tracekit.lstm", "LstmModel.predict_next", None),
    ("lstm.io", "tracekit.lstm", "save_model", None),
    ("lstm.io", "tracekit.lstm", "load_model", None),
    ("markov.learn", "tracekit.markov", "learn_transitions", _states),
    ("markov.save", "tracekit.markov", "MarkovModel.save", None),
    ("markov.load", "tracekit.markov", "MarkovModel.load", _states),
    ("markov.predict", "tracekit.markov", "MarkovModel.predict_next", None),
    ("restore.restore", "tracekit.restore", "restore_trace", _missing_total),
    ("restore.fill", "tracekit.restore", "fill_gaps", None),
    ("restore.rollout", "tracekit.restore", "predict_step_by_step", None),
    ("restore.inject", "tracekit.restore", "inject_loss", None),
    ("evaluate.next_acc", "tracekit.evaluate", "next_event_accuracy", None),
    ("evaluate.align", "tracekit.evaluate", "align_and_classify", _aligned),
    ("trem.mine", "tracekit.trem", "mine_trace", _mined),
    ("synth.generate", "tracekit.synth", "generate_trace", None),
    ("ingest.io", "tracekit.ingest", "parse_trace", None),
    ("ingest.io", "tracekit.ingest", "serialize_trace", None),
    ("ingest.io", "tracekit.ingest", "write_trace", None),
    ("ingest.io", "tracekit.ingest", "split_traces", None),
    ("ingest.io", "tracekit.restore", "parse_gapped", None),
    ("ingest.io", "tracekit.restore", "serialize_gapped", None),
    ("ingest.io", "tracekit.restore", "read_gapped", None),
    ("ingest.io", "tracekit.restore", "write_gapped", None),
]

# Counters that hold a level rather than a sum.
GAUGES = {"markov.states"}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.calls, self.total, self.self_time, self.counters):
            table.clear()

    def _wrap(self, layer, fn, hook):
        stack, depth = self._stack, self._depth

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][0] += elapsed
                self.calls[layer] += 1
                self.self_time[layer] += elapsed - frame[0]
                if not depth[layer]:
                    self.total[layer] += elapsed
            if hook:
                for key, value in hook(args, kwargs, result).items():
                    if key in GAUGES:
                        self.counters[key] = max(self.counters[key], value)
                    else:
                        self.counters[key] += value
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "tracekit" or name.startswith("tracekit."))]
        for layer, module_name, path, hook in TARGETS:
            owner = sys.modules[module_name]
            *class_path, attr = path.split(".")
            for name in class_path:
                owner = getattr(owner, name)
            if class_path:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, raw.__func__, hook))
                else:
                    wrapped = self._wrap(layer, raw, hook)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(layer, original, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapped)

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counters": dict(self.counters),
        }


def layer_metrics(phases: list[tuple[dict, int]], fill_accuracy: float, overhead_s: float) -> dict:
    """Per-layer metrics for one set-up plus one timed round.

    ``phases`` holds (snapshot, repetitions) pairs; each phase contributes
    its totals divided by its number of repetitions.
    """
    calls: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    for snap, reps in phases:
        if reps <= 0:
            continue
        for table, key in ((calls, "calls"), (total, "total"), (self_time, "self")):
            for layer, value in snap[key].items():
                table[layer] += value / reps
        for name, value in snap["counters"].items():
            if name in GAUGES:
                counters[name] = max(counters[name], value)
            else:
                counters[name] += value / reps

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    def per_call_ms(layer: str) -> float:
        return 1000.0 * total[layer] / calls[layer] if calls[layer] else 0.0

    filled = counters["restore.filled_events"]
    return {
        "lstm.train_s": (total["lstm.train"], "s"),
        "lstm.grad_calls": (calls["lstm.grad"], "windows"),
        "lstm.grad_windows_per_s": (rate(calls["lstm.grad"], total["lstm.grad"]), "windows/s"),
        "lstm.forward_calls": (calls["lstm.forward"], "calls"),
        "lstm.forward_windows_per_s": (
            rate(calls["lstm.forward"], total["lstm.forward"]), "windows/s"),
        "lstm.predict_calls": (calls["lstm.predict"], "calls"),
        "lstm.predict_ms": (per_call_ms("lstm.predict"), "ms/call"),
        "lstm.io_s": (total["lstm.io"], "s"),
        "markov.learn_s": (total["markov.learn"], "s"),
        "markov.states": (counters["markov.states"], "states"),
        "markov.save_s": (total["markov.save"], "s"),
        "markov.load_s": (total["markov.load"], "s"),
        "markov.predict_calls": (calls["markov.predict"], "calls"),
        "markov.predict_ms": (per_call_ms("markov.predict"), "ms/call"),
        "restore.restore_s": (total["restore.restore"], "s"),
        "restore.filled_events": (filled, "events"),
        "restore.filled_events_per_s": (rate(filled, total["restore.restore"]), "events/s"),
        "restore.fill_self_s": (
            self_time["restore.fill"] + self_time["restore.restore"], "s"),
        "restore.fill_accuracy": (fill_accuracy, "fraction"),
        "restore.rollout_s": (total["restore.rollout"], "s"),
        "restore.inject_s": (total["restore.inject"], "s"),
        "evaluate.next_acc_s": (total["evaluate.next_acc"], "s"),
        "evaluate.align_s": (total["evaluate.align"], "s"),
        "evaluate.aligned_events": (counters["evaluate.aligned_events"], "events"),
        "trem.mine_s": (total["trem.mine"], "s"),
        "trem.mined_events_per_s": (
            rate(counters["trem.mined_events"], total["trem.mine"]), "events/s"),
        "synth.generate_s": (total["synth.generate"], "s"),
        "ingest.io_s": (total["ingest.io"], "s"),
        "pipeline.self_s": (self_time["pipeline"], "s"),
        "cli.self_s": (self_time["cli"], "s"),
        "bench.trace_overhead_s": (overhead_s, "s"),
    }
