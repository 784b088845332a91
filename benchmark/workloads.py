"""The benchmark's workloads: inputs made from the seed, program calls, checks.

Every workload draws its traces from one CAN-like message set of 16 ids:
eight periodic messages (10 ms to 250 ms, 5-10 % jitter), five triggered
ones (one a chain on another) and three rare ones spliced in at random.
Durations are fixed, so the seed changes which events occur, not how much
work a round does. Every id is common enough to occur in every training
pool, so the vocabulary, and with it the LSTM's shape, is the same on
every seed.

A workload provides ``setup(dir)``, ``calls(out)`` (a round: a list of
(argv, output paths)), ``check_round(out, calls)`` (problems per call
index), ``model_bytes(out)`` and ``fill_accuracy`` (set by the check).
"""

from __future__ import annotations

import json
from pathlib import Path

import checks

MESSAGES = """\
synth.periodic = 100 0.010 0.05
synth.periodic = 110 0.020 0.05
synth.periodic = 120 0.020 0.10
synth.periodic = 130 0.050 0.05
synth.periodic = 140 0.050 0.10
synth.periodic = 150 0.100 0.05
synth.periodic = 160 0.100 0.10
synth.periodic = 170 0.250 0.05
synth.triggered = 200 120 0.5 0.002
synth.triggered = 210 140 0.8 0.003
synth.triggered = 220 200 1.0 0.001
synth.triggered = 230 100 0.3 0.004
synth.triggered = 240 150 1.0 0.005
synth.rare = 300 10
synth.rare = 310 10
synth.rare = 320 20
"""

# Small-budget LSTM training: one round of one epoch, default widths.
LSTM_TRAINING = """\
lstm.unroll = 40
train.rounds = 1
train.epochs_flat = 1
train.epochs_decay = 0
"""


def config_text(seed: int, traces: int, duration: float, extra: str = "") -> str:
    return (f"seed = {seed}\nsynth.traces = {traces}\nsynth.duration = {duration}\n"
            + MESSAGES + extra)


class Workload:
    def __init__(self, seed: int, program):
        self.seed = seed
        self.program = program
        self.setup_failed = False
        self.fill_accuracy = 0.0

    def setup_call(self, *argv) -> None:
        """A set-up call; set-up is not timed and must not fail."""
        if self.program([str(a) for a in argv]):
            self.setup_failed = True

    @staticmethod
    def digest(outputs: list[Path]) -> str:
        return "".join(checks.tree_digest(p) if p.is_dir() else
                       checks.file_digest(p) if p.exists() else "missing" for p in outputs)

    def check_round(self, out: Path, calls: int) -> dict[int, list[str]]:
        try:
            return self.check(out)
        except Exception as exc:  # unreadable outputs fail every call of the round
            return {j: [f"check raised {exc!r}"] for j in range(calls)}

    def _restored(self, original_path, gapped_path, restored_path):
        """Shared restored-trace checks; returns problems, events and fill positions."""
        original = checks.read_trace(original_path)
        segments = checks.read_gapped(gapped_path)
        restored = checks.read_trace(restored_path)
        problems, fills = checks.check_restored(segments, restored)
        if len(original) == len(restored):
            filled = set(fills)
            problems += [f"event at {p} is not the original's" for p in range(len(original))
                         if p not in filled and restored[p] != original[p]][:5]
        else:
            problems.append("restored and original lengths differ")
        hits, total = checks.fill_accuracy(original, restored, fills) if not problems else (0, 0)
        self._hits += hits
        self._fills += total
        return problems, restored, fills

    def _finish_accuracy(self) -> None:
        self.fill_accuracy = self._hits / self._fills if self._fills else 0.0


class Experiment(Workload):
    """``tracekit report`` with the LSTM restorer over two loss levels."""

    PERCENTS = (10, 25)

    def setup(self, d: Path) -> None:
        d.mkdir(parents=True)
        self.config = d / "experiment.cfg"
        self.config.write_text(config_text(
            self.seed, traces=4, duration=0.2,
            extra="split.train = 3\nsplit.test = 1\nmarkov.order = 40\n" + LSTM_TRAINING
            + "loss.fractions = " + " ".join(map(str, self.PERCENTS)) + "\n"
            + "loss.restorer = lstm\neval.start = 20\n"))

    def calls(self, out: Path):
        report = out / "report"
        return [(["report", "--config", str(self.config), "--out", str(report)], [report])]

    def model_bytes(self, out: Path) -> int:
        report = out / "report"
        return (report / "markov.model").stat().st_size + (report / "lstm.model").stat().st_size

    def check(self, out: Path) -> dict[int, list[str]]:
        report = out / "report"
        self._hits = self._fills = 0
        problems: list[str] = []
        model = checks.LstmFile(report / "lstm.model")
        labels = sorted(p.stem for p in (report / "split" / "test").glob("*.trace"))
        mine = report / "mine"
        for label in labels:
            original_path = report / "split" / "test" / f"{label}.trace"
            original = checks.read_trace(original_path)
            problems += checks.check_mined(checks.read_mining(mine / f"original_{label}.txt"),
                                           original)
            for pct in self.PERCENTS:
                level = report / f"loss_{pct:02d}"
                gapped = level / f"{label}.gapped"
                found, restored, fills = self._restored(
                    original_path, gapped, level / f"{label}.restored.trace")
                if len(fills) != round(pct / 100 * len(original)):
                    found.append(f"{len(fills)} events lost at {pct}%")
                found += checks.check_lstm_fills(model, restored, fills)
                lossy = checks.known_events(checks.read_gapped(gapped))
                found += checks.check_mined(
                    checks.read_mining(mine / f"lossy_{pct:02d}_{label}.txt"), lossy)
                found += checks.check_mined(
                    checks.read_mining(mine / f"restored_{pct:02d}_{label}.txt"), restored)
                problems += [f"{label} at {pct}%: {p}" for p in found]
        summary = json.loads((report / "report.json").read_text())
        last = summary["training_rounds"][-1]
        val_ids = [e for _, e in checks.read_trace(report / "split" / "train" / f"{last['val']}.trace")]
        want = checks.validation_logloss(model, val_ids)
        if not abs(last["final_val_logloss"] - want) <= 1e-9 * abs(want):
            problems.append(f"final validation logloss {last['final_val_logloss']!r}, "
                            f"forward pass gives {want!r}")
        problems += checks.check_loss_study(
            summary["loss_study"],
            checks.loss_study_from_mining(mine, labels, list(self.PERCENTS)))
        self._finish_accuracy()
        return {0: problems} if problems else {}


class LstmStream(Workload):
    """Restore one long lossy trace and continue another with a small LSTM."""

    LOSS_PCT = 20
    HORIZON = 60

    def setup(self, d: Path) -> None:
        d.mkdir(parents=True)
        self.dir = d
        train_cfg, long_cfg = d / "train.cfg", d / "long.cfg"
        train_cfg.write_text(config_text(self.seed, traces=2, duration=0.17,
                                         extra=LSTM_TRAINING))
        long_cfg.write_text(config_text(self.seed + 100_000, traces=2, duration=3.0))
        self.setup_call("synth", "--config", train_cfg, "--out", d / "train")
        self.setup_call("synth", "--config", long_cfg, "--out", d / "long")
        self.setup_call("inject-loss", "--in", d / "long" / "trace_000.trace", "--out",
                 d / "lossy.gapped", "--fraction", self.LOSS_PCT, "--seed", self.seed)
        self.setup_call("train-lstm", "--config", train_cfg, "--train", d / "train",
                 "--out", d / "lstm.model")

    def calls(self, out: Path):
        d = self.dir
        return [
            (["restore", "--model", str(d / "lstm.model"), "--in", str(d / "lossy.gapped"),
              "--out", str(out / "restored.trace")], [out / "restored.trace"]),
            (["predict", "--model", str(d / "lstm.model"), "--seed-trace",
              str(d / "long" / "trace_001.trace"), "--horizon", str(self.HORIZON),
              "--out", str(out / "predicted.trace")], [out / "predicted.trace"]),
        ]

    def model_bytes(self, out: Path) -> int:
        return (self.dir / "lstm.model").stat().st_size

    def check(self, out: Path) -> dict[int, list[str]]:
        d = self.dir
        self._hits = self._fills = 0
        model = checks.LstmFile(d / "lstm.model")
        restore_problems, restored, fills = self._restored(
            d / "long" / "trace_000.trace", d / "lossy.gapped", out / "restored.trace")
        restore_problems += checks.check_lstm_fills(model, restored, fills)
        seed_ids = [e for _, e in checks.read_trace(d / "long" / "trace_001.trace")]
        predicted = [e for _, e in checks.read_trace(out / "predicted.trace")]
        predict_problems = [] if len(predicted) == self.HORIZON else [
            f"{len(predicted)} predictions for horizon {self.HORIZON}"]
        predict_problems += checks.check_lstm_predictions(model, seed_ids, predicted)
        self._finish_accuracy()
        return {j: p for j, p in enumerate((restore_problems, predict_problems)) if p}


class MarkovStream(Workload):
    """Learn an order-40 Markov model, then restore, mine and score long traces."""

    LOSS_PCT = 25
    ORDER = 40
    LONG_TRACES = 2

    def setup(self, d: Path) -> None:
        d.mkdir(parents=True)
        self.dir = d
        self.train_cfg, long_cfg = d / "train.cfg", d / "long.cfg"
        self.train_cfg.write_text(config_text(self.seed, traces=2, duration=0.85,
                                              extra=f"markov.order = {self.ORDER}\n"))
        long_cfg.write_text(config_text(self.seed + 100_000, traces=self.LONG_TRACES,
                                        duration=4.5))
        self.setup_call("synth", "--config", self.train_cfg, "--out", d / "train")
        self.setup_call("synth", "--config", long_cfg, "--out", d / "long")
        self.setup_call("dict", "--in", d / "train", "--out", d / "dict.txt")
        for i in range(self.LONG_TRACES):
            gapped = d / f"lossy_{i}.gapped"
            self.setup_call("inject-loss", "--in", d / "long" / f"trace_{i:03d}.trace", "--out",
                     gapped, "--fraction", self.LOSS_PCT, "--seed", self.seed * 10 + i)
            if gapped.exists():
                (d / f"lossy_{i}.trace").write_text(checks.lossy_trace_text(gapped))

    def calls(self, out: Path):
        d = self.dir
        model = out / "markov.model"
        calls = [(["train-markov", "--config", str(self.train_cfg), "--train", str(d / "train"),
                   "--out", str(model)], [model])]
        for i in range(self.LONG_TRACES):
            original = d / "long" / f"trace_{i:03d}.trace"
            restored = out / f"restored_{i}.trace"
            calls.append((["restore", "--model", str(model), "--in", str(d / f"lossy_{i}.gapped"),
                           "--out", str(restored)], [restored]))
            for kind, trace in (("original", original), ("lossy", d / f"lossy_{i}.trace"),
                                ("restored", restored)):
                report = out / f"mine_{kind}_{i}.txt"
                calls.append((["mine", "--in", str(trace), "--dict", str(d / "dict.txt"),
                               "--out", str(report)], [report]))
            evaluation = out / f"eval_{i}.txt"
            calls.append((["evaluate", "--pred", str(restored), "--truth", str(original),
                           "--out", str(evaluation)], [evaluation]))
        return calls

    def model_bytes(self, out: Path) -> int:
        return (out / "markov.model").stat().st_size

    def check(self, out: Path) -> dict[int, list[str]]:
        d = self.dir
        self._hits = self._fills = 0
        problems: dict[int, list[str]] = {}
        training = [[e for _, e in checks.read_trace(p)]
                    for p in sorted((d / "train").glob("*.trace"))]
        oracle = checks.MarkovOracle(training, self.ORDER, checks.first_occurrence_ids(training))
        model_problems = checks.check_markov_file(out / "markov.model", self.ORDER,
                                                  oracle.dictionary)
        if model_problems:
            problems[0] = model_problems
        call = 1
        for i in range(self.LONG_TRACES):
            original_path = d / "long" / f"trace_{i:03d}.trace"
            found, restored, fills = self._restored(
                original_path, d / f"lossy_{i}.gapped", out / f"restored_{i}.trace")
            found += checks.check_markov_fills(oracle, restored, fills)
            original = checks.read_trace(original_path)
            traces = (original, checks.read_trace(d / f"lossy_{i}.trace"), restored)
            per_call = [found] + [
                checks.check_mined(checks.read_mining(out / f"mine_{kind}_{i}.txt"), events)
                for kind, events in zip(("original", "lossy", "restored"), traces)
            ]
            per_call.append(checks.check_alignment(
                checks.read_alignment(out / f"eval_{i}.txt"), len(restored), len(original)))
            for found in per_call:
                if found:
                    problems.setdefault(call, []).extend(found)
                call += 1
        self._finish_accuracy()
        return problems


WORKLOADS = {
    "experiment": Experiment,
    "lstm_stream": LstmStream,
    "markov_stream": MarkovStream,
}
