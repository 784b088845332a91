"""The benchmark's checks agree with the program and catch planted faults.

Run from the repository root with ``python3 -m pytest benchmark/tests``.
Each test drives ``tracekit.cli.main`` on a small input, then runs the
independent check on what it wrote; the fault tests patch one behaviour of
the program and expect the check to object.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import checks
from tracekit import cli
from tracer import Tracer, layer_metrics
from workloads import Experiment

SMALL = """\
seed = {seed}
synth.traces = 3
synth.duration = 0.3
synth.periodic = A1 0.010 0.05
synth.periodic = B2 0.020 0.05
synth.periodic = C3 0.050 0.10
synth.triggered = D4 B2 0.5 0.002
synth.rare = E5 20
markov.order = 6
lstm.dense_width = 6
lstm.lstm_width = 8
lstm.unroll = 6
train.rounds = 1
train.epochs_flat = 1
train.epochs_decay = 0
split.train = 2
split.test = 1
loss.fractions = 10 25
eval.start = 6
"""


def run(*argv) -> None:
    assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture()
def small(tmp_path: Path) -> Path:
    """Three synthetic traces, two for training and one made lossy."""
    (tmp_path / "small.cfg").write_text(SMALL.format(seed=3))
    run("synth", "--config", tmp_path / "small.cfg", "--out", tmp_path / "all")
    (tmp_path / "train").mkdir()
    for i in (0, 1):
        name = f"trace_{i:03d}.trace"
        (tmp_path / "train" / name).write_text((tmp_path / "all" / name).read_text())
    run("inject-loss", "--in", tmp_path / "all" / "trace_002.trace", "--out",
        tmp_path / "lossy.gapped", "--fraction", 25, "--seed", 5)
    return tmp_path


def restore(d: Path, model: str) -> tuple[list, list, list]:
    run("restore", "--model", d / model, "--in", d / "lossy.gapped", "--out", d / "restored.trace")
    restored = checks.read_trace(d / "restored.trace")
    problems, fills = checks.check_restored(checks.read_gapped(d / "lossy.gapped"), restored)
    return problems, restored, fills


def train_ids(d: Path) -> list[list[str]]:
    return [[e for _, e in checks.read_trace(p)] for p in sorted((d / "train").glob("*.trace"))]


# ---------------------------------------------------------------------------
# Markov


def test_markov_fills_match_oracle(small):
    run("train-markov", "--config", small / "small.cfg", "--train", small / "train",
        "--out", small / "markov.model")
    problems, restored, fills = restore(small, "markov.model")
    assert problems == [] and fills
    training = train_ids(small)
    dictionary = checks.first_occurrence_ids(training)
    assert checks.check_markov_file(small / "markov.model", 6, dictionary) == []
    oracle = checks.MarkovOracle(training, 6, dictionary)
    assert checks.check_markov_fills(oracle, restored, fills) == []


def _tie_input(d: Path) -> None:
    """After A the training traces hold B once and C once: a tie."""
    (d / "cfg").write_text("seed = 1\nmarkov.order = 4\n")
    (d / "train").mkdir()
    (d / "train" / "a.trace").write_text("0.0 A\n1.0 B\n")
    (d / "train" / "b.trace").write_text("0.0 A\n1.0 C\n")
    (d / "lossy.gapped").write_text("0.0 A\n? 1\n2.0 B\n")
    run("train-markov", "--config", d / "cfg", "--train", d / "train", "--out", d / "markov.model")


def test_markov_tie_breaks_to_lowest_index(tmp_path):
    _tie_input(tmp_path)
    problems, restored, fills = restore(tmp_path, "markov.model")
    assert problems == [] and restored[1][1] == "B"
    oracle = checks.MarkovOracle(train_ids(tmp_path), 4, ["A", "B", "C"])
    assert checks.check_markov_fills(oracle, restored, fills) == []


def test_flipped_markov_tie_break_is_flagged(tmp_path, monkeypatch):
    _tie_input(tmp_path)

    def highest_index_on_ties(counts, dictionary):
        return max(counts, key=lambda eid: (counts[eid], dictionary.index_of(eid)))

    monkeypatch.setattr("tracekit.markov.pick_most_frequent", highest_index_on_ties)
    _, restored, fills = restore(tmp_path, "markov.model")
    assert restored[1][1] == "C"
    oracle = checks.MarkovOracle(train_ids(tmp_path), 4, ["A", "B", "C"])
    assert checks.check_markov_fills(oracle, restored, fills)


# ---------------------------------------------------------------------------
# LSTM


def _train_lstm(d: Path) -> checks.LstmFile:
    run("train-lstm", "--config", d / "small.cfg", "--train", d / "train", "--out", d / "lstm.model")
    return checks.LstmFile(d / "lstm.model")


def test_lstm_fills_and_predictions_match_forward_pass(small):
    model = _train_lstm(small)
    problems, restored, fills = restore(small, "lstm.model")
    assert problems == [] and fills
    assert checks.check_lstm_fills(model, restored, fills) == []
    seed_trace = small / "train" / "trace_000.trace"
    run("predict", "--model", small / "lstm.model", "--seed-trace", seed_trace,
        "--horizon", 12, "--out", small / "pred.trace")
    predicted = [e for _, e in checks.read_trace(small / "pred.trace")]
    seed_ids = [e for _, e in checks.read_trace(seed_trace)]
    assert len(predicted) == 12
    assert checks.check_lstm_predictions(model, seed_ids, predicted) == []


def test_perturbed_lstm_weight_is_flagged(small, monkeypatch):
    model = _train_lstm(small)
    # Push the output bias of an id the clean model does not choose first.
    _, restored, fills = restore(small, "lstm.model")
    first = restored[fills[0]][1]
    target = next(i for i in range(model.vocab) if model.token(i) != first)

    from tracekit import lstm

    load = lstm.load_model

    def perturbed_load(path):
        loaded = load(path)
        loaded.params["out/b"][target] += 50.0
        return loaded

    monkeypatch.setattr(lstm, "load_model", perturbed_load)
    problems, restored, fills = restore(small, "lstm.model")
    assert problems == []
    assert checks.check_lstm_fills(model, restored, fills)


# ---------------------------------------------------------------------------
# restored timestamps


def test_shifted_fill_timestamp_is_flagged(small, monkeypatch):
    run("train-markov", "--config", small / "small.cfg", "--train", small / "train",
        "--out", small / "markov.model")
    from tracekit import restore as restore_mod

    interpolate = restore_mod._interpolate

    def shifted(before, after, j, count):
        value = interpolate(before, after, j, count)
        if before is None or after is None:
            return value
        return value + (after - value) * 1e-3  # still inside the gap, so still ordered

    monkeypatch.setattr(restore_mod, "_interpolate", shifted)
    problems, _, _ = restore(small, "markov.model")
    assert any("timestamp" in p for p in problems)


def test_changed_known_event_is_flagged(small):
    run("train-markov", "--config", small / "small.cfg", "--train", small / "train",
        "--out", small / "markov.model")
    problems, restored, fills = restore(small, "markov.model")
    assert problems == []
    known = next(p for p in range(len(restored)) if p not in fills)
    ts, eid = restored[known]
    restored[known] = (ts, "A1" if eid != "A1" else "B2")
    problems, _ = checks.check_restored(checks.read_gapped(small / "lossy.gapped"), restored)
    assert any("known event" in p for p in problems)


# ---------------------------------------------------------------------------
# mining, alignment, loss study


def test_mined_instances_hold_and_a_false_one_is_flagged(small):
    run("dict", "--in", small / "train", "--out", small / "dict.txt")
    trace = small / "all" / "trace_002.trace"
    run("mine", "--in", trace, "--dict", small / "dict.txt", "--out", small / "mine.txt")
    instances = checks.read_mining(small / "mine.txt")
    events = checks.read_trace(trace)
    assert instances and checks.check_mined(instances, events) == []
    template, p, s, count = instances[0]
    assert checks.check_mined([(template, p, s, count + 1)], events)
    assert checks.check_mined([("response", p, "NOPE", 1)], events)


def test_alignment_counts_sum_and_a_bad_total_is_flagged(small):
    run("train-markov", "--config", small / "small.cfg", "--train", small / "train",
        "--out", small / "markov.model")
    restore(small, "markov.model")
    truth = small / "all" / "trace_002.trace"
    run("evaluate", "--pred", small / "restored.trace", "--truth", truth, "--out", small / "e.txt")
    report = checks.read_alignment(small / "e.txt")
    n = len(checks.read_trace(truth))
    assert checks.check_alignment(report, n, n) == []
    assert checks.check_alignment(dict(report, total=report["total"] + 1), n, n)


def test_experiment_check_agrees_with_report_and_flags_a_changed_study(tmp_path):
    (tmp_path / "exp.cfg").write_text(SMALL.format(seed=9))
    run("report", "--config", tmp_path / "exp.cfg", "--out", tmp_path / "report")
    workload = Experiment(9, program=None)
    assert workload.check(tmp_path) == {}
    assert 0.0 <= workload.fill_accuracy <= 1.0

    summary_path = tmp_path / "report" / "report.json"
    clean = summary_path.read_text()
    summary = json.loads(clean)
    summary["loss_study"]["25"]["restored_decrease_pct"] += 1.0
    summary_path.write_text(json.dumps(summary))
    assert any("loss 25%" in p for p in workload.check(tmp_path)[0])

    summary = json.loads(clean)
    summary["training_rounds"][-1]["final_val_logloss"] *= 1 + 1e-7
    summary_path.write_text(json.dumps(summary))
    assert any("validation logloss" in p for p in workload.check(tmp_path)[0])


# ---------------------------------------------------------------------------
# tracer


def test_tracer_self_times_sum_to_the_call_and_originals_come_back(small):
    from tracekit import synth

    original = synth.generate_trace
    tracer = Tracer()
    tracer.install()
    try:
        run("synth", "--config", small / "small.cfg", "--out", small / "again")
    finally:
        tracer.uninstall()
    assert synth.generate_trace is original and cli.generate_trace is original
    snap = tracer.snapshot()
    assert snap["calls"]["synth.generate"] == 3 and snap["calls"]["cli"] == 1
    assert sum(snap["self"].values()) == pytest.approx(snap["total"]["cli"], rel=1e-9)
    metrics = layer_metrics([(snap, 1)], fill_accuracy=0.5, overhead_s=0.0)
    assert metrics["synth.generate_s"][0] == pytest.approx(snap["total"]["synth.generate"])


def test_printed_metrics_are_the_declared_ones():
    import run

    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    traced = layer_metrics([], fill_accuracy=0.0, overhead_s=0.0)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (_, unit) in traced.items()}
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: unit for name, (_, unit) in run.end_to_end(1.0, 1.0, 1.0, 1.0).items()}
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(run.WORKLOADS)
