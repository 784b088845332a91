"""End-to-end experiment pipeline.

Generate synthetic traces, split them, train both model families, evaluate
continuation quality on held-out traces, then run the loss study: inject a
controlled fraction of message loss, restore, and mine timed properties on
original, lossy and restored traces at every loss level. Everything derives
from the one seed in the config, so two runs of the same config produce
byte-identical artifacts.

Artifact layout under the output directory::

    traces/trace_###.trace        generated traces
    split/train/ , split/test/    the two pools
    dict.txt                      event dictionary
    markov.model , lstm.model     trained models
    rasters/*.pgm                 one-hot rasters (truth vs. rollout)
    loss_<pct>/<label>.gapped     injected loss, per test trace
    loss_<pct>/<label>.restored.trace
    mine/*.txt                    mining reports
    report.txt , report.json      run summary

``split``, ``train_lstm`` and ``mine`` are stages the matching subcommands
call too, so they write what the run writes for the same inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import evaluate, lstm, markov, restore, trem
from .config import RunConfig
from .core import Dictionary, EventId, Trace, build_dictionary
from .errors import CorruptModel, VersionMismatch
from .ingest import split_traces, write_trace
from .synth import generate_trace

TRACE_HEADER = "tracekit-trace v1"
GAPPED_HEADER = "tracekit-gapped v1"
DICT_HEADER = "tracekit-dict v1"
REPORT_HEADER = "tracekit-report v1"


def write_dictionary(dictionary: Dictionary, path: Path) -> None:
    lines = [f"# {DICT_HEADER}"] + list(dictionary.ids)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_dictionary(path: Path) -> Dictionary:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != f"# {DICT_HEADER}":
        raise VersionMismatch(f"{path} lacks the `{DICT_HEADER}` header")
    try:
        return Dictionary(tuple(EventId(t) for t in lines[1:] if t.strip()))
    except ValueError as exc:
        raise CorruptModel(f"{path}: {exc}") from None


def split(traces: list[Trace], config: RunConfig, out: Path) -> tuple[list[Trace], list[Trace]]:
    """Cut the train/test pools and write them to ``out/train`` and ``out/test``."""
    train_pool, test_pool = split_traces(traces, config.split_spec())
    for name, pool in (("train", train_pool), ("test", test_pool)):
        pool_dir = out / name
        pool_dir.mkdir(parents=True, exist_ok=True)
        for trace in pool:
            write_trace(trace, pool_dir / f"{trace.label}.trace", header=TRACE_HEADER)
    return train_pool, test_pool


def train_lstm(
    config: RunConfig, pool: list[Trace], dictionary: Dictionary, out: Path
) -> tuple[lstm.LstmModel, list[lstm.RoundMetrics]]:
    """Initialize, train and save the network; returns it with its history."""
    schedule = config.training_schedule()
    model = lstm.LstmModel.initialize(
        config.network_config(dictionary.size), dictionary, seed=schedule.seed
    )
    history = lstm.train(model, pool, schedule)
    lstm.save_model(model, out)
    return model, history


def mine(trace: Trace, dictionary: Dictionary, top_k: int, out: Path) -> trem.MiningReport:
    """Mine ``trace``, keep the ``top_k`` dominant instances (0 keeps all), write the report."""
    report = trem.mine_trace(trace, dictionary)
    if top_k > 0:
        report = trem.rank_dominant(report, top_k, dictionary)
    out.write_text(trem.report_to_text(report), encoding="utf-8")
    return report


def run_pipeline(config: RunConfig, out_dir: str | Path) -> dict:
    """Run the whole experiment; returns the summary also written to report.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # 1. synthesize
    traces_dir = out / "traces"
    traces_dir.mkdir(exist_ok=True)
    traces: list[Trace] = []
    for i in range(config.synth_trace_count()):
        trace = generate_trace(config.generator_spec(i))
        traces.append(trace)
        write_trace(trace, traces_dir / f"trace_{i:03d}.trace", header=TRACE_HEADER)

    # 2. split
    train_pool, test_pool = split(traces, config, out / "split")

    # 3. dictionary (from the training pool only)
    dictionary = build_dictionary(train_pool)
    write_dictionary(dictionary, out / "dict.txt")

    # 4. benchmark model
    markov_model = markov.learn_transitions(
        train_pool, order_n=config.markov_order(), dictionary=dictionary
    )
    markov_model.save(out / "markov.model")

    # 5. network
    model, history = train_lstm(config, train_pool, dictionary, out / "lstm.model")
    unroll = model.config.unroll_steps

    summary: dict = {
        "config_digest": config.digest(),
        "vocab": dictionary.size,
        "training_rounds": [
            {
                "round": r.round_index,
                "train": r.train_label,
                "val": r.val_label,
                "final_val_logloss": r.epochs[-1].val_logloss if r.epochs else None,
            }
            for r in history
        ],
        "next_event_accuracy": {},
        "rollout": {},
        "loss_study": {},
    }

    # 6. held-out continuation quality
    eval_start = config.eval_start() or unroll
    for trace in test_pool:
        ids = trace.ids()
        if len(ids) <= eval_start + 1:
            continue
        acc_lstm = evaluate.next_event_accuracy(model, ids, start=eval_start)
        acc_markov = evaluate.next_event_accuracy(markov_model, ids, start=eval_start)
        summary["next_event_accuracy"][trace.label] = {
            "lstm": acc_lstm,
            "markov": acc_markov,
        }

    # 7. full-trace rollout and rasters for the first test trace
    rasters = out / "rasters"
    rasters.mkdir(exist_ok=True)
    if test_pool:
        probe = test_pool[0]
        ids = probe.ids()
        seed_len = min(unroll, max(1, len(ids) // 4))
        continuation = restore.predict_step_by_step(model, ids[:seed_len], len(ids) - seed_len)
        report = evaluate.align_and_classify(continuation, ids[seed_len:])
        summary["rollout"][probe.label] = report.to_dict()
        segment = slice(0, min(120, len(ids) - seed_len))
        evaluate.render_onehot_image(
            ids[seed_len:][segment], dictionary, rasters / "true_events.pgm"
        )
        evaluate.render_onehot_image(
            continuation[segment], dictionary, rasters / "predicted_events.pgm"
        )

    # 8. loss / restore / mine study
    restorer = markov_model if config.restorer() == "markov" else model
    mine_dir = out / "mine"
    mine_dir.mkdir(exist_ok=True)
    top_k = config.mine_top_k()

    def mined(trace: Trace, tag: str) -> trem.MiningReport:
        return mine(trace, dictionary, top_k, mine_dir / f"{tag}.txt")

    originals = {t.label: mined(t, f"original_{t.label}") for t in test_pool}
    for fraction in config.loss_fractions():
        pct = round(fraction * 100)
        level_dir = out / f"loss_{pct:02d}"
        level_dir.mkdir(exist_ok=True)
        total_original = 0
        kept_lossy = 0
        kept_restored = 0
        for trace in test_pool:
            gapped = restore.inject_loss(trace, config.loss_spec(fraction, trace.label))
            restore.write_gapped(gapped, level_dir / f"{trace.label}.gapped", header=GAPPED_HEADER)
            restored = restore.restore_trace(restorer, gapped)
            write_trace(
                restored, level_dir / f"{trace.label}.restored.trace", header=TRACE_HEADER
            )
            original_report = originals[trace.label]
            lossy_report = mined(gapped.known_trace(), f"lossy_{pct:02d}_{trace.label}")
            restored_report = mined(restored, f"restored_{pct:02d}_{trace.label}")
            original_keys = original_report.keys()
            total_original += len(original_keys)
            kept_lossy += len(original_keys & lossy_report.keys())
            kept_restored += len(original_keys & restored_report.keys())
        summary["loss_study"][str(pct)] = {
            "original_instances": total_original,
            "lossy_decrease_pct": _decrease_pct(kept_lossy, total_original),
            "restored_decrease_pct": _decrease_pct(kept_restored, total_original),
        }

    _write_report(summary, out)
    return summary


def _decrease_pct(kept: int, total: int) -> float:
    return 100.0 * (1.0 - kept / total) if total else 0.0


def _write_report(summary: dict, out: Path) -> None:
    (out / "report.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    lines = [f"# {REPORT_HEADER}", f"config_digest={summary['config_digest']}"]
    for label in sorted(summary["next_event_accuracy"]):
        acc = summary["next_event_accuracy"][label]
        lines.append(f"nextacc.lstm.{label}={acc['lstm']!r}")
        lines.append(f"nextacc.markov.{label}={acc['markov']!r}")
    for label in sorted(summary["rollout"]):
        roll = summary["rollout"][label]
        for key in sorted(roll):
            lines.append(f"rollout.{label}.{key}={roll[key]!r}")
    for pct in sorted(summary["loss_study"], key=int):
        level = summary["loss_study"][pct]
        lines.append(f"loss.{pct}.original_instances={level['original_instances']}")
        lines.append(f"loss.{pct}.lossy_decrease_pct={level['lossy_decrease_pct']!r}")
        lines.append(
            f"loss.{pct}.restored_decrease_pct={level['restored_decrease_pct']!r}"
        )
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
