"""End-to-end experiment pipeline, built from one function per stage.

Generate synthetic traces, split them, train both model families, evaluate
continuation quality on held-out traces, then run the loss study: inject a
controlled fraction of message loss, restore, and mine timed properties on
original, lossy and restored traces at every loss level. Everything derives
from the one seed in the config, so two runs of the same config produce
byte-identical artifacts.

Artifact layout under the output directory::

    traces/trace_###.trace        generated traces, labelled by file stem
    split/train/ , split/test/    the two pools, same names, in label order
    dict.txt                      event dictionary of the training pool
    markov.model , lstm.model     trained models
    rasters/*.pgm                 one-hot rasters (truth vs. rollout) of the
                                  first test trace, if it is long enough to align
    loss_<pct>/<label>.gapped     injected loss, per test trace
    loss_<pct>/<label>.restored.trace
    mine/*.txt                    mining reports
    report.json                   run summary, the one results file

Each stage below writes its artifact and returns its value; the matching
subcommand runs it too, so the chained subcommands reproduce a run. A mining
report names no trace, so ``mine`` of ``loss_<pct>/<label>.restored.trace``
writes the bytes of ``mine/restored_<pct>_<label>.txt``, and ``mine`` of
``loss_<pct>/<label>.gapped``, which mines its surviving events, writes those
of ``mine/lossy_<pct>_<label>.txt``.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import evaluate, lstm, markov, trem
from .config import RunConfig
from .core import Dictionary, Trace, build_dictionary
from .errors import ConfigError, CorruptModel, VersionMismatch
from .ingest import read_text, split_traces, write_trace
from .restore import GappedTrace, LossSpec, NextEventPredictor, inject_loss
from .restore import predict_step_by_step, restore_trace, write_gapped
from .synth import generate_trace

DICT_HEADER = "# tracekit-dict v1"


def read_dictionary(path: Path) -> Dictionary:
    lines = read_text(path).splitlines()
    if not lines or lines[0] != DICT_HEADER:
        raise VersionMismatch(f"{path} lacks the `{DICT_HEADER}` header")
    try:
        return Dictionary(tuple(t for t in lines[1:] if t.strip()))
    except ValueError as exc:
        raise CorruptModel(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# stages


def synth(config: RunConfig, out: Path) -> list[Trace]:
    """Generate the config's traces and write each to ``out/<label>.trace``."""
    traces = [generate_trace(config.generator_spec(i)) for i in range(config.synth_traces)]
    out.mkdir(parents=True, exist_ok=True)
    for trace in traces:
        write_trace(trace, out / f"{trace.label}.trace")
    return traces


def split(traces: list[Trace], config: RunConfig, out: Path) -> tuple[list[Trace], list[Trace]]:
    """Cut the train/test pools and write them to ``out/train`` and ``out/test``."""
    train_pool, test_pool = split_traces(traces, config.split)
    for name, pool in (("train", train_pool), ("test", test_pool)):
        pool_dir = out / name
        pool_dir.mkdir(parents=True, exist_ok=True)
        for trace in pool:
            write_trace(trace, pool_dir / f"{trace.label}.trace")
    return train_pool, test_pool


def dictionary(pool: list[Trace], out: Path) -> Dictionary:
    """Build the dictionary of a training pool and write it, one id a line."""
    built = build_dictionary(pool)
    out.write_text("\n".join([DICT_HEADER, *built.ids]) + "\n", encoding="utf-8")
    return built


def train_markov(
    config: RunConfig, pool: list[Trace], dictionary: Dictionary, out: Path
) -> markov.MarkovModel:
    """Learn and save the benchmark model."""
    model = markov.learn_transitions(pool, config.markov_order, dictionary)
    model.save(out)
    return model


def train_lstm(
    config: RunConfig, pool: list[Trace], dictionary: Dictionary, out: Path
) -> tuple[lstm.LstmModel, list[lstm.RoundMetrics]]:
    """Initialize, train and save the network; returns it with its history."""
    schedule = config.schedule
    model = lstm.LstmModel.initialize(
        config.network_config(dictionary.size), dictionary, seed=schedule.seed
    )
    history = lstm.train(model, pool, schedule)
    lstm.save_model(model, out)
    return model, history


def inject(trace: Trace, spec: LossSpec, out: Path) -> GappedTrace:
    """Remove events from ``trace`` as ``spec`` says and write the gapped trace."""
    gapped = inject_loss(trace, spec)
    write_gapped(gapped, out)
    return gapped


def restore(model: NextEventPredictor, gapped: GappedTrace, out: Path) -> Trace:
    """Fill every gap with ``model`` and write the restored trace."""
    restored = restore_trace(model, gapped)
    write_trace(restored, out)
    return restored


def mine(trace: Trace, dictionary: Dictionary, out: Path) -> trem.MiningReport:
    """Mine ``trace`` and write the report."""
    report = trem.mine_trace(trace, dictionary)
    out.write_text(trem.report_to_text(report), encoding="utf-8")
    return report


def run_pipeline(config: RunConfig, out_dir: str | Path) -> dict:
    """Run the whole experiment; returns the summary also written to report.json."""
    needed = config.split.train_count + config.split.test_count
    if config.synth_traces < needed:
        raise ConfigError(f"synth.traces = {config.synth_traces} cannot fill a split of {needed}")
    out = Path(out_dir)
    train_pool, test_pool = split(synth(config, out / "traces"), config, out / "split")
    vocabulary = dictionary(train_pool, out / "dict.txt")
    markov_model = train_markov(config, train_pool, vocabulary, out / "markov.model")
    model, history = train_lstm(config, train_pool, vocabulary, out / "lstm.model")
    unroll = model.config.unroll_steps
    eval_start = config.eval_start or unroll

    summary: dict = {
        "config_digest": config.digest(),
        "vocab": vocabulary.size,
        "training_rounds": [
            {
                "round": r.round_index,
                "train": r.train_label,
                "val": r.val_label,
                "final_val_logloss": r.epochs[-1].val_logloss,
            }
            for r in history
        ],
        "next_event_accuracy": {},
        "rollout": {},
        "loss_study": {},
    }

    # held-out continuation quality
    for trace in test_pool:
        ids = trace.id_column
        if len(ids) <= eval_start + 1:
            continue
        acc_lstm = evaluate.next_event_accuracy(model, ids, start=eval_start)
        acc_markov = evaluate.next_event_accuracy(markov_model, ids, start=eval_start)
        summary["next_event_accuracy"][trace.label] = {
            "lstm": acc_lstm,
            "markov": acc_markov,
        }

    # full-trace rollout and rasters for the first test trace, if it can be aligned
    rasters = out / "rasters"
    rasters.mkdir(exist_ok=True)
    for probe in test_pool[:1]:
        ids = probe.id_column
        seed_len = min(unroll, max(1, len(ids) // 4))
        if len(ids) - seed_len <= evaluate.LOOKAHEAD_W:
            continue
        continuation = predict_step_by_step(model, ids[:seed_len], len(ids) - seed_len)
        report = evaluate.align_and_classify(continuation, ids[seed_len:])
        summary["rollout"][probe.label] = report.to_dict()
        segment = slice(0, min(120, len(ids) - seed_len))
        evaluate.render_onehot_image(
            ids[seed_len:][segment], vocabulary, rasters / "true_events.pgm"
        )
        evaluate.render_onehot_image(
            continuation[segment], vocabulary, rasters / "predicted_events.pgm"
        )

    # loss / restore / mine study
    restorer = markov_model if config.restorer == "markov" else model
    mine_dir = out / "mine"
    mine_dir.mkdir(exist_ok=True)

    def mined(trace: Trace, tag: str) -> trem.MiningReport:
        return mine(trace, vocabulary, mine_dir / f"{tag}.txt")

    originals = {t.label: mined(t, f"original_{t.label}") for t in test_pool}
    original_instances = sum(len(originals[t.label]) for t in test_pool)
    for fraction in config.loss_fractions:
        pct = round(fraction * 100)
        level_dir = out / f"loss_{pct:02d}"
        level_dir.mkdir(exist_ok=True)
        lossy_pairs, restored_pairs = [], []
        for trace in test_pool:
            spec = config.loss_spec(fraction, trace.label)
            gapped = inject(trace, spec, level_dir / f"{trace.label}.gapped")
            restored = restore(restorer, gapped, level_dir / f"{trace.label}.restored.trace")
            original = originals[trace.label]
            tag = f"{pct:02d}_{trace.label}"
            lossy_pairs.append((original, mined(gapped.known_trace(), f"lossy_{tag}")))
            restored_pairs.append((original, mined(restored, f"restored_{tag}")))
        summary["loss_study"][str(pct)] = {
            "original_instances": original_instances,
            "lossy_decrease_pct": trem.compare_reports(lossy_pairs),
            "restored_decrease_pct": trem.compare_reports(restored_pairs),
        }

    (out / "report.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8"
    )
    return summary
