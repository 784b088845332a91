"""Command-line front end: one subcommand per pipeline stage, plus tools.

Each subcommand reads declared inputs, writes declared outputs and prints a
one-line summary. Exit codes: 0 on success, 1 on pipeline errors and on
input that cannot be read or is not UTF-8 text, 2 on usage/configuration
errors. ``synth`` to ``mine`` each run the ``pipeline`` stage that
``report`` runs, so chained from one config they write what ``report``
writes. A directory argument is a pool of ``*.trace`` files. The
readers refuse another artifact's header; ``mine`` also reads a ``.gapped``
file, whose surviving events it mines, and ``predict`` rolls out either model.
``train-markov`` and ``train-lstm`` train on their ``--train`` pool's own
dictionary, the one ``dict`` writes for that pool.

The Markov and trace subcommands never load numpy (see ``core``); only
``train-lstm``, ``report``, ``render`` and ``restore`` and ``predict`` with
an LSTM model do.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import evaluate as evaluate_mod
from . import lstm, markov, pipeline, trem
from .config import RunConfig
from .core import Trace, build_dictionary
from .errors import ConfigError, EmptyOriginal, TracekitError
from .ingest import read_pool, read_text, read_trace, write_trace
from .pipeline import read_dictionary, run_pipeline
from .restore import LossSpec, predict_step_by_step, read_gapped
from .synth import generate_trace  # noqa: F401  benchmark/tests checks the tracer restores it here


def _load_any_model(path: str | Path):
    """Sniff the serialized model family by its leading bytes."""
    with open(path, "rb") as fh:
        head = fh.read(16)
    if head.startswith(lstm._MAGIC):
        return lstm.load_model(path)
    return markov.MarkovModel.load(path)


def _pool_and_dictionary(args):
    """The ``--train`` pool and its dictionary, the one ``dict`` writes for it."""
    pool = read_pool(args.train)
    return pool, build_dictionary(pool)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_synth(args) -> int:
    traces = pipeline.synth(RunConfig.load(args.config), Path(args.out))
    print(f"synth: wrote {len(traces)} traces to {args.out}")
    return 0


def _cmd_split(args) -> int:
    config = RunConfig.load(args.config)
    train_pool, test_pool = pipeline.split(read_pool(args.input), config, Path(args.out))
    print(f"split: {len(train_pool)} train / {len(test_pool)} test under {args.out}")
    return 0


def _cmd_dict(args) -> int:
    dictionary = pipeline.dictionary(read_pool(args.input), Path(args.out))
    print(f"dict: {len(dictionary.ids)} ids (+OTHER) -> {args.out}")
    return 0


def _cmd_train_markov(args) -> int:
    config = RunConfig.load(args.config)
    model = pipeline.train_markov(config, *_pool_and_dictionary(args), Path(args.out))
    print(
        f"train-markov: order {model.order_n}, {model.state_count} states -> {args.out}"
    )
    return 0


def _cmd_train_lstm(args) -> int:
    config = RunConfig.load(args.config)
    _, history = pipeline.train_lstm(config, *_pool_and_dictionary(args), Path(args.out))
    final = history[-1].epochs[-1].val_logloss
    print(
        f"train-lstm: {len(history)} rounds, final val logloss {final:.4f} -> {args.out}"
    )
    return 0


def _cmd_inject_loss(args) -> int:
    spec = LossSpec(
        fraction=args.fraction / 100.0, burst_length=args.burst_length, seed=args.seed
    )
    gapped = pipeline.inject(read_trace(args.input), spec, Path(args.out))
    print(
        f"inject-loss: removed {gapped.missing_total()} of "
        f"{len(gapped.id_column)} events -> {args.out}"
    )
    return 0


def _cmd_predict(args) -> int:
    model = _load_any_model(args.model)
    seed_trace = read_trace(args.seed_trace)
    predicted = predict_step_by_step(model, seed_trace.ids(), args.horizon)
    times = _extrapolate_times(seed_trace, len(predicted))
    write_trace(Trace.from_columns(predicted, times, label=f"{seed_trace.label}_pred"), args.out)
    print(f"predict: {args.horizon} events -> {args.out}")
    return 0


def _extrapolate_times(seed_trace: Trace, count: int) -> list[float]:
    times = seed_trace.time_column
    if len(times) >= 2:
        delta = (times[-1] - times[0]) / (len(times) - 1)
    else:
        delta = 1.0
    t0 = times[-1] if times else 0.0
    return [t0 + delta * (i + 1) for i in range(count)]


def _cmd_restore(args) -> int:
    gapped = read_gapped(args.input)
    restored = pipeline.restore(_load_any_model(args.model), gapped, Path(args.out))
    print(
        f"restore: filled {gapped.missing_total()} events, "
        f"{len(restored)} total -> {args.out}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    pred = read_trace(args.pred)
    truth = read_trace(args.truth)
    report = evaluate_mod.align_and_classify(pred.id_column, truth.id_column)
    if args.out:
        Path(args.out).write_text(report.to_text(), encoding="utf-8")
    print(
        f"evaluate: accuracy {report.accuracy:.4f}, {report.omissions} omissions, "
        f"{report.ordering_mistakes} ordering mistakes, "
        f"{report.substitutions} substitutions"
    )
    return 0


def _cmd_render(args) -> int:
    trace = read_trace(args.input)
    dictionary = read_dictionary(Path(args.dict))
    stop = args.start + args.length if args.length else None
    ids = trace.ids()[args.start : stop]
    evaluate_mod.render_onehot_image(ids, dictionary, args.out)
    print(f"render: {len(ids)} columns x {dictionary.size} rows -> {args.out}")
    return 0


def _cmd_mine(args) -> int:
    path = Path(args.input)
    trace = read_gapped(path).known_trace() if path.suffix == ".gapped" else read_trace(path)
    dictionary = read_dictionary(Path(args.dict))
    report = pipeline.mine(trace, dictionary, Path(args.out))
    print(f"mine: {len(report)} instances -> {args.out}")
    return 0


def _cmd_compare(args) -> int:
    original = trem.report_from_text(read_text(args.original))
    other = trem.report_from_text(read_text(args.other))
    if len(original) == 0:
        raise EmptyOriginal(f"{args.original} has no instances")
    decrease = trem.compare_reports([(original, other)])
    print(f"compare: {decrease!r} percent of original instances lost")
    return 0


def _cmd_report(args) -> int:
    summary = run_pipeline(RunConfig.load(args.config), args.out)
    levels = ", ".join(
        f"{pct}%: lossy {level['lossy_decrease_pct']:.1f} / restored "
        f"{level['restored_decrease_pct']:.1f}"
        for pct, level in sorted(summary["loss_study"].items(), key=lambda kv: int(kv[0]))
    )
    print(f"report: wrote {args.out} (instance decrease {levels})")
    return 0


# ---------------------------------------------------------------------------
# parser


def _int_at_least(minimum: int):
    def count(raw: str) -> int:
        if int(raw) < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {raw}")
        return int(raw)

    return count


def _percent(raw: str) -> float:
    """A loss percent in [0, 100); ``nan`` is out of range too."""
    value = float(raw)
    if not 0 <= value < 100:
        raise argparse.ArgumentTypeError(f"must be in [0, 100), got {raw}")
    return value


@functools.cache  # built once per process; parse_args returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracekit",
        description="Restore lossy event traces and evaluate the restoration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic traces from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("split", help="split a trace directory into train/test pools")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("dict", help="build the event dictionary from traces")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dict)

    p = sub.add_parser("train-markov", help="train the benchmark transition model")
    p.add_argument("--config", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_markov)

    p = sub.add_parser("train-lstm", help="train the recurrent network")
    p.add_argument("--config", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_lstm)

    p = sub.add_parser("inject-loss", help="remove a controlled fraction of events")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fraction", type=_percent, required=True, help="loss percent, e.g. 25")
    p.add_argument("--burst-length", type=_int_at_least(1), default=1)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_inject_loss)

    p = sub.add_parser("predict", help="continue a trace by step-by-step prediction")
    p.add_argument("--model", required=True)
    p.add_argument("--seed-trace", required=True)
    p.add_argument("--horizon", type=_int_at_least(0), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("restore", help="fill the gaps of a lossy trace")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_restore)

    p = sub.add_parser("evaluate", help="alignment-score a prediction against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("render", help="render a one-hot raster image of a trace")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--start", type=_int_at_least(0), default=0)
    p.add_argument("--length", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("mine", help="mine timed properties from a trace or a gapped trace")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("compare", help="percent decrease between mining reports")
    p.add_argument("--original", required=True)
    p.add_argument("--other", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="run the full pipeline from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TracekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
