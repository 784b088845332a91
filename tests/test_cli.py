import hashlib
import json
import struct
import warnings
from pathlib import Path

import pytest

from tracekit import cli, lstm, markov, pipeline
from tracekit.config import RunConfig
from tracekit.core import Dictionary, EventId, Trace, build_dictionary
from tracekit.ingest import TRACE_HEADER, read_trace, write_trace
from tracekit.markov import learn_transitions
from tracekit.pipeline import DICT_HEADER
from tracekit.restore import (
    GAPPED_HEADER,
    LossSpec,
    inject_loss,
    predict_step_by_step,
    read_gapped,
    restore_trace,
    write_gapped,
)
from tracekit.synth import GeneratorSpec, PeriodicMessage, TriggeredMessage, generate_trace

ORDER = 4


def spec(seed, duration):
    return GeneratorSpec(
        periodic=(
            PeriodicMessage(EventId("A"), 0.010, 0.0),
            PeriodicMessage(EventId("B"), 0.020, 0.1),
            PeriodicMessage(EventId("C"), 0.070, 0.1),
        ),
        triggered=(TriggeredMessage(EventId("T"), EventId("C"), 0.5, 0.001),),
        duration=duration,
        seed=seed,
    )


@pytest.fixture
def markov_run(tmp_path):
    """Training traces, a config, a lossy trace and a model trained through the CLI."""
    train = [generate_trace(spec(seed, 0.5)) for seed in (1, 2)]
    (tmp_path / "train").mkdir()
    for i, trace in enumerate(train):
        write_trace(trace, tmp_path / "train" / f"t{i}.trace")
    gapped = inject_loss(generate_trace(spec(3, 1.0)), LossSpec(fraction=0.25, seed=3))
    write_gapped(gapped, tmp_path / "lossy.gapped")
    (tmp_path / "run.cfg").write_text(f"seed = 1\nmarkov.order = {ORDER}\n")
    model = tmp_path / "markov.model"
    code = cli.main(["train-markov", "--config", str(tmp_path / "run.cfg"),
                     "--train", str(tmp_path / "train"), "--out", str(model)])
    assert code == 0
    return tmp_path, train, gapped


def restore_with(model_path, tmp_path):
    return cli.main(["restore", "--model", str(model_path), "--in", str(tmp_path / "lossy.gapped"),
                     "--out", str(tmp_path / "restored.trace")])


def assert_clean_failure(capsys, code):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(("error: ", "io error: "))
    assert "Traceback" not in err
    return err


def test_markov_restore_matches_in_process(markov_run, capsys):
    tmp_path, train, gapped = markov_run
    assert restore_with(tmp_path / "markov.model", tmp_path) == 0
    expected = restore_trace(learn_transitions(train, ORDER, build_dictionary(train)), gapped)
    restored = read_trace(tmp_path / "restored.trace")
    assert restored.id_column == expected.id_column
    assert restored.time_column == expected.time_column
    assert gapped.missing_total() > 0


@pytest.mark.parametrize("damage", ["truncated", "edited", "v1"])
def test_damaged_markov_model_fails_cleanly(markov_run, capsys, damage):
    tmp_path, _, _ = markov_run
    path = tmp_path / "markov.model"
    text = path.read_text()
    if damage == "truncated":
        text = text[: len(text) // 2]
    elif damage == "edited":
        text = text.replace(":1,", ":9,", 1)
    else:
        text = text.replace(f" v{markov._FORMAT_VERSION}\n", " v1\n", 1)
    assert text != path.read_text()
    path.write_text(text)
    capsys.readouterr()
    assert_clean_failure(capsys, restore_with(path, tmp_path))


@pytest.mark.parametrize("command", ["restore", "predict"])
def test_older_markov_model_names_the_retrain_command(markov_run, capsys, command):
    tmp_path, _, gapped = markov_run
    body = "tracekit-markov v2\norder 1\nvocab A\nn - - A:2\nn 0 A A:1\n"
    path = tmp_path / "old.model"
    path.write_text(body + f"# sha256 {hashlib.sha256(body.encode()).hexdigest()}\n")
    write_trace(gapped.known_trace(), tmp_path / "seed.trace")
    capsys.readouterr()
    if command == "restore":
        code = restore_with(path, tmp_path)
    else:
        code = predict_with(path, tmp_path / "seed.trace", tmp_path / "pred.trace")
    assert "retrain with `tracekit train-markov`" in assert_clean_failure(capsys, code)


def test_lstm_model_with_bad_header_fails_cleanly(markov_run, capsys):
    tmp_path, _, _ = markov_run
    header = b'{"dictionary": ["A"]}'  # valid JSON and checksum, no config or params
    body = lstm._MAGIC + struct.pack("<I", lstm._FORMAT_VERSION)
    body += struct.pack("<Q", len(header)) + header
    path = tmp_path / "lstm.model"
    path.write_bytes(body + hashlib.sha256(body).digest())
    capsys.readouterr()
    assert_clean_failure(capsys, restore_with(path, tmp_path))


@pytest.mark.parametrize("family", ["markov", "lstm"])
def test_model_sniffing_closes_the_file(tmp_path, family):
    path = tmp_path / "model"
    trace = Trace(tuple("ABAB"), [t * 0.1 for t in range(4)])
    if family == "markov":
        learn_transitions([trace], 2, build_dictionary([trace])).save(path)
    else:
        config = lstm.NetworkConfig(vocab=3, dense_width=2, lstm_width=2, unroll_steps=2)
        lstm.save_model(lstm.LstmModel.initialize(config, build_dictionary([trace]), seed=0), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cli._load_any_model(path)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


BAD_INPUTS = {  # case: (argv, a fragment of the error message)
    "one-event training trace": (["train-lstm", "--config", "{d}/run.cfg", "--train", "{d}/short",
                                  "--out", "{d}/lstm.model"], "too short for training windows"),
    "dict lists an id twice": (["mine", "--in", "{d}/train/t0.trace", "--dict", "{d}/twice.txt",
                                "--out", "{d}/mined.txt"], "duplicates"),
    "dict lists OTHER": (["mine", "--in", "{d}/train/t0.trace", "--dict", "{d}/other.txt",
                          "--out", "{d}/mined.txt"], "reserved"),
    "empty trace": (["inject-loss", "--in", "{d}/empty.trace", "--out", "{d}/x.gapped",
                     "--fraction", "10", "--seed", "1"], "empty trace"),
    "render an empty trace": (["render", "--in", "{d}/empty.trace", "--dict", "{d}/abc.txt",
                               "--out", "{d}/r.pgm"], "no events to render"),
    "render past the end": (["render", "--in", "{d}/six.trace", "--dict", "{d}/abc.txt",
                             "--out", "{d}/r.pgm", "--start", "10"], "no events to render"),
    "newer trace header": (["mine", "--in", "{d}/v2.trace", "--dict", "{d}/abc.txt",
                            "--out", "{d}/mined.txt"], "found '# tracekit-trace v2'"),
    "trace file as a gapped trace": (["restore", "--model", "{d}/markov.model",
                                      "--in", "{d}/train/t0.trace", "--out", "{d}/r.trace"],
                                     "found '# tracekit-trace v1'"),
    "newer dict header": (["mine", "--in", "{d}/train/t0.trace", "--dict", "{d}/v2dict.txt",
                           "--out", "{d}/mined.txt"], "lacks the `# tracekit-dict v1` header"),
    "gapped file with every event lost": (["restore", "--model", "{d}/markov.model",
                                           "--in", "{d}/all_lost.gapped", "--out", "{d}/r.trace"],
                                          "at least one surviving event"),
    "gapped file with a lost count past the longest list": (
        ["restore", "--model", "{d}/markov.model", "--in", "{d}/huge_lost.gapped",
         "--out", "{d}/r.trace"], "expected `? <missing_count>`"),
    "non-UTF-8 trace": (["mine", "--in", "{d}/utf16.bin", "--dict", "{d}/abc.txt",
                         "--out", "{d}/mined.txt"], "not UTF-8"),
    "non-UTF-8 gapped file": (["restore", "--model", "{d}/markov.model", "--in", "{d}/utf16.bin",
                               "--out", "{d}/r.trace"], "not UTF-8"),
    "non-UTF-8 dict": (["mine", "--in", "{d}/train/t0.trace", "--dict", "{d}/utf16.bin",
                        "--out", "{d}/mined.txt"], "not UTF-8"),
    "non-UTF-8 Markov model": (["restore", "--model", "{d}/utf16.bin",
                                "--in", "{d}/lossy.gapped", "--out", "{d}/r.trace"], "not UTF-8"),
    "non-UTF-8 mining report": (["compare", "--original", "{d}/utf16.bin",
                                 "--other", "{d}/utf16.bin"], "not UTF-8"),
    "non-UTF-8 other mining report": (["compare", "--original", "{d}/one_mined.txt",
                                       "--other", "{d}/utf16.bin"], "utf16.bin: not UTF-8"),
    "mining report repeats an instance": (["compare", "--original", "{d}/twice_mined.txt",
                                           "--other", "{d}/twice_mined.txt"],
                                          "duplicate (template, P, S)"),
    "missing gapped file": (["restore", "--model", "{d}/markov.model", "--in", "{d}/missing.gapped",
                             "--out", "{d}/r.trace"], "io error: [Errno 2] No such file"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_inputs_fail_cleanly(markov_run, capsys, case):
    tmp_path, train, _ = markov_run
    (tmp_path / "short").mkdir()
    write_trace(train[0], tmp_path / "short" / "t0.trace")
    write_trace(Trace(train[1].id_column[:1], train[1].time_column[:1]),
                tmp_path / "short" / "t1.trace")
    (tmp_path / "twice.txt").write_text(f"{DICT_HEADER}\nA\nB\nA\n")
    (tmp_path / "other.txt").write_text(f"{DICT_HEADER}\nA\nOTHER\n")
    (tmp_path / "abc.txt").write_text(f"{DICT_HEADER}\nA\nB\nC\n")
    (tmp_path / "empty.trace").write_text(f"{TRACE_HEADER}\n")
    write_trace(Trace(train[0].id_column[:6], train[0].time_column[:6]), tmp_path / "six.trace")
    (tmp_path / "all_lost.gapped").write_text(f"{GAPPED_HEADER}\n? 2\n")
    (tmp_path / "huge_lost.gapped").write_text(f"{GAPPED_HEADER}\n0.5 A\n? {10 ** 20}\n")
    (tmp_path / "v2.trace").write_text("# tracekit-trace v2\n0.0 A\n1.0 B\n")
    (tmp_path / "v2dict.txt").write_text("# tracekit-dict v2\nA\nB\nC\n")
    (tmp_path / "utf16.bin").write_bytes("0.0 A\n".encode("utf-16"))  # opens 0xff 0xfe
    (tmp_path / "twice_mined.txt").write_text(
        "tracekit-mine v2\nresponse A B 1\nresponse A B 2\n")
    (tmp_path / "one_mined.txt").write_text("tracekit-mine v2\nresponse A B 1\n")
    argv, message = BAD_INPUTS[case]
    capsys.readouterr()
    assert message in assert_clean_failure(capsys, cli.main([a.format(d=tmp_path) for a in argv]))


def test_mine_reads_the_surviving_events_of_a_gapped_file(markov_run):
    """``mine`` of a ``.gapped`` file mines its known events, as ``report`` does."""
    tmp_path, _, gapped = markov_run
    (tmp_path / "abc.txt").write_text(f"{DICT_HEADER}\nA\nB\nC\n")
    write_trace(gapped.known_trace(), tmp_path / "known.trace")
    for name in ("lossy.gapped", "known.trace"):
        assert cli.main(["mine", "--in", str(tmp_path / name), "--dict", str(tmp_path / "abc.txt"),
                         "--out", str(tmp_path / f"{name}.mined")]) == 0
    mined = (tmp_path / "lossy.gapped.mined").read_text()
    assert len(mined.splitlines()) > 1
    assert mined == (tmp_path / "known.trace.mined").read_text()


def test_loss_of_every_event_keeps_one(tmp_path):
    """75 % of 2 events rounds to 2; inject-loss removes only 1."""
    write_trace(Trace(("A", "B"), (0.0, 0.1)), tmp_path / "two.trace")
    assert cli.main(["inject-loss", "--in", str(tmp_path / "two.trace"),
                     "--out", str(tmp_path / "x.gapped"), "--fraction", "75", "--seed", "1"]) == 0
    assert read_gapped(tmp_path / "x.gapped").missing_total() == 1


@pytest.mark.parametrize("family", ["markov", "lstm"])
def test_leading_gap_is_filled_from_the_dictionary(tmp_path, family):
    # 7F, the pool's most frequent id, is not in the dictionary, so the
    # prior that fills a leading gap must pool it as OTHER.
    pool = [Trace(ids.split(), [t * 0.1 for t in range(len(ids.split()))])
            for ids in ["7F 7F A 7F 7F B 7F", "7F B 7F 7F A 7F 7F"]]
    config = RunConfig.parse("".join(f"{k} = {v}\n" for k, v in REPORT_CONFIG.items()))
    model = tmp_path / "model"
    getattr(pipeline, f"train_{family}")(config, pool, Dictionary(("A", "B")), model)
    (tmp_path / "lossy.gapped").write_text(f"{GAPPED_HEADER}\n? 2\n1.0 A\n2.0 B\n")
    assert cli.main(["restore", "--model", str(model), "--in", str(tmp_path / "lossy.gapped"),
                     "--out", str(tmp_path / "restored.trace")]) == 0
    restored = read_trace(tmp_path / "restored.trace").id_column
    assert restored[0] == "OTHER"
    assert set(restored) <= {"A", "B", "OTHER"}


# ---------------------------------------------------------------------------
# predict


def tiny_lstm(train):
    config = lstm.NetworkConfig(vocab=build_dictionary(train).size, dense_width=3,
                                lstm_width=4, unroll_steps=4)
    model = lstm.LstmModel.initialize(config, build_dictionary(train), seed=0)
    lstm.train(model, train, lstm.TrainingSchedule(rounds=1, epochs_flat=1, epochs_decay=0))
    return model


def predict_with(model_path, seed_path, out, horizon=25):
    return cli.main(["predict", "--model", str(model_path), "--seed-trace", str(seed_path),
                     "--horizon", str(horizon), "--out", str(out)])


def test_markov_predict_matches_in_process_rollout(markov_run):
    tmp_path, train, gapped = markov_run
    seed = gapped.known_trace()
    write_trace(seed, tmp_path / "seed.trace")
    assert predict_with(tmp_path / "markov.model", tmp_path / "seed.trace",
                        tmp_path / "pred.trace") == 0
    model = learn_transitions(train, ORDER, build_dictionary(train))
    expected = predict_step_by_step(model, seed.id_column, 25)
    predicted = read_trace(tmp_path / "pred.trace")
    assert list(predicted.id_column) == expected
    assert predicted.time_column[0] > seed.time_column[-1]


@pytest.mark.parametrize("family", ["markov", "lstm"])
def test_predict_from_an_empty_seed_trace(markov_run, family):
    tmp_path, train, _ = markov_run
    if family == "markov":
        model = learn_transitions(train, ORDER, build_dictionary(train))
    else:
        model = tiny_lstm(train)
        lstm.save_model(model, tmp_path / "lstm.model")
    (tmp_path / "empty.trace").write_text(f"{TRACE_HEADER}\n")
    assert predict_with(tmp_path / f"{family}.model", tmp_path / "empty.trace",
                        tmp_path / "pred.trace", horizon=6) == 0
    predicted = read_trace(tmp_path / "pred.trace")
    assert list(predicted.id_column) == predict_step_by_step(model, [], 6)
    assert predicted.time_column.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


# ---------------------------------------------------------------------------
# usage and configuration errors


BAD_USAGE = {  # case: (argv, a fragment of the error message)
    "split.train = 1": (["split", "--in", "{d}/train", "--out", "{d}/pools"],
                        "train_count must be >= 2"),
    "lstm.unroll = 0": (["train-lstm", "--train", "{d}/train", "--out", "{d}/lstm.model"],
                        "unroll_steps must be >= 1"),
    "markov.order = 0": (["train-markov", "--train", "{d}/train", "--out", "{d}/m.model"],
                         "markov.order must be >= 1"),
    "loss.burst_length = 0": (["report", "--out", "{d}/report"], "burst_length must be >= 1"),
    "loss.mode = bursty": (["report", "--out", "{d}/report"], "unknown key 'loss.mode'"),
    "train-markov: loss.mode = bursty": (["train-markov", "--train", "{d}/train",
                                          "--out", "{d}/m.model"], "unknown key 'loss.mode'"),
    "synth.traces = 2": (["report", "--out", "{d}/report"],
                         "synth.traces = 2 cannot fill a split of 3"),
    "report: lstm.unroll = 0": (["report", "--out", "{d}/report"], "unroll_steps must be >= 1"),
    "train.rounds = 0": (["report", "--out", "{d}/report"], "rounds must be >= 1"),
    "synth.periodic = A 0 0.1": (["report", "--out", "{d}/report"], "period of A must be > 0"),
    # with REPORT_CONFIG's train.epochs_decay = 0, a round has no epoch
    "train.epochs_flat = 0": (["train-lstm", "--train", "{d}/train", "--out", "{d}/lstm.model"],
                              "a round needs at least one epoch"),
    "mine.top_k = -1": (["report", "--out", "{d}/report"], "unknown key 'mine.top_k'"),
    "mine --top-k -1": (["mine", "--in", "{d}/train/t0.trace", "--dict", "{d}/dict.txt",
                         "--out", "{d}/mined.txt", "--top-k", "-1"],
                        "unrecognized arguments: --top-k -1"),
    "inject-loss --burst-length 0": (["inject-loss", "--in", "{d}/train/t0.trace",
                                      "--out", "{d}/x.gapped", "--fraction", "10", "--seed", "1",
                                      "--burst-length", "0"],
                                     "argument --burst-length: must be >= 1"),
    "inject-loss --mode burst": (["inject-loss", "--in", "{d}/train/t0.trace",
                                  "--out", "{d}/x.gapped", "--fraction", "10", "--seed", "1",
                                  "--mode", "burst"], "unrecognized arguments: --mode burst"),
    "train-markov --dict": (["train-markov", "--config", "{d}/run.cfg", "--train", "{d}/train",
                             "--dict", "{d}/dict.txt", "--out", "{d}/m.model"],
                            "unrecognized arguments: --dict"),
    "ingest": (["ingest", "--out", "{d}/normalized", "{d}/train/t0.trace"],
               "invalid choice: 'ingest'"),
    "inject-loss --fraction 150": (["inject-loss", "--in", "{d}/train/t0.trace",
                                    "--out", "{d}/x.gapped", "--fraction", "150", "--seed", "1"],
                                   "argument --fraction: must be in [0, 100), got 150"),
    "inject-loss --fraction -5": (["inject-loss", "--in", "{d}/train/t0.trace",
                                   "--out", "{d}/x.gapped", "--fraction", "-5", "--seed", "1"],
                                  "argument --fraction: must be in [0, 100), got -5"),
    "inject-loss --fraction nan": (["inject-loss", "--in", "{d}/train/t0.trace",
                                    "--out", "{d}/x.gapped", "--fraction", "nan", "--seed", "1"],
                                   "argument --fraction: must be in [0, 100), got nan"),
    "predict --horizon -1": (["predict", "--model", "{d}/markov.model", "--seed-trace",
                              "{d}/train/t0.trace", "--horizon", "-1", "--out", "{d}/p.trace"],
                             "argument --horizon: must be >= 0"),
    "lstm.horizon = 3": (["train-lstm", "--train", "{d}/train", "--out", "{d}/lstm.model"],
                         "unknown key 'lstm.horizon'"),
    "evaluate --lookahead -1": (["evaluate", "--pred", "{d}/train/t0.trace", "--truth",
                                 "{d}/train/t1.trace", "--lookahead", "-1"],
                                "unrecognized arguments: --lookahead -1"),
    "evaluate --order-depth -2": (["evaluate", "--pred", "{d}/train/t0.trace", "--truth",
                                   "{d}/train/t1.trace", "--order-depth", "-2"],
                                  "unrecognized arguments: --order-depth -2"),
    "render --start -2": (["render", "--in", "{d}/train/t0.trace", "--dict", "{d}/dict.txt",
                           "--out", "{d}/r.pgm", "--start", "-2"],
                          "argument --start: must be >= 0"),
    "render --length -2": (["render", "--in", "{d}/train/t0.trace", "--dict", "{d}/dict.txt",
                            "--out", "{d}/r.pgm", "--length", "-2"],
                           "argument --length: must be >= 0"),
    "no synth.periodic": (["synth", "--out", "{d}/traces"],
                          "at least one periodic message is required"),
    "loss.fractions = 150": (["report", "--out", "{d}/report"], "loss fraction must be in [0, 1)"),
    "loss.fractions = 10.4 10.2 12.5": (["report", "--out", "{d}/report"],
                                        "loss.fractions must be whole percents"),
    "eval.start = -5": (["report", "--out", "{d}/report"], "eval.start must be >= 1, got -5"),
    "eval.start = 0": (["report", "--out", "{d}/report"], "eval.start must be >= 1, got 0"),
}

REPORT_CONFIG = {
    "seed": "1",
    "synth.traces": "3",
    "synth.duration": "0.3",
    "synth.periodic": "A 0.01 0.0",
    "split.train": "2",
    "split.test": "1",
    "lstm.dense_width": "2",
    "lstm.lstm_width": "2",
    "lstm.unroll": "3",
    "train.rounds": "1",
    "train.epochs_flat": "1",
    "train.epochs_decay": "0",
    "loss.fractions": "10",
}


@pytest.mark.parametrize("case", sorted(BAD_USAGE))
def test_bad_values_and_flags_exit_2_without_traceback(markov_run, capsys, case):
    tmp_path, _, _ = markov_run
    argv, message = BAD_USAGE[case]
    argv = [a.format(d=tmp_path) for a in argv]
    is_config = "=" in case or case.startswith("no ")  # a config key set, or left out
    if is_config:  # "<subcommand>: " may lead, where two cases set the same key
        key, _, value = case.split(": ")[-1].removeprefix("no ").partition(" = ")
        entries = {k: v for k, v in dict(REPORT_CONFIG, **{key: value}).items() if v}
        (tmp_path / "bad.cfg").write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        argv += ["--config", str(tmp_path / "bad.cfg")]
    assert cli.main(["dict", "--in", str(tmp_path / "train"),
                     "--out", str(tmp_path / "dict.txt")]) == 0
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a bad flag before any work
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err
    if is_config:  # refused before any stage writes a file
        assert not Path(argv[argv.index("--out") + 1]).exists()


def test_one_parser_serves_every_call_as_fresh_parsers_do(markov_run, capsys):
    tmp_path, _, _ = markov_run
    calls = [
        ["mine", "--in", str(tmp_path / "train" / "t0.trace")],  # no --dict or --out: exit 2
        ["dict", "--in", str(tmp_path / "train"), "--out", str(tmp_path / "{run}.dict")],
        ["mine", "--in", str(tmp_path / "train" / "t0.trace"), "--dict",
         str(tmp_path / "{run}.dict"), "--out", str(tmp_path / "{run}.mined")],
    ]

    def run(fresh):
        run = "fresh" if fresh else "cached"
        seen = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            capsys.readouterr()
            try:
                code = cli.main([a.format(run=run) for a in argv])
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            seen.append((code, out.replace(run, "*"), err.replace(run, "*")))
        files = [(tmp_path / f"{run}.{ext}").read_bytes() for ext in ("dict", "mined")]
        return seen, files

    cached = run(fresh=False)
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _, _ in cached[0]] == [2, 0, 0]
    assert run(fresh=True) == cached


def test_report_mines_a_lossy_trace_that_keeps_one_event(tmp_path):
    """75 % loss on a 5-event trace keeps one event, which has no time span."""
    settings = dict(REPORT_CONFIG, **{"synth.duration": "0.021", "synth.triggered": "B A 1 0.001",
                                      "loss.fractions": "75"})
    (tmp_path / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    out = tmp_path / "report"
    assert cli.main(["report", "--config", str(tmp_path / "run.cfg"), "--out", str(out)]) == 0
    (test_trace,) = (out / "split" / "test").glob("*.trace")
    assert list(read_trace(test_trace).id_column) == list("ABABA")
    lossy = (out / "mine" / f"lossy_75_{test_trace.stem}.txt").read_text()
    assert lossy.splitlines()[1:] == []  # no instance below the header
    study = json.loads((out / "report.json").read_text())["loss_study"]["75"]
    assert study["original_instances"] == 1  # response (B, A)
    assert study["lossy_decrease_pct"] == 100.0


def test_report_skips_a_rollout_probe_too_short_to_align(tmp_path):
    """3-event traces: the probe's 2-event continuation cannot be aligned."""
    settings = dict(REPORT_CONFIG, **{"synth.duration": "0.15", "synth.periodic": "A 0.1 0.0"})
    (tmp_path / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in settings.items())
                                      + "synth.periodic = B 0.2 0.0\n")
    out = tmp_path / "report"
    assert cli.main(["report", "--config", str(tmp_path / "run.cfg"), "--out", str(out)]) == 0
    (test_trace,) = (out / "split" / "test").glob("*.trace")
    assert len(read_trace(test_trace)) == 3
    summary = json.loads((out / "report.json").read_text())
    assert summary["rollout"] == {} and summary["next_event_accuracy"] == {}
    assert list((out / "rasters").iterdir()) == []
    assert set(summary["loss_study"]) == {"10"}


def test_report_keeps_one_event_of_each_two_event_test_trace(tmp_path):
    """75 % loss of a 2-event trace would remove both events; one is kept."""
    settings = dict(REPORT_CONFIG, **{"synth.duration": "0.15", "synth.periodic": "A 0.1 0.0",
                                      "loss.fractions": "75"})
    (tmp_path / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    out = tmp_path / "report"
    assert cli.main(["report", "--config", str(tmp_path / "run.cfg"), "--out", str(out)]) == 0
    (test_trace,) = (out / "split" / "test").glob("*.trace")
    assert len(read_trace(test_trace)) == 2
    assert read_gapped(out / "loss_75" / f"{test_trace.stem}.gapped").missing_total() == 1
    assert set(json.loads((out / "report.json").read_text())["loss_study"]) == {"75"}
