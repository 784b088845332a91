import hashlib
import struct
import warnings

import pytest

from tracekit import cli, lstm
from tracekit.core import Event, EventId, Trace, build_dictionary
from tracekit.ingest import read_trace, write_trace
from tracekit.markov import learn_transitions
from tracekit.pipeline import GAPPED_HEADER, TRACE_HEADER
from tracekit.restore import LossSpec, inject_loss, restore_trace, write_gapped
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
        write_trace(trace, tmp_path / "train" / f"t{i}.trace", header=TRACE_HEADER)
    gapped = inject_loss(generate_trace(spec(3, 1.0)), LossSpec(fraction=0.25, seed=3))
    write_gapped(gapped, tmp_path / "lossy.gapped", header=GAPPED_HEADER)
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
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_markov_restore_matches_in_process(markov_run, capsys):
    tmp_path, train, gapped = markov_run
    assert restore_with(tmp_path / "markov.model", tmp_path) == 0
    expected = restore_trace(learn_transitions(train, ORDER), gapped)
    restored = read_trace(tmp_path / "restored.trace")
    assert restored.events == expected.events
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
        text = text.replace(" v2\n", " v1\n", 1)
    assert text != path.read_text()
    path.write_text(text)
    capsys.readouterr()
    assert_clean_failure(capsys, restore_with(path, tmp_path))


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
    trace = Trace(tuple(Event(EventId(i), t * 0.1) for t, i in enumerate("ABAB")))
    if family == "markov":
        learn_transitions([trace], order_n=2).save(path)
    else:
        config = lstm.NetworkConfig(vocab=3, dense_width=2, lstm_width=2, unroll_steps=2)
        lstm.save_model(lstm.LstmModel.initialize(config, build_dictionary([trace]), seed=0), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cli._load_any_model(path)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
