"""``tracekit report`` is byte-stable, and the subcommands reproduce its artifacts."""

import hashlib

import pytest

from tracekit import cli
from tracekit.config import RunConfig

TINY = """\
seed = 5
synth.traces = 4
synth.duration = 0.4
synth.periodic = A1 0.010 0.05
synth.periodic = B2 0.020 0.05
synth.periodic = C3 0.050 0.10
synth.triggered = D4 B2 0.5 0.002
synth.rare = E5 20
split.train = 2
split.test = 2
markov.order = 6
lstm.dense_width = 6
lstm.lstm_width = 8
lstm.unroll = 8
train.rounds = 1
train.epochs_flat = 1
train.epochs_decay = 1
loss.fractions = 10 25
mine.top_k = 3
eval.start = 8
loss.restorer = {restorer}
"""


def run(*argv) -> None:
    assert cli.main([str(a) for a in argv]) == 0


def digests(root):
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module", params=["markov", "lstm"])
def report(request, tmp_path_factory):
    """One ``report`` run per restorer: (work dir, config path, config, output dir)."""
    d = tmp_path_factory.mktemp(f"report_{request.param}")
    cfg = d / "run.cfg"
    cfg.write_text(TINY.format(restorer=request.param))
    run("report", "--config", cfg, "--out", d / "first")
    return d, cfg, RunConfig.load(cfg), d / "first"


def test_rerun_is_byte_identical(report):
    d, cfg, _, first = report
    run("report", "--config", cfg, "--out", d / "second")
    expected = digests(first)
    assert "markov.model" in expected and "lstm.model" in expected
    assert len([name for name in expected if name.startswith("mine/")]) == 2 + 2 * 2 * 2
    assert digests(d / "second") == expected


def test_subcommands_reproduce_the_report(report):
    d, cfg, config, first = report
    test_traces = sorted((first / "split" / "test").glob("*.trace"))
    assert len(test_traces) == 2

    run("train-markov", "--config", cfg, "--train", first / "split" / "train",
        "--dict", first / "dict.txt", "--out", d / "markov.model")
    assert (d / "markov.model").read_bytes() == (first / "markov.model").read_bytes()

    restorer = first / f"{config.restorer()}.model"
    for trace in test_traces:
        label = trace.stem
        gapped = d / f"{label}.gapped"
        restored = d / f"{label}.restored.trace"
        mined = d / f"original_{label}.txt"
        run("inject-loss", "--in", trace, "--out", gapped, "--fraction", 10,
            "--seed", config.loss_spec(0.1, label).seed)
        run("restore", "--model", restorer, "--in", gapped, "--out", restored)
        run("mine", "--in", trace, "--dict", first / "dict.txt", "--top-k",
            config.mine_top_k(), "--out", mined)
        assert gapped.read_bytes() == (first / "loss_10" / f"{label}.gapped").read_bytes()
        assert restored.read_bytes() == (
            first / "loss_10" / f"{label}.restored.trace").read_bytes()
        assert mined.read_bytes() == (first / "mine" / f"original_{label}.txt").read_bytes()


def test_split_subcommand_writes_the_same_pools(report):
    d, cfg, _, first = report
    run("split", "--config", cfg, "--in", first / "traces", "--out", d / "split")
    # The subcommand labels traces by file stem, so compare contents only.
    for pool in ("train", "test"):
        assert sorted(digests(d / "split" / pool).values()) == sorted(
            digests(first / "split" / pool).values())
