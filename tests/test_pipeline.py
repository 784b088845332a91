"""``tracekit report`` is byte-stable, and the subcommands reproduce its artifacts."""

import hashlib
import json

import pytest

from tracekit import cli
from tracekit.config import RunConfig
from tracekit.ingest import read_trace
from tracekit.pipeline import DICT_HEADER, read_dictionary

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


def test_dictionary_file_ids_load_uppercase(tmp_path):
    path = tmp_path / "dict.txt"
    path.write_text(f"{DICT_HEADER}\nab\nc3\n")
    assert read_dictionary(path).ids == ("AB", "C3")


def test_rerun_is_byte_identical(report):
    d, cfg, _, first = report
    run("report", "--config", cfg, "--out", d / "second")
    expected = digests(first)
    assert "markov.model" in expected and "lstm.model" in expected
    assert len([name for name in expected if name.startswith("mine/")]) == 2 + 2 * 2 * 2
    assert digests(d / "second") == expected


def test_report_is_strict_json(report):
    """A rollout with no ordering mistake still leaves no NaN or Infinity in the report."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    summary = json.loads((report[3] / "report.json").read_text(), parse_constant=refuse)
    assert any(r["ordering_mistakes"] == 0 for r in summary["rollout"].values())


def test_subcommands_reproduce_the_report(report):
    """From the config alone, the chained subcommands write what ``report`` wrote."""
    d, cfg, config, first = report
    chain = d / "chain"
    run("synth", "--config", cfg, "--out", chain / "traces")
    run("split", "--config", cfg, "--in", chain / "traces", "--out", chain / "split")
    run("dict", "--in", chain / "split" / "train", "--out", chain / "dict.txt")
    for family in ("markov", "lstm"):
        run(f"train-{family}", "--config", cfg, "--train", chain / "split" / "train",
            "--out", chain / f"{family}.model")
    for tree in ("traces", "split"):
        assert digests(chain / tree) == digests(first / tree)
    for artifact in ("dict.txt", "markov.model", "lstm.model"):
        assert (chain / artifact).read_bytes() == (first / artifact).read_bytes()

    # the raster of the first test trace's true continuation, after its rollout seed
    probe = sorted((chain / "split" / "test").glob("*.trace"))[0]
    seed_len = min(config.network_config(1).unroll_steps, max(1, len(read_trace(probe)) // 4))
    run("render", "--in", probe, "--dict", chain / "dict.txt", "--start", seed_len,
        "--length", 120, "--out", chain / "true_events.pgm")
    raster = (first / "rasters" / "true_events.pgm").read_bytes()
    assert (chain / "true_events.pgm").read_bytes() == raster

    def mine(trace, tag):
        run("mine", "--in", trace, "--dict", chain / "dict.txt",
            "--out", chain / "mine" / f"{tag}.txt")

    (chain / "mine").mkdir()
    labels = sorted(p.stem for p in (chain / "split" / "test").glob("*.trace"))
    assert len(labels) == 2
    levels = [f"loss_{round(fraction * 100):02d}" for fraction in config.loss_fractions]
    for label in labels:
        mine(chain / "split" / "test" / f"{label}.trace", f"original_{label}")
        for fraction in config.loss_fractions:
            pct = round(fraction * 100)
            spec = config.loss_spec(fraction, label)
            level = chain / f"loss_{pct:02d}"
            level.mkdir(exist_ok=True)
            gapped, restored = level / f"{label}.gapped", level / f"{label}.restored.trace"
            run("inject-loss", "--in", chain / "split" / "test" / f"{label}.trace",
                "--out", gapped, "--fraction", pct, "--burst-length", spec.burst_length,
                "--seed", spec.seed)
            run("restore", "--model", chain / f"{config.restorer}.model", "--in", gapped,
                "--out", restored)
            mine(gapped, f"lossy_{pct:02d}_{label}")
            mine(restored, f"restored_{pct:02d}_{label}")
    for tree in ("mine", *levels):
        assert digests(chain / tree) == digests(first / tree)
