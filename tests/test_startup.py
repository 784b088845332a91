"""What a fresh ``tracekit`` process loads: numpy only on the LSTM's paths.

numpy is imported lazily by ``tracekit.core`` (see its docstring). pytest
and its plugins import numpy in-process, so each check that needs a numpy
that is not yet loaded runs in its own interpreter, with ``PYTHONPATH``
naming only this package's sources.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from tracekit import cli

SRC = Path(__file__).resolve().parents[1] / "src"

# The modules benchmark/tracer.py wraps functions in; it looks each one up in
# sys.modules, so importing the CLI must load every one of them.
TRACED_MODULES = [
    "tracekit.cli",
    "tracekit.pipeline",
    "tracekit.lstm",
    "tracekit.markov",
    "tracekit.restore",
    "tracekit.evaluate",
    "tracekit.trem",
    "tracekit.synth",
    "tracekit.ingest",
]

CONFIG = """\
seed = 1
synth.traces = 3
synth.duration = 0.3
synth.periodic = A 0.01 0.0
synth.periodic = B 0.02 0.005
synth.triggered = C A 0.5 0.002
split.train = 2
split.test = 1
markov.order = 4
lstm.dense_width = 2
lstm.lstm_width = 3
lstm.unroll = 3
train.rounds = 1
train.epochs_flat = 1
train.epochs_decay = 0
"""


def run_fresh(body: str, cwd: Path) -> dict:
    """Run ``body`` in a new interpreter; it prints one JSON line last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", body], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = """
import json, sys
from tracekit import cli
codes = [cli.main(argv.split()) for argv in {argvs!r}]
print(json.dumps({{
    "codes": codes,
    "numpy": sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")),
    "tracekit": sorted(m for m in sys.modules if m.startswith("tracekit")),
}}))
"""


def test_import_loads_every_traced_module_and_no_numpy(tmp_path):
    loaded = run_fresh(LOADED.format(argvs=[]), tmp_path)
    assert set(TRACED_MODULES) <= set(loaded["tracekit"])
    assert loaded["numpy"] == ["numpy"]  # the lazy module, not yet executed


MARKOV_AND_TRACE = [
    "synth --config run.cfg --out traces",
    "split --config run.cfg --in traces --out pools",
    "dict --in pools/train --out dict.txt",
    "train-markov --config run.cfg --train pools/train --out markov.model",
    "inject-loss --in traces/trace_002.trace --out lossy.gapped --fraction 25 --seed 3",
    "restore --model markov.model --in lossy.gapped --out restored.trace",
    "predict --model markov.model --seed-trace traces/trace_000.trace --horizon 5 --out pred.trace",
    "mine --in traces/trace_002.trace --dict dict.txt --out original.mined",
    "mine --in restored.trace --dict dict.txt --out restored.mined",
    "compare --original original.mined --other restored.mined",
    "evaluate --pred restored.trace --truth traces/trace_002.trace --out eval.txt",
]


def test_markov_and_trace_subcommands_never_load_numpy(tmp_path):
    (tmp_path / "run.cfg").write_text(CONFIG)
    loaded = run_fresh(LOADED.format(argvs=MARKOV_AND_TRACE), tmp_path)
    assert loaded["codes"] == [0] * len(MARKOV_AND_TRACE)
    assert loaded["numpy"] == ["numpy"]


LSTM = [
    "train-lstm --config run.cfg --train pools/train --out {out}/lstm.model",
    "restore --model {out}/lstm.model --in lossy.gapped --out {out}/restored.trace",
]


def test_lstm_subcommands_load_numpy_and_write_the_in_process_bytes(tmp_path, monkeypatch):
    (tmp_path / "run.cfg").write_text(CONFIG)
    monkeypatch.chdir(tmp_path)
    for argv in MARKOV_AND_TRACE[:5]:
        assert cli.main(argv.split()) == 0
    for out in ("fresh", "in_process"):
        (tmp_path / out).mkdir()
    loaded = run_fresh(LOADED.format(argvs=[a.format(out="fresh") for a in LSTM]), tmp_path)
    assert loaded["codes"] == [0, 0]
    assert "numpy.linalg" in loaded["numpy"]
    for argv in LSTM:
        assert cli.main(argv.format(out="in_process").split()) == 0
    for name in ("lstm.model", "restored.trace"):
        fresh = (tmp_path / "fresh" / name).read_bytes()
        assert fresh == (tmp_path / "in_process" / name).read_bytes()


def test_numpy_already_loaded_is_used_as_is():
    import tracekit.core
    import tracekit.lstm

    assert tracekit.core.np is sys.modules["numpy"]
    assert tracekit.lstm.np is tracekit.core.np
