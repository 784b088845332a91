"""Restoration benchmark: time tracekit's public entry points in-process.

Usage (from the repository root)::

    python3 benchmark/run.py --workload experiment --seed 1 --seconds 36 --trace 0

Workloads (see README.md for their inputs and the reasons behind them):

* ``experiment``    -- ``tracekit report``: the paper's whole study.
* ``lstm_stream``   -- ``tracekit restore`` and ``predict`` with a trained LSTM.
* ``markov_stream`` -- ``tracekit train-markov``, then per long lossy trace
  ``restore``, three ``mine`` calls and ``evaluate``.

Set-up (imports, input generation, and for ``lstm_stream`` training) runs
before the clock starts. The timed phase then repeats whole rounds of the
workload's program calls, one call after the other in this one process,
until the next round would end after ``--seconds``. Round 0 is checked by
``checks.py``; every later round must write byte-identical files.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` rounds alternate untraced and traced, and the last line
reports per-layer metrics from the traced rounds and set-up.
"""

from __future__ import annotations

import os

# One BLAS thread: the load comes from one closed-loop caller. This must
# happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from checks import tree_digest  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"

IMPORT_REPS = 5
SETUP_REPS = 3


class Program:
    """Calls ``tracekit.cli.main`` in-process, as one closed-loop caller."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        from tracekit import cli

        self.cli = cli

    def __call__(self, argv: list[str]) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash counts as a failed call; keep measuring
                traceback.print_exc()
                code = 1
        if code:
            print(f"call failed ({code}): tracekit {' '.join(argv)}\n{err.getvalue()}",
                  file=sys.stderr)
        return code


def import_seconds() -> float:
    """Median time to import the program, each in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import tracekit.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def end_to_end(setup_s: float, run_s: float, peak_rss_mb: float, model_mb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "model_mb": (model_mb, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tracekit" / "cli.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_import_s = import_seconds()
    program = Program()
    workload = WORKLOADS[args.workload](args.seed, program)
    tracer = Tracer() if args.trace else None

    # -- set-up, repeated; the last copy is used --------------------------
    problems: list[str] = []
    generation = []
    if tracer:
        tracer.install()
    for rep in range(SETUP_REPS):
        start = perf_counter()
        workload.setup(work / f"setup_{rep}")
        generation.append(perf_counter() - start)
    setup_snapshot = None
    if tracer:
        tracer.uninstall()
        setup_snapshot = tracer.snapshot()
        tracer.reset()
    if workload.setup_failed:
        print("error: a set-up call failed", file=sys.stderr)
        return 1
    setup_digests = {tree_digest(work / f"setup_{rep}") for rep in range(SETUP_REPS)}
    if len(setup_digests) != 1:
        problems.append("set-up repetitions wrote different files")
    setup_s = setup_import_s + statistics.median(generation)

    # -- timed rounds -----------------------------------------------------
    round_times: dict[bool, list[float]] = {False: [], True: []}
    min_rounds = 4 if tracer else 3
    reference: list[str] = []
    round_failures: list[list[bool]] = []
    phase_start = perf_counter()
    index = 0
    while True:
        traced = bool(tracer) and index % 2 == 1
        out = work / f"round_{index}"
        out.mkdir()
        calls = workload.calls(out)
        if traced:
            tracer.install()
        start = perf_counter()
        codes = [program(argv) for argv, _ in calls]
        elapsed = perf_counter() - start
        if traced:
            tracer.uninstall()
        round_times[traced].append(elapsed)

        digests = [workload.digest(outputs) for _, outputs in calls]
        if index == 0:
            reference = digests
        else:
            shutil.rmtree(out)
        round_failures.append([bool(code) for code in codes])
        for j, digest in enumerate(digests):
            if digest != reference[j]:
                round_failures[-1][j] = True
                problems.append(f"round {index} call {j}: output differs from round 0")
        index += 1
        spent = perf_counter() - phase_start
        if index >= min_rounds and spent + elapsed > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Round 0 is checked after the clock and the memory reading; later rounds
    # wrote the same bytes, so its verdict holds for each of them.
    call_problems = workload.check_round(work / "round_0", len(reference))
    attempted = sum(len(flags) for flags in round_failures)
    failed = sum(flag or bool(call_problems.get(j))
                 for flags in round_failures for j, flag in enumerate(flags))
    untraced = statistics.median(round_times[False])
    print(f"{args.workload} seed {args.seed}: {index} rounds, untraced "
          f"{[round(t, 3) for t in round_times[False]]}, traced "
          f"{[round(t, 3) for t in round_times[True]]}", file=sys.stderr)

    if tracer:
        rounds_snapshot = tracer.snapshot()
        traced_total = sum(round_times[True])
        self_sum = sum(rounds_snapshot["self"].values())
        print(f"traced self times sum to {self_sum:.4f} s of {traced_total:.4f} s",
              file=sys.stderr)
        if abs(self_sum - traced_total) > 0.01 * traced_total:
            problems.append("traced self times do not sum to the traced run time")
        overhead = statistics.median(round_times[True]) - untraced
        values = layer_metrics(
            [(setup_snapshot, SETUP_REPS), (rounds_snapshot, len(round_times[True]))],
            workload.fill_accuracy,
            overhead,
        )
    else:
        values = end_to_end(setup_s, untraced, peak_rss_mb,
                            workload.model_bytes(work / "round_0") / 1e6)
    for j, found in sorted(call_problems.items()):
        for problem in found[:5]:
            problems.append(f"call {j}: {problem}")
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
