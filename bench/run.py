"""Benchmark of the ufnd command line, end to end and per layer.

    python3 bench/run.py --workload train-padded --seed 1 --seconds 40 --trace 0

Run from the repository root.  It writes seeded CSV corpora, then runs
the workload's command sequence (`ufnd.cli.main`: prep, train or unify,
eval) in this process, in whole rounds, until the next round would end
after `--seconds` (judged by the median round), with at least three
rounds.  Timings are medians over the rounds.  Each round's outputs are
checked against oracles.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  `--trace 1` alternates
untraced and traced rounds and reports per-layer metrics instead, plus
the tracing overhead; spans go to bench/out/traces/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_ROUNDS = 3
SETUP_PER_ROUND = 2
# One BLAS thread: at d_model 64 a second thread gave no speed-up on a
# 2-CPU machine but doubled CPU time, and made timings depend on what
# else runs.  Set before numpy is first imported.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SPEC = HERE.parent / "BENCHMARK.json"

# Import and one-time set-up of the program in a fresh interpreter.
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import ufnd.cli
ufnd.cli.build_parser()
print(time.perf_counter() - t0)
"""


def measure_setup() -> float:
    done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpus": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": np.__version__, "python": sys.version.split()[0]}


def run(workload, seed: int, seconds: float, trace: bool, main, out=OUT):
    """Run whole rounds for `seconds`; returns (result, summary, tracer).

    Untraced runs also time the program's set-up in fresh interpreters
    between rounds, so its samples spread over the run like the rounds'.
    """
    from spans import Tracer
    from workloads import median_of, prepare, round_rates, run_round

    work = out / "work" / f"{workload.name}-{os.getpid()}"
    plan = prepare(workload, seed, work)
    tracer = Tracer() if trace else None
    attempted = failed = 0
    problems, check_errors = [], []
    plain, traced, durations, laps = [], [], [], []
    layer_rounds, self_rounds, setup = [], [], []
    start = time.perf_counter()
    while (len(laps) < MIN_ROUNDS
           or time.perf_counter() - start + statistics.median(laps)
           <= seconds):
        traced_round = trace and len(durations) % 2 == 1
        gc.collect()
        if traced_round:
            first = tracer.mark()
            tracer.install()
        t0 = time.perf_counter()
        try:
            r = run_round(plan, main)
        finally:
            if traced_round:
                tracer.uninstall()
        durations.append(time.perf_counter() - t0)
        if not trace:
            setup += [measure_setup() for _ in range(SETUP_PER_ROUND)]
        laps.append(time.perf_counter() - t0)
        attempted += r.attempted
        failed += r.failed
        problems += r.problems
        if r.check_error:
            check_errors.append(r.check_error)
        if r.failed:
            continue
        if traced_round:
            traced.append(round_rates(plan, r))
            layer_rounds.append(tracer.round_metrics(first))
            self_rounds.append(tracer.self_times(first))
        else:
            plain.append(round_rates(plan, r))
    if not plain and not traced:
        raise RuntimeError("no round completed: " + "; ".join(problems[:3]))
    summary = {"workload": workload.name, "seed": seed,
               "rounds": len(durations), "round_s": durations,
               "problems": (problems + check_errors)[:5]}
    if trace:
        metrics = median_of(layer_rounds)
        metrics["trace.overhead_s"] = (
            statistics.median(r["pipeline_s"] for r in traced)
            - statistics.median(r["pipeline_s"] for r in plain))
        summary["self_s_per_round"] = median_of(self_rounds)
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{workload.name}-seed{seed}.jsonl")
    else:
        metrics = median_of(plain)
        metrics["setup_s"] = statistics.median(setup)
    shutil.rmtree(work, ignore_errors=True)
    return {"correct": not check_errors, "attempted": attempted,
            "failed": failed, "metrics": metrics}, summary, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "ufnd" / "cli.py").is_file():
        print(f"error: no ufnd sources at {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in
             json.loads(SPEC.read_text(encoding="utf-8"))[
                 "per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    from ufnd import cli
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    result, summary, tracer = run(WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace), cli.main)
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"summary": summary}))
    if tracer is not None:
        from spans import tail_percentile
        steps = tracer.step_times()
        tail = tail_percentile(steps)
        print(json.dumps({"trainer.step_s": {
            "median": statistics.median(steps) if steps else None,
            "tail_percentile": tail, "samples": len(steps)}}))
    else:
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["metrics"] = {name: {"value": result["metrics"][name],
                                "unit": unit} for name, unit in units.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
