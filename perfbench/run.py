"""Benchmark of the exact pipeline, end to end and per layer.

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all        # every workload, each in a fresh interpreter
    python3 perfbench/run.py --selftest            # the output checks' self-test alone

Run from the root of a checkout; the package is imported from its ``src``
directory.  One run takes one workload in this interpreter: it sets up,
runs whole rounds of the workload's operations until another round would
end past ``--seconds`` (at least one round), checks every output outside
the timed region, and prints one JSON object as its last line.  With
``--trace 0`` that object holds the end-to-end metrics; with ``--trace 1``
the run first repeats the untraced rounds, then runs as many rounds again
with every public function of the six layers wrapped, and reports the
per-layer metrics.  Details and reference figures are in README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy is imported: the checks' float
# eigendecomposition otherwise leaves OpenBLAS threads spinning on the other
# core, which slowed the next operation's char poly by about half on a
# 2-core machine.  The program itself uses no float BLAS at this writing.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# set-ups per run: this one plus fresh-interpreter probes, half of them
# before the rounds and half after, so that a slow spell of the machine
# does not set the median alone
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def _setup(workload: str, seed: int):
    start = time.perf_counter()
    program = workloads.load_program(SRC)
    ops = workloads.make_inputs(workload, seed)
    return program, ops, time.perf_counter() - start


def _probe_setup(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter, as every CLI invocation pays it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _run_rounds(program, ops, seed, seconds=None, rounds=None, tracer=None):
    """Run whole rounds; return (round walls, op records, check problems).

    With ``seconds``, another round starts only while the time measured so
    far plus the last round's time stays within it.
    """
    rng = random.Random(f"checks/{seed}")
    walls, records, problems = [], [], []
    while True:
        wall = 0.0
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            start = time.perf_counter()
            try:
                out, error = op.run(program), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            took = time.perf_counter() - start
            wall += took
            found = []
            if error is None:
                with tracer.pause() if tracer is not None else contextlib.nullcontext():
                    found = op.check(program, out, rng)
            records.append({"op": op.label, "seconds": took, "error": error,
                            "problems": [f"{name}: {msg}" for name, msg in found]})
            problems += [(op.label, name, msg) for name, msg in found]
        walls.append(wall)
        if rounds is not None:
            if len(walls) >= rounds:
                break
        elif sum(walls) + wall > seconds:
            break
    return walls, records, problems


def _environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "platform": platform.platform()}


def run_workload(args) -> int:
    if args.setup_probe:
        print(repr(_setup(args.workload, args.seed)[2]))
        return 0
    program, ops, first_setup = _setup(args.workload, args.seed)

    import checks
    from layer_trace import LAYERS, Tracer

    for line in checks.selftest(program):
        print(line, file=sys.stderr)
    setup = [first_setup] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)]
    walls, records, problems = _run_rounds(program, ops, args.seed, seconds=args.seconds)
    setup += [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": _environment(), "rounds": len(walls), "round_walls_s": walls,
              "setup_samples_s": setup}
    if args.trace:
        tracer = Tracer(program)
        with tracer.installed():
            traced_walls, traced_records, traced_problems = _run_rounds(
                program, ops, args.seed, rounds=len(walls), tracer=tracer)
        records += traced_records
        problems += traced_problems
        traced = sum(traced_walls)
        metrics = tracer.layer_metrics(len(traced_walls), traced)
        metrics["trace.overhead_s"] = (traced - sum(walls)) / len(walls)
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        if abs(self_sum + metrics["trace.outside_s"] - metrics["trace.wall_s"]) > 1e-6 * max(1.0, traced):
            raise AssertionError("layer self times plus time outside wrapped calls do not add up to wall")
        result["spans"] = tracer.spans
        units = {name: spec["unit"] for name, spec in _declared("per_layer").items()}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(r["seconds"] for r in records),
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END_UNITS
    attempted = len(records)
    failed = sum(r["error"] is not None for r in records)
    summary = {"correct": not problems, "attempted": attempted, "failed": failed,
               "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    result.update(summary=summary, operations=records)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(walls)}  attempted {attempted}  "
          f"failed {failed}  python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}")
    for op_label, name, msg in problems[:20]:
        print(f"CHECK FAILED {op_label}: {name}: {msg}")
    for name, entry in summary["metrics"].items():
        print(f"  {name:34s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(summary))
    return 0


def _declared(section: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {entry["name"]: entry for entry in json.load(fh)[section]}


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one at a time."""
    rows, correct, attempted, failed, metrics = [], True, 0, 0, {}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}")
            return done.returncode
        summary = json.loads(done.stdout.strip().splitlines()[-1])
        correct &= summary["correct"]
        attempted += summary["attempted"]
        failed += summary["failed"]
        for metric, entry in summary["metrics"].items():
            metrics[f"{name}/{metric}"] = entry
        rows.append((name, summary))
    for name, summary in rows:
        print(f"{name}  attempted {summary['attempted']}  failed {summary['failed']}  "
              f"correct {str(summary['correct']).lower()}")
        for metric, entry in summary["metrics"].items():
            print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="run the output checks' self-test and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "superspectra" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.selftest:
        import checks

        for line in checks.selftest(workloads.load_program(SRC)):
            print(line)
        print("selftest: every corrupted answer was rejected")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
