#!/usr/bin/env python3
"""Perf-ledger runner: builds bench_ledger, runs workloads, checks and records.

One workload (the last stdout line is the result object):

    python3 bench/ledger/run.py --workload trench-lts --seed 7 --seconds 10 --trace 0

Every workload, end to end and per layer, written to a ledger file:

    python3 bench/ledger/run.py --seed 1 [--runs 5] [--sets 2] [--quick]
                                [--out ledger.json] [--fault "fault.kind=stall ..."]

Each workload runs in its own process (`bench_ledger workload=<name>
seed=<s> ...`), so peak RSS and thread pools never leak between workloads.
bench_ledger is built from source on first use, as its own CMake package
(bench/ledger/CMakeLists.txt) under --build (default .bench_build/ledger).
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
# The workloads and metrics bench_ledger must produce, as the benchmark declares them.
BENCH = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir: Path) -> Path:
    """Configures (once) and builds bench_ledger; returns the binary path."""
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "bench_ledger", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return build_dir / "bench_ledger"


def run_one(binary: Path, workload: str, seed: int, args, trace: int) -> dict:
    """Runs one workload process and returns its parsed, checked result."""
    cmd = [str(binary), f"workload={workload}", f"seed={seed}", f"seconds={args.seconds}",
           f"trace={trace}", f"quick={int(args.quick)}", f"out={args.artifacts}"]
    cmd += args.fault.split()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: bench_ledger exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: bench_ledger printed no result")
    result = json.loads(lines[-1])
    check(result, workload, trace)
    return result


def check(result: dict, workload: str, trace: int):
    """The outputs must be exactly the metrics BENCHMARK.json declares,
    finite (end-to-end ones positive), and every repetition must have passed
    the correctness gate (finite state without subnormals, energy drift
    <= 1e-2, bitwise checkpoint restore)."""
    declared = [(m["name"], m["unit"]) for m in BENCH["per_layer" if trace else "end_to_end"]]
    metrics = result["metrics"]
    if [(name, m["unit"]) for name, m in metrics.items()] != declared:
        raise RuntimeError(f"{workload}: metrics differ from BENCHMARK.json: {list(metrics)}")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise RuntimeError(f"{workload}: metric {name} is not a finite number")
        if trace == 0 and m["value"] <= 0:
            raise RuntimeError(f"{workload}: end-to-end metric {name} is not positive")
    if result["attempted"] < 1:
        raise RuntimeError(f"{workload}: no repetition attempted")
    result["correct"] = result["correct"] and result["failed"] == 0


def add_lts_efficiency(runs: list):
    """Adds lts.work_eff and lts.time_eff to every traced trench-lts run whose
    trench-newmark partner (same set and seed) ran too: serial LTS against
    global-step newmark over the same spec and simulated span, divided by
    Eq. 9. Work comes from exact element-apply counts, time from the untraced
    sim_rate of each process."""
    newmark = {(r["set"], r["seed"]): r["info"] for r in runs
               if r["workload"] == "trench-newmark" and r["trace"] == 1}
    for r in runs:
        nm = newmark.get((r["set"], r["seed"]))
        if r["workload"] != "trench-lts" or r["trace"] != 1 or nm is None:
            continue
        lts = r["info"]
        r["metrics"]["lts.work_eff"] = {
            "value": nm["applies_per_sim_s"] / lts["applies_per_sim_s"] / lts["eq9"],
            "unit": "ratio"}
        r["metrics"]["lts.time_eff"] = {
            "value": lts["sim_rate"] / nm["sim_rate"] / lts["eq9"], "unit": "ratio"}
        log(f"   trench-lts vs trench-newmark, seed {r['seed']}: lts.work_eff "
            f"{r['metrics']['lts.work_eff']['value']:.4g}, lts.time_eff "
            f"{r['metrics']['lts.time_eff']['value']:.4g}")


def print_result(result: dict):
    info = result["info"]
    log(f"== {result['workload']} seed={result['seed']} trace={result['trace']}: "
        f"{'correct' if result['correct'] else 'INCORRECT'}, {result['failed']}/"
        f"{result['attempted']} repetitions failed (failed_frac "
        f"{result['failed'] / result['attempted']:.3g}), {info['cycle_samples']} cycle samples, "
        f"max energy drift {info['max_drift']:.3g}")
    for name, m in result["metrics"].items():
        log(f"   {name:32s} {m['value']:>16.6g} {m['unit']}")


def main() -> int:
    # A terminated runner must not leave a bench_ledger behind: SystemExit
    # unwinds through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="workload to run (repeatable; default: all four)")
    ap.add_argument("--seed", type=int, default=1, help="first input seed")
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"],
                    help="timed seconds per run (at least 5 repetitions either way; "
                         "default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", choices=["0", "1", "both"], default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics and trace files "
                         "(default: 0 for --workload or --quick runs, both otherwise)")
    ap.add_argument("--runs", type=int, default=1, help="seeds per workload: seed, seed+1, ...")
    ap.add_argument("--sets", type=int, default=1,
                    help="repeat everything this many times, with the next seeds")
    ap.add_argument("--quick", action="store_true",
                    help="1 repetition of 8 cycles per workload, gate on (CI smoke)")
    ap.add_argument("--fault", default="", help="fault.* key=value overrides for every run")
    ap.add_argument("--build", type=Path, default=REPO / ".bench_build" / "ledger",
                    help="CMake build directory for bench_ledger")
    ap.add_argument("--out", type=Path, default=None,
                    help="ledger JSON to write (default: <build>/ledger.json)")
    ap.add_argument("--append", action="store_true", help="add the runs to an existing --out")
    args = ap.parse_args()

    workloads = args.workload or WORKLOADS
    trace = args.trace or ("0" if args.workload or args.quick else "both")
    traces = [0, 1] if trace == "both" else [int(trace)]
    args.artifacts = (args.build / "out").resolve()
    out = args.out or args.build / "ledger.json"

    try:
        binary = build(args.build)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"run.py: cannot build bench_ledger: {e}")
        return 1

    runs = []
    try:
        for set_index in range(1, args.sets + 1):
            first = args.seed + (set_index - 1) * args.runs
            for seed in range(first, first + args.runs):
                for workload in workloads:
                    for t in traces:
                        result = run_one(binary, workload, seed, args, t)
                        result.update(set=set_index, seconds=args.seconds, quick=args.quick,
                                      fault=args.fault)
                        print_result(result)
                        runs.append(result)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as e:
        log(f"run.py: {e}")
        return 1
    add_lts_efficiency(runs)

    info = runs[0]["info"]
    previous = json.loads(out.read_text())["runs"] if args.append and out.exists() else []
    ledger = {
        "host": {"isa": info["isa"], "nproc": info["nproc"], "l2_bytes": info["l2_bytes"],
                 "l3_bytes": info["l3_bytes"]},
        "runs": previous + runs,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    # One run per line: compact, and diffs of committed baselines stay readable.
    out.write_text('{"host": ' + json.dumps(ledger["host"]) + ',\n "runs": [\n' +
                   ",\n".join(json.dumps(r) for r in ledger["runs"]) + "\n]}\n")
    log(f"wrote {len(ledger['runs'])} runs to {out}")

    if len(runs) == 1:
        summary = {k: runs[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        # Several runs: the median of each metric, named <workload>.<metric>.
        values = {}
        for r in runs:
            for k, m in r["metrics"].items():
                values.setdefault(f"{r['workload']}.{k}", ([], m["unit"]))[0].append(m["value"])
        summary = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {k: {"value": statistics.median(v), "unit": u}
                        for k, (v, u) in values.items()},
        }
    print(json.dumps(summary))
    for r in runs:
        if r["failed"]:
            log(f"run.py: {r['workload']} seed {r['seed']} trace {r['trace']}: {r['failed']} of "
                f"{r['attempted']} repetitions failed the correctness gate")
    return 1 if summary["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
