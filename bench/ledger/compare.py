#!/usr/bin/env python3
"""Compares two perf ledgers under the bounds in BENCHMARK.json.

    python3 bench/ledger/compare.py BASE HEAD
    python3 bench/ledger/compare.py baselines/avx512-4.json:1 baselines/avx512-4.json:2
    python3 bench/ledger/compare.py --self-test

BASE and HEAD are ledger files written by run.py; a ":<n>" suffix keeps only
the runs of set n. Prints one row per workload. Every ratio is head median
over base median and is printed with the base median it divides by.

End-to-end metrics (BENCHMARK.json "end_to_end", each with a bound):
  REGRESSION  the head median is worse than the base median by more than the
              bound (exit status 1);
  improved    better by more than the bound;
  unresolved  the spread between quartiles of either side, as a share of its
              median, is wider than the bound, and the runs of the two sides
              overlap.
Per-layer metrics (no bound) are flagged `changed` when the move is
significant and larger than LAYER_TOL; exact counts (EXACT) are flagged on
any difference.

A move is significant when at least nine tenths of all (base, head) run
pairs differ in the same direction (ties count for neither side) and the
medians differ by more than the base runs' interquartile distance.
"""

import argparse
import json
import random
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_BENCH = HERE.parent.parent / "BENCHMARK.json"

# Counts computed from the mesh, the level census, the partition and the
# checkpoint format: they repeat exactly, so any difference is a change.
EXACT = {
    "lts.eq9", "lts.halo_overhead", "lts.applies_per_cycle", "lts.work_eff",
    "partition.level_imbalance_max", "partition.edge_cut", "ckpt.bytes", "kernel.ai",
    "kernel.bytes_per_elem",
}

# Smallest per-layer move that is flagged, as a share of the base median. It
# matches the timing bounds: between the two sets of the committed baseline
# the timed setup pieces of the same code moved by up to 21%.
LAYER_TOL = 0.25


def load(spec: str) -> dict:
    """{workload: {metric: ([values], unit)}} from 'path' or 'path:set'."""
    path, sep, set_index = spec.rpartition(":")
    if not (sep and set_index.isdigit()):
        path, set_index = spec, ""
    runs = json.loads(Path(path).read_text())["runs"]
    if set_index:
        runs = [r for r in runs if r.get("set") == int(set_index)]
    if not runs:
        raise SystemExit(f"compare.py: no runs in {spec}")
    out = {}
    for r in runs:
        for name, m in r["metrics"].items():
            values, _ = out.setdefault(r["workload"], {}).setdefault(name, ([], m["unit"]))
            values.append(float(m["value"]))
    return out


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def rel_spread(v):
    q1, q3 = quartiles(v)
    med = statistics.median(v)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def significant(base, head):
    """+1 / -1 when head is significantly above / below base, else 0."""
    up = sum(1 for b in base for h in head if h > b)
    down = sum(1 for b in base for h in head if h < b)
    pairs = len(base) * len(head)
    q1, q3 = quartiles(base)
    diff = statistics.median(head) - statistics.median(base)
    if abs(diff) <= q3 - q1 or diff == 0:
        return 0
    if diff > 0 and up >= 0.9 * pairs:
        return 1
    if diff < 0 and down >= 0.9 * pairs:
        return -1
    return 0


def ratio_of(base, head):
    bm, hm = statistics.median(base), statistics.median(head)
    return hm / bm if bm else (1.0 if hm == bm else float("inf"))


def judge_end_to_end(base, head, better, bound):
    r = ratio_of(base, head)
    worse = r > 1 + bound if better == "lower" else r < 1 - bound
    gained = r < 1 - bound if better == "lower" else r > 1 + bound
    separated = max(head) < min(base) or min(head) > max(base)
    if max(rel_spread(base), rel_spread(head)) > bound and not separated:
        return "unresolved"
    if worse:
        return "REGRESSION"
    if gained:
        return "improved"
    return "ok"


def judge_layer(name, base, head):
    if name in EXACT:
        return "changed" if sorted(set(base)) != sorted(set(head)) else "ok"
    sig = significant(base, head)
    return "changed" if sig and abs(ratio_of(base, head) - 1) > LAYER_TOL else "ok"


def compare(base, head, bench):
    """Returns ({workload: [(metric, verdict, ratio, base_median, unit)]}, regressions)."""
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    rows, regressions = {}, 0
    for workload in sorted(set(base) & set(head)):
        cells = []
        for name in sorted(set(base[workload]) & set(head[workload]),
                           key=lambda n: (n not in e2e, n)):
            (b, unit), (h, _) = base[workload][name], head[workload][name]
            if name in e2e:
                verdict = judge_end_to_end(b, h, e2e[name]["better"], e2e[name]["bound"])
            else:
                verdict = judge_layer(name, b, h)
            regressions += verdict == "REGRESSION"
            cells.append((name, verdict, ratio_of(b, h), statistics.median(b), unit))
        rows[workload] = cells
    return rows, regressions


def flags(cells):
    return [c for c in cells if c[1] not in ("ok", "unresolved")]


def print_rows(rows, e2e_names):
    for workload, cells in rows.items():
        parts = []
        for name, verdict, ratio, base, unit in cells:
            if name in e2e_names or verdict != "ok":
                parts.append(f"{name} {verdict} {ratio:.3f}x of {base:.4g} {unit}")
        status = "FLAGGED" if flags(cells) else "ok"
        print(f"{workload:16s} {status:8s} " + "; ".join(parts))


# ---------------------------------------------------------------------------
# Self-test: synthetic ledgers with seeded regressions
# ---------------------------------------------------------------------------

def synthetic(bench, rng, noise, scale=None):
    scale = scale or {}
    out = {}
    for workload in ("w1", "w2"):
        metrics = {}
        for m in bench["end_to_end"] + bench["per_layer"]:
            name = m["name"]
            exact = name in EXACT
            values = [(1.0 if exact else 1.0 + rng.gauss(0, noise)) * scale.get((workload, name), 1)
                      for _ in range(10)]
            metrics[name] = (values, m["unit"])
        out[workload] = metrics
    return out


def self_test(bench):
    rng = random.Random(7)
    base = synthetic(bench, rng, 0.02)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    failures = []

    def expect(label, head, want):
        rows, _ = compare(base, head, bench)
        got = {(w, c[0]): c[1] for w, cells in rows.items() for c in cells if c[1] != "ok"}
        if got != want:
            failures.append(f"{label}: expected {want}, got {got}")

    expect("self", base, {})
    expect("fresh noise", synthetic(bench, random.Random(8), 0.02), {})
    for name, m in e2e.items():
        worse = 1 + 2 * m["bound"] if m["better"] == "lower" else 1 - 2 * m["bound"]
        expect(f"regression {name}", synthetic(bench, random.Random(9), 0.02,
                                                {("w1", name): worse}),
               {("w1", name): "REGRESSION"})
    first = bench["end_to_end"][0]
    gain = 1 - 2 * first["bound"] if first["better"] == "lower" else 1 + 2 * first["bound"]
    expect("improvement", synthetic(bench, random.Random(10), 0.02, {("w2", first["name"]): gain}),
           {("w2", first["name"]): "improved"})
    layer = next(m["name"] for m in bench["per_layer"] if m["name"] not in EXACT)
    expect("per-layer drop", synthetic(bench, random.Random(11), 0.02, {("w1", layer): 0.7}),
           {("w1", layer): "changed"})
    expect("per-layer rise", synthetic(bench, random.Random(15), 0.02, {("w2", layer): 1.5}),
           {("w2", layer): "changed"})
    exact = next(m["name"] for m in bench["per_layer"] if m["name"] in EXACT)
    expect("exact count", synthetic(bench, random.Random(12), 0.02, {("w2", exact): 1.001}),
           {("w2", exact): "changed"})
    # A spread wider than every bound: nothing may be called a regression.
    rows, regressions = compare(synthetic(bench, random.Random(13), 0.5),
                                synthetic(bench, random.Random(14), 0.5), bench)
    if regressions or not any(c[1] == "unresolved" for cells in rows.values() for c in cells):
        failures.append("wide spread: expected unresolved metrics and no regression")
    # ...unless every head run reads worse than every base run.
    steady, scattered = [1.0, 1.01, 0.99, 1.02, 0.98], [0.5, 0.3, 0.6, 0.2, 0.55]
    if judge_end_to_end(steady, scattered, "higher", 0.25) != "REGRESSION":
        failures.append("separated wide spread: expected REGRESSION")
    # Winning every pair is not enough when the move is inside the base's
    # own interquartile distance.
    if significant([0.0, 0.0, 1.0, 1.0], [1.1, 1.1]) != 0:
        failures.append("move inside the base spread: expected not significant")

    for f in failures:
        print("FAIL", f)
    print(f"self-test: {'ok' if not failures else f'{len(failures)} failure(s)'}")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("head", nargs="?")
    ap.add_argument("--bench", type=Path, default=DEFAULT_BENCH, help="BENCHMARK.json")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    bench = json.loads(args.bench.read_text())
    if args.self_test:
        return self_test(bench)
    if not (args.base and args.head):
        ap.error("need BASE and HEAD (or --self-test)")
    rows, regressions = compare(load(args.base), load(args.head), bench)
    print_rows(rows, {m["name"] for m in bench["end_to_end"]})
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
