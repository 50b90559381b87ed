#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/gunfu_bench.exe and runs workloads,
each in a fresh process.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run. Prints the run's metric lines, then as the last line a JSON
      object with keys correct, attempted, failed and metrics: the
      end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
      metrics with --trace 1.

  python3 perfbench/run.py [--seeds 1,2,3] [--seconds S] [--trace 0|1] [--out FILE]
      Every workload once per seed; prints each metric's median and
      quartiles per workload and appends the full records to FILE
      (default .bench_out/results.jsonl).

  python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl
      Per workload: each end-to-end metric's median and quartiles on both
      sides, the share of seed-paired runs the change won, "unresolved"
      where a side's spread exceeds the metric's bound, and a per-layer
      delta table naming the layers that moved.

Exits non-zero when an output check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "gunfu_bench.exe")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Build the benchmark executable from the checkout's sources."""
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found: run from a full checkout of the repository" % need)
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/gunfu_bench.exe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S, text=True)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def run_one(workload, seed, seconds, trace):
    """Run one workload in a fresh process; returns (record, text lines)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT_DIR, "%s-seed%d.spans.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s seed %d timed out" % (workload, seed), 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        record = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("%s seed %d printed no result (exit %d)" % (workload, seed, proc.returncode), 1)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
        fail("%s seed %d exited %d" % (workload, seed, proc.returncode), 1)
    return record, lines[:-1]


def select(record, metric_specs):
    """The record's metrics named by the spec, checked against its units."""
    out = {}
    for m in metric_specs:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail("metric %s missing from %s" % (m["name"], record["workload"]), 1)
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]), 1)
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def driver_mode(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %s; one of %s" % (args.workload, " ".join(names)))
    build()
    record, lines = run_one(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    metrics = select(record, spec["per_layer"] if args.trace else spec["end_to_end"])
    print(json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }))
    sys.stdout.flush()
    sys.exit(0 if record["correct"] else 1)


def all_mode(args, spec):
    build()
    seeds = [int(s) for s in args.seeds.split(",")]
    out = args.out or os.path.join(OUT_DIR, "results.jsonl")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    with open(out, "a") as f:
        for w in spec["workloads"]:
            records = []
            for seed in seeds:
                record, _ = run_one(w["name"], seed, args.seconds, args.trace)
                f.write(json.dumps(record) + "\n")
                f.flush()
                records.append(record)
                ok = ok and record["correct"]
            print("\n== %s  (%d runs, seeds %s; %s)" % (w["name"], len(records), args.seeds, w["why"]))
            for r in records:
                print("   seed %d: correct=%s failed %d/%d inputs %s%s"
                      % (r["seed"], r["correct"], r["failed"], r["attempted"],
                         r["inputs_digest"], "".join("\n     " + p for p in r["problems"])))
            print("   %-36s %-7s %14s %14s %14s %8s" % ("metric", "unit", "median", "q1", "q3", "spread"))
            for name in records[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in records]
                q1, med, q3 = quartiles(vals)
                print("   %-36s %-7s %14.6g %14.6g %14.6g %7.2f%%"
                      % (name, units.get(name, records[0]["metrics"][name]["unit"]),
                         med, q1, q3, 100 * spread(vals)))
    print("\nrecords appended to %s" % out)
    sys.exit(0 if ok else 1)


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare_mode(args, spec):
    parent, change = load_records(args.compare[0]), load_records(args.compare[1])
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for w in spec["workloads"]:
        a = sorted((r for r in parent if r["workload"] == w["name"]), key=lambda r: r["seed"])
        b = sorted((r for r in change if r["workload"] == w["name"]), key=lambda r: r["seed"])
        if not a or not b:
            continue
        print("\n== %s  (parent %d runs, change %d runs)" % (w["name"], len(a), len(b)))
        print("   %-24s %-34s %-34s %8s %5s  %s"
              % ("metric", "parent median [q1,q3]", "change median [q1,q3]", "delta", "won", "verdict"))
        for name, m in bounds.items():
            va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if not va or not vb:
                continue
            lower = m["better"] == "lower"
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            pairs = list(zip(va, vb))
            won = sum(1 for x, y in pairs if better(y, x)) / len(pairs)
            qa, qb = quartiles(va), quartiles(vb)
            delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            worse_by = delta if lower else -delta
            if (spread(va) > m["bound"] or spread(vb) > m["bound"]) and not all(
                    better(y, x) for x in va for y in vb):
                verdict = "unresolved"
            elif worse_by > m["bound"]:
                verdict = "WORSE (bound %g)" % m["bound"]
            elif won >= 0.9 and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
                verdict = "better"
            else:
                verdict = "no change beyond bound"
            print("   %-24s %-34s %-34s %+7.2f%% %4.0f%%  %s"
                  % (name, "%.5g [%.5g,%.5g]" % (qa[1], qa[0], qa[2]),
                     "%.5g [%.5g,%.5g]" % (qb[1], qb[0], qb[2]), 100 * delta, 100 * won, verdict))
        fa = [r["failed"] / r["attempted"] for r in a]
        fb = [r["failed"] / r["attempted"] for r in b]
        print("   %-24s %-34.6g %-34.6g" % ("failed_share (max)", max(fa), max(fb)))
        layer_rows = []
        for m in spec["per_layer"]:
            n = m["name"]
            va = [r["metrics"][n]["value"] for r in a if n in r["metrics"]]
            vb = [r["metrics"][n]["value"] for r in b if n in r["metrics"]]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            diff = qb[1] - qa[1]
            rel = diff / abs(qa[1]) if qa[1] else (0.0 if diff == 0 else float("inf"))
            moved = diff != 0 and abs(diff) > (qa[2] - qa[0])
            layer_rows.append((n.split(".")[0], n, qa[1], qb[1], rel, moved))
        if layer_rows:
            print("   per-layer medians (moved = change beyond the parent's quartile spread)")
            for layer, n, ma, mb, rel, moved in layer_rows:
                print("     %-36s %14.6g %14.6g %+9.2f%%%s"
                      % (n, ma, mb, 100 * rel, "  moved" if moved else ""))
            moved_layers = sorted({row[0] for row in layer_rows if row[5]})
            print("   layers moved: %s" % (", ".join(moved_layers) if moved_layers else "none"))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        compare_mode(args, spec)
    elif args.workload:
        driver_mode(args, spec)
    else:
        all_mode(args, spec)


if __name__ == "__main__":
    main()
