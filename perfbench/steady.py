#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs every workload N times through the command in BENCHMARK.json,
alternating the workload order and moving the seed each round, then prints
for each end-to-end metric its median, quartiles and spread (interquartile
distance over the median) against the metric's bound. With --counts it also
runs the traced mode twice on one seed per workload and asserts that the
exact per-layer counts repeat bit for bit.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads exact-cold --counts

Exits 1 when a run fails or is incorrect, when a spread exceeds its bound,
or when an exact count differs between two runs of one seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Per-layer metrics that are counts of work, not timings: a fixed seed must
# reproduce them exactly.
EXACT_PREFIXES = ("storage.", "serve.cache_hit_rate", "serve.routes.", "live.wal_bytes_per_tick")


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(names):
        raise SystemExit(f"{workload}: metrics {sorted(result['metrics'])} != {sorted(names)}")
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return result, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--counts", action="store_true", help="also check exact per-layer counts")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    walls = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            result, wall = run_once(spec, w, args.seed_base + i, 0)
            walls[w].append(wall)
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print(f"run {i + 1}/{args.runs} {w}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()) + f" ({wall:.1f} s)",
                flush=True)

    ok = True
    print(f"\n{'workload':<14} {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for w in workloads:
        for name, m in bounds.items():
            q1, q2, q3, s = spread(values[w][name])
            within = s <= m["bound"]
            verdict = "steady" if s < m["bound"] / 3 else ("within" if within else "TOO NOISY")
            ok &= within
            print(f"{w:<14} {name:<14} {q2:>12.5g} {q1:>12.5g} {q3:>12.5g} {s:>8.3f} {m['bound']:>6}  {verdict}")
        print(f"{w:<14} {'wall_s':<14} {statistics.median(walls[w]):>12.1f}")

    if args.counts:
        for w in workloads:
            a, _ = run_once(spec, w, args.seed_base, 1)
            b, _ = run_once(spec, w, args.seed_base, 1)
            for name, m in a["metrics"].items():
                if name.startswith(EXACT_PREFIXES):
                    same = m["value"] == b["metrics"][name]["value"]
                    ok &= same
                    print(f"{w:<14} {name:<28} {m['value']!r:>14} {'repeats' if same else 'DIFFERS: ' + repr(b['metrics'][name]['value'])}")

    os.makedirs("perfbench/out", exist_ok=True)
    with open(f"perfbench/out/steady-{int(time.time())}.json", "w") as f:
        json.dump({"runs": args.runs, "seed_base": args.seed_base, "values": values, "walls": walls}, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
