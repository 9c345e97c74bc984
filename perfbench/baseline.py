#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --workloads serve-hot,suite-batch --seeds 1-10 \\
        --seconds 20 [--trace] [--json perfbench/baseline.json]

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median. Each run is one call of
run.py, exactly as the benchmark command is given in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.time()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.time() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output")
    return res, wall


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="serve-hot,serve-cold,suite-batch")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--json", help="write the summary here")
    args = ap.parse_args()

    summary = {}
    for wl in args.workloads.split(","):
        per_metric, units, walls = {}, {}, []
        for seed in seeds(args.seeds):
            res, wall = run(wl, seed, args.seconds, args.trace)
            walls.append(wall)
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{wl} seed {seed}: {wall:.1f}s", file=sys.stderr)
        rows = {}
        for name in sorted(per_metric):
            vals = per_metric[name]
            rows[name] = summarise(vals) if len(vals) > 1 else {"median": vals[0], "values": vals}
            rows[name]["unit"] = units[name]
            r = rows[name]
            print(f"{wl:12s} {name:32s} median {r['median']:14.6g} {units[name]:10s} "
                  f"spread {r.get('spread', 0):7.2%}")
        summary[wl] = {"seeds": seeds(args.seeds), "run_wall_s": walls, "metrics": rows}
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seconds": args.seconds, "trace": args.trace, "workloads": summary}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
