#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the benchmark --runs times per workload, each time with another
seed, and prints for every metric the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread (q3 - q1)
as a share of the median, next to the metric's bound from
BENCHMARK.json. With --repeat-seed it also runs the first seed a second
time and flags every deterministic metric that differs between the two
runs of that seed.

Run it from the root of the repository:

    python3 perfbench/spread.py --workloads smallfile,table --runs 10
    python3 perfbench/spread.py --trace 1 --runs 3 --json out.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# Metrics that must repeat exactly for one seed: simulated cycles and
# the program's own counts. (Go heap allocation counts come close but
# include the runtime's own, so they are not on the list.)
DETERMINISTIC = {"sys.crossings_per_op", "sys.copy_bytes_per_op", "vfs.calls_per_op",
                 "io.hit_ratio", "kernel.ctx_switches_per_op", "mem.tlb_misses_per_op",
                 "mem.faults_per_op", "kgcc.checks_per_op", "kefence.allocs_per_op",
                 "kring.sqes_per_enter", "kring.bytes_per_op"}


def deterministic(name):
    return name in DETERMINISTIC or name.endswith("cycles_per_op")


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.time() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} exited {out.returncode}:\n{out.stderr}")
    res = json.loads(lines[-1])
    return res, wall


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--repeat-seed", action="store_true")
    ap.add_argument("--json", help="also write the raw values and summary here")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    report = {}
    for w in args.workloads.split(","):
        values, walls, correct = {}, [], True
        seeds = [args.first_seed + i for i in range(args.runs)]
        for seed in seeds:
            res, wall = run_once(bench["command"], w, seed, args.seconds, args.trace)
            walls.append(wall)
            correct = correct and res["correct"] and res["failed"] == 0
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        flags = []
        if args.repeat_seed:
            again, _ = run_once(bench["command"], w, seeds[0], args.seconds, args.trace)
            for name, m in again["metrics"].items():
                if deterministic(name) and m["value"] != values[name][0]:
                    flags.append(f"{name}: {values[name][0]} then {m['value']}")
        print(f"== {w}: {args.runs} runs, trace {args.trace}, all correct: {correct}, "
              f"wall per run {statistics.median(walls):.1f}s")
        summary = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound:
                mark = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
            print(f"  {name:32s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:7.2%}  bound {bound if bound else '-'} {mark}")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "values": vs}
        for f in flags:
            print(f"  NONDETERMINISTIC {f}")
        report[w] = {"correct": correct, "metrics": summary, "nondeterministic": flags}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
