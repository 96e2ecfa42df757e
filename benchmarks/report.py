"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/report.py [--workloads W ...] [--seeds 1 2 3] [--out FILE]

Runs ``run.py`` with ``--trace 0`` and ``BENCHMARK.json``'s ``run_seconds``
once per (workload, seed), one run at a time, and prints for every metric
each run's value, their median and their spread: the distance between the
first and third quartile as a share of the median.  End-to-end metrics
are also printed under their per-workload names (check_ms_p50,
pipeline_s, ...).  ``--out`` writes the medians and spreads, with the machine's data, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    named = {}
    for line in lines[:-1]:
        if " = " in line and not line.startswith("#"):
            name, rest = line.split(" = ", 1)
            value, unit = rest.split(" ", 1)
            named[name] = (float(value), unit)
    return result, named


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        values, shown, failed, attempted = {}, {}, 0, 0
        for seed in args.seeds:
            result, named = run_once(workload, seed, config["run_seconds"])
            failed += result["failed"]
            attempted += result["attempted"]
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, (value, unit) in named.items():
                shown.setdefault(name, (unit, []))[1].append(value)
        print(f"\n{workload}: seeds {args.seeds}, {failed} of {attempted} ops failed")
        rows = {}
        for name, vals in values.items():
            rows[name] = {"median": statistics.median(vals), "spread": spread(vals)}
            bound = bounds.get(name)
            mark = "" if bound is None else (" ok" if rows[name]["spread"] <= bound / 3 else
                                             " WIDE" if rows[name]["spread"] > bound else " >1/3")
            print(f"  {name:34s} median {rows[name]['median']:12.6g}  "
                  f"spread {rows[name]['spread']:6.3f}{'' if bound is None else f'  bound {bound}'}{mark}")
            print("      " + " ".join(f"{v:.4g}" for v in vals))
        for name, (unit, vals) in shown.items():
            if name not in values:
                print(f"  {name:34s} median {statistics.median(vals):12.6g} {unit}")
        summary[workload] = {"seeds": args.seeds, "failed": failed, "attempted": attempted,
                             "metrics": rows,
                             "named": {n: {"median": statistics.median(v), "unit": u}
                                       for n, (u, v) in shown.items()}}
    if args.out:
        machine = {"python": platform.python_version(), "nproc": os.cpu_count(),
                   "machine": platform.machine(), "system": platform.system(),
                   "seconds": config["run_seconds"]}
        Path(args.out).write_text(json.dumps({"machine": machine, "workloads": summary},
                                             indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
