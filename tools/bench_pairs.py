"""Run alternating parent/change pairs of the benchmark and write a BENCH file.

Both sides are unpacked the same way, by ``git archive`` of a git tree
into a temporary directory: the parent's is a git revision, the change's
the working tree this script sits in, its files that git does not ignore
written as a tree through a temporary index (:func:`working_tree`).  Run
in place, the working tree read about 0.4 MB more ``peak_rss_mb`` than the
same commit unpacked by ``git archive``, on every pair.
Each pair runs ``benchmarks/run.py --workload W --seed S --seconds 12
--trace 0`` once in each tree, the parent first in even-numbered pairs and
the change first in odd-numbered ones, and the plan's items run one after
another in the order given.  Every BENCH file uses the same 12 s runs.

Usage::

    python tools/bench_pairs.py --parent REV --out BENCH_N.json [--about TEXT]
        PLAN [PLAN ...]

Each PLAN is ``WORKLOAD@seedS:PAIRS``, e.g. ``rb-search@seed1:10``, with
at least 2 pairs (quartiles need two values).  Writes the ``--out`` file:
``about``, ``environment`` (CPUs this process may run on, the Python
version, ``PYTHONDONTWRITEBYTECODE`` and the median cumulative import time
of ``site`` over five ``python -X importtime -c pass`` starts, in ms),
``pairs`` (per ``WORKLOAD@seedS`` key with at least two complete pairs:
whether every run was correct, the
summed failed and attempted operations, and per end-to-end metric of
``BENCHMARK.json`` both sides' values, medians, inclusive quartiles, the
pairs the change won, the relative change of the median, the change's
deficit against the bound, and whether the medians differ by more than
the parent's interquartile range) and ``runs`` (every run made: its JSON
``result``, or for a run that exits non-zero its ``error``, the exit code
and the tail of its stderr).  The file is rewritten after every run, and
the plan stops at the first run that exits non-zero (exit status 1), so
an aborted plan still leaves the runs it made.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 12


def _parse_plan(item: str) -> tuple[str, int, int]:
    """``WORKLOAD@seedS:PAIRS`` as (workload, seed, pairs)."""
    key, _, pairs = item.rpartition(":")
    workload, _, seed = key.partition("@seed")
    if not (workload and seed.isdigit() and pairs.isdigit() and int(pairs) >= 2):
        raise argparse.ArgumentTypeError(
            f"plan item must be WORKLOAD@seedS:PAIRS with 2 or more pairs, got {item!r}")
    return workload, int(seed), int(pairs)


def _summary(parent: list, change: list, better: str, bound: float) -> dict:
    """One metric over paired runs: ``parent[k]`` and ``change[k]`` are pair k."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4, method="inclusive")
    c_q = statistics.quantiles(change, n=4, method="inclusive")
    sign = 1 if better == "lower" else -1
    rel = (c_med - p_med) / p_med
    worse = max(0.0, sign * rel)
    return {
        "parent": parent,
        "change": change,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_q1_q3": [p_q[0], p_q[2]],
        "change_q1_q3": [c_q[0], c_q[2]],
        "change_better": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "median_change_rel": rel,
        "worse_by_rel": worse,
        "bound": bound,
        "within_bound": worse <= bound,
        "resolved": abs(c_med - p_med) > p_q[2] - p_q[0],
    }


def aggregate(runs: list[dict], end_to_end: list[dict]) -> dict:
    """The ``pairs`` section of a BENCH file from its ``runs``, keyed
    ``WORKLOAD@seedS`` in first-run order; ``end_to_end`` is BENCHMARK.json's
    list of metrics (name, better, bound).  A pair counts once both its runs
    have a result, a key once it has two such pairs."""
    grouped: dict[str, dict[int, dict]] = {}
    for run in runs:
        if "result" in run:
            key = f"{run['workload']}@seed{run['seed']}"
            grouped.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run["result"]
    pairs = {}
    for key, by_pair in grouped.items():
        done = [by_pair[k] for k in sorted(by_pair) if len(by_pair[k]) == 2]
        if len(done) < 2:
            continue
        results = [pair[side] for pair in done for side in ("parent", "change")]
        pairs[key] = {
            "all_correct": all(result["correct"] for result in results),
            "failed": {side: sum(pair[side]["failed"] for pair in done)
                       for side in ("parent", "change")},
            "attempted": {side: sum(pair[side]["attempted"] for pair in done)
                          for side in ("parent", "change")},
            "metrics": {
                spec["name"]: _summary(
                    *([pair[side]["metrics"][spec["name"]]["value"] for pair in done]
                      for side in ("parent", "change")),
                    spec["better"], spec["bound"])
                for spec in end_to_end
            },
        }
    return pairs


def run_plan(plan, run_one, on_run=lambda runs: None) -> list[dict]:
    """Every run of ``plan`` ((workload, seed, pairs) items), in order;
    ``run_one(side, workload, seed)`` returns one run's ``{"result": ...}``
    or ``{"error": ...}``.  ``on_run(runs)`` sees the runs made after each
    one, and the plan stops at the first error."""
    runs = []
    for workload, seed, count in plan:
        for pair in range(count):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                             **run_one(side, workload, seed)})
                on_run(runs)
                if "error" in runs[-1]:
                    return runs
    return runs


def _bench(tree: Path, workload: str, seed: int) -> dict:
    """One ``benchmarks/run.py`` run in ``tree``: the JSON on its last stdout
    line as ``result``, or its exit code and stderr's tail as ``error``."""
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode:
        return {"error": {"returncode": done.returncode, "stderr": done.stderr[-4000:]}}
    return {"result": json.loads(done.stdout.strip().splitlines()[-1])}


def site_import_ms(run=subprocess.run) -> float | None:
    """The median over five interpreter starts of the cumulative import
    time of ``site``, in ms, read from ``-X importtime``'s report on stderr:
    the line whose package column is `` site``, unindented, so not a module
    that ``site`` imports.  ``run`` is :func:`subprocess.run` or a stand-in
    that returns an object with ``stderr``.  None when no start reports it."""
    times = []
    for _ in range(5):
        done = run([sys.executable, "-X", "importtime", "-c", "pass"],
                   capture_output=True, text=True)
        times += [int(line.split("|")[1]) / 1000 for line in done.stderr.splitlines()
                  if line.startswith("import time:") and line.endswith("| site")]
    return statistics.median(times) if times else None


def environment(run=subprocess.run) -> dict:
    """The ``environment`` section of a BENCH file."""
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "site_import_ms": site_import_ms(run),
    }


def working_tree(repo: Path = ROOT) -> str:
    """The id of a git tree holding the files of ``repo``'s working tree
    that git does not ignore, edits included and deleted files left out:
    HEAD read into a temporary index, ``git add -A`` on it, then ``git
    write-tree``.  The repository's own index is not touched; the blobs and
    trees written stay in its object store as loose objects."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        for command in (["read-tree", "HEAD"], ["add", "-A"], ["write-tree"]):
            done = subprocess.run(["git", *command], cwd=repo, env=env, capture_output=True,
                                  check=True, text=True)
        return done.stdout.strip()


def unpack(tree: str, into: Path, repo: Path = ROOT) -> None:
    """The files of the git tree-ish ``tree`` of ``repo``, written into
    ``into`` by ``git archive``."""
    archive = subprocess.run(["git", "archive", "--format=tar", tree], cwd=repo,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH file to write")
    parser.add_argument("--about", default="")
    parser.add_argument("plan", nargs="+", type=_parse_plan)
    args = parser.parse_args(argv)

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    about = args.about or (f"Alternating parent/change pairs of `benchmarks/run.py --workload W "
                           f"--seed S --seconds {SECONDS} --trace 0`; parent: a `git "
                           f"archive` of {args.parent}, change: a `git archive` of the working "
                           f"tree's files that git does not ignore.")
    env = environment()

    def write(runs):
        bench = {"about": about, "environment": env,
                 "pairs": aggregate(runs, end_to_end), "runs": runs}
        args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        unpack(args.parent, trees["parent"])
        unpack(working_tree(), trees["change"])
        runs = run_plan(args.plan, lambda side, workload, seed: _bench(
            trees[side], workload, seed), write)
    for key, pair in aggregate(runs, end_to_end).items():
        work = pair["metrics"]["work_per_s"]
        print(f"{key}: correct={pair['all_correct']} work_per_s {work['parent_median']:.6g} -> "
              f"{work['change_median']:.6g} ({work['change_better']} of {work['pairs']} pairs)")
    print(f"wrote {args.out}")
    failed = runs[-1]
    if "error" in failed:
        print(f"stopped: the {failed['side']} run of {failed['workload']}@seed{failed['seed']} "
              f"pair {failed['pair']} exited {failed['error']['returncode']}:\n"
              f"{failed['error']['stderr']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
