"""Benchmark of splitalg's exact checks, end to end and layer by layer.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, one process, no threads):

  verdicts      class, cocycle, module, Rota-Baxter and O-operator checks
  tensor-eq     S- and LD-equation residuals and equivalence reports
  rb-search     exhaustive Rota-Baxter searches
  cli-pipeline  the README pipeline and the same verbs on generated files,
                one ``python -m splitalg.cli`` process per step

Inputs come from the seed alone: seed n builds input family n mod 32, the
families ``reference.json`` holds output digests for.  After set-up the
workload's operations run in whole passes until ``--seconds`` have elapsed
and at least 100 were timed.  Every output is checked against the verdict
its input was built to have and against the sha256 stored for its family.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports per-layer
calls, self times and counters.  The last line of stdout is one JSON object.
Lines before it print the metrics under their per-workload names.
"""

from __future__ import annotations

import argparse
import gc
import json
import marshal
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("verdicts", "tensor-eq", "rb-search", "cli-pipeline")
SETUP_REPS = 3
MIN_OPS = 100
#: input families with stored reference digests; seed n runs family n mod REF_SEEDS
REF_SEEDS = 32

#: per-workload names of the generic metrics, for the printed summary
NAMES = {
    "verdicts": {"op_ms_p50": "check_ms_p50", "op_ms_p90": "check_ms_p90",
                 "work_per_s": "checks_per_s"},
    "tensor-eq": {"op_ms_p50": "tensor_ms_p50", "op_ms_p90": "tensor_ms_p90",
                  "work_per_s": "tensor_calls_per_s"},
    "rb-search": {"op_ms_p50": "search_ms_p50", "op_ms_p90": "search_ms_p90",
                  "work_per_s": "candidates_per_s"},
    "cli-pipeline": {"op_ms_p50": "cli_step_ms_p50", "op_ms_p90": "cli_step_ms_p90",
                     "work_per_s": "cli_steps_per_s"},
}


#: seconds one call of ``calibration_kernel`` takes on the reference machine
#: (a 2-vCPU VM, Python 3.11.7); timings are reported at that speed
CAL_REF_S = 0.004
_CAL = tuple(Fraction(i % 5 - 2, i % 3 + 1) for i in range(48))
_CAL_SOURCE = "".join(f"def f{i}(a, b=1):\n    return [x * b + {i} for x in range(a) if x % 3]\n"
                      for i in range(12))


def calibration_kernel():
    """A fixed piece of work shaped like the library's: exact arithmetic in
    the pattern of its hot loops, plus compiling and unmarshalling code, the
    bulk of what an import does."""
    out = [Fraction(0)] * 12
    for _ in range(3):
        for a in _CAL:
            if a:
                for k, b in enumerate(_CAL[:12]):
                    if b:
                        out[k] += a * b
    for _ in range(2):
        marshal.loads(marshal.dumps(compile(_CAL_SOURCE, "<calibration>", "exec")))
    return out


def calibration() -> float:
    """Seconds the calibration kernel takes right now, with the collector
    off.  Callers collect the heap first, so it pays for no earlier
    operation's garbage."""
    gc.disable()
    try:
        start = perf_counter()
        calibration_kernel()
        return perf_counter() - start
    finally:
        gc.enable()


class Clock:
    """Wall times of calls, with a calibration before the first and after
    each one."""

    def __init__(self):
        self.walls: list[float] = []
        gc.collect()
        self.cals = [calibration()]

    def time(self, fn, *args):
        """fn(*args), timed together with collecting the garbage it left."""
        start = perf_counter()
        result = fn(*args)
        gc.collect()
        self.walls.append(perf_counter() - start)
        self.cals.append(calibration())
        return result

    def scaled(self) -> list[float]:
        """Each wall time at reference speed, rescaled by the median of the
        calibrations from two before to two after it: that follows the
        machine's drift while damping the jitter of single calibrations."""
        return [wall * CAL_REF_S / statistics.median(self.cals[max(0, i - 1):i + 3])
                for i, wall in enumerate(self.walls)]


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile, defined only with at least ten samples
    beyond it."""
    rank = -(-pct * len(values) // 100)
    if len(values) - rank < 10:
        raise ValueError(f"p{pct} needs ten samples beyond it; got {len(values)} samples")
    return sorted(values)[max(rank, 1) - 1]


def import_library():
    """Import splitalg from this checkout's src/, or exit with status 1."""
    sys.path.insert(0, str(SRC))
    try:
        import splitalg
        import splitalg.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"error: cannot import splitalg from {SRC}: {exc}") from None
    if Path(splitalg.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported splitalg from {splitalg.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# set-up

def build_cases(workload: str, seed: int, rep: int):
    import workloads as w

    if workload == "cli-pipeline":
        workdir = OUT / f"cli-{seed}-{rep}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        w.write_files(w.cli_files(seed, rep), workdir)
        return w.cli_cases(str(workdir))
    builder = {"verdicts": w.verdict_cases, "tensor-eq": w.tensor_cases,
               "rb-search": w.rb_cases}[workload]
    return builder(seed, rep)


def outcome(case, result):
    """(digest, verdict) of one result; an exception has neither."""
    import workloads as w

    if isinstance(result, Exception):
        return None, None
    return w.digest(w.render(result)), w.verdict(result)


def call(fn, *args):
    """fn(*args), or the exception it raised: an operation that raises
    counts as failed, and the run goes on."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def setup(workload: str, seed: int, rep: int, clock: Clock):
    """Generate input set ``rep`` and run one warm-up pass over it, which also
    asserts that every input has the verdict it was built to have.  Returns
    the cases, their output digests and the labels of cases with a wrong
    verdict."""
    cases = clock.time(build_cases, workload, seed, rep)
    outcomes = [outcome(case, clock.time(call, case.call)) for case in cases]
    wrong = [c.label for c, (d, v) in zip(cases, outcomes)
             if d is None or (c.expect is not None and v != c.expect)]
    return cases, [d for d, _ in outcomes], wrong


def prepare(workload: str, seed: int):
    """Set up SETUP_REPS input sets; the run times all of them, so every
    set-up is also work the run measures.  Returns the cases, the digests
    they must reproduce, each set-up's time at reference speed and the
    set-up errors, which include a missing reference."""
    clock = Clock()
    reps, bounds = [], []
    for rep in range(SETUP_REPS):
        first = len(clock.walls)
        reps.append(setup(workload, seed, rep, clock))
        bounds.append((first, len(clock.walls)))
    scaled = clock.scaled()
    cases = [c for r in reps for c in r[0]]
    digests = [d for r in reps for d in r[1]]
    errors = [label for r in reps for label in r[2]]
    expected = reference_digests(workload, seed)
    if expected is None or len(expected) != len(digests):
        errors.append(f"reference.json has no digests for the {len(digests)} operations "
                      f"of {workload} family {seed}")
        expected = digests
    return cases, expected, [sum(scaled[a:b]) for a, b in bounds], errors


def reference_digests(workload: str, seed: int):
    stored = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return stored.get(workload, {}).get(str(seed))


class Gate:
    """Counts operations and failures against the expected digests."""

    def __init__(self, cases, expected):
        self.cases, self.expected = cases, expected
        self.attempted = self.failed = 0
        self.first_failure = None

    def check(self, index, result):
        case = self.cases[index]
        digest, verdict = outcome(case, result)
        self.attempted += 1
        bad = (digest is None or digest != self.expected[index]
               or (case.expect is not None and verdict != case.expect))
        if bad:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"{case.label}: {result!r}"[:300]


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics

def work_units(case) -> int:
    import workloads as w

    return w.candidates(*case.args) if case.func == "search_rb" else 1


def timed_passes(cases, seconds: float, run, gate: Gate):
    """Whole passes over ``cases`` until ``seconds`` elapsed and at least
    MIN_OPS operations were timed.  Returns per-op wall times, the same at
    reference speed, and the work done."""
    work = 0
    start = perf_counter()
    clock = Clock()
    while perf_counter() - start < seconds or len(clock.walls) < MIN_OPS:
        for index, case in enumerate(cases):
            gate.check(index, clock.time(call, run, case))
            work += work_units(case)
    return clock.walls, clock.scaled(), work


def untraced(args, import_s):
    cases, expected, setup_times, setup_errors = prepare(args.workload, args.seed % REF_SEEDS)
    gc.freeze()                 # the inputs live all run; keep them out of collections
    gate = Gate(cases, expected)
    if args.workload == "cli-pipeline":
        env = dict(os.environ, PYTHONPATH=str(SRC))
        run, who = (lambda case: case.spawn(env)), resource.RUSAGE_CHILDREN
    else:
        run, who = (lambda case: case.call()), resource.RUSAGE_SELF
    latencies, scaled, work = timed_passes(cases, args.seconds, run, gate)
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "op_ms_p50": (statistics.median(scaled) * 1000, "ref_ms"),
        "op_ms_p90": (percentile(scaled, 90) * 1000, "ref_ms"),
        "work_per_s": (work / sum(scaled), "1/ref_s"),
    }
    named = {NAMES[args.workload].get(k, k): v for k, v in metrics.items()}
    named["op_fail_frac"] = (gate.failed / gate.attempted, "ratio")
    if args.workload == "cli-pipeline":
        size = len(cases) // SETUP_REPS
        pipelines = [sum(scaled[i:i + size]) for i in range(0, len(scaled), size)]
        named["pipeline_s"] = (statistics.median(pipelines), "ref_s")
    named["wall_ms_p50"] = (statistics.median(latencies) * 1000, "ms")
    named["wall_ms_p90"] = (percentile(latencies, 90) * 1000, "ms")
    named["wall_work_per_s"] = (work / sum(latencies), "1/s")
    print(f"# {args.workload} seed={args.seed}: {gate.attempted} ops over {SETUP_REPS} input "
          f"sets, {gate.failed} failed")
    return metrics, named, gate, setup_errors


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

def _median_child_seconds(code: str, env, runs: int = 5) -> float:
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def traced_run(args):
    import spans as sp

    cases, expected, _, setup_errors = prepare(args.workload, args.seed % REF_SEEDS)
    gc.freeze()
    gate = Gate(cases, expected)
    totals: dict[str, float] = {}
    untraced_wall = traced_wall = 0.0
    passes, problems, first = 0, [], None
    start = perf_counter()
    while passes == 0 or perf_counter() - start < args.seconds:
        t0 = perf_counter()
        for index, case in enumerate(cases):
            gate.check(index, call(case.call))
        untraced_wall += perf_counter() - t0
        rec = sp.Recorder()
        results = []
        with sp.traced(rec):
            t0 = perf_counter()
            for case in cases:
                with rec.operation():
                    results.append(call(case.call))
            traced_wall += perf_counter() - t0
        for index, result in enumerate(results):
            gate.check(index, result)
        selfs = sp.self_times(rec.spans)
        problems += sp.check_tree(rec.spans, selfs)
        for source in (sp.layer_totals(rec.spans, selfs), sp.counters(rec.calls)):
            for key, value in source.items():
                totals[key] = totals.get(key, 0) + value
        first = first or rec.spans
        passes += 1
    OUT.mkdir(exist_ok=True)
    sp.write_spans(first, OUT / f"spans-{args.workload}-{args.seed}.tsv")

    metrics = {}
    for key, value in totals.items():
        unit = "s" if key.endswith("_s") else "bytes" if key.endswith(".bytes") else "count"
        metrics[key] = (value / passes, unit)
    tuples, fails = totals["axioms.tuples"], totals["axioms.failures"]
    cand, hits = totals["operators.search_rb.candidates"], totals["operators.search_rb.hits"]
    metrics["axioms.failure_ratio"] = (fails / tuples if tuples else 0.0, "ratio")
    metrics["operators.search_rb.hit_ratio"] = (hits / cand if cand else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    interp = import_s = 0.0
    if args.workload == "cli-pipeline":
        env = dict(os.environ, PYTHONPATH=str(SRC))
        interp = _median_child_seconds("pass", env)
        import_s = max(0.0, _median_child_seconds("import splitalg.cli", env) - interp)
    metrics["cli.interp_start_s"] = (interp, "s")
    metrics["cli.import_s"] = (import_s, "s")
    print(f"# {args.workload} seed={args.seed}: {passes} traced passes of {len(cases)} ops, "
          f"{gate.failed} of {gate.attempted} failed")
    for problem in problems[:5]:
        print(f"# span tree: {problem}", file=sys.stderr)
    return metrics, gate, setup_errors + problems


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one CPU for this process and the CLI children it waits for, so the
    # calibrations measure the CPU that runs the work
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = Clock()
    clock.time(import_library)
    import_s = clock.scaled()[0]
    if args.trace:
        metrics, gate, errors = traced_run(args)
        shown = metrics
    else:
        metrics, shown, gate, errors = untraced(args, import_s)
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")
    for message in errors[:10]:
        print(f"# error: {message}", file=sys.stderr)
    if gate.first_failure:
        print(f"# first failed op: {gate.first_failure}", file=sys.stderr)
    for rep in range(SETUP_REPS):
        shutil.rmtree(OUT / f"cli-{args.seed % REF_SEEDS}-{rep}", ignore_errors=True)
    print(json.dumps({
        "correct": gate.failed == 0 and not errors,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
