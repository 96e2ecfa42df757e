"""The pair aggregation of ``tools/bench_pairs.py`` on synthetic run results
and on a committed BENCH file, with no subprocess, and its unpacking of both
sides on a temporary git repository."""

import argparse
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "op_ms_p50", "better": "lower", "bound": 0.2},
              {"name": "work_per_s", "better": "higher", "bound": 0.2}]


def _result(op_ms, work, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"op_ms_p50": {"value": op_ms, "unit": "ref_ms"},
                        "work_per_s": {"value": work, "unit": "1/ref_s"}}}


def _synthetic_runs():
    """Five pairs of rb-search@seed1, then two of verdicts@seed3 with one
    incorrect parent run: pair k's parent does work 100 + k at 1.0 ms, its
    change 150 + k at 0.5 ms, except pair 3, where the change loses."""
    values = {"rb-search": [((1.0, 100 + k), (0.5, 150 + k)) for k in range(5)],
              "verdicts": [((2.0, 10), (2.0, 10)), ((2.0, 12), (1.0, 14))]}
    values["rb-search"][3] = ((1.0, 103), (1.5, 90))
    calls = {"rb-search": 0, "verdicts": 0}

    def run_one(side, workload, seed):
        pair = calls[workload] // 2
        calls[workload] += 1
        op_ms, work = values[workload][pair][side == "change"]
        return {"result": _result(
            op_ms, work, correct=(workload, pair, side) != ("verdicts", 1, "parent"),
            failed=int(side == "parent" and workload == "verdicts"))}

    return bench_pairs.run_plan([("rb-search", 1, 5), ("verdicts", 3, 2)], run_one)


def test_pairs_alternate_with_the_parent_first_in_even_pairs():
    calls = []
    runs = bench_pairs.run_plan([("verdicts", 2, 3), ("rb-search", 1, 2)],
                                lambda *call: calls.append(call) or {"result": len(calls)})
    assert calls == [("parent", "verdicts", 2), ("change", "verdicts", 2),
                     ("change", "verdicts", 2), ("parent", "verdicts", 2),
                     ("parent", "verdicts", 2), ("change", "verdicts", 2),
                     ("parent", "rb-search", 1), ("change", "rb-search", 1),
                     ("change", "rb-search", 1), ("parent", "rb-search", 1)]
    assert [(run["pair"], run["side"]) for run in runs[:4]] == \
        [(0, "parent"), (0, "change"), (1, "change"), (1, "parent")]
    assert [run["result"] for run in runs] == list(range(1, 11))


def test_the_plan_stops_at_the_first_error_and_keeps_every_run_made():
    """Each run is handed on as it is made; the failed run is kept with its
    error, and aggregation counts only pairs with both results."""
    seen = []
    error = {"returncode": 2, "stderr": "Traceback ..."}
    outcomes = iter([{"result": _result(1.0, 100)}, {"result": _result(0.5, 150)},
                     {"result": _result(0.5, 151)}, {"result": _result(1.0, 101)},
                     {"result": _result(1.0, 102)}, {"error": error}])
    runs = bench_pairs.run_plan([("rb-search", 1, 5), ("verdicts", 1, 2)],
                                lambda *call: next(outcomes),
                                lambda runs: seen.append(len(runs)))
    assert seen == [1, 2, 3, 4, 5, 6] and len(runs) == 6
    assert runs[-1] == {"workload": "rb-search", "seed": 1, "pair": 2, "side": "change",
                        "error": error}
    work = bench_pairs.aggregate(runs, END_TO_END)["rb-search@seed1"]["metrics"]["work_per_s"]
    assert (work["parent"], work["change"]) == ([100, 101], [150, 151])
    assert bench_pairs.aggregate(runs[:3], END_TO_END) == {}     # one complete pair


def test_aggregation_of_synthetic_runs():
    pairs = bench_pairs.aggregate(_synthetic_runs(), END_TO_END)
    assert list(pairs) == ["rb-search@seed1", "verdicts@seed3"]
    rb, verdicts = pairs["rb-search@seed1"], pairs["verdicts@seed3"]
    assert rb["all_correct"] and not verdicts["all_correct"]
    assert rb["failed"] == {"parent": 0, "change": 0}
    assert verdicts["failed"] == {"parent": 2, "change": 0}
    assert rb["attempted"] == {"parent": 500, "change": 500}
    work = rb["metrics"]["work_per_s"]
    assert work["parent"] == [100, 101, 102, 103, 104]
    assert work["change"] == [150, 151, 152, 90, 154]
    assert (work["parent_median"], work["change_median"]) == (102, 151)
    assert work["parent_q1_q3"] == [101, 103] and work["change_q1_q3"] == [150, 152]
    assert (work["change_better"], work["pairs"]) == (4, 5)
    assert work["median_change_rel"] == pytest.approx(49 / 102)
    assert work["worse_by_rel"] == 0.0 and work["within_bound"] and work["resolved"]
    op = rb["metrics"]["op_ms_p50"]
    assert (op["parent_median"], op["change_median"], op["change_better"]) == (1.0, 0.5, 4)
    assert op["resolved"]                       # a zero interquartile range
    assert op["median_change_rel"] == -0.5 and op["worse_by_rel"] == 0.0
    op = verdicts["metrics"]["op_ms_p50"]
    assert op["change_median"] == 1.5 and op["change_better"] == 1     # one tie, one win
    work = verdicts["metrics"]["work_per_s"]
    assert (work["parent_median"], work["change_median"]) == (11, 12)
    assert work["parent_q1_q3"] == [10.5, 11.5] and not work["resolved"]


def test_a_deficit_past_the_bound_is_out_of_bound():
    summary = bench_pairs._summary([100, 100, 100], [70, 75, 80], "higher", 0.2)
    assert summary["worse_by_rel"] == pytest.approx(0.25)
    assert not summary["within_bound"] and summary["resolved"] and summary["change_better"] == 0
    summary = bench_pairs._summary([1.0, 1.0, 1.0], [1.1, 1.1, 1.1], "lower", 0.25)
    assert summary["worse_by_rel"] == pytest.approx(0.1) and summary["within_bound"]


def test_aggregation_reproduces_a_committed_bench_file():
    """BENCH_23.json's pairs, recomputed from its runs alone."""
    bench = json.loads((ROOT / "BENCH_23.json").read_text())
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert bench_pairs.aggregate(bench["runs"], end_to_end) == bench["pairs"]


@pytest.mark.parametrize("item, parsed", [
    ("rb-search@seed1:10", ("rb-search", 1, 10)),
    ("tensor-eq@seed11:2", ("tensor-eq", 11, 2)),
])
def test_plan_items_parse(item, parsed):
    assert bench_pairs._parse_plan(item) == parsed


@pytest.mark.parametrize("item", ["rb-search:10", "rb-search@seed1", "rb-search@seed1:1",
                                  "@seed1:5", "rb-search@seedx:5"])
def test_malformed_plan_items_are_refused(item):
    with pytest.raises(argparse.ArgumentTypeError, match="WORKLOAD@seedS:PAIRS"):
        bench_pairs._parse_plan(item)


#: ``-X importtime`` lines of one interpreter start: modules that ``site``
#: imports come first, indented, then ``site`` itself
_IMPORTTIME = """import time: self [us] | cumulative | imported package
import time:       310 |        310 |   _distutils_hack
import time:      9000 |       9000 |     certifi
import time:      1200 |      %d | site
import time:       150 |        150 | encodings.site_helper
"""


def test_site_import_time_is_the_median_of_its_unindented_line():
    calls, cumulative = [], iter([35000, 31000, 40000, 36000, 33000])

    def run(argv, **kwargs):
        calls.append(argv)
        return SimpleNamespace(stderr=_IMPORTTIME % next(cumulative))

    assert bench_pairs.site_import_ms(run) == 35.0
    assert calls == [[sys.executable, "-X", "importtime", "-c", "pass"]] * 5


def test_environment_records_the_site_import_time():
    env = bench_pairs.environment(lambda argv, **kwargs: SimpleNamespace(
        stderr=_IMPORTTIME % 12345))
    assert env["site_import_ms"] == 12.345
    assert set(env) == {"cpus", "python", "PYTHONDONTWRITEBYTECODE", "site_import_ms"}
    assert bench_pairs.environment(lambda argv, **kwargs: SimpleNamespace(
        stderr="Traceback ...\n"))["site_import_ms"] is None


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                           "-c", "commit.gpgsign=false", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout


def _files(tree):
    return {path.relative_to(tree).as_posix(): path.read_text()
            for path in tree.rglob("*") if path.is_file()}


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_both_sides_unpack_through_one_helper(tmp_path):
    """The change side holds the working tree's files that git does not
    ignore: tracked ones as edited, a tracked one that an ignore pattern
    matches, untracked ones, no deleted or ignored one; the repository's
    own index is left as it was.  The parent side, a revision, unpacks
    through the same helper."""
    repo = tmp_path / "repo"
    committed = {".gitignore": "ignored.txt\n*.log\n", "kept.log": "forced\n",
                 "tracked.txt": "same\n", "edited.txt": "old\n", "deleted.txt": "gone\n",
                 "sub/nested.txt": "deep\n"}
    for name, text in committed.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "add", "-f", "kept.log")
    _git(repo, "commit", "-q", "-m", "seed")
    (repo / "edited.txt").write_text("new\n")
    (repo / "deleted.txt").unlink()
    (repo / "untracked.txt").write_text("fresh\n")
    (repo / "ignored.txt").write_text("build output\n")
    status = _git(repo, "status", "--porcelain")

    bench_pairs.unpack(bench_pairs.working_tree(repo), tmp_path / "change", repo)
    bench_pairs.unpack("HEAD", tmp_path / "parent", repo)
    assert _files(tmp_path / "change") == {
        ".gitignore": "ignored.txt\n*.log\n", "kept.log": "forced\n", "tracked.txt": "same\n",
        "edited.txt": "new\n", "sub/nested.txt": "deep\n", "untracked.txt": "fresh\n"}
    assert _files(tmp_path / "parent") == committed
    assert _git(repo, "status", "--porcelain") == status
    assert _git(repo, "diff", "--cached", "--name-only") == ""
