"""Self-tests of the benchmark harness (not part of the library's suite):

    PYTHONPATH=src python -m pytest -q benchmarks/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"), str(Path(__file__).parent)]

import splitalg as sa  # noqa: E402
from splitalg import catalog, fileio  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads as w  # noqa: E402

BUILDERS = {"verdicts": w.verdict_cases, "tensor-eq": w.tensor_cases, "rb-search": w.rb_cases}


def _doc(obj):
    """The library's canonical file document of one input."""
    if isinstance(obj, sa.Algebra):
        return fileio.algebra_to_doc(obj)
    if isinstance(obj, sa.LinearMap):
        return fileio.map_to_doc(obj)
    if isinstance(obj, sa.Tensor2):
        return fileio.tensor_to_doc(obj)
    if isinstance(obj, sa.BilinearForm):
        return fileio.form_to_doc(obj)
    if isinstance(obj, (sa.PreLieModule, sa.LDendModule)):
        return fileio.module_to_doc(obj)
    if isinstance(obj, (tuple, list)):
        return [_doc(x) for x in obj]
    return str(obj)


def input_text(cases) -> str:
    return fileio.dump_doc({"cases": [{"label": c.label, "args": _doc(list(c.args))}
                                      for c in cases]})


@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_same_seed_gives_identical_inputs(workload):
    build = BUILDERS[workload]
    first = input_text(build(7))
    assert first == input_text(build(7))
    assert first != input_text(build(8))


def test_same_seed_gives_identical_cli_files():
    def text(seed):
        files = w.cli_files(seed)
        return fileio.dump_doc({name: _doc(obj) for name, obj in files.items()})

    assert text(7) == text(7)
    assert text(7) != text(8)


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(list(range(100)), 90) == 89
    assert run.percentile(list(range(200, 0, -1)), 90) == 180
    with pytest.raises(ValueError):
        run.percentile(list(range(99)), 90)


def _span(layer, start, end, parent, op=0):
    return (layer, float(start), float(end), parent, op)


def test_self_times_on_a_synthetic_tree():
    tree = [
        _span(spans.OP, 0, 10, -1),
        _span("axioms.check_class", 1, 4, 0),
        _span("core.table_apply", 2, 3, 1),
        _span("core.table_apply", 5, 9, 0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == [3.0, 2.0, 1.0, 4.0]
    assert spans.check_tree(tree, selfs) == []
    totals = spans.layer_totals(tree, selfs)
    assert totals["core.table_apply.calls"] == 2
    assert totals["core.table_apply.self_s"] == 5.0
    assert totals[f"{spans.OP}.self_s"] == 3.0

    broken = tree[:3] + [_span("core.table_apply", 5, 11, 0)]
    assert spans.check_tree(broken, spans.self_times(broken))


def test_traced_wraps_importing_module_bindings_and_restores_them():
    original = sa.core.table_apply
    rec = spans.Recorder()
    with spans.traced(rec):
        assert sa.axioms.table_apply is not original
        with rec.operation():
            report = sa.axioms.check_class(catalog.build("P2"), "pre_lie")
            sa.LinearMap.identity(2).is_invertible
    assert report.passed
    assert sa.axioms.table_apply is original and sa.core.table_apply is original
    layers = [s[0] for s in rec.spans]
    assert layers.count("axioms.check_class") == 1
    assert layers.count("core.table_apply") == 4 * 2 ** 3       # eq-2.2: four products
    assert "core.elimination" in layers
    assert spans.check_tree(rec.spans, spans.self_times(rec.spans)) == []
    assert spans.counters(rec.calls)["axioms.tuples"] == 8


class _Cheap(w.Case):
    def call(self):
        return sa.check_class(self.args[0], "pre_lie")


def test_timed_passes_record_at_least_100_ops_in_whole_passes():
    cases = [_Cheap("p2", "axioms", "check_class", (catalog.build("P2"),), True),
             _Cheap("n2", "axioms", "check_class", (catalog.build("N2"),), False)]
    expected = [w.digest(w.render(c.call())) for c in cases]
    gate = run.Gate(cases, expected)
    latencies, scaled, work = run.timed_passes(cases, 0, lambda case: case.call(), gate)
    assert len(latencies) >= run.MIN_OPS and len(latencies) % len(cases) == 0
    assert len(scaled) == len(latencies) == work == gate.attempted
    assert gate.failed == 0


def test_gate_fails_a_wrong_output_with_the_right_verdict():
    n2 = catalog.build("N2")
    case = _Cheap("n2", "axioms", "check_class", (n2,), False)
    gate = run.Gate([case], [w.digest(w.render(case.call()))])
    wrong = sa.CheckReport((sa.Failure("eq-2.2", (1, 1, 1), (sa.rat(1), sa.rat(0))),))
    gate.check(0, wrong)
    gate.check(0, ValueError("raised"))
    gate.check(0, case.call())
    assert (gate.attempted, gate.failed) == (3, 2)


def test_reference_covers_every_input_family():
    stored = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))
    assert sorted(stored) == sorted(run.WORKLOADS)
    for workload in run.WORKLOADS:
        assert sorted(map(int, stored[workload])) == list(range(run.REF_SEEDS))


def test_missing_reference_fails_the_run(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "reference_digests", lambda workload, seed: None)
    _, _, _, errors = run.prepare("rb-search", 0)
    assert errors == ["reference.json has no digests for the 19 operations of rb-search family 0"]
