"""CLI behaviour: exit codes, deterministic output, pipeline composition."""

import contextlib
import copy
import io
import json
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitalg as sa
from splitalg import catalog, fileio
from splitalg.cli import main
from splitalg.representations import regular_ldend_module, regular_prelie_module

from test_fileio import _module_doc, _mutate


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fixture(name, directory):
    assert main(["catalog", name, "--dir", str(directory)]) == 0


def test_check_pass(workdir, capsys):
    write_fixture("P2", workdir)
    capsys.readouterr()
    code, out, _ = run(capsys, "check", "--class", "pre_lie", "p2.alg.json")
    assert code == 0
    assert "PASS" in out


def test_check_failure_reports_counterexample(workdir, capsys):
    write_fixture("N2", workdir)
    capsys.readouterr()
    code, out, _ = run(capsys, "check", "--class", "pre_lie", "n2.alg.json")
    assert code == 1
    assert "eq-2.2" in out and "(1,2,1)" in out


def test_check_missing_file(workdir, capsys):
    code, _, err = run(capsys, "check", "--class", "pre_lie", "missing.json")
    assert code == 2
    assert "missing.json" in err


def test_check_json_lines(workdir, capsys):
    write_fixture("N2", workdir)
    capsys.readouterr()
    code, out, _ = run(capsys, "check", "--class", "pre_lie", "--json", "n2.alg.json")
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0] == {
        "type": "failure", "identity": "eq-2.2", "indices": [1, 2, 1], "residual": ["0", "1"],
    }
    assert lines[-1]["type"] == "summary" and lines[-1]["passed"] is False


def test_output_is_byte_identical(workdir, capsys):
    write_fixture("P2", workdir)
    capsys.readouterr()
    _, first, _ = run(capsys, "check", "--class", "pre_lie", "--json", "p2.alg.json")
    _, second, _ = run(capsys, "check", "--class", "pre_lie", "--json", "p2.alg.json")
    assert first == second


def test_unknown_verb_and_flag_rejected(workdir, capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "check", "--klass", "pre_lie", "x.json")[0] == 2
    assert run(capsys, "check", "--class", "pre_lie")[0] == 2


def test_catalog_fixtures_pass_their_checks(workdir, capsys):
    for name, class_name in [
        ("Z2", "pre_lie"), ("P1", "pre_lie"), ("P2", "pre_lie"),
        ("L2", "lie"), ("LD2", "l_dendriform"), ("D1", "dendriform"),
        ("LD2_VERT", "pre_lie"), ("LD2_HOR", None), ("LD2_LIE", "lie"),
        ("LD2_DOUBLE_VERT", "pre_lie"), ("LD2_DOUBLE_HOR", "pre_lie"),
    ]:
        write_fixture(name, workdir)
        if class_name is None:
            continue
        path = f"{name.lower()}.alg.json"
        code, *_ = run(capsys, "check", "--class", class_name, path)
        assert code == 0, (name, class_name)


def test_catalog_emits_tensor_and_map_fixtures(workdir, capsys):
    from splitalg import fileio as fio

    write_fixture("LD2_CANONICAL_R", workdir)
    write_fixture("LD2_DOUBLE_VERT", workdir)
    write_fixture("RB2", workdir)
    r = fio.read_tensor(workdir / "ld2_canonical_r.tensor.json")
    hat = fio.read_algebra(workdir / "ld2_double_vert.alg.json")
    assert sa.s_residual(hat, r).is_zero
    assert fio.read_map(workdir / "rb2.map.json").entries == ((0, 1), (0, 0))


def test_catalog_unknown_name(workdir, capsys):
    code, _, err = run(capsys, "catalog", "XX9")
    assert code == 2
    assert "XX9" in err


def test_catalog_output_is_stable(workdir, capsys):
    write_fixture("LD2", workdir)
    first = (workdir / "ld2.alg.json").read_bytes()
    write_fixture("LD2", workdir)
    assert (workdir / "ld2.alg.json").read_bytes() == first


def test_rb_check_and_failure(workdir, capsys):
    write_fixture("P2", workdir)
    write_fixture("RB2", workdir)
    fileio.write_map(sa.LinearMap.identity(2), workdir / "id.map.json")
    capsys.readouterr()
    assert run(capsys, "rb-check", "--map", "rb2.map.json", "p2.alg.json")[0] == 0
    code, out, _ = run(capsys, "rb-check", "--map", "id.map.json", "p2.alg.json")
    assert code == 1
    assert "eq-2.11" in out


def test_induce_rb_equals_catalog_ld2(workdir, capsys):
    write_fixture("P2", workdir)
    write_fixture("RB2", workdir)
    write_fixture("LD2", workdir)
    capsys.readouterr()
    code, *_ = run(capsys, "induce", "--map", "rb2.map.json", "p2.alg.json",
                   "--out", "induced.alg.json")
    assert code == 0
    induced = fileio.read_algebra(workdir / "induced.alg.json")
    assert induced == fileio.read_algebra(workdir / "ld2.alg.json")


def test_induce_precondition_exit_code(workdir, capsys):
    write_fixture("P2", workdir)
    fileio.write_map(sa.LinearMap.identity(2), workdir / "id.map.json")
    capsys.readouterr()
    code, _, err = run(capsys, "induce", "--map", "id.map.json", "p2.alg.json")
    assert code == 1
    assert "eq-2.11" in err
    code, *_ = run(capsys, "induce", "--map", "id.map.json", "p2.alg.json",
                   "--force", "--out", "forced.alg.json")
    assert code == 0


def test_induce_lie_routes(workdir, capsys):
    write_fixture("L2", workdir)
    write_fixture("RB2", workdir)
    capsys.readouterr()
    code, *_ = run(capsys, "induce", "--map", "rb2.map.json", "l2.alg.json",
                   "--out", "pl.alg.json")
    assert code == 0
    assert run(capsys, "check", "--class", "pre_lie", "pl.alg.json")[0] == 0
    code, *_ = run(capsys, "induce", "--map", "rb2.map.json", "--map", "rb2.map.json",
                   "l2.alg.json", "--out", "pair.alg.json")
    assert code == 0
    assert run(capsys, "check", "--class", "l_dendriform", "pair.alg.json")[0] == 0


def test_induce_module_routes(workdir, capsys, ld2):
    from splitalg.representations import left_family

    vert = sa.vertical_prelie(ld2)
    module = sa.PreLieModule(
        vert, 2, left_family(ld2, "tri_r"),
        tuple(-m for m in left_family(ld2, "tri_l")),
    )
    fileio.write_module(module, workdir / "vert.module.json")
    fileio.write_map(sa.LinearMap.identity(2), workdir / "id.map.json")
    capsys.readouterr()
    code, *_ = run(capsys, "induce", "--map", "id.map.json", "--module", "vert.module.json",
                   "--out", "onv.alg.json")
    assert code == 0
    assert run(capsys, "check", "--class", "l_dendriform", "onv.alg.json")[0] == 0
    code, *_ = run(capsys, "induce", "--map", "id.map.json", "--module", "vert.module.json",
                   "--compatible", "--out", "onbase.alg.json")
    assert code == 0
    assert fileio.read_algebra(workdir / "onbase.alg.json") == ld2


def test_oop_check_routes(workdir, capsys, p2, rb2, l2, ld2):
    from splitalg.representations import regular_ldend_module

    fileio.write_module(regular_prelie_module(p2), workdir / "reg.module.json")
    fileio.write_module(regular_ldend_module(ld2), workdir / "ldreg.module.json")
    write_fixture("RB2", workdir)
    write_fixture("L2", workdir)
    bad = sa.LinearMap.identity(2)
    fileio.write_map(bad, workdir / "id.map.json")
    fileio.write_map(sa.LinearMap.zero(2, 2), workdir / "zero.map.json")
    capsys.readouterr()
    assert run(capsys, "oop-check", "--map", "rb2.map.json", "--module", "reg.module.json")[0] == 0
    assert run(capsys, "oop-check", "--map", "id.map.json", "--module", "reg.module.json")[0] == 1
    # L-dendriform module files dispatch on their keys
    assert run(capsys, "oop-check", "--map", "zero.map.json", "--module", "ldreg.module.json")[0] == 0
    code, out, _ = run(capsys, "oop-check", "--map", "id.map.json", "--module", "ldreg.module.json")
    assert code == 1 and "eq-4.7-tri_r" in out
    # Lie algebra positional: adjoint representation
    assert run(capsys, "oop-check", "--map", "rb2.map.json", "l2.alg.json")[0] == 0
    assert run(capsys, "oop-check", "--map", "id.map.json", "l2.alg.json")[0] == 1
    assert run(capsys, "oop-check", "--map", "rb2.map.json")[0] == 2


def test_lift_round_trip(workdir, capsys, ld2):
    hat_v, _, _ = sa.canonical_double_solution(ld2)
    fileio.write_algebra(hat_v, workdir / "hat.alg.json")
    B = sa.bilinear_form([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    fileio.write_form(B, workdir / "b.form.json")
    capsys.readouterr()
    code, *_ = run(capsys, "lift", "--form", "b.form.json", "hat.alg.json",
                   "--out", "lift.alg.json")
    assert code == 0
    assert run(capsys, "check", "--class", "l_dendriform", "lift.alg.json")[0] == 0
    lifted = fileio.read_algebra(workdir / "lift.alg.json")
    assert sa.vertical_prelie(lifted).op("circ") == hat_v.op("circ")


def test_lift_rejects_degenerate_form(workdir, capsys):
    write_fixture("P2", workdir)
    fileio.write_form(sa.bilinear_form([[1, 0], [0, 0]]), workdir / "deg.form.json")
    capsys.readouterr()
    code, _, err = run(capsys, "lift", "--form", "deg.form.json", "p2.alg.json")
    assert code == 1
    assert "nondegenerate" in err


def test_search_rb_output(workdir, capsys):
    write_fixture("P2", workdir)
    capsys.readouterr()
    code, out, _ = run(capsys, "search-rb", "--entry-set=-1,0,1", "--json", "p2.alg.json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[-1] == {"type": "summary", "command": "search-rb",
                         "input": "p2.alg.json", "found": 9}
    code, _, err = run(capsys, "search-rb", "--entry-set=-1,0,1", "--cap", "4",
                       "p2.alg.json")
    assert code == 2
    assert "cap" in err


def test_search_rb_json_bytes_on_a_dim_3_algebra(workdir, capsys):
    """99 of 19,683 candidates, with negative entries: the golden lines pin
    the values and their row-major lexicographic order."""
    fileio.write_algebra(sa.algebra(3, {"circ": [(1, 1, 2, 1), (1, 2, 3, 1)]}),
                         workdir / "n3.alg.json")
    golden = (Path(__file__).parent / "golden" / "search_rb_n3.jsonl").read_text()
    assert run(capsys, "search-rb", "--json", "--entry-set=-1,0,1", "n3.alg.json") == (
        0, golden, "")


@pytest.mark.parametrize("bad", ["1/0", "1/2/3", "x"])
def test_search_rb_bad_entry_is_a_usage_error(workdir, capsys, bad):
    write_fixture("P2", workdir)
    capsys.readouterr()
    code, out, err = run(capsys, "search-rb", f"--entry-set=0,{bad}", "p2.alg.json")
    assert code == 2
    assert out == ""
    assert err == f"error: --entry-set value {bad!r} is not a rational\n"


def _within_bounds(capsys, *argv):
    """Run the CLI under tracemalloc; return (exit code, stderr) after
    checking that it took under 1 s and 1 MB of traced memory."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, _, err = run(capsys, *argv)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 1 and peak < 1 << 20
    return code, err


def test_exponent_scalars_are_usage_errors(workdir, capsys):
    write_fixture("P2", workdir)
    capsys.readouterr()
    code, err = _within_bounds(capsys, "search-rb", "--entry-set=0,1e999999999", "p2.alg.json")
    assert code == 2
    assert err == "error: --entry-set value '1e999999999' is not a rational\n"
    doc = {"dim": 1, "ops": {"circ": [[1, 1, 1, "1e999999999"]]}}
    (workdir / "exp.alg.json").write_text(json.dumps(doc))
    code, err = _within_bounds(capsys, "check", "--class", "pre_lie", "exp.alg.json")
    assert code == 2
    assert err.startswith("error: exp.alg.json.ops.circ[0]: bad rational '1e999999999'")


def test_row_list_longer_than_its_grid_is_a_usage_error(workdir, capsys):
    doc = {"dim": 1, "ops": {"circ": [[1, 1, 1, "1"]] * 20_000}}
    (workdir / "rows.alg.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--class", "pre_lie", "rows.alg.json")
    assert (code, out) == (2, "")
    assert err == "error: rows.alg.json.ops.circ: more rows (20000) than the grid has entries (1)\n"


def test_map_entries_not_a_list_is_a_usage_error(workdir, capsys):
    write_fixture("P2", workdir)
    capsys.readouterr()
    (workdir / "e.map.json").write_text(json.dumps({"rows": 2, "cols": 2, "entries": 5}))
    code, out, err = run(capsys, "rb-check", "--map", "e.map.json", "p2.alg.json")
    assert (code, out) == (2, "")
    assert err == "error: e.map.json.entries: expected a list\n"


@pytest.mark.parametrize("data", [
    b"[" * 200_000,
    b'{"dim": 1, "ops": {"circ": [[1, 1, 1, "\xff"]]}}',
    b'{"dim": ' + b"1" * 5000 + b"}",
], ids=["deep-nesting", "invalid-utf8", "huge-int-literal"])
def test_undecodable_files_are_usage_errors(workdir, capsys, data):
    (workdir / "bad.json").write_bytes(data)
    for argv in (["check", "--class", "pre_lie", "bad.json"],
                 ["rb-check", "--map", "bad.json", "bad.json"],
                 ["verify-eq", "--equation", "eq-2.9", "bad.json", "bad.json"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: bad.json")


def test_verify_eq(workdir, capsys, p2):
    fileio.write_algebra(p2, workdir / "p2.alg.json")
    fileio.write_tensor(sa.tensor2(2, [(1, 1, 1)]), workdir / "sol.tensor.json")
    fileio.write_tensor(sa.tensor2(2, [(1, 2, 1), (2, 1, 1)]), workdir / "bad.tensor.json")
    capsys.readouterr()
    code, out, _ = run(capsys, "verify-eq", "--equation", "eq-2.9",
                       "p2.alg.json", "sol.tensor.json")
    assert code == 0
    assert "nonzero=0" in out
    code, out, _ = run(capsys, "verify-eq", "--equation", "eq-2.9",
                       "p2.alg.json", "bad.tensor.json")
    assert code == 1
    assert "nonzero=2" in out and "first=(1,2,2)=-2" in out
    assert run(capsys, "verify-eq", "--equation", "eq-5.1",
               "p2.alg.json", "sol.tensor.json")[0] == 2
    # rank-3 tensor files are rejected before any computation
    fileio.write_tensor(sa.tensor3(2, [(1, 1, 1, 1)]), workdir / "r3.tensor.json")
    capsys.readouterr()
    assert run(capsys, "verify-eq", "--equation", "eq-2.9",
               "p2.alg.json", "r3.tensor.json")[0] == 2


def test_verify_eq_ld_variants(workdir, capsys, ld2):
    fileio.write_algebra(ld2, workdir / "ld2.alg.json")
    fileio.write_tensor(sa.tensor2(2, [(1, 2, 1), (2, 1, -1)]), workdir / "r.tensor.json")
    capsys.readouterr()
    for eq in ("eq-4.8", "eq-4.9", "eq-4.10"):
        code, out, _ = run(capsys, "verify-eq", "--equation", eq,
                           "ld2.alg.json", "r.tensor.json")
        assert code in (0, 1)
        assert eq in out


def test_build_solution(workdir, capsys, p2, rb2):
    fileio.write_module(regular_prelie_module(p2), workdir / "reg.module.json")
    fileio.write_map(rb2, workdir / "rb2.map.json")
    capsys.readouterr()
    code, out, _ = run(capsys, "build-solution", "--module", "reg.module.json",
                       "--map", "rb2.map.json", "--out", "sol")
    assert code == 0
    assert "nonzero=0" in out
    hat = fileio.read_algebra(workdir / "sol.alg.json")
    r = fileio.read_tensor(workdir / "sol.tensor.json")
    assert sa.s_residual(hat, r).is_zero
    # the emitted pair feeds straight back into verify-eq
    assert run(capsys, "verify-eq", "--equation", "eq-2.9",
               "sol.alg.json", "sol.tensor.json")[0] == 0


def test_derive_pipeline(workdir, capsys):
    write_fixture("LD2", workdir)
    capsys.readouterr()
    code, *_ = run(capsys, "derive", "--functor", "vertical_prelie", "ld2.alg.json",
                   "--out", "vert.alg.json")
    assert code == 0
    assert run(capsys, "check", "--class", "pre_lie", "vert.alg.json")[0] == 0
    # derive to stdout stays parseable and deterministic
    code, out, _ = run(capsys, "derive", "--functor", "sub_adjacent_lie", "vert.alg.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2 and "bracket" in doc["ops"]


# ---------------------------------------------------------------------------
# branches the pipeline above does not reach

@pytest.fixture()
def module_files(workdir, capsys, p2, l2, ld2):
    """LD2, P1, P2 and L2 algebra files, the regular pre-Lie and L-dendriform
    modules, L2's adjoint representation as a rho module, and maps."""
    from splitalg.operators import adjoint_family
    from splitalg.representations import regular_ldend_module

    for name in ("LD2", "P1", "P2", "L2", "RB2"):
        write_fixture(name, workdir)
    fileio.write_module(regular_prelie_module(p2), workdir / "reg.module.json")
    fileio.write_module(regular_ldend_module(ld2), workdir / "ldreg.module.json")
    rho = {"base": fileio.algebra_to_doc(l2), "vdim": 2,
           "rho": [fileio.map_to_doc(m) for m in adjoint_family(l2)]}
    (workdir / "rho.module.json").write_text(fileio.dump_doc(rho))
    fileio.write_map(sa.LinearMap.identity(2), workdir / "id.map.json")
    fileio.write_map(sa.LinearMap.zero(2, 2), workdir / "zero.map.json")
    capsys.readouterr()
    return workdir


def test_cocycle_check_branches(module_files, capsys):
    fileio.write_form(sa.bilinear_form([[0, 1], [-1, 0]]), module_files / "skew.form.json")
    fileio.write_form(sa.bilinear_form([[1]]), module_files / "one.form.json")
    assert run(capsys, "check", "--class", "ldend_cocycle", "--form", "skew.form.json",
               "ld2.alg.json") == (1, "check ld2.alg.json [ldend_cocycle]: FAIL (2 failures)\n"
                                      "  eq-4.16  (1,2,2)  residual [-2]\n"
                                      "  eq-4.16  (2,2,1)  residual [-1]\n", "")
    assert run(capsys, "check", "--class", "prelie_cocycle", "--form", "one.form.json",
               "p1.alg.json") == (0, "check p1.alg.json [prelie_cocycle]: PASS\n", "")
    for class_name in ("prelie_cocycle", "ldend_cocycle"):
        assert run(capsys, "check", "--class", class_name, "ld2.alg.json") == (
            2, "", "error: cocycle checks need --form\n")


def test_oop_check_over_a_rho_module(module_files, capsys):
    assert run(capsys, "oop-check", "--map", "rb2.map.json", "--module", "rho.module.json") == (
        0, "oop-check rb2.map.json over rho.module.json [lie]: PASS\n", "")


def test_build_solution_module_kinds(module_files, capsys):
    code, out, _ = run(capsys, "build-solution", "--module", "ldreg.module.json",
                       "--map", "zero.map.json", "--out", "ld")
    assert (code, out) == (0, "wrote ld.alg.json\nwrote ld.tensor.json\n"
                              "eq-4.8: nonzero=0 (solution)\n")
    code, out, _ = run(capsys, "build-solution", "--module", "ldreg.module.json",
                       "--map", "id.map.json", "--out", "ld")
    assert (code, out) == (0, "wrote ld.alg.json\nwrote ld.tensor.json\neq-4.8: nonzero=5\n")
    assert run(capsys, "build-solution", "--module", "rho.module.json",
               "--map", "zero.map.json") == (
        2, "", "error: build-solution expects a pre-Lie or L-dendriform module\n")


def test_verify_eq_json(module_files, capsys):
    fileio.write_tensor(sa.tensor2(2, [(1, 1, 1)]), module_files / "sol.tensor.json")
    fileio.write_tensor(sa.tensor2(2, [(1, 2, 1), (2, 1, 1)]), module_files / "bad.tensor.json")
    summary = {"type": "summary", "command": "verify-eq", "equation": "eq-2.9",
               "input": "p2.alg.json"}
    code, out, _ = run(capsys, "verify-eq", "--equation", "eq-2.9", "--json",
                       "p2.alg.json", "sol.tensor.json")
    assert (code, json.loads(out)) == (0, {**summary, "tensor": "sol.tensor.json", "nonzero": 0})
    code, out, _ = run(capsys, "verify-eq", "--equation", "eq-2.9", "--json",
                       "p2.alg.json", "bad.tensor.json")
    assert code == 1
    assert out == json.dumps({**summary, "tensor": "bad.tensor.json", "nonzero": 2,
                              "first_index": [1, 2, 2], "first_value": "-2"}) + "\n"


def test_oop_check_module_base_without_circ_is_a_format_error(module_files, capsys):
    one = {"rows": 1, "cols": 1, "entries": [[1, 1, 1]]}
    (module_files / "bare.module.json").write_text(json.dumps(
        {"base": {"dim": 1, "ops": {}}, "vdim": 1, "l": [one], "r": [one]}))
    assert run(capsys, "oop-check", "--map", "id.map.json", "--module", "bare.module.json") == (
        2, "", "error: bare.module.json.base.ops: missing 'circ', which a pre-Lie module needs\n")


def test_search_rb_empty_entry_set(module_files, capsys):
    assert run(capsys, "search-rb", "--entry-set=,", "p2.alg.json") == (
        2, "", "error: --entry-set is empty\n")


@pytest.mark.parametrize("argv, message", [
    (["--map", "id.map.json", "--module", "ldreg.module.json"],
     "induce --module expects a pre-Lie module file"),
    (["--map", "id.map.json", "--module", "rho.module.json"],
     "induce --module expects a pre-Lie module file"),
    (["--map", "id.map.json", "--map", "id.map.json", "--module", "reg.module.json"],
     "induce --module takes exactly one --map"),
    (["--map", "rb2.map.json", "--map", "rb2.map.json", "--map", "rb2.map.json", "l2.alg.json"],
     "induce on a Lie algebra takes one or two --map"),
    (["--map", "rb2.map.json", "--map", "rb2.map.json", "p2.alg.json"],
     "induce on a pre-Lie algebra takes one --map"),
    (["--map", "id.map.json", "ld2.alg.json"], "induce needs an algebra carrying circ or bracket"),
    (["--map", "id.map.json"], "induce needs --module or an algebra file"),
    (["--compatible", "--map", "rb2.map.json", "p2.alg.json"], "induce --compatible needs --module"),
    (["--map", "rb2.map.json", "--module", "reg.module.json", "p2.alg.json"],
     "induce takes --module or an algebra file, not both"),
], ids=["ldend-module", "rho-module", "module-two-maps", "lie-three-maps", "prelie-two-maps",
        "no-circ-or-bracket", "no-input", "compatible-without-module", "module-and-algebra"])
def test_induce_usage_errors(module_files, capsys, argv, message):
    assert run(capsys, "induce", *argv) == (2, "", f"error: {message}\n")


def test_arguments_a_verb_would_ignore_are_refused(module_files, capsys):
    """An argument the verb would not read is an error, not silently dropped."""
    assert run(capsys, "check", "--class", "pre_lie", "--form", "missing.json", "p2.alg.json") == (
        2, "", "error: --form applies to cocycle checks only, not to --class pre_lie\n")
    assert run(capsys, "oop-check", "--map", "rb2.map.json", "--module", "reg.module.json",
               "l2.alg.json") == (
        2, "", "error: oop-check takes --module or a Lie algebra file, not both\n")


# ---------------------------------------------------------------------------
# files whose scalars or size would cost minutes or memory

def test_long_denominators_are_refused_within_bounds(workdir, capsys):
    """27 distinct 1000-digit denominators: checking this 27 KB file took
    seconds before the bit cap; it is refused at its first scalar."""
    rows = [[i, j, k, f"1/{10 ** 999 + 9 * i + 3 * j + k}"]
            for i in range(1, 4) for j in range(1, 4) for k in range(1, 4)]
    (workdir / "long.alg.json").write_text(json.dumps({"dim": 3, "ops": {"circ": rows}}))
    assert (workdir / "long.alg.json").stat().st_size > 27_000
    code, err = _within_bounds(capsys, "check", "--class", "pre_lie", "long.alg.json")
    assert code == 2
    assert err == (f"error: long.alg.json.ops.circ[0]: common denominator needs 3319 bits "
                   f"(at most {fileio.MAX_SCALAR_BITS})\n")


def test_long_integers_are_refused_quickly(workdir, capsys):
    rows = [[i, j, k, str(10 ** 999 + i)] for i in range(1, 9)
            for j in range(1, 9) for k in range(1, 9)]
    (workdir / "ints.alg.json").write_text(json.dumps({"dim": 8, "ops": {"circ": rows}}))
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--class", "pre_lie", "ints.alg.json")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ints.alg.json.ops.circ[0]: numerator needs 3319 bits")


def test_file_over_the_byte_cap_is_a_usage_error(workdir, capsys):
    with open(workdir / "big.alg.json", "wb") as f:
        f.truncate(fileio.MAX_FILE_BYTES + 1)
    code, err = _within_bounds(capsys, "check", "--class", "pre_lie", "big.alg.json")
    assert code == 2
    assert err == f"error: big.alg.json: larger than {fileio.MAX_FILE_BYTES} bytes\n"


def test_a_long_decimal_is_refused_before_it_is_parsed(workdir, capsys):
    """Fraction("0.<k digits>") computes 10**k before Python's digit limit
    refuses the string: on this 4 MB scalar that alone takes seconds."""
    value = "0." + "0" * 4_000_000 + "1"
    doc = {"dim": 1, "ops": {"circ": [[1, 1, 1, value]]}}
    (workdir / "decimal.alg.json").write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--class", "pre_lie", "decimal.alg.json")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error: decimal.alg.json.ops.circ[0]: scalar of {len(value)} characters "
                   f"(at most {fileio.MAX_SCALAR_CHARS})\n")


@pytest.mark.parametrize("doc, message", [
    ({"dim": 1, "ops": {"circ": [[1, 1, 1, [0] * 500_000]]}},
     "x.alg.json.ops.circ[0]: bad rational [" + "0, " * 26 + "0... (1500000 characters) "
     "(not an exact rational: [" + "0, " * 45 + "0... (1500023 characters))"),
    ({"dim": "9" * 100_000, "ops": {}},
     "x.alg.json: bad 'dim' (expected an integer 1..64, got \"" + "9" * 79
     + "... (100002 characters))"),
    ({"dim": 1, "ops": {"x" * 100_000: []}},
     "x.alg.json: unknown operation name '" + "x" * 79 + "... (100002 characters)"),
], ids=["list-scalar", "dim", "op-name"])
def test_a_long_value_is_quoted_shortened(workdir, capsys, doc, message):
    (workdir / "x.alg.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--class", "pre_lie", "x.alg.json")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert len(err) < 1024


def test_a_padded_scalar_longer_than_the_digit_limit_is_refused(workdir, capsys):
    value = "0" * fileio.MAX_SCALAR_CHARS + ".5"
    (workdir / "pad.alg.json").write_text(json.dumps({"dim": 1, "ops": {"circ": [[1, 1, 1, value]]}}))
    code, out, err = run(capsys, "check", "--class", "pre_lie", "pad.alg.json")
    assert (code, out) == (2, "")
    assert err == (f"error: pad.alg.json.ops.circ[0]: scalar of {fileio.MAX_SCALAR_CHARS + 2} "
                   f"characters (at most {fileio.MAX_SCALAR_CHARS})\n")


def test_search_rb_lists_operators_as_text(workdir, capsys):
    write_fixture("P2", workdir)
    capsys.readouterr()
    assert run(capsys, "search-rb", "--entry-set=-1/2,0,1", "p2.alg.json") == (0, (
        "search-rb p2.alg.json: 5 operator(s)\n"
        "  [0] 0 -1/2; 0 0\n"
        "  [1] 0 0; -1/2 0\n"
        "  [2] 0 0; 0 0\n"
        "  [3] 0 0; 1 0\n"
        "  [4] 0 1; 0 0\n"), "")


# ---------------------------------------------------------------------------
# every verb on mutated input files: an exit code, never an escaped exception

def _cli_documents() -> dict:
    """A valid document for each input file the verb forms below name."""
    p2, ld2, l2 = catalog.p2(), catalog.ld2(), catalog.l2()
    return {
        "p2.alg.json": fileio.algebra_to_doc(p2),
        "ld2.alg.json": fileio.algebra_to_doc(ld2),
        "l2.alg.json": fileio.algebra_to_doc(l2),
        "form.json": fileio.form_to_doc(sa.bilinear_form([[0, 1], [1, "1/2"]])),
        "rb.map.json": fileio.map_to_doc(catalog.rb2()),
        "t.map.json": fileio.map_to_doc(sa.linmap([[1, 2], [0, "1/2"]])),
        "r.tensor.json": fileio.tensor_to_doc(sa.tensor2(2, [(1, 2, 1), (2, 1, -1)])),
        "prelie.mod.json": fileio.module_to_doc(regular_prelie_module(p2)),
        "ldend.mod.json": fileio.module_to_doc(regular_ldend_module(ld2)),
        "rho.mod.json": _module_doc((l2, sa.adjoint_family(l2))),
    }


_CLI_DOCUMENTS = _cli_documents()

#: one argument list per verb form; the arguments naming a document are files
_VERB_FORMS = (
    ("check", "--class", "pre_lie", "p2.alg.json"),
    ("check", "--class", "prelie_cocycle", "--form", "form.json", "p2.alg.json"),
    ("check", "--class", "ldend_cocycle", "--form", "form.json", "ld2.alg.json"),
    ("derive", "--functor", "vertical_prelie", "ld2.alg.json"),
    ("oop-check", "--map", "t.map.json", "--module", "ldend.mod.json"),
    ("oop-check", "--map", "t.map.json", "--module", "rho.mod.json"),
    ("rb-check", "--map", "rb.map.json", "p2.alg.json"),
    ("lift", "--form", "form.json", "p2.alg.json"),
    ("induce", "--map", "rb.map.json", "p2.alg.json"),
    ("induce", "--map", "t.map.json", "--module", "prelie.mod.json"),
    ("induce", "--map", "rb.map.json", "l2.alg.json"),
    ("search-rb", "--entry-set", "0,1,-1", "p2.alg.json"),
    ("verify-eq", "--equation", "eq-2.9", "p2.alg.json", "r.tensor.json"),
    ("verify-eq", "--equation", "eq-4.8", "ld2.alg.json", "r.tensor.json"),
    ("build-solution", "--module", "prelie.mod.json", "--map", "t.map.json", "--out", "sol"),
)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A directory holding every valid document of ``_CLI_DOCUMENTS``."""
    directory = tmp_path_factory.mktemp("cli-mutations")
    for name, doc in _CLI_DOCUMENTS.items():
        (directory / name).write_text(fileio.dump_doc(doc))
    return directory


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_every_verb_on_mutated_files_exits_with_a_code(cli_files, data):
    """Each verb form, with one of its input documents mutated 1-3 times as
    in the file-format tests, exits 0, 1 or 2 through ``main``: no exception
    escapes, and what it writes to stderr stays under 1 KB."""
    for form in _VERB_FORMS:
        inputs = [arg for arg in form if arg in _CLI_DOCUMENTS]
        target = data.draw(st.sampled_from(inputs))
        doc = copy.deepcopy(_CLI_DOCUMENTS[target])
        for _ in range(data.draw(st.integers(1, 3))):
            doc = _mutate(data, doc)
        (cli_files / f"mutated-{target}").write_text(json.dumps(doc))
        argv = [str(cli_files / (f"mutated-{arg}" if arg == target else arg))
                if arg in _CLI_DOCUMENTS or arg == "sol" else arg for arg in form]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (form, target, doc)
        assert len(err.getvalue().encode()) < 1024, (form, target, err.getvalue()[:200])
