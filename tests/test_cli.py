"""CLI behaviour: exit codes, deterministic output, pipeline composition."""

import json
import time
import tracemalloc

import pytest

import splitalg as sa
from splitalg import fileio
from splitalg.cli import main
from splitalg.representations import regular_prelie_module


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
