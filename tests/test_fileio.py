"""Canonical JSON formats: round trips, byte determinism, diagnostics."""

import json
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitalg as sa
from splitalg import fileio
from splitalg.representations import regular_ldend_module, regular_prelie_module

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def test_algebra_round_trip(tmp_path, ld2):
    path = tmp_path / "ld2.alg.json"
    fileio.write_algebra(ld2, path)
    again = fileio.read_algebra(path)
    assert again == ld2
    assert again.class_tag == "LD2"


def test_algebra_bytes_are_canonical(tmp_path, p2):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    fileio.write_algebra(p2, a)
    fileio.write_algebra(p2, b)
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["ops"]["circ"] == [[1, 1, 1, "1"], [1, 2, 2, "1"]]


def test_entries_in_lexicographic_order(tmp_path):
    alg = sa.algebra(2, {"circ": [(2, 1, 1, 1), (1, 2, 2, 1), (1, 1, 1, "1/2")]})
    path = tmp_path / "x.json"
    fileio.write_algebra(alg, path)
    doc = json.loads(path.read_text())
    assert doc["ops"]["circ"] == [[1, 1, 1, "1/2"], [1, 2, 2, "1"], [2, 1, 1, "1"]]


def test_omitted_entries_are_zero():
    alg = fileio.algebra_from_doc({"dim": 2, "ops": {"circ": []}})
    assert alg == sa.zero_algebra(2, ("circ",))


def test_map_round_trip(tmp_path, rb2):
    path = tmp_path / "rb2.map.json"
    fileio.write_map(rb2, path)
    assert fileio.read_map(path) == rb2


def test_nonsquare_map_round_trip(tmp_path):
    T = sa.linmap([[1, 2, 3], [0, "1/2", 0]])
    path = tmp_path / "t.map.json"
    fileio.write_map(T, path)
    assert fileio.read_map(path) == T


def test_tensor_round_trips(tmp_path):
    r2 = sa.tensor2(3, [(1, 3, "2/3"), (2, 1, -1)])
    r3 = sa.tensor3(2, [(1, 2, 2, 5), (2, 2, 1, "-7/2")])
    p2_, p3_ = tmp_path / "r2.json", tmp_path / "r3.json"
    fileio.write_tensor(r2, p2_)
    fileio.write_tensor(r3, p3_)
    assert fileio.read_tensor(p2_) == r2
    assert fileio.read_tensor(p3_) == r3
    assert json.loads(p2_.read_text())["rank"] == 2
    assert json.loads(p3_.read_text())["rank"] == 3


def test_form_round_trip(tmp_path):
    B = sa.bilinear_form([[0, 1], [1, "3/4"]])
    path = tmp_path / "b.form.json"
    fileio.write_form(B, path)
    assert fileio.read_form(path) == B


def test_prelie_module_round_trip(tmp_path, p2):
    m = regular_prelie_module(p2)
    path = tmp_path / "m.module.json"
    fileio.write_module(m, path)
    again = fileio.read_module(path)
    assert isinstance(again, sa.PreLieModule)
    assert again.base == p2 and again.l == m.l and again.r == m.r


def test_ldend_module_round_trip(tmp_path, ld2):
    m = regular_ldend_module(ld2)
    path = tmp_path / "m.module.json"
    fileio.write_module(m, path)
    again = fileio.read_module(path)
    assert isinstance(again, sa.LDendModule)
    assert (again.l_r, again.r_r, again.l_l, again.r_l) == (m.l_r, m.r_r, m.l_l, m.r_l)


def test_lie_representation_doc(l2):
    doc = {
        "base": fileio.algebra_to_doc(l2),
        "vdim": 2,
        "rho": [fileio.map_to_doc(m) for m in sa.adjoint_family(l2)],
    }
    base, rho = fileio.module_from_doc(doc)
    assert base == l2
    assert rho == sa.adjoint_family(l2)


# ---------------------------------------------------------------------------
# random round trips through the serialized documents

@settings(max_examples=30)
@given(st.data())
def test_random_algebra_round_trip(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    ops = {}
    for name in data.draw(st.sets(st.sampled_from(sa.OP_NAMES), min_size=1, max_size=3)):
        grid = data.draw(
            st.lists(
                st.lists(
                    st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n,
                ),
                min_size=n, max_size=n,
            )
        )
        ops[name] = tuple(tuple(tuple(row) for row in plane) for plane in grid)
    alg = sa.Algebra(n, ops)
    text = fileio.dump_doc(fileio.algebra_to_doc(alg))
    assert fileio.algebra_from_doc(json.loads(text)) == alg


@settings(max_examples=30)
@given(st.data())
def test_random_tensor_round_trip(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    rank = data.draw(st.sampled_from([2, 3]))
    if rank == 2:
        grid = data.draw(
            st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
        )
        t = sa.tensor2_from_entries(grid)
    else:
        grid = data.draw(
            st.lists(
                st.lists(
                    st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n,
                ),
                min_size=n, max_size=n,
            )
        )
        t = sa.tensor3_from_entries(grid)
    text = fileio.dump_doc(fileio.tensor_to_doc(t))
    assert fileio.tensor_from_doc(json.loads(text)) == t


@settings(max_examples=30)
@given(st.data())
def test_random_map_round_trip(data):
    rows = data.draw(st.integers(min_value=1, max_value=3))
    cols = data.draw(st.integers(min_value=1, max_value=3))
    grid = data.draw(
        st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                 min_size=rows, max_size=rows)
    )
    T = sa.linmap(grid)
    text = fileio.dump_doc(fileio.map_to_doc(T))
    assert fileio.map_from_doc(json.loads(text)) == T


# ---------------------------------------------------------------------------
# diagnostics

def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,,}')
    with pytest.raises(fileio.FileFormatError) as err:
        fileio.read_algebra(path)
    assert "broken.json:1:" in str(err.value)


def test_bad_scalar_reports_field():
    doc = {"dim": 1, "ops": {"circ": [[1, 1, 1, "1/0"]]}}
    with pytest.raises(fileio.FileFormatError) as err:
        fileio.algebra_from_doc(doc)
    assert "ops.circ[0]" in str(err.value)


def test_out_of_range_index_rejected():
    doc = {"dim": 2, "ops": {"circ": [[3, 1, 1, "1"]]}}
    with pytest.raises(fileio.FileFormatError):
        fileio.algebra_from_doc(doc)


def test_unknown_operation_rejected():
    doc = {"dim": 1, "ops": {"mystery": []}}
    with pytest.raises(fileio.FileFormatError):
        fileio.algebra_from_doc(doc)


def test_duplicate_entry_rejected():
    doc = {"dim": 1, "ops": {"circ": [[1, 1, 1, "1"], [1, 1, 1, "2"]]}}
    with pytest.raises(fileio.FileFormatError):
        fileio.algebra_from_doc(doc)


def test_bad_rank_rejected():
    with pytest.raises(fileio.FileFormatError):
        fileio.tensor_from_doc({"dim": 2, "rank": 4, "entries": []})


def test_module_without_known_keys_rejected(p2):
    doc = {"base": fileio.algebra_to_doc(p2), "vdim": 2}
    with pytest.raises(fileio.FileFormatError):
        fileio.module_from_doc(doc)


def test_fractions_parse_in_reduced_and_unreduced_forms():
    doc = {"dim": 1, "ops": {"circ": [[1, 1, 1, "2/4"]]}}
    alg = fileio.algebra_from_doc(doc)
    assert alg.op("circ")[0][0][0] == Fraction(1, 2)


@pytest.mark.parametrize("doc, where", [
    ({"dim": True, "ops": {"circ": []}}, "algebra: bad 'dim'"),
    ({"dim": 2, "ops": {"circ": [[True, 1, 1, "1"]]}}, "algebra.ops.circ[0]: index"),
    ({"dim": 1, "ops": {"circ": [[1, 1, 1, True]]}}, "algebra.ops.circ[0]: bad rational true"),
])
def test_json_booleans_rejected(doc, where):
    with pytest.raises(fileio.FileFormatError, match=re.escape(where)):
        fileio.algebra_from_doc(doc)


def test_json_booleans_rejected_in_maps_tensors_and_modules(p2):
    with pytest.raises(fileio.FileFormatError, match="map: bad 'rows'"):
        fileio.map_from_doc({"rows": True, "cols": 1, "entries": []})
    with pytest.raises(fileio.FileFormatError, match=re.escape("map.entries[0]: bad rational")):
        fileio.map_from_doc({"rows": 1, "cols": 1, "entries": [[1, 1, False]]})
    with pytest.raises(fileio.FileFormatError, match=re.escape("tensor.entries[0]: index")):
        fileio.tensor_from_doc({"dim": 2, "rank": 2, "entries": [[1, True, "1"]]})
    with pytest.raises(fileio.FileFormatError, match="module: bad 'vdim'"):
        fileio.module_from_doc({"base": fileio.algebra_to_doc(p2), "vdim": True, "l": [], "r": []})


def test_cli_rejects_boolean_dim(tmp_path, capsys):
    from splitalg.cli import main

    path = tmp_path / "bool.alg.json"
    path.write_text('{"dim": true, "ops": {"circ": []}}')
    assert main(["check", "--class", "pre_lie", str(path)]) == 2
    assert "bad 'dim'" in capsys.readouterr().err


@pytest.mark.parametrize("reader, doc, where", [
    (fileio.map_from_doc, {"rows": 2, "cols": 2, "entries": [[1, 2, "1"], [1, 2, "5"]]},
     "map.entries[1]: duplicate entry at (1,2)"),
    (fileio.form_from_doc, {"gram": {"rows": 1, "cols": 1, "entries": [[1, 1, "1"], [1, 1, "1"]]}},
     "form.gram.entries[1]: duplicate entry at (1,1)"),
    (fileio.tensor_from_doc, {"dim": 2, "rank": 2, "entries": [[1, 1, "1"], [1, 1, "5"]]},
     "tensor: duplicate entry at (1,1)"),
    (fileio.tensor_from_doc, {"dim": 2, "rank": 3, "entries": [[1, 2, 1, "1"], [1, 2, 1, "1"]]},
     "tensor: duplicate entry at (1,2,1)"),
])
def test_duplicate_entries_rejected(reader, doc, where):
    with pytest.raises(fileio.FileFormatError, match=re.escape(where)):
        reader(doc)


@pytest.mark.parametrize("reader, text, where", [
    (fileio.read_algebra, '{"dim": 1000000000, "ops": {"circ": [[1, 1, 1, "1"]]}}', "bad 'dim'"),
    (fileio.read_map, '{"rows": 1, "cols": 1000000000, "entries": []}', "bad 'cols'"),
    (fileio.read_tensor, '{"dim": 1000000000, "rank": 3, "entries": []}', "bad 'dim'"),
])
def test_huge_dimension_rejected_before_allocation(tmp_path, reader, text, where):
    """A dim of 10**9 would need about 10**27 entries: rejected, within 1 MB."""
    path = tmp_path / "huge.json"
    path.write_text(text)
    tracemalloc.start()
    try:
        with pytest.raises(fileio.FileFormatError, match=re.escape(where)):
            reader(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dimension_cap_admits_the_limit():
    doc = {"rows": fileio.MAX_DIM, "cols": 1, "entries": []}
    assert fileio.map_from_doc(doc).rows == fileio.MAX_DIM
    with pytest.raises(fileio.FileFormatError, match="bad 'rows'"):
        fileio.map_from_doc({**doc, "rows": fileio.MAX_DIM + 1})


def _bounded(fn, path):
    """Run ``fn(path)`` expecting a FileFormatError naming the path; return
    the seconds and the traced peak bytes it took."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(fileio.FileFormatError, match=re.escape(str(path))) as info:
            fn(path)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return seconds, peak, str(info.value)


@pytest.mark.parametrize("reader, doc", [
    (fileio.read_algebra, {"dim": 1, "ops": {"circ": [[1, 1, 1, "1e999999999"]]}}),
    (fileio.read_map, {"rows": 1, "cols": 1, "entries": [[1, 1, "1E999999999"]]}),
    (fileio.read_tensor, {"dim": 1, "rank": 2, "entries": [[1, 1, "-2e999999999"]]}),
])
def test_exponent_scalar_rejected_cheaply(tmp_path, reader, doc):
    """Fraction would expand 1e999999999 into a 3.3-billion-bit integer."""
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    seconds, peak, message = _bounded(reader, path)
    assert "bad rational" in message and "exponent notation" in message
    assert seconds < 1 and peak < 1 << 20


@pytest.mark.parametrize("data, what", [
    (b"[" * 200_000, "nested too deeply"),
    (b'{"dim": 1, "ops": {"circ": [[1, 1, 1, "\xff"]]}}', "utf-8"),
    (b'{"dim": ' + b"1" * 5000 + b"}", "4300 digits"),
], ids=["deep-nesting", "invalid-utf8", "huge-int-literal"])
def test_undecodable_files_are_format_errors(tmp_path, data, what):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    for reader in (fileio.read_algebra, fileio.read_map, fileio.read_module):
        with pytest.raises(fileio.FileFormatError, match=re.escape(str(path))) as info:
            reader(path)
        assert what in str(info.value)
