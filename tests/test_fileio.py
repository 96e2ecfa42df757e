"""Canonical JSON formats: round trips, byte determinism, diagnostics."""

import copy
import json
import os
import re
import threading
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitalg as sa
from splitalg import catalog, fileio
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


def test_duplicate_structure_constant_is_located():
    """At dim 2 the two rows fit the grid, so the duplicate itself is found."""
    doc = {"dim": 2, "ops": {"circ": [[1, 1, 1, "1"], [1, 1, 1, "2"]]}}
    with pytest.raises(fileio.FileFormatError) as excinfo:
        fileio.algebra_from_doc(doc)
    assert str(excinfo.value) == "algebra: duplicate structure constant at (1,1,1)"


def test_bad_rank_rejected():
    with pytest.raises(fileio.FileFormatError):
        fileio.tensor_from_doc({"dim": 2, "rank": 4, "entries": []})


@pytest.mark.parametrize("entries", [5, "ab", {"a": 1}, None])
def test_tensor_entries_must_be_a_list(entries):
    with pytest.raises(fileio.FileFormatError, match=re.escape("tensor.entries: expected a list")):
        fileio.tensor_from_doc({"dim": 2, "rank": 2, "entries": entries})


@pytest.mark.parametrize("entries", [5, "ab", {"a": 1}, None])
def test_map_entries_must_be_a_list(p2, entries):
    sparse = {"rows": 2, "cols": 2, "entries": entries}
    with pytest.raises(fileio.FileFormatError, match=re.escape("map.entries: expected a list")):
        fileio.map_from_doc(sparse)
    with pytest.raises(fileio.FileFormatError,
                       match=re.escape("form.gram.entries: expected a list")):
        fileio.form_from_doc({"gram": sparse})
    doc = fileio.module_to_doc(regular_prelie_module(p2))
    doc["r"][1] = sparse
    with pytest.raises(fileio.FileFormatError,
                       match=re.escape("module.r[1].entries: expected a list")):
        fileio.module_from_doc(doc)


def test_module_without_known_keys_rejected(p2):
    doc = {"base": fileio.algebra_to_doc(p2), "vdim": 2}
    with pytest.raises(fileio.FileFormatError):
        fileio.module_from_doc(doc)


@pytest.mark.parametrize("ops, keys, message", [
    ({}, ("l", "r"), "missing 'circ', which a pre-Lie module needs"),
    ({"tri_r": []}, ("l", "r"), "missing 'circ', which a pre-Lie module needs"),
    ({"circ": []}, ("l_r", "r_r", "l_l", "r_l"), "missing 'tri_r', which an L-dendriform module needs"),
    ({"tri_r": []}, ("l_r", "r_r", "l_l", "r_l"), "missing 'tri_l', which an L-dendriform module needs"),
], ids=["pre-lie-no-ops", "pre-lie-without-circ", "ldend-without-tri_r", "ldend-without-tri_l"])
def test_module_base_without_the_op_its_kind_needs_names_the_field(tmp_path, ops, keys, message):
    one = {"rows": 1, "cols": 1, "entries": [[1, 1, 1]]}
    path = tmp_path / "m.module.json"
    path.write_text(json.dumps({"base": {"dim": 1, "ops": ops}, "vdim": 1,
                                **{key: [one] for key in keys}}))
    with pytest.raises(fileio.FileFormatError) as excinfo:
        fileio.read_module(path)
    assert str(excinfo.value) == f"{path}.base.ops: {message}"


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


@pytest.mark.parametrize("reader, doc, where", [
    (fileio.read_algebra, {"dim": 1, "ops": {"circ": [[1, 1, 1, "1"]] * 20_000}}, "ops.circ"),
    (fileio.read_tensor, {"dim": 1, "rank": 2, "entries": [[1, 1, "1"]] * 20_000}, "entries"),
    (fileio.read_tensor, {"dim": 1, "rank": 3, "entries": [[1, 1, 1, "1"]] * 20_000}, "entries"),
], ids=["algebra", "tensor2", "tensor3"])
def test_row_list_longer_than_its_grid_rejected_before_conversion(tmp_path, reader, doc, where):
    """20,000 copies of one row in a grid of one entry are refused by their
    count, before any row is converted: the reader's traced peak stays
    within 1.5x that of json.loads on the same text."""
    path = tmp_path / "rows.json"
    text = json.dumps(doc)
    path.write_text(text)
    tracemalloc.start()
    try:
        json.loads(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, peak, message = _bounded(reader, path)
    assert message == f"{path}.{where}: more rows (20000) than the grid has entries (1)"
    assert peak <= 1.5 * parse_peak


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


# ---------------------------------------------------------------------------
# bounds on a document's scalars and a file's size

CAP = fileio.MAX_SCALAR_BITS


def _algebra_doc(*scalars):
    return {"dim": 2, "ops": {"circ": [[1, 1, k + 1, x] for k, x in enumerate(scalars)]}}


def test_scalars_at_the_bit_cap_are_read(tmp_path):
    top = 2 ** CAP - 1                                       # CAP bits
    path = tmp_path / "cap.alg.json"
    path.write_text(json.dumps(_algebra_doc(f"{top}/{2 ** (CAP - 1)}", str(-top))))
    alg = fileio.read_algebra(path)
    assert alg.op("circ")[0][0] == (Fraction(top, 2 ** (CAP - 1)), -top)


@pytest.mark.parametrize("doc, message", [
    (_algebra_doc("1", str(2 ** CAP)),
     f"algebra.ops.circ[1]: numerator needs {CAP + 1} bits (at most {CAP})"),
    (_algebra_doc(f"-{2 ** CAP}/3"),
     f"algebra.ops.circ[0]: numerator needs {CAP + 1} bits (at most {CAP})"),
    (_algebra_doc(f"1/{2 ** (CAP - 1)}", "1/3"),
     f"algebra.ops.circ[1]: common denominator needs {CAP + 1} bits (at most {CAP})"),
    (_algebra_doc("1/" + "9" * 1000),
     f"algebra.ops.circ[0]: common denominator needs 3322 bits (at most {CAP})"),
])
def test_scalars_over_the_bit_cap_are_refused(doc, message):
    with pytest.raises(fileio.FileFormatError) as excinfo:
        fileio.algebra_from_doc(doc)
    assert str(excinfo.value) == message


def test_a_module_document_has_one_common_denominator(p2):
    """Each grid alone is within the cap; together they are not."""
    module = regular_prelie_module(p2)
    doc = fileio.module_to_doc(module)
    doc["base"]["ops"]["circ"][0][-1] = f"1/{2 ** (CAP - 1)}"
    doc["r"][1]["entries"][0][-1] = "1/3"
    with pytest.raises(fileio.FileFormatError) as excinfo:
        fileio.module_from_doc(doc)
    assert str(excinfo.value) == (
        f"module.r[1].entries[0]: common denominator needs {CAP + 1} bits (at most {CAP})")


_TOO_LONG = [[1, 1, str(2 ** CAP)]]


@pytest.mark.parametrize("reader, doc, where", [
    (fileio.map_from_doc, {"rows": 1, "cols": 1, "entries": _TOO_LONG}, "map.entries[0]"),
    (fileio.form_from_doc, {"gram": {"rows": 1, "cols": 1, "entries": _TOO_LONG}},
     "form.gram.entries[0]"),
    (fileio.tensor_from_doc, {"dim": 1, "rank": 2, "entries": _TOO_LONG}, "tensor.entries[0]"),
])
def test_every_reader_bounds_its_scalars(reader, doc, where):
    with pytest.raises(fileio.FileFormatError) as excinfo:
        reader(doc)
    assert str(excinfo.value) == f"{where}: numerator needs {CAP + 1} bits (at most {CAP})"


def test_file_over_the_byte_cap_is_refused_unread(tmp_path):
    path = tmp_path / "sparse.json"
    with open(path, "wb") as f:
        f.truncate(fileio.MAX_FILE_BYTES + 1)               # sparse: no blocks written
    tracemalloc.start()
    try:
        with pytest.raises(fileio.FileFormatError) as excinfo:
            fileio.read_algebra(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(excinfo.value) == f"{path}: larger than {fileio.MAX_FILE_BYTES} bytes"
    assert peak < 1 << 20


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("size", [64, 65, 100_000])
def test_a_pipe_is_read_to_one_byte_past_the_cap(tmp_path, monkeypatch, size):
    """fstat gives a pipe no size, so the reader stops one byte past the cap
    without waiting for the writer to finish."""
    monkeypatch.setattr(fileio, "MAX_FILE_BYTES", 64)
    text = json.dumps({"dim": 1, "ops": {}}).encode()
    path = tmp_path / "pipe.json"
    os.mkfifo(path)
    read = threading.Event()

    def write():
        try:
            with open(path, "wb") as w:
                w.write(text + b" " * (size - len(text)))
                w.flush()
                if size > 64:                               # hold the pipe open
                    read.wait(timeout=10)
        except BrokenPipeError:                             # the reader stopped at the cap
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    start = time.perf_counter()
    try:
        if size > 64:
            with pytest.raises(fileio.FileFormatError, match="larger than 64 bytes"):
                fileio.read_algebra(path)
            assert time.perf_counter() - start < 5
        else:
            assert fileio.read_algebra(path).dim == 1
    finally:
        read.set()
        writer.join(timeout=10)
    assert not writer.is_alive()


def _traced_peak(fn):
    """The traced memory peak of fn(), which may raise a FileFormatError."""
    tracemalloc.start()
    try:
        try:
            fn()
        except fileio.FileFormatError:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_an_empty_file_is_read_without_a_cap_sized_buffer(tmp_path):
    path = tmp_path / "empty.json"
    path.write_bytes(b"")
    with pytest.raises(fileio.FileFormatError, match="invalid JSON"):
        fileio.read_algebra(path)
    assert _traced_peak(lambda: fileio.read_algebra(path)) < 1 << 20


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_short_pipe_is_read_without_a_cap_sized_buffer(tmp_path):
    text = json.dumps({"dim": 1, "ops": {}}).encode()
    assert len(text) == 21
    path = tmp_path / "pipe.json"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(text,), daemon=True)
    writer.start()
    read = []
    peak = _traced_peak(lambda: read.append(fileio.read_algebra(path)))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert read[0].dim == 1 and peak < 1 << 20


def test_algebra_without_operations_is_written(tmp_path):
    path = tmp_path / "bare.alg.json"
    fileio.write_algebra(sa.Algebra(1, {}), path)
    assert path.read_text(encoding="utf-8") == '{\n  "dim": 1,\n  "ops": {}\n}\n'
    assert fileio.read_algebra(path) == sa.Algebra(1, {})


# ---------------------------------------------------------------------------
# mutated documents: a reader returns a value or refuses with a located error

def _module_doc(value) -> dict:
    """The document of a module, or of a Lie representation (base, rho)."""
    if isinstance(value, tuple):
        base, rho = value
        return {"base": fileio.algebra_to_doc(base), "vdim": rho[0].rows,
                "rho": [fileio.map_to_doc(m) for m in rho]}
    return fileio.module_to_doc(value)


def _valid_documents() -> list:
    """(reader, writer, document) for valid documents of every kind."""
    objects = [catalog.build(name) for name in catalog.CATALOG_NAMES]
    p2, l2, ld2 = catalog.p2(), catalog.l2(), catalog.ld2()
    out = [(fileio.algebra_from_doc, fileio.algebra_to_doc, obj)
           for obj in objects if isinstance(obj, sa.Algebra)]
    out += [(fileio.map_from_doc, fileio.map_to_doc, T)
            for T in (catalog.rb2(), sa.linmap([[1, 2, 3], [0, "1/2", 0]]))]
    out += [(fileio.tensor_from_doc, fileio.tensor_to_doc, t)
            for t in (catalog.build("LD2_CANONICAL_R"), sa.tensor2(2, [(1, 2, "-1/3")]),
                      sa.tensor3(2, [(1, 2, 1, "1/2"), (2, 2, 2, -1)]))]
    out += [(fileio.form_from_doc, fileio.form_to_doc, sa.bilinear_form([[1, "1/2"], [-1, 0]]))]
    out += [(fileio.module_from_doc, _module_doc, m)
            for m in (regular_prelie_module(p2), regular_ldend_module(ld2),
                      (l2, sa.adjoint_family(l2)))]
    return [(reader, writer, writer(obj)) for reader, writer, obj in out]


_DOCUMENTS = _valid_documents()

#: what a mutation puts into a document: every JSON type, numbers at and past
#: the bounds, and strings that are and are not rationals or op names
_ATOMS = (0, 1, 2, -1, 65, 2 ** 300, 1.5, True, False, None, "", "x", "1/0", "2/3", "1e9",
          "tri_r", [], {})


def _nodes(node, path=()):
    """The path of every node of a document, the node's own first."""
    yield path, node
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, (*path, key))


def _mutate(data, doc):
    """``doc`` after one drawn mutation: a node replaced by an atom or by a
    copy of another node, a key deleted, or a list element duplicated or
    inserted.  The document is the only element of a holder list, so that
    the whole document can be replaced too."""
    holder = [doc]
    nodes = list(_nodes(holder))
    parents = dict(nodes)
    kinds = {
        "atom": [path for path, _ in nodes if path],
        "copy": [path for path, _ in nodes if path],
        "delete": [path for path, _ in nodes if len(path) > 1
                   and isinstance(parents[path[:-1]], dict)],
        "duplicate": [path for path, _ in nodes if len(path) > 1
                      and isinstance(parents[path[:-1]], list)],
        "insert": [path for path, node in nodes if path and isinstance(node, list)],
    }
    kind = data.draw(st.sampled_from([k for k, paths in kinds.items() if paths]))
    path = data.draw(st.sampled_from(kinds[kind]))
    parent, key, node = parents[path[:-1]], path[-1], parents[path]
    if kind == "atom":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(_ATOMS)))
    elif kind == "copy":
        parent[key] = copy.deepcopy(parents[data.draw(st.sampled_from(kinds["copy"]))])
    elif kind == "delete":
        del parent[key]
    elif kind == "duplicate":
        parent.insert(key, copy.deepcopy(node))
    else:
        node.insert(data.draw(st.integers(0, len(node))),
                    copy.deepcopy(data.draw(st.sampled_from(_ATOMS))))
    return holder[0]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_documents_read_as_values_or_located_errors(data):
    """Every valid document of every kind, after 1-3 drawn mutations, either
    reads as a value whose written document reads back equal, or is refused
    with a FileFormatError whose message starts with the document's name and
    stays under 1 KB."""
    where = "mutated.json"
    for reader, writer, doc in _DOCUMENTS:
        doc = copy.deepcopy(doc)
        for _ in range(data.draw(st.integers(1, 3))):
            doc = _mutate(data, doc)
        try:
            value = reader(doc, where)
        except fileio.FileFormatError as exc:
            message = str(exc)
            assert message.startswith(where), message
            assert len(message.encode()) < 1024, message[:200]
        else:
            assert reader(writer(value), where) == value
