"""Core machinery: exact vectors, tables, maps, tensors, forms."""

import pickle
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitalg as sa
from splitalg import catalog
from splitalg.core import derive, slot_sum, table_apply

from naive_checks import table_add, table_flip, table_sub
from naive_tensor import naive_slot_product


# ---------------------------------------------------------------------------
# strategies

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_dims = st.integers(min_value=1, max_value=3)


@st.composite
def tensors2(draw, dim=None):
    n = dim if dim is not None else draw(small_dims)
    entries = draw(
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    return sa.tensor2_from_entries(entries)


@st.composite
def tables(draw, dim):
    rows = draw(
        st.lists(
            st.lists(
                st.lists(rationals, min_size=dim, max_size=dim),
                min_size=dim, max_size=dim,
            ),
            min_size=dim, max_size=dim,
        )
    )
    return tuple(tuple(tuple(x for x in row) for row in plane) for plane in rows)


@st.composite
def algebras_with(draw, op_name):
    n = draw(small_dims)
    return sa.Algebra(n, {op_name: draw(tables(n))})


@st.composite
def square_maps(draw, dim=None):
    n = dim if dim is not None else draw(small_dims)
    return sa.linmap(
        draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n))
    )


# ---------------------------------------------------------------------------
# scalars and algebra construction

def test_rat_coercion():
    assert sa.rat("3/6") == Fraction(1, 2)
    assert sa.rat(-2) == Fraction(-2)
    assert sa.rat(Fraction(5, 7)) == Fraction(5, 7)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        sa.rat(0.5)


@pytest.mark.parametrize("text", ["1e6", "1E6", "2.5e-3", "1e999999999", "-3/4e2"])
def test_rat_rejects_exponents(text):
    with pytest.raises(ValueError, match="exponent notation"):
        sa.rat(text)
    assert sa.rat("-1.25") == Fraction(-5, 4)      # decimals stay exact


def test_table_apply_output_follows_the_table_vectors():
    # an action table of a 1-dim base on a 2-dim space: [a][w] = l(e_a) f_w
    acts = (((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))),)
    assert sa.core.table_apply(acts, (Fraction(2),), (Fraction(1), Fraction(1))) == (8, 12)


def test_booleans_and_non_int_indices_rejected():
    with pytest.raises(TypeError):
        sa.rat(True)
    with pytest.raises(TypeError):
        sa.algebra(2, {"circ": [(1, 1, 1, True)]})
    with pytest.raises(TypeError):
        sa.linmap([[False, 1]])
    with pytest.raises(TypeError, match=r"index \(True,1,1\) must be ints"):
        sa.algebra(2, {"circ": [(True, 1, 1, 1)]})
    with pytest.raises(TypeError, match="must be ints"):
        sa.tensor2(2, [(1, 1.0, 1)])
    with pytest.raises(TypeError, match="must be ints"):
        sa.tensor3(2, [(1, 1, Fraction(1), 1)])


@pytest.mark.parametrize("bad", [0.5, True, "1"])
@pytest.mark.parametrize("build", [
    lambda x: sa.Algebra(1, {"circ": (((x,),),)}),
    lambda x: sa.LinearMap(1, 2, ((Fraction(1), x),)),
    lambda x: sa.Tensor2(1, ((x,),)),
    lambda x: sa.Tensor3(1, (((x,),),)),
    lambda x: sa.BilinearForm(1, ((x,),)),
], ids=["Algebra", "LinearMap", "Tensor2", "Tensor3", "BilinearForm"])
def test_value_constructors_refuse_inexact_entries(build, bad):
    """Floats, booleans and strings never reach the integer kernels, which
    read numerators and denominators."""
    with pytest.raises(TypeError, match=f"not an exact rational: {bad!r}"):
        build(bad)
    assert build(Fraction(1, 2)) == build(Fraction(1, 2))
    assert build(3) == build(Fraction(3))


def test_out_of_range_index_message():
    with pytest.raises(sa.DimensionMismatch, match=r"index \(1,3,1\) outside 1\.\.2"):
        sa.algebra(2, {"circ": [(1, 3, 1, 1)]})
    with pytest.raises(sa.DimensionMismatch, match=r"index \(0,1\) outside 1\.\.2"):
        sa.tensor2(2, [(0, 1, 1)])
    with pytest.raises(sa.DimensionMismatch, match=r"index \(1,1,3\) outside 1\.\.2"):
        sa.tensor3(2, [(1, 1, 3, 1)])


def test_algebra_vocabulary_is_closed():
    with pytest.raises(sa.UnknownOperation):
        sa.zero_algebra(2, ("frobnicate",))


def test_algebra_table_shape_checked():
    bad = ((((Fraction(0),),),),)
    with pytest.raises(sa.DimensionMismatch):
        sa.Algebra(2, {"circ": bad})


def test_duplicate_structure_constant_rejected():
    with pytest.raises(ValueError):
        sa.algebra(2, {"circ": [(1, 1, 1, 1), (1, 1, 1, 2)]})


def test_duplicate_tensor_entry_rejected():
    with pytest.raises(ValueError, match=r"duplicate entry at \(1,1\)"):
        sa.tensor2(2, [(1, 1, 1), (1, 1, 5)])
    with pytest.raises(ValueError, match=r"duplicate entry at \(2,1,2\)"):
        sa.tensor3(2, [(2, 1, 2, 1), (1, 1, 1, 1), (2, 1, 2, "1/2")])


@pytest.mark.parametrize("row, kind, message", [
    ((1, 1), ValueError, "structure constant row has 2 fields, not 4"),
    ((1.0, 1, 1, 1), TypeError, "index (1.0,1,1) must be ints"),
    ((1, 3, 1, 1), sa.DimensionMismatch, "index (1,3,1) outside 1..2"),
    ((2, 1, 2, 1), ValueError, "duplicate structure constant at (2,1,2)"),
    ((1, 1, 1, 0.5), TypeError, "not an exact rational: 0.5"),
    ((1, 1, 1, "x"), ValueError, "Invalid literal for Fraction: 'x'"),
    ((1, 1, 1, "1/0"), ZeroDivisionError, "Fraction(1, 0)"),
], ids=["fields", "int", "range", "duplicate", "float", "literal", "zero-denominator"])
def test_algebra_refusals_name_the_op(row, kind, message):
    """Each refusal of a sparse row by ``algebra`` keeps its type and names
    the op, as ``Algebra`` does for a dense table."""
    with pytest.raises(kind) as excinfo:
        sa.algebra(2, {"circ": [(1, 1, 1, 1)], "bullet": [(2, 1, 2, 1), row]})
    assert type(excinfo.value) is kind
    assert str(excinfo.value) == f"table 'bullet': {message}"


@pytest.mark.parametrize("build, message", [
    (lambda: sa.algebra("2", {"circ": [(1, 1, 1, 1)]}),
     "table 'circ': dimension must be an int, got '2'"),
    (lambda: sa.tensor2(2.0, [(1, 1, 1)]), "dimension must be an int, got 2.0"),
    (lambda: sa.tensor2(2, [5]), "entry row must be a sequence, got 5"),
    (lambda: sa.algebra(2, {"circ": [None]}),
     "table 'circ': structure constant row must be a sequence, got None"),
], ids=["algebra-str-dim", "tensor2-float-dim", "tensor2-int-row", "algebra-none-row"])
def test_sparse_builders_refuse_wrong_types_in_their_own_words(build, message):
    """A dimension that is not an int, or a row that is not a sequence, is
    refused as a TypeError before either is used, with the builders' own
    message rather than one from Python internals."""
    with pytest.raises(TypeError) as excinfo:
        build()
    assert type(excinfo.value) is TypeError and str(excinfo.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: sa.algebra(2, {"circ": 5}), "table 'circ': structure constant rows must be "
                                         "iterable, got 5"),
    (lambda: sa.tensor2(2, 5), "entry rows must be iterable, got 5"),
    (lambda: sa.tensor3(2, 5), "entry rows must be iterable, got 5"),
    (lambda: sa.algebra(2, [(1, 1, 1, 1)]),
     "ops must be a mapping of op names to rows, got [(1, 1, 1, 1)]"),
    (lambda: sa.linmap(5), "linear map must be iterable, got 5"),
    (lambda: sa.bilinear_form([[1, 2], 3]), "gram matrix row must be iterable, got 3"),
    (lambda: sa.tensor2_from_entries(5), "tensor must be iterable, got 5"),
    (lambda: sa.tensor3_from_entries(5), "tensor must be iterable, got 5"),
    (lambda: sa.tensor3_from_entries([[[1]], [5]]), "tensor row must be iterable, got 5"),
], ids=["algebra-int-rows", "tensor2-int-rows", "tensor3-int-rows", "algebra-list-ops",
        "linmap-int", "form-int-row", "tensor2-int", "tensor3-int", "tensor3-int-row"])
def test_builders_refuse_what_is_not_rows_in_their_own_words(build, message):
    """A row list, an ops mapping or a dense grid of the wrong type is
    refused by the builder's own check, as a TypeError naming what it
    expected, not by a Python internal that happened to touch it."""
    with pytest.raises(TypeError) as excinfo:
        build()
    assert type(excinfo.value) is TypeError and str(excinfo.value) == message


def test_sparse_rows_of_the_wrong_length_rejected():
    with pytest.raises(ValueError):
        sa.algebra(2, {"circ": [(1, 1, 1)]})
    with pytest.raises(ValueError):
        sa.tensor2(2, [(1, 1, 1, 1)])
    with pytest.raises(ValueError):
        sa.tensor3(2, [(1, 1, 1)])


@settings(max_examples=60)
@given(st.data())
def test_tensor_arithmetic_is_entrywise(data):
    """+, - and unary - of both tensor ranks act entry by entry, and the
    sparse builders and nonzero_entries invert each other."""
    n = data.draw(small_dims)
    for rank, build in ((2, sa.tensor2), (3, sa.tensor3)):
        index = st.tuples(*[st.integers(1, n)] * rank)
        a, b = (data.draw(st.dictionaries(index, rationals.filter(bool), max_size=5))
                for _ in range(2))
        ta, tb = (build(n, [(*i, v) for i, v in d.items()]) for d in (a, b))
        assert dict(ta.nonzero_entries()) == a
        assert list(ta.nonzero_entries()) == sorted(a.items())
        total = {i: a.get(i, 0) + b.get(i, 0) for i in a.keys() | b.keys()}
        assert dict((ta + tb).nonzero_entries()) == {i: v for i, v in total.items() if v}
        assert ta - tb == ta + (-tb)
        assert (-ta).is_zero == (not a) and (ta - ta).is_zero
        assert type(ta + tb) is type(ta)
    assert not hasattr(sa.tensor2(1), "nonzero_count")


def test_catalog_names_and_unknown_name():
    assert catalog.CATALOG_NAMES == (
        "Z2", "P1", "P2", "N2", "L2", "RB2", "LD2", "D1",
        "LD2_VERT", "LD2_HOR", "LD2_LIE",
        "LD2_DOUBLE_VERT", "LD2_DOUBLE_HOR", "LD2_CANONICAL_R",
    )
    with pytest.raises(KeyError, match="unknown catalog fixture 'X9'"):
        catalog.build("X9")


@pytest.mark.parametrize("build, stored, rank", [
    (lambda g: sa.Algebra(2, {"circ": g}), lambda v: v.ops["circ"], 3),
    (lambda g: sa.LinearMap(2, 2, g), lambda v: v.entries, 2),
    (lambda g: sa.Tensor2(2, g), lambda v: v.entries, 2),
    (lambda g: sa.Tensor3(2, g), lambda v: v.entries, 3),
    (lambda g: sa.BilinearForm(2, g), lambda v: v.gram, 2),
], ids=["Algebra", "LinearMap", "Tensor2", "Tensor3", "BilinearForm"])
def test_values_built_from_lists_are_values(build, stored, rank):
    """A grid given as nested lists is stored as nested tuples: the value
    equals and hashes like the tuple-built one, and changing the source list
    afterwards does not reach it.  A tuple grid is kept as it is."""
    grid = ((Fraction(1, 2), 0), (3, Fraction(-1)))
    lists = [list(row) for row in grid]
    if rank == 3:
        grid = (grid, tuple(tuple(-x for x in row) for row in grid))
        lists = [lists, [[-x for x in row] for row in grid[0]]]
    from_lists, from_tuples = build(lists), build(grid)
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    (lists[0][0] if rank == 3 else lists[0])[0] = Fraction(7)
    lists.append(lists[0])
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert stored(from_tuples) is grid


def _levels(grid, rank):
    """The types of a grid and of its rows at every level above the entries."""
    kinds, level = {type(grid)}, [grid]
    for _ in range(rank - 1):
        level = list(chain.from_iterable(level))
        kinds.update(map(type, level))
    return kinds


@pytest.mark.parametrize("grid, shape", [
    (([1, 2], (3, 4)), (2, 2)),
    ((((1,), (2,)), ((3,), [4])), (2, 2, 1)),
    ((((1, 2),), [(3, 4)]), (2, 1, 2)),
    (([], []), (2, 0)),
], ids=["list-row", "deep-list-row", "list-plane", "empty-list-rows"])
def test_grids_with_a_list_below_the_top_are_copied(grid, shape):
    """A list at any level, not only the top one, makes the stored grid a
    copy nested in tuples throughout."""
    stored = sa.core.check_grid(grid, shape, "mismatch", "grid")
    assert stored is not grid and stored == sa.core._entrywise(lambda x: x, len(shape), grid)
    assert _levels(stored, len(shape)) == {tuple}


@pytest.mark.parametrize("build, message", [
    (lambda n: sa.Algebra(n, {"circ": (((1,),),)}), "dimension must be an int, got {!r}"),
    (lambda n: sa.LinearMap(n, 1, ((1,),)), "rows must be an int, got {!r}"),
    (lambda n: sa.LinearMap(1, n, ((1,),)), "cols must be an int, got {!r}"),
    (lambda n: sa.Tensor2(n, ((1,),)), "dimension must be an int, got {!r}"),
    (lambda n: sa.Tensor3(n, (((1,),),)), "dimension must be an int, got {!r}"),
    (lambda n: sa.BilinearForm(n, ((1,),)), "dimension must be an int, got {!r}"),
], ids=["Algebra", "LinearMap-rows", "LinearMap-cols", "Tensor2", "Tensor3", "BilinearForm"])
@pytest.mark.parametrize("size", [True, 1.0, "1", Fraction(1)], ids=repr)
def test_sizes_must_be_ints(build, message, size):
    """A size equal to 1 but not an int is refused before the grid is read,
    so ``True`` is never written out as a dimension and ``1.0`` never
    reaches the integer kernels."""
    with pytest.raises(TypeError) as excinfo:
        build(size)
    assert str(excinfo.value) == message.format(size)
    assert build(1) == build(1)


def test_algebra_hash_agrees_with_equality(p2):
    again = catalog.build("P2")
    assert again == p2 and hash(again) == hash(p2)
    retagged = sa.Algebra(2, dict(p2.ops), "other tag")
    assert retagged == p2 and hash(retagged) == hash(p2)      # class_tag is ignored
    assert len({p2, again, retagged, catalog.build("N2")}) == 2


def test_rename_and_merge(ld2):
    renamed = sa.rename_ops(ld2, {"tri_r": "succ", "tri_l": "prec"})
    assert renamed.has_op("succ") and not renamed.has_op("tri_r")
    merged = sa.merge_ops(
        sa.Algebra(2, {"circ": ld2.op("tri_r")}), sa.Algebra(2, {"bracket": ld2.op("tri_l")})
    )
    assert set(merged.ops) == {"circ", "bracket"}
    with pytest.raises(ValueError):
        sa.merge_ops(renamed, renamed)


# ---------------------------------------------------------------------------
# multiply

def test_multiply_zero_algebra(z2):
    assert sa.multiply(z2, "circ", (1, 2), (3, 4)) == (0, 0)


def test_multiply_p2_reads_table(p2):
    e1, e2 = (1, 0), (0, 1)
    assert sa.multiply(p2, "circ", e1, e2) == (0, 1)      # e1 o e2 = e2
    assert sa.multiply(p2, "circ", e2, e2) == (0, 0)      # absent entry is zero


def test_multiply_errors(p2):
    with pytest.raises(sa.UnknownOperation):
        sa.multiply(p2, "bracket", (1, 0), (0, 1))
    with pytest.raises(sa.DimensionMismatch):
        sa.multiply(p2, "circ", (1, 0, 0), (0, 1))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_multiply_is_bilinear(data):
    alg = data.draw(algebras_with("circ"))
    n = alg.dim
    vec = st.lists(rationals, min_size=n, max_size=n)
    x = data.draw(vec)
    y = data.draw(vec)
    z = data.draw(vec)
    c = data.draw(rationals)
    left = sa.multiply(alg, "circ", [c * a + b for a, b in zip(x, y)], z)
    right = tuple(
        c * p + q
        for p, q in zip(sa.multiply(alg, "circ", x, z), sa.multiply(alg, "circ", y, z))
    )
    assert left == right
    left = sa.multiply(alg, "circ", z, [c * a + b for a, b in zip(x, y)])
    right = tuple(
        c * p + q
        for p, q in zip(sa.multiply(alg, "circ", z, x), sa.multiply(alg, "circ", z, y))
    )
    assert left == right


# ---------------------------------------------------------------------------
# slot products

def test_slot_product_zero(p2):
    r = sa.tensor2(2)
    assert sa.slot_product(r, (1, 2), r, (1, 3), p2, "circ").is_zero


def test_slot_product_dim1(p1):
    r = sa.tensor2(1, [(1, 1, 1)])
    out = sa.slot_product(r, (1, 2), r, (1, 3), p1, "circ")
    assert out.entries[0][0][0] == 1


def test_slot_product_p2_single_term(p2):
    # r = e1 (x) e2: r12 o r13 = (e1 o e1) (x) e2 (x) e2 -> entry (1,2,2)
    r = sa.tensor2(2, [(1, 2, 1)])
    out = sa.slot_product(r, (1, 2), r, (1, 3), p2, "circ")
    assert list(out.nonzero_entries()) == [((1, 2, 2), Fraction(1))]


def test_slot_product_shared_slot_convention(p2):
    # slots (2,3) x (1,2) realize  sum a_j (x) a_i o b_j (x) b_i
    r = sa.tensor2(2, [(1, 2, 1)])
    out = sa.slot_product(r, (2, 3), r, (1, 2), p2, "circ")
    # single term: a=e1 b=e2 twice; slot2 gets a_i o b_j = e1 o e2 = e2
    assert list(out.nonzero_entries()) == [((1, 2, 2), Fraction(1))]


def test_slot_product_errors(p2):
    r = sa.tensor2(2)
    with pytest.raises(ValueError):
        sa.slot_product(r, (1, 2), r, (1, 2), p2, "circ")
    with pytest.raises(ValueError):
        sa.slot_product(r, (1, 1), r, (1, 3), p2, "circ")
    with pytest.raises(sa.DimensionMismatch):
        sa.slot_product(sa.tensor2(3), (1, 2), sa.tensor2(3), (1, 3), p2, "circ")


def test_kernel_built_tensors_equal_checked_ones(p2, monkeypatch):
    """slot_sum builds its result without the constructor's checks; the value
    is the one Tensor3 builds from the same grid, and the public constructor
    still refuses inexact entries."""
    r = sa.tensor2(2, [(1, 2, 1), (2, 1, Fraction(1, 3)), (2, 2, -2)])
    zero = sa.tensor2(2)
    expected = [sa.slot_product(r, (1, 2), r, (1, 3), p2, "circ"),
                sa.slot_product(zero, (2, 3), r, (1, 2), p2, "circ")]
    monkeypatch.setattr(sa.core, "check_grid", None)
    built = [sa.slot_product(r, (1, 2), r, (1, 3), p2, "circ"),
             sa.slot_product(zero, (2, 3), r, (1, 2), p2, "circ")]
    monkeypatch.undo()
    assert not built[0].is_zero and built[1].is_zero
    for ours, old in zip(built, expected):
        checked = sa.Tensor3(ours.dim, ours.entries)
        assert ours == checked and checked == ours and ours == old
        assert hash(ours) == hash(checked) and repr(ours) == repr(checked)
        assert pickle.loads(pickle.dumps(ours)) == checked
    for bad in (0.5, True):
        with pytest.raises(TypeError, match="not an exact rational"):
            sa.Tensor3(1, (((bad,),),))


_SLOT_PAIRS = [
    ((1, 2), (1, 3)), ((1, 2), (2, 3)), ((1, 3), (2, 3)),
    ((2, 3), (1, 2)), ((1, 3), (1, 2)), ((2, 3), (1, 3)),
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_slot_product_matches_naive_oracle(data):
    alg = data.draw(algebras_with("circ"))
    n = alg.dim
    r = data.draw(tensors2(dim=n))
    s = data.draw(tensors2(dim=n))
    left_slots, right_slots = data.draw(st.sampled_from(_SLOT_PAIRS))
    ours = sa.slot_product(r, left_slots, s, right_slots, alg, "circ")
    naive = naive_slot_product(
        [list(row) for row in r.entries], left_slots,
        [list(row) for row in s.entries], right_slots,
        [[list(v) for v in plane] for plane in alg.op("circ")],
    )
    assert [[list(v) for v in plane] for plane in ours.entries] == naive


@st.composite
def sparse_tensors(draw, n, dens, numerators):
    """An n x n tensor with mostly zero rows, its nonzero entries
    ``numerators`` over one of ``dens``: entries that never reduce, so the
    tensor's denominator is the drawn one."""
    d = draw(st.sampled_from(dens))
    rows = draw(st.lists(st.sampled_from((False, False, True)), min_size=n, max_size=n))
    return sa.Tensor2(n, tuple(
        tuple(Fraction(draw(st.sampled_from((0,) + numerators)), d) if live else Fraction(0)
              for _ in range(n)) for live in rows))


@st.composite
def sparse_slot_cases(draw):
    """A circ table of dim 1-6 whose product vectors are mostly zero, and
    two sparse tensors r and s over different denominators (2 or 4, and 3
    or 5), the table over 1 or 7."""
    n = draw(st.integers(1, 6))
    d = draw(st.sampled_from((1, 7)))
    live = draw(st.lists(st.sampled_from((False, False, False, True)), min_size=n * n,
                         max_size=n * n))
    table = tuple(tuple(
        tuple(Fraction(draw(st.integers(-2, 2)), d) for _ in range(n)) if live[u * n + v]
        else (Fraction(0),) * n for v in range(n)) for u in range(n))
    r = draw(sparse_tensors(n, (2, 4), (-3, -1, 1, 3)))
    s = draw(sparse_tensors(n, (3, 5), (-2, -1, 1, 2)))
    return sa.Algebra(n, {"circ": table}), r, s


def _lists(grid):
    return [_lists(row) for row in grid] if isinstance(grid, tuple) else grid


@settings(max_examples=60, deadline=None)
@given(sparse_slot_cases())
def test_slot_sums_on_kept_supports_match_the_oracle(case):
    """slot_product for every slot pair of _SLOT_PAIRS and one slot_sum of
    all of them with alternating signs, each called twice on the same
    values (the second call reads the kept int forms and table supports),
    against the naive oracle; then the same calls on a pickled copy of the
    inputs, which carries none of the forms the calls kept."""
    alg, r, s = case
    table = _lists(alg.op("circ"))
    oracle = {pair: naive_slot_product(_lists(r.entries), pair[0], _lists(s.entries), pair[1],
                                       table) for pair in _SLOT_PAIRS}
    signed = [(sign, pair) for sign, pair in zip((1, -1) * 3, _SLOT_PAIRS)]
    oracle["sum"] = [[[sum(sign * oracle[pair][i][j][k] for sign, pair in signed)
                       for k in range(alg.dim)] for j in range(alg.dim)] for i in range(alg.dim)]

    def calls(alg, r, s):
        out = {pair: sa.slot_product(r, pair[0], s, pair[1], alg, "circ") for pair in _SLOT_PAIRS}
        out["sum"] = slot_sum([(sign, r, left, s, right, "circ")
                               for sign, (left, right) in signed], alg)
        return out

    first, second = calls(alg, r, s), calls(alg, r, s)
    for key, expected in oracle.items():
        assert _lists(first[key].entries) == _lists(second[key].entries) == expected, key
    copies = pickle.loads(pickle.dumps((alg, r, s)))
    assert "_int_form" in vars(alg) and all("_ints" in vars(x) for x in (r, s))
    assert all("_int_form" not in vars(x) and "_ints" not in vars(x) for x in copies)
    assert calls(*copies) == first


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_slot_product_is_bilinear(data):
    alg = data.draw(algebras_with("circ"))
    n = alg.dim
    r1 = data.draw(tensors2(dim=n))
    r2 = data.draw(tensors2(dim=n))
    s = data.draw(tensors2(dim=n))
    c = data.draw(rationals)
    combo = sa.tensor2_from_entries(
        [[c * a + b for a, b in zip(ra, rb)] for ra, rb in zip(r1.entries, r2.entries)]
    )
    lhs = sa.slot_product(combo, (1, 2), s, (2, 3), alg, "circ")
    t1 = sa.slot_product(r1, (1, 2), s, (2, 3), alg, "circ")
    t2 = sa.slot_product(r2, (1, 2), s, (2, 3), alg, "circ")
    scaled = sa.tensor3_from_entries(
        [[[c * x for x in row] for row in plane] for plane in t1.entries]
    )
    assert lhs == scaled + t2
    # and in the right argument
    lhs = sa.slot_product(s, (1, 2), combo, (2, 3), alg, "circ")
    t1 = sa.slot_product(s, (1, 2), r1, (2, 3), alg, "circ")
    t2 = sa.slot_product(s, (1, 2), r2, (2, 3), alg, "circ")
    scaled = sa.tensor3_from_entries(
        [[[c * x for x in row] for row in plane] for plane in t1.entries]
    )
    assert lhs == scaled + t2


# ---------------------------------------------------------------------------
# exchange

def test_exchange_examples():
    r = sa.tensor2(2, [(1, 2, 1)])
    assert sa.exchange(r) == sa.tensor2(2, [(2, 1, 1)])
    sym = sa.tensor2(2, [(1, 2, 5), (2, 1, 5), (1, 1, 2)])
    assert sa.exchange(sym) == sym
    skew = sa.tensor2(2, [(1, 2, 3), (2, 1, -3)])
    assert sa.exchange(skew) == -skew


@settings(max_examples=60)
@given(tensors2())
def test_exchange_is_involution(r):
    assert sa.exchange(sa.exchange(r)) == r


# ---------------------------------------------------------------------------
# tensor / map / form identifications

def test_tensor_to_map_examples():
    assert sa.tensor_to_map(sa.tensor2(2)) == sa.LinearMap.zero(2, 2)
    diag = sa.tensor2(3, [(1, 1, 1), (2, 2, 1), (3, 3, 1)])
    assert sa.tensor_to_map(diag) == sa.LinearMap.identity(3)
    r = sa.tensor2(2, [(1, 2, 1)])
    T = sa.tensor_to_map(r)
    assert T.apply((1, 0)) == (0, 1)      # e1* -> e2
    assert T.apply((0, 1)) == (0, 0)      # e2* -> 0


@settings(max_examples=60)
@given(tensors2())
def test_tensor_to_map_exchange_is_transpose(r):
    assert sa.tensor_to_map(sa.exchange(r)) == sa.tensor_to_map(r).transpose()


def test_map_to_tensor_round_trip():
    r = sa.tensor2(2, [(1, 2, Fraction(3, 4)), (2, 2, -1)])
    assert sa.map_to_tensor(sa.tensor_to_map(r)) == r


def test_form_from_invertible_map_examples():
    assert sa.form_from_invertible_map(sa.LinearMap.identity(2)).gram == sa.LinearMap.identity(2).entries
    half = sa.form_from_invertible_map(sa.LinearMap.identity(2).scale(2))
    assert half.gram == ((Fraction(1, 2), 0), (0, Fraction(1, 2)))
    swap = sa.linmap([[0, 1], [1, 0]])
    assert sa.form_from_invertible_map(swap).gram == ((0, 1), (1, 0))
    with pytest.raises(sa.SingularMap):
        sa.form_from_invertible_map(sa.linmap([[1, 0], [0, 0]]))


@settings(max_examples=40)
@given(square_maps())
def test_form_map_round_trip(T):
    if not T.is_invertible:
        return
    B = sa.form_from_invertible_map(T)
    assert sa.map_from_form(B) == T
    # the defining pairing: B(e_i, e_j) = <T^-1 e_i, e_j>
    inv = T.inverse()
    for i in range(T.rows):
        for j in range(T.rows):
            assert B.gram[i][j] == inv.column(i)[j]


# ---------------------------------------------------------------------------
# derived products

def test_derive_examples():
    t = sa.algebra(2, {"circ": [(1, 2, 1, 3), (2, 1, 2, "1/2")]}).op("circ")
    u = sa.algebra(2, {"circ": [(1, 2, 2, 1), (2, 2, 1, -1)]}).op("circ")
    tables = {"circ": t, "bullet": u}
    assert derive(tables, ((1, "circ", False),)) == t
    assert derive(tables, ((1, "circ", True),)) == table_flip(t)
    assert derive(tables, ((1, "circ", False), (1, "bullet", False))) == table_add(t, u)
    assert derive(tables, ((1, "circ", False), (-1, "bullet", True))) == table_sub(t, table_flip(u))
    assert derive(tables, ((-1, "circ", False), (1, "bullet", False))) == table_sub(u, t)
    # [x, y] = x o y - y o x
    assert derive(tables, ((1, "circ", False), (-1, "circ", True))) == ((
        (0, 0), (3, Fraction(-1, 2))), ((-3, Fraction(1, 2)), (0, 0)))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_derive_matches_table_combinators(data):
    n = data.draw(small_dims)
    names = ("circ", "bullet", "tri_r")
    grids = {name: data.draw(tables(n)) for name in names}
    if data.draw(st.booleans()):        # int tables, as the checks pass them
        grids = {name: tuple(tuple(tuple(int(x * 12) for x in vec) for vec in plane)
                             for plane in t) for name, t in grids.items()}
    parts = data.draw(st.lists(st.tuples(st.sampled_from((1, -1)), st.sampled_from(names),
                                         st.booleans()), min_size=1, max_size=4))
    expected = None
    for sign, name, flipped in parts:
        t = table_flip(grids[name]) if flipped else grids[name]
        if expected is None:
            expected = t if sign > 0 else table_sub(table_sub(t, t), t)
        else:
            expected = table_add(expected, t) if sign > 0 else table_sub(expected, t)
    out = derive(grids, parts)
    assert out == expected
    entry_types = {type(x) for plane in out for vec in plane for x in vec}
    assert entry_types == {type(grids["circ"][0][0][0])}


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_functor_tables_match_table_combinators(data):
    n = data.draw(small_dims)
    a, b = data.draw(tables(n)), data.draw(tables(n))
    ld = sa.Algebra(n, {"tri_r": a, "tri_l": b})
    assert sa.vertical_prelie(ld).op("circ") == table_sub(a, table_flip(b))
    assert sa.horizontal_prelie(ld).op("bullet") == table_add(a, b)
    assert sa.transpose(ld).ops == {"tri_r": a, "tri_l": table_sub(table_sub(b, b), table_flip(b))}
    assert sa.sub_adjacent_lie(sa.Algebra(n, {"circ": a})).op("bracket") == table_sub(a, table_flip(a))
    out = sa.dendriform_to_ldend(sa.Algebra(n, {"succ": a, "prec": b}))
    assert out.ops == {"tri_r": a, "tri_l": b}


# ---------------------------------------------------------------------------
# dual representations

def test_dual_rep_examples():
    zero = (sa.LinearMap.zero(2, 2),)
    assert sa.dual_rep(zero) == zero
    assert sa.dual_rep((sa.LinearMap.identity(2),)) == (-sa.LinearMap.identity(2),)
    nil = sa.linmap([[0, 1], [0, 0]])
    assert sa.dual_rep((nil,)) == (sa.linmap([[0, 0], [-1, 0]]),)
    with pytest.raises(sa.DimensionMismatch):
        sa.dual_rep((sa.LinearMap.identity(2), sa.LinearMap.identity(3)))


@settings(max_examples=40)
@given(st.lists(square_maps(dim=2), min_size=1, max_size=3))
def test_dual_rep_is_involution(family):
    family = tuple(family)
    assert sa.dual_rep(sa.dual_rep(family)) == family


# ---------------------------------------------------------------------------
# linear map basics

def test_inverse_and_rank():
    m = sa.linmap([[1, 2], [3, 4]])
    assert m @ m.inverse() == sa.LinearMap.identity(2)
    assert m.rank() == 2
    assert sa.linmap([[1, 2], [2, 4]]).rank() == 1
    with pytest.raises(sa.SingularMap):
        sa.linmap([[1, 2], [2, 4]]).inverse()


@st.composite
def rational_matrices(draw):
    """Small matrices, square or not, with Fraction or plain int entries;
    often zero or with a row that combines the others (so rank-deficient)."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("random", "zero", "dependent")))
    grid = [[draw(rationals) for _ in range(cols)] for _ in range(rows)]
    if kind == "zero":
        grid = [[Fraction(0)] * cols for _ in range(rows)]
    elif kind == "dependent" and rows > 1:
        coeffs = [draw(rationals) for _ in range(rows - 1)]
        grid[-1] = [sum(c * row[j] for c, row in zip(coeffs, grid)) for j in range(cols)]
    if draw(st.booleans()):                 # int entries, scaled to stay integral
        grid = [[int(x * 12) for x in row] for row in grid]
    return sa.LinearMap(rows, cols, tuple(tuple(row) for row in grid))


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_rank_and_inverse_match_sympy(m):
    sympy = pytest.importorskip("sympy")
    reference = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                              for row in m.entries])
    assert m.rank() == reference.rank()
    inverse = m.try_inverse()
    if not m.is_square or reference.det() == 0:
        assert inverse is None
        return
    expected = reference.inv()
    assert inverse.entries == tuple(
        tuple(Fraction(int(expected[i, j].p), int(expected[i, j].q)) for j in range(m.cols))
        for i in range(m.rows)
    )


def test_rank_and_inverse_stay_exact_on_int_entries():
    # 1/49 * 49 is not 1 in floats
    assert sa.LinearMap(2, 2, ((49, 1), (98, 2))).rank() == 1
    inverse = sa.LinearMap(2, 2, ((1, 0), (0, 3))).inverse()
    assert inverse.entries == ((1, 0), (0, Fraction(1, 3)))
    assert all(type(x) is Fraction for row in inverse.entries for x in row)


def test_apply_shape_checked():
    with pytest.raises(sa.DimensionMismatch):
        sa.LinearMap.identity(2).apply((1, 2, 3))


def test_table_apply_contracts():
    table = sa.algebra(2, {"circ": [(1, 2, 1, "1/2")]}).op("circ")
    assert table_apply(table, (2, 0), (0, 3)) == (3, 0)


# ---------------------------------------------------------------------------
# value operations against sympy: exact values and entry types

def _sympy_matrix(grid):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[sympy.Rational(int(x.numerator), int(x.denominator)) for x in row]
                         for row in grid])


def _fractions(matrix) -> tuple:
    return tuple(tuple(Fraction(int(matrix[i, j].p), int(matrix[i, j].q))
                       for j in range(matrix.cols)) for i in range(matrix.rows))


def _types(grid) -> list:
    return [type(x) for row in grid for x in row]


def _sum_type(x, y):
    """Entry type of x + y and x - y in a map: int when both are ints."""
    return int if type(x) is int and type(y) is int else Fraction


entries = st.one_of(st.integers(-3, 3), rationals)


def _grid(draw, rows, cols) -> tuple:
    return tuple(tuple(draw(entries) for _ in range(cols)) for _ in range(rows))


def _map(draw, rows, cols) -> sa.LinearMap:
    return sa.LinearMap(rows, cols, _grid(draw, rows, cols))


scale_factors = st.one_of(
    st.integers(-3, 3), rationals, rationals.map(str), st.integers(-3, 3).map(str),
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_map_operations_match_sympy(data):
    draw = data.draw
    rows, cols, more = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a, b, c = _map(draw, rows, cols), _map(draw, rows, cols), _map(draw, cols, more)
    v = tuple(draw(entries) for _ in range(cols))
    factor = draw(scale_factors)
    A, B, C = _sympy_matrix(a.entries), _sympy_matrix(b.entries), _sympy_matrix(c.entries)
    pairs = [_sum_type(x, y) for x, y in zip(chain(*a.entries), chain(*b.entries))]

    assert (a + b).entries == _fractions(A + B) and _types((a + b).entries) == pairs
    assert (a - b).entries == _fractions(A - B) and _types((a - b).entries) == pairs
    assert (-a).entries == _fractions(-A) and _types((-a).entries) == _types(a.entries)
    scaled = a.scale(factor)
    assert scaled.entries == _fractions(A * _sympy_matrix([[sa.rat(factor)]])[0, 0])
    assert set(_types(scaled.entries)) == {Fraction}
    image = a.apply(v)
    assert image == tuple(row[0] for row in _fractions(A * _sympy_matrix([[x] for x in v])))
    assert all(type(x) is Fraction for x in image)
    product = a @ c
    assert product == a.compose(c)
    assert product.entries == _fractions(A * C) and set(_types(product.entries)) == {Fraction}
    assert (product.rows, product.cols) == (rows, more)
    assert a.transpose().entries == _fractions(A.T)
    assert _types(a.transpose().entries) == [type(x) for col in zip(*a.entries) for x in col]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_family_contract_matches_sympy(data):
    """Members with a zero coefficient are skipped, so their shape may differ."""
    draw = data.draw
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    family, coeffs = [_map(draw, rows, cols)], [draw(entries)]
    for _ in range(draw(st.integers(0, 3))):
        coeff = draw(st.one_of(st.just(0), st.just(Fraction(0)), entries))
        shape = (rows, cols) if coeff else (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        family.append(_map(draw, *shape))
        coeffs.append(coeff)
    expected = _sympy_matrix(sa.LinearMap.zero(rows, cols).entries)
    for coeff, m in zip(coeffs, family):
        if coeff:
            expected += _sympy_matrix([[coeff]])[0, 0] * _sympy_matrix(m.entries)
    out = sa.family_contract(family, coeffs)
    assert (out.rows, out.cols) == (rows, cols)
    assert out.entries == _fractions(expected) and set(_types(out.entries)) == {Fraction}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_evaluate_matches_sympy(data):
    draw = data.draw
    n = draw(st.integers(1, 4))
    form = sa.BilinearForm(n, _grid(draw, n, n))
    u, v = (tuple(draw(entries) for _ in range(n)) for _ in range(2))
    expected = (_sympy_matrix([u]) * _sympy_matrix(form.gram) * _sympy_matrix([v]).T)[0, 0]
    value = form.evaluate(u, v)
    assert type(value) is Fraction
    assert value == Fraction(int(expected.p), int(expected.q))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_symmetry_tests_match_sympy(data):
    draw = data.draw
    n = draw(st.integers(1, 4))
    grid = _grid(draw, n, n)
    kind = draw(st.sampled_from(("random", "symmetric", "skew", "zero")))
    if kind == "symmetric":
        grid = tuple(tuple(grid[i][j] + grid[j][i] for j in range(n)) for i in range(n))
    elif kind == "skew":
        grid = tuple(tuple(grid[i][j] - grid[j][i] for j in range(n)) for i in range(n))
    elif kind == "zero":
        grid = tuple((0,) * n for _ in range(n))
    M = _sympy_matrix(grid)
    for value in (sa.Tensor2(n, grid), sa.BilinearForm(n, grid)):
        assert value.is_symmetric == (M == M.T)
        assert value.is_skew == (M == -M.T)


def test_form_is_skew_examples():
    assert sa.bilinear_form([[0, 1], [-1, 0]]).is_skew
    assert not sa.bilinear_form([[1, 1], [-1, 0]]).is_skew        # nonzero diagonal
    assert not sa.bilinear_form([[0, 1], [1, 0]]).is_skew
    assert sa.bilinear_form([[0, 0], [0, 0]]).is_skew


@pytest.mark.parametrize("operation, message", [
    (lambda: sa.LinearMap.identity(2) + sa.LinearMap.identity(3), "addition shape mismatch"),
    (lambda: sa.LinearMap.identity(2) - sa.LinearMap.zero(2, 3), "addition shape mismatch"),
    (lambda: sa.LinearMap.zero(2, 3) @ sa.LinearMap.identity(2), "composition shape mismatch"),
    (lambda: sa.LinearMap.zero(2, 3).compose(sa.LinearMap.zero(2, 3)),
     "composition shape mismatch"),
    (lambda: sa.LinearMap.identity(2).apply((1, 2, 3)), "map takes length 2, got 3"),
    (lambda: sa.tensor2(2) + sa.tensor2(3), "tensor dimensions differ"),
    (lambda: sa.tensor3(2) - sa.tensor3(1), "tensor dimensions differ"),
    (lambda: sa.bilinear_form([[1, 0], [0, 1]]).evaluate((1, 0), (1, 0, 0)),
     "vector length does not match form dimension"),
    (lambda: sa.bilinear_form([[1, 0], [0, 1]]).evaluate((1,), (1, 0)),
     "vector length does not match form dimension"),
    (lambda: sa.family_contract((sa.LinearMap.identity(2),), (1, 2)),
     "family length does not match coefficient vector"),
    (lambda: sa.family_contract((sa.LinearMap.identity(2), sa.LinearMap.identity(3)), (1, 1)),
     "addition shape mismatch"),
    (lambda: sa.family_contract((sa.LinearMap.identity(3), sa.LinearMap.identity(2)), (0, 1)),
     "addition shape mismatch"),
    (lambda: sa.family_contract((), ()), "an empty family has no map shape"),
    (lambda: sa.merge_ops(), "merging no algebras gives no dimension"),
], ids=["add", "sub", "matmul", "compose", "apply", "tensor2-add", "tensor3-sub",
        "evaluate-v", "evaluate-u", "family-length", "family-shape", "family-shape-after-zero",
        "family-empty", "merge-empty"])
def test_value_shape_mismatches(operation, message):
    with pytest.raises(sa.DimensionMismatch, match=f"^{message}$"):
        operation()


@pytest.mark.parametrize("operation, message", [
    (lambda: sa.tensor2(2) + sa.tensor3(2), "+: 'Tensor2' and 'Tensor3'"),
    (lambda: sa.tensor3(2) - sa.tensor2(2), "-: 'Tensor3' and 'Tensor2'"),
    (lambda: sa.linmap([[1]]) + sa.tensor2(1), "+: 'LinearMap' and 'Tensor2'"),
    (lambda: sa.tensor2(1) + sa.linmap([[1]]), "+: 'Tensor2' and 'LinearMap'"),
    (lambda: sa.linmap([[1]]) - 1, "-: 'LinearMap' and 'int'"),
], ids=["tensor2-tensor3", "tensor3-tensor2", "map-tensor", "tensor-map", "map-int"])
def test_arithmetic_between_value_kinds_is_unsupported(operation, message):
    """Python's own TypeError names both operand types."""
    with pytest.raises(TypeError) as excinfo:
        operation()
    assert str(excinfo.value) == f"unsupported operand type(s) for {message}"


def test_family_contract_skips_zero_coefficients_before_shape_checks():
    I2, I3 = sa.LinearMap.identity(2), sa.LinearMap.identity(3)
    assert sa.family_contract((I2, I3), [1, 0]) == I2
    assert sa.family_contract((I2, I3), [0, 0]) == sa.LinearMap.zero(2, 2)


# ---------------------------------------------------------------------------
# refusals no other test reaches

def test_algebra_dimension_must_be_positive():
    with pytest.raises(sa.DimensionMismatch) as excinfo:
        sa.Algebra(0, {})
    assert str(excinfo.value) == "dimension must be positive, got 0"


def test_algebra_is_never_equal_to_a_non_algebra(p2):
    assert p2.__eq__(5) is NotImplemented
    assert p2 != 5


def test_op_outside_the_vocabulary_is_unknown(p2):
    with pytest.raises(sa.UnknownOperation) as excinfo:
        p2.op("cup")
    assert excinfo.value.args == ("cup",)


def test_collapsing_rename_is_refused(ld2):
    mapping = {"tri_r": "circ", "tri_l": "circ"}
    with pytest.raises(ValueError) as excinfo:
        sa.rename_ops(ld2, mapping)
    assert str(excinfo.value) == f"renaming {mapping!r} collapses two operations"


def test_merge_across_dimensions_is_refused(p1, p2):
    with pytest.raises(sa.DimensionMismatch) as excinfo:
        sa.merge_ops(p1, p2)
    assert str(excinfo.value) == "cannot merge algebras of different dimensions"


def test_non_square_maps_are_refused_as_tensors_and_forms():
    T = sa.LinearMap.zero(2, 3)
    with pytest.raises(sa.DimensionMismatch) as excinfo:
        sa.map_to_tensor(T)
    assert str(excinfo.value) == "only square maps identify with rank-2 tensors"
    with pytest.raises(sa.DimensionMismatch) as excinfo:
        sa.form_from_invertible_map(T)
    assert str(excinfo.value) == "form requires a square map"


def test_degenerate_form_has_no_map():
    with pytest.raises(sa.SingularMap) as excinfo:
        sa.map_from_form(sa.bilinear_form([[1, 1], [1, 1]]))
    assert str(excinfo.value) == "form is degenerate"
