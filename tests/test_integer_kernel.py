"""The integer kernel against the Fraction oracles.

Every identity check must give the same report as the original closures in
``naive_checks``: the same identity ids in the same order, the same 1-based
indices and the same string for every residual entry.  Every tensor equation
must give the same Tensor3 as the term expansion in ``naive_tensor``.
Inputs have denominators in {1, 2, 3, 6, 7}, each object with its own extra
scale (so T over 1/5 meets tables over 1/3), and are sometimes all zero.
"""

import copy
import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitalg as sa
from splitalg import axioms, catalog, core, operators, representations, ybe
from splitalg.axioms import REQUIRED_OPS
from splitalg.core import clear_denominators, field_width, max_abs, pack, slot_sum, unpack
from splitalg.functors import VERTICAL
from splitalg.representations import _actions, _module_ints
from splitalg.ybe import _check_companion_identity

import naive_checks as naive
from naive_kernel import naive_clear_denominators, naive_max_abs, nest
from naive_tensor import (
    naive_ld_residual,
    naive_s_alternate,
    naive_s_residual,
    naive_slot_product,
    t3_combine,
    vertical_table,
)
from transport import random_frame, transport_algebra, transport_tensor

DENOMINATORS = (1, 2, 3, 6, 7)
SCALES = (1, 3, 5)
small_dims = st.integers(min_value=1, max_value=3)


def render(report):
    return [(f.identity, f.indices, tuple(str(x) for x in f.residual)) for f in report.failures]


def same_report(name, *args):
    fast = render(getattr(sa, name)(*args))
    assert fast == render(getattr(naive, name)(*args))
    return fast


# ---------------------------------------------------------------------------
# strategies

def _nest(flat, shape):
    if len(shape) == 1:
        return tuple(flat)
    step = len(flat) // shape[0]
    return tuple(_nest(flat[i * step:(i + 1) * step], shape[1:]) for i in range(shape[0]))


@st.composite
def grids(draw, shape):
    """A nested tuple grid of Fractions; one object in eight is all zero."""
    size = prod(shape)
    if draw(st.integers(0, 7)) == 0:
        return _nest([Fraction(0)] * size, shape)
    scale = draw(st.sampled_from(SCALES))
    nums = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    dens = draw(st.lists(st.sampled_from(DENOMINATORS), min_size=size, max_size=size))
    return _nest([Fraction(a, b * scale) for a, b in zip(nums, dens)], shape)


def algebras(draw, n, names):
    return sa.Algebra(n, {name: draw(grids((n, n, n))) for name in names})


def maps(draw, rows, cols):
    return sa.LinearMap(rows, cols, draw(grids((rows, cols))))


def families(draw, n, v):
    return tuple(maps(draw, v, v) for _ in range(n))


def scaled(alg, c):
    return sa.Algebra(alg.dim, {name: tuple(tuple(tuple(c * x for x in vec) for vec in plane)
                                            for plane in table)
                                for name, table in alg.ops.items()})


# ---------------------------------------------------------------------------
# the integer kernel's helpers

@settings(max_examples=50)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9))
def test_pack_round_trip(values):
    bits = field_width(max(map(abs, values)))
    assert unpack(pack(values, bits), len(values), bits) == values


@settings(max_examples=50)
@given(st.lists(st.integers(-50, 50), min_size=4, max_size=4),
       st.lists(st.integers(-50, 50), min_size=4, max_size=4), st.integers(-9, 9))
def test_packed_linear_combination(x, y, c):
    bits = field_width(50 + 9 * 50)
    combined = [a + c * b for a, b in zip(x, y)]
    assert unpack(pack(x, bits) + c * pack(y, bits), 4, bits) == combined


def test_clear_denominators_scales_every_object():
    assert clear_denominators((((Fraction(1, 3), Fraction(0)),),)) == (3, (((1, 0),),))
    # a given multiple joins the denominators, and a list grid comes back as tuples
    assert clear_denominators([[Fraction(2, 5)], [1]], 6) == (30, ((12,), (30,)))
    assert clear_denominators(((Fraction(1, 2),),), 4) == (4, ((2,),))
    assert clear_denominators(((0, 0), (0, 0)))[0] == 1


def naive_scaling(grid, d=1):
    """The oracle's ``(multiple, copy)`` for ``grid`` and a given multiple d:
    a second grid holding 1/d adds d to the denominators."""
    multiple, copies = naive_clear_denominators(grid, (Fraction(1, d),))
    return multiple, copies[0]


def _build(entries, shape):
    """The nested tuple grid of ``shape`` taking its entries from the
    iterator ``entries`` (sizes may be 0)."""
    if len(shape) == 1:
        return tuple(next(entries) for _ in range(shape[0]))
    return tuple(_build(entries, shape[1:]) for _ in range(shape[0]))


@st.composite
def kernel_grids(draw, kind):
    """A rectangular grid of rank 1-4 with Fraction, int or mixed entries
    (``kind``), sizes 0-3, of tuples or sometimes a list."""
    rank = draw(st.integers(1, 4))
    shape = draw(st.lists(st.integers(0, 3), min_size=rank, max_size=rank))
    size = prod(shape)
    dens = draw(st.sampled_from([(1,), DENOMINATORS]))
    ints = st.integers(-7, 7)
    fractions = st.builds(Fraction, ints, st.sampled_from(dens))
    entry = {"int": ints, "fraction": fractions, "mixed": ints | fractions}[kind]
    grid = _build(iter(draw(st.lists(entry, min_size=size, max_size=size))), shape)
    return list(grid) if draw(st.booleans()) else grid


@pytest.mark.parametrize("kind", ["fraction", "int", "mixed"])
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_clear_denominators_and_max_abs_match_the_recursive_walk(kind, data):
    grid = data.draw(kernel_grids(kind))
    multiple = data.draw(st.sampled_from((1, 2, 5, 6)))
    d, copy = clear_denominators(grid, multiple)
    assert repr((d, copy)) == repr(naive_scaling(grid, multiple))
    assert max_abs(copy) == naive_max_abs(copy)


_EMPTY_MAP = sa.LinearMap(0, 0, ())


@pytest.mark.parametrize("grid, d, expected", [
    (sa.LinearMap(2, 0, ((), ())).entries, 1, ((), ())),
    ((), 1, ()),
    (sa.LinearMap(0, 3, ()).entries, 1, ()),
    (_actions((_EMPTY_MAP, _EMPTY_MAP)), 2, ((), ())),
    ((((), ()), ((), ())), 1, (((), ()), ((), ()))),
    ((((),), ((),)), 1, (((),), ((),))),
], ids=["map-2x0", "empty", "map-0x3", "vdim0-family", "actions-vdim0", "rank3-last-0"])
def test_zero_size_axes_keep_their_nesting(grid, d, expected):
    assert clear_denominators(grid, d) == (d, expected)
    assert (d, expected) == naive_scaling(grid, d)
    assert max_abs(expected) == naive_max_abs(expected)


@pytest.mark.parametrize("grid", [
    ((1, 2), (3,)),
    ((), (1,)),
    (((1, 2), (3, 4)), ((5, 6),)),
], ids=["short-row", "empty-first-row", "short-plane"])
def test_ragged_grids_are_refused(grid):
    with pytest.raises(sa.DimensionMismatch, match="entries is not"):
        clear_denominators(grid)
    with pytest.raises(sa.DimensionMismatch, match="entries is not"):
        max_abs(grid)


@pytest.mark.parametrize("grid", [
    ((1, 2), ((3,), (4,))),
    ((1,), 2),
    (sa.linmap([[1]]), ((1,),)),
    (((1,),), sa.linmap([[1]])),
], ids=["row-of-rows", "entry-for-row", "row-for-map", "map-for-row"])
def test_grids_of_mixed_depth_are_refused(grid):
    """A row deeper or shallower than the first one at its level is never
    read as entries: a row where an entry belongs has no denominator, and
    an entry or a map where a row belongs has no items."""
    with pytest.raises((AttributeError, TypeError)):
        clear_denominators(grid)


def test_a_module_block_passed_as_one_grid_is_refused(p2):
    # an action table beside its base table is ragged unless vdim = dim
    acts = tuple(((Fraction(1),),) for _ in range(p2.dim))
    with pytest.raises(sa.DimensionMismatch):
        clear_denominators((p2.op("circ"), acts, acts))


@pytest.mark.parametrize("base", ["P2", "N2", "LD2"])
def test_checks_over_a_zero_module_pass(base):
    alg = catalog.build(base)
    family = (_EMPTY_MAP,) * alg.dim
    T = sa.LinearMap(alg.dim, 0, ((),) * alg.dim)
    if alg.has_op("circ"):
        module = sa.PreLieModule(alg, 0, family, family)
        assert sa.check_prelie_module(module) == sa.CheckReport(())
        assert sa.check_o_prelie(T, module) == sa.CheckReport(())
    if alg.has_op("tri_r"):
        module = sa.LDendModule(alg, 0, *[family] * 4)
        assert sa.check_ldend_module(module) == sa.CheckReport(())
        assert sa.check_o_ldend(T, module) == sa.CheckReport(())


# ---------------------------------------------------------------------------
# class axioms

@pytest.mark.parametrize("class_name", sa.CLASS_NAMES)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_class_checks_match_oracle(class_name, data):
    n = data.draw(small_dims)
    alg = algebras(data.draw, n, REQUIRED_OPS[class_name])
    same_report("check_class", alg, class_name)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("class_name", sa.CLASS_NAMES)
@settings(max_examples=3, deadline=None)
@given(st.data())
def test_class_checks_match_oracle_at_desk_dims(class_name, n, data):
    """At these dimensions a plane spans several machine words."""
    alg = algebras(data.draw, n, REQUIRED_OPS[class_name])
    same_report("check_class", alg, class_name)


@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 5), Fraction(-7, 3)])
@pytest.mark.parametrize("name", ["Z2", "P1", "P2", "N2", "L2", "LD2", "D1",
                                  "LD2_VERT", "LD2_HOR", "LD2_LIE"])
def test_class_checks_match_oracle_on_catalog(name, c):
    """Catalog structures scaled by c: the identities are homogeneous, so
    members stay members and the reports must agree either way."""
    alg = scaled(catalog.build(name), c)
    for class_name in sa.CLASS_NAMES:
        if all(alg.has_op(op) for op in REQUIRED_OPS[class_name]):
            same_report("check_class", alg, class_name)


def test_scaled_members_pass(p2, ld2, l2, d1):
    c = Fraction(-2, 7)
    for alg, class_name in ((p2, "pre_lie"), (ld2, "l_dendriform"), (l2, "lie"),
                            (d1, "dendriform")):
        assert same_report("check_class", scaled(alg, c), class_name) == []


# ---------------------------------------------------------------------------
# the plane kernel

def _checkerboard(c, n):
    return nest([c * (-1) ** (i + j + k) for i in range(n) for j in range(n) for k in range(n)],
                n, 3)


def _term(shape, a, b, x, y, z=None):
    """A term's output vector at basis indices (x, y, z), summed directly."""
    n = len(a)
    if shape == axioms.PLAIN:
        return list(a[x][y])
    if shape == axioms.LEFT:
        return [sum(a[x][y][m] * b[m][z][k] for m in range(n)) for k in range(n)]
    return [sum(b[y][z][m] * a[x][m][k] for m in range(n)) for k in range(n)]


@pytest.mark.parametrize("lo", [0, 1], ids=["all-rows", "rows-from-1"])
@pytest.mark.parametrize("shape, free", [
    (axioms.LEFT, 0), (axioms.LEFT, 1), (axioms.LEFT, 2),
    (axioms.RIGHT, 0), (axioms.RIGHT, 1), (axioms.RIGHT, 2),
    (axioms.PLAIN, 0), (axioms.PLAIN, 1),
])
def test_plane_fields_reach_the_width_bound(shape, free, lo):
    """The identity +t(A, B) - t(C, B) of one term shape t, with the slot
    ``free`` free over the rows lo..n-1.  Every table is a checkerboard
    c * (-1)**(i + j + k): A with c = a, C with c = -c', B with c = 1.  So
    every field of the residual is +-n * (a + c') (+-(a + c') when PLAIN),
    the bound the kernel sizes its fields for, here 2**40 - 1, and the
    sign flips from each field to the next, also across a row boundary.
    The compiled identity is one line function, whose rows are the packed
    plane split: a carry or borrow into a neighbouring field or row reads
    as a wrong residual."""
    n, top = 3, 2 ** 40 - 1
    total = top if shape == axioms.PLAIN else top // n
    ops = {"A": _checkerboard(total - 2 ** 20, n), "C": _checkerboard(-(2 ** 20), n),
           "B": _checkerboard(1, n)}
    perm = axioms.XY if shape == axioms.PLAIN else axioms.XYZ
    terms = ((1, shape, "A", "B", perm), (-1, shape, "C", "B", perm))
    bounds = {name: max_abs(table) for name, table in ops.items()}
    line = axioms._compile(terms, ops, bounds, {}, free, range(lo, n))
    assert callable(line)
    assert field_width(top) == 41
    for prefix in itertools.product(range(n), repeat=len(perm) - 1):
        rows = line(*prefix)
        assert [f for f, _ in rows] == list(range(n - lo))
        for f, entries in rows:
            idx = list(prefix)
            idx.insert(free, f + lo)
            expected = [p - q for p, q in zip(_term(shape, ops["A"], ops["B"], *idx),
                                               _term(shape, ops["C"], ops["B"], *idx))]
            assert entries == expected
            assert {abs(x) for x in expected} == {top}


# ---------------------------------------------------------------------------
# bilinear forms

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_form_checks_match_oracle(data):
    n = data.draw(small_dims)
    alg = algebras(data.draw, n, ("circ", "tri_r", "tri_l"))
    B = sa.BilinearForm(n, data.draw(grids((n, n))))
    same_report("check_prelie_cocycle", alg, B)
    same_report("check_ldend_cocycle", alg, B)
    assert render(_check_companion_identity(alg, B)) == render(
        naive._check_companion_identity(alg, B))


def test_symmetric_cocycle_of_scaled_algebra_passes(p2):
    """B(x, y) = f(x . y) is a 2-cocycle of a pre-Lie algebra."""
    alg = scaled(p2, Fraction(3, 7))
    circ = alg.op("circ")
    gram = tuple(tuple(Fraction(1, 5) * circ[i][j][0] + Fraction(2, 3) * circ[i][j][1]
                       for j in range(2)) for i in range(2))
    assert same_report("check_prelie_cocycle", alg, sa.BilinearForm(2, gram)) == []


# ---------------------------------------------------------------------------
# modules

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_module_checks_match_oracle(data):
    n, v = data.draw(small_dims), data.draw(small_dims)
    base = algebras(data.draw, n, ("circ", "tri_r", "tri_l"))
    pm = sa.PreLieModule(base, v, families(data.draw, n, v), families(data.draw, n, v))
    lm = sa.LDendModule(base, v, *(families(data.draw, n, v) for _ in range(4)))
    same_report("check_prelie_module", pm)
    same_report("check_ldend_module", lm)
    same_report("check_prelie_module", sa.dual_prelie_module(pm))
    same_report("check_ldend_module", sa.dual_ldend_module(lm))


@pytest.mark.parametrize("n", [4, 5, 6])
@settings(max_examples=3, deadline=None)
@given(st.data())
def test_module_checks_match_oracle_at_desk_dims(n, data):
    v = data.draw(st.integers(2, 6).filter(lambda v: v != n))
    base = algebras(data.draw, n, ("circ", "tri_r", "tri_l"))
    pm = sa.PreLieModule(base, v, families(data.draw, n, v), families(data.draw, n, v))
    lm = sa.LDendModule(base, v, *(families(data.draw, n, v) for _ in range(4)))
    same_report("check_prelie_module", pm)
    same_report("check_ldend_module", lm)
    same_report("check_prelie_module", sa.dual_prelie_module(pm))
    same_report("check_ldend_module", sa.dual_ldend_module(lm))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_regular_and_dual_module_checks_match_oracle(data):
    n = data.draw(small_dims)
    base = algebras(data.draw, n, ("circ", "tri_r", "tri_l"))
    for m in (sa.regular_prelie_module(base), sa.dual_prelie_module(sa.regular_prelie_module(base))):
        same_report("check_prelie_module", m)
    for m in (sa.regular_ldend_module(base), sa.dual_ldend_module(sa.regular_ldend_module(base))):
        same_report("check_ldend_module", m)


def test_dual_modules_of_scaled_members_pass(p2, ld2):
    p = scaled(p2, Fraction(5, 3))
    ld = scaled(ld2, Fraction(-1, 6))
    assert same_report("check_prelie_module", sa.dual_prelie_module(sa.regular_prelie_module(p))) == []
    assert same_report("check_ldend_module", sa.dual_ldend_module(sa.regular_ldend_module(ld))) == []


# ---------------------------------------------------------------------------
# O-operators and Rota-Baxter operators

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_operator_checks_match_oracle(data):
    n, v = data.draw(small_dims), data.draw(small_dims)
    base = algebras(data.draw, n, ("circ", "tri_r", "tri_l"))
    T = maps(data.draw, n, v)
    pm = sa.PreLieModule(base, v, families(data.draw, n, v), families(data.draw, n, v))
    lm = sa.LDendModule(base, v, *(families(data.draw, n, v) for _ in range(4)))
    same_report("check_o_prelie", T, pm)
    same_report("check_o_ldend", T, lm)
    same_report("check_o_lie", T, sa.sub_adjacent_lie(base), families(data.draw, n, v))
    same_report("check_rota_baxter_prelie", maps(data.draw, n, n), base)
    R = maps(data.draw, n, n)
    same_report("check_o_prelie", R, sa.dual_prelie_module(sa.regular_prelie_module(base)))
    same_report("check_o_ldend", R, sa.dual_ldend_module(sa.regular_ldend_module(base)))


def test_scaled_rota_baxter_operators_pass(p2, rb_operators_p2):
    """R -> cR and the table -> c'(table) keep the Rota-Baxter identity."""
    alg = scaled(p2, Fraction(2, 3))
    for R in rb_operators_p2:
        assert same_report("check_rota_baxter_prelie", R.scale(Fraction(-1, 5)), alg) == []


# ---------------------------------------------------------------------------
# tensor equations

tensor_dims = st.integers(min_value=1, max_value=4)

SLOT_PAIRS = (((1, 2), (1, 3)), ((1, 2), (2, 3)), ((1, 3), (2, 3)),
              ((2, 3), (1, 2)), ((1, 3), (1, 2)), ((2, 3), (1, 3)))

ALIASES = {"main": "eq-4.8", "aux-a": "eq-4.9", "aux-b": "eq-4.10",
           "p1": "eq-4.11", "p2": "eq-4.12", "p3": "eq-4.13", "p4": "eq-4.14"}


@st.composite
def integral_grids(draw, shape):
    nums = draw(st.lists(st.integers(-3, 3), min_size=prod(shape), max_size=prod(shape)))
    return _nest([Fraction(a) for a in nums], shape)


@st.composite
def tensors(draw, n):
    """A rank-2 tensor: dense, or with at most n nonzero entries, or zero."""
    entries = draw(grids((n, n)))
    if draw(st.booleans()):
        keep = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
        entries = tuple(tuple(x if (i, j) in keep else Fraction(0) for j, x in enumerate(row))
                        for i, row in enumerate(entries))
    return sa.Tensor2(n, entries)


def lists(grid):
    return [lists(sub) for sub in grid] if isinstance(grid[0], tuple) else list(grid)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_slot_products_match_oracle(data):
    n = data.draw(tensor_dims)
    table = data.draw(grids((n, n, n)))
    alg = sa.Algebra(n, {"tri_l": table})
    r, s = data.draw(tensors(n)), data.draw(tensors(n))
    for r_slots, s_slots in SLOT_PAIRS:
        ours = sa.slot_product(r, r_slots, s, s_slots, alg, "tri_l")
        naive_entries = naive_slot_product(lists(r.entries), r_slots, lists(s.entries), s_slots,
                                           lists(table))
        assert ours == sa.tensor3_from_entries(naive_entries), (r_slots, s_slots)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_s_equation_matches_oracle(data):
    n = data.draw(tensor_dims)
    alg = sa.Algebra(n, {"circ": data.draw(st.one_of(grids((n, n, n)),
                                                     integral_grids((n, n, n))))})
    r = data.draw(tensors(n))
    circ = lists(alg.op("circ"))
    naive_entries = naive_s_residual(circ, lists(r.entries))
    assert sa.s_residual(alg, r) == sa.tensor3_from_entries(naive_entries)

    sym = sa.Tensor2(n, tuple(tuple(r.entries[i][j] + r.entries[j][i] for j in range(n))
                              for i in range(n)))
    report = sa.s_equivalence_check(alg, sym)
    rs = lists(sym.entries)
    assert report.residual == sa.tensor3_from_entries(naive_s_residual(circ, rs))
    assert report.alternate == sa.tensor3_from_entries(naive_s_alternate(circ, rs))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ld_equation_matches_oracle(data):
    """All seven variants and their aliases; in half the examples tri_r is
    integral and only tri_l carries denominators."""
    n = data.draw(tensor_dims)
    shape = (n, n, n)
    tri_r = data.draw(st.one_of(grids(shape), integral_grids(shape)))
    alg = sa.Algebra(n, {"tri_r": tri_r, "tri_l": data.draw(grids(shape))})
    r = data.draw(tensors(n))
    for variant in sa.LD_VARIANTS:
        naive_entries = naive_ld_residual(lists(tri_r), lists(alg.op("tri_l")),
                                          lists(r.entries), variant)
        assert sa.ld_residual(alg, r, variant) == sa.tensor3_from_entries(naive_entries), variant
    for alias, variant in ALIASES.items():
        assert sa.ld_residual(alg, r, alias) == sa.ld_residual(alg, r, variant)


def oracle_sum(terms, tables):
    """The naive sum of ``(sign, r, r_slots, s, s_slots, op)`` slot products,
    each op read from ``tables`` (name -> nested tuples)."""
    return sa.tensor3_from_entries(t3_combine([
        (Fraction(sign), naive_slot_product(lists(r.entries), r_slots, lists(s.entries), s_slots,
                                            lists(tables[op])))
        for sign, r, r_slots, s, s_slots, op in terms]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_slot_sums_match_the_sum_of_oracle_products(data):
    """Signed sums with a term for each of the six slot pairs, so all three
    packed layouts, plus drawn extra terms, on two distinct tensors; in half
    the examples a term is cancelled by its negation.  The third table is the
    vertical product, derived from tri_r and tri_l and named by its parts."""
    n = data.draw(st.integers(1, 5))
    tables = {name: data.draw(grids((n, n, n))) for name in ("tri_r", "tri_l")}
    alg = sa.Algebra(n, tables)
    tables[VERTICAL] = vertical_table(lists(tables["tri_r"]), lists(tables["tri_l"]))
    r, s = data.draw(tensors(n)), data.draw(tensors(n))
    signs, ops = st.sampled_from((1, -1)), st.sampled_from(tuple(tables))
    pool = st.sampled_from((r, s))
    terms = [(data.draw(signs), r, r_slots, s, s_slots, data.draw(ops))
             for r_slots, s_slots in SLOT_PAIRS]
    for _ in range(data.draw(st.integers(0, 3))):
        r_slots, s_slots = data.draw(st.sampled_from(SLOT_PAIRS))
        terms.append((data.draw(signs), data.draw(pool), r_slots, data.draw(pool), s_slots,
                      data.draw(ops)))
    if data.draw(st.booleans()):
        sign, *rest = data.draw(st.sampled_from(terms))
        terms.append((-sign, *rest))
    order = data.draw(st.permutations(terms))
    assert slot_sum(order, alg) == oracle_sum(order, tables)


@pytest.mark.parametrize("m", [2 ** 40, Fraction(2 ** 40, 3)], ids=["int", "fraction"])
@pytest.mark.parametrize("r_slots, s_slots", SLOT_PAIRS)
def test_slot_sum_fields_reach_the_width_bound(m, r_slots, s_slots):
    """Every entry of r, s and the table is +-m: r[i][j] = m a_i a_j,
    s[i][j] = m c_i c_j and table[u][v][k] = m a_u c_v g_k.  So each of the
    two terms (the second negates both its sign and s) adds n**2 m**3 a_x c_y
    g_k at every field, and the sum reaches the kernel's bound
    2 * n**2 * M**3, M = 2**40 the int that m scales to, exactly and in both
    signs.  A field one bit too narrow reads one of them wrongly."""
    n = 3
    a, c, g = (1, -1, 1), (1, 1, -1), (-1, 1, 1)
    r = sa.Tensor2(n, nest([m * a[i] * a[j] for i in range(n) for j in range(n)], n, 2))
    s = sa.Tensor2(n, nest([m * c[i] * c[j] for i in range(n) for j in range(n)], n, 2))
    table = nest([m * a[u] * c[v] * g[k] for u in range(n) for v in range(n) for k in range(n)],
                 n, 3)
    alg = sa.Algebra(n, {"tri_l": table})
    terms = [(1, r, r_slots, s, s_slots, "tri_l"), (-1, r, r_slots, -s, s_slots, "tri_l")]
    out = slot_sum(terms, alg)
    assert out == oracle_sum(terms, {"tri_l": table})
    values = {x for _, x in out.nonzero_entries()}
    assert values == {2 * n * n * m ** 3, -2 * n * n * m ** 3}


@pytest.mark.parametrize("m", [2 ** 40, Fraction(2 ** 40, 3)], ids=["int", "fraction"])
def test_o_operator_fields_reach_the_width_bound(m):
    """Every entry of T, the base product and the module's actions is +-m:
    T[a][u] = m x_a y_u, circ[a][b][k] = m x_a x_b x_k and l(e_a) f_v =
    -m x_a y_v y, r(e_b) f_u = -m x_b y_u y, for sign vectors x and y.  So
    T(f_u) o T(f_v) = n**2 m**3 y_u y_v x and T(l(T(f_u)) f_v) =
    T(r(T(f_v)) f_u) = -n vdim m**3 y_u y_v x, and every residual field is
    +-(n**2 + 2 n vdim) M**3, M = 2**40 the int that m scales to: the bound
    ``operators._packed_base`` sizes its fields for, reached exactly and in
    both signs.  A field one bit too narrow reads one of them wrongly."""
    n, vdim = 3, 2
    x, y = (1, -1, 1), (-1, 1)
    circ = nest([m * x[a] * x[b] * x[k] for a in range(n) for b in range(n) for k in range(n)],
                n, 3)
    T = sa.LinearMap(n, vdim, tuple(tuple(m * x[a] * y[u] for u in range(vdim))
                                    for a in range(n)))
    # the matrix of l(e_a) = r(e_a): column v is -m x_a y_v y
    acts = tuple(sa.LinearMap(vdim, vdim, nest([-m * x[a] * y[v] * y[w] for w in range(vdim)
                                                for v in range(vdim)], vdim, 2))
                 for a in range(n))
    module = sa.PreLieModule(sa.Algebra(n, {"circ": circ}), vdim, acts, acts)
    failures = same_report("check_o_prelie", T, module)
    bound = (n * n + 2 * n * vdim) * m ** 3
    assert [indices for _, indices, _ in failures] == [(u, v) for u in (1, 2) for v in (1, 2)]
    assert {Fraction(value) for *_, residual in failures for value in residual} == {bound, -bound}



# ---------------------------------------------------------------------------
# the equivalence reports against the module-value route

_thirds = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))


@st.composite
def report_inputs(draw, names, sign, instances):
    """An algebra with tables ``names`` and a tensor with r[j][i] = sign *
    r[i][j]: random dim 1-4 tables over {1, 2, 3} (dense or half zero) with
    a random, sparse or zero tensor, or one of the solution and
    non-solution ``instances`` carried along a random frame."""
    if draw(st.integers(0, 3)) == 0:
        _, alg, r = draw(st.sampled_from(instances[0] + instances[1]))
        frame = random_frame(random.Random(draw(st.integers(0, 2**32 - 1))), alg.dim,
                             draw(st.sampled_from((1, 2))))
        return transport_algebra(alg, frame), transport_tensor(r, frame)
    n = draw(st.integers(1, 4))
    entry = draw(st.sampled_from((_thirds, st.one_of(st.just(Fraction(0)), _thirds))))
    cube = st.lists(entry, min_size=n ** 3, max_size=n ** 3)
    alg = sa.Algebra(n, {name: nest(draw(cube), n, 3) for name in names})
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    keep = draw(st.sampled_from(("all", "one", "none")))
    if keep != "all":
        chosen = draw(st.sampled_from(sorted(upper))) if keep == "one" else None
        upper = {key: x if key == chosen else Fraction(0) for key, x in upper.items()}
    entries = [[upper[i, j] if i <= j else sign * upper[j, i] for j in range(n)]
               for i in range(n)]
    if sign < 0:
        entries = [[Fraction(0) if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(entries)]
    return alg, sa.Tensor2(n, nest([x for row in entries for x in row], n, 2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_s_equivalence_report_matches_module_route(s_instances, data):
    alg, r = data.draw(report_inputs(("circ",), 1, s_instances))
    assert repr(sa.s_equivalence_check(alg, r)) == repr(naive.s_equivalence_check(alg, r))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ld_equivalence_report_matches_module_route(ld_instances, data):
    alg, r = data.draw(report_inputs(("tri_r", "tri_l"), -1, ld_instances))
    assert repr(sa.ld_equivalence_check(alg, r)) == repr(naive.ld_equivalence_check(alg, r))


# ---------------------------------------------------------------------------
# the checks evaluate on int tables and build no module values

def test_checks_build_no_module_values(constructions, p2, l2, ld2, rb2):
    """The four O-operator checks build no values, nor does a report asked
    of an algebra it has been asked of before: it reads the O-operator rows
    its first call kept with the int form (see the next test)."""
    skew = sa.tensor2(2, [(1, 2, 1), (2, 1, -1)])
    symmetric = sa.tensor2(2, [(1, 2, 1), (2, 1, 1)])
    T = sa.linmap([[1, 2], [0, 1]])
    prelie, ldend = sa.regular_prelie_module(p2), sa.regular_ldend_module(ld2)
    ad = sa.adjoint_family(l2)
    first = sa.ld_equivalence_check(ld2, skew), sa.s_equivalence_check(p2, symmetric)
    constructions.clear()
    assert (sa.ld_equivalence_check(ld2, skew), sa.s_equivalence_check(p2, symmetric)) == first
    sa.check_o_prelie(T, prelie)
    sa.check_rota_baxter_prelie(rb2, p2)
    sa.check_o_lie(T, l2, ad)
    sa.check_o_ldend(T, ldend)
    assert constructions == {}


def _ints_only(node) -> bool:
    """Whether ``node`` is an int or a str, or a tuple or list of such."""
    if isinstance(node, (tuple, list)):
        return all(map(_ints_only, node))
    return isinstance(node, (int, str))


@pytest.mark.parametrize("kind", ["s", "ld"])
def test_a_report_builds_the_papers_modules_once_per_algebra(constructions, kind):
    """The first S-report call on a fresh algebra builds the regular module
    and its dual; the first LD-report call builds the regular L-dendriform
    module and its dual, the vertical and horizontal pre-Lie algebras (the
    latter renamed circ), the two pre-Lie modules over them and their duals.
    Only the duals' int O-operator rows are kept, with the algebra's int
    form, so a second call builds nothing and reads the same rows."""
    if kind == "s":
        alg = sa.Algebra(2, dict(catalog.p2().ops))
        report, r = sa.s_equivalence_check, sa.tensor2(2, [(1, 2, 1), (2, 1, 1)])
        built = {"PreLieModule": 2}
        expected = [sa.dual_prelie_module(sa.regular_prelie_module(alg))._o_rows]
    else:
        alg = sa.Algebra(2, dict(catalog.ld2().ops))
        report, r = sa.ld_equivalence_check, sa.tensor2(2, [(1, 2, 1), (2, 1, -1)])
        built = {"LDendModule": 2, "PreLieModule": 4, "Algebra": 3}
        expected = [sa.dual_ldend_module(sa.regular_ldend_module(alg))._o_rows]
        expected += [sa.dual_prelie_module(m)._o_rows for m in representations._prelie_modules(alg)]
    constructions.clear()
    first = report(alg, r)
    assert constructions == built
    constructions.clear()
    assert report(alg, r) == first and constructions == {}
    kept = alg._int_form[3][report]
    assert (kept if kind == "ld" else [kept]) == expected and _ints_only(kept)


def test_a_module_keeps_its_int_form(monkeypatch, p2, ld2):
    """A second O-operator or module check of the same module value derives
    no int tables; a copy of the value derives them again."""
    calls = []

    def spy(*args, original=representations._module_ints):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(representations, "_module_ints", spy)
    T = sa.linmap([[1, "1/2"], [0, 1]])
    for check, module_check, m in (
            (sa.check_o_prelie, sa.check_prelie_module, sa.regular_prelie_module(p2)),
            (sa.check_o_ldend, sa.check_ldend_module, sa.regular_ldend_module(ld2))):
        calls.clear()
        first = check(T, m)
        assert len(calls) == 1
        assert check(T, m) == first and module_check(m).passed and len(calls) == 1
        assert "_o_rows" in vars(m) and not hasattr(m, "_ints")
        other = copy.copy(m)
        assert "_o_rows" not in vars(other)
        assert check(T, other) == first and len(calls) == 2


def test_cocycle_lift_builds_only_its_result(constructions, p2):
    B = sa.bilinear_form([[0, 1], [1, 0]])
    constructions.clear()
    sa.ldend_from_2cocycle(p2, B, force=True)
    assert constructions == {"Algebra": 1}


# ---------------------------------------------------------------------------
# an algebra's tables reach ints only through its int form

def _holds(grid, ids) -> bool:
    """Whether ``grid`` or a row of it at any nesting is one of the objects
    ``ids``."""
    return id(grid) in ids or (isinstance(grid, (tuple, list))
                               and any(_holds(row, ids) for row in grid))


def test_checks_scale_no_algebra_table(monkeypatch, p2, l2, ld2, rb2):
    """The checks scale their own maps, tensors and action tables; no call
    to clear_denominators receives an op table or an int-form table, and a
    map or tensor read by several checks is scaled once, into its kept int
    form."""
    algebras = (p2, l2, ld2)
    for alg in algebras:
        alg.scaled()                    # the int forms, built before the spy
    calls = []

    def spy(*args, original=core.clear_denominators):
        calls.append(args)
        return original(*args)

    for module in (core, axioms, representations, operators, ybe):
        if hasattr(module, "clear_denominators"):
            monkeypatch.setattr(module, "clear_denominators", spy)
    T = sa.linmap([["1/2", 2], [0, 1]])
    prelie, ldend = sa.regular_prelie_module(p2), sa.regular_ldend_module(ld2)
    sa.check_prelie_module(prelie)
    sa.check_ldend_module(ldend)
    sa.check_o_prelie(T, prelie)
    sa.check_o_lie(T, l2, sa.adjoint_family(l2))
    sa.check_o_ldend(T, ldend)
    sa.check_rota_baxter_prelie(rb2, p2)
    sa.search_rb(p2, [-1, 0, 1])
    sym, skew = sa.tensor2(2, [(1, 2, 1), (2, 1, 1)]), sa.tensor2(2, [(1, 2, 1), (2, 1, -1)])
    sa.s_equivalence_check(p2, sym)
    sa.ld_equivalence_check(ld2, skew)
    forbidden = {id(table) for alg in algebras for table in alg.ops.values()}
    forbidden |= {id(table) for alg in algebras for table, _ in alg._int_form[1].values()}
    # T by three O-operator checks; sym by two residuals and a report's map,
    # skew by three residuals and three O-operator conditions
    assert [sum(args[0] is grid for args in calls) for grid in (T.entries, sym.entries,
                                                               skew.entries)] == [1, 1, 1]
    assert [args for args in calls if _holds(args, forbidden)] == []


def test_checks_compile_once_per_value(monkeypatch, p2, l2, ld2, d1):
    """A second check of the same algebra or module value compiles nothing;
    a form check compiles on every call, since it reads a second value.
    (The O-operator kernel compiles nothing here; its call counts in
    search_rb are pinned in test_operators.)"""
    compiles = []

    def spy(*args, original=axioms._compile):
        compiles.append(args[0])
        return original(*args)

    monkeypatch.setattr(axioms, "_compile", spy)
    monkeypatch.setattr(representations, "_compile", spy)

    def count(call, *args):
        compiles.clear()
        call(*args)
        return len(compiles)

    quadri = sa.zero_algebra(2, ("se", "ne", "nw", "sw"))
    for alg, class_name in ((p2, "pre_lie"), (p2, "associative"), (l2, "lie"), (d1, "dendriform"),
                            (ld2, "l_dendriform"), (quadri, "quadri")):
        alg = sa.Algebra(alg.dim, dict(alg.ops))
        system = axioms._CLASS_SYSTEMS[class_name]
        assert count(sa.check_class, alg, class_name) == len(system), class_name
        assert count(sa.check_class, alg, class_name) == 0, class_name
    base = sa.Algebra(2, {**p2.ops, **ld2.ops})
    modules = [sa.regular_prelie_module(base), sa.regular_ldend_module(base)]
    modules += [sa.dual_prelie_module(modules[0]), sa.dual_ldend_module(modules[1])]
    for m, check, ids in zip(modules, [sa.check_prelie_module, sa.check_ldend_module] * 2,
                             [representations._PRELIE_MODULE_IDS,
                              representations._LDEND_MODULE_IDS] * 2):
        assert count(check, m) == len(ids)
        assert count(check, m) == 0
    B = sa.bilinear_form([[1, 2], [-2, 0]])
    for _ in range(2):
        assert count(sa.check_prelie_cocycle, base, B) == 1
        assert count(sa.check_ldend_cocycle, base, B) == 2
        assert count(_check_companion_identity, base, B) == 1


def _thirds_maps(count, rows, cols, seed):
    """``count`` fixed rows x cols maps with entries in {-2/3, ..., 2/3}."""
    return tuple(sa.LinearMap(rows, cols, tuple(
        tuple(Fraction((seed + 7 * a + 3 * i + j) % 5 - 2, 3) for j in range(cols))
        for i in range(rows))) for a in range(count))


def test_a_base_over_halves_is_rescaled_for_families_over_thirds(p2, ld2):
    base = sa.merge_ops(scaled(p2, Fraction(1, 2)), scaled(ld2, Fraction(-1, 2)))
    pm = sa.PreLieModule(base, 3, _thirds_maps(2, 3, 3, 0), _thirds_maps(2, 3, 3, 1))
    lm = sa.LDendModule(base, 3, *(_thirds_maps(2, 3, 3, seed) for seed in range(2, 6)))
    d_a, (circ,) = base.scaled("circ")
    d, (rescaled,), _ = _module_ints(base, ("circ",), (pm.l, pm.r))
    assert (d_a, d) == (2, 6)
    assert rescaled == tuple(tuple(tuple(3 * x for x in vec) for vec in plane) for plane in circ)
    T = _thirds_maps(1, 2, 3, 4)[0].scale(Fraction(3, 5))
    assert same_report("check_prelie_module", pm) != []
    same_report("check_ldend_module", lm)
    same_report("check_o_prelie", T, pm)
    same_report("check_o_ldend", T, lm)
    same_report("check_o_lie", T, sa.sub_adjacent_lie(base), _thirds_maps(2, 3, 3, 6))


def test_regular_and_dual_modules_keep_the_base_ints(p2, ld2):
    base = sa.merge_ops(scaled(p2, Fraction(1, 2)), scaled(ld2, Fraction(1, 3)))
    T = sa.linmap([["1/5", 1], [2, "-1/2"]])
    regular = sa.regular_prelie_module(base), sa.regular_ldend_module(base)
    for m in (*regular, sa.dual_prelie_module(regular[0]), sa.dual_ldend_module(regular[1])):
        if isinstance(m, sa.PreLieModule):
            ops, families, kind = ("circ",), (m.l, m.r), "prelie"
        else:
            ops, families, kind = ("tri_r", "tri_l"), (m.l_r, m.r_r, m.l_l, m.r_l), "ldend"
        d_a, tables = base.scaled(*ops)
        d, ints, _ = _module_ints(base, ops, families)
        assert d == d_a == 6
        assert all(a is b for a, b in zip(ints, tables))
        same_report(f"check_{kind}_module", m)
        same_report(f"check_o_{kind}", T, m)
