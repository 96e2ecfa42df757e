"""The integer kernel against the Fraction oracle.

Every identity check must give the same report as the original closures in
``naive_checks``: the same identity ids in the same order, the same 1-based
indices and the same string for every residual entry.  Inputs have
denominators in {1, 2, 3, 6, 7}, each object with its own extra scale (so T
over 1/5 meets tables over 1/3), and are sometimes all zero.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitalg as sa
from splitalg import catalog
from splitalg.axioms import REQUIRED_OPS
from splitalg.core import clear_denominators, field_width, pack, unpack
from splitalg.ybe import _check_companion_identity

import naive_checks as naive

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
    table = (((Fraction(1, 3), Fraction(0)),),)
    T = sa.linmap([[Fraction(2, 5)], [1]])
    family = (sa.linmap([["1/2"]]),)
    d, (t, m, f) = clear_denominators(table, T, family)
    assert d == 30
    assert t == (((10, 0),),)
    assert m == ((12,), (30,))
    assert f == (((15,),),)
    assert clear_denominators(((0, 0), (0, 0)))[0] == 1


# ---------------------------------------------------------------------------
# class axioms

@pytest.mark.parametrize("class_name", sa.CLASS_NAMES)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_class_checks_match_oracle(class_name, data):
    n = data.draw(small_dims)
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
