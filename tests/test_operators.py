"""Rota-Baxter and O-operator checks plus every induced construction."""

import hashlib
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import splitalg as sa
from splitalg import catalog, operators
from splitalg.core import pack
from splitalg.representations import (
    left_family,
    regular_ldend_module,
    regular_prelie_module,
)

import naive_checks as naive
from naive_kernel import nest


def neg(family):
    return tuple(-m for m in family)


def vertical_module(alg):
    """(L_r, -L_l, A) over the vertical pre-Lie algebra."""
    return sa.PreLieModule(
        sa.vertical_prelie(alg), alg.dim,
        left_family(alg, "tri_r"), neg(left_family(alg, "tri_l")),
    )


# ---------------------------------------------------------------------------
# checks

def test_o_prelie_zero_map_passes(p2):
    m = regular_prelie_module(p2)
    assert sa.check_o_prelie(sa.LinearMap.zero(2, 2), m).passed


def test_o_prelie_identity_over_vertical(ld2):
    # the identity map intertwines (L_r, -L_l) with the vertical product
    assert sa.check_o_prelie(sa.LinearMap.identity(2), vertical_module(ld2)).passed


def test_o_prelie_rb2_in_regular_module(p2, rb2):
    assert sa.check_o_prelie(rb2, regular_prelie_module(p2)).passed


def test_rb_zero_and_rb2_pass(p2, rb2):
    assert sa.check_rota_baxter_prelie(sa.LinearMap.zero(2, 2), p2).passed
    assert sa.check_rota_baxter_prelie(rb2, p2).passed


def test_rb_identity_fails_on_p2(p2):
    report = sa.check_rota_baxter_prelie(sa.LinearMap.identity(2), p2)
    assert not report.passed
    first = report.failures[0]
    # pair (1,1): left side e1, right side 2 e1
    assert first.identity == "eq-2.11"
    assert first.indices == (1, 1)
    assert first.residual == (-1, 0)


def test_o_lie_zero_and_rb2(l2, rb2):
    ad = sa.adjoint_family(l2)
    assert sa.check_o_lie(sa.LinearMap.zero(2, 2), l2, ad).passed
    assert sa.check_o_lie(rb2, l2, ad).passed


def test_o_lie_identity_fails_on_nonabelian(l2):
    report = sa.check_o_lie(sa.LinearMap.identity(2), l2, sa.adjoint_family(l2))
    assert not report.passed
    # pair (1,2): [e1,e2] = e2 but T(ad(e1)e2 - ad(e2)e1) = 2 e2
    assert report.failures[0].indices == (1, 2)
    assert report.failures[0].residual == (0, -1)


@pytest.mark.parametrize("shapes", [((2, 2), (3, 3)), ((2, 3), (2, 3))],
                         ids=["square-of-two-sizes", "rectangular"])
def test_o_lie_rejects_a_malformed_representation(l2, shapes):
    rho = tuple(sa.LinearMap.zero(rows, cols) for rows, cols in shapes)
    with pytest.raises(sa.DimensionMismatch, match="family 'rho' matrices must be 2x2"):
        sa.check_o_lie(sa.LinearMap.identity(2), l2, rho)
    with pytest.raises(sa.DimensionMismatch, match="must match the Lie dimension"):
        sa.check_o_lie(sa.LinearMap.identity(2), l2, rho[:1])


def test_o_ldend_zero_map_passes(ld2):
    assert sa.check_o_ldend(sa.LinearMap.zero(2, 2), regular_ldend_module(ld2)).passed


def test_o_ldend_identity_on_regular_module_golden(ld2):
    # golden verdict, frozen from the exhaustive oracle run: with the regular
    # actions the right side doubles every product, so the identity map is
    # NOT an O-operator of a nonzero algebra's regular module
    report = sa.check_o_ldend(sa.LinearMap.identity(2), regular_ldend_module(ld2))
    assert not report.passed
    first = report.failures[0]
    assert first.identity == "eq-4.7-tri_r"
    assert first.indices == (2, 1)
    assert first.residual == (-1, 0)


# ---------------------------------------------------------------------------
# inductions

def test_ldend_from_o_prelie_zero(p2):
    m = regular_prelie_module(p2)
    on_v, on_image = sa.ldend_from_o_prelie(sa.LinearMap.zero(2, 2), m)
    assert on_v == sa.zero_algebra(2, ("tri_r", "tri_l"))
    assert on_image is None  # rank 0 < 2


def test_ldend_from_o_prelie_rb2_gives_ld2(p2, rb2, ld2):
    on_v, on_image = sa.ldend_from_o_prelie(rb2, regular_prelie_module(p2))
    assert on_v == ld2
    assert on_image is None


def test_ldend_from_o_prelie_full_rank_image(ld2):
    on_v, on_image = sa.ldend_from_o_prelie(sa.LinearMap.identity(2), vertical_module(ld2))
    assert on_image is not None
    assert dict(on_image.ops) == dict(on_v.ops)


def test_o_prelie_induction_homomorphism(p2, rb2, ld2):
    # T carries the vertical product of the induced structure to the base
    for T, m, alg in [
        (rb2, regular_prelie_module(p2), p2),
        (sa.LinearMap.identity(2), vertical_module(ld2), sa.vertical_prelie(ld2)),
    ]:
        on_v, _ = sa.ldend_from_o_prelie(T, m)
        vert = sa.vertical_prelie(on_v)
        for u in range(m.vdim):
            for v in range(m.vdim):
                lhs = T.apply(vert.op("circ")[u][v])
                rhs = sa.multiply(alg, "circ", T.column(u), T.column(v))
                assert lhs == rhs


def test_ldend_from_o_prelie_refuses_non_operator(p2):
    with pytest.raises(sa.PreconditionFailed):
        sa.ldend_from_o_prelie(sa.LinearMap.identity(2), regular_prelie_module(p2))


def test_ldend_from_rb(p2, rb2, ld2):
    assert sa.ldend_from_rb(sa.LinearMap.zero(2, 2), p2) == sa.zero_algebra(2, ("tri_r", "tri_l"))
    assert sa.ldend_from_rb(rb2, p2) == ld2


def test_ldend_from_rb_equals_regular_module_induction(p2, rb_operators_p2):
    m = regular_prelie_module(p2)
    for R in rb_operators_p2:
        direct = sa.ldend_from_rb(R, p2)
        via_module, _ = sa.ldend_from_o_prelie(R, m)
        assert dict(direct.ops) == dict(via_module.ops)


def test_ldend_from_rb_outputs_are_valid(p2, rb_induced_ldend):
    for alg in rb_induced_ldend:
        assert sa.check_class(alg, "l_dendriform").passed


def test_ldend_from_rb_refuses_and_forces(p2):
    bad = sa.LinearMap.identity(2)
    with pytest.raises(sa.PreconditionFailed):
        sa.ldend_from_rb(bad, p2)
    forced = sa.ldend_from_rb(bad, p2, force=True)
    assert forced.has_op("tri_r")


def test_prelie_from_o_lie(l2, rb2):
    out = sa.prelie_from_o_lie(rb2, l2)
    # e2 o e2 = [e1, e2] = e2 and nothing else survives
    assert out == sa.algebra(2, {"circ": [(2, 2, 2, 1)]})
    assert sa.check_class(out, "pre_lie").passed
    assert sa.prelie_from_o_lie(sa.LinearMap.zero(2, 2), l2) == sa.zero_algebra(2, ("circ",))
    with pytest.raises(sa.PreconditionFailed):
        sa.prelie_from_o_lie(sa.LinearMap.identity(2), l2)


def test_commuting_pair_rb2(l2, rb2):
    zero = sa.LinearMap.zero(2, 2)
    assert sa.ldend_from_commuting_pair(zero, zero, l2) == sa.zero_algebra(2, ("tri_r", "tri_l"))
    out = sa.ldend_from_commuting_pair(rb2, rb2, l2)
    # R(R(e2)) = 0 and [R e_i, R e_j] lands in [e1, e1] = 0
    assert out == sa.zero_algebra(2, ("tri_r", "tri_l"))
    assert sa.check_class(out, "l_dendriform").passed


def test_commuting_pair_nonzero_output(l2):
    R = sa.linmap([[-1, 0], [-1, 0]])  # adjoint O-operator found by search
    assert sa.check_o_lie(R, l2, sa.adjoint_family(l2)).passed
    out = sa.ldend_from_commuting_pair(R, R, l2)
    assert not sa.horizontal_prelie(out).op("bullet") == sa.zero_algebra(2, ("bullet",)).op("bullet")
    assert sa.check_class(out, "l_dendriform").passed
    assert sa.check_class(sa.vertical_prelie(out), "pre_lie").passed


def test_prelie_from_o_lie_bracket_recovery_is_not_general(l2):
    # the sub-adjacent bracket of the induced pre-Lie product recovers the
    # input bracket only for invertible operators; a valid non-invertible
    # operator witnesses that no general claim holds
    R = sa.linmap([[-1, -1], [1, 1]])
    assert sa.check_o_lie(R, l2, sa.adjoint_family(l2)).passed
    assert not R.is_invertible
    out = sa.prelie_from_o_lie(R, l2)
    assert sa.check_class(out, "pre_lie").passed
    assert sa.sub_adjacent_lie(out) != l2


def test_commuting_pair_rejects_non_commuting(l2):
    a = sa.linmap([[-1, -1], [1, 1]])
    b = sa.linmap([[-1, 0], [-1, 0]])
    ad = sa.adjoint_family(l2)
    assert sa.check_o_lie(a, l2, ad).passed and sa.check_o_lie(b, l2, ad).passed
    assert a @ b != b @ a
    with pytest.raises(sa.PreconditionFailed):
        sa.ldend_from_commuting_pair(a, b, l2)


def test_commuting_pair_factors_through_rb(l2):
    # the second operator is a Rota-Baxter operator on the pre-Lie algebra
    # induced by the first, and the chain reproduces the pair construction
    r1 = sa.linmap([[-1, 0], [-1, 0]])
    pl = sa.prelie_from_o_lie(r1, l2)
    assert sa.check_rota_baxter_prelie(r1, pl).passed
    chained = sa.ldend_from_rb(r1, pl)
    assert dict(chained.ops) == dict(sa.ldend_from_commuting_pair(r1, r1, l2).ops)


def test_compatible_from_identity_reproduces_ld2(ld2):
    out = sa.compatible_ldend_from_invertible_o(sa.LinearMap.identity(2), vertical_module(ld2))
    assert out == ld2


def test_compatible_construction_properties(ld2):
    m = vertical_module(ld2)
    out = sa.compatible_ldend_from_invertible_o(sa.LinearMap.identity(2), m)
    assert sa.check_class(out, "l_dendriform").passed
    assert sa.vertical_prelie(out).op("circ") == m.base.op("circ")


def test_compatible_requires_invertible(p2):
    m = regular_prelie_module(p2)
    with pytest.raises(sa.PreconditionFailed):
        sa.compatible_ldend_from_invertible_o(sa.linmap([[0, 1], [0, 0]]), m)


# ---------------------------------------------------------------------------
# 2-cocycle lift

def test_cocycle_lift_zero_algebra(z2):
    zero_tri = sa.ldend_from_2cocycle(z2, sa.bilinear_form([[1, 0], [0, 1]]))
    assert zero_tri == sa.zero_algebra(2, ("tri_r", "tri_l"))


def test_cocycle_lift_preconditions(p2):
    with pytest.raises(sa.PreconditionFailed):
        sa.ldend_from_2cocycle(p2, sa.bilinear_form([[0, 1], [-1, 0]]))  # not symmetric
    with pytest.raises(sa.PreconditionFailed):
        sa.ldend_from_2cocycle(p2, sa.bilinear_form([[1, 0], [0, 0]]))   # degenerate
    with pytest.raises(sa.PreconditionFailed):
        sa.ldend_from_2cocycle(p2, sa.bilinear_form([[1, 0], [0, 1]]))   # not a cocycle


def test_cocycle_lift_round_trip(ld2):
    # on the canonical double the anti-diagonal gram is a nondegenerate
    # symmetric 2-cocycle; the lift agrees with the operator route
    hat_v, _, r_can = sa.canonical_double_solution(ld2)
    B = sa.bilinear_form([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert sa.check_prelie_cocycle(hat_v, B).passed
    lift = sa.ldend_from_2cocycle(hat_v, B)
    assert sa.check_class(lift, "l_dendriform").passed
    assert sa.vertical_prelie(lift).op("circ") == hat_v.op("circ")

    T = sa.map_from_form(B)
    m_dual = sa.dual_prelie_module(regular_prelie_module(hat_v))
    assert sa.check_o_prelie(T, m_dual).passed
    via_operator = sa.compatible_ldend_from_invertible_o(T, m_dual)
    assert dict(via_operator.ops) == dict(lift.ops)


_thirds = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))


def _grid(data, n, rank):
    return nest(data.draw(st.lists(_thirds, min_size=n ** rank, max_size=n ** rank)), n, rank)


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "not-symmetric"])
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cocycle_lift_matches_hand_written_formula(symmetric, data):
    """The lift through the O-operator construction against the columns of
    -(G^T)^-1 M_a G^T, forced past the cocycle gate."""
    n = data.draw(st.integers(1, 4))
    alg = sa.Algebra(n, {"circ": _grid(data, n, 3)})
    gram = _grid(data, n, 2)
    if symmetric:
        gram = tuple(tuple(gram[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))
    B = sa.BilinearForm(n, gram)
    assume(B.is_nondegenerate and B.is_symmetric == symmetric)
    lift = sa.ldend_from_2cocycle(alg, B, force=True)
    assert repr(lift) == repr(naive.ldend_from_2cocycle(alg, B, force=True))


# ---------------------------------------------------------------------------
# exhaustive search

def test_search_rb_zero_algebra(z2):
    assert len(sa.search_rb(z2, [0, 1])) == 16


def test_search_rb_p2(p2, rb2, rb_operators_p2):
    entry_grids = [T.entries for T in rb_operators_p2]
    assert sa.LinearMap.zero(2, 2).entries in entry_grids
    assert rb2.entries in entry_grids
    assert sa.LinearMap.identity(2).entries not in entry_grids
    assert len(rb_operators_p2) == 9


def test_search_rb_p1(p1):
    found = sa.search_rb(p1, [0, 1])
    assert [T.entries for T in found] == [((0,),)]


def test_search_rb_lexicographic(p2, rb_operators_p2):
    flats = [tuple(x for row in T.entries for x in row) for T in rb_operators_p2]
    assert flats == sorted(flats)


@pytest.mark.parametrize("entry_set", [[-1, 0, 1], ["1/2", 0, -2], ["-1/3", 0, "1/2", 1]])
@pytest.mark.parametrize("name", ["Z2", "P1", "P2", "N2", "LD2_VERT"])
def test_search_rb_matches_enumeration(name, entry_set):
    alg = catalog.build(name)
    halved = sa.Algebra(alg.dim, {"circ": tuple(tuple(tuple(x / 2 for x in vec) for vec in plane)
                                                 for plane in alg.op("circ"))})
    for a in (alg, halved):
        found = sa.search_rb(a, entry_set)
        assert found
        assert repr(found) == repr(naive.enumerate_rb(a, entry_set))


_SPELLINGS = [(0, "0/3"), (1, "2/2", Fraction(1)), ("1/2", "2/4"), ("-3/2", "-6/4"), (-1, "-1/1")]
_ENTRY_SETS = {
    "signed-and-fractional": lambda size: st.lists(
        st.sampled_from([-2, -1, 0, 1, 2, "-1/2", "1/2", "3/2", "-1/3"]),
        min_size=1, max_size=size, unique=True),
    "without-zero": lambda size: st.lists(
        st.sampled_from([-2, -1, 1, 2, "-1/2", "1/2", "3/2", "-1/3"]),
        min_size=1, max_size=size, unique=True),
    "one-value": lambda size: st.lists(
        st.sampled_from([-2, -1, 0, 1, "1/2", "-3/2"]), min_size=1, max_size=1),
    "equal-rationals": lambda size: st.lists(
        st.sampled_from(_SPELLINGS), min_size=1, max_size=size, unique=True,
    ).map(lambda groups: [x for group in groups for x in group]).flatmap(st.permutations),
}


def _random_search(data, kind):
    """Any circ table, pre-Lie or not, with int or half-integer entries, and
    an entry set of ``kind``, sized so the enumeration stays small."""
    n = data.draw(st.integers(1, 3))
    denominator = data.draw(st.sampled_from([1, 2]))
    entries = st.one_of(st.just(0), st.integers(-2, 2)).map(lambda x: Fraction(x, denominator))
    circ = nest(data.draw(st.lists(entries, min_size=n ** 3, max_size=n ** 3)), n, 3)
    return sa.Algebra(n, {"circ": circ}), data.draw(_ENTRY_SETS[kind]({1: 5, 2: 4, 3: 2}[n]))


@pytest.mark.parametrize("kind", sorted(_ENTRY_SETS))
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_search_rb_matches_enumeration_on_random_tables(kind, data):
    """The search returns the enumeration's hits, values and order alike."""
    alg, entry_set = _random_search(data, kind)
    assert repr(sa.search_rb(alg, entry_set)) == repr(naive.enumerate_rb(alg, entry_set))


@pytest.mark.parametrize("kind", sorted(_ENTRY_SETS))
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_search_rb_packed_columns_follow_each_assignment(kind, data):
    """At every evaluation the packed columns the search passes are its
    columns packed afresh, stale entries of unassigned positions included:
    the shift-add of each assignment never drifts."""
    alg, entry_set = _random_search(data, kind)
    widths, calls = [], []
    base, kernel = operators._packed_base, operators._o_packed

    def packed_base(*args):
        bits, by_b = base(*args)
        widths.append(bits)
        return bits, by_b

    def checked(cols, packed, *rest):
        assert packed == [pack(col, widths[-1]) for col in cols]
        calls.append(1)
        return kernel(cols, packed, *rest)

    with mock.patch.object(operators, "_packed_base", packed_base), \
            mock.patch.object(operators, "_o_packed", checked):
        sa.search_rb(alg, entry_set)
    assert len(widths) == 1 and bool(calls) == bool(entry_set)


def test_search_rb_one_value_at_dim_40_is_one_deep_search(monkeypatch):
    """Depth 1,600 with one candidate: iterative, and decided by one
    evaluation rather than one per completed row or column."""
    n = 40
    # e_i o e_j = e_(i+j): a truncated polynomial algebra, commutative and associative
    alg = sa.algebra(n, {"circ": [(i, j, i + j, 1) for i in range(1, n) for j in range(1, n - i + 1)]})
    evaluations = []
    kernel = operators._o_packed
    monkeypatch.setattr(operators, "_o_packed", lambda *args: evaluations.append(1) or kernel(*args))
    start = time.perf_counter()
    found = sa.search_rb(alg, [0])
    assert time.perf_counter() - start < 0.5
    assert found == [sa.LinearMap.zero(n, n)]
    assert len(evaluations) == 1
    ones = sa.LinearMap(n, n, ((1,) * n,) * n)
    expected = [ones] if sa.check_rota_baxter_prelie(ones, alg).passed else []
    assert sa.search_rb(alg, ["2/2"]) == expected


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("n", range(1, 7))
def test_rb_schedule_checks_each_component_once_when_it_is_decided(n, prune):
    """Component k at (u, v) is checked exactly once: where the last of
    column u, column v and row k is completed, or at the last position
    without pruning, and never before all three are assigned."""
    bits = 5
    field = (1 << bits) - 1
    order = operators._hook_order(n)
    assert sorted(order) == [(i, j) for i in range(n) for j in range(n)]
    offset, schedule = operators._rb_schedule(order, n, bits, prune)
    assert offset == sum(1 << (bits - 1) << k * bits for k in range(n))
    assert len(schedule) == len(order)
    checked = {}
    for pos, checks in enumerate(schedule):
        assert len({(u, v) for u, v, _, _ in checks}) == len(checks)
        for u, v, mask, zero in checks:
            assert mask and zero == offset & mask
            ks = [k for k in range(n) if mask >> k * bits & field]
            assert mask == sum(field << k * bits for k in ks)
            for k in ks:
                assert (u, v, k) not in checked
                checked[u, v, k] = pos
    assert len(checked) == n ** 3
    for (u, v, k), pos in checked.items():
        needed = {(i, u) for i in range(n)} | {(i, v) for i in range(n)} | {(k, j) for j in range(n)}
        assert needed <= set(order[:pos + 1])
        assert pos == (max(map(order.index, needed)) if prune else len(order) - 1)


@pytest.mark.parametrize("dim, circ, entry_set, calls, hits", [
    (2, [(1, 1, 1, 1), (1, 2, 2, 1)], [-2, -1, 0, 1, 2], 210, 17),
    (3, [(1, 1, 1, 1), (2, 2, 2, 1), (2, 3, 3, 1)], [-1, 0, 1], 1380, 21),
    (3, [(1, 1, 2, 1), (1, 2, 3, 1)], [-1, 0, 1], 2268, 99),
    (2, [(1, 1, 2, 1), (1, 2, 1, 1)], ["1/2", 0, -1], 72, 3),
], ids=["P2", "P1+P2", "e1e1=e2,e1e2=e3", "N2-fractional"])
def test_search_rb_kernel_calls_are_pinned(monkeypatch, dim, circ, entry_set, calls, hits):
    """The number of partial maps the search evaluates: a schedule that
    checks components later than it could prunes less and fails here."""
    alg = sa.algebra(dim, {"circ": circ})
    evaluations = []
    kernel = operators._o_packed
    monkeypatch.setattr(operators, "_o_packed", lambda *args: evaluations.append(1) or kernel(*args))
    found = sa.search_rb(alg, entry_set)
    assert (len(evaluations), len(found)) == (calls, hits)


def test_search_rb_on_a_dim_4_double_where_pruning_runs_deepest():
    """The horizontal double of LD2 over {-1, 0, 1}: 3**16 candidates, 801
    hits, pinned by digest, each a Rota-Baxter operator."""
    alg = catalog.build("LD2_DOUBLE_HOR")
    found = sa.search_rb(alg, [-1, 0, 1], cap=3 ** 16)
    assert len(found) == 801
    assert hashlib.sha256(repr(found).encode()).hexdigest()[:8] == "fb119c06"
    assert all(sa.check_rota_baxter_prelie(R, alg).passed for R in found)


def test_search_rb_empty_entry_set_finds_nothing(p2):
    assert sa.search_rb(p2, []) == []


def test_search_rb_cap(p2, monkeypatch):
    """The cap counts every candidate and is applied before any evaluation."""
    monkeypatch.setattr(operators, "_o_packed", lambda *args: pytest.fail("evaluated"))
    with pytest.raises(sa.SearchSpaceTooLarge) as excinfo:
        sa.search_rb(p2, [-1, 0, 1], cap=80)
    assert str(excinfo.value) == "81 candidates exceed the cap of 80"
    big = sa.Algebra(40, {})                    # no circ: the cap comes before the table
    with pytest.raises(sa.SearchSpaceTooLarge) as excinfo:
        sa.search_rb(big, [0, 1])
    assert str(excinfo.value) == f"{2 ** 1600} candidates exceed the cap of {10 ** 6}"
    monkeypatch.undo()
    assert len(sa.search_rb(p2, [-1, 0, 1], cap=81)) == 9


# ---------------------------------------------------------------------------
# shape refusals

def test_wrongly_shaped_o_operator_is_refused(p2):
    with pytest.raises(sa.DimensionMismatch) as excinfo:
        sa.check_o_prelie(sa.LinearMap.zero(2, 3), regular_prelie_module(p2))
    assert str(excinfo.value) == "O-operator: expected a 2x2 map, got 2x3"


def test_invertible_o_operator_needs_equal_dimensions(p2):
    m = sa.PreLieModule(p2, 3, (sa.LinearMap.zero(3, 3),) * 2, (sa.LinearMap.zero(3, 3),) * 2)
    with pytest.raises(sa.DimensionMismatch) as excinfo:
        sa.compatible_ldend_from_invertible_o(sa.LinearMap.identity(3), m)
    assert str(excinfo.value) == "invertible O-operator requires dim V = dim A"


def test_cocycle_lift_needs_the_algebra_dimension(p2):
    with pytest.raises(sa.DimensionMismatch) as excinfo:
        sa.ldend_from_2cocycle(p2, sa.bilinear_form([[1]]))
    assert str(excinfo.value) == "form dimension does not match the algebra"
