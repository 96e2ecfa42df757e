"""Module checks, duals and semidirect sums over pre-Lie and L-dendriform
algebras, including both directions of the module/semidirect equivalences."""

from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import splitalg as sa
from splitalg import catalog
from splitalg.representations import (
    left_family,
    regular_ldend_module,
    regular_prelie_module,
    right_family,
)


def neg(family):
    return tuple(-m for m in family)


def zeros(n, count):
    return tuple(sa.LinearMap.zero(n, n) for _ in range(count))


# ---------------------------------------------------------------------------
# pre-Lie modules

def test_zero_prelie_module_passes(p2):
    m = sa.PreLieModule(p2, 2, zeros(2, 2), zeros(2, 2))
    assert sa.check_prelie_module(m).passed


def test_regular_module_passes(p2):
    assert sa.check_prelie_module(regular_prelie_module(p2)).passed


def test_left_action_only_module_passes(p2):
    # (l, 0): the second identity collapses and the first is the operator
    # form of the defining identity, so it must pass
    m = sa.PreLieModule(p2, 2, left_family(p2, "circ"), zeros(2, 2))
    assert sa.check_prelie_module(m).passed


def test_invalid_families_fail(p2):
    bad = (sa.linmap([[0, 1], [0, 0]]), sa.linmap([[0, 0], [1, 0]]))
    m = sa.PreLieModule(p2, 2, bad, zeros(2, 2))
    report = sa.check_prelie_module(m)
    assert not report.passed


def test_module_shape_validation(p2):
    with pytest.raises(sa.DimensionMismatch):
        sa.PreLieModule(p2, 2, (sa.LinearMap.identity(2),), zeros(2, 2))
    with pytest.raises(sa.DimensionMismatch):
        sa.PreLieModule(p2, 3, zeros(2, 2), zeros(2, 2))


def test_dual_prelie_module_zero(p2):
    m = sa.PreLieModule(p2, 2, zeros(2, 2), zeros(2, 2))
    d = sa.dual_prelie_module(m)
    assert d.l == zeros(2, 2) and d.r == zeros(2, 2)


def test_dual_prelie_module_frozen_matrices(p2):
    # negated transposes of the regular actions on P2
    d = sa.dual_prelie_module(regular_prelie_module(p2))
    assert d.l == (sa.linmap([[0, 0], [0, -1]]), sa.linmap([[0, 1], [0, 0]]))
    assert d.r == (sa.linmap([[1, 0], [0, 0]]), sa.linmap([[0, 1], [0, 0]]))


def test_dual_prelie_module_is_involution(p2):
    m = regular_prelie_module(p2)
    dd = sa.dual_prelie_module(sa.dual_prelie_module(m))
    assert dd.l == m.l and dd.r == m.r


def test_dual_preserves_modulehood(p2):
    assert sa.check_prelie_module(sa.dual_prelie_module(regular_prelie_module(p2))).passed


def test_semidirect_prelie_zero(z2):
    m = sa.PreLieModule(z2, 2, zeros(2, 2), zeros(2, 2))
    assert sa.semidirect_prelie(m) == sa.zero_algebra(4, ("circ",))


def test_semidirect_prelie_regular(p2):
    out = sa.semidirect_prelie(regular_prelie_module(p2))
    assert out.dim == 4
    assert sa.check_class(out, "pre_lie").passed


def test_semidirect_tag_names_the_base(p2, ld2):
    assert sa.semidirect_prelie(regular_prelie_module(p2)).class_tag == "semidirect_prelie(P2)"
    assert sa.semidirect_ldend(regular_ldend_module(ld2)).class_tag == "semidirect_ldend(LD2)"
    untagged = sa.Algebra(2, {"circ": p2.op("circ")})
    assert sa.semidirect_prelie(regular_prelie_module(untagged)).class_tag == "semidirect_prelie"


def test_semidirect_prelie_dual_regular(p2):
    out = sa.semidirect_prelie(sa.dual_prelie_module(regular_prelie_module(p2)))
    assert sa.check_class(out, "pre_lie").passed


def test_semidirect_block_layout(p2):
    # base coordinates first: the A.A block reproduces the base table and
    # the V.V block vanishes
    out = sa.semidirect_prelie(regular_prelie_module(p2))
    table = out.op("circ")
    base = p2.op("circ")
    for i in range(2):
        for j in range(2):
            assert table[i][j][:2] == base[i][j]
            assert table[2 + i][2 + j] == (0, 0, 0, 0)


def test_module_iff_semidirect_pre_lie(p2):
    # failing module data yields a semidirect table failing the class check,
    # and passing module data yields a passing one
    good = regular_prelie_module(p2)
    assert sa.check_prelie_module(good).passed
    assert sa.check_class(sa.semidirect_prelie(good), "pre_lie").passed

    bad_fams = (sa.linmap([[0, 1], [0, 0]]), sa.linmap([[0, 0], [1, 0]]))
    bad = sa.PreLieModule(p2, 2, bad_fams, zeros(2, 2))
    assert not sa.check_prelie_module(bad).passed
    assert not sa.check_class(sa.semidirect_prelie(bad), "pre_lie").passed


# ---------------------------------------------------------------------------
# L-dendriform modules

def test_zero_ldend_module_passes(ld2):
    z = zeros(2, 2)
    assert sa.check_ldend_module(sa.LDendModule(ld2, 2, z, z, z, z)).passed


def test_regular_ldend_module_passes(ld2):
    assert sa.check_ldend_module(regular_ldend_module(ld2)).passed


def test_broken_ldend_family_fails(ld2):
    # replace l_r by matrices that are not a bracket representation
    m = regular_ldend_module(ld2)
    bad_lr = (sa.linmap([[0, 1], [0, 0]]), sa.linmap([[0, 0], [1, 0]]))
    broken = sa.LDendModule(ld2, 2, bad_lr, m.r_r, m.l_l, m.r_l)
    report = sa.check_ldend_module(broken)
    assert not report.passed
    first = report.failures[0]
    assert first.identity == "eq-4.1"
    assert first.indices == (1, 2)
    assert first.residual == (1, 0, 0, -1)


def test_dual_ldend_module_zero(ld2):
    z = zeros(2, 2)
    d = sa.dual_ldend_module(sa.LDendModule(ld2, 2, z, z, z, z))
    assert d.l_r == z and d.r_r == z and d.l_l == z and d.r_l == z


def test_dual_ldend_module_passes(ld2):
    assert sa.check_ldend_module(sa.dual_ldend_module(regular_ldend_module(ld2))).passed


def test_dual_ldend_first_family_formula(ld2):
    m = regular_ldend_module(ld2)
    d = sa.dual_ldend_module(m)
    for i in range(2):
        expected = -((m.l_r[i] + m.l_l[i] - m.r_r[i] - m.r_l[i]).transpose())
        assert d.l_r[i] == expected


def test_dual_ldend_module_is_involution(ld2):
    m = regular_ldend_module(ld2)
    dd = sa.dual_ldend_module(sa.dual_ldend_module(m))
    assert (dd.l_r, dd.r_r, dd.l_l, dd.r_l) == (m.l_r, m.r_r, m.l_l, m.r_l)


def test_semidirect_ldend_zero():
    zero = sa.zero_algebra(1, ("tri_r", "tri_l"))
    z = zeros(1, 1)
    out = sa.semidirect_ldend(sa.LDendModule(zero, 1, z, z, z, z))
    assert out == sa.zero_algebra(2, ("tri_r", "tri_l"))


def test_semidirect_ldend_regular(ld2):
    out = sa.semidirect_ldend(regular_ldend_module(ld2))
    assert out.dim == 4
    assert sa.check_class(out, "l_dendriform").passed


def test_semidirect_ldend_dual(ld2):
    out = sa.semidirect_ldend(sa.dual_ldend_module(regular_ldend_module(ld2)))
    assert sa.check_class(out, "l_dendriform").passed


def test_module_iff_semidirect_l_dendriform(ld2):
    good = regular_ldend_module(ld2)
    assert sa.check_ldend_module(good).passed
    assert sa.check_class(sa.semidirect_ldend(good), "l_dendriform").passed

    bad_lr = (sa.linmap([[0, 1], [0, 0]]), sa.linmap([[0, 0], [1, 0]]))
    bad = sa.LDendModule(ld2, 2, bad_lr, good.r_r, good.l_l, good.r_l)
    assert not sa.check_ldend_module(bad).passed
    assert not sa.check_class(sa.semidirect_ldend(bad), "l_dendriform").passed


def test_modules_built_from_lists_are_values(p2, ld2):
    """Families given as lists are stored as tuples: the module equals and
    hashes like the tuple-built one, and appending to a source list later
    does not reach it.  Tuple families are kept as they are."""
    for m in (regular_prelie_module(p2), regular_ldend_module(ld2)):
        names = [f.name for f in fields(m)[2:]]
        lists = [list(getattr(m, name)) for name in names]
        again = type(m)(m.base, m.vdim, *lists)
        assert again == m and hash(again) == hash(m)
        lists[0].append(lists[0][0])
        assert again == m and hash(again) == hash(m)
        kept = type(m)(m.base, m.vdim, *(getattr(m, name) for name in names))
        assert all(getattr(kept, name) is getattr(m, name) for name in names)


@pytest.mark.parametrize("vdim", [True, 2.0, "2"], ids=repr)
def test_module_vdim_must_be_an_int(p2, ld2, vdim):
    for m in (regular_prelie_module(p2), regular_ldend_module(ld2)):
        families = [getattr(m, f.name) for f in fields(m)[2:]]
        with pytest.raises(TypeError) as excinfo:
            type(m)(m.base, vdim, *families)
        assert str(excinfo.value) == f"vdim must be an int, got {vdim!r}"


#: module kind -> (class, base, its block ops, family fields in field order)
_MODULE_KINDS = {
    "pre_lie": (sa.PreLieModule, "P2", ("circ",), ("l", "r")),
    "l_dendriform": (sa.LDendModule, "LD2", ("tri_r", "tri_l"), ("l_r", "r_r", "l_l", "r_l")),
}


def _refusal(make, base, vdim, families):
    """The exception type and message of ``make(base, vdim, *families)``."""
    with pytest.raises(Exception) as excinfo:
        make(base, vdim, *families)
    exc = excinfo.value
    return type(exc), exc.args[0] if isinstance(exc, KeyError) else str(exc)


@pytest.mark.parametrize("kind", sorted(_MODULE_KINDS))
def test_module_refusals_keep_their_type_message_and_order(kind):
    """Each refusal of a module constructor, by exact type and message, in
    order: a base without a block op first (whatever else is wrong), then a
    vdim that is not an int, then the first family in field order of the
    wrong length or with a matrix of the wrong shape."""
    make, name, ops, names = _MODULE_KINDS[kind]
    base = catalog.build(name)
    good = zeros(2, 2)
    short, wide = good[:1], zeros(3, 2)
    for op in ops:
        without = sa.Algebra(2, {k: t for k, t in base.ops.items() if k != op})
        have = ", ".join(sorted(without.ops)) or "none"
        expected = (sa.UnknownOperation, f"algebra has no operation {op!r} (has: {have})")
        for vdim in (2, "2", 2.0):
            assert _refusal(make, without, vdim, [short] * len(names)) == expected
    for vdim in (True, 2.0, "2", None):
        expected = (TypeError, f"vdim must be an int, got {vdim!r}")
        assert _refusal(make, base, vdim, [wide] * len(names)) == expected
    flat = (sa.LinearMap.zero(2, 3),) * 2
    for k, field in enumerate(names):
        before, after = [good] * k, len(names) - k - 1
        count = (sa.DimensionMismatch, f"family {field!r} must have one matrix per basis element")
        shape = (sa.DimensionMismatch, f"family {field!r} matrices must be 2x2")
        assert _refusal(make, base, 2, before + [short] + [wide] * after) == count
        assert _refusal(make, base, 2, before + [good + short] + [wide] * after) == count
        assert _refusal(make, base, 2, before + [wide] + [short] * after) == shape
        assert _refusal(make, base, 2, before + [short + wide[:1]] + [short] * after) == shape
        assert _refusal(make, base, 2, before + [flat] + [flat] * after) == shape


def test_checks_refuse_a_module_of_the_other_kind(p2, ld2, constructions):
    """The module and O-operator checks, the dual module, the semidirect sum
    and the solution builder of one kind refuse a module of the other with
    a TypeError, on a fresh value and after the check of its own kind has
    kept its compiled lines with it, and build nothing for it."""
    base = sa.merge_ops(p2, ld2)
    T = sa.LinearMap.identity(2)
    checks = {sa.PreLieModule: [sa.check_prelie_module, lambda m: sa.check_o_prelie(T, m),
                                sa.dual_prelie_module, sa.semidirect_prelie,
                                lambda m: sa.build_s_solution(m, T)],
              sa.LDendModule: [sa.check_ldend_module, lambda m: sa.check_o_ldend(T, m),
                               sa.dual_ldend_module, sa.semidirect_ldend,
                               lambda m: sa.build_ld_solution(m, T)]}
    own = {sa.PreLieModule: sa.check_prelie_module, sa.LDendModule: sa.check_ldend_module}
    for checked in (False, True):
        for m in (regular_prelie_module(base), regular_ldend_module(base)):
            if checked:
                assert own[type(m)](m).passed
            kept = set(vars(m))
            other = sa.LDendModule if type(m) is sa.PreLieModule else sa.PreLieModule
            for check in checks[other]:
                constructions.clear()
                with pytest.raises(TypeError) as excinfo:
                    check(m)
                assert str(excinfo.value) == f"{other.__name__} required, got {type(m).__name__}"
                assert constructions == {}
            assert set(vars(m)) == kept


# ---------------------------------------------------------------------------
# the two pre-Lie modules carried by any L-dendriform algebra

def test_ldend_carries_prelie_modules(ld2, rb_induced_ldend):
    for alg in [ld2] + rb_induced_ldend:
        lr = left_family(alg, "tri_r")
        ll = left_family(alg, "tri_l")
        rl = right_family(alg, "tri_l")
        hor = sa.rename_ops(sa.horizontal_prelie(alg), {"bullet": "circ"})
        vert = sa.vertical_prelie(alg)
        assert sa.check_prelie_module(sa.PreLieModule(hor, alg.dim, lr, rl)).passed
        assert sa.check_prelie_module(sa.PreLieModule(vert, alg.dim, lr, neg(ll))).passed


def test_ldend_dual_prelie_modules_match_cited_tuples(ld2):
    # dual of (L_r, R_l) is (L_r* - R_l*, -R_l*); dual of (L_r, -L_l) is
    # (L_r* + L_l*, L_l*)
    lr = left_family(ld2, "tri_r")
    ll = left_family(ld2, "tri_l")
    rl = right_family(ld2, "tri_l")
    hor = sa.rename_ops(sa.horizontal_prelie(ld2), {"bullet": "circ"})
    vert = sa.vertical_prelie(ld2)

    d_hor = sa.dual_prelie_module(sa.PreLieModule(hor, 2, lr, rl))
    lr_s = sa.dual_rep(lr)
    rl_s = sa.dual_rep(rl)
    assert d_hor.l == tuple(a - b for a, b in zip(lr_s, rl_s))
    assert d_hor.r == tuple(-m for m in rl_s)

    d_vert = sa.dual_prelie_module(sa.PreLieModule(vert, 2, lr, neg(ll)))
    ll_s = sa.dual_rep(ll)
    assert d_vert.l == tuple(a + b for a, b in zip(lr_s, ll_s))
    assert d_vert.r == ll_s


# ---------------------------------------------------------------------------
# the module/semidirect equivalence on generated inputs

def _catalog_base(name):
    alg = catalog.build(name)
    if alg.has_op("bullet"):
        return sa.rename_ops(alg, {"bullet": "circ"})
    if alg.has_op("succ"):
        return sa.dendriform_to_ldend(alg)
    return alg


def _scaled(alg, c):
    return sa.Algebra(alg.dim, {name: tuple(tuple(tuple(c * x for x in vec) for vec in plane)
                                            for plane in table)
                                for name, table in alg.ops.items()})


def _bumped(grid, index, delta):
    """A nested tuple grid with delta added to the entry at ``index``."""
    head, *rest = index
    entry = grid[head] + delta if not rest else _bumped(grid[head], rest, delta)
    return grid[:head] + (entry,) + grid[head + 1:]


def _padded(family, k):
    """Each matrix direct-summed with a zero k x k block (the module plus a
    trivial k-dimensional one)."""
    return tuple(
        sa.linmap([list(row) + [0] * k for row in m.entries] + [[0] * (m.cols + k)] * k)
        for m in family
    )


#: class -> (catalog members, families, regular, dual, constructor,
#: semidirect sum, module check)
_MODULE_CLASSES = {
    "pre_lie": (("Z2", "P1", "P2", "N2", "LD2_VERT", "LD2_HOR"), ("l", "r"),
                regular_prelie_module, sa.dual_prelie_module, sa.PreLieModule,
                sa.semidirect_prelie, sa.check_prelie_module),
    "l_dendriform": (("LD2", "D1"), ("l_r", "r_r", "l_l", "r_l"),
                     regular_ldend_module, sa.dual_ldend_module, sa.LDendModule,
                     sa.semidirect_ldend, sa.check_ldend_module),
}


@pytest.mark.parametrize("class_name", sorted(_MODULE_CLASSES))
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_module_iff_semidirect_in_class(class_name, data):
    """A + V is in the class exactly when A is and (V, families) is a module:
    zero, regular and dual modules of scaled catalog members, padded to
    vdim != dim, with one family entry (and sometimes the base) perturbed."""
    names, fields, regular, dual, make, semidirect, check = _MODULE_CLASSES[class_name]
    draw = data.draw
    base = _catalog_base(draw(st.sampled_from(names)))
    base = _scaled(base, draw(st.sampled_from((Fraction(1), Fraction(-2), Fraction(1, 3)))))
    n = base.dim
    if draw(st.integers(0, 3)) == 0:
        op = draw(st.sampled_from(sorted(base.ops)))
        index = draw(st.tuples(*[st.integers(0, n - 1)] * 3))
        base = sa.Algebra(n, {**base.ops, op: _bumped(base.op(op), index, Fraction(1, 2))})
    kind = draw(st.sampled_from(("zero", "regular", "dual")))
    if kind == "zero":
        vdim = draw(st.integers(1, 3))
        families = [zeros(vdim, n) for _ in fields]
    else:
        m = regular(base) if kind == "regular" else dual(regular(base))
        k = draw(st.integers(0, 1))
        vdim = n + k
        families = [_padded(getattr(m, f), k) for f in fields]
    if draw(st.booleans()):
        f = draw(st.integers(0, len(fields) - 1))
        i, a, b = draw(st.tuples(st.integers(0, n - 1), *[st.integers(0, vdim - 1)] * 2))
        matrix = families[f][i]
        bumped = sa.LinearMap(vdim, vdim, _bumped(matrix.entries, (a, b), draw(
            st.sampled_from((Fraction(1), Fraction(-1, 3))))))
        families[f] = families[f][:i] + (bumped,) + families[f][i + 1:]
    m = make(base, vdim, *families)
    expected = sa.check_class(base, class_name).passed and check(m).passed
    event(f"in class: {expected}")
    assert sa.check_class(semidirect(m), class_name).passed == expected


# ---------------------------------------------------------------------------
# dual modules against the dual_rep formulas

def _old_dual_prelie(m):
    l_star, r_star = sa.dual_rep(m.l), sa.dual_rep(m.r)
    return (tuple(a - b for a, b in zip(l_star, r_star)), tuple(-a for a in r_star))


def _old_dual_ldend(m):
    lr_s, rr_s, ll_s, rl_s = map(sa.dual_rep, (m.l_r, m.r_r, m.l_l, m.r_l))
    return (
        tuple(a + b - c - d for a, b, c, d in zip(lr_s, ll_s, rr_s, rl_s)),
        rr_s,
        tuple(a - b for a, b in zip(rr_s, ll_s)),
        tuple(-(a + b) for a, b in zip(rr_s, rl_s)),
    )


@pytest.mark.parametrize("class_name", sorted(_MODULE_CLASSES))
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_dual_module_matches_dual_rep_formulas(class_name, data):
    """Random families (not modules in general) over a random base: each dual
    family equals its formula in rho* = -rho^T."""
    _, fields, _, dual, make, _, _ = _MODULE_CLASSES[class_name]
    draw = data.draw
    n, vdim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    matrix = st.lists(st.lists(entries, min_size=vdim, max_size=vdim),
                      min_size=vdim, max_size=vdim).map(sa.linmap)
    families = [tuple(draw(matrix) for _ in range(n)) for _ in fields]
    base = sa.zero_algebra(n, ("circ",) if class_name == "pre_lie" else ("tri_r", "tri_l"))
    m = make(base, vdim, *families)
    d = dual(m)
    oracle = _old_dual_prelie(m) if class_name == "pre_lie" else _old_dual_ldend(m)
    assert tuple(getattr(d, f) for f in fields) == oracle
    assert (d.base, d.vdim) == (m.base, m.vdim)
