"""Table-level constructions between the algebra classes."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import splitalg as sa
from splitalg import catalog

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def raw_tables(draw, dim):
    rows = draw(
        st.lists(
            st.lists(
                st.lists(rationals, min_size=dim, max_size=dim),
                min_size=dim, max_size=dim,
            ),
            min_size=dim, max_size=dim,
        )
    )
    return tuple(tuple(tuple(row) for row in plane) for plane in rows)


@st.composite
def raw_ldend(draw):
    """Arbitrary (not necessarily valid) pair of L-dendriform tables; the
    functor identities below are table-level and hold regardless."""
    n = draw(st.integers(min_value=1, max_value=3))
    return sa.Algebra(n, {"tri_r": draw(raw_tables(n)), "tri_l": draw(raw_tables(n))})


@st.composite
def raw_quadri(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    return sa.Algebra(n, {name: draw(raw_tables(n)) for name in ("se", "ne", "nw", "sw")})


# ---------------------------------------------------------------------------
# sub-adjacent Lie

def test_sub_adjacent_zero(z2):
    assert sa.sub_adjacent_lie(z2) == sa.zero_algebra(2, ("bracket",))


def test_sub_adjacent_p2_is_l2(p2, l2):
    assert sa.sub_adjacent_lie(p2) == l2


def test_sub_adjacent_dim1_vanishes(p1):
    assert sa.sub_adjacent_lie(p1) == sa.zero_algebra(1, ("bracket",))


# ---------------------------------------------------------------------------
# horizontal / vertical pre-Lie

def test_horizontal_vertical_on_zero():
    zero = sa.zero_algebra(2, ("tri_r", "tri_l"))
    assert sa.horizontal_prelie(zero) == sa.zero_algebra(2, ("bullet",))
    assert sa.vertical_prelie(zero) == sa.zero_algebra(2, ("circ",))


def test_horizontal_ld2(ld2):
    # entrywise: e2 . e1 = e1 + (-e1) = 0, e2 . e2 = e2
    assert sa.horizontal_prelie(ld2) == sa.algebra(2, {"bullet": [(2, 2, 2, 1)]})


def test_vertical_ld2(ld2):
    assert sa.vertical_prelie(ld2) == sa.algebra(
        2, {"circ": [(1, 2, 1, 1), (2, 1, 1, 1), (2, 2, 2, 1)]}
    )


def test_horizontal_of_dendriform_is_star(d1):
    as_ldend = sa.dendriform_to_ldend(d1)
    star = sa.horizontal_prelie(as_ldend)
    assert star == sa.algebra(1, {"bullet": [(1, 1, 1, 1)]})


@settings(max_examples=50)
@given(raw_ldend())
def test_same_sub_adjacent_bracket(alg):
    via_h = sa.sub_adjacent_lie(sa.rename_ops(sa.horizontal_prelie(alg), {"bullet": "circ"}))
    via_v = sa.sub_adjacent_lie(sa.vertical_prelie(alg))
    assert via_h == via_v


# ---------------------------------------------------------------------------
# transpose

def test_transpose_involution(ld2):
    assert sa.transpose(sa.transpose(ld2)) == ld2


def test_transpose_zero():
    zero = sa.zero_algebra(2, ("tri_r", "tri_l"))
    assert sa.transpose(zero) == zero


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw_ldend())
def test_transpose_swaps_horizontal_and_vertical(alg):
    t = sa.transpose(alg)
    assert sa.horizontal_prelie(t).op("bullet") == sa.vertical_prelie(alg).op("circ")
    assert sa.vertical_prelie(t).op("circ") == sa.horizontal_prelie(alg).op("bullet")


def test_transpose_preserves_l_dendriform(ld2):
    assert sa.check_class(sa.transpose(ld2), "l_dendriform").passed


# ---------------------------------------------------------------------------
# dendriform to L-dendriform

def test_dendriform_to_ldend_is_rename(d1):
    out = sa.dendriform_to_ldend(d1)
    assert out.op("tri_r") == d1.op("succ")
    assert out.op("tri_l") == d1.op("prec")
    assert sa.check_class(out, "l_dendriform").passed


def test_dendriform_horizontal_is_associative(d1):
    # the horizontal pre-Lie of a dendriform algebra is associative
    h = sa.rename_ops(sa.horizontal_prelie(sa.dendriform_to_ldend(d1)), {"bullet": "circ"})
    assert sa.check_class(h, "associative").passed


def test_generalized_associators_vanish_for_dendriform(d1):
    # on dendriform input each side of the two rewritten defining identities
    # vanishes separately, not just their difference
    from splitalg.core import basis_vector, table_apply
    from naive_checks import table_add
    from naive_kernel import vec_sub

    d2 = sa.algebra(2, {"succ": [(1, 1, 1, 1)], "prec": []})
    for alg in (d1, d2):
        assert sa.check_class(alg, "dendriform").passed
        ld = sa.dendriform_to_ldend(alg)
        tr, tl = ld.op("tri_r"), ld.op("tri_l")
        bullet = table_add(tr, tl)
        n = ld.dim
        e = lambda m: basis_vector(n, m)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    side_a = vec_sub(
                        table_apply(tr, e(i), tr[j][k]), table_apply(tr, bullet[i][j], e(k))
                    )
                    side_b = vec_sub(
                        table_apply(tr, e(j), tr[i][k]), table_apply(tr, bullet[j][i], e(k))
                    )
                    assert not any(side_a) and not any(side_b)
                    side_c = vec_sub(
                        table_apply(tr, e(i), tl[j][k]), table_apply(tl, tr[i][j], e(k))
                    )
                    side_d = vec_sub(
                        table_apply(tl, e(j), bullet[i][k]), table_apply(tl, tl[j][i], e(k))
                    )
                    assert not any(side_c) and not any(side_d)


# ---------------------------------------------------------------------------
# quadri derivations

def test_quadri_derive_zero():
    zero = sa.zero_algebra(2, ("se", "ne", "nw", "sw"))
    for which in sa.functors.QUADRI_DERIVED:
        derived = sa.quadri_derive(zero, which)
        assert derived == sa.zero_algebra(2, (which,)), which


def test_quadri_derive_unknown_name(z2):
    quadri = sa.zero_algebra(1, ("se", "ne", "nw", "sw"))
    with pytest.raises(ValueError):
        sa.quadri_derive(quadri, "circle")


@settings(max_examples=50)
@given(raw_quadri())
def test_quadri_circ_consistency(alg):
    # x o y = x |> y - y <| x  =  x v y - y ^ x, as table identities
    ld = sa.merge_ops(sa.quadri_derive(alg, "tri_r"), sa.quadri_derive(alg, "tri_l"))
    via_ld = sa.vertical_prelie(ld).op("circ")
    direct = sa.quadri_derive(alg, "circ").op("circ")
    assert via_ld == direct
    vee = sa.quadri_derive(alg, "vee").op("vee")
    wedge = sa.quadri_derive(alg, "wedge").op("wedge")
    from naive_checks import table_flip, table_sub

    assert direct == table_sub(vee, table_flip(wedge))


@settings(max_examples=50)
@given(raw_quadri())
def test_quadri_bullet_consistency(alg):
    # x . y = x |> y + x <| y  =  x > y - y < x, as table identities
    ld = sa.merge_ops(sa.quadri_derive(alg, "tri_r"), sa.quadri_derive(alg, "tri_l"))
    via_ld = sa.horizontal_prelie(ld).op("bullet")
    direct = sa.quadri_derive(alg, "bullet").op("bullet")
    assert via_ld == direct
    succ = sa.quadri_derive(alg, "succ").op("succ")
    prec = sa.quadri_derive(alg, "prec").op("prec")
    from naive_checks import table_flip, table_sub

    assert direct == table_sub(succ, table_flip(prec))


@settings(max_examples=50)
@given(raw_quadri())
def test_quadri_star_splits(alg):
    from naive_checks import table_add

    star = sa.quadri_derive(alg, "star").op("star")
    succ = sa.quadri_derive(alg, "succ").op("succ")
    prec = sa.quadri_derive(alg, "prec").op("prec")
    vee = sa.quadri_derive(alg, "vee").op("vee")
    wedge = sa.quadri_derive(alg, "wedge").op("wedge")
    assert star == table_add(succ, prec) == table_add(vee, wedge)


_EIGHT_PART_BRACKET = sa.functors.commutator(tuple((1, op, False) for op in ("se", "ne", "nw", "sw")))


def _same_bracket(alg):
    """The bracket derived as the commutator of star equals, entry for entry
    and type for type, the eight-part commutator of the four tables, and it
    is the only operation of its algebra."""
    derived = sa.quadri_derive(alg, "bracket")
    expected = sa.core.derive(alg.ops, _EIGHT_PART_BRACKET)
    assert repr(derived.op("bracket")) == repr(expected)
    assert set(derived.ops) == {"bracket"}
    tag = "quadri_derive[bracket]"
    assert derived.class_tag == (f"{tag}({alg.class_tag})" if alg.class_tag else tag)


@settings(max_examples=80)
@given(raw_quadri(), st.booleans())
def test_quadri_bracket_is_the_eight_part_commutator(alg, ints):
    if ints:
        alg = sa.Algebra(alg.dim, {op: tuple(tuple(tuple(int(3 * x) for x in row) for row in plane)
                                             for plane in table) for op, table in alg.ops.items()})
    _same_bracket(alg)


@pytest.mark.parametrize("name", [name for name in catalog.CATALOG_NAMES
                                  if isinstance(catalog.build(name), sa.Algebra)])
def test_quadri_bracket_matches_on_catalog_tables(name):
    # the catalog algebra's tables, in turn, as the four quadri tables
    fixture = catalog.build(name)
    tables = list(fixture.ops.values())
    quadri = ("se", "ne", "nw", "sw")
    _same_bracket(sa.Algebra(fixture.dim, {op: tables[k % len(tables)] for k, op in enumerate(quadri)},
                             "quadri"))
    _same_bracket(sa.Algebra(fixture.dim, dict(zip(quadri, [tables[0]] + [tables[-1]] * 3))))


def test_quadri_derived_structures_pass_their_classes():
    # on axiom-passing quadri tables the derived pair (tri_r, tri_l) is
    # L-dendriform, the two derived single products are pre-Lie, the sum of
    # all four is associative, and the full commutator is a Lie bracket
    for dim in (1, 2):
        q = sa.zero_algebra(dim, ("se", "ne", "nw", "sw"))
        assert sa.check_class(q, "quadri").passed
        ld = sa.merge_ops(sa.quadri_derive(q, "tri_r"), sa.quadri_derive(q, "tri_l"))
        assert sa.check_class(ld, "l_dendriform").passed
        assert sa.check_class(sa.quadri_derive(q, "circ"), "pre_lie").passed
        bullet = sa.rename_ops(sa.quadri_derive(q, "bullet"), {"bullet": "circ"})
        assert sa.check_class(bullet, "pre_lie").passed
        star = sa.rename_ops(sa.quadri_derive(q, "star"), {"star": "circ"})
        assert sa.check_class(star, "associative").passed
        assert sa.check_class(sa.quadri_derive(q, "bracket"), "lie").passed


def test_dendriform_to_ldend_zero():
    zero = sa.zero_algebra(2, ("succ", "prec"))
    assert sa.dendriform_to_ldend(zero) == sa.zero_algebra(2, ("tri_r", "tri_l"))


def test_left_multiplication_represents_the_bracket(p2, ld2):
    # for a pre-Lie product, L([x,y]) = L(x)L(y) - L(y)L(x)
    from splitalg.representations import left_family

    for alg in (p2, sa.vertical_prelie(ld2)):
        fam = left_family(alg, "circ")
        bracket = sa.sub_adjacent_lie(alg).op("bracket")
        n = alg.dim
        for i in range(n):
            for j in range(n):
                lhs = sa.family_contract(fam, bracket[i][j])
                assert lhs == fam[i] @ fam[j] - fam[j] @ fam[i]


def test_class_tags_record_provenance(ld2):
    assert sa.vertical_prelie(ld2).class_tag == "vertical_prelie(LD2)"
    assert sa.sub_adjacent_lie(sa.vertical_prelie(ld2)).class_tag == (
        "sub_adjacent_lie(vertical_prelie(LD2))"
    )


# ---------------------------------------------------------------------------
# registry entries as int-form keys

def _quadri_functor(name):
    return lambda alg: sa.quadri_derive(alg, name).op(name)


_QUADRI = ("se", "ne", "nw", "sw")

#: each registry entry: its parts, the ops of an algebra the functor reads,
#: and the functor's table of the derived product
_REGISTRY = {
    "VERTICAL": (sa.functors.VERTICAL, ("tri_r", "tri_l"),
                 lambda alg: sa.vertical_prelie(alg).op("circ")),
    "HORIZONTAL": (sa.functors.HORIZONTAL, ("tri_r", "tri_l"),
                   lambda alg: sa.horizontal_prelie(alg).op("bullet")),
    "SUB_ADJACENT": (sa.functors.SUB_ADJACENT, ("circ",),
                     lambda alg: sa.sub_adjacent_lie(alg).op("bracket")),
    "DENDRIFORM_STAR": (sa.functors.DENDRIFORM_STAR, ("succ", "prec"),
                        lambda alg: sa.horizontal_prelie(sa.dendriform_to_ldend(alg)).op("bullet")),
    "commutator(VERTICAL)": (sa.functors.commutator(sa.functors.VERTICAL), ("tri_r", "tri_l"),
                             lambda alg: sa.sub_adjacent_lie(sa.vertical_prelie(alg)).op("bracket")),
    **{f"QUADRI_DERIVED[{name}]": (parts, _QUADRI, _quadri_functor(name))
       for name, parts in sa.functors.QUADRI_DERIVED.items()},
}


@pytest.mark.parametrize("entry", list(_REGISTRY))
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_every_registry_entry_resolves_as_an_int_form_key(entry, data):
    """``Algebra.scaled`` resolves the entry on an algebra that carries the
    ops its functor reads, to the functor's table scaled by d_A, in ints."""
    parts, ops, functor = _REGISTRY[entry]
    n = data.draw(st.integers(min_value=1, max_value=3))
    alg = sa.Algebra(n, {op: data.draw(raw_tables(n)) for op in ops})
    d, (table,) = alg.scaled(parts)
    assert table == tuple(tuple(tuple(d * x for x in vec) for vec in plane)
                          for plane in functor(alg))
    assert all(type(x) is int for plane in table for vec in plane for x in vec)
