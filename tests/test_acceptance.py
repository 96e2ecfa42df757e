"""Acceptance suite: one test per criterion, exact (zero-tolerance) equality
throughout, one printed verdict line per criterion.

Run with  pytest tests/test_acceptance.py -v -s  to see the verdict lines;
the whole suite stays well under a minute.
"""

import itertools
from fractions import Fraction

import splitalg as sa
from splitalg.representations import (
    left_family,
    regular_ldend_module,
    regular_prelie_module,
)

from conftest import search_symmetric_cocycles
from naive_checks import table_add
from naive_tensor import naive_ld_residual, naive_s_alternate, naive_s_residual


def report(cid, text):
    print(f"[criterion {cid:>2}] PASS  {text}")


def as_lists2(t):
    return [list(row) for row in t.entries]


def as_lists3(t):
    return [[list(row) for row in plane] for plane in t.entries]


def table_lists(alg, op):
    return [[list(v) for v in plane] for plane in alg.op(op)]


def neg(family):
    return tuple(-m for m in family)


def test_c01_fixture_soundness(z2, p1, p2, n2, l2, rb2, ld2):
    assert sa.check_class(z2, "pre_lie").passed
    assert sa.check_class(p1, "pre_lie").passed
    assert sa.check_class(p2, "pre_lie").passed
    n2_report = sa.check_class(n2, "pre_lie")
    assert not n2_report.passed
    assert n2_report.failures[0].indices == (1, 2, 1)
    assert n2_report.failures[0].residual == (0, 1)
    assert sa.check_class(l2, "lie").passed
    assert sa.check_rota_baxter_prelie(rb2, p2).passed
    assert sa.check_class(ld2, "l_dendriform").passed
    report(1, "catalog fixtures sound; N2 counterexample at (1,2,1)")


def test_c02_horizontal_vertical_prelie(ld2, rb_induced_ldend):
    algebras = [ld2] + rb_induced_ldend
    for alg in algebras:
        hor = sa.rename_ops(sa.horizontal_prelie(alg), {"bullet": "circ"})
        vert = sa.vertical_prelie(alg)
        assert sa.check_class(hor, "pre_lie").passed
        assert sa.check_class(vert, "pre_lie").passed
        assert sa.sub_adjacent_lie(hor).op("bracket") == sa.sub_adjacent_lie(vert).op("bracket")
    report(2, f"horizontal/vertical pre-Lie + equal brackets on {len(algebras)} algebras")


def test_c03_transpose_suite(ldend_fixtures):
    for name, alg in ldend_fixtures:
        t = sa.transpose(alg)
        assert sa.transpose(t) == alg, name
        assert sa.horizontal_prelie(t).op("bullet") == sa.vertical_prelie(alg).op("circ"), name
        assert sa.vertical_prelie(t).op("circ") == sa.horizontal_prelie(alg).op("bullet"), name
    report(3, f"transpose involution and product swap on {len(ldend_fixtures)} fixtures")


def test_c04_operator_closure(p2, rb2, ld2, rb_operators_p2):
    constructions = []
    for R in rb_operators_p2:
        constructions.append((sa.ldend_from_rb(R, p2), R, p2))
    # module-route inductions: every O-operator of the dual regular module
    # of P2 with entries in {-1,0,1}, found exhaustively
    m_dual = sa.dual_prelie_module(regular_prelie_module(p2))
    dual_ops = []
    for flat in itertools.product([Fraction(-1), Fraction(0), Fraction(1)], repeat=4):
        T = sa.LinearMap(2, 2, (flat[:2], flat[2:]))
        if sa.check_o_prelie(T, m_dual).passed:
            dual_ops.append(T)
    assert len(dual_ops) >= 3
    for T in dual_ops:
        on_v, _ = sa.ldend_from_o_prelie(T, m_dual)
        constructions.append((on_v, T, p2))
    # the identity operator of the vertical module of LD2
    m_vert = sa.PreLieModule(
        sa.vertical_prelie(ld2), 2, left_family(ld2, "tri_r"), neg(left_family(ld2, "tri_l"))
    )
    on_v, _ = sa.ldend_from_o_prelie(sa.LinearMap.identity(2), m_vert)
    constructions.append((on_v, sa.LinearMap.identity(2), sa.vertical_prelie(ld2)))

    for alg, T, base in constructions:
        assert sa.check_class(alg, "l_dendriform").passed
        vert = sa.vertical_prelie(alg)
        for u in range(alg.dim):
            for v in range(alg.dim):
                assert T.apply(vert.op("circ")[u][v]) == sa.multiply(
                    base, "circ", T.column(u), T.column(v)
                )
    report(4, f"{len(constructions)} induced structures valid; operators are homomorphisms")


def test_c05_s_equation_equivalence(s_instances):
    solutions, nonsolutions = s_instances
    assert len(solutions) >= 3 and len(nonsolutions) >= 3
    for name, alg, r in solutions + nonsolutions:
        rep = sa.s_equivalence_check(alg, r)
        assert rep.consistent, name      # never one residual without the other
    for name, alg, r in solutions:
        assert sa.s_equivalence_check(alg, r).all_vanish, name
    for name, alg, r in nonsolutions:
        assert not sa.s_equivalence_check(alg, r).residual_zero, name
    report(5, f"S-residual and operator residual vanish together on "
              f"{len(solutions)}+{len(nonsolutions)} instances")


def _s_candidates(p2, rb_operators_p2):
    candidates = list(rb_operators_p2) + [sa.LinearMap.identity(2)]
    m = regular_prelie_module(p2)
    return [(T, m) for T in candidates]


def test_c06_solution_iff_operator(p2, rb2, rb_operators_p2):
    passed_count = failed_count = 0
    for T, m in _s_candidates(p2, rb_operators_p2):
        operator_ok = sa.check_o_prelie(T, m).passed
        hat, r = sa.build_s_solution(m, T)
        assert sa.s_residual(hat, r).is_zero == operator_ok
        passed_count += operator_ok
        failed_count += not operator_ok
    assert passed_count >= 1 and failed_count >= 1
    report(6, f"solution <=> operator for {passed_count} passing / {failed_count} failing maps")


def test_c07_canonical_double_solutions(ldend_fixtures):
    for name, alg in ldend_fixtures:
        hat_v, hat_h, r = sa.canonical_double_solution(alg)
        assert sa.s_residual(hat_v, r).is_zero, name
        assert sa.s_residual(hat_h, r).is_zero, name
    report(7, f"canonical tensor solves the S-equation in both doubles of "
              f"{len(ldend_fixtures)} fixtures")


_EQ_CLASS = ("eq-4.8", "eq-4.10", "eq-4.11", "eq-4.12", "eq-4.13", "eq-4.14")


def test_c08_ld_variant_suite(ld_instances):
    solutions, nonsolutions = ld_instances
    assert len(solutions) >= 3 and len(nonsolutions) >= 3
    for name, alg, r in solutions + nonsolutions:
        flags = {v: sa.ld_residual(alg, r, v).is_zero for v in sa.LD_VARIANTS}
        assert len({flags[v] for v in _EQ_CLASS}) == 1, name
        assert flags["eq-4.9"] or not flags["eq-4.10"], name
    for name, alg, r in solutions:
        assert all(sa.ld_residual(alg, r, v).is_zero for v in sa.LD_VARIANTS), name
    for name, alg, r in nonsolutions:
        assert not sa.ld_residual(alg, r, "eq-4.8").is_zero, name
    report(8, f"all seven residual variants agree on {len(solutions)}+{len(nonsolutions)} "
              f"skew instances")


def _ld_candidate_sweep(ld2):
    """Every map with entries in {-1,0,1} against the regular module of LD2."""
    m = regular_ldend_module(ld2)
    for flat in itertools.product([Fraction(-1), Fraction(0), Fraction(1)], repeat=4):
        yield sa.LinearMap(2, 2, (flat[:2], flat[2:])), m


def test_c09_ld_solution_iff_operator(ld2, ldend_canonical_module):
    passed_count = failed_count = 0
    for T, m in _ld_candidate_sweep(ld2):
        operator_ok = sa.check_o_ldend(T, m).passed
        big, r = sa.build_ld_solution(m, T)
        assert sa.ld_residual(big, r, "eq-4.8").is_zero == operator_ok
        passed_count += operator_ok
        failed_count += not operator_ok
    # the identity map over the canonical module witnesses the passing
    # direction with an invertible operator as well
    big, r = sa.build_ld_solution(ldend_canonical_module, sa.LinearMap.identity(2))
    assert sa.ld_residual(big, r, "eq-4.8").is_zero
    assert passed_count >= 1 and failed_count >= 1
    report(9, f"LD-solution <=> operator for {passed_count} passing / {failed_count} failing maps")


def test_c10_cocycle_lift_round_trip(p2, ld2):
    hat_v, hat_h, _ = sa.canonical_double_solution(ld2)
    extensions = [
        ("P2", p2),
        ("semidirect(P2 regular)", sa.semidirect_prelie(regular_prelie_module(p2))),
        ("semidirect(P2 dual regular)",
         sa.semidirect_prelie(sa.dual_prelie_module(regular_prelie_module(p2)))),
        ("double-vert(LD2)", hat_v),
        ("double-hor(LD2)", hat_h),
    ]
    found = []
    for name, alg in extensions:
        hits = search_symmetric_cocycles(alg)
        if name == "P2":
            assert hits == []   # P2 itself has no nondegenerate symmetric 2-cocycle
        for B in hits[:2]:
            found.append((name, alg, B))
    assert found, "the exhaustive search must produce at least one fixture pair"
    for name, alg, B in found:
        lift = sa.ldend_from_2cocycle(alg, B)
        assert sa.check_class(lift, "l_dendriform").passed, name
        assert sa.vertical_prelie(lift).op("circ") == alg.op("circ"), name
    report(10, f"{len(found)} cocycle lifts valid and compatible "
               f"(search spaces: {len(extensions)} algebras)")


def _quadri_fixtures():
    fixtures = []
    for lam in (0, 1):
        rows = [(1, 1, 1, lam)] if lam else []
        q = sa.algebra(1, {name: list(rows) for name in ("se", "ne", "nw", "sw")})
        if sa.check_class(q, "quadri").passed:
            fixtures.append((f"scalar[{lam}]", q))
    zero2 = sa.zero_algebra(2, ("se", "ne", "nw", "sw"))
    assert sa.check_class(zero2, "quadri").passed
    fixtures.append(("zero-2", zero2))
    return fixtures


def test_c11_diagram_commutativity():
    fixtures = _quadri_fixtures()
    assert len(fixtures) >= 2
    paths_checked = 0
    for name, q in fixtures:
        direct = sa.quadri_derive(q, "bracket").op("bracket")

        succ = sa.quadri_derive(q, "succ").op("succ")
        prec = sa.quadri_derive(q, "prec").op("prec")
        star_alg = sa.Algebra(q.dim, {"circ": table_add(succ, prec)})
        via_assoc = sa.sub_adjacent_lie(star_alg).op("bracket")

        dend_sp = sa.Algebra(q.dim, {"succ": succ, "prec": prec})
        via_sp_minus = sa.sub_adjacent_lie(
            sa.vertical_prelie(sa.dendriform_to_ldend(dend_sp))
        ).op("bracket")

        vee = sa.quadri_derive(q, "vee").op("vee")
        wedge = sa.quadri_derive(q, "wedge").op("wedge")
        dend_vw = sa.Algebra(q.dim, {"succ": vee, "prec": wedge})
        via_vw_minus = sa.sub_adjacent_lie(
            sa.vertical_prelie(sa.dendriform_to_ldend(dend_vw))
        ).op("bracket")

        ld = sa.merge_ops(sa.quadri_derive(q, "tri_r"), sa.quadri_derive(q, "tri_l"))
        via_horizontal = sa.sub_adjacent_lie(
            sa.rename_ops(sa.horizontal_prelie(ld), {"bullet": "circ"})
        ).op("bracket")
        via_vertical = sa.sub_adjacent_lie(sa.vertical_prelie(ld)).op("bracket")

        for path in (via_assoc, via_sp_minus, via_vw_minus, via_horizontal, via_vertical):
            assert path == direct, name
            paths_checked += 1
    report(11, f"{paths_checked} functor paths reproduce the direct bracket on "
               f"{len(fixtures)} quadri fixtures")


def test_c12_oracle_agreement(s_instances, ld_instances, ldend_fixtures, p2,
                              rb_operators_p2, ld2):
    """Recompute, through the independent term-expansion oracle, every
    rank-3 residual the equation criteria rely on."""
    tensors_checked = 0

    # criterion 5/6 tensors: instance sets plus the full candidate sweep
    s_solutions, s_nonsolutions = s_instances
    s_pairs = [(alg, r) for _, alg, r in s_solutions + s_nonsolutions]
    for T, m in _s_candidates(p2, rb_operators_p2):
        s_pairs.append(sa.build_s_solution(m, T))
    for alg, r in s_pairs:
        ours = sa.s_residual(alg, r)
        assert as_lists3(ours) == naive_s_residual(table_lists(alg, "circ"), as_lists2(r))
        # the alternate displayed form, assembled naively term by term
        # (every tensor here is symmetric by construction)
        alternate = naive_s_alternate(table_lists(alg, "circ"), as_lists2(r))
        assert as_lists3(sa.s_equivalence_check(alg, r).alternate) == alternate
        tensors_checked += 2

    # criterion 7 tensors: both canonical doubles of every fixture
    for name, alg in ldend_fixtures:
        hat_v, hat_h, r = sa.canonical_double_solution(alg)
        for hat in (hat_v, hat_h):
            ours = sa.s_residual(hat, r)
            assert as_lists3(ours) == naive_s_residual(table_lists(hat, "circ"), as_lists2(r))
            tensors_checked += 1

    # criterion 8 tensors: all seven variants on the skew instance sets
    ld_solutions, ld_nonsolutions = ld_instances
    for name, alg, r in ld_solutions + ld_nonsolutions:
        for variant in sa.LD_VARIANTS:
            ours = sa.ld_residual(alg, r, variant)
            naive = naive_ld_residual(
                table_lists(alg, "tri_r"), table_lists(alg, "tri_l"), as_lists2(r), variant
            )
            assert as_lists3(ours) == naive
            tensors_checked += 1

    # criterion 9 tensors: the main residual across the candidate sweep
    for T, m in _ld_candidate_sweep(ld2):
        big, r = sa.build_ld_solution(m, T)
        ours = sa.ld_residual(big, r, "eq-4.8")
        naive = naive_ld_residual(
            table_lists(big, "tri_r"), table_lists(big, "tri_l"), as_lists2(r), "eq-4.8"
        )
        assert as_lists3(ours) == naive
        tensors_checked += 1

    report(12, f"naive oracle agrees on {tensors_checked} rank-3 tensors")
