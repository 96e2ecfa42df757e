"""S-equation and LD-equation residuals, equivalences and builders, with the
naive term-expansion oracle cross-checking every residual."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitalg as sa
from splitalg import core
from splitalg.functors import HORIZONTAL, SUB_ADJACENT, VERTICAL, commutator
from splitalg.representations import regular_ldend_module, regular_prelie_module
from splitalg.ybe import LDEquivalenceReport, SEquivalenceReport

import naive_checks as naive
from naive_kernel import nest
from naive_tensor import naive_ld_residual, naive_s_residual


def as_lists2(t):
    return [list(row) for row in t.entries]


def as_lists3(t):
    return [[list(row) for row in plane] for plane in t.entries]


def table_lists(alg, op):
    return [[list(v) for v in plane] for plane in alg.op(op)]


def assert_oracle_s(alg, r, residual):
    assert as_lists3(residual) == naive_s_residual(table_lists(alg, "circ"), as_lists2(r))


def assert_oracle_ld(alg, r, variant, residual):
    naive = naive_ld_residual(
        table_lists(alg, "tri_r"), table_lists(alg, "tri_l"), as_lists2(r), variant
    )
    assert as_lists3(residual) == naive


# ---------------------------------------------------------------------------
# S-equation residual

def test_s_residual_zero_tensor(p2):
    assert sa.s_residual(p2, sa.tensor2(2)).is_zero


def test_s_residual_e1e1_on_p2_golden(p2):
    # golden value from the oracle: e1 (x) e1 actually solves the S-equation
    r = sa.tensor2(2, [(1, 1, 1)])
    residual = sa.s_residual(p2, r)
    assert residual.is_zero
    assert_oracle_s(p2, r, residual)


def test_s_residual_symmetric_nonsolution_golden(p2):
    # frozen: residual of e1 (x) e2 + e2 (x) e1 has exactly two nonzero entries
    r = sa.tensor2(2, [(1, 2, 1), (2, 1, 1)])
    residual = sa.s_residual(p2, r)
    assert list(residual.nonzero_entries()) == [
        ((1, 2, 2), Fraction(-2)),
        ((2, 1, 2), Fraction(2)),
    ]
    assert_oracle_s(p2, r, residual)


def test_s_residual_canonical_double(ld2):
    hat_v, hat_h, r = sa.canonical_double_solution(ld2)
    for hat in (hat_v, hat_h):
        residual = sa.s_residual(hat, r)
        assert residual.is_zero
        assert_oracle_s(hat, r, residual)


def test_s_residual_dimension_mismatch(p2):
    with pytest.raises(sa.DimensionMismatch):
        sa.s_residual(p2, sa.tensor2(3))


# ---------------------------------------------------------------------------
# S-equation equivalence

def test_s_equivalence_requires_symmetric(p2):
    with pytest.raises(sa.PreconditionFailed):
        sa.s_equivalence_check(p2, sa.tensor2(2, [(1, 2, 1)]))


def test_s_equivalence_zero(p2):
    report = sa.s_equivalence_check(p2, sa.tensor2(2))
    assert report.all_vanish and report.consistent


def test_s_equivalence_instances(s_instances):
    solutions, nonsolutions = s_instances
    for name, alg, r in solutions:
        report = sa.s_equivalence_check(alg, r)
        assert report.consistent, name
        assert report.all_vanish, name
    for name, alg, r in nonsolutions:
        report = sa.s_equivalence_check(alg, r)
        assert report.consistent, name
        assert not report.residual_zero, name
        assert not report.operator_zero, name


# ---------------------------------------------------------------------------
# solutions of the S-equation from operators

def test_build_s_solution_zero_map(p2):
    hat, r = sa.build_s_solution(regular_prelie_module(p2), sa.LinearMap.zero(2, 2))
    assert r.is_zero
    assert sa.s_residual(hat, r).is_zero


def test_build_s_solution_rb2(p2, rb2):
    hat, r = sa.build_s_solution(regular_prelie_module(p2), rb2)
    assert r.is_symmetric
    residual = sa.s_residual(hat, r)
    assert residual.is_zero
    assert_oracle_s(hat, r, residual)


def test_build_s_solution_contrapositive(p2):
    m = regular_prelie_module(p2)
    assert not sa.check_o_prelie(sa.LinearMap.identity(2), m).passed
    hat, r = sa.build_s_solution(m, sa.LinearMap.identity(2))
    residual = sa.s_residual(hat, r)
    assert not residual.is_zero
    assert_oracle_s(hat, r, residual)


def test_build_s_solution_shape_mismatch(p2):
    with pytest.raises(sa.DimensionMismatch):
        sa.build_s_solution(regular_prelie_module(p2), sa.LinearMap.zero(3, 3))


def test_embed_operator_block(rb2):
    t = sa.embed_operator(rb2)
    assert t.dim == 4
    assert list(
        idx for idx, _ in (sa.exchange(t) + t).nonzero_entries()
    ) == [(1, 4), (4, 1)]


def test_canonical_double_dim1_zero():
    zero = sa.zero_algebra(1, ("tri_r", "tri_l"))
    hat_v, hat_h, r = sa.canonical_double_solution(zero)
    assert hat_v == sa.zero_algebra(2, ("circ",))
    assert hat_h == sa.zero_algebra(2, ("circ",))
    assert sa.s_residual(hat_v, r).is_zero


def test_canonical_r_symmetric_invertible(ld2):
    _, _, r = sa.canonical_double_solution(ld2)
    assert r.is_symmetric
    assert sa.tensor_to_map(r).is_invertible


# ---------------------------------------------------------------------------
# LD-equation residuals

def test_ld_residual_zero_tensor(ld2):
    for variant in sa.LD_VARIANTS:
        assert sa.ld_residual(ld2, sa.tensor2(2), variant).is_zero


def test_ld_residual_aliases(ld2):
    r = sa.tensor2(2, [(1, 2, 1), (2, 1, -1)])
    assert sa.ld_residual(ld2, r, "main") == sa.ld_residual(ld2, r, "eq-4.8")
    assert sa.ld_residual(ld2, r, "aux-b") == sa.ld_residual(ld2, r, "eq-4.10")
    assert sa.ld_residual(ld2, r, "p4") == sa.ld_residual(ld2, r, "eq-4.14")


def test_tensor_equations_derive_only_the_products_their_terms_name(p2, ld2, monkeypatch):
    """An algebra value derives each product the terms of a call name once,
    as a whole table, and keeps it: a second call on the same value derives
    nothing, and no product the terms leave out is ever derived.  The
    algebras are fresh copies, since the session fixtures may already hold
    their products."""
    calls, derive = [], core.derive

    def counting_derive(tables, parts):
        calls.append(parts)
        return derive(tables, parts)

    monkeypatch.setattr(core, "derive", counting_derive)
    r = sa.tensor2(2, [(1, 2, 1), (2, 1, -1), (2, 2, Fraction(1, 2))])
    ld, p = (sa.Algebra(alg.dim, dict(alg.ops)) for alg in (ld2, p2))
    for run, derived in [
        (lambda: sa.ld_residual(ld, r, "eq-4.8"), [VERTICAL, HORIZONTAL]),
        (lambda: sa.ld_residual(ld, r, "eq-4.9"), [commutator(VERTICAL)]),
        (lambda: sa.s_residual(p, r), [SUB_ADJACENT]),
        (lambda: sa.slot_product(r, (1, 2), r, (2, 3), p, "circ"), []),
    ]:
        for expected in (derived, []):
            calls.clear()
            run()
            assert calls == expected


def test_ld_residual_unknown_variant(ld2):
    with pytest.raises(ValueError):
        sa.ld_residual(ld2, sa.tensor2(2), "eq-9.9")


def test_ld_residual_matches_oracle_everywhere(ld_instances):
    solutions, nonsolutions = ld_instances
    for name, alg, r in solutions + nonsolutions:
        for variant in sa.LD_VARIANTS:
            residual = sa.ld_residual(alg, r, variant)
            assert_oracle_ld(alg, r, variant, residual)


def test_ld_solutions_vanish_and_nonsolutions_do_not(ld_instances):
    solutions, nonsolutions = ld_instances
    for name, alg, r in solutions:
        assert sa.ld_residual(alg, r, "eq-4.8").is_zero, name
    for name, alg, r in nonsolutions:
        assert not sa.ld_residual(alg, r, "eq-4.8").is_zero, name


def test_ld_permutation_variants_vanish_together(ld_instances):
    # the main equation and its five permutation images always share one
    # vanishing status; the leftover display follows from the second one
    solutions, nonsolutions = ld_instances
    equivalence_class = ("eq-4.8", "eq-4.10", "eq-4.11", "eq-4.12", "eq-4.13", "eq-4.14")
    for name, alg, r in solutions + nonsolutions:
        flags = {v: sa.ld_residual(alg, r, v).is_zero for v in sa.LD_VARIANTS}
        assert len({flags[v] for v in equivalence_class}) == 1, name
        assert flags["eq-4.9"] or not flags["eq-4.10"], name


def test_ld_permutation_variants_on_random_skew(ld2):
    rng = random.Random(20240817)
    for _ in range(25):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        r = sa.tensor2(2, [(1, 2, c), (2, 1, -c)])
        flags = {v: sa.ld_residual(ld2, r, v).is_zero for v in sa.LD_VARIANTS}
        cls = [flags[v] for v in ("eq-4.8", "eq-4.10", "eq-4.11", "eq-4.12", "eq-4.13", "eq-4.14")]
        assert len(set(cls)) == 1
        assert flags["eq-4.9"] or not flags["eq-4.10"]


# ---------------------------------------------------------------------------
# LD-equation equivalence

def test_ld_equivalence_requires_skew(ld2):
    with pytest.raises(sa.PreconditionFailed):
        sa.ld_equivalence_check(ld2, sa.tensor2(2, [(1, 2, 1)]))


def test_ld_equivalence_zero(ld2):
    report = sa.ld_equivalence_check(ld2, sa.tensor2(2))
    assert report.all_vanish and report.consistent and report.aux_implication


def test_ld_equivalence_instances(ld_instances):
    solutions, nonsolutions = ld_instances
    for name, alg, r in solutions:
        report = sa.ld_equivalence_check(alg, r)
        assert report.consistent, name
        assert report.all_vanish, name
        assert report.aux_implication, name
    for name, alg, r in nonsolutions:
        report = sa.ld_equivalence_check(alg, r)
        assert report.consistent, name
        assert not report.all_vanish, name
        assert report.aux_implication, name


def test_s_equivalence_consistent_on_random_symmetric(ld2):
    # the equivalence is a statement about every symmetric tensor, so the
    # three verdicts must agree on arbitrary instances, not just solutions
    hat_v, hat_h, _ = sa.canonical_double_solution(ld2)
    rng = random.Random(411)
    for alg in (hat_v, hat_h):
        for _ in range(8):
            sparse = []
            for i in range(4):
                for j in range(i, 4):
                    c = Fraction(rng.randint(-2, 2))
                    if c:
                        sparse.append((i + 1, j + 1, c))
                        if i != j:
                            sparse.append((j + 1, i + 1, c))
            r = sa.tensor2(4, sparse)
            assert sa.s_equivalence_check(alg, r).consistent


def test_ld_equivalence_consistent_on_random_skew(ld2, ldend_canonical_module):
    big = sa.semidirect_ldend(sa.dual_ldend_module(ldend_canonical_module))
    rng = random.Random(412)
    for alg in (ld2, big):
        n = alg.dim
        for _ in range(8):
            sparse = []
            for i in range(n):
                for j in range(i + 1, n):
                    c = Fraction(rng.randint(-2, 2))
                    if c:
                        sparse += [(i + 1, j + 1, c), (j + 1, i + 1, -c)]
            r = sa.tensor2(n, sparse)
            report = sa.ld_equivalence_check(alg, r)
            assert report.consistent
            assert report.aux_implication


def _tensor(zero: bool) -> sa.Tensor3:
    return sa.tensor3(1) if zero else sa.tensor3(1, [(1, 1, 1, 1)])


def _check(passed: bool) -> sa.CheckReport:
    return sa.CheckReport(() if passed else (sa.Failure("eq-2.10", (1, 1), (Fraction(1),)),))


@pytest.mark.parametrize("flags", itertools.product((True, False), repeat=3))
def test_s_report_verdicts_follow_every_combination_of_its_conditions(flags):
    """A report built directly: all_vanish only when all three conditions
    hold, consistent only when all three agree."""
    residual, alternate, operator = flags
    report = SEquivalenceReport(_tensor(residual), _tensor(alternate), _check(operator))
    assert (report.residual_zero, report.alternate_zero, report.operator_zero) == flags
    assert report.all_vanish == (flags == (True,) * 3)
    assert report.consistent == (flags in {(True,) * 3, (False,) * 3})


@pytest.mark.parametrize("flags", itertools.product((True, False), repeat=4))
def test_ld_report_verdicts_follow_every_combination_of_its_conditions(flags):
    """As for the S report, over the LD-equation residual and the three
    O-operator conditions; the auxiliary residuals take no part."""
    residual, *operators = flags
    report = LDEquivalenceReport(_tensor(residual), *map(_check, operators),
                                 aux_a=_tensor(False), aux_b=_tensor(True))
    assert (report.residual_zero, report.operator_ldend_zero, report.operator_vertical_zero,
            report.operator_horizontal_zero) == flags
    assert report.all_vanish == (flags == (True,) * 4)
    assert report.consistent == (flags in {(True,) * 4, (False,) * 4})
    assert not report.aux_implication


# ---------------------------------------------------------------------------
# solutions of the LD-equation from operators

def test_build_ld_solution_zero_map(ld2):
    big, r = sa.build_ld_solution(regular_ldend_module(ld2), sa.LinearMap.zero(2, 2))
    assert r.is_zero
    assert sa.ld_residual(big, r, "eq-4.8").is_zero


def test_build_ld_solution_iff(ld2, ldend_canonical_module):
    m_reg = regular_ldend_module(ld2)
    # passing operator -> solution
    t_good = sa.linmap([[0, 1], [0, 0]])
    assert sa.check_o_ldend(t_good, m_reg).passed
    big, r = sa.build_ld_solution(m_reg, t_good)
    assert r.is_skew and not r.is_zero
    assert sa.ld_residual(big, r, "eq-4.8").is_zero
    # failing operator -> no solution (the identity fails per the golden)
    assert not sa.check_o_ldend(sa.LinearMap.identity(2), m_reg).passed
    big, r = sa.build_ld_solution(m_reg, sa.LinearMap.identity(2))
    assert not sa.ld_residual(big, r, "eq-4.8").is_zero
    # the canonical module makes the identity an operator again
    big, r = sa.build_ld_solution(ldend_canonical_module, sa.LinearMap.identity(2))
    assert sa.ld_residual(big, r, "eq-4.8").is_zero


def test_build_ld_solution_shape_mismatch(ld2):
    with pytest.raises(sa.DimensionMismatch):
        sa.build_ld_solution(regular_ldend_module(ld2), sa.LinearMap.zero(3, 3))


# ---------------------------------------------------------------------------
# invertible skew solutions and the induced form

def test_form_criterion_zero_algebra():
    zero = sa.zero_algebra(2, ("tri_r", "tri_l"))
    r = sa.tensor2(2, [(1, 2, 1), (2, 1, -1)])
    report = sa.form_criterion_check(zero, r)
    assert report.residual_zero and report.cocycle_zero and report.companion_zero
    assert report.equivalence_holds and report.implication_holds


def test_form_criterion_pipeline_instance(ldend_canonical_module):
    # invertible skew solution produced by the solution builder
    big, r = sa.build_ld_solution(ldend_canonical_module, sa.LinearMap.identity(2))
    assert r.is_skew and sa.tensor_to_map(r).is_invertible
    report = sa.form_criterion_check(big, r)
    assert report.residual_zero and report.cocycle_zero and report.companion_zero


def test_form_criterion_nonsolution(ld2, ldend_canonical_module):
    # the unit skew tensor on LD2 is invertible but not a solution: the
    # residual and the cocycle identity must fail together
    r = sa.tensor2(2, [(1, 2, 1), (2, 1, -1)])
    report = sa.form_criterion_check(ld2, r)
    assert not report.residual_zero and not report.cocycle_zero
    assert report.equivalence_holds and report.implication_holds
    # same story for a perturbed invertible solution in dimension four
    big, r4 = sa.build_ld_solution(ldend_canonical_module, sa.LinearMap.identity(2))
    bad = r4 + sa.tensor2(4, [(1, 2, 1), (2, 1, -1)])
    assert sa.tensor_to_map(bad).is_invertible
    report = sa.form_criterion_check(big, bad)
    assert not report.residual_zero and not report.cocycle_zero
    assert report.equivalence_holds


def test_form_criterion_preconditions(ld2):
    with pytest.raises(sa.PreconditionFailed):
        sa.form_criterion_check(ld2, sa.tensor2(2, [(1, 2, 1)]))          # not skew
    with pytest.raises(sa.PreconditionFailed):
        sa.form_criterion_check(ld2, sa.tensor2(2))                        # degenerate


_thirds = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_canonical_double_matches_hand_built_tensor(data):
    """build_s_solution with the identity map against the two dual modules
    and the tensor sum_i e_i (x) e_i* + e_i* (x) e_i built by hand."""
    n = data.draw(st.integers(1, 3))
    cube = st.lists(_thirds, min_size=n ** 3, max_size=n ** 3)
    ops = {op: nest(data.draw(cube), n, 3) for op in ("tri_r", "tri_l")}
    alg = sa.Algebra(n, ops, data.draw(st.sampled_from((None, "", "LDX"))))
    assert repr(sa.canonical_double_solution(alg)) == repr(naive.canonical_double_solution(alg))
