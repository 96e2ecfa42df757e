"""Class membership checks and cocycle identities, with frozen counterexamples."""

from fractions import Fraction

import pytest

import splitalg as sa


def test_zero_algebra_is_pre_lie(z2):
    assert sa.check_class(z2, "pre_lie").passed


def test_p1_p2_are_pre_lie(p1, p2):
    assert sa.check_class(p1, "pre_lie").passed
    assert sa.check_class(p2, "pre_lie").passed


def test_p2_is_associative(p2):
    assert sa.check_class(p2, "associative").passed


def test_n2_fails_pre_lie_with_counterexample(n2):
    report = sa.check_class(n2, "pre_lie")
    assert not report.passed
    first = report.failures[0]
    # hand expansion: (e1 o e2) o e1 - e1 o (e2 o e1) = e2, swapped sides vanish
    assert first.identity == "eq-2.2"
    assert first.indices == (1, 2, 1)
    assert first.residual == (0, 1)


def test_l2_is_lie(l2):
    assert sa.check_class(l2, "lie").passed


def test_broken_bracket_fails_lie():
    not_skew = sa.algebra(2, {"bracket": [(1, 2, 2, 1)]})
    report = sa.check_class(not_skew, "lie")
    assert not report.passed
    assert report.failures[0].identity == "lie-antisym"
    no_jacobi = sa.algebra(
        3, {"bracket": [(1, 2, 2, 1), (2, 1, 2, -1), (1, 3, 1, 1), (3, 1, 1, -1)]}
    )
    report = sa.check_class(no_jacobi, "lie")
    assert not report.passed
    assert {f.identity for f in report.failures} == {"lie-jacobi"}


def test_ld2_is_l_dendriform(ld2):
    assert sa.check_class(ld2, "l_dendriform").passed


def test_d1_is_dendriform(d1):
    assert sa.check_class(d1, "dendriform").passed


def test_dendriform_is_l_dendriform_after_renaming(d1):
    renamed = sa.rename_ops(d1, {"succ": "tri_r", "prec": "tri_l"})
    assert sa.check_class(renamed, "l_dendriform").passed


def test_associative_implies_pre_lie(p2, z2):
    for alg in (p2, z2):
        assert sa.check_class(alg, "associative").passed
        assert sa.check_class(alg, "pre_lie").passed


def test_missing_operation_raises(p2):
    with pytest.raises(sa.UnknownOperation):
        sa.check_class(p2, "l_dendriform")
    with pytest.raises(ValueError):
        sa.check_class(p2, "not_a_class")


def test_reports_are_deterministic(n2):
    assert sa.check_class(n2, "pre_lie") == sa.check_class(n2, "pre_lie")


def test_failures_in_lexicographic_order(n2):
    report = sa.check_class(n2, "pre_lie")
    indices = [f.indices for f in report.failures]
    assert indices == sorted(indices)


# ---------------------------------------------------------------------------
# quadri

def quadri_scalar(dim, lam):
    rows = [(1, 1, 1, lam)] if lam else []
    return sa.algebra(dim, {name: list(rows) for name in ("se", "ne", "nw", "sw")})


def test_zero_quadri_passes():
    assert sa.check_class(quadri_scalar(1, 0), "quadri").passed
    assert sa.check_class(quadri_scalar(2, 0), "quadri").passed


def test_scalar_quadri_fails_for_lambda_one():
    # (e1 nw e1) nw e1 = e1 but e1 nw (e1 * e1) = 4 e1
    report = sa.check_class(quadri_scalar(1, 1), "quadri")
    assert not report.passed
    assert report.failures[0].identity == "eq-3.17-left"
    assert report.failures[0].residual == (Fraction(-3),)


def test_quadri_derived_pairs_are_dendriform():
    # whenever the quadri axioms pass, the derived (succ,prec) and the
    # derived (vee,wedge) both satisfy the dendriform identities
    for alg in (quadri_scalar(1, 0), quadri_scalar(2, 0)):
        assert sa.check_class(alg, "quadri").passed
        sp = sa.merge_ops(sa.quadri_derive(alg, "succ"), sa.quadri_derive(alg, "prec"))
        assert sa.check_class(sp, "dendriform").passed
        vw = sa.merge_ops(sa.quadri_derive(alg, "vee"), sa.quadri_derive(alg, "wedge"))
        vw = sa.rename_ops(vw, {"vee": "succ", "wedge": "prec"})
        assert sa.check_class(vw, "dendriform").passed


# ---------------------------------------------------------------------------
# cocycles

def test_prelie_cocycle_zero_form(p2):
    assert sa.check_prelie_cocycle(p2, sa.bilinear_form([[0, 0], [0, 0]])).passed


def test_prelie_cocycle_any_form_on_zero_algebra(z2):
    B = sa.bilinear_form([[1, 2], [3, 4]])
    assert sa.check_prelie_cocycle(z2, B).passed


def test_prelie_cocycle_identity_gram_on_p2(p2):
    # brute force: the x != y triples are decisive; the first violated one is
    # (1,2,2) where the sides differ by 2
    report = sa.check_prelie_cocycle(p2, sa.bilinear_form([[1, 0], [0, 1]]))
    assert not report.passed
    first = report.failures[0]
    assert first.identity == "eq-2.8"
    assert first.indices == (1, 2, 2)
    assert first.residual == (Fraction(2),)


def test_prelie_cocycle_dimension_mismatch(p2):
    with pytest.raises(sa.DimensionMismatch):
        sa.check_prelie_cocycle(p2, sa.bilinear_form([[0]]))


def test_ldend_cocycle_zero_form(ld2):
    assert sa.check_ldend_cocycle(ld2, sa.bilinear_form([[0, 0], [0, 0]])).passed


def test_ldend_cocycle_rejects_symmetric_nonzero(ld2):
    report = sa.check_ldend_cocycle(ld2, sa.bilinear_form([[1, 0], [0, 1]]))
    assert not report.passed
    assert any(f.identity == "skew" for f in report.failures)


def test_ldend_cocycle_unit_skew_on_ld2_fails_exhaustively(ld2):
    # brute force over all 8 triples: the unit skew form violates the
    # defining identity first at (1,2,2) with residual -2
    report = sa.check_ldend_cocycle(ld2, sa.bilinear_form([[0, 1], [-1, 0]]))
    assert not report.passed
    eq_failures = [f for f in report.failures if f.identity == "eq-4.16"]
    assert eq_failures[0].indices == (1, 2, 2)
    assert eq_failures[0].residual == (Fraction(-2),)


def test_ldend_cocycle_holds_on_zero_algebra():
    zero = sa.zero_algebra(2, ("tri_r", "tri_l"))
    assert sa.check_ldend_cocycle(zero, sa.bilinear_form([[0, 1], [-1, 0]])).passed


def test_report_json_shape(n2):
    doc = sa.check_class(n2, "pre_lie").to_json_dict()
    assert doc["passed"] is False
    assert doc["failures"][0] == {
        "identity": "eq-2.2",
        "indices": [1, 2, 1],
        "residual": ["0", "1"],
    }


def test_ldend_cocycle_needs_the_algebra_dimension(ld2):
    with pytest.raises(sa.DimensionMismatch) as excinfo:
        sa.check_ldend_cocycle(ld2, sa.bilinear_form([[1]]))
    assert str(excinfo.value) == "form dimension does not match the algebra"
