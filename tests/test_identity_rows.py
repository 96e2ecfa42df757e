"""The identity rows say everything: each term names its tables by int-form
key, an op name or a derived product's parts, so summing the terms of a row
in Fraction arithmetic, with nothing but ``core.derive`` on the algebra's
ops and ``core.table_apply``, gives every failure a check reports, in the
same order, with the same ids and residuals."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import splitalg as sa
from splitalg import ybe
from splitalg.axioms import (
    _CLASS_SYSTEMS,
    _LDEND_COCYCLE,
    _PRELIE_COCYCLE,
    CLASS_NAMES,
    LEFT,
    PLAIN,
    REQUIRED_OPS,
    Failure,
)
from splitalg.core import derive, table_apply, zero_table

_entries = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 1, 2, 3)))


def _table(draw, n):
    return tuple(tuple(tuple(draw(_entries) for _ in range(n)) for _ in range(n))
                 for _ in range(n))


@st.composite
def algebras(draw, ops):
    """An algebra of dimension 1-3 with random tables ``ops``, often sparse."""
    n = draw(st.integers(1, 3))
    zero = draw(st.booleans())
    return sa.Algebra(n, {op: zero_table(n) if zero and op == ops[-1] else _table(draw, n)
                          for op in ops})


@st.composite
def forms(draw, n):
    return sa.BilinearForm(n, tuple(tuple(draw(_entries) for _ in range(n)) for _ in range(n)))


def _keys(system):
    """The table keys the rows of ``system`` name, but the form's "B"."""
    return {key for _, _, terms in system for term in terms for key in term[2:4]} - {None, "B"}


def _ops_read(system):
    """The op names the rows of ``system`` read, directly or through parts."""
    return {name for key in _keys(system)
            for name in ([key] if isinstance(key, str) else [name for _, name, _ in key])}


def row_failures(system, alg, form=None):
    """The failures of identity rows on ``alg`` (and the form as "B"), each
    term summed on Fractions: a key's table is ``derive`` of the ops by the
    key's parts, and a product of basis vectors is ``table_apply``."""
    n = alg.dim
    tables = {key: derive(alg.ops, ((1, key, False),) if isinstance(key, str) else key)
              for key in _keys(system)}
    if form is not None:
        tables["B"] = tuple(tuple((x,) for x in row) for row in form.gram)
    basis = [sa.basis_vector(n, i) for i in range(n)]
    failures = []
    for ident, arity, terms in system:
        for idx in itertools.product(range(n), repeat=arity):
            total = None
            for sign, shape, a, b, perm in terms:
                x, y, *z = (basis[idx[p]] for p in perm)
                if shape == PLAIN:
                    value = table_apply(tables[a], x, y)
                elif shape == LEFT:
                    value = table_apply(tables[b], table_apply(tables[a], x, y), z[0])
                else:
                    value = table_apply(tables[a], x, table_apply(tables[b], y, z[0]))
                value = tuple(sign * v for v in value)
                total = value if total is None else tuple(map(sum, zip(total, value)))
            if any(total):
                failures.append(Failure(ident, tuple(i + 1 for i in idx), total))
    return tuple(failures)


def _same(report, expected):
    assert report.failures == expected
    assert repr(report.failures) == repr(expected)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_class_rows_summed_on_fractions_give_the_check(data):
    for class_name in CLASS_NAMES:
        alg = data.draw(algebras(REQUIRED_OPS[class_name]))
        system = _CLASS_SYSTEMS[class_name]
        _same(sa.check_class(alg, class_name), row_failures(system, alg))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_form_rows_summed_on_fractions_give_the_checks(data):
    alg = data.draw(algebras(("circ", "tri_r", "tri_l")))
    form = data.draw(forms(alg.dim))
    if data.draw(st.booleans()):
        gram = form.gram
        form = sa.BilinearForm(alg.dim, tuple(tuple(gram[i][j] - gram[j][i]
                                                    for j in range(alg.dim))
                                              for i in range(alg.dim)))
    _same(sa.check_prelie_cocycle(alg, form), row_failures(_PRELIE_COCYCLE, alg, form))
    _same(sa.check_ldend_cocycle(alg, form), row_failures(_LDEND_COCYCLE, alg, form))
    _same(ybe._check_companion_identity(alg, form), row_failures(ybe._COMPANION, alg, form))


def test_class_rows_on_the_catalog_give_the_check():
    for name in sa.catalog.CATALOG_NAMES:
        alg = sa.catalog.build(name)
        if not isinstance(alg, sa.Algebra):
            continue
        for class_name in CLASS_NAMES:
            if all(alg.has_op(op) for op in REQUIRED_OPS[class_name]):
                _same(sa.check_class(alg, class_name),
                      row_failures(_CLASS_SYSTEMS[class_name], alg))


def test_each_class_reads_exactly_its_required_ops():
    for class_name in CLASS_NAMES:
        assert _ops_read(_CLASS_SYSTEMS[class_name]) == set(REQUIRED_OPS[class_name])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_tensor_equation_keys_give_the_functor_tables(data):
    """The keys ybe resolves the LD variants' ops to are the tables of the
    functors: circ the vertical product, bullet the horizontal one, bracket
    the sub-adjacent bracket of the vertical product; the S-equation's
    bracket is the sub-adjacent bracket of circ."""
    ld = data.draw(algebras(("tri_r", "tri_l")))
    vertical = sa.vertical_prelie(ld)
    expected = {"circ": vertical.op("circ"), "bullet": sa.horizontal_prelie(ld).op("bullet"),
                "bracket": sa.sub_adjacent_lie(vertical).op("bracket"),
                "tri_r": ld.op("tri_r"), "tri_l": ld.op("tri_l")}
    for variant, rows in sa.LD_VARIANTS.items():
        for (*slots, op), (*keyed_slots, key) in zip(rows, ybe._LD_TERMS[variant]):
            assert keyed_slots == slots
            parts = ((1, key, False),) if isinstance(key, str) else key
            assert derive(ld.ops, parts) == expected[op], (variant, op)
    pre = data.draw(algebras(("circ",)))
    bracket = sa.sub_adjacent_lie(pre).op("bracket")
    for rows in ybe._S_FORMS.values():
        for *_, key in rows:
            if key != "circ":
                assert derive(pre.ops, key) == bracket
