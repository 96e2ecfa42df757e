"""An algebra's int form: its tables scaled to ints and its derived tables,
built once per value and kept with it (``Algebra.scaled``).

Every check and tensor equation that reads the form must give the same
report on a value whose form earlier calls have filled as on a fresh copy,
and the form must never show through the value: equality, hashing, repr,
copies, pickles and ``dataclasses.replace`` see the fields only.
"""

import copy
import dataclasses
import functools
import importlib
import itertools
import pickle
import pkgutil
import sys
import threading
import types
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitalg as sa
from splitalg.axioms import CLASS_NAMES
from splitalg.core import _Value, slot_sum

from conftest import kept_packings
from naive_kernel import nest

#: denominator sets of one object; drawn per object, so tables and tensors
#: often have denominators that do not divide each other
DENOMINATORS = ((1,), (2,), (3,), (2, 3), (5, 7))
OPS = ("circ", "tri_r", "tri_l")
SLOT_PAIRS = (((1, 2), (1, 3)), ((1, 3), (2, 3)), ((2, 3), (1, 2)))


@st.composite
def entries(draw, size):
    """``size`` Fractions over one drawn denominator set, ints, or zeros."""
    kind = draw(st.sampled_from(("zero", "int", "fraction", "fraction")))
    if kind == "zero":
        return [Fraction(0)] * size
    dens = (1,) if kind == "int" else draw(st.sampled_from(DENOMINATORS))
    nums = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    return [Fraction(a, draw(st.sampled_from(dens))) for a in nums]


@st.composite
def cases(draw):
    """An algebra with a nonempty subset of circ, tri_r and tri_l, a tensor,
    its symmetric and skew parts, and a form, each with its own
    denominators."""
    n = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=3, unique=True))
    alg = sa.Algebra(n, {name: nest(draw(entries(n ** 3)), n, 3) for name in names})
    grid = nest(draw(entries(n * n)), n, 2)
    r = sa.Tensor2(n, grid)
    sym = sa.Tensor2(n, tuple(tuple(grid[i][j] + grid[j][i] for j in range(n)) for i in range(n)))
    skew = sa.Tensor2(n, tuple(tuple(grid[i][j] - grid[j][i] for j in range(n)) for i in range(n)))
    form = sa.BilinearForm(n, nest(draw(entries(n * n)), n, 2))
    return alg, r, sym, skew, form


def calls(r, sym, skew, form):
    """(label, call on an algebra) for every check and equation reading the
    int form."""
    out = [("s_residual", lambda a: sa.s_residual(a, r))]
    out += [(v, lambda a, v=v: sa.ld_residual(a, r, v)) for v in sa.LD_VARIANTS]
    out += [(f"slot_product {op} {pair}", lambda a, op=op, pair=pair:
             sa.slot_product(r, pair[0], sym, pair[1], a, op))
            for op in OPS for pair in SLOT_PAIRS]
    out += [
        ("s_equivalence_check", lambda a: sa.s_equivalence_check(a, sym)),
        ("ld_equivalence_check", lambda a: sa.ld_equivalence_check(a, skew)),
        ("form_criterion_check", lambda a: sa.form_criterion_check(a, skew)),
        ("check_prelie_cocycle", lambda a: sa.check_prelie_cocycle(a, form)),
        ("check_ldend_cocycle", lambda a: sa.check_ldend_cocycle(a, form)),
    ]
    out += [(c, lambda a, c=c: sa.check_class(a, c)) for c in CLASS_NAMES]
    return out


def outcome(call, alg) -> str:
    """The repr of the call's result, or its exception's type and message."""
    try:
        return repr(call(alg))
    except (ArithmeticError, KeyError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def fresh(alg):
    return sa.Algebra(alg.dim, dict(alg.ops))


@settings(max_examples=80, deadline=None)
@given(cases(), st.data())
def test_a_reused_algebra_answers_as_a_fresh_one(case, data):
    """Every call on one value, in a drawn order, against the same call on a
    freshly built copy; failing calls included."""
    alg, *inputs = case
    for label, call in data.draw(st.permutations(calls(*inputs))):
        assert outcome(call, alg) == outcome(call, fresh(alg)), label


@pytest.mark.parametrize("ld_first", [False, True], ids=["s-first", "ld-first"])
def test_colliding_derived_names_answer_as_on_a_fresh_value(ld_first):
    """The S-equation's "bracket" is the sub-adjacent bracket of circ; the
    LD-equation's "circ" and "bracket" are the vertical product and its
    commutator.  On one value the S-residual, every LD variant and the
    S-equivalence report each answer as on a fresh value, the S-calls first
    or last.  circ is large and tri_r, tri_l are small, so a table or entry
    bound found under the other equation's name would give a wrong tensor."""
    n = 3
    alg = sa.Algebra(n, {
        "circ": nest([Fraction((i * 7) % 11 - 5, 3) * 10 ** 6 for i in range(n ** 3)], n, 3),
        "tri_r": nest([Fraction((i * 5) % 3 - 1, 2) for i in range(n ** 3)], n, 3),
        "tri_l": nest([Fraction((i * 4) % 3 - 1, 7) for i in range(n ** 3)], n, 3),
    })
    r = sa.tensor2(n, [(i, j, Fraction(i * j + 1, 1 + (i + j) % 2)) for i in range(1, n + 1)
                       for j in range(1, n + 1)])
    sym = r + sa.exchange(r)
    s_calls = [("s_residual", lambda a: sa.s_residual(a, r)),
               ("s_equivalence_check", lambda a: sa.s_equivalence_check(a, sym))]
    ld_calls = [(v, lambda a, v=v: sa.ld_residual(a, r, v)) for v in sa.LD_VARIANTS]
    work = ld_calls + s_calls if ld_first else s_calls[:1] + ld_calls + s_calls[1:]
    for label, call in work:
        got, expected = call(alg), call(fresh(alg))
        assert got == expected and repr(got) == repr(expected), label


def _filled(alg):
    """``alg`` after calls that fill its int form with tables and products."""
    sa.check_class(alg, "l_dendriform")
    sa.ld_residual(alg, sa.tensor2(alg.dim, [(1, 2, 1), (2, 1, -1)]), "eq-4.9")
    sa.s_residual(alg, sa.tensor2(alg.dim, [(1, 1, Fraction(1, 5))]))
    assert "_int_form" in vars(alg)
    return alg


def _algebra():
    tables = {name: nest([Fraction(i % 5 - 2, 1 + i % 3) for i in range(k, k + 8)], 2, 3)
              for k, name in enumerate(OPS)}
    return sa.Algebra(2, tables, "sample")


def test_an_algebra_stays_a_value_once_its_int_form_is_filled():
    alg = _algebra()
    twin = fresh(alg)
    text, key = repr(alg), hash(alg)
    _filled(alg)
    assert repr(alg) == text and hash(alg) == key
    assert alg == twin and twin == alg and hash(twin) == key
    assert alg != dataclasses.replace(alg, ops={"circ": alg.op("circ")})

    for other in (copy.copy(alg), copy.deepcopy(alg), pickle.loads(pickle.dumps(alg))):
        assert other == alg and repr(other) == text and hash(other) == key
        assert "_int_form" not in vars(other)
        assert other.class_tag == "sample"

    tagged = dataclasses.replace(alg, class_tag="other")
    assert tagged == alg and hash(tagged) == key and "_int_form" not in vars(tagged)


def test_replace_with_new_tables_answers_for_the_new_tables():
    """A replaced algebra with other tables builds its own int form."""
    alg = _filled(_algebra())
    r = sa.tensor2(2, [(1, 2, 1), (2, 1, -1), (2, 2, Fraction(1, 2))])
    doubled = {name: tuple(tuple(tuple(2 * x for x in vec) for vec in plane) for plane in table)
               for name, table in alg.ops.items()}
    other = dataclasses.replace(alg, ops=doubled)
    for label, call in calls(r, r + sa.exchange(r), r - sa.exchange(r), sa.bilinear_form(
            [[1, Fraction(1, 3)], [0, 2]])):
        assert outcome(call, other) == outcome(call, fresh(other)), label


def test_equal_vectors_of_the_int_form_are_one_tuple():
    alg = _algebra()
    _, (tri_r, tri_l, vertical) = alg.scaled("tri_r", "tri_l", ((1, "tri_r", False),
                                                                (-1, "tri_l", True)))
    vectors = [vec for table in (tri_r, tri_l, vertical) for plane in table for vec in plane]
    assert len({id(vec) for vec in vectors}) == len(set(vectors))


def test_a_term_with_s_in_slot_1_keeps_no_swapped_table():
    """Such a term reads its table with the two inputs swapped, a view the
    call makes and drops: the int form gains no key beyond the keys the
    terms name, on the first call or the next, and each call answers as on
    a fresh value."""
    alg = _algebra()
    r = sa.tensor2(2, [(1, 2, 1), (2, 1, Fraction(-1, 3))])
    s = sa.tensor2(2, [(1, 1, Fraction(1, 2)), (2, 1, 2)])
    vertical = ((1, "tri_r", False), (-1, "tri_l", True))
    terms = [(1, r, (2, 3), s, (1, 2), "circ"), (-1, s, (3, 2), r, (2, 1), vertical)]
    form = alg._int_form[1]
    first = slot_sum(terms, alg)
    assert set(form) == {*OPS, vertical}
    assert slot_sum(terms, alg) == first == slot_sum(terms, fresh(alg))
    assert set(form) == {*OPS, vertical}


def test_threads_sharing_an_algebra_get_the_answers_of_a_fresh_one():
    """Threads filling one value's int form at once, with a short switch
    interval; each answer must match a fresh copy's.  Residuals of r scaled
    up to ints 2**50 times larger are interleaved with the other calls, and
    each round builds its tensors anew, so the threads add packings of
    several widths under the same keys of the algebra and of the tensors at
    once, with no lock; every packing left kept is its operand at its key's
    width."""
    base = sa.Algebra(3, {name: nest([Fraction((i * 7 + k) % 5 - 2, 1 + (i + k) % 3)
                                      for i in range(27)], 3, 3)
                          for k, name in enumerate(OPS)})
    entries = sa.tensor2(3, [(1, 2, Fraction(1, 2)), (2, 1, -1), (3, 3, Fraction(2, 5))]).entries

    def work_on(r):
        """The calls and the tensors they read, r and r at two larger scales."""
        wide = [sa.Tensor2(3, tuple(tuple(c * x for x in row) for row in r.entries))
                for c in (10 ** 6, Fraction(10 ** 15, 7))]
        widening = [(f"s_residual x{k}", lambda a, t=t: sa.s_residual(a, t))
                    for k, t in enumerate([r, *wide])]
        widening += [(f"{v} x{k}", lambda a, t=t, v=v: sa.ld_residual(a, t, v))
                     for k, t in enumerate(wide) for v in sa.LD_VARIANTS]
        narrow = calls(r, r + sa.exchange(r), r - sa.exchange(r), sa.bilinear_form(
            [[1, 0, Fraction(1, 3)], [0, 2, 0], [Fraction(1, 7), 0, 1]]))
        pairs = itertools.zip_longest(narrow, widening)
        return [call for pair in pairs for call in pair if call], [r, *wide]

    expected = [outcome(call, fresh(base)) for _, call in work_on(sa.Tensor2(3, entries))[0]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared = fresh(base)
            work, tensors = work_on(sa.Tensor2(3, entries))
            results = {}

            def worker(k, shared=shared, results=results, work=work):
                order = work[k:] + work[:k]
                results[k] = {label: outcome(call, shared) for label, call in order}

            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == len(threads)
            for got in results.values():
                assert [got[label] for label, _ in work] == expected
            assert kept_packings(shared, tensors)
    finally:
        sys.setswitchinterval(interval)


def test_a_repeated_pass_keeps_nothing_new():
    """One pass of ``s_residual``, the seven LD variants and both
    equivalence reports fills the algebra's and the tensors' ``_kept``; a
    second pass over the same values adds no entry to any of them.  Each
    key names what a value keeps by stable objects only, so a key built
    from a per-call object (a local function, say) would add an entry on
    every call and let the store grow without bound."""
    alg = sa.Algebra(3, {name: nest([Fraction((i * 5 + k) % 7 - 3, 1 + (i + k) % 4)
                                     for i in range(27)], 3, 3) for k, name in enumerate(OPS)})
    r = sa.tensor2(3, [(1, 2, Fraction(1, 2)), (2, 3, -1), (3, 3, Fraction(2, 5))])
    sym, skew = r + sa.exchange(r), r - sa.exchange(r)

    def run_pass():
        sa.s_residual(alg, sym)
        for variant in sa.LD_VARIANTS:
            sa.ld_residual(alg, skew, variant)
        sa.s_equivalence_check(alg, sym)
        sa.ld_equivalence_check(alg, skew)

    def kept():
        return [set(vars(value).get("_kept", ())) for value in (alg, sym, skew)]

    run_pass()
    first = kept()
    assert all(first)
    run_pass()
    assert kept() == first


def test_the_int_form_scales_every_table_by_the_lcm_of_all_their_denominators():
    alg = _algebra()
    d, tables = alg.scaled(*alg.ops)
    entries = [x for table in alg.ops.values() for plane in table for vec in plane for x in vec]
    assert d == lcm(*(x.denominator for x in entries)) > 1
    assert [x * d for x in entries] == [x for t in tables for plane in t for vec in plane
                                        for x in vec]
    assert all(type(x) is int for t in tables for plane in t for vec in plane for x in vec)


# ---------------------------------------------------------------------------
# compiled identities: kept with the value they were compiled from

@st.composite
def module_cases(draw):
    """A base with circ, tri_r and tri_l, its regular and dual modules, a
    random-family module of each kind with vdim != n and their duals, and a
    form."""
    n = draw(st.integers(1, 3))
    v = draw(st.integers(1, 3).filter(lambda v: v != n))
    alg = sa.Algebra(n, {name: nest(draw(entries(n ** 3)), n, 3) for name in OPS})

    def family():
        return tuple(sa.LinearMap(v, v, nest(draw(entries(v * v)), v, 2)) for _ in range(n))

    prelie = [sa.regular_prelie_module(alg), sa.PreLieModule(alg, v, family(), family())]
    ldend = [sa.regular_ldend_module(alg), sa.LDendModule(alg, v, *(family() for _ in range(4)))]
    modules = prelie + [sa.dual_prelie_module(m) for m in prelie]
    modules += ldend + [sa.dual_ldend_module(m) for m in ldend]
    return alg, modules, sa.BilinearForm(n, nest(draw(entries(n * n)), n, 2))


def fresh_module(m):
    return type(m)(fresh(m.base), *(getattr(m, f.name) for f in dataclasses.fields(m)[1:]))


def module_check(m):
    return sa.check_prelie_module if isinstance(m, sa.PreLieModule) else sa.check_ldend_module


@settings(max_examples=40, deadline=None)
@given(module_cases(), st.data())
def test_a_reused_module_answers_as_a_fresh_one(case, data):
    """Every module checked twice, interleaved with class and cocycle checks
    of its base in a drawn order, against the same call on freshly built
    copies of the module and its base."""
    alg, modules, form = case
    work = [(f"module {k}", lambda m=m: module_check(m)(m), lambda m=m: module_check(m)(
        fresh_module(m))) for k, m in enumerate(modules)] * 2
    work += [(c, lambda c=c: sa.check_class(alg, c), lambda c=c: sa.check_class(fresh(alg), c))
             for c in ("pre_lie", "associative", "l_dendriform")]
    work += [(check.__name__, lambda check=check: check(alg, form),
              lambda check=check: check(fresh(alg), form))
             for check in (sa.check_prelie_cocycle, sa.check_ldend_cocycle)]
    for label, call, on_fresh in data.draw(st.permutations(work)):
        assert repr(call()) == repr(on_fresh()), label


@st.composite
def report_cases(draw):
    """An algebra with circ, tri_r and tri_l, and two tensors."""
    n = draw(st.integers(1, 3))
    alg = sa.Algebra(n, {name: nest(draw(entries(n ** 3)), n, 3) for name in OPS})
    return alg, [sa.Tensor2(n, nest(draw(entries(n * n)), n, 2)) for _ in range(2)]


@settings(max_examples=40, deadline=None)
@given(report_cases(), st.data())
def test_reports_on_a_reused_algebra_answer_as_on_a_fresh_one(case, data):
    """Both equivalence reports, each asked twice of the symmetric and skew
    parts of two tensors, interleaved with class checks and the canonical
    double of one algebra in a drawn order, against the same call on a
    freshly built copy."""
    alg, tensors = case
    work = [(f"S {k}", lambda a, r=r: sa.s_equivalence_check(a, r + sa.exchange(r)))
            for k, r in enumerate(tensors)]
    work += [(f"LD {k}", lambda a, r=r: sa.ld_equivalence_check(a, r - sa.exchange(r)))
             for k, r in enumerate(tensors)]
    work *= 2
    work += [(c, lambda a, c=c: sa.check_class(a, c))
             for c in ("pre_lie", "associative", "l_dendriform")]
    work += [("canonical_double_solution", sa.canonical_double_solution)]
    for label, call in data.draw(st.permutations(work)):
        assert outcome(call, alg) == outcome(call, fresh(alg)), label


def test_checked_algebras_and_modules_stay_values():
    """Checks keep compiled identities with the algebra (its ``_kept``)
    and with the module, the reports their modules' O-operator rows with
    the algebra, and the module and O-operator checks a module's int form,
    its O-operator rows, with the module, which keeps no other int copy; a
    tensor, map or form keeps its int form once a check has read it (a
    Tensor3 once it is asked for), and a tensor that a slot sum read keeps
    its packed rows in its ``_kept``, as the algebra keeps its packed
    supports.
    Copies, pickles and
    ``dataclasses.replace`` are rebuilt from the fields and carry none of
    it, yet compare equal, hash alike and answer alike."""
    alg = _algebra()
    maps = [sa.LinearMap(3, 3, nest([Fraction((a + 5 * i) % 7 - 3, 1 + i % 2) for i in range(9)],
                                    3, 2)) for a in range(8)]
    pm = sa.PreLieModule(alg, 3, maps[0:2], maps[2:4])
    lm = sa.LDendModule(alg, 3, maps[0:2], maps[2:4], maps[4:6], maps[6:8])
    T = sa.LinearMap(2, 3, ((1, Fraction(1, 2), 0), (0, -1, Fraction(2, 3))))
    r = sa.tensor2(2, [(1, 2, Fraction(1, 3)), (2, 2, 1)])
    t3 = sa.tensor3(2, [(1, 2, 1, Fraction(-1, 4)), (2, 2, 2, 3)])
    form = sa.bilinear_form([[1, Fraction(1, 3)], [Fraction(-1, 3), 2]])
    checks = {alg: lambda a: [sa.check_class(a, c) for c in ("pre_lie", "l_dendriform")]
              + [sa.s_equivalence_check(a, r + sa.exchange(r)),
                 sa.ld_equivalence_check(a, r - sa.exchange(r))],
              pm: lambda m: [sa.check_prelie_module(m), sa.check_o_prelie(T, m)],
              lm: lambda m: [sa.check_ldend_module(m), sa.check_o_ldend(T, m)],
              r: lambda t: [sa.s_residual(alg, t), sa.ld_residual(alg, t, "eq-4.9")],
              t3: lambda t: [t._ints, t + t],
              T: lambda m: [sa.check_o_prelie(m, pm), sa.check_o_ldend(m, lm)],
              form: lambda b: [sa.check_prelie_cocycle(alg, b), sa.check_ldend_cocycle(alg, b)]}
    answers = {value: repr(check(value)) for value, check in checks.items()}
    assert set(vars(alg)) == {"dim", "ops", "class_tag", "_int_form", "_kept"}
    assert {sa.s_equivalence_check, sa.ld_equivalence_check} <= set(alg._kept)
    assert all({"_lines", "_o_rows"} <= set(vars(m)) for m in (pm, lm))
    assert not any(hasattr(m, "_ints") for m in (pm, lm))
    kept = {r: {"_ints", "_kept"}, t3: {"_ints"}, T: {"_ints"}, form: {"_ints"}}
    for value, forms in kept.items():
        assert set(vars(value)) == {f.name for f in dataclasses.fields(value)} | forms
    assert any(type(key) is tuple and key[0] is slot_sum for key in alg._kept)
    for value, check in checks.items():
        names = {f.name for f in dataclasses.fields(value)}
        for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)),
                      dataclasses.replace(value)):
            assert type(other) is type(value) and other is not value
            assert other == value and hash(other) == hash(value) and repr(other) == repr(value)
            assert set(vars(other)) == names
            assert repr(check(other)) == answers[value]


# ---------------------------------------------------------------------------
# every class that keeps a form reduces through the shared helper

def _package_modules() -> list:
    return [importlib.import_module(f"splitalg.{info.name}")
            for info in pkgutil.iter_modules(sa.__path__)]


def leaky_classes(modules) -> tuple[list[str], list[str]]:
    """The classes defined in ``modules`` that hold a ``cached_property``
    (in their own body or a base's), as ``module.Class``, and those of
    them whose ``__reduce__`` is not the shared helper's: their copies and
    pickles would carry the kept forms."""
    keeping, leaking = [], []
    for module in modules:
        for name, cls in vars(module).items():
            if not (isinstance(cls, type) and cls.__module__ == module.__name__):
                continue
            if any(isinstance(attr, functools.cached_property)
                   for base in cls.__mro__ for attr in vars(base).values()):
                keeping.append(f"{module.__name__}.{name}")
                if cls.__reduce__ is not _Value.__reduce__:
                    leaking.append(f"{module.__name__}.{name}")
    return keeping, leaking


def test_leaky_classes_are_detected():
    module = types.ModuleType("sample")
    source = (
        "import functools\n"
        "class Plain:\n    pass\n"
        "class Kept(Value):\n    form = functools.cached_property(lambda self: 1)\n"
        "class Leaks:\n    form = functools.cached_property(lambda self: 1)\n"
        "class Inherits(Leaks):\n    pass\n"
        "class Overrides(Kept):\n    def __reduce__(self):\n        return object, ()\n"
    )
    module.Value = _Value
    exec(source, vars(module))
    assert leaky_classes([module]) == (
        ["sample.Kept", "sample.Leaks", "sample.Inherits", "sample.Overrides"],
        ["sample.Leaks", "sample.Inherits", "sample.Overrides"])


def test_every_class_that_keeps_a_form_reduces_through_the_shared_helper():
    keeping, leaking = leaky_classes(_package_modules())
    assert {"splitalg.core.Algebra", "splitalg.core.LinearMap", "splitalg.core.Tensor2",
            "splitalg.core.Tensor3", "splitalg.core.BilinearForm",
            "splitalg.representations.PreLieModule",
            "splitalg.representations.LDendModule"} <= set(keeping)
    assert leaking == []
