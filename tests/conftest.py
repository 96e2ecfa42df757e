"""Shared fixtures: the shipped catalog plus the solution / non-solution
instance sets used by the equation suites and the acceptance criteria.

Everything is session-scoped and all objects are immutable, except the
``constructions`` counter, which spies on one test.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

import splitalg as sa
from splitalg import catalog
from splitalg.representations import regular_ldend_module, regular_prelie_module


@pytest.fixture
def constructions(monkeypatch):
    """Counts of Algebra, PreLieModule and LDendModule values built."""
    counts = Counter()
    for cls in (sa.Algebra, sa.PreLieModule, sa.LDendModule):
        def counted(self, original=cls.__post_init__, name=cls.__name__):
            counts[name] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


@pytest.fixture(scope="session")
def z2():
    return catalog.build("Z2")


@pytest.fixture(scope="session")
def p1():
    return catalog.build("P1")


@pytest.fixture(scope="session")
def p2():
    return catalog.build("P2")


@pytest.fixture(scope="session")
def n2():
    return catalog.build("N2")


@pytest.fixture(scope="session")
def l2():
    return catalog.build("L2")


@pytest.fixture(scope="session")
def rb2():
    return catalog.build("RB2")


@pytest.fixture(scope="session")
def ld2():
    return catalog.build("LD2")


@pytest.fixture(scope="session")
def d1():
    return catalog.build("D1")


@pytest.fixture(scope="session")
def rb_operators_p2(p2):
    """All Rota-Baxter operators on P2 with entries in {-1, 0, 1}."""
    return sa.search_rb(p2, [-1, 0, 1])


@pytest.fixture(scope="session")
def rb_induced_ldend(p2, rb_operators_p2):
    """Every L-dendriform algebra induced from the P2 search results."""
    return [sa.ldend_from_rb(R, p2) for R in rb_operators_p2]


@pytest.fixture(scope="session")
def ldend_canonical_module(ld2):
    """(L_r, 0, L_l, 0; A): the module for which the identity map is an
    invertible O-operator of any L-dendriform algebra."""
    from splitalg.representations import left_family

    zeros = tuple(sa.LinearMap.zero(2, 2) for _ in range(2))
    return sa.LDendModule(ld2, 2, left_family(ld2, "tri_r"), zeros,
                          left_family(ld2, "tri_l"), zeros)


@pytest.fixture(scope="session")
def ldend_fixtures(ld2, d1, rb_induced_ldend, ldend_canonical_module):
    """The L-dendriform fixture list used by the transpose, double-solution
    and diagram suites.  Includes a dim-4 semidirect member."""
    fixtures = [
        ("LD2", ld2),
        ("zero-1", sa.zero_algebra(1, ("tri_r", "tri_l"))),
        ("zero-2", sa.zero_algebra(2, ("tri_r", "tri_l"))),
        ("transpose(LD2)", sa.transpose(ld2)),
        ("dendriform(D1)", sa.dendriform_to_ldend(d1)),
        ("semidirect(LD2-canonical)", sa.semidirect_ldend(
            sa.dual_ldend_module(ldend_canonical_module))),
    ]
    fixtures += [(f"rb-induced[{i}]", alg) for i, alg in enumerate(rb_induced_ldend)]
    return fixtures


# ---------------------------------------------------------------------------
# instance sets for the tensor-equation suites

@pytest.fixture(scope="session")
def s_instances(p2, rb2, ld2):
    """Symmetric S-equation instances as (name, algebra, tensor) rows.

    Solutions come from verified O-operators; non-solutions from operators
    that fail the check or from perturbed solutions.  Every test re-derives
    the actual status rather than trusting the construction.
    """
    m_reg = regular_prelie_module(p2)
    hat_rb, r_rb = sa.build_s_solution(m_reg, rb2)
    hat_id, r_id = sa.build_s_solution(m_reg, sa.LinearMap.identity(2))
    hat_v, hat_h, r_can = sa.canonical_double_solution(ld2)
    bump = sa.tensor2(4, [(1, 1, 1)])
    solutions = [
        ("build(P2,RB2)", hat_rb, r_rb),
        ("double-vert(LD2)", hat_v, r_can),
        ("double-hor(LD2)", hat_h, r_can),
        ("e1(x)e1 on P2", p2, sa.tensor2(2, [(1, 1, 1)])),
    ]
    nonsolutions = [
        ("build(P2,id)", hat_id, r_id),
        ("perturbed canonical", hat_v, r_can + bump),
        ("e1(x)e2+e2(x)e1 on P2", p2, sa.tensor2(2, [(1, 2, 1), (2, 1, 1)])),
    ]
    return solutions, nonsolutions


@pytest.fixture(scope="session")
def ld_instances(ld2, ldend_canonical_module):
    """Skew LD-equation instances: (solutions, nonsolutions) with entries
    (name, algebra, tensor)."""
    m_reg = regular_ldend_module(ld2)
    t_good = sa.linmap([[0, 1], [0, 0]])       # found by exhaustive search
    assert sa.check_o_ldend(t_good, m_reg).passed
    big_good, r_good = sa.build_ld_solution(m_reg, t_good)

    big_id, r_id = sa.build_ld_solution(m_reg, sa.LinearMap.identity(2))

    big_can, r_can = sa.build_ld_solution(ldend_canonical_module, sa.LinearMap.identity(2))

    m_dual = sa.dual_ldend_module(m_reg)
    t_dual = sa.linmap([[1, 0], [0, 0]])       # found by exhaustive search
    assert sa.check_o_ldend(t_dual, m_dual).passed
    big_dual, r_dual = sa.build_ld_solution(m_dual, t_dual)

    skew_bump = sa.tensor2(4, [(1, 2, 1), (2, 1, -1)])
    solutions = [
        ("build(reg LD2, T=[[0,1],[0,0]])", big_good, r_good),
        ("build(canonical module, id)", big_can, r_can),
        ("build(dual reg LD2, T=[[1,0],[0,0]])", big_dual, r_dual),
    ]
    nonsolutions = [
        ("build(reg LD2, id)", big_id, r_id),
        ("perturbed good", big_good, r_good + skew_bump),
        ("unit skew on LD2", ld2, sa.tensor2(2, [(1, 2, 1), (2, 1, -1)])),
    ]
    return solutions, nonsolutions


# ---------------------------------------------------------------------------
# exhaustive symmetric 2-cocycle search (criterion 10 helper)

def search_symmetric_cocycles(alg, entries=(-1, 0, 1)):
    """All nondegenerate symmetric Gram matrices with the given entries that
    satisfy the pre-Lie 2-cocycle identity; exhaustive over the upper
    triangle, with the identity evaluated through precomputed linear
    functionals for speed."""
    n = alg.dim
    circ = alg.op("circ")
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {}
    for idx, (i, j) in enumerate(pairs):
        pos[(i, j)] = idx
        pos[(j, i)] = idx
    eye = [sa.basis_vector(n, i) for i in range(n)]
    funcs = []
    for i, j, k in itertools.product(range(n), repeat=3):
        coeffs: dict[int, Fraction] = defaultdict(Fraction)

        def add(u, v, sign):
            for a, ua in enumerate(u):
                if ua:
                    for b, vb in enumerate(v):
                        if vb:
                            coeffs[pos[(a, b)]] += sign * ua * vb

        add(circ[i][j], eye[k], 1)
        add(eye[i], circ[j][k], -1)
        add(circ[j][i], eye[k], -1)
        add(eye[j], circ[i][k], 1)
        items = tuple(sorted((idx, c) for idx, c in coeffs.items() if c))
        if items:
            funcs.append(items)
    funcs = sorted(set(funcs))
    values = [sa.rat(x) for x in entries]
    hits = []
    for flat in itertools.product(values, repeat=len(pairs)):
        if all(sum(c * flat[idx] for idx, c in f) == 0 for f in funcs):
            grid = [[flat[pos[(i, j)]] for j in range(n)] for i in range(n)]
            B = sa.bilinear_form(grid)
            if B.is_nondegenerate:
                hits.append(B)
    return hits


# ---------------------------------------------------------------------------
# the packed operands the slot sums keep (see splitalg.core.slot_sum)

def kept_packings(alg, tensors) -> list:
    """The (owner, key) of every packing the slot sums kept with ``alg`` and
    ``tensors``: "alg" and a (slot_sum, table key, swapped, stride, width)
    for a table support, the tensor's position and a (slot_sum,
    orientation, stride, width) for a tensor's rows.  Each kept packing
    must be its operand packed at its key's width: the support's vectors,
    or the tensor's int rows, each at stride * width; a tensor's kept rows
    by the second component, under (slot_sum, False), must be its int
    rows' transpose."""
    slot_sum, out = sa.core.slot_sum, []
    for key, packing in vars(alg).get("_kept", {}).items():
        if type(key) is tuple and key[0] is slot_sum:
            _, table_key, swapped, stride, width = key
            assert packing == tuple(tuple((v, sa.core.pack(vec, stride * width)) for v, vec in row)
                                    for row in alg.support(table_key, swapped)), key
            out.append(("alg", key))
    for k, t in enumerate(tensors):
        for key, packing in vars(t).get("_kept", {}).items():
            assert key[0] is slot_sum, (k, key)
            if key == (slot_sum, False):
                assert packing == tuple(zip(*t._ints[1])), (k, key)
                continue
            _, first, stride, width = key
            grid = t._ints[1] if first else tuple(zip(*t._ints[1]))
            assert packing == tuple(sa.core.pack(row, stride * width) if any(row) else 0
                                    for row in grid), (k, key)
            out.append((k, key))
    return out
