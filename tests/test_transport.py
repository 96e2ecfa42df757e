"""Metamorphic suite: every verdict and residual under a change of basis.

A change of basis P (|det P| in {1, 2}, so the carried tables are dense
rationals) is an isomorphism.  Class, module, cocycle, O-operator and
Rota-Baxter verdicts therefore do not change, and the S- and LD-residuals
move exactly by (P^-1)^(x)3.  This catches slot and transpose mix-ups that
catalog fixtures and same-basis oracles cannot.
"""

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import splitalg as sa
from splitalg import catalog
from splitalg.axioms import REQUIRED_OPS
from splitalg.ybe import LD_VARIANTS

from conftest import search_symmetric_cocycles
from transport import (
    Frame,
    as_map,
    mat_inverse,
    random_frame,
    rows,
    transport_algebra,
    transport_family,
    transport_form,
    transport_map,
    transport_tensor,
    transport_tensor3,
)

seeds = st.integers(0, 2**32 - 1)
dets = st.sampled_from((1, 2))

CATALOG = ("Z2", "P1", "P2", "N2", "L2", "LD2", "D1", "LD2_VERT", "LD2_HOR", "LD2_LIE",
           "LD2_DOUBLE_VERT", "LD2_DOUBLE_HOR")


def random_entry(rng):
    return rng.choice((-2, -1, 1, 2)) if rng.random() < 0.5 else 0


def random_algebra(rng, n, names):
    return sa.Algebra(n, {name: tuple(tuple(tuple(sa.rat(random_entry(rng)) for _ in range(n))
                                            for _ in range(n)) for _ in range(n))
                          for name in names})


def random_matrix(rng, n, m):
    return as_map([[random_entry(rng) for _ in range(m)] for _ in range(n)])


@functools.cache
def pools():
    """Catalog algebras and structures built from them, most of which pass."""
    algs = {name: catalog.build(name) for name in CATALOG}
    p2 = algs["P2"]
    rbs = [R for R in sa.search_rb(p2, [-1, 0, 1]) if any(map(any, R.entries))]
    prelie = [algs[n] for n in ("P1", "P2", "LD2_VERT", "Z2")]
    prelie.append(sa.rename_ops(algs["LD2_HOR"], {"bullet": "circ"}))
    ldend = [algs["LD2"], sa.transpose(algs["LD2"]), sa.dendriform_to_ldend(algs["D1"])]
    ldend += [sa.ldend_from_rb(R, p2) for R in rbs[:3]]
    cocycles = [(a, B) for a in prelie for B in search_symmetric_cocycles(a)]
    # the induced form of an invertible skew LD-solution is an L-dendriform 2-cocycle
    ld_cocycles = []
    for a in ldend[:3]:
        hat, r = sa.build_ld_solution(canonical_ldend_module(a), sa.LinearMap.identity(a.dim))
        ld_cocycles.append((hat, sa.form_from_invertible_map(sa.tensor_to_map(r))))
    return {"algs": algs, "rbs": [(p2, R) for R in rbs], "prelie": prelie, "ldend": ldend,
            "cocycles": cocycles, "ld_cocycles": ld_cocycles}


def canonical_ldend_module(alg):
    """(L_r, 0, L_l, 0; A): the identity is an invertible O-operator for it."""
    zeros = tuple(sa.LinearMap.zero(alg.dim, alg.dim) for _ in range(alg.dim))
    return sa.LDendModule(alg, alg.dim, sa.left_family(alg, "tri_r"), zeros,
                          sa.left_family(alg, "tri_l"), zeros)


def vertical_module(alg):
    """(L_r, -L_l; A) over the vertical product: the identity is an
    invertible O-operator for it."""
    return sa.PreLieModule(sa.vertical_prelie(alg), alg.dim, sa.left_family(alg, "tri_r"),
                           tuple(-m for m in sa.left_family(alg, "tri_l")))


def pick(rng, pool, names, dims=(1, 2, 3)):
    """A pool member, or (about one time in three) a random algebra."""
    if rng.random() < 0.35:
        return random_algebra(rng, rng.choice(dims), names)
    return rng.choice(pool)


def transport_prelie_module(m, base, space):
    return sa.PreLieModule(transport_algebra(m.base, base), m.vdim,
                           transport_family(m.l, base, space), transport_family(m.r, base, space))


def transport_ldend_module(m, base, space):
    return sa.LDendModule(transport_algebra(m.base, base), m.vdim,
                          *(transport_family(f, base, space) for f in (m.l_r, m.r_r, m.l_l, m.r_l)))


# ---------------------------------------------------------------------------
# verdicts

@settings(max_examples=30, deadline=None)
@given(seeds, dets)
def test_class_verdicts_survive_transport(seed, det):
    rng = random.Random(seed)
    if rng.random() < 0.6:
        alg = pools()["algs"][rng.choice(CATALOG)]
    else:
        alg = random_algebra(rng, rng.choice((1, 2, 3)), REQUIRED_OPS[rng.choice(sa.CLASS_NAMES)])
    moved = transport_algebra(alg, random_frame(rng, alg.dim, det))
    for name in sa.CLASS_NAMES:
        if all(alg.has_op(op) for op in REQUIRED_OPS[name]):
            assert sa.check_class(moved, name).passed == sa.check_class(alg, name).passed, name


@settings(max_examples=20, deadline=None)
@given(seeds, dets, st.booleans())
def test_module_verdicts_survive_transport(seed, det, dual):
    rng = random.Random(seed)
    p = pools()
    alg = pick(rng, p["prelie"], ("circ",))
    m = sa.regular_prelie_module(alg)
    m = sa.dual_prelie_module(m) if dual else m
    base, space = random_frame(rng, alg.dim, det), random_frame(rng, m.vdim, det)
    moved = transport_prelie_module(m, base, space)
    assert sa.check_prelie_module(moved).passed == sa.check_prelie_module(m).passed

    ld = pick(rng, p["ldend"], ("tri_r", "tri_l"), dims=(1, 2))
    m = sa.regular_ldend_module(ld)
    m = sa.dual_ldend_module(m) if dual else m
    base, space = random_frame(rng, ld.dim, det), random_frame(rng, m.vdim, det)
    moved = transport_ldend_module(m, base, space)
    assert sa.check_ldend_module(moved).passed == sa.check_ldend_module(m).passed


@settings(max_examples=25, deadline=None)
@given(seeds, dets)
def test_cocycle_verdicts_survive_transport(seed, det):
    rng = random.Random(seed)
    p = pools()
    for check, pool, names in ((sa.check_prelie_cocycle, p["cocycles"], ("circ",)),
                               (sa.check_ldend_cocycle, p["ld_cocycles"], ("tri_r", "tri_l"))):
        if rng.random() < 0.35:
            n = rng.choice((1, 2, 3))
            alg = random_algebra(rng, n, names)
            B = sa.BilinearForm(n, rows(random_matrix(rng, n, n)))
        else:
            alg, B = rng.choice(pool)
        f = random_frame(rng, alg.dim, det)
        moved = check(transport_algebra(alg, f), transport_form(B, f))
        assert moved.passed == check(alg, B).passed, check.__name__


@settings(max_examples=25, deadline=None)
@given(seeds, dets)
def test_operator_verdicts_survive_transport(seed, det):
    rng = random.Random(seed)
    p = pools()
    if rng.random() < 0.6:
        alg, R = rng.choice(p["rbs"])
    else:
        alg = pick(rng, p["prelie"], ("circ",))
        R = random_matrix(rng, alg.dim, alg.dim)
    base, space = random_frame(rng, alg.dim, det), random_frame(rng, alg.dim, det)

    moved = sa.check_rota_baxter_prelie(transport_map(R, base, base), transport_algebra(alg, base))
    assert moved.passed == sa.check_rota_baxter_prelie(R, alg).passed

    m = sa.regular_prelie_module(alg)
    moved = sa.check_o_prelie(transport_map(R, base, space),
                              transport_prelie_module(m, base, space))
    assert moved.passed == sa.check_o_prelie(R, m).passed

    lie = sa.sub_adjacent_lie(alg)
    rho = sa.adjoint_family(lie)
    moved = sa.check_o_lie(transport_map(R, base, space), transport_algebra(lie, base),
                           transport_family(rho, base, space))
    assert moved.passed == sa.check_o_lie(R, lie, rho).passed

    ld = pick(rng, p["ldend"], ("tri_r", "tri_l"), dims=(1, 2))
    m = canonical_ldend_module(ld)
    T = sa.LinearMap.identity(ld.dim) if rng.random() < 0.5 else random_matrix(rng, ld.dim, ld.dim)
    base, space = random_frame(rng, ld.dim, det), random_frame(rng, ld.dim, det)
    moved = sa.check_o_ldend(transport_map(T, base, space), transport_ldend_module(m, base, space))
    assert moved.passed == sa.check_o_ldend(T, m).passed


# ---------------------------------------------------------------------------
# residuals

@settings(max_examples=25, deadline=None)
@given(seeds, dets)
def test_residuals_move_by_the_inverse_frame(seed, det):
    """residual(A', r') = (P^-1)^(x)3 residual(A, r)  with  r' = (P^-1)^(x)2 r."""
    rng = random.Random(seed)
    p = pools()
    alg = pick(rng, p["prelie"], ("circ",))
    n = alg.dim
    r = sa.tensor2_from_entries(rows(random_matrix(rng, n, n)))
    f = random_frame(rng, n, det)
    moved = sa.s_residual(transport_algebra(alg, f), transport_tensor(r, f))
    assert moved == transport_tensor3(sa.s_residual(alg, r), f)

    ld = pick(rng, p["ldend"], ("tri_r", "tri_l"))
    n = ld.dim
    r = sa.tensor2_from_entries(rows(random_matrix(rng, n, n)))
    f = random_frame(rng, n, det)
    moved_alg, moved_r = transport_algebra(ld, f), transport_tensor(r, f)
    for variant in sorted(LD_VARIANTS):
        moved = sa.ld_residual(moved_alg, moved_r, variant)
        assert moved == transport_tensor3(sa.ld_residual(ld, r, variant), f), variant


# ---------------------------------------------------------------------------
# the compatible structure is the module structure carried along T

@settings(max_examples=30, deadline=None)
@given(seeds, dets)
def test_compatible_structure_is_the_induced_one_carried_along_t(seed, det):
    """compatible_ldend_from_invertible_o(T, m) has the tables
    T t(T^-1 x, T^-1 y), t those of ldend_from_o_prelie(T, m)[0]."""
    rng = random.Random(seed)
    p = pools()
    if rng.random() < 0.5:
        # an invertible O-operator: the identity of the vertical module, carried along Q
        ld = rng.choice(p["ldend"])
        fixed, space = Frame(rows(sa.LinearMap.identity(ld.dim))), random_frame(rng, ld.dim, det)
        m = vertical_module(ld)
        m = sa.PreLieModule(m.base, m.vdim, transport_family(m.l, fixed, space),
                            transport_family(m.r, fixed, space))
        T, force = as_map(space.p), False
    else:
        # any invertible map, past the precondition
        alg = pick(rng, p["prelie"], ("circ",))
        m = sa.regular_prelie_module(alg)
        if rng.random() < 0.5:
            m = sa.dual_prelie_module(m)
        T, force = as_map(random_frame(rng, alg.dim, det).p), True
    on_v = sa.ldend_from_o_prelie(T, m, force=force)[0]
    compatible = sa.compatible_ldend_from_invertible_o(T, m, force=force)
    carried = transport_algebra(on_v, Frame(mat_inverse(rows(T))))
    assert dict(compatible.ops) == dict(carried.ops)
