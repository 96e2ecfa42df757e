"""Fraction reference for every identity check: the oracle of the integer
kernel.

These are the library's original closures, kept verbatim apart from their
imports: each identity is a residual function evaluated over
``fractions.Fraction`` entries on every basis tuple, with no denominators
cleared and no packing.  The package evaluates the same identities on
integers (declarative terms for the class, cocycle and companion systems,
int matrix products for the module checks, precomputed packed products for
the operator checks), so agreement of the full reports is a meaningful
cross-check.  Reports use the package's
``Failure`` and ``CheckReport`` records.
"""

from __future__ import annotations

import itertools

from splitalg.axioms import CLASS_NAMES, REQUIRED_OPS, CheckReport, Failure
from splitalg.core import (
    Algebra,
    BilinearForm,
    DimensionMismatch,
    LinearMap,
    PreconditionFailed,
    Table,
    Tensor2,
    UnknownOperation,
    Vector,
    basis_vector,
    derive,
    family_contract,
    rat,
    rename_ops,
    table_apply,
    tensor2,
    tensor3_from_entries,
    tensor_to_map,
)
from splitalg.functors import SUB_ADJACENT, horizontal_prelie, vertical_prelie
from splitalg.operators import _gate, _require_shape
from splitalg.representations import (
    LDendModule,
    PreLieModule,
    dual_prelie_module,
    left_family,
    right_family,
    semidirect_prelie,
)
from splitalg.ybe import (
    LDEquivalenceReport,
    SEquivalenceReport,
    _check_dims,
    ld_residual,
    s_residual,
)

from naive_kernel import vec_add, vec_sub
from naive_tensor import naive_s_alternate


def is_zero_vector(x: Vector) -> bool:
    return not any(x)


def table_add(*tables: Table) -> Table:
    dim = len(tables[0])
    return tuple(
        tuple(
            tuple(sum(t[i][j][k] for t in tables) for k in range(dim))
            for j in range(dim)
        )
        for i in range(dim)
    )


def table_sub(a: Table, b: Table) -> Table:
    return tuple(
        tuple(vec_sub(a[i][j], b[i][j]) for j in range(len(a)))
        for i in range(len(a))
    )


def table_flip(a: Table) -> Table:
    """Swap the two argument slots: flip(a)[i][j] = a[j][i]."""
    return tuple(tuple(a[j][i] for j in range(len(a))) for i in range(len(a)))


def _run(identities, dim: int) -> CheckReport:
    """Evaluate (id, arity, residual_fn) rows over all basis tuples, in
    declaration order and lexicographic index order."""
    failures = []
    for identity_id, arity, fn in identities:
        for idx in itertools.product(range(dim), repeat=arity):
            residual = fn(*idx)
            if not is_zero_vector(residual):
                failures.append(
                    Failure(identity_id, tuple(i + 1 for i in idx), tuple(residual))
                )
    return CheckReport(tuple(failures))


# ---------------------------------------------------------------------------
# the class identity systems

def _prelie_identities(alg: Algebra):
    t = alg.op("circ")

    def assoc(i: int, j: int, k: int) -> Vector:
        return vec_sub(
            table_apply(t, t[i][j], basis_vector(alg.dim, k)),
            table_apply(t, basis_vector(alg.dim, i), t[j][k]),
        )

    def eq_2_2(i, j, k):
        return vec_sub(assoc(i, j, k), assoc(j, i, k))

    return [("eq-2.2", 3, eq_2_2)]


def _associative_identities(alg: Algebra):
    t = alg.op("circ")
    n = alg.dim

    def associativity(i, j, k):
        return vec_sub(
            table_apply(t, t[i][j], basis_vector(n, k)),
            table_apply(t, basis_vector(n, i), t[j][k]),
        )

    return [("associativity", 3, associativity)]


def _lie_identities(alg: Algebra):
    b = alg.op("bracket")
    n = alg.dim

    def antisym(i, j):
        return vec_add(b[i][j], b[j][i])

    def jacobi(i, j, k):
        e = lambda m: basis_vector(n, m)
        total = table_apply(b, e(i), b[j][k])
        total = vec_add(total, table_apply(b, e(j), b[k][i]))
        return vec_add(total, table_apply(b, e(k), b[i][j]))

    return [("lie-antisym", 2, antisym), ("lie-jacobi", 3, jacobi)]


def _dendriform_identities(succ: Table, prec: Table, dim: int, prefix: str = "eq-1.1"):
    star = table_add(succ, prec)
    e = lambda m: basis_vector(dim, m)

    def left(i, j, k):
        return vec_sub(
            table_apply(prec, prec[i][j], e(k)), table_apply(prec, e(i), star[j][k])
        )

    def mid(i, j, k):
        return vec_sub(
            table_apply(prec, succ[i][j], e(k)), table_apply(succ, e(i), prec[j][k])
        )

    def right(i, j, k):
        return vec_sub(
            table_apply(succ, e(i), succ[j][k]), table_apply(succ, star[i][j], e(k))
        )

    return [(f"{prefix}-left", 3, left), (f"{prefix}-mid", 3, mid), (f"{prefix}-right", 3, right)]


def _ldend_identities(alg: Algebra):
    tr = alg.op("tri_r")
    tl = alg.op("tri_l")
    n = alg.dim
    e = lambda m: basis_vector(n, m)

    def eq_3_1(i, j, k):
        lhs = table_apply(tr, e(i), tr[j][k])
        rhs = table_apply(tr, tr[i][j], e(k))
        rhs = vec_add(rhs, table_apply(tr, tl[i][j], e(k)))
        rhs = vec_add(rhs, table_apply(tr, e(j), tr[i][k]))
        rhs = vec_sub(rhs, table_apply(tr, tl[j][i], e(k)))
        rhs = vec_sub(rhs, table_apply(tr, tr[j][i], e(k)))
        return vec_sub(lhs, rhs)

    def eq_3_2(i, j, k):
        lhs = table_apply(tr, e(i), tl[j][k])
        rhs = table_apply(tl, tr[i][j], e(k))
        rhs = vec_add(rhs, table_apply(tl, e(j), tr[i][k]))
        rhs = vec_add(rhs, table_apply(tl, e(j), tl[i][k]))
        rhs = vec_sub(rhs, table_apply(tl, tl[j][i], e(k)))
        return vec_sub(lhs, rhs)

    return [("eq-3.1", 3, eq_3_1), ("eq-3.2", 3, eq_3_2)]


def _quadri_identities(alg: Algebra):
    se, ne, nw, sw = (alg.op(name) for name in ("se", "ne", "nw", "sw"))
    n = alg.dim
    e = lambda m: basis_vector(n, m)
    # derived operations, never required as input
    succ = table_add(ne, se)
    prec = table_add(nw, sw)
    vee = table_add(se, sw)
    wedge = table_add(ne, nw)
    star = table_add(se, ne, nw, sw)

    def ident(out_left, mid_left, out_right, mid_right):
        #  (x A y) B z  =  x C (y D z)   with B, C applied to a basis slot
        def fn(i, j, k):
            return vec_sub(
                table_apply(out_left, mid_left[i][j], e(k)),
                table_apply(out_right, e(i), mid_right[j][k]),
            )
        return fn

    return [
        ("eq-3.17-left", 3, ident(nw, nw, nw, star)),
        ("eq-3.17-mid", 3, ident(nw, ne, ne, prec)),
        ("eq-3.17-right", 3, ident(ne, wedge, ne, succ)),
        ("eq-3.18-left", 3, ident(nw, sw, sw, wedge)),
        ("eq-3.18-mid", 3, ident(nw, se, se, nw)),
        ("eq-3.18-right", 3, ident(ne, vee, se, ne)),
        ("eq-3.19-left", 3, ident(sw, prec, sw, vee)),
        ("eq-3.19-mid", 3, ident(sw, succ, se, sw)),
        ("eq-3.19-right", 3, ident(se, star, se, se)),
    ]


_BUILDERS = {
    "pre_lie": _prelie_identities,
    "lie": _lie_identities,
    "associative": _associative_identities,
    "dendriform": lambda alg: _dendriform_identities(
        alg.op("succ"), alg.op("prec"), alg.dim
    ),
    "l_dendriform": _ldend_identities,
    "quadri": _quadri_identities,
}


def check_class(alg: Algebra, class_name: str) -> CheckReport:
    """Decide membership of ``alg`` in the named algebra class.

    The class tag on the algebra is ignored; only the tables matter.
    """
    if class_name not in _BUILDERS:
        raise ValueError(f"unknown class {class_name!r} (choose from {CLASS_NAMES})")
    for op_name in REQUIRED_OPS[class_name]:
        if not alg.has_op(op_name):
            raise UnknownOperation(
                f"class {class_name!r} needs operation {op_name!r}"
            )
    return _run(_BUILDERS[class_name](alg), alg.dim)


def check_prelie_cocycle(alg: Algebra, B: BilinearForm) -> CheckReport:
    """2-cocycle identity  B(x.y, z) - B(x, y.z) = B(y.x, z) - B(y, x.z)."""
    t = alg.op("circ")
    if B.dim != alg.dim:
        raise DimensionMismatch("form dimension does not match the algebra")
    n = alg.dim
    e = lambda m: basis_vector(n, m)

    def eq_2_8(i, j, k):
        lhs = B.evaluate(t[i][j], e(k)) - B.evaluate(e(i), t[j][k])
        rhs = B.evaluate(t[j][i], e(k)) - B.evaluate(e(j), t[i][k])
        return (lhs - rhs,)

    return _run([("eq-2.8", 3, eq_2_8)], n)


def check_ldend_cocycle(alg: Algebra, B: BilinearForm) -> CheckReport:
    """Skew-symmetry plus  B(x<|y, z) = -B(y, z o x) + B(x, z * y)  where
    o and * are the vertical and horizontal products of the tables."""
    tr = alg.op("tri_r")
    tl = alg.op("tri_l")
    if B.dim != alg.dim:
        raise DimensionMismatch("form dimension does not match the algebra")
    n = alg.dim
    e = lambda m: basis_vector(n, m)

    def skew(i, j):
        return (B.gram[i][j] + B.gram[j][i],)

    def eq_4_16(i, j, k):
        circ_zk_i = vec_sub(tr[k][i], tl[i][k])          # z o x
        bullet_zk_j = vec_add(tr[k][j], tl[k][j])        # z * y
        lhs = B.evaluate(tl[i][j], e(k))
        rhs = -B.evaluate(e(j), circ_zk_i) + B.evaluate(e(i), bullet_zk_j)
        return (lhs - rhs,)

    return _run([("skew", 2, skew), ("eq-4.16", 3, eq_4_16)], n)


def _flatten(m: LinearMap) -> tuple:
    return tuple(x for row in m.entries for x in row)


def check_prelie_module(m: PreLieModule) -> CheckReport:
    """Both module identities over all basis pairs, as matrix equalities.

    Residuals are the matrix difference of the two sides, flattened row-major.
    """
    circ = m.base.op("circ")
    l, r = m.l, m.r

    def at(family, coeffs):
        return family_contract(family, coeffs)

    def eq_2_5(i, j):
        lhs = l[i] @ l[j] - at(l, circ[i][j])
        rhs = l[j] @ l[i] - at(l, circ[j][i])
        return _flatten(lhs - rhs)

    def eq_2_6(i, j):
        lhs = l[i] @ r[j] - r[j] @ l[i]
        rhs = at(r, circ[i][j]) - r[j] @ r[i]
        return _flatten(lhs - rhs)

    return _run([("eq-2.5", 2, eq_2_5), ("eq-2.6", 2, eq_2_6)], m.base.dim)


def check_ldend_module(m: LDendModule) -> CheckReport:
    """The five module identities over all basis pairs, with the vertical,
    horizontal and bracket products recomputed from the base tables."""
    tr = m.base.op("tri_r")
    tl = m.base.op("tri_l")
    n = m.base.dim
    lr, rr, ll, rl = m.l_r, m.r_r, m.l_l, m.r_l

    def circ(i, j):
        return vec_sub(tr[i][j], tl[j][i])

    def bullet(i, j):
        return vec_add(tr[i][j], tl[i][j])

    def bracket(i, j):
        return vec_sub(bullet(i, j), bullet(j, i))

    def at(family, coeffs):
        return family_contract(family, coeffs)

    def comm(a, b):
        return a @ b - b @ a

    def eq_4_1(i, j):
        return _flatten(comm(lr[i], lr[j]) - at(lr, bracket(i, j)))

    def eq_4_2(i, j):
        return _flatten(comm(lr[i], ll[j]) - at(ll, circ(i, j)) - ll[j] @ ll[i])

    def eq_4_3(i, j):
        lhs = at(rr, tr[i][j])
        rhs = rr[j] @ rr[i] + rr[j] @ rl[i] + comm(lr[i], rr[j]) - rr[j] @ ll[i]
        return _flatten(lhs - rhs)

    def eq_4_4(i, j):
        lhs = at(rr, tl[i][j])
        rhs = rl[j] @ rr[i] + ll[i] @ rr[j] + comm(ll[i], rl[j])
        return _flatten(lhs - rhs)

    def eq_4_5(i, j):
        lhs = comm(lr[i], rl[j])
        rhs = at(rl, bullet(i, j)) - rl[j] @ rl[i]
        return _flatten(lhs - rhs)

    return _run(
        [
            ("eq-4.1", 2, eq_4_1),
            ("eq-4.2", 2, eq_4_2),
            ("eq-4.3", 2, eq_4_3),
            ("eq-4.4", 2, eq_4_4),
            ("eq-4.5", 2, eq_4_5),
        ],
        n,
    )


def check_o_prelie(T: LinearMap, m: PreLieModule) -> CheckReport:
    """T(u) o T(v) = T(l(T(u))v + r(T(v))u)  over all module basis pairs."""
    _require_shape(T, m.base.dim, m.vdim, "O-operator")
    circ = m.base.op("circ")

    def eq_2_10(u, v):
        tu, tv = T.column(u), T.column(v)
        lhs = table_apply(circ, tu, tv)
        arg = vec_add(family_contract(m.l, tu).column(v), family_contract(m.r, tv).column(u))
        return vec_sub(lhs, T.apply(arg))

    return _run([("eq-2.10", 2, eq_2_10)], m.vdim)


def check_rota_baxter_prelie(R: LinearMap, alg: Algebra) -> CheckReport:
    """Weight-zero Rota-Baxter identity R(x) o R(y) = R(R(x) o y + x o R(y))."""
    _require_shape(R, alg.dim, alg.dim, "Rota-Baxter operator")
    circ = alg.op("circ")
    n = alg.dim

    def eq_2_11(i, j):
        rx, ry = R.column(i), R.column(j)
        lhs = table_apply(circ, rx, ry)
        arg = vec_add(
            table_apply(circ, rx, basis_vector(n, j)),
            table_apply(circ, basis_vector(n, i), ry),
        )
        return vec_sub(lhs, R.apply(arg))

    return _run([("eq-2.11", 2, eq_2_11)], n)


def enumerate_rb(alg: Algebra, entry_set) -> list[LinearMap]:
    """``search_rb`` as a plain enumeration in row-major lexicographic order:
    one Rota-Baxter check per candidate."""
    n = alg.dim
    values = sorted({rat(x) for x in entry_set})
    found = []
    for flat in itertools.product(values, repeat=n * n):
        R = LinearMap(n, n, tuple(flat[i * n:(i + 1) * n] for i in range(n)))
        if check_rota_baxter_prelie(R, alg).passed:
            found.append(R)
    return found


def check_o_lie(T: LinearMap, lie: Algebra, rho: Sequence[LinearMap]) -> CheckReport:
    """[T(u), T(v)] = T(rho(T(u))v - rho(T(v))u)  over all basis pairs."""
    vdim = rho[0].rows if rho else 0
    if len(rho) != lie.dim:
        raise DimensionMismatch("representation family must match the Lie dimension")
    _require_shape(T, lie.dim, vdim, "O-operator")
    bracket = lie.op("bracket")

    def eq_3_13(u, v):
        tu, tv = T.column(u), T.column(v)
        lhs = table_apply(bracket, tu, tv)
        arg = vec_sub(family_contract(rho, tu).column(v), family_contract(rho, tv).column(u))
        return vec_sub(lhs, T.apply(arg))

    return _run([("eq-3.13", 2, eq_3_13)], vdim)


def check_o_ldend(T: LinearMap, m: LDendModule) -> CheckReport:
    """Both displayed O-operator identities of an L-dendriform module."""
    _require_shape(T, m.base.dim, m.vdim, "O-operator")
    tr = m.base.op("tri_r")
    tl = m.base.op("tri_l")

    def residual(table, lfam, rfam, u, v):
        tu, tv = T.column(u), T.column(v)
        lhs = table_apply(table, tu, tv)
        arg = vec_add(
            family_contract(lfam, tu).column(v), family_contract(rfam, tv).column(u)
        )
        return vec_sub(lhs, T.apply(arg))

    def eq_4_7_r(u, v):
        return residual(tr, m.l_r, m.r_r, u, v)

    def eq_4_7_l(u, v):
        return residual(tl, m.l_l, m.r_l, u, v)

    return _run([("eq-4.7-tri_r", 2, eq_4_7_r), ("eq-4.7-tri_l", 2, eq_4_7_l)], m.vdim)


def _check_companion_identity(alg: Algebra, B) -> CheckReport:
    """B(x |> y, z) = -B(y, [x, z]) - B(x, z |> y)  over all basis triples."""
    tr = alg.op("tri_r")
    tl = alg.op("tri_l")
    n = alg.dim
    e = lambda m: basis_vector(n, m)

    def bracket_vec(i, k):
        bullet_ik = vec_add(tr[i][k], tl[i][k])
        bullet_ki = vec_add(tr[k][i], tl[k][i])
        return vec_sub(bullet_ik, bullet_ki)

    def eq_4_15(i, j, k):
        lhs = B.evaluate(tr[i][j], e(k))
        rhs = -B.evaluate(e(j), bracket_vec(i, k)) - B.evaluate(e(i), tr[k][j])
        return (lhs - rhs,)

    return _run([("eq-4.15", 3, eq_4_15)], n)


# ---------------------------------------------------------------------------
# the special constructions as they were written out by hand, before the
# package built them through the general O-operator constructions

def ldend_from_2cocycle(alg: Algebra, B, force: bool = False) -> Algebra:
    """Compatible L-dendriform structure from a nondegenerate symmetric
    2-cocycle:  B(x|>y, z) = -B(y, [x,z])  and  B(x<|y, z) = -B(y, z o x).

    With G the Gram matrix and M_a the matrix whose row z is [e_a, e_z]
    (resp. e_z o e_a), the products e_a |> e_b (resp. e_a <| e_b) are the
    columns of -(G^T)^-1 M_a G^T."""
    circ = alg.op("circ")
    n = alg.dim
    if B.dim != n:
        raise DimensionMismatch("form dimension does not match the algebra")
    if not B.is_symmetric and not force:
        raise PreconditionFailed("the 2-cocycle must be symmetric")
    gram_t = LinearMap(n, n, B.gram).transpose()
    inv = gram_t.try_inverse()
    if inv is None:
        raise PreconditionFailed("the 2-cocycle must be nondegenerate")
    _gate(check_prelie_cocycle(alg, B), force, "2-cocycle candidate")
    solver = -inv

    def products(rows):
        return tuple((solver @ LinearMap(n, n, m) @ gram_t).transpose().entries for m in rows)

    ops = {"tri_r": products(derive({"circ": circ}, SUB_ADJACENT)),
           "tri_l": products(tuple(zip(*circ)))}
    return Algebra(n, ops, "ldend_from_2cocycle")


def _dual_prelie_modules(alg: Algebra) -> tuple[PreLieModule, PreLieModule]:
    """The duals of the pre-Lie modules (L_r, -L_l) over the vertical and
    (L_r, R_l) over the horizontal algebra of an L-dendriform algebra."""
    n = alg.dim
    lr = left_family(alg, "tri_r")
    ll = left_family(alg, "tri_l")
    rl = right_family(alg, "tri_l")
    vert = vertical_prelie(alg)
    hor = rename_ops(horizontal_prelie(alg), {"bullet": "circ"})
    return (
        dual_prelie_module(PreLieModule(vert, n, lr, tuple(-m for m in ll))),
        dual_prelie_module(PreLieModule(hor, n, lr, rl)),
    )


def canonical_double_solution(alg: Algebra):
    """For an L-dendriform algebra of dimension n, both 2n-dimensional
    semidirect pre-Lie algebras (vertical and horizontal, each with its dual
    regular-action module) in which the canonical symmetric tensor
    sum_i (e_i (x) e_i* + e_i* (x) e_i)  solves the S-equation."""
    n = alg.dim
    hat_vert, hat_hor = map(semidirect_prelie, _dual_prelie_modules(alg))
    r = tensor2(
        2 * n,
        [(i + 1, n + i + 1, 1) for i in range(n)]
        + [(n + i + 1, i + 1, 1) for i in range(n)],
    )
    return hat_vert, hat_hor, r


# ---------------------------------------------------------------------------
# the equivalence reports as they were built through module values: the
# regular modules as matrix families, their duals rho* = -rho^T written out
# with LinearMap arithmetic, and each O-operator condition checked by the
# Fraction references above.  The S-report's alternate form is naive_tensor's
# term expansion; the other residual fields come from the package, whose own
# oracle is naive_tensor.

def _transposed(*terms) -> tuple[LinearMap, ...]:
    """e_a -> (sum of sign * family[a])^T over (sign, family) ``terms``."""
    out = []
    for mats in zip(*(family for _, family in terms)):
        total = None
        for (sign, _), m in zip(terms, mats):
            m = m if sign > 0 else -m
            total = m if total is None else total + m
        out.append(total.transpose())
    return tuple(out)


def _dual_prelie(m: PreLieModule) -> PreLieModule:
    """((r - l)^T, r^T, V*)."""
    return PreLieModule(m.base, m.vdim, _transposed((1, m.r), (-1, m.l)), _transposed((1, m.r)))


def s_equivalence_check(alg: Algebra, r: Tensor2) -> SEquivalenceReport:
    if not r.is_symmetric:
        raise PreconditionFailed("the S-equation equivalence needs a symmetric tensor")
    _check_dims(alg, r)
    dual = _dual_prelie(PreLieModule(alg, alg.dim, left_family(alg, "circ"),
                                     right_family(alg, "circ")))
    return SEquivalenceReport(
        residual=s_residual(alg, r),
        alternate=tensor3_from_entries(naive_s_alternate(alg.op("circ"), r.entries)),
        operator=check_o_prelie(tensor_to_map(r), dual),
    )


def ld_equivalence_check(alg: Algebra, r: Tensor2) -> LDEquivalenceReport:
    if not r.is_skew:
        raise PreconditionFailed("the LD-equation equivalence needs a skew tensor")
    _check_dims(alg, r)
    T = tensor_to_map(r)
    n = alg.dim
    l_r, r_r = left_family(alg, "tri_r"), right_family(alg, "tri_r")
    l_l, r_l = left_family(alg, "tri_l"), right_family(alg, "tri_l")
    dual = LDendModule(
        alg, n,
        _transposed((1, r_r), (1, r_l), (-1, l_r), (-1, l_l)),
        _transposed((-1, r_r)),
        _transposed((1, l_l), (-1, r_r)),
        _transposed((1, r_r), (1, r_l)),
    )
    vert = PreLieModule(vertical_prelie(alg), n, l_r, tuple(-m for m in l_l))
    hor = PreLieModule(rename_ops(horizontal_prelie(alg), {"bullet": "circ"}), n, l_r, r_l)
    return LDEquivalenceReport(
        residual=ld_residual(alg, r, "eq-4.8"),
        operator_ldend=check_o_ldend(T, dual),
        operator_vertical=check_o_prelie(T, _dual_prelie(vert)),
        operator_horizontal=check_o_prelie(T, _dual_prelie(hor)),
        aux_a=ld_residual(alg, r, "eq-4.9"),
        aux_b=ld_residual(alg, r, "eq-4.10"),
    )
