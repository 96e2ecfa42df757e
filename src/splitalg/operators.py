"""Rota-Baxter operators and O-operators, and every structure they induce.

Constructors enforce their preconditions and refuse to emit unverified
tables, since the constructions are only guaranteed valid under their
hypotheses; pass ``force=True`` to experiment anyway.
"""

from __future__ import annotations

import itertools
from operator import mul
from typing import Sequence

from .axioms import CheckReport, _run
from .core import (
    Algebra,
    DimensionMismatch,
    LinearMap,
    PreconditionFailed,
    Table,
    clear_denominators,
    derive,
    field_width,
    max_abs,
    pack,
    rat,
    table_apply,
    unpack,
)
from .functors import SUB_ADJACENT, _tag
from .representations import LDendModule, PreLieModule, left_family

__all__ = [
    "SearchSpaceTooLarge",
    "adjoint_family",
    "check_o_prelie",
    "check_rota_baxter_prelie",
    "check_o_lie",
    "check_o_ldend",
    "ldend_from_o_prelie",
    "ldend_from_rb",
    "prelie_from_o_lie",
    "ldend_from_commuting_pair",
    "compatible_ldend_from_invertible_o",
    "ldend_from_2cocycle",
    "search_rb",
]


class SearchSpaceTooLarge(ValueError):
    """An exhaustive search was asked to enumerate more candidates than its cap."""


def adjoint_family(lie: Algebra) -> tuple[LinearMap, ...]:
    """ad(e_i) matrices of a bracket table: ad(x)y = [x, y]."""
    return left_family(lie, "bracket")


def _require_shape(T: LinearMap, rows: int, cols: int, what: str):
    if T.rows != rows or T.cols != cols:
        raise DimensionMismatch(f"{what}: expected a {rows}x{cols} map, got {T.rows}x{T.cols}")


# ---------------------------------------------------------------------------
# operator checks

def _columns(family):
    """images[i][v] = family[i] applied to the v-th basis vector."""
    return [tuple(zip(*m)) for m in family]


def _packed_base(table, vdim: int, big: int):
    """The packed field width for the O-operator residuals of a module of
    dimension vdim over the product ``table``, all inputs bounded by big,
    and that product packed by columns: by_b[b][a] = e_a . e_b."""
    n = len(table)
    bits = field_width((n * n + 2 * n * vdim) * big ** 3)
    return bits, tuple(zip(*[[pack(vec, bits) for vec in plane] for plane in table]))


def _o_packed(T, by_b, l_images, r_images, r_sign: int, bits: int):
    """Packed int residual of  T(u).T(v) - T(l(T(u))v + r_sign * r(T(v))u)
    over module basis pairs (u, v), of degree 3 in its inputs.

    T holds int rows (base x module), ``by_b`` is the packed base product
    (see :func:`_packed_base`), and ``l_images[a][v]`` / ``r_images[a][v]``
    are l(e_a) / r(e_a) applied to the v-th module basis vector.  Every
    product that does not depend on both u and v is formed once.
    """
    images = tuple(zip(*T))                     # images[u] = T(f_u), a base vector
    packed_t = [pack(col, bits) for col in images]

    def t_of(vec):                              # T(vec), packed
        return sum(map(mul, vec, packed_t))

    # l_by_v[v][a] = T(l(e_a) f_v),  r_by_u[u][a] = T(r(e_a) f_u)
    l_by_v = tuple(zip(*[[t_of(img) for img in row] for row in l_images]))
    r_by_u = tuple(zip(*[[t_of(img) for img in row] for row in r_images]))
    # left_of[u][b] = T(f_u) . e_b,  l_term[u][v] = T(l(T(f_u)) f_v)
    left_of = [[sum(map(mul, tu, col)) for col in by_b] for tu in images]
    l_term = [[sum(map(mul, tu, col)) for col in l_by_v] for tu in images]

    def residual(u, v):
        tv = images[v]
        return sum(map(mul, tv, left_of[u])) - l_term[u][v] - r_sign * sum(map(mul, tv, r_by_u[u]))

    return residual


def _o_identity(T, table, l_images, r_images, r_sign: int):
    """The residual function of :func:`_o_packed` for :func:`axioms._run`:
    the unpacked base vector, empty where the identity holds."""
    n = len(T)
    big = max(max_abs(T), max_abs(table), max_abs(l_images), max_abs(r_images))
    bits, by_b = _packed_base(table, len(T[0]), big)
    packed = _o_packed(T, by_b, l_images, r_images, r_sign, bits)

    def residual(u, v):
        p = packed(u, v)
        return unpack(p, n, bits) if p else ()

    return residual


def check_o_prelie(T: LinearMap, m: PreLieModule) -> CheckReport:
    """T(u) o T(v) = T(l(T(u))v + r(T(v))u)  over all module basis pairs."""
    _require_shape(T, m.base.dim, m.vdim, "O-operator")
    d, (t, circ, l, r) = clear_denominators(T, m.base.op("circ"), m.l, m.r)
    fn = _o_identity(t, circ, _columns(l), _columns(r), 1)
    return _run([("eq-2.10", 2, 3, fn)], m.vdim, d)


def check_rota_baxter_prelie(R: LinearMap, alg: Algebra) -> CheckReport:
    """Weight-zero Rota-Baxter identity R(x) o R(y) = R(R(x) o y + x o R(y))."""
    _require_shape(R, alg.dim, alg.dim, "Rota-Baxter operator")
    d, (r, circ) = clear_denominators(R, alg.op("circ"))
    # the regular module: l(e_a) e_v = e_a o e_v,  r(e_a) e_u = e_u o e_a
    fn = _o_identity(r, circ, circ, tuple(zip(*circ)), 1)
    return _run([("eq-2.11", 2, 3, fn)], alg.dim, d)


def check_o_lie(T: LinearMap, lie: Algebra, rho: Sequence[LinearMap]) -> CheckReport:
    """[T(u), T(v)] = T(rho(T(u))v - rho(T(v))u)  over all basis pairs."""
    vdim = rho[0].rows if rho else 0
    if len(rho) != lie.dim:
        raise DimensionMismatch("representation family must match the Lie dimension")
    _require_shape(T, lie.dim, vdim, "O-operator")
    d, (t, bracket, rho_int) = clear_denominators(T, lie.op("bracket"), rho)
    images = _columns(rho_int)
    return _run([("eq-3.13", 2, 3, _o_identity(t, bracket, images, images, -1))], vdim, d)


def check_o_ldend(T: LinearMap, m: LDendModule) -> CheckReport:
    """Both displayed O-operator identities of an L-dendriform module."""
    _require_shape(T, m.base.dim, m.vdim, "O-operator")
    d, (t, tr, tl, lr, rr, ll, rl) = clear_denominators(
        T, m.base.op("tri_r"), m.base.op("tri_l"), m.l_r, m.r_r, m.l_l, m.r_l
    )
    return _run(
        [
            ("eq-4.7-tri_r", 2, 3, _o_identity(t, tr, _columns(lr), _columns(rr), 1)),
            ("eq-4.7-tri_l", 2, 3, _o_identity(t, tl, _columns(ll), _columns(rl), 1)),
        ],
        m.vdim,
        d,
    )


# ---------------------------------------------------------------------------
# induced structures

def _gate(report: CheckReport, force: bool, what: str):
    if not report.passed and not force:
        first = report.failures[0]
        raise PreconditionFailed(
            f"{what} fails {first.identity} at {first.indices}: "
            f"residual {[str(x) for x in first.residual]}"
        )


def _image_table(table: Table, left: LinearMap, right: LinearMap, out=None) -> Table:
    """The product (x, y) -> left(x) * right(y) under ``table``, followed by
    ``out`` when given."""
    products = (
        (table_apply(table, left.column(i), right.column(j)) for j in range(right.cols))
        for i in range(left.cols)
    )
    if out is None:
        return tuple(map(tuple, products))
    return tuple(tuple(map(out.apply, row)) for row in products)


def _o_structure(T: LinearMap, l_acts: Table, r_acts: Table, t_inv=None) -> dict:
    """u |> v = l(T(u))v,  u <| v = -r(T(u))v  on V, from the action tables
    l_acts[a][w] = l(e_a)f_w and r_acts of a module.  Given T^-1, the same
    structure carried to A along T:  x |> y = T(l(x) T^-1 y),  x <| y =
    -T(r(x) T^-1 y)."""
    if t_inv is None:
        maps = (T, LinearMap.identity(T.cols))
    else:
        maps = (LinearMap.identity(T.rows), t_inv, T)
    tables = {"l": _image_table(l_acts, *maps), "r": _image_table(r_acts, *maps)}
    return {"tri_r": tables["l"], "tri_l": derive(tables, ((-1, "r", False),))}


def _actions(family: Sequence[LinearMap]) -> Table:
    """The action table of a matrix family: [a][w] = family[a] f_w."""
    return tuple(_columns(m.entries for m in family))


def ldend_from_o_prelie(
    T: LinearMap, m: PreLieModule, force: bool = False
) -> tuple[Algebra, Algebra | None]:
    """L-dendriform structure  u |> v = l(T(u))v,  u <| v = -r(T(u))v  on V.

    Returns the V-structure and, when T has full column rank, the induced
    structure on the image T(V) in the basis (T(v_1), ..., T(v_m)), whose
    tables coincide with the V-structure because T intertwines the products.
    """
    _gate(check_o_prelie(T, m), force, "O-operator candidate")
    ops = _o_structure(T, _actions(m.l), _actions(m.r))
    on_v = Algebra(m.vdim, ops, "ldend_from_o_prelie")
    on_image = None
    if T.rank() == m.vdim:
        on_image = Algebra(m.vdim, ops, "ldend_from_o_prelie[image]")
    return on_v, on_image


def ldend_from_rb(R: LinearMap, alg: Algebra, force: bool = False) -> Algebra:
    """x |> y = R(x) o y,  x <| y = -(y o R(x))  from a Rota-Baxter operator:
    the O-operator structure of the regular module."""
    _gate(check_rota_baxter_prelie(R, alg), force, "Rota-Baxter candidate")
    circ = alg.op("circ")
    return Algebra(alg.dim, _o_structure(R, circ, tuple(zip(*circ))), _tag("ldend_from_rb", alg))


def prelie_from_o_lie(R: LinearMap, lie: Algebra, force: bool = False) -> Algebra:
    """x o y = [R(x), y]  from an O-operator for the adjoint representation."""
    _gate(check_o_lie(R, lie, adjoint_family(lie)), force, "O-operator candidate")
    circ = _image_table(lie.op("bracket"), R, LinearMap.identity(lie.dim))
    return Algebra(lie.dim, {"circ": circ}, _tag("prelie_from_o_lie", lie))


def ldend_from_commuting_pair(
    R1: LinearMap, R2: LinearMap, lie: Algebra, force: bool = False
) -> Algebra:
    """x |> y = [R1(R2(x)), y],  x <| y = [R2(x), R1(y)]  from a commuting
    pair of O-operators for the adjoint representation."""
    ad = adjoint_family(lie)
    _gate(check_o_lie(R1, lie, ad), force, "first O-operator candidate")
    _gate(check_o_lie(R2, lie, ad), force, "second O-operator candidate")
    if R1 @ R2 != R2 @ R1 and not force:
        raise PreconditionFailed("the two operators do not commute")
    bracket = lie.op("bracket")
    tri_r = _image_table(bracket, R1 @ R2, LinearMap.identity(lie.dim))
    tri_l = _image_table(bracket, R2, R1)
    tag = _tag("ldend_from_commuting_pair", lie)
    return Algebra(lie.dim, {"tri_r": tri_r, "tri_l": tri_l}, tag)


def compatible_ldend_from_invertible_o(
    T: LinearMap, m: PreLieModule, force: bool = False
) -> Algebra:
    """Compatible L-dendriform structure on the base of an invertible
    O-operator:  x |> y = T(l(x) T^-1 y),  x <| y = -T(r(x) T^-1 y)."""
    t_inv = T.try_inverse()
    if t_inv is None:
        raise PreconditionFailed("the O-operator must be square and invertible")
    if T.rows != m.base.dim or m.vdim != m.base.dim:
        raise DimensionMismatch("invertible O-operator requires dim V = dim A")
    _gate(check_o_prelie(T, m), force, "O-operator candidate")
    ops = _o_structure(T, _actions(m.l), _actions(m.r), t_inv)
    return Algebra(m.base.dim, ops, "compatible_ldend_from_invertible_o")


def ldend_from_2cocycle(alg: Algebra, B, force: bool = False) -> Algebra:
    """Compatible L-dendriform structure from a nondegenerate symmetric
    2-cocycle:  B(x|>y, z) = -B(y, [x,z])  and  B(x<|y, z) = -B(y, z o x).

    With G the Gram matrix and M_a the matrix whose row z is [e_a, e_z]
    (resp. e_z o e_a), the products e_a |> e_b (resp. e_a <| e_b) are the
    columns of -(G^T)^-1 M_a G^T."""
    from .axioms import check_prelie_cocycle  # local import avoids a cycle

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


# ---------------------------------------------------------------------------
# exhaustive fixture search

def search_rb(alg: Algebra, entry_set: Sequence, cap: int = 10**6) -> list[LinearMap]:
    """All square matrices with entries from ``entry_set`` that satisfy the
    weight-zero Rota-Baxter identity, in lexicographic (row-major) order of
    their entry tuples.  Exists to manufacture verified fixtures; exhaustive
    by design."""
    n = alg.dim
    values = sorted({rat(x) for x in entry_set})
    total = len(values) ** (n * n)
    if total > cap:
        raise SearchSpaceTooLarge(f"{total} candidates exceed the cap of {cap}")
    # The identity is homogeneous in R and in the table, so pass/fail does not
    # depend on the common denominator: scale and pack once per search.
    _, (circ, ints) = clear_denominators(alg.op("circ"), values)
    bits, by_b = _packed_base(circ, n, max(max_abs(circ), max_abs(ints)))
    r_images = tuple(zip(*circ))               # the regular module, as in the check
    pairs = tuple(itertools.product(range(n), repeat=2))
    exact = dict(zip(ints, values))
    found = []
    for flat in itertools.product(ints, repeat=n * n):
        rows = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        residual = _o_packed(rows, by_b, circ, r_images, 1, bits)
        if not any(residual(u, v) for u, v in pairs):
            found.append(LinearMap(n, n, tuple(tuple(map(exact.__getitem__, row)) for row in rows)))
    return found
