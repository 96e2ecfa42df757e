"""Rota-Baxter operators and O-operators, and every structure they induce.

Constructors enforce their preconditions and refuse to emit unverified
tables, since the constructions are only guaranteed valid under their
hypotheses; pass ``force=True`` to experiment anyway.
"""

from __future__ import annotations

import itertools
from operator import mul
from typing import Sequence

from .axioms import CheckReport, _run, check_prelie_cocycle
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
from .functors import _tag
from .representations import (
    _DUAL_PRELIE,
    LDendModule,
    PreLieModule,
    _actions,
    _check_family,
    _dual_actions,
    _module_ints,
    left_family,
)

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

def _packed_base(table, vdim: int, big: int):
    """The packed field width for the O-operator residuals of a module of
    dimension vdim over the product ``table``, all inputs bounded by big,
    and that product packed by columns: by_b[b][a] = e_a . e_b."""
    n = len(table)
    bits = field_width((n * n + 2 * n * vdim) * big ** 3)
    return bits, tuple(zip(*[[pack(vec, bits) for vec in plane] for plane in table]))


def _o_packed(T, by_b, l_images, r_images, bits: int):
    """Packed int residual of  T(u).T(v) - T(l(T(u))v + r(T(v))u)
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
        return sum(map(mul, tv, left_of[u])) - l_term[u][v] - sum(map(mul, tv, r_by_u[u]))

    return residual


def _check_o(scaled_map, rows, vdim: int, d: int) -> CheckReport:
    """The O-operator identities of a map given as (d_t, d_t * its rows), one
    per (id, base table, l action table, r action table) row of int tables
    scaled by d: the :func:`_o_packed` residuals, one :func:`_run` line per
    u with its nonzero residuals unpacked.  Every term is
    quadratic in the map and linear in a table, so each is divided by d_t**2 * d."""
    d_t, t = scaled_map
    n = len(t)

    def line_fn(table, l_images, r_images):
        bits, by_b = _packed_base(table, vdim, max(map(max_abs, (t, table, l_images, r_images))))
        packed = _o_packed(t, by_b, l_images, r_images, bits)
        return lambda u: [(v, unpack(p, n, bits)) for v in range(vdim) if (p := packed(u, v))]

    return _run([(ident, 2, d_t ** 2 * d, line_fn(*grids)) for ident, *grids in rows], vdim)


#: the regular module's right action r(e_a) e_u = e_u o e_a; its left one is circ
_FLIPPED_CIRC = ((1, "circ", True),)


def check_o_prelie(T: LinearMap, m: PreLieModule) -> CheckReport:
    """T(u) o T(v) = T(l(T(u))v + r(T(v))u)  over all module basis pairs."""
    _require_shape(T, m.base.dim, m.vdim, "O-operator")
    return _check_o(clear_denominators(T.entries), *m._o_rows)


def check_rota_baxter_prelie(R: LinearMap, alg: Algebra) -> CheckReport:
    """Weight-zero Rota-Baxter identity R(x) o R(y) = R(R(x) o y + x o R(y))."""
    _require_shape(R, alg.dim, alg.dim, "Rota-Baxter operator")
    d_a, (circ, flip) = alg.scaled("circ", _FLIPPED_CIRC)
    return _check_o(clear_denominators(R.entries), [("eq-2.11", circ, circ, flip)], alg.dim, d_a)


def check_o_lie(T: LinearMap, lie: Algebra, rho: Sequence[LinearMap]) -> CheckReport:
    """[T(u), T(v)] = T(rho(T(u))v - rho(T(v))u)  over all basis pairs."""
    vdim = rho[0].rows if rho else 0
    if len(rho) != lie.dim:
        raise DimensionMismatch("representation family must match the Lie dimension")
    _check_family(rho, lie.dim, vdim, "rho")
    _require_shape(T, lie.dim, vdim, "O-operator")
    d, (bracket,), (acts,) = _module_ints(lie, ("bracket",), (rho,))
    rows = [("eq-3.13", bracket, acts, derive({"rho": acts}, ((-1, "rho", False),)))]
    return _check_o(clear_denominators(T.entries), rows, vdim, d)


def check_o_ldend(T: LinearMap, m: LDendModule) -> CheckReport:
    """Both displayed O-operator identities of an L-dendriform module."""
    _require_shape(T, m.base.dim, m.vdim, "O-operator")
    return _check_o(clear_denominators(T.entries), *m._o_rows)


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

    With G the Gram matrix, T = (G^T)^-1 is an invertible O-operator of the
    dual regular module (l*, r*), and this is its compatible structure:
    x |> y = T(l*(x) G^T y),  x <| y = -T(r*(x) G^T y)."""
    circ = alg.op("circ")
    l_star, r_star = _dual_actions({"l": circ, "r": tuple(zip(*circ))}, _DUAL_PRELIE)
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
    ops = _o_structure(inv, l_star, r_star, gram_t)
    return Algebra(n, ops, "ldend_from_2cocycle")


# ---------------------------------------------------------------------------
# exhaustive fixture search

def _hook_order(n: int) -> list[tuple[int, int]]:
    """The entries (row, column) of an n x n map in the order the search
    assigns them: column 0, the rest of row 0, the rest of column 1, the rest
    of row 1, and so on, so that columns and rows complete early."""
    order = []
    for t in range(n):
        order += [(i, t) for i in range(t, n)]
        order += [(t, j) for j in range(t + 1, n)]
    return order


def _rb_schedule(order, n: int, bits: int, prune: bool) -> tuple[int, list[tuple]]:
    """An offset, and for each position of ``order`` the residual components
    checked there, as (u, v, mask, zero) rows: the packed residual p at
    (u, v) has those components all zero exactly when (p + offset) & mask ==
    zero.  The offset lifts every field of p to a nonnegative value, so no
    field borrows from the next.

    Component k at (u, v) reads columns u and v and row k of the map, so it
    is checked at the position completing the last of those three.  Without
    ``prune`` every component waits for the last position: with one
    candidate per entry there is nothing to cut, and one evaluation decides
    the map."""
    last = len(order) - 1
    col_done = {j: pos for pos, (_, j) in enumerate(order)}
    row_done = {i: pos for pos, (i, _) in enumerate(order)}
    field = (1 << bits) - 1
    buckets = [{} for _ in order]       # [pos][u, v]: mask of the components checked at pos
    for u, v, k in itertools.product(range(n), repeat=3):
        pos = max(col_done[u], col_done[v], row_done[k]) if prune else last
        buckets[pos][u, v] = buckets[pos].get((u, v), 0) | field << k * bits
    offset = sum((1 << (bits - 1)) << k * bits for k in range(n))
    return offset, [tuple((u, v, mask, offset & mask) for (u, v), mask in bucket.items())
                    for bucket in buckets]


def search_rb(alg: Algebra, entry_set: Sequence, cap: int = 10**6) -> list[LinearMap]:
    """All square matrices with entries from ``entry_set`` that satisfy the
    weight-zero Rota-Baxter identity, in lexicographic (row-major) order of
    their entry tuples.  Exists to manufacture verified fixtures; exhaustive
    by design, with the cap counting every candidate.

    Every candidate is decided, but not one at a time: the search fills the
    map entry by entry and drops a partial map, with every completion of it,
    as soon as a residual component that its assigned entries fully determine
    is nonzero.  Component k at (u, v) reads columns u and v and row k of the
    map, so it is checked once, where the last of those three is completed
    (or, with one value per entry, at the last entry), and a complete map has
    every component checked exactly once."""
    n = alg.dim
    values = sorted({rat(x) for x in entry_set})
    total = len(values) ** (n * n)
    if total > cap:
        raise SearchSpaceTooLarge(f"{total} candidates exceed the cap of {cap}")
    # The identity is homogeneous in R and in the table, so pass/fail does not
    # depend on their scales: the int form's table, the values scaled once.
    _, (circ, r_images) = alg.scaled("circ", _FLIPPED_CIRC)     # the regular module
    _, ints = clear_denominators(values)
    bits, by_b = _packed_base(circ, n, max(alg.entry_bound("circ"), max_abs(ints)))
    order = _hook_order(n)
    offset, schedule = _rb_schedule(order, n, bits, len(ints) > 1)
    # unassigned entries keep stale values from ints: in range of the packing,
    # and read by no decided component
    grid = [[0] * n for _ in range(n)]
    last = len(order) - 1
    found = []
    stack = [iter(ints)]                        # stack[d]: the untried values at order[d]
    while stack:
        depth = len(stack) - 1
        i, j = order[depth]
        checks = schedule[depth]
        for x in stack[-1]:
            grid[i][j] = x
            if checks:
                residual = _o_packed(grid, by_b, circ, r_images, bits)
                if any((residual(u, v) + offset) & mask != zero for u, v, mask, zero in checks):
                    continue
            if depth < last:
                stack.append(iter(ints))
                break
            found.append(tuple(map(tuple, grid)))
        else:
            stack.pop()
    found.sort()        # ints are the values scaled by d > 0, so int order is rational order
    exact = dict(zip(ints, values))
    return [LinearMap(n, n, tuple(tuple(map(exact.__getitem__, row)) for row in rows))
            for rows in found]
