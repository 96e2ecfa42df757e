"""Modules over pre-Lie and L-dendriform algebras, duals, semidirect sums.

A module is stored extensionally as matrix families indexed by the base
algebra's basis, so linearity in the algebra argument is automatic and all
module identities reduce to exact matrix equalities over basis pairs.

Semidirect sums place base coordinates first and module coordinates second,
which fixes the block layout in file output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .axioms import CheckReport, _run
from .core import (
    Algebra,
    DimensionMismatch,
    LinearMap,
    Table,
    clear_denominators,
    dual_rep,
)

__all__ = [
    "PreLieModule",
    "LDendModule",
    "left_family",
    "right_family",
    "regular_prelie_module",
    "regular_ldend_module",
    "check_prelie_module",
    "dual_prelie_module",
    "semidirect_prelie",
    "check_ldend_module",
    "dual_ldend_module",
    "semidirect_ldend",
]


def _check_family(family: Sequence[LinearMap], base_dim: int, vdim: int, name: str):
    if len(family) != base_dim:
        raise DimensionMismatch(f"family {name!r} must have one matrix per basis element")
    for m in family:
        if m.rows != vdim or m.cols != vdim:
            raise DimensionMismatch(f"family {name!r} matrices must be {vdim}x{vdim}")


@dataclass(frozen=True)
class PreLieModule:
    """Module data (l, r, V) over a pre-Lie algebra carried as op ``circ``."""

    base: Algebra
    vdim: int
    l: tuple[LinearMap, ...]
    r: tuple[LinearMap, ...]

    def __post_init__(self):
        self.base.op("circ")
        _check_family(self.l, self.base.dim, self.vdim, "l")
        _check_family(self.r, self.base.dim, self.vdim, "r")


@dataclass(frozen=True)
class LDendModule:
    """Module data (l_r, r_r, l_l, r_l, V) over an L-dendriform algebra."""

    base: Algebra
    vdim: int
    l_r: tuple[LinearMap, ...]
    r_r: tuple[LinearMap, ...]
    l_l: tuple[LinearMap, ...]
    r_l: tuple[LinearMap, ...]

    def __post_init__(self):
        self.base.op("tri_r")
        self.base.op("tri_l")
        for name in ("l_r", "r_r", "l_l", "r_l"):
            _check_family(getattr(self, name), self.base.dim, self.vdim, name)


def left_family(alg: Algebra, op: str) -> tuple[LinearMap, ...]:
    """Left multiplication operators L(e_i) of the named operation."""
    table = alg.op(op)
    n = alg.dim
    return tuple(
        LinearMap(n, n, tuple(tuple(table[i][j][k] for j in range(n)) for k in range(n)))
        for i in range(n)
    )


def right_family(alg: Algebra, op: str) -> tuple[LinearMap, ...]:
    """Right multiplication operators R(e_i):  R(e_i) e_j = e_j * e_i."""
    table = alg.op(op)
    n = alg.dim
    return tuple(
        LinearMap(n, n, tuple(tuple(table[j][i][k] for j in range(n)) for k in range(n)))
        for i in range(n)
    )


def _neg_family(family: Sequence[LinearMap]) -> tuple[LinearMap, ...]:
    return tuple(-m for m in family)


def regular_prelie_module(alg: Algebra) -> PreLieModule:
    """The regular module (L, R, A) of a pre-Lie algebra."""
    return PreLieModule(alg, alg.dim, left_family(alg, "circ"), right_family(alg, "circ"))


def regular_ldend_module(alg: Algebra) -> LDendModule:
    """The regular module (L_r, R_r, L_l, R_l, A) of an L-dendriform algebra."""
    return LDendModule(
        alg,
        alg.dim,
        left_family(alg, "tri_r"),
        right_family(alg, "tri_r"),
        left_family(alg, "tri_l"),
        right_family(alg, "tri_l"),
    )


# ---------------------------------------------------------------------------
# pre-Lie modules

def _mat_mul(a, b) -> list[int]:
    """Product of two int matrices (row tuples), flattened row-major."""
    cols = tuple(zip(*b))
    return [sum(map(mul, row, col)) for row in a for col in cols]


def _contractor(family):
    """x -> sum_i x_i family[i] for a family of int matrices, flattened
    row-major."""
    entries = tuple(zip(*(tuple(x for row in m for x in row) for m in family)))
    return lambda coeffs: [sum(map(mul, coeffs, e)) for e in entries]


def _difference(plus, minus) -> list[int]:
    """Entrywise sum of the ``plus`` lists minus the sum of the ``minus`` lists."""
    return [sum(p) - sum(q) for p, q in zip(zip(*plus), zip(*minus))]


def check_prelie_module(m: PreLieModule) -> CheckReport:
    """Both module identities over all basis pairs, as matrix equalities.

    Residuals are the matrix difference of the two sides, flattened row-major.
    """
    d, (circ, l, r) = clear_denominators(m.base.op("circ"), m.l, m.r)
    at_l, at_r = _contractor(l), _contractor(r)

    def eq_2_5(i, j):
        # l(x)l(y) - l(x.y) - l(y)l(x) + l(y.x)
        return _difference(
            (_mat_mul(l[i], l[j]), at_l(circ[j][i])),
            (at_l(circ[i][j]), _mat_mul(l[j], l[i])),
        )

    def eq_2_6(i, j):
        # l(x)r(y) - r(y)l(x) - r(x.y) + r(y)r(x)
        return _difference(
            (_mat_mul(l[i], r[j]), _mat_mul(r[j], r[i])),
            (_mat_mul(r[j], l[i]), at_r(circ[i][j])),
        )

    return _run([("eq-2.5", 2, 2, eq_2_5), ("eq-2.6", 2, 2, eq_2_6)], m.base.dim, d)


def dual_prelie_module(m: PreLieModule) -> PreLieModule:
    """The dual module (l* - r*, -r*, V*)."""
    l_star = dual_rep(m.l)
    r_star = dual_rep(m.r)
    new_l = tuple(a - b for a, b in zip(l_star, r_star))
    new_r = _neg_family(r_star)
    return PreLieModule(m.base, m.vdim, new_l, new_r)


def semidirect_prelie(m: PreLieModule) -> Algebra:
    """Pre-Lie structure on A + V:  (x+u)(y+v) = x o y + l(x)v + r(y)u.

    Base coordinates come first, module coordinates second; V.V = 0.
    """
    n, v = m.base.dim, m.vdim
    dim = n + v
    circ = m.base.op("circ")
    dense = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                dense[i][j][k] = circ[i][j][k]
        for j in range(v):
            col = m.l[i].column(j)          # e_i . f_j
            for k in range(v):
                dense[i][n + j][n + k] = col[k]
    for i in range(v):
        for j in range(n):
            col = m.r[j].column(i)          # f_i . e_j
            for k in range(v):
                dense[n + i][j][n + k] = col[k]
    table = tuple(tuple(tuple(row) for row in plane) for plane in dense)
    tag = m.base.class_tag
    return Algebra(dim, {"circ": table}, f"semidirect_prelie({tag})" if tag else "semidirect_prelie")


# ---------------------------------------------------------------------------
# L-dendriform modules

def check_ldend_module(m: LDendModule) -> CheckReport:
    """The five module identities over all basis pairs, with the vertical,
    horizontal and bracket products recomputed from the base tables."""
    d, (tr, tl, lr, rr, ll, rl) = clear_denominators(
        m.base.op("tri_r"), m.base.op("tri_l"), m.l_r, m.r_r, m.l_l, m.r_l
    )
    at_lr, at_rr, at_ll, at_rl = map(_contractor, (lr, rr, ll, rl))

    def bullet(i, j):
        return [a + b for a, b in zip(tr[i][j], tl[i][j])]

    def eq_4_1(i, j):
        # [l_r(x), l_r(y)] - l_r([x, y])
        bracket = [a - b for a, b in zip(bullet(i, j), bullet(j, i))]
        return _difference((_mat_mul(lr[i], lr[j]),), (_mat_mul(lr[j], lr[i]), at_lr(bracket)))

    def eq_4_2(i, j):
        # [l_r(x), l_l(y)] - l_l(x o y) - l_l(y)l_l(x)
        circ = [a - b for a, b in zip(tr[i][j], tl[j][i])]
        return _difference(
            (_mat_mul(lr[i], ll[j]),),
            (_mat_mul(ll[j], lr[i]), at_ll(circ), _mat_mul(ll[j], ll[i])),
        )

    def eq_4_3(i, j):
        # r_r(x |> y) - r_r(y)r_r(x) - r_r(y)r_l(x) - [l_r(x), r_r(y)] + r_r(y)l_l(x)
        return _difference(
            (at_rr(tr[i][j]), _mat_mul(rr[j], lr[i]), _mat_mul(rr[j], ll[i])),
            (_mat_mul(rr[j], rr[i]), _mat_mul(rr[j], rl[i]), _mat_mul(lr[i], rr[j])),
        )

    def eq_4_4(i, j):
        # r_r(x <| y) - r_l(y)r_r(x) - l_l(x)r_r(y) - [l_l(x), r_l(y)]
        return _difference(
            (at_rr(tl[i][j]), _mat_mul(rl[j], ll[i])),
            (_mat_mul(rl[j], rr[i]), _mat_mul(ll[i], rr[j]), _mat_mul(ll[i], rl[j])),
        )

    def eq_4_5(i, j):
        # [l_r(x), r_l(y)] - r_l(x * y) + r_l(y)r_l(x)
        return _difference(
            (_mat_mul(lr[i], rl[j]), _mat_mul(rl[j], rl[i])),
            (_mat_mul(rl[j], lr[i]), at_rl(bullet(i, j))),
        )

    return _run(
        [
            ("eq-4.1", 2, 2, eq_4_1),
            ("eq-4.2", 2, 2, eq_4_2),
            ("eq-4.3", 2, 2, eq_4_3),
            ("eq-4.4", 2, 2, eq_4_4),
            ("eq-4.5", 2, 2, eq_4_5),
        ],
        m.base.dim,
        d,
    )


def dual_ldend_module(m: LDendModule) -> LDendModule:
    """The dual module (l_r* + l_l* - r_r* - r_l*,  r_r*,  r_r* - l_l*,
    -(r_r* + r_l*),  V*)."""
    lr_s = dual_rep(m.l_r)
    rr_s = dual_rep(m.r_r)
    ll_s = dual_rep(m.l_l)
    rl_s = dual_rep(m.r_l)
    new_lr = tuple(a + b - c - d for a, b, c, d in zip(lr_s, ll_s, rr_s, rl_s))
    new_rr = rr_s
    new_ll = tuple(a - b for a, b in zip(rr_s, ll_s))
    new_rl = tuple(-(a + b) for a, b in zip(rr_s, rl_s))
    return LDendModule(m.base, m.vdim, new_lr, new_rr, new_ll, new_rl)


def semidirect_ldend(m: LDendModule) -> Algebra:
    """L-dendriform structure on A + V from the four action families."""
    n, v = m.base.dim, m.vdim
    dim = n + v

    def block(table: Table, lfam, rfam) -> Table:
        dense = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    dense[i][j][k] = table[i][j][k]
            for j in range(v):
                col = lfam[i].column(j)
                for k in range(v):
                    dense[i][n + j][n + k] = col[k]
        for i in range(v):
            for j in range(n):
                col = rfam[j].column(i)
                for k in range(v):
                    dense[n + i][j][n + k] = col[k]
        return tuple(tuple(tuple(row) for row in plane) for plane in dense)

    ops = {
        "tri_r": block(m.base.op("tri_r"), m.l_r, m.r_r),
        "tri_l": block(m.base.op("tri_l"), m.l_l, m.r_l),
    }
    tag = m.base.class_tag
    return Algebra(dim, ops, f"semidirect_ldend({tag})" if tag else "semidirect_ldend")
