"""Modules over pre-Lie and L-dendriform algebras, duals, semidirect sums.

A module is stored extensionally as matrix families indexed by the base
algebra's basis, so linearity in the algebra argument is automatic.

Semidirect sums place base coordinates first and module coordinates second,
which fixes the block layout in file output.

A module is checked as the class identities of its semidirect sum: the
family data is a module exactly when A + V lies in the class, and since
V.V = 0 only the basis tuples holding exactly one module vector f_w can
fail.  Each module identity is one class identity with f_w in a fixed slot
(see ``_PRELIE_MODULE_IDS`` and ``_LDEND_MODULE_IDS``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .axioms import _CLASS_SYSTEMS, CheckReport, _compile, _run
from .core import (
    Algebra,
    DimensionMismatch,
    LinearMap,
    Table,
    _entrywise,
    check_size,
    clear_denominators,
    derive,
    max_abs,
)
from .functors import _tag

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


def _check_families(module, names: Sequence[str]):
    """Refuse a module whose ``vdim`` is not an int or whose named families
    do not fit, and store each family as a tuple."""
    check_size(module.vdim, "vdim")
    for name in names:
        family = tuple(getattr(module, name))
        _check_family(family, module.base.dim, module.vdim, name)
        object.__setattr__(module, name, family)


@dataclass(frozen=True)
class PreLieModule:
    """Module data (l, r, V) over a pre-Lie algebra carried as op ``circ``."""

    base: Algebra
    vdim: int
    l: tuple[LinearMap, ...]
    r: tuple[LinearMap, ...]

    def __post_init__(self):
        self.base.op("circ")
        _check_families(self, ("l", "r"))


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
        _check_families(self, ("l_r", "r_r", "l_l", "r_l"))


def _actions(family: Sequence[LinearMap]) -> Table:
    """The action table of a matrix family: [a][w] = family[a] f_w."""
    return tuple(tuple(zip(*m.entries)) for m in family)


def _module_ints(base: Algebra, ops, families) -> tuple[int, tuple, tuple]:
    """d, the base tables ``ops`` and the action tables of ``families``, as
    ints scaled by d, the lcm of the base's d_A and the actions' denominators.
    The base tables come from the int form, rescaled only when d != d_A:
    never for a regular or dual module, whose actions are sums of base entries."""
    d_a, tables = base.scaled(*ops)
    d, acts = clear_denominators(tuple(map(_actions, families)), d_a)
    if d != d_a:
        tables = tuple(_entrywise((d // d_a).__mul__, 3, table) for table in tables)
    return d, tables, acts


def _family(acts: Table) -> tuple[LinearMap, ...]:
    """The matrix family of an action table, inverse of :func:`_actions`."""
    return tuple(LinearMap(len(plane), len(plane), tuple(zip(*plane))) for plane in acts)


def left_family(alg: Algebra, op: str) -> tuple[LinearMap, ...]:
    """Left multiplication operators L(e_i) of the named operation."""
    return _family(alg.op(op))


def right_family(alg: Algebra, op: str) -> tuple[LinearMap, ...]:
    """Right multiplication operators R(e_i):  R(e_i) e_j = e_j * e_i."""
    return _family(derive({op: alg.op(op)}, ((1, op, True),)))


def regular_prelie_module(alg: Algebra) -> PreLieModule:
    """The regular module (L, R, A) of a pre-Lie algebra."""
    return PreLieModule(alg, alg.dim, left_family(alg, "circ"), right_family(alg, "circ"))


def _regular_ldend_actions(tables) -> dict:
    """The action tables of the regular module of an L-dendriform algebra with
    ``tri_r`` and ``tri_l`` tables (Fraction or int): each product and its flip."""
    tri_r, tri_l = tables["tri_r"], tables["tri_l"]
    return {"l_r": tri_r, "r_r": tuple(zip(*tri_r)), "l_l": tri_l, "r_l": tuple(zip(*tri_l))}


def regular_ldend_module(alg: Algebra) -> LDendModule:
    """The regular module (L_r, R_r, L_l, R_l, A) of an L-dendriform algebra."""
    acts = _regular_ldend_actions({"tri_r": alg.op("tri_r"), "tri_l": alg.op("tri_l")})
    return LDendModule(alg, alg.dim, **{name: _family(table) for name, table in acts.items()})


# ---------------------------------------------------------------------------
# semidirect sums and the module identities

def _block_fill(table: Table, left, right, zero) -> Table:
    """The table of A + V from a base table and a (left, right) pair of
    action tables:  e_i f_j = left[i][j],  f_j e_i = right[i][j],  and
    V.V = 0.  Base coordinates first; ``zero`` fills the other blocks."""
    n, v = len(table), len(left[0])
    pad_v, pad_n = (zero,) * v, (zero,) * n
    module_block = ((zero,) * (n + v),) * v
    top = tuple(
        tuple(vec + pad_v for vec in plane) + tuple(pad_n + col for col in left[i])
        for i, plane in enumerate(table)
    )
    bottom = tuple(
        tuple(pad_n + right[i][j] for i in range(n)) + module_block for j in range(v)
    )
    return top + bottom


def _semidirect(m, blocks, name: str) -> Algebra:
    """The semidirect sum of module ``m`` whose operation ``op`` extends the
    base table by the action pair ``blocks[op]``."""
    ops = {
        op: _block_fill(m.base.op(op), *map(_actions, pair), Fraction(0))
        for op, pair in blocks.items()
    }
    return Algebra(m.base.dim + m.vdim, ops, _tag(name, m.base))


def _check_module(m, blocks, class_name: str, ids) -> CheckReport:
    """The module identities ``ids``, rows (module id, class identity, slot
    of f_w, sign), as class identities of the semidirect sum: the base
    indices (i, j) fill the other two slots in order, and the residual at
    (i, j) is the v x v matrix whose column w is sign times the module part
    of the class residual (the base part vanishes), flattened row-major."""
    n, v = m.base.dim, m.vdim
    d, tables, acts = _module_ints(m.base, blocks, [f for pair in blocks.values() for f in pair])
    ops = {op: _block_fill(t, l, r, 0) for op, t, l, r in zip(blocks, tables, *[iter(acts)] * 2)}
    bounds = {op: max_abs(table) for op, table in ops.items()}
    compiled = {ident: _compile(terms, ops, n + v, bounds)
                for ident, _, terms in _CLASS_SYSTEMS[class_name][1]}

    def module_residual(fn, slot, sign):
        def residual(i, j):
            out = [0] * (v * v)
            for w in range(v):
                idx = [i, j]
                idx.insert(slot, n + w)
                column = fn(*idx)
                if column:
                    out[w::v] = [sign * x for x in column[n:]]
            return out

        return residual

    rows = [(ident, 2, d ** 2, module_residual(compiled[cls], slot, sign))
            for ident, cls, slot, sign in ids]
    return _run(rows, n)


#: argument slots of a class identity
X, Y, Z = 0, 1, 2

#: module id -> (class identity of the semidirect sum, slot of f_w, sign)
_PRELIE_MODULE_IDS = (
    ("eq-2.5", "eq-2.2", Z, -1),    # l(x)l(y) - l(x.y) - l(y)l(x) + l(y.x)
    ("eq-2.6", "eq-2.2", X, 1),     # l(x)r(y) - r(y)l(x) - r(x.y) + r(y)r(x)
)
_LDEND_MODULE_IDS = (
    ("eq-4.1", "eq-3.1", Z, 1),     # [l_r(x), l_r(y)] - l_r([x, y])
    ("eq-4.2", "eq-3.2", Z, 1),     # [l_r(x), l_l(y)] - l_l(x o y) - l_l(y)l_l(x)
    ("eq-4.3", "eq-3.1", X, 1),     # r_r(x |> y) + r_r(y)(l_r + l_l - r_r - r_l)(x) - l_r(x)r_r(y)
    ("eq-4.4", "eq-3.2", X, 1),     # r_r(x <| y) + r_l(y)(l_l - r_r)(x) - l_l(x)(r_r + r_l)(y)
    ("eq-4.5", "eq-3.2", Y, 1),     # [l_r(x), r_l(y)] - r_l(x * y) + r_l(y)r_l(x)
)


# ---------------------------------------------------------------------------
# dual modules

#: the families of :func:`dual_prelie_module` and :func:`dual_ldend_module`
#: as (sign, family) sums to transpose, since rho* = -rho^T
_DUAL_PRELIE = (((1, "r"), (-1, "l")), ((1, "r"),))
_DUAL_LDEND = (
    ((1, "r_r"), (1, "r_l"), (-1, "l_r"), (-1, "l_l")),
    ((-1, "r_r"),),
    ((1, "l_l"), (-1, "r_r")),
    ((1, "r_r"), (1, "r_l")),
)


def _dual_actions(acts, sums) -> tuple[Table, ...]:
    """The dual module's action tables from the module's, ``acts`` (name ->
    table, Fraction or int): each sum of ``sums`` with its planes transposed."""
    totals = (derive(acts, [(s, name, False) for s, name in parts]) for parts in sums)
    return tuple(tuple(tuple(zip(*plane)) for plane in total) for total in totals)


# ---------------------------------------------------------------------------
# pre-Lie modules

def check_prelie_module(m: PreLieModule) -> CheckReport:
    """Both module identities over all basis pairs, as matrix equalities.

    Residuals are the matrix difference of the two sides, flattened row-major.
    """
    return _check_module(m, {"circ": (m.l, m.r)}, "pre_lie", _PRELIE_MODULE_IDS)


def dual_prelie_module(m: PreLieModule) -> PreLieModule:
    """The dual module (l* - r*, -r*, V*) with rho* = -rho^T, that is
    ((r - l)^T, r^T, V*)."""
    acts = {"r": _actions(m.r), "l": _actions(m.l)}
    return PreLieModule(m.base, m.vdim, *map(_family, _dual_actions(acts, _DUAL_PRELIE)))


def semidirect_prelie(m: PreLieModule) -> Algebra:
    """Pre-Lie structure on A + V:  (x+u)(y+v) = x o y + l(x)v + r(y)u.

    Base coordinates come first, module coordinates second; V.V = 0.
    """
    return _semidirect(m, {"circ": (m.l, m.r)}, "semidirect_prelie")


# ---------------------------------------------------------------------------
# L-dendriform modules

def _ldend_blocks(m: LDendModule):
    return {"tri_r": (m.l_r, m.r_r), "tri_l": (m.l_l, m.r_l)}


def check_ldend_module(m: LDendModule) -> CheckReport:
    """The five module identities over all basis pairs, with the vertical,
    horizontal and bracket products recomputed from the base tables."""
    return _check_module(m, _ldend_blocks(m), "l_dendriform", _LDEND_MODULE_IDS)


def dual_ldend_module(m: LDendModule) -> LDendModule:
    """The dual module (l_r* + l_l* - r_r* - r_l*,  r_r*,  r_r* - l_l*,
    -(r_r* + r_l*),  V*) with rho* = -rho^T, that is
    ((r_r + r_l - l_r - l_l)^T, (-r_r)^T, (l_l - r_r)^T, (r_r + r_l)^T, V*)."""
    acts = {name: _actions(getattr(m, name)) for name in ("r_r", "r_l", "l_r", "l_l")}
    return LDendModule(m.base, m.vdim, *map(_family, _dual_actions(acts, _DUAL_LDEND)))


def semidirect_ldend(m: LDendModule) -> Algebra:
    """L-dendriform structure on A + V from the four action families."""
    return _semidirect(m, _ldend_blocks(m), "semidirect_ldend")
