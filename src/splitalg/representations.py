"""Modules over pre-Lie and L-dendriform algebras, duals, semidirect sums.

A module is stored extensionally as matrix families indexed by the base
algebra's basis, so linearity in the algebra argument is automatic.

Semidirect sums place base coordinates first and module coordinates second,
which fixes the block layout in file output.

A module kind is declared once, as its blocks: each a base op extended by a
(left, right) pair of families, with the id of its O-operator identity,
and as its module check: a class system and module-identity rows.  The
constructors, the semidirect sums, the module and O-operator checks and
the file format all read that declaration, and each check refuses a
module of the other kind.  A module value keeps its int form, one
O-operator row of base table and action tables as ints per block, and its
compiled module identities, built on first use.

A module is checked as the class identities of its semidirect sum: the
family data is a module exactly when A + V lies in the class, and since
V.V = 0 only the basis tuples holding exactly one module vector f_w can
fail.  Each module identity is one class identity with f_w in a fixed slot
(see ``_PRELIE_MODULE_IDS`` and ``_LDEND_MODULE_IDS``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .axioms import _CLASS_SYSTEMS, LEFT, CheckReport, _compile, _run
from .core import (
    Algebra,
    DimensionMismatch,
    LinearMap,
    Table,
    _entrywise,
    _Value,
    check_size,
    clear_denominators,
    derive,
    max_abs,
    rename_ops,
)
from .functors import _tag, horizontal_prelie, vertical_prelie

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


class _Module(_Value):
    """A module kind with its blocks ``_blocks``: (base op, left family
    field, right family field, O-operator identity id), the families being
    the fields after ``base`` and ``vdim`` in block order, and its module
    check: the class ``_system`` of its semidirect sum and its module
    identities ``_ids`` (see :attr:`_lines`).  Copies and pickles are
    rebuilt from the fields, without what checks keep with the value: the
    int form, as O-operator rows, and the compiled identities."""

    def __post_init__(self):
        """Refuse a base without a block op, a ``vdim`` that is not an int,
        then each family in field order that does not fit; store each
        family as a tuple."""
        for op, *_ in self._blocks:
            self.base.op(op)
        check_size(self.vdim, "vdim")
        for name in self._families():
            family = tuple(getattr(self, name))
            _check_family(family, self.base.dim, self.vdim, name)
            object.__setattr__(self, name, family)

    @classmethod
    def _families(cls) -> tuple[str, ...]:
        return tuple(name for _, left, right, _ in cls._blocks for name in (left, right))

    @cached_property
    def _o_rows(self) -> tuple[list, int, int]:
        """The module's int form, built once per value: one O-operator row
        (id, base table, l, r action tables) per block, as ints scaled by d
        (see :func:`_module_ints`), vdim and d: the arguments after the map
        of ``operators._check_o``."""
        ops, *_, idents = zip(*self._blocks)
        d, tables, acts = _module_ints(self.base, ops,
                                       [getattr(self, name) for name in self._families()])
        return list(zip(idents, tables, acts[::2], acts[1::2])), self.vdim, d

    @cached_property
    def _lines(self) -> list:
        """The module identities ``_ids``, rows (module id, class identity of
        ``_system``, slot of f_w, sign), as :func:`axioms._run` lines of class
        identities of the semidirect sum, compiled once per value from the
        int form, each with its terms times sign.  The base indices (i, j)
        fill the other two slots in order, and the residual at (i, j) is the
        v x v matrix whose column w is the module part of the class residual
        (the base part vanishes), flattened row-major.  Each identity's slots
        are renumbered so that f_w's comes last, the compiled identity's free
        slot: inner products read the semidirect tables, outer products the
        same tables cut to their module part, so one plane per (i, j),
        decoded as a flat list of v rows of v entries, holds every column:
        matrix row r is the strided slice from entry r.  A line is the n
        matrices at i, or () when all are zero, as every line of a zero
        module is, which compiles nothing."""
        n = self.base.dim
        rows, v, d = self._o_rows
        zero = [0] * (v * v)
        ops = {op: _block_fill(*grids, 0) for (op, *_), (_, *grids) in zip(self._blocks, rows)}
        ops |= {(op, "V"): _entrywise(lambda vec: vec[n:], 2, t) for op, t in ops.items()}
        bounds = {key: max_abs(table) for key, table in ops.items()}
        terms = {ident: t for ident, _, t in _CLASS_SYSTEMS[self._system]}
        packings = {}

        def module_line(cls, slot, sign):
            if not v:
                return lambda i: ()
            at = {k: k - (k > slot) for k in (X, Y, Z)} | {slot: Z}     # f_w's slot last
            plane = _compile([(sign * t, s, *((a, (b, "V")) if s == LEFT else ((a, "V"), b)),
                               tuple(map(at.get, p))) for t, s, a, b, p in terms[cls]],
                             ops, bounds, packings, range(n, n + v))

            def matrices(i):
                out = []
                for j in range(n):
                    flat = plane(i, j)
                    out += [x for r in range(v) for x in flat[r::v]] if flat else zero
                return out if any(out) else ()

            return matrices

        return [(ident, 2, d ** 2, module_line(cls, slot, sign))
                for ident, cls, slot, sign in self._ids]


@dataclass(frozen=True)
class PreLieModule(_Module):
    """Module data (l, r, V) over a pre-Lie algebra carried as op ``circ``."""

    base: Algebra
    vdim: int
    l: tuple[LinearMap, ...]
    r: tuple[LinearMap, ...]

    _blocks = (("circ", "l", "r", "eq-2.10"),)
    _system, _ids = "pre_lie", _PRELIE_MODULE_IDS


@dataclass(frozen=True)
class LDendModule(_Module):
    """Module data (l_r, r_r, l_l, r_l, V) over an L-dendriform algebra."""

    base: Algebra
    vdim: int
    l_r: tuple[LinearMap, ...]
    r_r: tuple[LinearMap, ...]
    l_l: tuple[LinearMap, ...]
    r_l: tuple[LinearMap, ...]

    _blocks = (("tri_r", "l_r", "r_r", "eq-4.7-tri_r"), ("tri_l", "l_l", "r_l", "eq-4.7-tri_l"))
    _system, _ids = "l_dendriform", _LDEND_MODULE_IDS


def _require_kind(m, kind: type):
    """Refuse ``m`` with a TypeError unless it is a module of ``kind``, so
    that a check never reads the other kind's families as its own."""
    if not isinstance(m, kind):
        raise TypeError(f"{kind.__name__} required, got {type(m).__name__}")


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


def regular_ldend_module(alg: Algebra) -> LDendModule:
    """The regular module (L_r, R_r, L_l, R_l, A) of an L-dendriform algebra."""
    return LDendModule(alg, alg.dim, *(family(alg, op) for op in ("tri_r", "tri_l")
                                       for family in (left_family, right_family)))


def _prelie_modules(alg: Algebra) -> tuple[PreLieModule, PreLieModule]:
    """The pre-Lie modules (L_r, -L_l) over the vertical and (L_r, R_l) over
    the horizontal product of an L-dendriform algebra, the latter renamed
    circ; the identity map is an O-operator of both."""
    l_r, l_l = left_family(alg, "tri_r"), left_family(alg, "tri_l")
    return (PreLieModule(vertical_prelie(alg), alg.dim, l_r, tuple(-m for m in l_l)),
            PreLieModule(rename_ops(horizontal_prelie(alg), {"bullet": "circ"}), alg.dim, l_r,
                         right_family(alg, "tri_l")))


# ---------------------------------------------------------------------------
# semidirect sums

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


def _semidirect(m, name: str) -> Algebra:
    """The semidirect sum of module ``m``, each block op extending the base
    table by the block's pair of action tables."""
    ops = {
        op: _block_fill(m.base.op(op), _actions(getattr(m, left)), _actions(getattr(m, right)),
                        Fraction(0))
        for op, left, right, _ in m._blocks
    }
    return Algebra(m.base.dim + m.vdim, ops, _tag(name, m.base))


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
    Fraction table): each sum of ``sums`` with its planes transposed."""
    totals = (derive(acts, [(s, name, False) for s, name in parts]) for parts in sums)
    return tuple(tuple(tuple(zip(*plane)) for plane in total) for total in totals)


# ---------------------------------------------------------------------------
# pre-Lie modules

def check_prelie_module(m: PreLieModule) -> CheckReport:
    """Both module identities over all basis pairs, as matrix equalities.

    Residuals are the matrix difference of the two sides, flattened row-major.
    """
    _require_kind(m, PreLieModule)
    return _run(m._lines, m.base.dim)


def dual_prelie_module(m: PreLieModule) -> PreLieModule:
    """The dual module (l* - r*, -r*, V*) with rho* = -rho^T, that is
    ((r - l)^T, r^T, V*)."""
    _require_kind(m, PreLieModule)
    acts = {"r": _actions(m.r), "l": _actions(m.l)}
    return PreLieModule(m.base, m.vdim, *map(_family, _dual_actions(acts, _DUAL_PRELIE)))


def semidirect_prelie(m: PreLieModule) -> Algebra:
    """Pre-Lie structure on A + V:  (x+u)(y+v) = x o y + l(x)v + r(y)u.

    Base coordinates come first, module coordinates second; V.V = 0.
    """
    _require_kind(m, PreLieModule)
    return _semidirect(m, "semidirect_prelie")


# ---------------------------------------------------------------------------
# L-dendriform modules

def check_ldend_module(m: LDendModule) -> CheckReport:
    """The five module identities over all basis pairs, with the vertical,
    horizontal and bracket products recomputed from the base tables."""
    _require_kind(m, LDendModule)
    return _run(m._lines, m.base.dim)


def dual_ldend_module(m: LDendModule) -> LDendModule:
    """The dual module (l_r* + l_l* - r_r* - r_l*,  r_r*,  r_r* - l_l*,
    -(r_r* + r_l*),  V*) with rho* = -rho^T, that is
    ((r_r + r_l - l_r - l_l)^T, (-r_r)^T, (l_l - r_r)^T, (r_r + r_l)^T, V*)."""
    _require_kind(m, LDendModule)
    acts = {name: _actions(getattr(m, name)) for name in ("r_r", "r_l", "l_r", "l_l")}
    return LDendModule(m.base, m.vdim, *map(_family, _dual_actions(acts, _DUAL_LDEND)))


def semidirect_ldend(m: LDendModule) -> Algebra:
    """L-dendriform structure on A + V from the four action families."""
    _require_kind(m, LDendModule)
    return _semidirect(m, "semidirect_ldend")
