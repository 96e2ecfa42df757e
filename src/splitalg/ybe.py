"""Tensor equations: the S-equation in a pre-Lie algebra and the LD-equation
in an L-dendriform algebra, their permutation variants, the equivalences with
O-operator conditions, and solution builders.

Residuals are the exact left-hand side of the cited equation, assembled from
slot products; the sub-adjacent bracket and the horizontal/vertical products
are always derived from the supplied tables (once per algebra value) and
never trusted from a class tag, so residuals stay meaningful on invalid
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import (
    LEFT,
    RIGHT,
    XYZ,
    XZY,
    YXZ,
    YZX,
    CheckReport,
    _check_system,
    check_ldend_cocycle,
)
from .core import (
    Algebra,
    DimensionMismatch,
    LinearMap,
    PreconditionFailed,
    SingularMap,
    Tensor2,
    Tensor3,
    exchange,
    form_from_invertible_map,
    grid_nonzero,
    slot_sum,
    tensor2,
    tensor_to_map,
)
from .functors import HORIZONTAL, SUB_ADJACENT, VERTICAL, commutator
from .operators import _check_o
from .representations import (
    LDendModule,
    PreLieModule,
    _prelie_modules,
    _require_kind,
    dual_ldend_module,
    dual_prelie_module,
    regular_ldend_module,
    regular_prelie_module,
    semidirect_ldend,
    semidirect_prelie,
)

__all__ = [
    "LD_VARIANTS",
    "s_residual",
    "SEquivalenceReport",
    "s_equivalence_check",
    "ld_residual",
    "LDEquivalenceReport",
    "ld_equivalence_check",
    "build_s_solution",
    "build_ld_solution",
    "canonical_double_solution",
    "FormCriterionReport",
    "form_criterion_check",
    "embed_operator",
]


def _check_dims(alg: Algebra, r: Tensor2, *ops: str):
    """Refuse a tensor of another dimension than the algebra, then an algebra
    without one of ``ops``."""
    if r.dim != alg.dim:
        raise DimensionMismatch("tensor dimension does not match the algebra")
    for op in ops:
        alg.op(op)


# ---------------------------------------------------------------------------
# the tensor equations as signed slot-product rows

#: eq-2.9 and its alternate displayed form, as (sign, left_slots,
#: right_slots, key) summands, the bracket the sub-adjacent one of circ
_S_FORMS = {
    # -r12 o r13 + r12 o r23 + [r13, r23]
    "eq-2.9": (
        (-1, (1, 2), (1, 3), "circ"),
        (1, (1, 2), (2, 3), "circ"),
        (1, (1, 3), (2, 3), SUB_ADJACENT),
    ),
    # r13 o r23 + [r12, r23] - r13 o r12
    "alternate": (
        (1, (1, 3), (2, 3), "circ"),
        (1, (1, 2), (2, 3), SUB_ADJACENT),
        (-1, (1, 3), (1, 2), "circ"),
    ),
}

#: equation id -> tuple of (sign, left_slots, right_slots, op) summands
LD_VARIANTS = {
    "eq-4.8": (
        (1, (1, 3), (2, 3), "circ"),
        (1, (1, 2), (2, 3), "bullet"),
        (-1, (1, 2), (1, 3), "tri_l"),
    ),
    "eq-4.9": (
        (1, (1, 3), (2, 3), "tri_r"),
        (1, (1, 2), (2, 3), "bracket"),
        (-1, (1, 3), (1, 2), "tri_r"),
    ),
    "eq-4.10": (
        (1, (2, 3), (1, 3), "tri_l"),
        (-1, (1, 3), (1, 2), "circ"),
        (-1, (2, 3), (1, 2), "bullet"),
    ),
    "eq-4.11": (
        (1, (2, 3), (1, 3), "circ"),
        (-1, (1, 2), (1, 3), "bullet"),
        (1, (1, 2), (2, 3), "tri_l"),
    ),
    "eq-4.12": (
        (1, (2, 3), (1, 2), "circ"),
        (1, (1, 3), (1, 2), "bullet"),
        (1, (1, 3), (2, 3), "tri_l"),
    ),
    "eq-4.13": (
        (1, (1, 2), (2, 3), "circ"),
        (1, (1, 3), (2, 3), "bullet"),
        (1, (1, 3), (1, 2), "tri_l"),
    ),
    "eq-4.14": (
        (1, (1, 2), (1, 3), "circ"),
        (-1, (2, 3), (1, 3), "bullet"),
        (1, (2, 3), (1, 2), "tri_l"),
    ),
}

_VARIANT_ALIASES = {
    "main": "eq-4.8",
    "aux-a": "eq-4.9",
    "aux-b": "eq-4.10",
    "p1": "eq-4.11",
    "p2": "eq-4.12",
    "p3": "eq-4.13",
    "p4": "eq-4.14",
}

#: LD_VARIANTS with each op resolved to its int-form key: circ and bullet
#: are the vertical and horizontal products, bracket the vertical commutator
_LD_KEYS = {"circ": VERTICAL, "bullet": HORIZONTAL, "bracket": commutator(VERTICAL)}
_LD_TERMS = {eq: tuple((sign, left, right, _LD_KEYS.get(op, op)) for sign, left, right, op in rows)
             for eq, rows in LD_VARIANTS.items()}


def _map_ints(r: Tensor2) -> tuple[int, tuple, int]:
    """The int form of r's map (see :func:`splitalg.core.tensor_to_map`):
    r's kept int form with its grid transposed."""
    d, grid, bound = r._ints
    return d, tuple(zip(*grid)), bound


def _slot_sum(alg: Algebra, r: Tensor2, summands) -> Tensor3:
    """The signed sum of slot products of r with itself, one per
    (sign, left_slots, right_slots, key) summand, the key an op name or a
    derived product's parts (see :func:`splitalg.core.slot_sum`)."""
    return slot_sum([(sign, r, left, r, right, key) for sign, left, right, key in summands], alg)


# ---------------------------------------------------------------------------
# S-equation

def s_residual(alg: Algebra, r: Tensor2) -> Tensor3:
    """-r12 o r13 + r12 o r23 + [r13, r23], the bracket taken in the
    sub-adjacent Lie algebra of the circ table."""
    _check_dims(alg, r)
    return _slot_sum(alg, r, _S_FORMS["eq-2.9"])


@dataclass(frozen=True)
class SEquivalenceReport:
    """Simultaneous-vanishing report for a symmetric tensor: the S-equation
    residual, its alternate displayed form, and the O-operator condition of
    the tensor's map for the dual of the regular module."""

    residual: Tensor3
    alternate: Tensor3
    operator: CheckReport

    @property
    def residual_zero(self) -> bool:
        return self.residual.is_zero

    @property
    def alternate_zero(self) -> bool:
        return self.alternate.is_zero

    @property
    def operator_zero(self) -> bool:
        return self.operator.passed

    @property
    def all_vanish(self) -> bool:
        return self.residual_zero and self.alternate_zero and self.operator_zero

    @property
    def consistent(self) -> bool:
        return self.residual_zero == self.alternate_zero == self.operator_zero


def s_equivalence_check(alg: Algebra, r: Tensor2) -> SEquivalenceReport:
    """eq-2.9 for r against eq-2.10 for r's map and the dual regular module."""
    if not r.is_symmetric:
        raise PreconditionFailed("the S-equation equivalence needs a symmetric tensor")
    _check_dims(alg, r)
    rows = alg.compiled(s_equivalence_check,
                        lambda: dual_prelie_module(regular_prelie_module(alg))._o_rows)
    return SEquivalenceReport(
        residual=s_residual(alg, r),
        alternate=_slot_sum(alg, r, _S_FORMS["alternate"]),
        operator=_check_o(_map_ints(r), *rows),
    )


# ---------------------------------------------------------------------------
# LD-equation and its permutation variants

def ld_residual(alg: Algebra, r: Tensor2, variant: str = "eq-4.8") -> Tensor3:
    """Exact residual of the selected LD-equation variant (an equation id
    eq-4.8 .. eq-4.14 or one of the aliases main, aux-a, aux-b, p1..p4)."""
    key = _VARIANT_ALIASES.get(variant, variant)
    if key not in LD_VARIANTS:
        known = sorted(LD_VARIANTS) + sorted(_VARIANT_ALIASES)
        raise ValueError(f"unknown LD-equation variant {variant!r} (choose from {known})")
    _check_dims(alg, r, "tri_r", "tri_l")
    return _slot_sum(alg, r, _LD_TERMS[key])


@dataclass(frozen=True)
class LDEquivalenceReport:
    """The four equivalent conditions for a skew tensor (the LD-equation
    residual and three O-operator conditions) plus the two auxiliary
    residuals whose one-way implication is part of the statement."""

    residual: Tensor3
    operator_ldend: CheckReport
    operator_vertical: CheckReport
    operator_horizontal: CheckReport
    aux_a: Tensor3
    aux_b: Tensor3

    @property
    def residual_zero(self) -> bool:
        return self.residual.is_zero

    @property
    def operator_ldend_zero(self) -> bool:
        return self.operator_ldend.passed

    @property
    def operator_vertical_zero(self) -> bool:
        return self.operator_vertical.passed

    @property
    def operator_horizontal_zero(self) -> bool:
        return self.operator_horizontal.passed

    @property
    def _flags(self) -> tuple[bool, ...]:
        return (self.residual_zero, self.operator_ldend_zero, self.operator_vertical_zero,
                self.operator_horizontal_zero)

    @property
    def all_vanish(self) -> bool:
        return all(self._flags)

    @property
    def consistent(self) -> bool:
        return len(set(self._flags)) == 1

    @property
    def aux_implication(self) -> bool:
        """aux-b vanishing implies aux-a vanishing."""
        return self.aux_a.is_zero or not self.aux_b.is_zero


def ld_equivalence_check(alg: Algebra, r: Tensor2) -> LDEquivalenceReport:
    """eq-4.8 for r against the O-operator identities of r's map for the
    duals of the regular module and of both pre-Lie modules."""
    if not r.is_skew:
        raise PreconditionFailed("the LD-equation equivalence needs a skew tensor")
    _check_dims(alg, r)
    ldend, vertical, horizontal = alg.compiled(ld_equivalence_check, lambda: [
        m._o_rows for m in (dual_ldend_module(regular_ldend_module(alg)),
                            *map(dual_prelie_module, _prelie_modules(alg)))])
    t = _map_ints(r)
    return LDEquivalenceReport(
        residual=ld_residual(alg, r, "eq-4.8"),
        operator_ldend=_check_o(t, *ldend),
        operator_vertical=_check_o(t, *vertical),
        operator_horizontal=_check_o(t, *horizontal),
        aux_a=ld_residual(alg, r, "eq-4.9"),
        aux_b=ld_residual(alg, r, "eq-4.10"),
    )


# ---------------------------------------------------------------------------
# solution builders

def embed_operator(T: LinearMap) -> Tensor2:
    """Identify T in Hom(V, A) with  sum_i T(v_i) (x) v_i*  inside the
    (rows+cols)^2 tensor square: an upper-right block equal to T's matrix."""
    nonzero = grid_nonzero(T.entries, (T.rows, T.cols))
    return tensor2(T.rows + T.cols, [(a, T.rows + i, x) for (a, i), x in nonzero])


def build_s_solution(m: PreLieModule, T: LinearMap) -> tuple[Algebra, Tensor2]:
    """The semidirect pre-Lie algebra on A + V* through the dual module,
    together with the symmetric tensor T + sigma(T)."""
    _require_kind(m, PreLieModule)
    if T.rows != m.base.dim or T.cols != m.vdim:
        raise DimensionMismatch("operator shape does not match the module")
    hat = semidirect_prelie(dual_prelie_module(m))
    t = embed_operator(T)
    return hat, t + exchange(t)


def build_ld_solution(m: LDendModule, T: LinearMap) -> tuple[Algebra, Tensor2]:
    """The semidirect L-dendriform algebra on A + V* through the dual module,
    together with the skew tensor T - sigma(T)."""
    _require_kind(m, LDendModule)
    if T.rows != m.base.dim or T.cols != m.vdim:
        raise DimensionMismatch("operator shape does not match the module")
    big = semidirect_ldend(dual_ldend_module(m))
    t = embed_operator(T)
    return big, t - exchange(t)


def canonical_double_solution(alg: Algebra) -> tuple[Algebra, Algebra, Tensor2]:
    """For an L-dendriform algebra of dimension n, both 2n-dimensional
    semidirect pre-Lie algebras (vertical and horizontal, each with its dual
    regular-action module) in which the canonical symmetric tensor
    sum_i (e_i (x) e_i* + e_i* (x) e_i)  solves the S-equation: the
    solutions that :func:`build_s_solution` builds from the identity map."""
    (hat_vert, r), (hat_hor, _) = (build_s_solution(m, LinearMap.identity(alg.dim))
                                   for m in _prelie_modules(alg))
    return hat_vert, hat_hor, r


# ---------------------------------------------------------------------------
# invertible solutions and 2-cocycles

@dataclass(frozen=True)
class FormCriterionReport:
    """For skew invertible r: (a) the LD-equation residual, (b) the induced
    form's 2-cocycle identity, (c) the companion bracket identity; the
    statement gives (a) iff (b) and (b) implies (c)."""

    residual: Tensor3
    cocycle: CheckReport
    companion: CheckReport

    @property
    def residual_zero(self) -> bool:
        return self.residual.is_zero

    @property
    def cocycle_zero(self) -> bool:
        return self.cocycle.passed

    @property
    def companion_zero(self) -> bool:
        return self.companion.passed

    @property
    def equivalence_holds(self) -> bool:
        return self.residual_zero == self.cocycle_zero

    @property
    def implication_holds(self) -> bool:
        return self.companion_zero or not self.cocycle_zero


_COMPANION = (
    # B(x |> y, z) + B(y, x * z) - B(y, z * x) + B(x, z |> y)
    ("eq-4.15", 3, (
        (1, LEFT, "tri_r", "B", XYZ),
        (1, RIGHT, "B", HORIZONTAL, YXZ),
        (-1, RIGHT, "B", HORIZONTAL, YZX),
        (1, RIGHT, "B", "tri_r", XZY),
    )),
)


def _check_companion_identity(alg: Algebra, B) -> CheckReport:
    """B(x |> y, z) = -B(y, [x, z]) - B(x, z |> y)  over all basis triples,
    the bracket being that of the horizontal product *."""
    return _check_system(_COMPANION, alg, ("tri_r", "tri_l"), B)


def form_criterion_check(alg: Algebra, r: Tensor2) -> FormCriterionReport:
    if not r.is_skew:
        raise PreconditionFailed("the form criterion needs a skew tensor")
    _check_dims(alg, r)
    try:
        B = form_from_invertible_map(tensor_to_map(r))
    except SingularMap:
        raise PreconditionFailed("the form criterion needs an invertible tensor") from None
    return FormCriterionReport(
        residual=ld_residual(alg, r, "eq-4.8"),
        cocycle=check_ldend_cocycle(alg, B),
        companion=_check_companion_identity(alg, B),
    )
