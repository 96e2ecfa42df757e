"""Membership checks for every algebra class, with counterexample reporting.

Each defining identity is evaluated exhaustively on basis tuples; bilinearity
makes that equivalent to checking all vectors.  Residuals are the exact
difference of the two sides of the displayed identity, so a report carries
everything needed to reproduce a violation by hand.

Identities are data: signed terms ``(x A y) B z`` or ``x A (y B z)`` over a
permutation of the basis tuple, evaluated on integers after clearing
denominators (see the integer kernel in :mod:`splitalg.core`).

Identity ids are stable strings; indices in failures are 1-based.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from types import MappingProxyType

from .core import (
    Algebra,
    BilinearForm,
    DimensionMismatch,
    UnknownOperation,
    clear_denominators,
    field_width,
    max_abs,
    pack,
    unpack,
)
from .functors import DENDRIFORM_STAR, HORIZONTAL, QUADRI_DERIVED

__all__ = [
    "CLASS_NAMES",
    "REQUIRED_OPS",
    "CheckReport",
    "Failure",
    "check_class",
    "check_prelie_cocycle",
    "check_ldend_cocycle",
]

CLASS_NAMES = ("pre_lie", "lie", "associative", "dendriform", "l_dendriform", "quadri")

REQUIRED_OPS = {
    "pre_lie": ("circ",),
    "lie": ("bracket",),
    "associative": ("circ",),
    "dendriform": ("succ", "prec"),
    "l_dendriform": ("tri_r", "tri_l"),
    "quadri": ("se", "ne", "nw", "sw"),
}


@dataclass(frozen=True)
class Failure:
    identity: str
    indices: tuple[int, ...]          # 1-based basis indices
    residual: tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "indices": list(self.indices),
            "residual": [str(x) for x in self.residual],
        }


@dataclass(frozen=True)
class CheckReport:
    failures: tuple[Failure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "failures": [f.to_json_dict() for f in self.failures],
        }


def _run(identities, dim: int) -> CheckReport:
    """Evaluate (id, arity, denominator, residual_fn) rows over all basis
    tuples, in declaration order and lexicographic index order.

    ``residual_fn(*idx)`` returns the int residual on inputs scaled to ints
    (empty or all zero when the identity holds there); the exact residual is
    the int one divided by ``denominator``, the product of the scales of the
    factors each term multiplies.
    """
    failures = []
    for identity_id, arity, denominator, fn in identities:
        exact = functools.cache(functools.partial(Fraction, denominator=denominator))
        for idx in itertools.product(range(dim), repeat=arity):
            residual = fn(*idx)
            if any(residual):
                failures.append(Failure(
                    identity_id,
                    tuple(i + 1 for i in idx),
                    tuple(map(exact, residual)),
                ))
    return CheckReport(tuple(failures))


# ---------------------------------------------------------------------------
# the identity language
#
# A term is (sign, shape, A, B, perm).  The shape is one of
#   LEFT   (x A y) B z
#   RIGHT  x A (y B z)
#   PLAIN  x A y          (arity 2, no B)
# and the term's variables x, y, z are the basis indices idx[perm[0]],
# idx[perm[1]], idx[perm[2]] of the tuple being checked.  A and B name int
# tables ([i][j] -> output vector); a bilinear form enters as the table "B"
# with one-entry outputs, so B(x A y, z) is the term (x A y) B z.

LEFT, RIGHT, PLAIN = "(xAy)Bz", "xA(yBz)", "xAy"
XY, YX = (0, 1), (1, 0)
XYZ, YXZ, XZY, YZX, ZXY = (0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 2, 0), (2, 0, 1)


def _compile(terms, ops, n: int, bounds):
    """Residual function of one identity over the int tables ``ops``, whose
    largest absolute entries are ``bounds`` (name -> int).

    Each output vector is packed into one int, so a term costs one
    multiply-add per inner index: (x A y) B z  =  sum_m A[x][y][m] * B[m][z].
    """
    first = terms[0]
    width = len(ops[first[3] if first[1] == LEFT else first[2]][0][0])
    bound = sum(
        bounds[a] if shape == PLAIN else n * bounds[a] * bounds[b]
        for _, shape, a, b, _ in terms
    )
    bits = field_width(bound)

    @functools.cache
    def packed_table(name, sign, by_column=False):
        """ops[name] times sign, each vector packed; by_column regroups
        [i][j] as [j][i]."""
        if by_column:
            return tuple(zip(*packed_table(name, sign)))
        if sign < 0:
            return tuple(tuple(-p for p in plane) for plane in packed_table(name, 1))
        return tuple(
            tuple(pack(vec, bits) if any(vec) else 0 for vec in plane) for plane in ops[name]
        )

    if first[1] == PLAIN:
        rows = [(packed_table(a, sign), perm[0], perm[1]) for sign, _, a, _, perm in terms]

        def residual(*idx):
            p = sum([t[idx[a]][idx[b]] for t, a, b in rows])
            return unpack(p, width, bits) if p else ()

        return residual

    rows = []
    for sign, shape, a, b, perm in terms:
        if shape == LEFT:       # sum_m A[x][y][m] * B[m][z]: B regrouped by z
            rows.append((ops[a], perm[0], perm[1], packed_table(b, sign, True), perm[2]))
        else:                   # sum_m B[y][z][m] * A[x][m]
            rows.append((ops[b], perm[1], perm[2], packed_table(a, sign), perm[0]))

    def residual(*idx):
        p = sum([sum(map(mul, t[idx[a]][idx[b]], w[idx[c]])) for t, a, b, w, c in rows])
        return unpack(p, width, bits) if p else ()

    return residual


def _check_system(system, alg: Algebra, names, form: BilinearForm | None = None,
                  derived=MappingProxyType({})) -> CheckReport:
    """Evaluate identity rows (id, arity, terms) on the algebra's tables
    ``names``, its derived tables (name -> parts, see
    :func:`splitalg.core.derive`) and an optional form (the table "B").

    The tables come from the algebra's int form, scaled by its d_A
    (:meth:`splitalg.core.Algebra.scaled`); only the form is scaled here, by
    its own d_B.  A term multiplies two of these tables (one when PLAIN), so
    an identity's exact residual is its int residual divided by their
    denominators' product: d_A**2, d_A * d_B or d_B."""
    d_a, tables = alg.scaled(*names, *derived.values())
    ops = dict(zip([*names, *derived], tables))
    scale = dict.fromkeys(ops, d_a)
    if form is not None:
        if form.dim != alg.dim:
            raise DimensionMismatch("form dimension does not match the algebra")
        scale["B"], (gram,) = clear_denominators(form.gram)
        ops["B"] = tuple(tuple((x,) for x in row) for row in gram)
    bounds = {name: max_abs(table) for name, table in ops.items()}
    rows = []
    for ident, arity, terms in system:
        _, shape, a, b, _ = terms[0]
        denominator = scale[a] if shape == PLAIN else scale[a] * scale[b]
        rows.append((ident, arity, denominator, _compile(terms, ops, alg.dim, bounds)))
    return _run(rows, alg.dim)


# ---------------------------------------------------------------------------
# the class identity systems: (derived tables, identity rows)

def _assoc(a, b, perm=XYZ, sign=1):
    """sign * ((x a y) b z - x b (y a z)), the associator-shaped pair."""
    return ((sign, LEFT, a, b, perm), (-sign, RIGHT, b, a, perm))


def _pair(out_left, mid_left, out_right, mid_right):
    """(x mid_left y) out_left z - x out_right (y mid_right z)."""
    return ((1, LEFT, mid_left, out_left, XYZ), (-1, RIGHT, out_right, mid_right, XYZ))


_CLASS_SYSTEMS = {
    "pre_lie": ({}, (
        ("eq-2.2", 3, _assoc("circ", "circ") + _assoc("circ", "circ", YXZ, -1)),
    )),
    "lie": ({}, (
        ("lie-antisym", 2, ((1, PLAIN, "bracket", None, XY), (1, PLAIN, "bracket", None, YX))),
        ("lie-jacobi", 3, (
            (1, RIGHT, "bracket", "bracket", XYZ),
            (1, RIGHT, "bracket", "bracket", YZX),
            (1, RIGHT, "bracket", "bracket", ZXY),
        )),
    )),
    "associative": ({}, (
        ("associativity", 3, _assoc("circ", "circ")),
    )),
    "dendriform": ({"star": DENDRIFORM_STAR}, (
        ("eq-1.1-left", 3, ((1, LEFT, "prec", "prec", XYZ), (-1, RIGHT, "prec", "star", XYZ))),
        ("eq-1.1-mid", 3, ((1, LEFT, "succ", "prec", XYZ), (-1, RIGHT, "succ", "prec", XYZ))),
        ("eq-1.1-right", 3, ((1, RIGHT, "succ", "succ", XYZ), (-1, LEFT, "star", "succ", XYZ))),
    )),
    "l_dendriform": ({}, (
        # x|>(y|>z) - (x|>y)|>z - (x<|y)|>z - y|>(x|>z) + (y<|x)|>z + (y|>x)|>z
        ("eq-3.1", 3, (
            (1, RIGHT, "tri_r", "tri_r", XYZ),
            (-1, LEFT, "tri_r", "tri_r", XYZ),
            (-1, LEFT, "tri_l", "tri_r", XYZ),
            (-1, RIGHT, "tri_r", "tri_r", YXZ),
            (1, LEFT, "tri_l", "tri_r", YXZ),
            (1, LEFT, "tri_r", "tri_r", YXZ),
        )),
        # x|>(y<|z) - (x|>y)<|z - y<|(x|>z) - y<|(x<|z) + (y<|x)<|z
        ("eq-3.2", 3, (
            (1, RIGHT, "tri_r", "tri_l", XYZ),
            (-1, LEFT, "tri_r", "tri_l", XYZ),
            (-1, RIGHT, "tri_l", "tri_r", YXZ),
            (-1, RIGHT, "tri_l", "tri_l", YXZ),
            (1, LEFT, "tri_l", "tri_l", YXZ),
        )),
    )),
    "quadri": (
        {name: QUADRI_DERIVED[name] for name in ("succ", "prec", "vee", "wedge", "star")},
        (
            ("eq-3.17-left", 3, _pair("nw", "nw", "nw", "star")),
            ("eq-3.17-mid", 3, _pair("nw", "ne", "ne", "prec")),
            ("eq-3.17-right", 3, _pair("ne", "wedge", "ne", "succ")),
            ("eq-3.18-left", 3, _pair("nw", "sw", "sw", "wedge")),
            ("eq-3.18-mid", 3, _pair("nw", "se", "se", "nw")),
            ("eq-3.18-right", 3, _pair("ne", "vee", "se", "ne")),
            ("eq-3.19-left", 3, _pair("sw", "prec", "sw", "vee")),
            ("eq-3.19-mid", 3, _pair("sw", "succ", "se", "sw")),
            ("eq-3.19-right", 3, _pair("se", "star", "se", "se")),
        ),
    ),
}


def check_class(alg: Algebra, class_name: str) -> CheckReport:
    """Decide membership of ``alg`` in the named algebra class.

    The class tag on the algebra is ignored; only the tables matter.
    """
    if class_name not in _CLASS_SYSTEMS:
        raise ValueError(f"unknown class {class_name!r} (choose from {CLASS_NAMES})")
    for op_name in REQUIRED_OPS[class_name]:
        if not alg.has_op(op_name):
            raise UnknownOperation(
                f"class {class_name!r} needs operation {op_name!r}"
            )
    derived, system = _CLASS_SYSTEMS[class_name]
    return _check_system(system, alg, REQUIRED_OPS[class_name], derived=derived)


# ---------------------------------------------------------------------------
# bilinear-form identities

_PRELIE_COCYCLE = (
    # B(x.y, z) - B(x, y.z) - B(y.x, z) + B(y, x.z)
    ("eq-2.8", 3, _assoc("circ", "B") + _assoc("circ", "B", YXZ, -1)),
)

_LDEND_COCYCLE = (
    ("skew", 2, ((1, PLAIN, "B", None, XY), (1, PLAIN, "B", None, YX))),
    # B(x <| y, z) + B(y, z |> x) - B(y, x <| z) - B(x, z * y)
    ("eq-4.16", 3, (
        (1, LEFT, "tri_l", "B", XYZ),
        (1, RIGHT, "B", "tri_r", YZX),
        (-1, RIGHT, "B", "tri_l", YXZ),
        (-1, RIGHT, "B", "bullet", XZY),
    )),
)


def check_prelie_cocycle(alg: Algebra, B: BilinearForm) -> CheckReport:
    """2-cocycle identity  B(x.y, z) - B(x, y.z) = B(y.x, z) - B(y, x.z)."""
    return _check_system(_PRELIE_COCYCLE, alg, ("circ",), B)


def check_ldend_cocycle(alg: Algebra, B: BilinearForm) -> CheckReport:
    """Skew-symmetry plus  B(x<|y, z) = -B(y, z o x) + B(x, z * y)  where
    o and * are the vertical and horizontal products of the tables."""
    return _check_system(_LDEND_COCYCLE, alg, ("tri_r", "tri_l"), B, {"bullet": HORIZONTAL})
