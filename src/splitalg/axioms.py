"""Membership checks for every algebra class, with counterexample reporting.

Each defining identity is evaluated exhaustively on basis tuples; bilinearity
makes that equivalent to checking all vectors.  Residuals are the exact
difference of the two sides of the displayed identity, so a report carries
everything needed to reproduce a violation by hand.

Identities are data: signed terms ``(x A y) B z`` or ``x A (y B z)`` over a
permutation of the basis tuple, evaluated on integers after clearing
denominators (see the integer kernel in :mod:`splitalg.core`).  A term names
each table by its key in the algebra's int form: an op name, or the
``(sign, name, flipped)`` parts of a derived product (see
:mod:`splitalg.functors`), so one key is one table in every identity.

Identity ids are stable strings; indices in failures are 1-based.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .core import (
    Algebra,
    BilinearForm,
    DimensionMismatch,
    UnknownOperation,
    field_width,
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
    """Evaluate (id, arity, denominator, line) rows over all basis tuples,
    in declaration order and lexicographic index order, one line at a time.

    For each of the dim**(arity-1) prefixes of all but the last index, in
    lexicographic order, ``line(*prefix)`` gives (last index, int residual)
    for the tuples of that line whose int residual is nonzero, by increasing
    last index: the nonzero rows of a packed plane (see :func:`_compile`),
    each unpacked.  The residuals are on inputs scaled to ints; the exact
    residual is the int one divided by ``denominator``, the product of the
    scales of the factors each term multiplies.
    """
    failures = []
    for identity_id, arity, denominator, line in identities:
        exact = functools.cache(functools.partial(Fraction, denominator=denominator))
        for prefix in itertools.product(range(dim), repeat=arity - 1):
            for last, residual in line(*prefix):
                failures.append(Failure(
                    identity_id,
                    tuple(i + 1 for i in (*prefix, last)),
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
# idx[perm[1]], idx[perm[2]] of the tuple being checked.  A and B are keys of
# int tables ([i][j] -> output vector): an op name or a derived product's
# parts, as the algebra's int form keeps them (:meth:`Algebra.scaled`); a
# bilinear form enters as the table "B" with one-entry outputs, so
# B(x A y, z) is the term (x A y) B z.

LEFT, RIGHT, PLAIN = "(xAy)Bz", "xA(yBz)", "xAy"
XY, YX = (0, 1), (1, 0)
XYZ, YXZ, XZY, YZX, ZXY = (0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 2, 0), (2, 0, 1)


def _compile(terms, ops, bounds, packings: dict, free: int, rows: range):
    """Line function of one identity over the int tables ``ops``, by the
    keys its terms name, with largest entries ``bounds``: n, the dimension of
    the tables' inputs, is read from them.  Its slot ``free`` is free over
    the basis indices ``rows``: ``line(*idx)``, given the other slots'
    indices, evaluates the int residual at every f in ``rows`` as one
    packed plane, row f - rows.start at field (f - rows.start) * width.  A
    term costs one big-int multiply-add per inner index m per line, not per
    tuple: when z is free, a scalar row times a table's plane,
      (x A y) B z  =  sum_m A[x][y][m] * (B[m][z] over all z),
    else a column of the free role's table packed at the row stride times
    the other table's vector, their outer product (see
    :func:`splitalg.core.slot_sum`).  Identities compiled with one
    ``packings`` dict share their packings, and negative terms are summed
    apart, so no negated copy is kept.  ``line`` returns (f - rows.start,
    entries) for the nonzero rows of the plane, without the first ``skip``
    entries of each when they are known zero.
    """
    first = terms[0]
    n, width = len(ops[first[2]]), len(ops[first[3] if first[1] == LEFT else first[2]][0][0])
    bound = sum(
        bounds[a] if shape == PLAIN else n * bounds[a] * bounds[b]
        for _, shape, a, b, _ in terms
    )
    bits = field_width(bound)
    stride, lo, hi = width * bits, rows.start, rows.stop

    def packed(name, layout, swapped=False):
        """ops[name] (its inputs swapped when ``swapped``) by its first input a:
        as [a][b] -> vector packed ("vec"), [a] -> the vectors [a][f] in one
        plane ("plane") or [a][m] -> the entries [a][f][m] in one ("col")."""
        key = (name, layout, swapped, bits, stride)
        if key not in packings:
            table = tuple(zip(*ops[name])) if swapped else ops[name]
            packings[key] = tuple(
                tuple(pack(vec, bits) if any(vec) else 0 for vec in plane) if layout == "vec" else
                pack([pack(vec, bits) for vec in plane[lo:hi]], stride) if layout == "plane" else
                tuple(pack(col, stride) for col in zip(*plane[lo:hi])) for plane in table)
        return packings[key]

    one = len(first[4]) - 1     # position of the 0 appended to the given indices
    pos, neg = [], []
    for sign, shape, a, b, perm in terms:
        role = perm.index(free)
        x, y, z = [slot - (slot > free) for slot in perm] + [one] * (3 - len(perm))
        if shape == PLAIN:      # 1 * A[x][f] or A[f][y] over all f
            row = ((((1,),),), one, one, tuple((p,) for p in packed(a, "plane", role == 0)),
                   y if role == 0 else x)
        elif shape == LEFT:     # sum_m A[x][y][m] * B[m][z]
            row = ((ops[a], x, y, (packed(b, "plane"),), one) if role == 2 else
                   ((packed(a, "col", role == 0),), one, y if role == 0 else x,
                    packed(b, "vec", True), z))
        else:                   # sum_m B[y][z][m] * A[x][m]
            row = ((ops[b], y, z, (packed(a, "plane", True),), one) if role == 0 else
                   ((packed(b, "col", role == 1),), one, z if role == 1 else y,
                    packed(a, "vec"), x))
        (pos if sign > 0 else neg).append(row)

    def line(*given, skip=0):
        idx = (*given, 0)
        p = (sum([sum(map(mul, t[idx[i]][idx[j]], w[idx[k]])) for t, i, j, w, k in pos])
             - sum([sum(map(mul, t[idx[i]][idx[j]], w[idx[k]])) for t, i, j, w, k in neg]))
        return [(f, unpack(row >> skip * bits, width - skip, bits))
                for f, row in enumerate(unpack(p, len(rows), stride)) if row] if p else ()

    return line


def _check_system(system, alg: Algebra, names, form: BilinearForm | None = None) -> CheckReport:
    """Evaluate identity rows (id, arity, terms) on the algebra's int tables
    its terms name by key, an op name or a derived product's parts, the ops
    ``names`` looked up first, and an optional form (the table "B"), each
    identity compiled with its last slot free.  Without a form the compiled
    lines are kept with the algebra's int form; a form is a second value, so
    a form's identities are compiled on every call.

    The tables and their largest entries come from the algebra's int form,
    scaled by its d_A (:meth:`splitalg.core.Algebra.scaled`); only the form
    is scaled here, by its own d_B.  A term multiplies two of these tables
    (one when PLAIN), so an identity's exact residual is its int residual
    divided by their denominators' product: d_A**2, d_A * d_B or d_B."""
    def compiled():
        keys = dict.fromkeys((*names, *(key for _, _, terms in system for term in terms
                                        for key in term[2:4] if key not in (None, "B"))))
        d_a, tables = alg.scaled(*keys)
        ops = dict(zip(keys, tables))
        bounds = {key: alg.entry_bound(key) for key in keys}
        scale = dict.fromkeys(ops, d_a)
        if form is not None:
            if form.dim != alg.dim:
                raise DimensionMismatch("form dimension does not match the algebra")
            scale["B"], gram, bounds["B"] = form._ints
            ops["B"] = tuple(tuple((x,) for x in row) for row in gram)
        lines, packings = [], {}
        for ident, arity, terms in system:
            _, shape, a, b, _ = terms[0]
            lines.append((ident, arity, scale[a] if shape == PLAIN else scale[a] * scale[b],
                          _compile(terms, ops, bounds, packings, arity - 1, range(alg.dim))))
        return lines

    return _run(compiled() if form is not None else alg.compiled(system, compiled), alg.dim)


# ---------------------------------------------------------------------------
# the class identity systems: identity rows per class

def _assoc(a, b, perm=XYZ, sign=1):
    """sign * ((x a y) b z - x b (y a z)), the associator-shaped pair."""
    return ((sign, LEFT, a, b, perm), (-sign, RIGHT, b, a, perm))


def _pair(out_left, mid_left, out_right, mid_right):
    """(x mid_left y) out_left z - x out_right (y mid_right z)."""
    return ((1, LEFT, mid_left, out_left, XYZ), (-1, RIGHT, out_right, mid_right, XYZ))


_CLASS_SYSTEMS = {
    "pre_lie": (
        ("eq-2.2", 3, _assoc("circ", "circ") + _assoc("circ", "circ", YXZ, -1)),
    ),
    "lie": (
        ("lie-antisym", 2, ((1, PLAIN, "bracket", None, XY), (1, PLAIN, "bracket", None, YX))),
        ("lie-jacobi", 3, (
            (1, RIGHT, "bracket", "bracket", XYZ),
            (1, RIGHT, "bracket", "bracket", YZX),
            (1, RIGHT, "bracket", "bracket", ZXY),
        )),
    ),
    "associative": (
        ("associativity", 3, _assoc("circ", "circ")),
    ),
    "dendriform": (
        ("eq-1.1-left", 3, _pair("prec", "prec", "prec", DENDRIFORM_STAR)),
        ("eq-1.1-mid", 3, _pair("prec", "succ", "succ", "prec")),
        ("eq-1.1-right", 3, ((1, RIGHT, "succ", "succ", XYZ),
                             (-1, LEFT, DENDRIFORM_STAR, "succ", XYZ))),
    ),
    "l_dendriform": (
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
    ),
    "quadri": (
        ("eq-3.17-left", 3, _pair("nw", "nw", "nw", QUADRI_DERIVED["star"])),
        ("eq-3.17-mid", 3, _pair("nw", "ne", "ne", QUADRI_DERIVED["prec"])),
        ("eq-3.17-right", 3, _pair("ne", QUADRI_DERIVED["wedge"], "ne", QUADRI_DERIVED["succ"])),
        ("eq-3.18-left", 3, _pair("nw", "sw", "sw", QUADRI_DERIVED["wedge"])),
        ("eq-3.18-mid", 3, _pair("nw", "se", "se", "nw")),
        ("eq-3.18-right", 3, _pair("ne", QUADRI_DERIVED["vee"], "se", "ne")),
        ("eq-3.19-left", 3, _pair("sw", QUADRI_DERIVED["prec"], "sw", QUADRI_DERIVED["vee"])),
        ("eq-3.19-mid", 3, _pair("sw", QUADRI_DERIVED["succ"], "se", "sw")),
        ("eq-3.19-right", 3, _pair("se", QUADRI_DERIVED["star"], "se", "se")),
    ),
}


def check_class(alg: Algebra, class_name: str) -> CheckReport:
    """Decide membership of ``alg`` in the named algebra class.

    The class tag on the algebra is ignored; only the tables matter.  The
    compiled identities are kept with the algebra's int form, so a second
    check of the same value compiles nothing.
    """
    if class_name not in _CLASS_SYSTEMS:
        raise ValueError(f"unknown class {class_name!r} (choose from {CLASS_NAMES})")
    for op_name in REQUIRED_OPS[class_name]:
        if not alg.has_op(op_name):
            raise UnknownOperation(
                f"class {class_name!r} needs operation {op_name!r}"
            )
    return _check_system(_CLASS_SYSTEMS[class_name], alg, REQUIRED_OPS[class_name])


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
        (-1, RIGHT, "B", HORIZONTAL, XZY),
    )),
)


def check_prelie_cocycle(alg: Algebra, B: BilinearForm) -> CheckReport:
    """2-cocycle identity  B(x.y, z) - B(x, y.z) = B(y.x, z) - B(y, x.z)."""
    return _check_system(_PRELIE_COCYCLE, alg, ("circ",), B)


def check_ldend_cocycle(alg: Algebra, B: BilinearForm) -> CheckReport:
    """Skew-symmetry plus  B(x<|y, z) = -B(y, z o x) + B(x, z * y)  where
    o and * are the vertical and horizontal products of the tables."""
    return _check_system(_LDEND_COCYCLE, alg, ("tri_r", "tri_l"), B)
