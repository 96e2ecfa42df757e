"""Constructions turning one algebra class into another.

Everything here is table-level: a functor never verifies that its input
satisfies any axioms (that is the axioms module's job, composed explicitly
where needed), which also lets tests feed deliberately invalid tables.
Outputs carry a class_tag recording their construction for audit trails.

This module is also the registry of derived products: each is defined once
here as ``(sign, table, flipped)`` parts (see :func:`splitalg.core.derive`),
and the checks and tensor equations read their parts from here.
"""

from __future__ import annotations

from .core import Algebra, derive

__all__ = [
    "sub_adjacent_lie",
    "horizontal_prelie",
    "vertical_prelie",
    "transpose",
    "dendriform_to_ldend",
    "quadri_derive",
    "QUADRI_DERIVED",
    "VERTICAL",
    "HORIZONTAL",
    "SUB_ADJACENT",
    "DENDRIFORM_STAR",
    "commutator",
]


def commutator(parts):
    """The parts of [x, y] = x * y - y * x, given those of *."""
    return parts + tuple((-sign, name, not flipped) for sign, name, flipped in parts)


#: x o y = x |> y - y <| x, the vertical pre-Lie product of an L-dendriform algebra
VERTICAL = ((1, "tri_r", False), (-1, "tri_l", True))
#: x . y = x |> y + x <| y, the horizontal pre-Lie product
HORIZONTAL = ((1, "tri_r", False), (1, "tri_l", False))
#: [x, y] = x o y - y o x, the sub-adjacent Lie bracket of a pre-Lie product
SUB_ADJACENT = commutator(((1, "circ", False),))
#: x * y = x > y + x < y, the associative sum of a dendriform algebra
DENDRIFORM_STAR = ((1, "succ", False), (1, "prec", False))

#: the ten derived operations of a quadri-algebra; a product may name one
#: listed before it, which :func:`quadri_derive` derives first
QUADRI_DERIVED = {
    "succ": ((1, "ne", False), (1, "se", False)),
    "prec": ((1, "nw", False), (1, "sw", False)),
    "vee": ((1, "se", False), (1, "sw", False)),
    "wedge": ((1, "ne", False), (1, "nw", False)),
    "star": ((1, "se", False), (1, "ne", False), (1, "nw", False), (1, "sw", False)),
    # x |> y = x se y - y nw x,  x <| y = x ne y - y sw x
    "tri_r": ((1, "se", False), (-1, "nw", True)),
    "tri_l": ((1, "ne", False), (-1, "sw", True)),
    # x o y = x se y + x sw y - y nw x - y ne x
    "circ": ((1, "se", False), (1, "sw", False), (-1, "nw", True), (-1, "ne", True)),
    # x . y = x se y + x ne y - y nw x - y sw x
    "bullet": ((1, "se", False), (1, "ne", False), (-1, "nw", True), (-1, "sw", True)),
    # [x, y] = x * y - y * x
    "bracket": commutator(((1, "star", False),)),
}

_LD = ("tri_r", "tri_l")


def _tag(name: str, alg: Algebra) -> str:
    return f"{name}({alg.class_tag})" if alg.class_tag else name


def _derived(alg: Algebra, name: str, needs: tuple[str, ...], products, via=()) -> Algebra:
    """The algebra of the derived ``products`` (op -> parts) of the tables
    ``needs`` of ``alg``, looked up in that order, which may name the
    products ``via`` ((op, parts) pairs, derived first and not kept)."""
    tables = {op: alg.op(op) for op in needs}
    for op, parts in via:
        tables[op] = derive(tables, parts)
    ops = {op: derive(tables, parts) for op, parts in products.items()}
    return Algebra(alg.dim, ops, _tag(name, alg))


def sub_adjacent_lie(alg: Algebra) -> Algebra:
    """Commutator bracket [x,y] = x o y - y o x of a pre-Lie product."""
    return _derived(alg, "sub_adjacent_lie", ("circ",), {"bracket": SUB_ADJACENT})


def horizontal_prelie(alg: Algebra) -> Algebra:
    """x . y = x |> y + x <| y."""
    return _derived(alg, "horizontal_prelie", _LD, {"bullet": HORIZONTAL})


def vertical_prelie(alg: Algebra) -> Algebra:
    """x o y = x |> y - y <| x."""
    return _derived(alg, "vertical_prelie", _LD, {"circ": VERTICAL})


def transpose(alg: Algebra) -> Algebra:
    """The transpose structure: |> unchanged,  x <|' y = -(y <| x)."""
    products = {"tri_r": ((1, "tri_r", False),), "tri_l": ((-1, "tri_l", True),)}
    return _derived(alg, "transpose", _LD, products)


def dendriform_to_ldend(alg: Algebra) -> Algebra:
    """Any dendriform algebra is L-dendriform under a straight renaming."""
    products = {"tri_r": ((1, "succ", False),), "tri_l": ((1, "prec", False),)}
    return _derived(alg, "dendriform_to_ldend", ("succ", "prec"), products)


def quadri_derive(alg: Algebra, which: str) -> Algebra:
    """One derived operation of a quadri-algebra, named by its target op."""
    if which not in QUADRI_DERIVED:
        raise ValueError(
            f"unknown derived operation {which!r} (choose from {sorted(QUADRI_DERIVED)})"
        )
    parts = QUADRI_DERIVED[which]
    via = {op: QUADRI_DERIVED[op] for _, op, _ in parts if op in QUADRI_DERIVED}.items()
    return _derived(alg, f"quadri_derive[{which}]", ("se", "ne", "nw", "sw"), {which: parts}, via)
