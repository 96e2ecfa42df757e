"""The shipped fixture catalog.

Small algebras and operators with known, hand-expandable behaviour; the test
suite re-verifies every claim (class membership, operator identities) before
anything else relies on them.  Tables are written out literally so fixture
provenance stays independent of the constructions under test.
"""

from __future__ import annotations

from .core import Algebra, LinearMap, algebra, linmap, zero_algebra
from .functors import horizontal_prelie, sub_adjacent_lie, vertical_prelie

__all__ = ["CATALOG_NAMES", "build", "catalog_files"]


def z2() -> Algebra:
    """Two-dimensional zero algebra (every product vanishes)."""
    return zero_algebra(2, ("circ",), "Z2")


def p1() -> Algebra:
    """One-dimensional: e1 o e1 = e1."""
    return algebra(1, {"circ": [(1, 1, 1, 1)]}, "P1")


def p2() -> Algebra:
    """Two-dimensional pre-Lie (and associative): e1 o e1 = e1, e1 o e2 = e2."""
    return algebra(2, {"circ": [(1, 1, 1, 1), (1, 2, 2, 1)]}, "P2")


def n2() -> Algebra:
    """Two-dimensional non-pre-Lie: e1 o e1 = e2, e1 o e2 = e1."""
    return algebra(2, {"circ": [(1, 1, 2, 1), (1, 2, 1, 1)]}, "N2")


def l2() -> Algebra:
    """Two-dimensional Lie algebra: [e1, e2] = e2 = -[e2, e1]."""
    return algebra(2, {"bracket": [(1, 2, 2, 1), (2, 1, 2, -1)]}, "L2")


def rb2() -> LinearMap:
    """Rota-Baxter operator on P2: e1 -> 0, e2 -> e1."""
    return linmap([[0, 1], [0, 0]])


def ld2() -> Algebra:
    """Two-dimensional L-dendriform:
    e2 |> e1 = e1,  e2 |> e2 = e2,  e2 <| e1 = -e1, all else 0."""
    return algebra(
        2,
        {
            "tri_r": [(2, 1, 1, 1), (2, 2, 2, 1)],
            "tri_l": [(2, 1, 1, -1)],
        },
        "LD2",
    )


def d1() -> Algebra:
    """One-dimensional dendriform: e1 > e1 = e1, e1 < e1 = 0."""
    return algebra(1, {"succ": [(1, 1, 1, 1)], "prec": []}, "D1")


def _ld2_double(part: int):
    """Part ``part`` of LD2's canonical double solution (vertical algebra,
    horizontal algebra, tensor); only these fixtures load ``ybe``."""
    from .ybe import canonical_double_solution

    return canonical_double_solution(ld2())[part]


#: fixture name -> builder, in catalog order
_BUILDERS = {
    "Z2": z2, "P1": p1, "P2": p2, "N2": n2, "L2": l2,
    "RB2": rb2, "LD2": ld2, "D1": d1,
    "LD2_VERT": lambda: vertical_prelie(ld2()),
    "LD2_HOR": lambda: horizontal_prelie(ld2()),
    "LD2_LIE": lambda: sub_adjacent_lie(vertical_prelie(ld2())),
    "LD2_DOUBLE_VERT": lambda: _ld2_double(0),
    "LD2_DOUBLE_HOR": lambda: _ld2_double(1),
    "LD2_CANONICAL_R": lambda: _ld2_double(2),
}

CATALOG_NAMES = tuple(_BUILDERS)


def build(name: str):
    """The catalog object for a fixture name (Algebra, LinearMap or Tensor2)."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown catalog fixture {name!r} (choose from {CATALOG_NAMES})")
    return _BUILDERS[name]()


def catalog_files(name: str) -> list[tuple[str, object]]:
    """(filename, object) pairs the CLI writes for a fixture name."""
    obj = build(name)
    stem = name.lower()
    if isinstance(obj, Algebra):
        return [(f"{stem}.alg.json", obj)]
    if isinstance(obj, LinearMap):
        return [(f"{stem}.map.json", obj)]
    return [(f"{stem}.tensor.json", obj)]
