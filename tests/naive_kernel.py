"""Independent naive oracle for the integer kernel's scaling of grids.

Kept independent of the package: it imports the standard library only, and
it knows a linear map only as an object with an ``entries`` attribute.  It
walks a grid recursively, row by row, and decides at each row whether it
holds entries or further rows from the row's first element.  Grids need not
be rectangular here.  The package instead reads one shape per grid, flattens
it in one pass and nests the scaled entries again, so agreement between the
two, nesting included, is a meaningful cross-check.

It also holds the grid and vector helpers the tests build inputs and
oracles with: ``nest``, ``vec_add`` and ``vec_sub``.
"""

import math


def _rows(grid):
    return grid.entries if hasattr(grid, "entries") else grid


def _is_leaf_row(row) -> bool:
    return not row or not (isinstance(row[0], (tuple, list)) or hasattr(row[0], "entries"))


def _denominators(grid, out: set):
    grid = _rows(grid)
    if _is_leaf_row(grid):
        out.update(x.denominator for x in grid)
    else:
        for sub in grid:
            _denominators(sub, out)


def _scaled(grid, d: int):
    grid = _rows(grid)
    if _is_leaf_row(grid):
        return tuple(x.numerator * (d // x.denominator) for x in grid)
    return tuple(_scaled(sub, d) for sub in grid)


def naive_clear_denominators(*grids):
    """``(d, copies)``: d is the least common denominator of all entries of
    ``grids``, and each copy is its grid with maps replaced by their rows and
    every entry x replaced by the int d * x."""
    denominators = set()
    for grid in grids:
        _denominators(grid, denominators)
    d = math.lcm(*denominators)
    return d, tuple(_scaled(grid, d) for grid in grids)


def naive_max_abs(grid) -> int:
    """Largest absolute entry of a nested grid of ints (0 when empty)."""
    if _is_leaf_row(grid):
        return max(map(abs, grid), default=0)
    return max((naive_max_abs(sub) for sub in grid), default=0)


def nest(flat, dim: int, rank: int) -> tuple:
    """The dim^rank grid of tuples whose row-major entries are ``flat``."""
    grid = tuple(flat)
    for _ in range(rank - 1):
        grid = tuple(grid[i:i + dim] for i in range(0, len(grid), dim))
    return grid


def vec_add(x, y) -> tuple:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vec_sub(x, y) -> tuple:
    return tuple(a - b for a, b in zip(x, y, strict=True))
