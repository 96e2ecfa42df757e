"""Exact linear and multilinear algebra over the rationals.

Based vector spaces, multiplication tables (structure constants), linear
maps, rank-2/3 tensors and bilinear forms, all with ``fractions.Fraction``
entries.  Floating point never enters; equality is always exact.  Every
value is immutable after construction and every function is pure, so values
can be shared freely across threads.

Indexing is 0-based internally.  File formats and counterexample reports use
1-based basis indices (see :mod:`splitalg.fileio` and :mod:`splitalg.axioms`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, compress, groupby, product, repeat
from operator import add, attrgetter, eq, itemgetter, lshift, neg, sub
from types import MappingProxyType
from typing import ClassVar, Iterable, Mapping, Sequence

#: Closed vocabulary of operation names an algebra may carry.
OP_NAMES = (
    "circ",     # pre-Lie / associative product
    "bullet",   # horizontal pre-Lie product
    "tri_r",    # L-dendriform right-triangle product
    "tri_l",    # L-dendriform left-triangle product
    "succ",     # dendriform "greater" product
    "prec",     # dendriform "less" product
    "se",       # quadri south-east
    "ne",       # quadri north-east
    "nw",       # quadri north-west
    "sw",       # quadri south-west
    "bracket",  # Lie bracket
    "star",     # associative sum product
    "vee",      # quadri-derived dendriform "or"
    "wedge",    # quadri-derived dendriform "and"
)


class UnknownOperation(KeyError):
    """Operation name outside the vocabulary or absent from an algebra."""


class DimensionMismatch(ValueError):
    """Operands whose dimensions do not line up."""


class SingularMap(ArithmeticError):
    """A square map that was required to be invertible is not."""


class PreconditionFailed(ValueError):
    """A construction's mathematical precondition does not hold."""


def is_int(value) -> bool:
    """An int that is not a bool (``True`` is an int subclass, not a number
    here)."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_size(value, what: str):
    """Refuse a dimension, row or column count that is not an int (a bool
    included)."""
    if not is_int(value):
        raise TypeError(f"{what} must be an int, got {value!r}")


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or string like ``-3/4`` to an exact rational.

    Floats and booleans are rejected: this workbench never rounds, and never
    reads ``True`` as 1.  So are strings with an exponent, whose value
    ``Fraction`` would expand: ``1e1000000`` is a 3.3-million-bit integer.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"exponent notation in {value!r} is not accepted")
    if is_int(value) or isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


# ---------------------------------------------------------------------------
# dense grids
#
# Every value here is a dense grid of exact entries, nested one tuple level
# per axis: a table is dim^3, a map rows x cols, a tensor dim^rank.  Users
# and files give grids as sparse 1-based ``(*index, value)`` rows.

def _leaves(grid, rank: int) -> Iterable:
    """The entries of a grid nested ``rank`` deep, in row-major order."""
    for _ in range(rank - 1):
        grid = chain.from_iterable(grid)
    return grid


def _reshape(flat: Iterable, shape: Sequence[int]) -> tuple:
    """The grid of ``shape`` whose row-major entries are ``flat`` (an axis of
    size 0 gives empty rows)."""
    for axis in range(len(shape) - 1, 0, -1):
        size = shape[axis]
        flat = zip(*[iter(flat)] * size) if size else repeat((), math.prod(shape[:axis]))
    return tuple(flat)


def _has_shape(grid, shape: Sequence[int], kinds: set) -> bool:
    """Whether ``grid`` is nested to exactly ``shape``, of rank 2 or more;
    the types of its rows at every level above the entries are added to
    ``kinds``."""
    n, *rest = shape
    if len(grid) != n:
        return False
    kinds.update(map(type, grid))
    if len(rest) > 1:
        return all(_has_shape(sub, rest, kinds) for sub in grid)
    return all(len(row) == rest[0] for row in grid)


def check_grid(grid, shape: Sequence[int], mismatch: str, what: str) -> tuple:
    """Refuse ``grid`` unless it is nested to exactly ``shape``, raising
    DimensionMismatch(``mismatch``), and each entry is an exact rational: a
    Fraction or an int that is not a bool, since floats would round and
    ``True`` is not the number 1 here.  Return it nested in tuples: the grid
    itself when it already is, else a copy, which later changes to a source
    list miss."""
    kinds = {type(grid)}
    if not _has_shape(grid, shape, kinds):
        raise DimensionMismatch(mismatch)
    for x in _leaves(grid, len(shape)):
        if type(x) is not Fraction and type(x) is not int:
            raise TypeError(f"{what} holds an entry that is not an exact rational: {x!r}")
    return grid if kinds == {tuple} else _reshape(_leaves(grid, len(shape)), shape)


def _entrywise(op, rank: int, *grids) -> tuple:
    """The grid whose entries are ``op`` of the corresponding entries of
    ``grids``, each nested ``rank`` deep (iterables are read as grids)."""
    if rank == 1:
        return tuple(map(op, *grids))
    return tuple(_entrywise(op, rank - 1, *rows) for rows in zip(*grids))


def _is_symmetric(grid, skew: bool) -> bool:
    """Whether a square grid equals its transpose, or its negated transpose
    when ``skew``."""
    flipped = _leaves(zip(*grid), 2)
    return all(map(eq, _leaves(grid, 2), map(neg, flipped) if skew else flipped))


def grid_nonzero(grid, shape: Sequence[int]):
    """An iterator over the 1-based (index, value) pairs of the nonzero
    entries of a grid of ``shape``, in lexicographic order."""
    indices = product(*(range(1, n + 1) for n in shape))
    return compress(zip(indices, _leaves(grid, len(shape))), _leaves(grid, len(shape)))


def grid_from_values(values: Mapping[tuple, Fraction], shape: Sequence[int]) -> tuple:
    """The grid of ``shape`` holding ``values`` (1-based index -> entry) and
    zero at every other index."""
    indices = product(*(range(1, n + 1) for n in shape))
    return _reshape(map(values.get, indices, repeat(_ZERO)), shape)


def _grid_of(rows, rank: int, what: str, part: str = "") -> tuple:
    """The grid of dense ``rows`` nested ``rank`` deep, as the API
    constructors take them, with every entry coerced by :func:`rat`.  A
    level above the entries that is not iterable is refused as a TypeError
    naming ``what`` (and ``part``, " row" below the top), not left to fail
    inside Python."""
    if not isinstance(rows, Iterable):
        raise TypeError(f"{what}{part} must be iterable, got {rows!r}")
    return tuple(map(rat, rows)) if rank == 1 else tuple(_grid_of(row, rank - 1, what, " row")
                                                         for row in rows)


def grid_from_rows(dim: int, rank: int, rows: Iterable[Sequence], what: str) -> tuple:
    """The dense dim^rank grid of sparse 1-based ``(*index, value)`` rows, as
    the API constructors take them (:mod:`splitalg.fileio` reads a file's
    rows itself, naming each refused row by its position).  A ``dim`` that
    is not an int, rows that are not iterable, a row that is not a sequence
    or an index part that is not an int is a TypeError; a row of the wrong
    length or an index given twice, as a duplicate ``what``, a ValueError,
    and an index part outside 1..dim a DimensionMismatch."""
    check_size(dim, "dimension")
    if not isinstance(rows, Iterable):
        raise TypeError(f"{what} rows must be iterable, got {rows!r}")
    values = {}
    for row in rows:
        if not isinstance(row, Sequence):
            raise TypeError(f"{what} row must be a sequence, got {row!r}")
        if len(row) != rank + 1:
            raise ValueError(f"{what} row has {len(row)} fields, not {rank + 1}")
        index = tuple(row[:rank])
        if not all(map(is_int, index)):
            raise TypeError(f"index ({','.join(map(repr, index))}) must be ints")
        if not all(1 <= t <= dim for t in index):
            raise DimensionMismatch(f"index ({','.join(map(str, index))}) outside 1..{dim}")
        if index in values:
            raise ValueError(f"duplicate {what} at ({','.join(map(str, index))})")
        values[index] = rat(row[rank])
    return grid_from_values(values, (dim,) * rank)


# ---------------------------------------------------------------------------
# vectors

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def vector(entries: Iterable[int | str | Fraction]) -> Vector:
    return tuple(rat(x) for x in entries)


def zero_vector(dim: int) -> Vector:
    return (_ZERO,) * dim


def basis_vector(dim: int, i: int) -> Vector:
    return tuple(_ONE if k == i else _ZERO for k in range(dim))


def _dot(x: Iterable, y: Iterable) -> Fraction:
    """Exact  sum_k x_k y_k  as a Fraction, skipping zero factors."""
    return sum((a * b for a, b in zip(x, y) if a and b), _ZERO)


# ---------------------------------------------------------------------------
# multiplication tables (structure constants)

#: entry [i][j][k] is the e_k coefficient of e_i * e_j.
Table = tuple[tuple[Vector, ...], ...]


def zero_table(dim: int) -> Table:
    return tuple(tuple(zero_vector(dim) for _ in range(dim)) for _ in range(dim))


def derive(tables: Mapping[str, Table], parts: Sequence) -> Table:
    """The table of a derived product written as ``(sign, name, flipped)``
    parts: entry [i][j] is the sum over the parts of sign * tables[name][i][j],
    read as tables[name][j][i] when ``flipped``, each sign +1 or -1.  Entries
    may be Fractions or ints, and without flipped parts the grids need not be
    cubic (a matrix family, rows [a][j], sums the same way)."""
    views = [(sign, tuple(zip(*tables[name])) if flipped else tables[name])
             for sign, name, flipped in parts]
    (sign, first), rest = views[0], views[1:]
    out = []
    for i, plane in enumerate(first):
        row = []
        for j, vec in enumerate(plane):
            if sign < 0:
                vec = tuple(map(neg, vec))
            for s, t in rest:
                vec = tuple(map(add if s > 0 else sub, vec, t[i][j]))
            row.append(vec)
        out.append(tuple(row))
    return tuple(out)


def table_apply(table: Table, x: Vector, y: Vector) -> Vector:
    """Bilinear contraction  sum_ij x_i y_j table[i][j]."""
    out = [_ZERO] * len(table[0][0])
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, t in enumerate(table[i][j]):
                if t:
                    out[k] += c * t
    return tuple(out)


# ---------------------------------------------------------------------------
# values that keep derived forms

class _Value:
    """Base of the frozen values that keep forms derived on first use, each
    a ``cached_property``: an int form, compiled identities.  Copies and
    pickles are rebuilt from the fields, as ``dataclasses.replace`` builds
    its value, so every kept form stays behind."""

    def __reduce__(self):
        values = (getattr(self, f.name) for f in fields(self))
        return type(self), tuple(dict(v) if type(v) is MappingProxyType else v for v in values)


def _int_grid(grid) -> tuple[int, tuple, int]:
    """The int form a tensor, map or form keeps: d, the least common
    denominator of the grid's entries, the grid scaled by it to ints, and
    its largest absolute entry."""
    d, ints = clear_denominators(grid)
    return d, ints, max_abs(ints)


# ---------------------------------------------------------------------------
# algebras

@dataclass(frozen=True)
class Algebra(_Value):
    """A based vector space of dimension ``dim`` with named multiplication
    tables.  ``class_tag`` is unverified provenance metadata, never
    substitutes for an axioms check, and is ignored by equality."""

    dim: int
    ops: Mapping[str, Table]
    class_tag: str | None = None

    def __post_init__(self):
        check_size(self.dim, "dimension")
        if self.dim < 1:
            raise DimensionMismatch(f"dimension must be positive, got {self.dim}")
        ops = {}
        for name, table in self.ops.items():
            if name not in OP_NAMES:
                raise UnknownOperation(name)
            ops[name] = check_grid(table, (self.dim,) * 3, f"table {name!r} is not {self.dim}^3",
                                   f"table {name!r}")
        object.__setattr__(self, "ops", MappingProxyType(ops))

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return self.dim == other.dim and dict(self.ops) == dict(other.ops)

    def __hash__(self):
        return hash((self.dim, frozenset(self.ops.items())))

    def op(self, name: str) -> Table:
        if name not in OP_NAMES:
            raise UnknownOperation(name)
        try:
            return self.ops[name]
        except KeyError:
            have = ", ".join(sorted(self.ops)) or "none"
            raise UnknownOperation(
                f"algebra has no operation {name!r} (has: {have})"
            ) from None

    def has_op(self, name: str) -> bool:
        return name in self.ops

    @cached_property
    def _int_form(self) -> tuple[int, dict, dict, dict]:
        """d_A, the least common denominator of all the tables, the tables
        scaled by it to ints, each with its largest absolute entry (key ->
        (table, bound), see :meth:`scaled`), the vectors of those tables
        (vector -> itself), so that equal vectors are one tuple, and what
        checks compiled or built from them (see :meth:`compiled`)."""
        d, tables = clear_denominators(tuple(self.ops.values()))
        vectors: dict = {}
        return d, {name: _shared(t, vectors) for name, t in zip(self.ops, tables)}, vectors, {}

    def _entries(self, keys) -> list[tuple[Table, int]]:
        """The int tables named by ``keys`` with their bounds, each derived
        on first use and kept with the value under its own key."""
        _, tables, vectors, _ = self._int_form
        for key in keys:
            if key not in tables:
                names = [key] if isinstance(key, str) else [name for _, name, _ in key]
                for name in names:
                    self.op(name)
                tables[key] = _shared(derive({name: tables[name][0] for name in names}, key),
                                      vectors)
        return list(map(tables.__getitem__, keys))

    def scaled(self, *keys) -> tuple[int, tuple[Table, ...]]:
        """d_A and the int tables d_A * t named by ``keys``: op names, or the
        ``(sign, name, flipped)`` parts of derived products of the ops (see
        :func:`derive`).  Each is built on first use and kept with the value,
        so the tables are scaled once and a derived product is summed once
        per algebra, however many checks read them."""
        return self._int_form[0], tuple(table for table, _ in self._entries(keys))

    def compiled(self, key, build):
        """``build()``, called on first use and kept with the int form under
        ``key``: the identities a class check compiled from the int tables,
        or the O-operator rows of the modules an equivalence report checks."""
        kept = self._int_form[3]
        if key not in kept:
            kept[key] = build()
        return kept[key]

    def entry_bound(self, *keys) -> int:
        """The largest absolute entry of the int tables named by ``keys`` (see
        :meth:`scaled`), 0 for none, kept with each table under its key."""
        return max((bound for _, bound in self._entries(keys)), default=0)

    def support(self, key, swapped: bool = False) -> tuple:
        """The nonzero vectors of the int table named by ``key`` (see
        :meth:`scaled`) by row: [u] -> the pairs (v, table[u][v]) whose vector
        is nonzero, by increasing v; with ``swapped``, by the second input,
        [v] -> the pairs (u, table[u][v]).  Built on first use and kept with
        the int form, so no slot sum scans a table's zero vectors."""
        table = self.scaled(key)[1][0]
        return self.compiled((key, swapped), lambda: tuple(
            tuple((v, vec) for v, vec in enumerate(row) if any(vec))
            for row in (zip(*table) if swapped else table)))


def _shared(table: Table, vectors: dict) -> tuple[Table, int]:
    """``table`` with each vector replaced by the equal one in ``vectors``,
    where it is added when new, and its largest absolute entry."""
    table = tuple(tuple(vectors.setdefault(vec, vec) for vec in plane) for plane in table)
    return table, max_abs(table)


def algebra(
    dim: int,
    sparse_ops: Mapping[str, Iterable[Sequence]],
    class_tag: str | None = None,
) -> Algebra:
    """Build an algebra from sparse 1-based ``(i, j, k, value)`` tables (see
    :func:`grid_from_rows`); a refused row is refused with its op named."""
    if not isinstance(sparse_ops, Mapping):
        raise TypeError(f"ops must be a mapping of op names to rows, got {sparse_ops!r}")
    tables = {}
    for name, rows in sparse_ops.items():
        try:
            tables[name] = grid_from_rows(dim, 3, rows, "structure constant")
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise type(exc)(f"table {name!r}: {exc}") from None
    return Algebra(dim, tables, class_tag)


def zero_algebra(dim: int, op_names: Sequence[str], class_tag: str | None = None) -> Algebra:
    return Algebra(dim, {name: zero_table(dim) for name in op_names}, class_tag)


def rename_ops(alg: Algebra, mapping: Mapping[str, str]) -> Algebra:
    """Rename operations, e.g. view a dendriform algebra as L-dendriform."""
    ops = {mapping.get(name, name): table for name, table in alg.ops.items()}
    if len(ops) != len(alg.ops):
        raise ValueError(f"renaming {mapping!r} collapses two operations")
    return Algebra(alg.dim, ops, alg.class_tag)


def merge_ops(*algs: Algebra, class_tag: str | None = None) -> Algebra:
    """Combine the operations of several same-dimensional algebras."""
    if not algs:
        raise DimensionMismatch("merging no algebras gives no dimension")
    dim = algs[0].dim
    ops: dict[str, Table] = {}
    for a in algs:
        if a.dim != dim:
            raise DimensionMismatch("cannot merge algebras of different dimensions")
        for name, table in a.ops.items():
            if name in ops:
                raise ValueError(f"operation {name!r} present twice in merge")
            ops[name] = table
    return Algebra(dim, ops, class_tag)


def multiply(alg: Algebra, op: str, x: Sequence, y: Sequence) -> Vector:
    """Product of two coefficient vectors under the named operation."""
    if len(x) != alg.dim or len(y) != alg.dim:
        raise DimensionMismatch(
            f"vectors of length {len(x)}, {len(y)} in dimension {alg.dim}"
        )
    return table_apply(alg.op(op), vector(x), vector(y))


# ---------------------------------------------------------------------------
# linear maps

@dataclass(frozen=True)
class LinearMap(_Value):
    """Exact matrix between two based spaces; column j is the image of the
    j-th source basis vector."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]
    #: the int form of the entries (:func:`_int_grid`), built on first use
    _ints = cached_property(lambda self: _int_grid(self.entries))

    def __post_init__(self):
        check_size(self.rows, "rows")
        check_size(self.cols, "cols")
        object.__setattr__(self, "entries", check_grid(
            self.entries, (self.rows, self.cols), "entry grid does not match rows x cols",
            "linear map"))

    @staticmethod
    def from_rows(entries: Iterable[Iterable]) -> "LinearMap":
        grid = _grid_of(entries, 2, "linear map")
        return LinearMap(len(grid), len(grid[0]) if grid else 0, grid)

    @staticmethod
    def identity(n: int) -> "LinearMap":
        return LinearMap(n, n, tuple(basis_vector(n, i) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "LinearMap":
        return LinearMap(rows, cols, tuple(zero_vector(cols) for _ in range(rows)))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(f"map takes length {self.cols}, got {len(v)}")
        return tuple(_dot(row, v) for row in self.entries)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (matrix product self @ other)."""
        if self.cols != other.rows:
            raise DimensionMismatch("composition shape mismatch")
        columns = [other.column(j) for j in range(other.cols)]
        entries = tuple(tuple(_dot(row, col) for col in columns) for row in self.entries)
        return LinearMap(self.rows, other.cols, entries)

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        return self.compose(other)

    def transpose(self) -> "LinearMap":
        return LinearMap(self.cols, self.rows, tuple(zip(*self.entries)) or ((),) * self.cols)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        if not isinstance(other, LinearMap):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("addition shape mismatch")
        return LinearMap(self.rows, self.cols, _entrywise(add, 2, self.entries, other.entries))

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self + (-other) if isinstance(other, LinearMap) else NotImplemented

    def __neg__(self) -> "LinearMap":
        return LinearMap(self.rows, self.cols, _entrywise(neg, 2, self.entries))

    def scale(self, c: int | str | Fraction) -> "LinearMap":
        return LinearMap(self.rows, self.cols, _entrywise(rat(c).__mul__, 2, self.entries))

    def rank(self) -> int:
        return _gauss_jordan([list(row) for row in self.entries], self.cols)

    def try_inverse(self) -> "LinearMap | None":
        """Gauss-Jordan inverse, or None when singular."""
        if not self.is_square:
            return None
        n = self.rows
        work = [list(row) + list(basis_vector(n, i)) for i, row in enumerate(self.entries)]
        if _gauss_jordan(work, n) < n:
            return None
        return LinearMap(n, n, tuple(tuple(row[n:]) for row in work))

    def inverse(self) -> "LinearMap":
        inv = self.try_inverse()
        if inv is None:
            raise SingularMap("map is not invertible")
        return inv

    @property
    def is_invertible(self) -> bool:
        return self.try_inverse() is not None


def _gauss_jordan(work: list[list], cols: int) -> int:
    """Reduce the first ``cols`` columns of the rows ``work`` in place to
    reduced row echelon form, exactly; return the number of pivots."""
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = _ONE / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def linmap(entries: Iterable[Iterable]) -> LinearMap:
    """Shorthand row-wise constructor with rational coercion."""
    return LinearMap.from_rows(entries)


def family_contract(family: Sequence[LinearMap], coeffs: Sequence) -> LinearMap:
    """Extend a basis-indexed matrix family linearly:  sum_i c_i family[i]."""
    if len(family) != len(coeffs):
        raise DimensionMismatch("family length does not match coefficient vector")
    if not family:
        raise DimensionMismatch("an empty family has no map shape")
    shape = family[0].rows, family[0].cols
    coefficients, grids = [], []
    for c, m in zip(map(rat, coeffs), family):  # zero terms skip the shape check
        if c:
            if (m.rows, m.cols) != shape:
                raise DimensionMismatch("addition shape mismatch")
            coefficients.append(c)
            grids.append(m.entries)
    if not coefficients:
        return LinearMap.zero(*shape)
    return LinearMap(*shape, _entrywise(lambda *xs: _dot(coefficients, xs), 2, *grids))


def dual_rep(family: Sequence[LinearMap]) -> tuple[LinearMap, ...]:
    """Dual of a matrix family: rho*(e_i) = -(rho(e_i))^T in the dual basis."""
    size = None
    for m in family:
        if not m.is_square or (size is not None and m.rows != size):
            raise DimensionMismatch("dual_rep needs a family of equal square matrices")
        size = m.rows
    return tuple(-(m.transpose()) for m in family)


# ---------------------------------------------------------------------------
# tensors

@dataclass(frozen=True)
class _Tensor(_Value):
    """A dense dim^rank coefficient array; subclasses fix ``rank`` and the
    message for a grid of the wrong shape."""

    dim: int
    entries: tuple
    rank: ClassVar[int]
    _mismatch: ClassVar[str]
    #: the int form of the entries (:func:`_int_grid`), built on first use
    _ints = cached_property(lambda self: _int_grid(self.entries))

    def __post_init__(self):
        check_size(self.dim, "dimension")
        object.__setattr__(self, "entries", check_grid(
            self.entries, (self.dim,) * self.rank, self._mismatch, "tensor"))

    @classmethod
    def _built(cls, dim: int, entries: tuple):
        """The tensor of a grid a kernel has built: already nested in tuples
        to dim^rank and holding only Fractions, so it is not checked again."""
        tensor = object.__new__(cls)
        vars(tensor).update(dim=dim, entries=entries)
        return tensor

    @property
    def is_zero(self) -> bool:
        return not any(_leaves(self.entries, self.rank))

    def nonzero_entries(self):
        """Yield 1-based (index, value) in lexicographic order."""
        return grid_nonzero(self.entries, (self.dim,) * self.rank)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatch("tensor dimensions differ")
        return type(self)(self.dim, _entrywise(add, self.rank, self.entries, other.entries))

    def __sub__(self, other):
        return self + (-other) if type(other) is type(self) else NotImplemented

    def __neg__(self):
        return type(self)(self.dim, _entrywise(neg, self.rank, self.entries))


@dataclass(frozen=True)
class Tensor2(_Tensor):
    """Element of A (x) A; entry [i][j] is the coefficient of e_i (x) e_j."""

    rank = 2
    _mismatch = "tensor entries are not dim x dim"

    @property
    def is_symmetric(self) -> bool:
        return _is_symmetric(self.entries, skew=False)

    @property
    def is_skew(self) -> bool:
        return _is_symmetric(self.entries, skew=True)


def tensor2(dim: int, sparse: Iterable[Sequence] = ()) -> Tensor2:
    """Build from sparse 1-based ``(i, j, value)`` rows."""
    return Tensor2(dim, grid_from_rows(dim, 2, sparse, "entry"))


def tensor2_from_entries(entries: Iterable[Iterable]) -> Tensor2:
    grid = _grid_of(entries, 2, "tensor")
    return Tensor2(len(grid), grid)


@dataclass(frozen=True)
class Tensor3(_Tensor):
    """Element of A (x) A (x) A as a dense rank-3 coefficient array."""

    rank = 3
    _mismatch = "tensor entries are not dim^3"

    def nonzero_count(self) -> int:
        return sum(1 for _ in self.nonzero_entries())


def tensor3_from_entries(entries) -> Tensor3:
    grid = _grid_of(entries, 3, "tensor")
    return Tensor3(len(grid), grid)


def tensor3(dim: int, sparse: Iterable[Sequence] = ()) -> Tensor3:
    """Build from sparse 1-based ``(i, j, k, value)`` rows."""
    return Tensor3(dim, grid_from_rows(dim, 3, sparse, "entry"))


# ---------------------------------------------------------------------------
# bilinear forms

@dataclass(frozen=True)
class BilinearForm(_Value):
    """Gram-matrix bilinear form: B(e_i, e_j) = gram[i][j]."""

    dim: int
    gram: tuple[tuple[Fraction, ...], ...]
    #: the int form of the Gram matrix (:func:`_int_grid`), built on first use
    _ints = cached_property(lambda self: _int_grid(self.gram))

    def __post_init__(self):
        check_size(self.dim, "dimension")
        object.__setattr__(self, "gram", check_grid(
            self.gram, (self.dim, self.dim), "gram matrix is not dim x dim", "gram matrix"))

    def evaluate(self, u: Sequence, v: Sequence) -> Fraction:
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("vector length does not match form dimension")
        return _dot(u, [_dot(row, v) for row in self.gram])

    @property
    def is_symmetric(self) -> bool:
        return _is_symmetric(self.gram, skew=False)

    @property
    def is_skew(self) -> bool:
        return _is_symmetric(self.gram, skew=True)

    @property
    def is_nondegenerate(self) -> bool:
        return LinearMap(self.dim, self.dim, self.gram).is_invertible


def bilinear_form(entries: Iterable[Iterable]) -> BilinearForm:
    grid = _grid_of(entries, 2, "gram matrix")
    return BilinearForm(len(grid), grid)


# ---------------------------------------------------------------------------
# tensor machinery

def exchange(r: Tensor2) -> Tensor2:
    """Swap the two tensor factors: e_i (x) e_j -> e_j (x) e_i."""
    return Tensor2(r.dim, tensor_to_map(r).entries)


def slot_product(
    r: Tensor2,
    r_slots: tuple[int, int],
    s: Tensor2,
    s_slots: tuple[int, int],
    alg: Algebra,
    op: str,
) -> Tensor3:
    """Product of two rank-2 tensors placed into slots of A (x) A (x) A.

    ``r_slots`` says which slots r's two components occupy (1-based, first
    component first), likewise ``s_slots``; the pairs must share exactly one
    slot.  In the shared slot the left argument's component multiplies the
    right argument's component under ``op``; each unshared slot carries the
    corresponding tensor's remaining component.  For instance slots (1,2) and
    (1,3) give  sum a_i*a_j (x) b_i (x) b_j.
    """
    return slot_sum(((1, r, r_slots, s, s_slots, op),), alg)


def tensor_to_map(r: Tensor2) -> LinearMap:
    """The map A* -> A identified with r:  e_i* -> sum_k r[i][k] e_k."""
    return LinearMap(r.dim, r.dim, r.entries).transpose()


def map_to_tensor(T: LinearMap) -> Tensor2:
    """Inverse identification of :func:`tensor_to_map` (square maps only)."""
    if not T.is_square:
        raise DimensionMismatch("only square maps identify with rank-2 tensors")
    return Tensor2(T.rows, T.transpose().entries)


def form_from_invertible_map(T: LinearMap) -> BilinearForm:
    """Nondegenerate form induced by an invertible map T: A* -> A, namely
    B(u, v) = <T^-1 u, v>.  In coordinates gram[i][j] = (T^-1)^T[i][j]."""
    if not T.is_square:
        raise DimensionMismatch("form requires a square map")
    inv = T.inverse()
    return BilinearForm(T.rows, inv.transpose().entries)


def map_from_form(B: BilinearForm) -> LinearMap:
    """Invert the pairing identification: the T with <T^-1 u, v> = B(u, v)."""
    inv = LinearMap(B.dim, B.dim, B.gram).transpose().try_inverse()
    if inv is None:
        raise SingularMap("form is degenerate")
    return inv


# ---------------------------------------------------------------------------
# integer kernel
#
# The identity checks and tensor equations evaluate on Python ints.  Every
# exact value keeps one int form, built on first use and left behind by its
# copies and pickles (:class:`_Value`).  An algebra's holds its tables scaled
# by d_A with every derived table summed once from them, each with its
# largest entry and, once a slot sum asks, its nonzero vectors by row and by
# column (:meth:`Algebra.scaled`, :meth:`Algebra.support`).  A tensor's,
# map's or form's holds its own denominator, its grid scaled by it and its
# largest entry (:func:`_int_grid`), so a call that reads the same r, T or B
# again scales nothing.  Every identity is homogeneous in each kind of
# factor, so the true residual is the int residual divided by the product of
# its factors' denominators: d_A**2 for a class identity, d_A * d_B for a
# form identity, d_A * d_t**2 for a tensor equation.  A
# module's action tables are scaled by the lcm d of their denominators and
# d_A, and the base tables rescaled by d / d_A when that is not 1, so a module
# identity divides by d**2 and an O-operator identity by d_t**2 * d; a module
# value keeps these ints once, as its O-operator rows.  The scaling is one
# flat pass per grid, as in the dense-grid layer: each grid is rectangular,
# so it is flattened at C speed, scaled as one list and nested again.
# Vectors are packed into one int (Kronecker substitution), so a linear
# combination of vectors costs one big-int multiply-add per vector instead
# of one per entry.  Two vectors packed at strides 1 and n multiply
# to their outer product, packed as an n x n plane in row-major order: the
# slot products keep one such plane per slot-1 component, and a block of a
# term costs one big-int multiply-add (see :func:`slot_sum`).  An identity
# check packs the residuals of a line of basis tuples, all values of one free
# slot, into one such plane and splits its nonzero rows, one line function per
# identity (:func:`splitalg.axioms._compile`), compiled once per algebra or
# module value (:meth:`Algebra.compiled`).  Neither kernel keeps a table with
# its two inputs swapped: the slot sums read the kept support of that view,
# which holds the table's own vectors, and the compiler makes the view with
# ``zip`` in its packings.  Each packing is exact while every field of the
# result stays below 2**(width - 1) in absolute value; :func:`field_width`
# gives the width for a bound on the result's fields, found from the
# factors' largest entries.

def _flat(grid) -> tuple[list[int], list]:
    """The shape of a grid of tuples or lists, read from the first element at
    each level, and its entries; refused unless they match."""
    shape, flat = [len(grid)], grid
    while grid and isinstance(grid[0], (tuple, list)):
        grid = grid[0]
        flat = chain.from_iterable(flat)
        shape.append(len(grid))
    flat = list(flat)
    if len(flat) != math.prod(shape):
        raise DimensionMismatch(f"a grid of {len(flat)} entries is not {shape}")
    return shape, flat


def clear_denominators(grid, d: int = 1) -> tuple[int, tuple]:
    """Scale a grid of tuples or lists by the least common multiple of ``d``
    and the denominators of its entries.

    Returns that multiple and a copy of the grid, nested in tuples, with
    every entry x (a Fraction or an int) replaced by the int multiple * x.
    The grid must be rectangular: it is flattened, scaled and reshaped in one
    pass, and one whose entry count does not match the shape of its first
    elements raises DimensionMismatch.
    """
    shape, flat = _flat(grid)
    d = math.lcm(d, *set(map(attrgetter("denominator"), flat)))
    return d, _reshape([x.numerator * (d // x.denominator) for x in flat] if d > 1 else
                       [x.numerator for x in flat], shape)


def max_abs(grid) -> int:
    """Largest absolute entry of a rectangular grid of ints (0 when empty)."""
    return max(map(abs, _flat(grid)[1]), default=0)


def field_width(bound: int) -> int:
    """Bits per packed entry for entries of absolute value at most ``bound``."""
    return bound.bit_length() + 1


def pack(entries: Sequence[int], width: int) -> int:
    """One int holding ``entries``: sum_k entries[k] * 2**(k * width).  Any
    linear combination of packed vectors is the packed linear combination,
    as long as each result entry stays below 2**(width - 1) in absolute
    value (see :func:`field_width`)."""
    return sum(map(lshift, entries, range(0, width * len(entries), width)))


def unpack(packed: int, count: int, width: int) -> list[int]:
    """The ``count`` entries of a packed vector, inverse of :func:`pack`."""
    full = 1 << width
    half = full >> 1
    mask = full - 1
    out = []
    for _ in range(count):
        x = packed & mask
        if x >= half:
            x -= full
        out.append(x)
        packed = (packed - x) >> width
    return out


# ---------------------------------------------------------------------------
# slot products on ints

def _slot_layout(r_slots, s_slots, n: int) -> tuple[bool, bool, int, int, int]:
    """Whether r and s put their shared-slot component first, and the flat
    strides of the shared slot, r's other slot and s's other slot."""
    for pair in (r_slots, s_slots):
        if len(pair) != 2 or pair[0] == pair[1] or not set(pair) <= {1, 2, 3}:
            raise ValueError(f"invalid slot pair {pair!r}")
    shared_set = set(r_slots) & set(s_slots)
    if len(shared_set) != 1:
        raise ValueError(f"slot pairs {r_slots} and {s_slots} must share exactly one slot")
    (shared,) = shared_set
    r_other = r_slots[0] if r_slots[1] == shared else r_slots[1]
    s_other = s_slots[0] if s_slots[1] == shared else s_slots[1]
    stride = {1: n * n, 2: n, 3: 1}
    return (r_slots[0] == shared, s_slots[0] == shared,
            stride[shared], stride[r_other], stride[s_other])


def slot_sum(terms, alg: Algebra) -> Tensor3:
    """Signed sum of slot products (see :func:`slot_product`), evaluated on ints.

    ``terms`` are ``(sign, r, r_slots, s, s_slots, key)`` rows.  ``key``
    names a table by its key in the algebra's int form: an op name, or the
    ``(sign, name, flipped)`` parts of a derived product (see :func:`derive`).

    The products come from the algebra's int form, scaled by its d_A and
    derived once per value (:meth:`Algebra.scaled`), and so do their
    supports, the nonzero vectors of each row (:meth:`Algebra.support`):
    a term's blocks are enumerated from them and from the tensors' nonzero
    rows, and no zero product vector is scanned.  Each tensor keeps its own
    int form (d, grid, largest entry); d_t is the lcm of the distinct
    tensors' d, and a grid is rescaled to it only when its d differs.  Every
    term has degree 1 in the tables and 2 in the tensors, so the residual is
    the int sum / (d_A * d_t**2).

    The sum is kept as one packed int per slot-1 component i, holding the
    plane [i][j][k] at field j*n + k.  A term is a sum over the shared-slot
    components (u, v) of r's row R_u, s's row S_v and the product vector
    T_uv = table[u][v], placed in their slots; the two of them not in slot 1
    are packed at their slot's stride, so their big-int product is their
    outer product in the plane.  By the role in slot 1 a term adds
      r's other slot:  acc[x] += R_u[x] * sum_v S_v (x) T_uv,
      s's other slot:  acc[y] += S_v[y] * sum_u R_u (x) T_uv,
      the shared slot: acc[k] += T_uv[k] * (R_u (x) S_v),
    one multiply-add per block, not one per entry.  The second is the first
    with r and s swapped and the table's inputs swapped: it reads the
    table's support by column, whose pairs hold the table's own vectors, so
    no swapped table is built.  No field of the sum
    exceeds sum|sign| * n**2 * max|T| * max|t|**2 in absolute value, the
    maxima taken over the int tables and tensors (:func:`field_width`).
    """
    keys = dict.fromkeys(term[5] for term in terms)
    weight, n = sum(abs(term[0]) for term in terms) * alg.entry_bound(*keys), alg.dim
    layouts, tensors = [], {}
    for _, r, r_slots, s, s_slots, _ in terms:
        layouts.append(_slot_layout(r_slots, s_slots, n))
        if r.dim != n or s.dim != n:
            raise DimensionMismatch("tensor dimensions do not match the algebra")
        tensors[id(r)], tensors[id(s)] = r._ints, s._ints
    d_t = math.lcm(*(d for d, _, _ in tensors.values()))
    ints = {key: grid if d == d_t else _entrywise((d_t // d).__mul__, 2, grid)
            for key, (d, grid, _) in tensors.items()}
    t_bound = max((b * (d_t // d) for d, _, b in tensors.values()), default=0)
    bits = field_width(weight * n * n * t_bound ** 2)

    @cache
    def rows(key, first: bool, stride: int | None = None) -> tuple:
        """Tensor ``key``'s int rows by its shared-slot component, each
        packed at ``stride`` fields when one is given."""
        grid = ints[key] if first else tuple(zip(*ints[key]))
        if stride is None:
            return grid
        return tuple(pack(row, stride * bits) if any(row) else 0 for row in grid)

    @cache
    def nonzero(key, first: bool) -> tuple:
        """Whether each of tensor ``key``'s rows is nonzero."""
        return tuple(map(any, rows(key, first)))

    acc = [0] * n
    for (sign, r, _, s, _, key), (r_first, s_first, k_stride, r_stride, s_stride) in zip(
            terms, layouts):
        r_key, s_key = (id(r), r_first), (id(s), s_first)
        if swapped := s_stride == n * n:    # s's other slot is slot 1: r's layout, roles swapped
            r_key, s_key, r_stride, s_stride = s_key, r_key, s_stride, r_stride
        table, s_rows = alg.support(key, swapped), nonzero(*s_key)
        blocks = [(u, v, vec) for u in compress(range(n), nonzero(*r_key))
                  for v, vec in table[u] if s_rows[v]]
        if k_stride == n * n:       # acc[k] += T_uv[k] * (R_u (x) S_v)
            r_packed, s_packed = rows(*r_key, r_stride), rows(*s_key, s_stride)
            addends = [(vec, r_packed[u] * s_packed[v]) for u, v, vec in blocks]
        else:                       # acc[x] += R_u[x] * sum_v S_v (x) T_uv
            r_rows, s_packed, width = rows(*r_key), rows(*s_key, s_stride), k_stride * bits
            addends = [(r_rows[u], sum([s_packed[v] * pack(vec, width) for _, v, vec in group]))
                       for u, group in groupby(blocks, itemgetter(0))]
        for outer, inner in addends:
            if inner:
                for i in compress(range(n), outer):
                    acc[i] += sign * outer[i] * inner

    scale = alg.scaled()[0] * d_t ** 2
    zero_row = (_ZERO,) * n
    zero_plane = (zero_row,) * n

    def unpacked(plane: int) -> tuple:
        """The rows of a nonzero packed plane: split into packed rows first,
        so that only the nonzero rows are split into entries."""
        return tuple(tuple(Fraction(x, scale) if x else _ZERO for x in unpack(row, n, bits))
                     if row else zero_row for row in unpack(plane, n, n * bits))

    return Tensor3._built(n, tuple(unpacked(p) if p else zero_plane for p in acc))
