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
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, lshift, neg, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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


def _check_rationals(entries: Iterable, what: str):
    """Refuse ``entries`` unless each is a Fraction or an int that is not a
    bool: floats would round, and ``True`` is not the number 1 here."""
    for x in entries:
        if type(x) is not Fraction and type(x) is not int:
            raise TypeError(f"{what} holds an entry that is not an exact rational: {x!r}")


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


def vec_add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vec_sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def vec_neg(x: Vector) -> Vector:
    return tuple(-a for a in x)


def vec_scale(c: Fraction, x: Vector) -> Vector:
    return tuple(c * a for a in x)


# ---------------------------------------------------------------------------
# multiplication tables (structure constants)

#: entry [i][j][k] is the e_k coefficient of e_i * e_j.
Table = tuple[tuple[Vector, ...], ...]


def zero_table(dim: int) -> Table:
    return tuple(tuple(zero_vector(dim) for _ in range(dim)) for _ in range(dim))


def check_index(index: tuple, dim: int):
    """Refuse a sparse row's 1-based index unless every part is an int in
    1..dim."""
    if not all(map(is_int, index)):
        raise TypeError(f"index ({','.join(map(repr, index))}) must be ints")
    if not all(1 <= t <= dim for t in index):
        raise DimensionMismatch(f"index ({','.join(map(str, index))}) outside 1..{dim}")


def mark_new(seen: set, index: tuple, what: str):
    """Record a sparse row's index, refusing one given twice."""
    if index in seen:
        raise ValueError(f"duplicate {what} at ({','.join(map(str, index))})")
    seen.add(index)


def table_from_triples(dim: int, triples: Iterable[Sequence]) -> Table:
    """Build a dense table from sparse 1-based ``(i, j, k, value)`` rows."""
    dense = [[[_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for i, j, k, value in triples:
        check_index((i, j, k), dim)
        mark_new(seen, (i, j, k), "structure constant")
        dense[i - 1][j - 1][k - 1] = rat(value)
    return tuple(tuple(tuple(row) for row in plane) for plane in dense)


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
# algebras

@dataclass(frozen=True)
class Algebra:
    """A based vector space of dimension ``dim`` with named multiplication
    tables.  ``class_tag`` is unverified provenance metadata, never
    substitutes for an axioms check, and is ignored by equality."""

    dim: int
    ops: Mapping[str, Table]
    class_tag: str | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"dimension must be positive, got {self.dim}")
        for name, table in self.ops.items():
            if name not in OP_NAMES:
                raise UnknownOperation(name)
            if len(table) != self.dim or any(
                len(plane) != self.dim or any(len(row) != self.dim for row in plane)
                for plane in table
            ):
                raise DimensionMismatch(f"table {name!r} is not {self.dim}^3")
            _check_rationals(chain.from_iterable(chain.from_iterable(table)), f"table {name!r}")
        object.__setattr__(self, "ops", MappingProxyType(dict(self.ops)))

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


def algebra(
    dim: int,
    sparse_ops: Mapping[str, Iterable[Sequence]],
    class_tag: str | None = None,
) -> Algebra:
    """Build an algebra from sparse 1-based ``(i, j, k, value)`` tables."""
    tables = {name: table_from_triples(dim, rows) for name, rows in sparse_ops.items()}
    return Algebra(dim, tables, class_tag)


def zero_algebra(dim: int, op_names: Sequence[str], class_tag: str | None = None) -> Algebra:
    return Algebra(dim, {name: zero_table(dim) for name in op_names}, class_tag)


def rename_ops(alg: Algebra, mapping: Mapping[str, str]) -> Algebra:
    """Rename operations, e.g. view a dendriform algebra as L-dendriform."""
    ops = {}
    for name, table in alg.ops.items():
        ops[mapping.get(name, name)] = table
    if len(ops) != len(alg.ops):
        raise ValueError(f"renaming {mapping!r} collapses two operations")
    return Algebra(alg.dim, ops, alg.class_tag)


def merge_ops(*algs: Algebra, class_tag: str | None = None) -> Algebra:
    """Combine the operations of several same-dimensional algebras."""
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

def _rows_tuple(entries: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(rat(x) for x in row) for row in entries)


@dataclass(frozen=True)
class LinearMap:
    """Exact matrix between two based spaces; column j is the image of the
    j-th source basis vector."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise DimensionMismatch("entry grid does not match rows x cols")
        _check_rationals(chain.from_iterable(self.entries), "linear map")

    @staticmethod
    def from_rows(entries: Iterable[Iterable]) -> "LinearMap":
        grid = _rows_tuple(entries)
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
        return tuple(
            sum((row[j] * v[j] for j in range(self.cols) if v[j]), _ZERO)
            for row in self.entries
        )

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (matrix product self @ other)."""
        if self.cols != other.rows:
            raise DimensionMismatch("composition shape mismatch")
        entries = tuple(
            tuple(
                sum((self.entries[i][k] * other.entries[k][j] for k in range(self.cols)), _ZERO)
                for j in range(other.cols)
            )
            for i in range(self.rows)
        )
        return LinearMap(self.rows, other.cols, entries)

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        return self.compose(other)

    def transpose(self) -> "LinearMap":
        return LinearMap(
            self.cols, self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def __add__(self, other: "LinearMap") -> "LinearMap":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("addition shape mismatch")
        return LinearMap(
            self.rows, self.cols,
            tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self + (-other)

    def __neg__(self) -> "LinearMap":
        return LinearMap(self.rows, self.cols, tuple(vec_neg(r) for r in self.entries))

    def scale(self, c: int | str | Fraction) -> "LinearMap":
        c = rat(c)
        return LinearMap(
            self.rows, self.cols, tuple(vec_scale(c, r) for r in self.entries)
        )

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
    out = LinearMap.zero(family[0].rows, family[0].cols)
    for c, m in zip(coeffs, family):
        c = rat(c)
        if c:
            out = out + m.scale(c)
    return out


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

def _grid(dim: int) -> list[list[Fraction]]:
    return [[_ZERO] * dim for _ in range(dim)]


@dataclass(frozen=True)
class Tensor2:
    """Element of A (x) A; entry [i][j] is the coefficient of e_i (x) e_j."""

    dim: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.dim or any(len(r) != self.dim for r in self.entries):
            raise DimensionMismatch("tensor entries are not dim x dim")
        _check_rationals(chain.from_iterable(self.entries), "tensor")

    @property
    def is_symmetric(self) -> bool:
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )

    @property
    def is_skew(self) -> bool:
        return all(
            self.entries[i][j] == -self.entries[j][i]
            for i in range(self.dim)
            for j in range(i, self.dim)
        )

    @property
    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)

    def nonzero_entries(self):
        """Yield 1-based ((i, j), value) in lexicographic order."""
        for i, row in enumerate(self.entries):
            for j, value in enumerate(row):
                if value:
                    yield (i + 1, j + 1), value

    def __add__(self, other: "Tensor2") -> "Tensor2":
        if self.dim != other.dim:
            raise DimensionMismatch("tensor dimensions differ")
        return Tensor2(
            self.dim, tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        return self + (-other)

    def __neg__(self) -> "Tensor2":
        return Tensor2(self.dim, tuple(vec_neg(r) for r in self.entries))


def tensor2(dim: int, sparse: Iterable[Sequence] = ()) -> Tensor2:
    """Build from sparse 1-based ``(i, j, value)`` rows."""
    grid = _grid(dim)
    seen = set()
    for i, j, value in sparse:
        check_index((i, j), dim)
        mark_new(seen, (i, j), "entry")
        grid[i - 1][j - 1] = rat(value)
    return Tensor2(dim, tuple(tuple(r) for r in grid))


def tensor2_from_entries(entries: Iterable[Iterable]) -> Tensor2:
    grid = _rows_tuple(entries)
    return Tensor2(len(grid), grid)


@dataclass(frozen=True)
class Tensor3:
    """Element of A (x) A (x) A as a dense rank-3 coefficient array."""

    dim: int
    entries: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        d = self.dim
        if len(self.entries) != d or any(
            len(p) != d or any(len(r) != d for r in p) for p in self.entries
        ):
            raise DimensionMismatch("tensor entries are not dim^3")
        _check_rationals(chain.from_iterable(chain.from_iterable(self.entries)), "tensor")

    @property
    def is_zero(self) -> bool:
        return not any(any(any(row) for row in plane) for plane in self.entries)

    def nonzero_entries(self):
        """Yield 1-based ((i, j, k), value) in lexicographic order."""
        for i, plane in enumerate(self.entries):
            for j, row in enumerate(plane):
                for k, value in enumerate(row):
                    if value:
                        yield (i + 1, j + 1, k + 1), value

    def nonzero_count(self) -> int:
        return sum(1 for _ in self.nonzero_entries())

    def __add__(self, other: "Tensor3") -> "Tensor3":
        if self.dim != other.dim:
            raise DimensionMismatch("tensor dimensions differ")
        return Tensor3(
            self.dim,
            tuple(
                tuple(vec_add(a, b) for a, b in zip(pa, pb))
                for pa, pb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        return self + (-other)

    def __neg__(self) -> "Tensor3":
        return Tensor3(
            self.dim, tuple(tuple(vec_neg(r) for r in p) for p in self.entries)
        )


def tensor3_from_entries(entries) -> Tensor3:
    grid = tuple(tuple(tuple(rat(x) for x in row) for row in plane) for plane in entries)
    return Tensor3(len(grid), grid)


def tensor3(dim: int, sparse: Iterable[Sequence] = ()) -> Tensor3:
    """Build from sparse 1-based ``(i, j, k, value)`` rows."""
    grid = [[[_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for i, j, k, value in sparse:
        check_index((i, j, k), dim)
        mark_new(seen, (i, j, k), "entry")
        grid[i - 1][j - 1][k - 1] = rat(value)
    return tensor3_from_entries(grid)


# ---------------------------------------------------------------------------
# bilinear forms

@dataclass(frozen=True)
class BilinearForm:
    """Gram-matrix bilinear form: B(e_i, e_j) = gram[i][j]."""

    dim: int
    gram: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.gram) != self.dim or any(len(r) != self.dim for r in self.gram):
            raise DimensionMismatch("gram matrix is not dim x dim")
        _check_rationals(chain.from_iterable(self.gram), "gram matrix")

    def evaluate(self, u: Sequence, v: Sequence) -> Fraction:
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("vector length does not match form dimension")
        total = _ZERO
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = self.gram[i]
            for j, vj in enumerate(v):
                if vj and row[j]:
                    total += ui * vj * row[j]
        return total

    @property
    def is_symmetric(self) -> bool:
        return Tensor2(self.dim, self.gram).is_symmetric

    @property
    def is_skew(self) -> bool:
        return Tensor2(self.dim, self.gram).is_skew

    @property
    def is_nondegenerate(self) -> bool:
        return LinearMap(self.dim, self.dim, self.gram).is_invertible


def bilinear_form(entries: Iterable[Iterable]) -> BilinearForm:
    grid = _rows_tuple(entries)
    return BilinearForm(len(grid), grid)


# ---------------------------------------------------------------------------
# tensor machinery

def exchange(r: Tensor2) -> Tensor2:
    """Swap the two tensor factors: e_i (x) e_j -> e_j (x) e_i."""
    return Tensor2(
        r.dim,
        tuple(tuple(r.entries[j][i] for j in range(r.dim)) for i in range(r.dim)),
    )


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
    return slot_sum(((1, r, r_slots, s, s_slots, op),), {op: alg.op(op)})


def tensor_to_map(r: Tensor2) -> LinearMap:
    """The map A* -> A identified with r:  e_i* -> sum_k r[i][k] e_k."""
    return LinearMap(
        r.dim, r.dim,
        tuple(tuple(r.entries[j][i] for j in range(r.dim)) for i in range(r.dim)),
    )


def map_to_tensor(T: LinearMap) -> Tensor2:
    """Inverse identification of :func:`tensor_to_map` (square maps only)."""
    if not T.is_square:
        raise DimensionMismatch("only square maps identify with rank-2 tensors")
    return Tensor2(
        T.rows,
        tuple(tuple(T.entries[j][i] for j in range(T.rows)) for i in range(T.rows)),
    )


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
# The identity checks evaluate on Python ints: all inputs of one check are
# scaled to a common denominator d once, and since every identity is
# homogeneous of some degree k in those inputs, the true residual is the int
# residual divided by d**k.  Vectors are packed into one int (Kronecker
# substitution), so a linear combination of vectors costs one big-int
# multiply-add per vector instead of one per entry.

def _rows(grid):
    return grid.entries if isinstance(grid, LinearMap) else grid


def _is_leaf_row(row) -> bool:
    return not row or not isinstance(row[0], (tuple, list, LinearMap))


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
        if d == 1:
            return tuple(x.numerator for x in grid)
        return tuple(x.numerator * (d // x.denominator) for x in grid)
    return tuple(_scaled(sub, d) for sub in grid)


def clear_denominators(*grids) -> tuple[int, tuple]:
    """Scale all ``grids`` (tables, Gram matrices, maps, matrix families,
    any nesting of them) by the least common denominator d of their entries.

    Returns ``(d, copies)``: each copy keeps its grid's nesting, with maps
    replaced by their row tuples and every entry replaced by the int d * x.
    Entries may be Fractions or ints.
    """
    denominators = set()
    for grid in grids:
        _denominators(grid, denominators)
    d = math.lcm(*denominators)
    return d, tuple(_scaled(grid, d) for grid in grids)


def max_abs(grid) -> int:
    """Largest absolute entry of a nested grid of ints (0 when empty)."""
    if _is_leaf_row(grid):
        return max(map(abs, grid), default=0)
    return max((max_abs(sub) for sub in grid), default=0)


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


def _by_shared(t: Tensor2, shared_first: bool) -> dict[int, list]:
    """t's nonzero entries grouped by the component in the shared slot:
    u -> [(other component, (numerator, denominator)), ...]."""
    groups: dict[int, list] = {}
    for i, row in enumerate(t.entries):
        for j, c in enumerate(row):
            if c:
                u, x = (i, j) if shared_first else (j, i)
                groups.setdefault(u, []).append((x, c.as_integer_ratio()))
    return groups


def slot_sum(
    terms, tables: Mapping[str, Table], derived: Mapping[str, Sequence] = MappingProxyType({})
) -> Tensor3:
    """Signed sum of slot products (see :func:`slot_product`), evaluated on ints.

    ``terms`` are ``(sign, r, r_slots, s, s_slots, op)`` rows.  ``op`` names
    a table in ``tables`` or a derived product in ``derived``, whose
    ``derived[op]`` holds the parts of :func:`derive`.

    Only the nonzero entries of r and s are walked, and only the table rows
    [u][v] they meet are derived, row by row: deriving whole tables would
    cost O(n^3) on sparse tensors.  Those entries and rows are scaled by the
    least common denominator d of their entries; every term has degree 2 in
    the tensors and 1 in the tables, so the residual is the int sum / d**3.
    """
    n = len(next(iter(tables.values())))
    plans = []
    for sign, r, r_slots, s, s_slots, op in terms:
        r_first, s_first, *strides = _slot_layout(r_slots, s_slots, n)
        if r.dim != n or s.dim != n:
            raise DimensionMismatch("tensor dimensions do not match the algebra")
        plans.append((sign, _by_shared(r, r_first), _by_shared(s, s_first), op, strides))

    # the rows the entries meet, and the table rows they are derived from
    rows = dict.fromkeys((op, u, v) for _, r_groups, s_groups, op, _ in plans
                         for u in r_groups for v in s_groups)
    base = {}                       # (name, a, b) -> table[a][b] as (numerator, denominator)
    for op, u, v in rows:
        for _, name, flipped in derived.get(op, ((1, op, False),)):
            key = (name, v, u) if flipped else (name, u, v)
            if key not in base:
                base[key] = [x.as_integer_ratio() for x in tables[name][key[1]][key[2]]]
    denominators = {b for vec in base.values() for _, b in vec}
    for _, r_groups, s_groups, _, _ in plans:
        for groups in (r_groups, s_groups):
            denominators.update(b for entries in groups.values() for _, (_, b) in entries)
    d = math.lcm(*denominators)

    base = {key: [a * (d // b) for a, b in vec] for key, vec in base.items()}
    for op, u, v in rows:
        vec = [0] * n
        for sign, name, flipped in derived.get(op, ((1, op, False),)):
            row = base[(name, v, u) if flipped else (name, u, v)]
            vec = list(map(add if sign > 0 else sub, vec, row))
        rows[op, u, v] = [(k, w) for k, w in enumerate(vec) if w]

    acc = [0] * n ** 3
    for sign, r_groups, s_groups, op, (k_stride, x_stride, y_stride) in plans:
        s_groups = [(v, [(y * y_stride, a * (d // b)) for y, (a, b) in entries])
                    for v, entries in s_groups.items()]
        for u, entries in r_groups.items():
            r_entries = [(x * x_stride, sign * a * (d // b)) for x, (a, b) in entries]
            for v, s_entries in s_groups:
                row = [(k * k_stride, w) for k, w in rows[op, u, v]]
                if not row:
                    continue
                for x_off, cr in r_entries:
                    scaled_row = [(x_off + k_off, cr * w) for k_off, w in row]
                    for y_off, cs in s_entries:
                        for off, cw in scaled_row:
                            acc[off + y_off] += cs * cw

    scale = d ** 3
    flat = [Fraction(x, scale) if x else _ZERO for x in acc]
    return Tensor3(n, tuple(
        tuple(tuple(flat[(i * n + j) * n:(i * n + j + 1) * n]) for j in range(n))
        for i in range(n)
    ))
