"""Seeded benchmark inputs built from the shipped catalog.

Valid inputs are direct sums of catalog fixtures (and of structures the
library derives from them: Rota-Baxter induced dendriform and L-dendriform
algebras, Aguiar-Loday tensor products of dendriform algebras, block
solutions of the tensor equations), transported along a seeded invertible
integer matrix P:

    x .' y = P^-1 (Px . Py),   R' = P^-1 R P,   B'(x, y) = B(Px, Py),
    r' = (P^-1 (x) P^-1) r,   and a module family f'(x) = Q^-1 f(x) Q.

Transport is an isomorphism, so every verdict is kept while the tables become
dense rationals.  Failing inputs are random integer tables with entries in
-2..2 at about 50% density (the method of the ROADMAP's indicative table).

Transport, direct sums and random tables are plain Python over Fractions;
the library only builds the small catalog blocks, and the set-up pass checks
every input's verdict before anything is timed.
"""

from __future__ import annotations

import random
from fractions import Fraction

import splitalg as sa
from splitalg import catalog

ZERO = Fraction(0)
NONZERO_ENTRIES = (-2, -1, 1, 2)


# ---------------------------------------------------------------------------
# plain matrices (lists of rows)

def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)) if a[i][k]) or ZERO
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_t(a):
    return [list(col) for col in zip(*a)]


def _reduce(work, width):
    """Gauss-Jordan elimination over the first ``width`` columns of the rows
    in ``work``, in place; returns the pivot columns."""
    pivots = []
    for col in range(width):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        pivots.append(col)
    return pivots


def mat_inverse(m):
    """Inverse over the rationals; the caller guarantees m is invertible."""
    n = len(m)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    _reduce(work, n)
    return [row[n:] for row in work]


def nullspace(rows, width):
    """Basis of {x : row . x = 0 for every row}, exact."""
    work = [list(r) for r in rows if any(r)]
    pivots = _reduce(work, width)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        v = [ZERO] * width
        v[free] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -work[r][free]
        basis.append(v)
    return basis


def random_p(rng: random.Random, n: int, det: int = 2):
    """Invertible integer matrix L * D * U with unit-triangular L and U
    (off-diagonal entries +-1) and D diagonal with one entry +-det and the
    rest +-1, so |det P| = det and P^-1 has denominators dividing det.  The
    factors have no zero off-diagonal entry, so every transported structure
    is about equally dense whatever the seed."""
    lower = [[1 if i == j else (rng.choice((-1, 1)) if i > j else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.choice((-1, 1)) if i < j else 0)
              for j in range(n)] for i in range(n)]
    big = rng.randrange(n)
    diag = [[(det if i == big else 1) * rng.choice((-1, 1)) if i == j else 0
             for j in range(n)] for i in range(n)]
    return mat_mul(mat_mul(lower, diag), upper)


class Frame:
    """A change of basis P together with its inverse."""

    def __init__(self, p):
        self.p = p
        self.pinv = mat_inverse(p)
        self.n = len(p)


def random_frame(rng, n, det=2) -> Frame:
    return Frame(random_p(rng, n, det))


# ---------------------------------------------------------------------------
# transport along a frame

def transport_table(t, f: Frame):
    """t'(e_a, e_b) = P^-1 t(P e_a, P e_b)."""
    n, p, pinv = f.n, f.p, f.pinv
    first = [[[sum(p[i][a] * t[i][j][k] for i in range(n) if p[i][a]) or ZERO
               for k in range(n)] for j in range(n)] for a in range(n)]
    second = [[[sum(p[j][b] * first[a][j][k] for j in range(n) if p[j][b]) or ZERO
                for k in range(n)] for b in range(n)] for a in range(n)]
    return tuple(
        tuple(tuple(sum(pinv[m][k] * v[k] for k in range(n) if v[k]) or ZERO
                    for m in range(n)) for v in plane)
        for plane in second
    )


def transport_algebra(alg: sa.Algebra, f: Frame) -> sa.Algebra:
    return sa.Algebra(alg.dim, {name: transport_table(t, f) for name, t in alg.ops.items()})


def as_map(m) -> sa.LinearMap:
    return sa.LinearMap(len(m), len(m[0]), tuple(tuple(Fraction(x) for x in row) for row in m))


def transport_map(T: sa.LinearMap, dst: Frame, src: Frame) -> sa.LinearMap:
    """T' = P_dst^-1 T P_src for T: src -> dst."""
    return as_map(mat_mul(mat_mul(dst.pinv, [list(r) for r in T.entries]), src.p))


def conjugate_family(family, space: Frame):
    """f'(e_i) = Q^-1 f(e_i) Q: a module family carried along a change of
    basis Q of the module space."""
    return tuple(as_map(mat_mul(mat_mul(space.pinv, [list(r) for r in m.entries]), space.p))
                 for m in family)


def transport_form(B: sa.BilinearForm, f: Frame) -> sa.BilinearForm:
    gram = mat_mul(mat_mul(mat_t(f.p), [list(r) for r in B.gram]), f.p)
    return sa.BilinearForm(B.dim, tuple(tuple(r) for r in gram))


def transport_tensor(r: sa.Tensor2, f: Frame) -> sa.Tensor2:
    m = mat_mul(mat_mul(f.pinv, [list(row) for row in r.entries]), mat_t(f.pinv))
    return sa.Tensor2(r.dim, tuple(tuple(row) for row in m))


# ---------------------------------------------------------------------------
# direct sums

def _block_table(tables, dims):
    n = sum(dims)
    dense = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    off = 0
    for t, d in zip(tables, dims):
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    dense[off + i][off + j][off + k] = t[i][j][k]
        off += d
    return tuple(tuple(tuple(row) for row in plane) for plane in dense)


def direct_sum(algs) -> sa.Algebra:
    dims = [a.dim for a in algs]
    names = sorted(algs[0].ops)
    return sa.Algebra(sum(dims), {name: _block_table([a.op(name) for a in algs], dims)
                                  for name in names})


def block_diag(mats) -> list:
    n = sum(len(m) for m in mats)
    out = [[ZERO] * n for _ in range(n)]
    off = 0
    for m in mats:
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                out[off + i][off + j] = Fraction(x)
        off += len(m)
    return out


# ---------------------------------------------------------------------------
# random failing inputs

def random_entry(rng):
    return rng.choice(NONZERO_ENTRIES) if rng.random() < 0.5 else 0


def nonzero_entry(rng):
    return rng.choice(NONZERO_ENTRIES)


def random_matrix(rng, rows, cols):
    return [[Fraction(random_entry(rng)) for _ in range(cols)] for _ in range(rows)]


def random_table(rng, n):
    return tuple(tuple(tuple(Fraction(random_entry(rng)) for _ in range(n))
                       for _ in range(n)) for _ in range(n))


def random_algebra(rng, n, names) -> sa.Algebra:
    return sa.Algebra(n, {name: random_table(rng, n) for name in names})


# ---------------------------------------------------------------------------
# catalog-derived blocks

def dendriform_from_rb(R: sa.LinearMap, alg: sa.Algebra) -> sa.Algebra:
    """x > y = R(x) y,  x < y = x R(y)  for a Rota-Baxter operator R on an
    associative algebra."""
    n, t = alg.dim, alg.op("circ")
    cols = [R.column(i) for i in range(n)]

    def prod(x, y):
        out = [ZERO] * n
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                if xi and yj:
                    for k in range(n):
                        out[k] += xi * yj * t[i][j][k]
        return tuple(out)

    e = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    succ = tuple(tuple(prod(cols[i], e[j]) for j in range(n)) for i in range(n))
    prec = tuple(tuple(prod(e[i], cols[j]) for j in range(n)) for i in range(n))
    return sa.Algebra(n, {"succ": succ, "prec": prec})


def quadri_product(a: sa.Algebra, b: sa.Algebra) -> sa.Algebra:
    """Aguiar-Loday quadri structure on the tensor product of two dendriform
    algebras: (a(x)b) se (a'(x)b') = (a > a')(x)(b > b'), ne = (>, <),
    nw = (<, <), sw = (<, >)."""
    na, nb = a.dim, b.dim
    n = na * nb

    def table(op_a, op_b):
        ta, tb = a.op(op_a), b.op(op_b)
        return tuple(
            tuple(
                tuple(ta[i // nb][j // nb][k // nb] * tb[i % nb][j % nb][k % nb]
                      for k in range(n))
                for j in range(n))
            for i in range(n))

    return sa.Algebra(n, {"se": table("succ", "succ"), "ne": table("succ", "prec"),
                          "nw": table("prec", "prec"), "sw": table("prec", "succ")})


def ldend_cocycles(alg: sa.Algebra):
    """Basis of the L-dendriform 2-cocycles (skew B with
    B(x<|y, z) = -B(y, z o x) + B(x, z * y)) as Gram matrices."""
    n = alg.dim
    tr, tl = alg.op("tri_r"), alg.op("tri_l")
    rows = []
    for i in range(n):
        for j in range(n):
            row = [ZERO] * (n * n)
            row[i * n + j] += 1
            row[j * n + i] += 1
            rows.append(row)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [ZERO] * (n * n)
                for m in range(n):
                    row[m * n + k] += tl[i][j][m]                        # B(x<|y, z)
                    row[j * n + m] += tr[k][i][m] - tl[i][k][m]          # + B(y, z o x)
                    row[i * n + m] -= tr[k][j][m] + tl[k][j][m]          # - B(x, z * y)
                rows.append(row)
    return [[v[i * n:(i + 1) * n] for i in range(n)] for v in nullspace(rows, n * n)]


def canonical_ldend_module(alg: sa.Algebra) -> sa.LDendModule:
    """(L_r, 0, L_l, 0; A): the identity is an invertible O-operator for it."""
    n = alg.dim
    zeros = tuple(sa.LinearMap.zero(n, n) for _ in range(n))
    return sa.LDendModule(alg, n, sa.left_family(alg, "tri_r"), zeros,
                          sa.left_family(alg, "tri_l"), zeros)


class Blocks:
    """Small valid structures from the catalog, the pieces of every direct sum."""

    def __init__(self):
        p1, p2, ld2, d1 = (catalog.build(x) for x in ("P1", "P2", "LD2", "D1"))
        d_p2 = dendriform_from_rb(catalog.build("RB2"), p2)
        hor = sa.rename_ops(catalog.build("LD2_HOR"), {"bullet": "circ"})
        # (pre-Lie algebra, Rota-Baxter operator on it)
        self.prelie_rb = [(p2, R) for R in sa.search_rb(p2, [-1, 0, 1])
                          if any(any(r) for r in R.entries)]
        self.prelie_rb += [(p1, sa.LinearMap.zero(1, 1))]
        self.prelie = [p2, p1, catalog.build("LD2_VERT"), hor,
                       catalog.build("LD2_DOUBLE_VERT")]
        self.assoc = [p2, p1]
        self.dend = [d_p2, d1]
        self.ldend = [ld2, sa.transpose(ld2), sa.dendriform_to_ldend(d_p2),
                      sa.dendriform_to_ldend(d1)]
        self.ldend += [sa.ldend_from_rb(R, p2) for _, R in self.prelie_rb[:3]]
        # the doubles carry the nondegenerate cocycle of an invertible skew solution
        self.ldend_doubles = [
            sa.build_ld_solution(canonical_ldend_module(a), sa.LinearMap.identity(a.dim))[0]
            for a in self.ldend
        ]
        self.ldend_cocycles = {id(a): ldend_cocycles(a) for a in self.ldend_doubles}

    def prelie_rb_sum(self, rng, n):
        """A direct sum of pre-Lie blocks of total dimension n and the direct
        sum of a seeded Rota-Baxter operator on each block."""
        parts = self.pick_sum(rng, [a for a, _ in self.prelie_rb], n)
        rbs = [rng.choice([R for p, R in self.prelie_rb if p is a]) for a in parts]
        return direct_sum(parts), as_map(block_diag([[list(r) for r in R.entries] for R in rbs]))

    def pick_sum(self, rng, pool, n):
        """Seeded pool members with total dimension n.  One-dimensional
        blocks, whose products are nearly trivial, only fill an odd
        remainder, so that sums of one dimension cost about the same
        whatever the seed."""
        parts, total = [], 0
        while total < n:
            left = n - total
            fitting = [a for a in pool if 1 < a.dim <= left] or [a for a in pool if a.dim <= left]
            a = rng.choice(fitting)
            parts.append(a)
            total += a.dim
        return parts
