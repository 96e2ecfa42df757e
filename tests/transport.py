"""Change of basis for the metamorphic tests: every structure carried along
an invertible integer matrix P.

    x .' y = P^-1 (Px . Py),   R' = P^-1 R P,   B'(x, y) = B(Px, Py),
    r' = (P^-1 (x) P^-1) r,    T' = P^-1 T Q,   l'(x) = Q^-1 l(Px) Q

for a base frame P and a module-space frame Q.  Transport is an isomorphism,
so every verdict is kept and every residual moves by (P^-1)^(x)3.  Plain
Python over Fractions, independent of the library's kernels; the random
frames follow the shape of the benchmark's ``random_p``.
"""

from __future__ import annotations

from fractions import Fraction

import splitalg as sa

ZERO = Fraction(0)


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)) if a[i][k]) or ZERO
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_t(a):
    return [list(col) for col in zip(*a)]


def mat_inverse(m):
    """Gauss-Jordan inverse over the rationals; m must be invertible."""
    n = len(m)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def random_p(rng, n: int, det: int = 2):
    """Invertible integer matrix L * D * U with unit-triangular L and U
    (off-diagonal entries +-1) and D diagonal with one entry +-det and the
    rest +-1, so |det P| = det and P^-1 has denominators dividing det."""
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

    def __init__(self, p, pinv=None):
        self.p = [[Fraction(x) for x in row] for row in p]
        self.pinv = mat_inverse(self.p) if pinv is None else [[Fraction(x) for x in row]
                                                             for row in pinv]
        self.n = len(p)


def random_frame(rng, n: int, det: int = 2) -> Frame:
    return Frame(random_p(rng, n, det))


def rows(m) -> list:
    """The rows of a LinearMap, a Gram matrix or a Tensor2 as lists."""
    return [list(r) for r in getattr(m, "entries", getattr(m, "gram", m))]


def as_map(m) -> sa.LinearMap:
    return sa.LinearMap(len(m), len(m[0]), tuple(tuple(Fraction(x) for x in row) for row in m))


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


def transport_map(T: sa.LinearMap, dst: Frame, src: Frame) -> sa.LinearMap:
    """T' = P_dst^-1 T P_src for T: src -> dst."""
    return as_map(mat_mul(mat_mul(dst.pinv, rows(T)), src.p))


def transport_family(family, base: Frame, space: Frame):
    """f'(e_a) = Q^-1 f(P e_a) Q: a matrix family indexed by the base, with
    the base carried along P and the space it acts on along Q."""
    mixed = [sum((m.scale(base.p[i][a]) for i, m in enumerate(family) if base.p[i][a]),
                 sa.LinearMap.zero(space.n, space.n)) for a in range(base.n)]
    return tuple(as_map(mat_mul(mat_mul(space.pinv, rows(m)), space.p)) for m in mixed)


def transport_form(B: sa.BilinearForm, f: Frame) -> sa.BilinearForm:
    gram = mat_mul(mat_mul(mat_t(f.p), rows(B)), f.p)
    return sa.BilinearForm(B.dim, tuple(map(tuple, gram)))


def transport_tensor(r: sa.Tensor2, f: Frame) -> sa.Tensor2:
    m = mat_mul(mat_mul(f.pinv, rows(r)), mat_t(f.pinv))
    return sa.Tensor2(r.dim, tuple(map(tuple, m)))


def transport_tensor3(t: sa.Tensor3, f: Frame) -> sa.Tensor3:
    """(P^-1 (x) P^-1 (x) P^-1) t."""
    n, q = f.n, f.pinv
    grid = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), value in t.nonzero_entries():
        for a in range(n):
            if q[a][i - 1]:
                for b in range(n):
                    if q[b][j - 1]:
                        c_ab = value * q[a][i - 1] * q[b][j - 1]
                        for c in range(n):
                            grid[a][b][c] += c_ab * q[c][k - 1]
    return sa.Tensor3(n, tuple(tuple(map(tuple, plane)) for plane in grid))
