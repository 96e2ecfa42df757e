"""Independent naive oracle for slot products of rank-2 tensors.

Written before (and kept independent of) the package implementation.  It
works on plain nested lists of Fractions only: a rank-2 tensor is a dim x dim
list of lists, a multiplication table is a dim x dim x dim list (entry
[i][j][k] = e_k coefficient of e_i * e_j), and the result is a dense
dim x dim x dim list.

The algorithm is a literal term expansion: r = sum of coef * (e_a (x) e_b)
over its nonzero entries, one summand per nonzero entry; products of two such
sums are accumulated term by term into a sparse dict and densified at the
end.  The package's implementation scales whole tables and tensors to ints
with one common denominator, derives each product it needs as a whole table
on those ints, and adds whole blocks at once as big-int products of packed
vectors (Kronecker substitution), so agreement between the two is a
meaningful cross-check.
"""

from fractions import Fraction


def _terms(entries):
    out = []
    for a, row in enumerate(entries):
        for b, coef in enumerate(row):
            if coef:
                out.append((coef, a, b))
    return out


def naive_slot_product(r_entries, r_slots, s_entries, s_slots, table):
    """Place r into slots r_slots and s into s_slots of a triple tensor
    product and multiply the shared slot with the given table (left factor's
    component first).  Slots are 1-based pairs such as (1, 3)."""
    dim = len(table)
    shared = set(r_slots) & set(s_slots)
    if len(shared) != 1 or set(r_slots) | set(s_slots) != {1, 2, 3}:
        raise ValueError("slot pairs must cover {1,2,3} and share one slot")
    (shared_slot,) = shared

    acc = {}
    for coef_r, a1, b1 in _terms(r_entries):
        place_r = {r_slots[0]: a1, r_slots[1]: b1}
        for coef_s, a2, b2 in _terms(s_entries):
            place_s = {s_slots[0]: a2, s_slots[1]: b2}
            u = place_r[shared_slot]
            v = place_s[shared_slot]
            coef = coef_r * coef_s
            for k in range(dim):
                ck = table[u][v][k]
                if not ck:
                    continue
                pos = []
                for slot in (1, 2, 3):
                    if slot == shared_slot:
                        pos.append(k)
                    elif slot in place_r:
                        pos.append(place_r[slot])
                    else:
                        pos.append(place_s[slot])
                pos = tuple(pos)
                acc[pos] = acc.get(pos, Fraction(0)) + coef * ck
    dense = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), value in acc.items():
        dense[i][j][k] = value
    return dense


def t3_zero(dim):
    return [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]


def t3_combine(coeff_terms):
    """Linear combination [(coef, tensor), ...] of dense rank-3 lists."""
    dim = len(coeff_terms[0][1])
    out = t3_zero(dim)
    for coef, t in coeff_terms:
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    out[i][j][k] += coef * t[i][j][k]
    return out


def commutator_table(table):
    """b[i][j] = table[i][j] - table[j][i], the naive way."""
    dim = len(table)
    out = t3_zero(dim)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                out[i][j][k] = table[i][j][k] - table[j][i][k]
    return out


def table_sum(ta, tb):
    dim = len(ta)
    out = t3_zero(dim)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                out[i][j][k] = ta[i][j][k] + tb[i][j][k]
    return out


def vertical_table(tri_r, tri_l):
    """x o y = x |> y - y <| x entrywise."""
    dim = len(tri_r)
    out = t3_zero(dim)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                out[i][j][k] = tri_r[i][j][k] - tri_l[j][i][k]
    return out


def naive_s_residual(circ_table, r_entries):
    """-r12 o r13 + r12 o r23 + [r13, r23], every piece via the naive path."""
    bracket = commutator_table(circ_table)
    t1 = naive_slot_product(r_entries, (1, 2), r_entries, (1, 3), circ_table)
    t2 = naive_slot_product(r_entries, (1, 2), r_entries, (2, 3), circ_table)
    t3 = naive_slot_product(r_entries, (1, 3), r_entries, (2, 3), bracket)
    return t3_combine([(Fraction(-1), t1), (Fraction(1), t2), (Fraction(1), t3)])


def naive_s_alternate(circ_table, r_entries):
    """r13 o r23 + [r12, r23] - r13 o r12, the S-equation's alternate
    displayed form, every piece via the naive path."""
    bracket = commutator_table(circ_table)
    r = r_entries
    t1 = naive_slot_product(r, (1, 3), r, (2, 3), circ_table)
    t2 = naive_slot_product(r, (1, 2), r, (2, 3), bracket)
    t3 = naive_slot_product(r, (1, 3), r, (1, 2), circ_table)
    return t3_combine([(Fraction(1), t1), (Fraction(1), t2), (Fraction(-1), t3)])


def naive_ld_residual(tri_r, tri_l, r_entries, variant):
    """LD-equation residuals, recomputed naively, keyed by the equation ids
    eq-4.8 .. eq-4.14."""
    circ = vertical_table(tri_r, tri_l)
    bullet = table_sum(tri_r, tri_l)
    bracket = commutator_table(circ)
    r = r_entries
    sp = naive_slot_product
    one = Fraction(1)
    if variant == "eq-4.8":
        terms = [
            (one, sp(r, (1, 3), r, (2, 3), circ)),
            (one, sp(r, (1, 2), r, (2, 3), bullet)),
            (-one, sp(r, (1, 2), r, (1, 3), tri_l)),
        ]
    elif variant == "eq-4.9":
        terms = [
            (one, sp(r, (1, 3), r, (2, 3), tri_r)),
            (one, sp(r, (1, 2), r, (2, 3), bracket)),
            (-one, sp(r, (1, 3), r, (1, 2), tri_r)),
        ]
    elif variant == "eq-4.10":
        terms = [
            (one, sp(r, (2, 3), r, (1, 3), tri_l)),
            (-one, sp(r, (1, 3), r, (1, 2), circ)),
            (-one, sp(r, (2, 3), r, (1, 2), bullet)),
        ]
    elif variant == "eq-4.11":
        terms = [
            (one, sp(r, (2, 3), r, (1, 3), circ)),
            (-one, sp(r, (1, 2), r, (1, 3), bullet)),
            (one, sp(r, (1, 2), r, (2, 3), tri_l)),
        ]
    elif variant == "eq-4.12":
        terms = [
            (one, sp(r, (2, 3), r, (1, 2), circ)),
            (one, sp(r, (1, 3), r, (1, 2), bullet)),
            (one, sp(r, (1, 3), r, (2, 3), tri_l)),
        ]
    elif variant == "eq-4.13":
        terms = [
            (one, sp(r, (1, 2), r, (2, 3), circ)),
            (one, sp(r, (1, 3), r, (2, 3), bullet)),
            (one, sp(r, (1, 3), r, (1, 2), tri_l)),
        ]
    elif variant == "eq-4.14":
        terms = [
            (one, sp(r, (1, 2), r, (1, 3), circ)),
            (-one, sp(r, (2, 3), r, (1, 3), bullet)),
            (one, sp(r, (2, 3), r, (1, 2), tri_l)),
        ]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return t3_combine(terms)
