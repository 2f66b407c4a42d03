"""Exact upper-unitriangular arithmetic, kept apart from the program.

Matrices are nested lists of `Fraction`.  The benchmark uses this module
to plant known answers and to re-check every witness the program
returns; it imports nothing from `nilsect`, so a fault in the program's
arithmetic cannot hide itself in the check.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mul(a, b):
    """Product of two upper-triangular matrices."""
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        row_a = a[i]
        row_out = out[i]
        for k in range(i, n):
            x = row_a[k]
            if x:
                row_b = b[k]
                for j in range(k, n):
                    y = row_b[j]
                    if y:
                        row_out[j] += x * y
    return out


def power(a, e):
    """a**e for e >= 0 by binary powering."""
    acc = identity(len(a))
    base = a
    while e:
        if e & 1:
            acc = mul(acc, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return acc


def inverse(a):
    """Inverse of a unipotent matrix: (I + N)^-1 = sum_k (-N)^k."""
    n = len(a)
    nil = [[a[i][j] - (i == j) for j in range(n)] for i in range(n)]
    acc = identity(n)
    term = identity(n)
    for k in range(1, n):
        term = mul(term, nil)
        sign = -1 if k % 2 else 1
        acc = [[x + sign * y for x, y in zip(ra, rt)] for ra, rt in zip(acc, term)]
    return acc


def word_product(gens, runs):
    """Ordered product of (letter, count) runs over `gens`."""
    acc = identity(len(gens[0]))
    for letter, count in runs:
        acc = mul(acc, power(gens[letter], count))
    return acc


# --- Heisenberg groups over Q(alpha), embedded by the regular representation


def field_mul(x, y, minpoly):
    """Product in Q[t]/(minpoly); minpoly is monic, ascending coefficients."""
    d = len(minpoly) - 1
    prod = [Fraction(0)] * (2 * d - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    for e in range(2 * d - 2, d - 1, -1):
        lead = prod[e]
        if lead:
            prod[e] = Fraction(0)
            for i in range(d):
                prod[e - d + i] -= lead * minpoly[i]
    return prod[:d]


def regular(x, minpoly):
    """Matrix of multiplication by x; column j holds x * alpha^j."""
    d = len(minpoly) - 1
    cols = []
    for j in range(d):
        basis = [Fraction(int(i == j)) for i in range(d)]
        cols.append(field_mul(x, basis, minpoly))
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def embed(n, a, b, c, minpoly):
    """The n x n Heisenberg element (a, b, c) over Q(alpha) in UT(n*d, Q).

    `a` and `b` hold n - 2 field elements each and `c` one; a field element
    is its coordinate list in the power basis.
    """
    d = len(minpoly) - 1
    out = identity(n * d)

    def put(bi, bj, x):
        block = regular(x, minpoly)
        for i in range(d):
            for j in range(d):
                out[bi * d + i][bj * d + j] = block[i][j]

    for j, x in enumerate(a):
        put(0, 1 + j, x)
    for i, x in enumerate(b):
        put(1 + i, n - 1, x)
    put(0, n - 1, c)
    return out


def unembed(mat, n, d):
    """(a, b, c) coordinates of an embedded Heisenberg element."""

    def block(bi, bj):
        return [mat[bi * d + i][bj * d] for i in range(d)]

    a = [block(0, 1 + j) for j in range(n - 2)]
    b = [block(1 + i, n - 1) for i in range(n - 2)]
    return a, b, block(0, n - 1)


def direct_sum(mats):
    size = sum(len(m) for m in mats)
    out = identity(size)
    off = 0
    for m in mats:
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(m)
    return out
