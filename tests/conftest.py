import random
from fractions import Fraction
from math import lcm

import pytest

from nilsect import (
    GeneratorSystem,
    UnipotentMatrix,
    embed_heisenberg,
    intersect,
    orbit,
)


def h3(a, b, c) -> UnipotentMatrix:
    return UnipotentMatrix([[1, a, c], [0, 1, b], [0, 0, 1]])


def cleared(row):
    """The rational row times the least common denominator of its entries,
    as a list of ints: the integer row the linear solvers take for it."""
    d = lcm(*(Fraction(x).denominator for x in row))
    return [int(x * d) for x in row]


def random_unipotent(rng: random.Random, n: int, bound: int = 100) -> UnipotentMatrix:
    rows = [
        [
            Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            if j > i
            else (1 if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return UnipotentMatrix(rows)


def random_h3_system(rng: random.Random, k: int, bound: int = 2) -> GeneratorSystem:
    return GeneratorSystem(
        [
            h3(
                rng.randint(-bound, bound),
                rng.randint(-bound, bound),
                rng.randint(-bound, bound),
            )
            for _ in range(k)
        ]
    )


# ---- the Fraction reference for the Lie side: a log is a square table of
# Fractions, the package's integer log (X, D) the table X/D


def ref_mul(a, b):
    """Product of two upper triangular Fraction tables."""
    n = len(a)
    rows = []
    for i in range(n):
        acc = [Fraction(0)] * n
        for k in range(i, n):
            if a[i][k]:
                for j in range(k, n):
                    acc[j] += a[i][k] * b[k][j]
        rows.append(tuple(acc))
    return tuple(rows)


def ref_combine(a, b, coef=1):
    """a + coef * b entrywise."""
    return tuple(tuple(x + coef * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def ref_scale(a, coef):
    return tuple(tuple(coef * x for x in row) for row in a)


def ref_identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def ref_log(m):
    """log M = sum_k (-1)^(k-1)/k (M - I)^k, as a Fraction table."""
    n = m.n
    s = ref_combine(m.rows, ref_identity(n), -1)
    acc = tuple((Fraction(0),) * n for _ in range(n))
    power = s
    for k in range(1, n):
        acc = ref_combine(acc, power, Fraction((-1) ** (k - 1), k))
        power = ref_mul(power, s)
    return acc


def ref_exp(x):
    """exp X = sum_k X^k / k! for a strictly upper Fraction table."""
    n = len(x)
    acc = power = ref_identity(n)
    fact = 1
    for k in range(1, n):
        power = ref_mul(power, x)
        fact *= k
        acc = ref_combine(acc, power, Fraction(1, fact))
    return UnipotentMatrix(acc)


def ref_bracket(x, y):
    """[X, Y] = XY - YX on Fraction tables."""
    return ref_combine(ref_mul(x, y), ref_mul(y, x), -1)


def reduced_table(rows):
    """(X, D) with rows = X/D, D the lcm of the entries' denominators: the
    reduced integer form in which the package returns a log."""
    rows = [[Fraction(x) for x in row] for row in rows]
    d = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(int(x * d) for x in row) for row in rows), d


def log_rows(log):
    """The Fraction table X/D of an integer log (X, D)."""
    table, den = log
    return tuple(tuple(Fraction(x, den) for x in row) for row in table)


def field_pair(coords):
    """The field element with the given rational coordinates as the pair
    (U, q), U an integer vector over q > 0, that `embed_heisenberg` reads."""
    coords = [Fraction(x) for x in coords]
    q = lcm(*(x.denominator for x in coords))
    return [x.numerator * (q // x.denominator) for x in coords], q


def embed_coords(field, n, a, b, c) -> UnipotentMatrix:
    """`embed_heisenberg` of the element with row a, column b and corner
    c, each field entry given by its rational coordinates."""
    return embed_heisenberg(
        field, n, [field_pair(x) for x in a], [field_pair(x) for x in b], field_pair(c)
    )


def field_times(field, x, y):
    """x * y in Q[t]/(f) for rational coordinate lists: the polynomial
    product, reduced from the top by t^d = -(f_0 + ... + f_(d-1) t^(d-1))."""
    d = field.degree
    prod = [Fraction(0)] * (2 * d - 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            prod[i + j] += u * v
    for k in range(2 * d - 2, d - 1, -1):
        top = prod.pop()
        for i, f in enumerate(field.coeffs[:-1]):
            prod[k - d + i] -= top * f
    return prod


def verify_witness(inst, words) -> bool:
    """True iff the word products over the M systems of an intersection
    instance are all equal, by `intersect._common_product`: the plain
    matrix multiplication that checks every NonEmpty intersection
    verdict, independent of the decision machinery."""
    words = list(words)
    if len(words) != inst.M:
        raise ValueError(f"expected {inst.M} words")
    return intersect._common_product(inst, words) is not None


def verify_orbit_witness(inst, v, w) -> bool:
    """True iff T * product(v) = S * product(w), v over G and w over H, by
    `orbit._common_element`: the plain multiplication against the original
    T and S that checks every NonEmpty orbit verdict."""
    return orbit._common_element(inst, v, w) is not None


@pytest.fixture
def rng():
    return random.Random(20240817)
