import random
from fractions import Fraction
from math import lcm

import pytest

from nilsect import (
    GeneratorSystem,
    NumberField,
    UnipotentMatrix,
    Word,
    embed_heisenberg,
    intersect,
    linsolve,
    orbit,
    wordcraft,
)


# ---- rational matrices and moduli as rows of Fractions: the package
# takes only ints over one denominator, the tests write rationals


def common_denominator(values) -> int:
    """Least common multiple of the denominators of the given rationals
    (ints, Fractions or their strings), 1 for none."""
    d = 1
    for v in values:
        d = lcm(d, Fraction(v).denominator)
    return d


def from_rows(rows) -> UnipotentMatrix:
    """The matrix with the given rational rows: the rows over their
    common denominator, as the integer table `UnipotentMatrix` takes."""
    rows = [[Fraction(x) for x in row] for row in rows]
    d = common_denominator(x for row in rows for x in row)
    return UnipotentMatrix([[int(x * d) for x in row] for row in rows], d)


def rows_of(m):
    """The Fraction rows of a matrix: its table over its denominator."""
    return tuple(tuple(Fraction(x, m.den) for x in row) for row in m.table)


def entry(m, i, j) -> Fraction:
    """Entry (i, j) of a matrix, as a Fraction."""
    return Fraction(m.table[i][j], m.den)


def number_field(coeffs) -> NumberField:
    """The number field of the monic modulus with the given ascending
    rational coefficients, over their common denominator."""
    d = common_denominator(coeffs)
    return NumberField([int(Fraction(c) * d) for c in coeffs], d)


def modulus(field):
    """The Fraction coefficients of a field's modulus, ascending."""
    *low, m = field.coeffs
    return [Fraction(c, m) for c in low] + [Fraction(1)]


def refuse_fractions(monkeypatch):
    """Make building any Fraction, anywhere, an AssertionError, for a
    test that a computation runs on ints alone."""

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", refuse)


def h3(a, b, c) -> UnipotentMatrix:
    return from_rows([[1, a, c], [0, 1, b], [0, 0, 1]])


def cleared(row):
    """The rational row times the least common denominator of its entries,
    as a list of ints: the integer row the linear solvers take for it."""
    d = common_denominator(row)
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
    return from_rows(rows)


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


# ---- the forms the package does not keep: a point over Fractions, a
# subspace's basis and membership, a word's letters


def fractions_of(point):
    """The Fraction list nums/den of a solver point (nums, den), or None
    for None."""
    if point is None:
        return None
    nums, den = point
    return [Fraction(x, den) for x in nums]


def nullspace(rows, ncols=None):
    """Basis of {x : row . x = 0 for all rows}, as a list of Fraction
    tuples, one per column without a pivot (`linsolve._row_reduce`, looked
    up at call time so that a test can patch it), that column's entry 1
    and the other free columns' 0."""
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise ValueError("ncols required when there are no rows")
        ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("inconsistent row lengths")
    mat, pivots = linsolve._row_reduce(rows, range(ncols))
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in pivots:
            vec[c] = Fraction(-mat[r][free], mat[r][c])
        basis.append(tuple(vec))
    return basis


def subspace_basis(rows, width):
    """`nullspace` of a subspace of Q^width, given by the integer rows of
    its equations over columns 0 .. width - 1."""
    return nullspace(rows, width)


def subspace_contains(rows, width, point) -> bool:
    """Whether the rational point satisfies every equation row of the
    subspace of Q^width."""
    if len(point) != width:
        raise ValueError("point has wrong length")
    return all(sum(a * Fraction(x) for a, x in zip(row, point)) == 0 for row in rows)


def word_letters(word):
    """The word's letters one by one, as a list (avoid for huge words)."""
    return [letter for letter, count in word.runs for _ in range(count)]


def reversed_word(word):
    """The word read backwards."""
    return Word(word.K, reversed(word.runs))


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
    s = ref_combine(rows_of(m), ref_identity(n), -1)
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
    return from_rows(acc)


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
        for i, f in enumerate(modulus(field)[:-1]):
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


def least_search_off(monkeypatch):
    """Give the least-count search of every witness (`wordcraft.least_words`)
    a budget of 0 nodes: hard orbit witnesses come from the shift search
    or the inflation, intersection witnesses from the scaled point."""
    monkeypatch.setattr(wordcraft, "WITNESS_SEARCH_NODES", 0)


@pytest.fixture
def rng():
    return random.Random(20240817)
