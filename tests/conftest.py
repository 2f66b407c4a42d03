import random
from fractions import Fraction
from math import lcm

import pytest

from nilsect import (
    GeneratorSystem,
    NilpotentMatrix,
    UnipotentMatrix,
    embed_heisenberg,
    intersect,
    orbit,
)


def h3(a, b, c) -> UnipotentMatrix:
    return UnipotentMatrix([[1, a, c], [0, 1, b], [0, 0, 1]])


def nil3(a, b, c) -> NilpotentMatrix:
    return NilpotentMatrix([[0, a, c], [0, 0, b], [0, 0, 0]])


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


def random_nilpotent(rng: random.Random, n: int, bound: int = 100) -> NilpotentMatrix:
    rows = [
        [
            Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            if j > i
            else 0
            for j in range(n)
        ]
        for i in range(n)
    ]
    return NilpotentMatrix(rows)


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
