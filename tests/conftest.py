import random
from fractions import Fraction

import pytest

from nilsect import GeneratorSystem, NilpotentMatrix, UnipotentMatrix, intersect, orbit


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
