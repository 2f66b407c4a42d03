import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilsect import (
    GeneratorSystem,
    NumberField,
    UnipotentMatrix,
    embed_heisenberg,
    is_two_step,
    parse_instance_text,
    ParseError,
)
from nilsect.matlie import _fraction_rows, common_denominator
from nilsect.numfield import (
    _has_rational_root,
    _integer_representation,
    _sign_changes,
    _sturm_chain,
)
from conftest import embed_coords, field_pair, field_times


def has_rational_root(coeffs):
    """`_has_rational_root` given the lcm of the denominators, as
    `NumberField` computes it once per modulus."""
    return _has_rational_root(coeffs, common_denominator(coeffs))


SQRT2 = NumberField([-2, 0, 1])  # t^2 - 2
CBRT2 = NumberField([-2, 0, 0, 1])  # t^3 - 2
# moduli with denominators: alpha^d is not an integer vector
SQRT_HALF = NumberField([Fraction(-1, 2), 0, 1])
CUBIC = NumberField([Fraction(-2, 5), 0, Fraction(1, 3), 1])


def regular_representation(field, x):
    """The Fraction view of the integer regular representation of the
    element with rational coordinates x."""
    return _fraction_rows(*_integer_representation(field, field_pair(x)))


def rand_elem(rng, field, span=5):
    return [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(field.degree)]


def matmul(A, B):
    d = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(d)) for j in range(d))
        for i in range(d)
    )


def test_regular_representation_examples():
    assert regular_representation(SQRT2, [1, 0]) == ((1, 0), (0, 1))
    R = regular_representation(SQRT2, [0, 1])
    assert R == ((0, 2), (1, 0))


def test_representation_is_ring_homomorphism(rng):
    for field in (SQRT2, CBRT2, SQRT_HALF, CUBIC):
        for _ in range(60):
            a = rand_elem(rng, field)
            b = rand_elem(rng, field)
            ra, rb = regular_representation(field, a), regular_representation(field, b)
            assert matmul(ra, rb) == regular_representation(field, field_times(field, a, b))
            add = regular_representation(field, [x + y for x, y in zip(a, b)])
            assert add == tuple(
                tuple(x + y for x, y in zip(ra[i], rb[i])) for i in range(field.degree)
            )


def test_irreducibility_guard():
    with pytest.raises(ValueError):
        NumberField([-1, 0, 1])  # (t-1)(t+1)
    with pytest.raises(ValueError):
        NumberField([0, 0, 1])  # t^2
    with pytest.raises(ValueError):
        NumberField([6, -5, 1])  # (t-2)(t-3)
    with pytest.raises(ValueError):
        NumberField([2, 0, 0])  # not monic
    # degree 1 always fine: the field is Q itself
    q = NumberField([5, 1])
    assert regular_representation(q, [Fraction(3, 2)]) == ((Fraction(3, 2),),)


def _divisors(n: int):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def reference_has_rational_root(coeffs) -> bool:
    """Rational-root test by divisor search (sqrt|c0| steps): candidates
    p/q with p | c0 and q | lead after clearing denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if len(ints) <= 1:
        return False
    if ints[0] == 0:
        return True
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    return True
    return False


def _times(p, q):
    """Product of two polynomials with ascending coefficients."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _monic_from_roots(roots, tail):
    """Ascending coefficients of prod (t - r) * (t^2 + tail) for the
    given rational roots, or of prod (t - r) alone when tail is None."""
    poly = [Fraction(1)] if tail is None else [Fraction(tail), 0, 1]
    for r in roots:
        poly = _times(poly, [-r, 1])
    return poly


def test_rational_root_test_matches_divisor_search():
    rng = random.Random(2024)
    seen = set()
    for _ in range(400):
        d = rng.randint(2, 5)
        if rng.random() < 0.4:
            # planted rational roots, some repeated, times t^2 + tail
            roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
            roots += roots[:1] * rng.randint(0, 1)
            tail = rng.choice([None, 1, 2, 3, -3, Fraction(1, 2)])
            coeffs = _monic_from_roots(roots, tail)
        else:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)] + [Fraction(1)]
        expected = reference_has_rational_root(coeffs)
        assert has_rational_root(coeffs) == expected, coeffs
        seen.add(expected)
    assert seen == {True, False}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.fractions(min_value=-12, max_value=12, max_denominator=5),
        min_size=2,
        max_size=5,
    )
)
def test_rational_root_test_matches_divisor_search_hypothesis(lower):
    coeffs = list(lower) + [Fraction(1)]
    assert has_rational_root(coeffs) == reference_has_rational_root(coeffs)


def test_sturm_chain_counts_distinct_real_roots():
    rng = random.Random(77)
    for _ in range(300):
        roots = sorted({rng.randint(-30, 30) for _ in range(rng.randint(1, 5))})
        poly = [1]
        for r in roots:
            for _ in range(rng.randint(1, 3)):  # repeated roots too
                poly = _times(poly, [-r, 1])
        if rng.random() < 0.5:  # times a quadratic without real roots
            b = rng.randint(-4, 4)
            poly = _times(poly, [b * b + rng.randint(1, 9), b, 1])
        poly = _times(poly, [rng.choice([-3, -1, 1, 2])])  # any leading sign
        chain = _sturm_chain(poly)
        for _ in range(5):
            a, b = sorted(rng.sample([x for x in range(-40, 41) if x not in roots], 2))
            drop = _sign_changes(chain, a) - _sign_changes(chain, b)
            assert drop == sum(a < r < b for r in roots), (poly, a, b)


def reference_sturm_chain(g):
    """The textbook chain over Q: p_{k+1} = -(p_{k-1} mod p_k)."""
    def trim(p):
        while p and p[-1] == 0:
            p = p[:-1]
        return p

    chain = [[Fraction(c) for c in g], [Fraction(k * c) for k, c in enumerate(g)][1:]]
    while len(chain[-1]) > 1:
        r, b = list(chain[-2]), chain[-1]
        while len(r) >= len(b):
            f, shift = r[-1] / b[-1], len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] -= f * c
            r = trim(r[:-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def test_sturm_chain_signs_match_the_rational_chain():
    # sparse moduli give degree drops of two or more, where a remainder
    # scaled by a negative factor would flip signs
    rng = random.Random(78)
    for _ in range(400):
        d = rng.randint(2, 6)
        g = [rng.choice([0, 0, 0, rng.randint(-6, 6)]) for _ in range(d)] + [1]
        chain, ref = _sturm_chain(g), reference_sturm_chain(g)
        assert len(chain) == len(ref)
        for x in range(-8, 9):
            assert _sign_changes(chain, x) == _sign_changes(ref, x), (g, x)


def test_rational_root_test_is_fast_on_large_constants():
    # a divisor search takes sqrt|c0| steps: hours for 21 digits
    for const, reducible in (
        (-123456789012345678901, False),
        (-(10**16 + 61), False),
        (-(123456789012**4), True),  # t^4 - c with the root 123456789012
        (-Fraction(10**21 + 7, 3), False),
    ):
        start = time.perf_counter()
        assert has_rational_root([Fraction(const), 0, 0, 0, Fraction(1)]) == reducible
        assert time.perf_counter() - start < 1.0
    # the search range has the bit size of the coefficients, not of
    # their powers: degree 80 stays fast
    rng = random.Random(80)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(80)] + [1]
    start = time.perf_counter()
    assert not has_rational_root(coeffs)
    assert has_rational_root(_times(coeffs, [Fraction(7, 3), 1]))  # root -7/3
    assert time.perf_counter() - start < 1.0
    text = "version 1\ngroup heisenberg-k 3 minpoly 1 0 0 0 -123456789012345678901\n"
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:  # no elements: stops at the problem check
        parse_instance_text(text)
    assert "missing problem" in str(err.value)
    assert err.value.line_no == 2  # the last line read
    assert time.perf_counter() - start < 1.0


def rand_heis(rng, field, n=3):
    """(a, b, c) of a random element of H_n over the field, as rational
    coordinate lists."""
    return (
        [rand_elem(rng, field, 3) for _ in range(n - 2)],
        [rand_elem(rng, field, 3) for _ in range(n - 2)],
        rand_elem(rng, field, 3),
    )


def _plus(*xs):
    return [sum(col) for col in zip(*xs)]


def _minus(x):
    return [-u for u in x]


def _pairing(field, a, b):
    """<a, b> = sum of a_i b_i in the field."""
    return _plus(*(field_times(field, x, y) for x, y in zip(a, b)))


def heis_times(field, g, h):
    """The group law (a + a', b + b', c + c' + <a, b'>)."""
    (a, b, c), (a2, b2, c2) = g, h
    return (
        [_plus(x, y) for x, y in zip(a, a2)],
        [_plus(x, y) for x, y in zip(b, b2)],
        _plus(c, c2, _pairing(field, a, b2)),
    )


def heis_inverse(field, g):
    """(-a, -b, -c + <a, b>): its product with g either way is 1."""
    a, b, c = g
    return [_minus(x) for x in a], [_minus(x) for x in b], _plus(_minus(c), _pairing(field, a, b))


def test_embed_identity():
    zero = field_pair([0, 0])
    assert embed_heisenberg(SQRT2, 3, [zero], [zero], zero) == UnipotentMatrix.identity(6)


def test_embed_block_structure():
    zero = field_pair([0, 0])
    m = embed_heisenberg(SQRT2, 3, [field_pair([0, 1])], [zero], zero)
    assert m.n == 6
    # (1,2) block in Heisenberg coordinates holds the multiplication
    # matrix of sqrt(2)
    assert m[0, 2] == 0 and m[0, 3] == 2
    assert m[1, 2] == 1 and m[1, 3] == 0


def test_embed_multiplicative(rng):
    for field, n in ((SQRT2, 3), (SQRT2, 4), (CBRT2, 3)):
        for _ in range(25):
            h1, h2 = rand_heis(rng, field, n), rand_heis(rng, field, n)
            m1, m2 = embed_coords(field, n, *h1), embed_coords(field, n, *h2)
            assert embed_coords(field, n, *heis_times(field, h1, h2)) == m1 * m2
            assert embed_coords(field, n, *heis_inverse(field, h1)) == m1.inverse()


def test_embedded_sets_are_two_step(rng):
    for field, n in ((SQRT2, 3), (CBRT2, 3), (SQRT2, 4)):
        gens = GeneratorSystem(
            [embed_coords(field, n, *rand_heis(rng, field, n)) for _ in range(4)]
        )
        assert is_two_step(gens)


def bits_of(mat_like) -> int:
    total = 0
    for row in mat_like:
        for x in row:
            f = Fraction(x)
            total += f.numerator.bit_length() + f.denominator.bit_length()
    return total


def test_embedding_bitsize_monitor(rng):
    # monitored bound, deliberately loose: output size stays within a
    # generous quadratic envelope of the input size
    for _ in range(20):
        a, b, c = h = rand_heis(rng, SQRT2, 3)
        in_bits = max(16, bits_of(a + b + [c]))
        out_bits = bits_of(embed_coords(SQRT2, 3, *h).rows)
        assert out_bits <= 64 * in_bits * in_bits
