"""Number fields Q(alpha) and their embedding into rational matrices.

A number field is given by a monic polynomial over Q; elements are
coordinate vectors in the power basis 1, alpha, ..., alpha^(d-1).  The
parser reads each element as a pair (U, q): an integer coordinate vector
U over a positive denominator q, standing for U/q.  Elements are only
embedded, never multiplied.  Multiplication by a fixed element is a
Q-linear endomorphism, and its matrix (the regular representation) gives
a unital ring embedding of the field into d x d rational matrices.
Applied blockwise, it embeds the (n x n) Heisenberg group over the field
into UT(n*d, Q).

The regular representation of Q[t]/(f) is injective for every monic f,
irreducible or not: the matrix of x applied to 1 is x itself.  The
embedded matrices are unipotent upper triangular whatever f is, so the
embedded group is 2-step nilpotent and the decisions are exact for
H_n(Q[t]/(f)) for any monic f.  Irreducibility is needed only to read
Q[t]/(f) as a field.  The rejection of a modulus with a rational root is
an input contract, not a condition of the embedding, and it is
incomplete from degree 4: (t^2 + 1)(t^2 + 2) has no rational root and is
accepted.  The test runs at a cost polynomial in the bit size of the
coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .matlie import UnipotentMatrix, common_denominator


def _evaluate(poly, x):
    """poly(x) by Horner's rule, for ascending coefficients."""
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _negated_remainder(a, b):
    """A positive multiple of -(a mod b), primitive, for integer
    polynomials as ascending lists without trailing zeros ([] is 0).

    Pseudo-division with the multiplier |lead(b)| at each step, so the
    sign of the remainder is kept, as a Sturm chain needs.
    """
    lead = b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    r = list(a)
    while len(r) >= len(b):
        top = sign * r[-1]
        shift = len(r) - len(b)
        r = [scale * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= top * c
        while r and not r[-1]:
            r.pop()
    if not r:
        return r
    g = gcd(*r)
    return [-c // g for c in r]


def _sturm_chain(g):
    """The Sturm chain of an integer polynomial g of degree >= 1: g, g',
    then negated remainders, each scaled by a positive factor."""
    chain = [g, [k * c for k, c in enumerate(g)][1:]]
    while len(chain[-1]) > 1:
        rem = _negated_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(rem)
    return chain


def _sign_changes(chain, x):
    """Sign changes along the chain evaluated at x, zeros skipped."""
    signs = [v > 0 for v in (_evaluate(p, x) for p in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _has_rational_root(coeffs, big_l) -> bool:
    """Whether a monic polynomial over Q has a rational root.

    coeffs are ascending Fractions, c0 + c1 t + ... + t^d with d >= 2,
    and big_l is L, the lcm of their denominators.  Then g(u) =
    L^d f(u/L) is monic with the integer coefficients g_k = c_k L^(d-k);
    f(t) = 0 iff g(L t) = 0, and the rational roots of a monic integer
    polynomial are integers.  So the test looks for an integer root of g:

    * every root of g lies strictly inside (-B, B) for B = L (1 + max
      |c_k|), k < d: the roots t of f satisfy |t| < 1 + max |c_k| (Cauchy),
      and u = L t;
    * along the Sturm chain of g (`_sturm_chain`), the drop V(a) - V(b)
      in sign changes counts the distinct real roots in (a, b) whenever
      g(a) and g(b) are nonzero, repeated roots included;
    * an interval with a root and an integer inside is split at an
      integer midpoint m after g(m) = 0 is tested directly.

    At most d intervals are live on each of the log2(2B) levels of
    halving, and B has the bit size of L c_k, so the cost is polynomial in
    the bit size of the coefficients (a search over the divisors of c0
    would take sqrt|c0| steps).
    """
    d = len(coeffs) - 1
    g = [int(c * big_l ** (d - k)) for k, c in enumerate(coeffs)]
    if not g[0]:
        return True  # root at 0
    chain = _sturm_chain(g)
    bound = big_l + max(abs(int(c * big_l)) for c in coeffs[:-1])
    live = [(-bound, bound, _sign_changes(chain, -bound), _sign_changes(chain, bound))]
    while live:
        a, b, va, vb = live.pop()
        if va == vb or b - a < 2:
            continue
        m = (a + b) // 2
        if not _evaluate(g, m):
            return True
        vm = _sign_changes(chain, m)
        live.append((a, m, va, vm))
        live.append((m, b, vm, vb))
    return False


class NumberField:
    """Q[t] / (monic modulus), with elements in the power basis."""

    __slots__ = ("coeffs", "degree", "_alpha_d")

    def __init__(self, coeffs):
        """coeffs: ascending coefficients c0..cd of a monic polynomial."""
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) < 2:
            raise ValueError("modulus must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("modulus must be monic")
        d = len(coeffs) - 1
        # the lcm of the denominators, the monic top coefficient adding none
        m = common_denominator(coeffs[:-1])
        if d >= 2 and _has_rational_root(coeffs, m):
            raise ValueError(
                "modulus has a rational root, so it is reducible over Q"
            )
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "degree", d)
        # alpha^d = -(c0 + c1 a + ... + c_{d-1} a^{d-1}) = h/m over the
        # integers, for `_integer_representation`
        h = tuple(-c.numerator * (m // c.denominator) for c in coeffs[:-1])
        object.__setattr__(self, "_alpha_d", (m, h))

    def __setattr__(self, name, value):
        raise AttributeError("NumberField is immutable")

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = " + ".join(
            f"{c}*t^{i}" for i, c in enumerate(self.coeffs) if c
        )
        return f"<NumberField t^{self.degree}: {terms}>"


def _integer_representation(field: NumberField, x):
    """The regular representation of x = (U, q), as (B, e) with B an
    integer table.

    x is the field element U/q: U an integer coordinate vector in the
    power basis, q > 0.  B/e is the matrix of multiplication by x: column
    j holds the coordinates of x * alpha^j, so composition matches field
    multiplication and x -> B/e is a unital ring homomorphism.

    Multiplying by alpha shifts the coordinates up one place and adds the
    top one times alpha^d = h/m, for h the integer vector -m (c_0, ...,
    c_{d-1}) and m the lcm of the modulus' denominators.  So
    x alpha^j = U_j / (q m^j) for the integer vectors U_0 = U and
    U_{j+1} = m shift(U_j) + top(U_j) h, and e = q m^(d-1) with column j
    scaled by m^(d-1-j).
    """
    col, q = x
    d = field.degree
    m, h = field._alpha_d
    cols = [col]
    for _ in range(d - 1):
        top = col[-1]
        col = [top * h[0]] + [m * u + top * hi for u, hi in zip(col, h[1:])]
        cols.append(col)
    scales = [m ** (d - 1 - j) for j in range(d)]
    table = tuple(
        tuple(cols[j][i] * scales[j] for j in range(d)) for i in range(d)
    )
    return table, q * m ** (d - 1)


def embed_heisenberg(field: NumberField, n: int, a, b, c) -> UnipotentMatrix:
    """Embed an n x n Heisenberg element over Q(alpha) into UT(n*d, Q).

    The element has the row a and the column b (n - 2 field entries each)
    and the corner c; every entry is a pair (U, q) as in
    `_integer_representation`.  Each field entry of the Heisenberg matrix
    becomes the d x d block of its regular representation; ones and zeros
    become identity and zero blocks.  The map is injective and
    multiplicative for the group law
    (a, b, c)(a', b', c') = (a + a', b + b', c + c' + <a, b'>).

    The matrix is written as one integer table over the lcm L of the
    denominators of the blocks B/e (`_integer_representation`): identity
    blocks hold L on their diagonal, and each block is scaled by L/e.
    """
    d = field.degree
    placed = [(0, 1 + j, x) for j, x in enumerate(a)]
    placed += [(1 + i, n - 1, x) for i, x in enumerate(b)]
    placed.append((0, n - 1, c))
    blocks = [
        (bi, bj, *_integer_representation(field, x))
        for bi, bj, x in placed
        if any(x[0])  # U = 0: a zero block
    ]
    den = lcm(*(e for *_, e in blocks))
    size = n * d
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = den
    for bi, bj, block, e in blocks:
        scale = den // e
        for i, brow in enumerate(block):
            row = rows[bi * d + i]
            for j, x in enumerate(brow):
                row[bj * d + j] = x * scale
    return UnipotentMatrix._from_integer(size, tuple(map(tuple, rows)), den)
