"""Arithmetic in Q(alpha) and the embedding into rational matrices.

A number field is given by a monic polynomial over Q; elements are
coordinate vectors in the power basis 1, alpha, ..., alpha^(d-1).
Multiplication by a fixed element is a Q-linear endomorphism, and its
matrix (the regular representation) gives a unital ring embedding of the
field into d x d rational matrices.  Applied blockwise, it embeds the
(n x n) Heisenberg group over the field into UT(n*d, Q).

The regular representation of Q[t]/(f) is injective for every monic f,
irreducible or not: the matrix of x applied to 1 is x itself.  The
embedded matrices are unipotent upper triangular whatever f is, so the
embedded group is 2-step nilpotent and the decisions are exact for
H_n(Q[t]/(f)) for any monic f.  Irreducibility is needed only to read
Q[t]/(f) as a field (for `FieldElem.inverse`).  The rejection of a
modulus with a rational root is an input contract, not a condition of
the embedding, and it is incomplete from degree 4:
(t^2 + 1)(t^2 + 2) has no rational root and is accepted.  The test runs
at a cost polynomial in the bit size of the coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .matlie import UnipotentMatrix, _as_fraction, common_denominator

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def _has_rational_root(coeffs) -> bool:
    """Whether a monic polynomial over Q has a rational root.

    coeffs are ascending Fractions, c0 + c1 t + ... + t^d with d >= 2.
    With L the lcm of their denominators, g(u) = L^d f(u/L) is monic
    with the integer coefficients g_k = c_k L^(d-k); f(t) = 0 iff
    g(L t) = 0, and the rational roots of a monic integer polynomial are
    integers.  So the test looks for an integer root of g:

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
    big_l = common_denominator(coeffs)
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

    __slots__ = ("coeffs", "degree", "_high_powers", "_alpha_d")

    def __init__(self, coeffs):
        """coeffs: ascending coefficients c0..cd of a monic polynomial."""
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) < 2:
            raise ValueError("modulus must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("modulus must be monic")
        d = len(coeffs) - 1
        if d >= 2 and _has_rational_root(coeffs):
            raise ValueError(
                "modulus has a rational root, so it is reducible over Q"
            )
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "degree", d)
        # alpha^d = -(c0 + c1 a + ... + c_{d-1} a^{d-1}); cache a^d .. a^{2d-2}
        high = []
        prev = [-c for c in coeffs[:-1]]
        high.append(tuple(prev))
        for _ in range(d - 2):
            nxt = [_ZERO] + prev[:-1]
            lead = prev[-1]
            if lead:
                nxt = [a + lead * b for a, b in zip(nxt, high[0])]
            high.append(tuple(nxt))
            prev = nxt
        object.__setattr__(self, "_high_powers", tuple(high))
        # alpha^d = h/m over the integers, for `_integer_representation`
        m = common_denominator(high[0])
        object.__setattr__(self, "_alpha_d", (m, tuple(int(c * m) for c in high[0])))

    def __setattr__(self, name, value):
        raise AttributeError("NumberField is immutable")

    def element(self, coords) -> "FieldElem":
        return FieldElem(self, coords)

    def from_rational(self, q) -> "FieldElem":
        coords = [_ZERO] * self.degree
        coords[0] = Fraction(q)
        return FieldElem(self, coords)

    def zero(self) -> "FieldElem":
        return self.from_rational(0)

    def one(self) -> "FieldElem":
        return self.from_rational(1)

    def alpha(self) -> "FieldElem":
        if self.degree == 1:
            return self.from_rational(-self.coeffs[0])
        coords = [_ZERO] * self.degree
        coords[1] = _ONE
        return FieldElem(self, coords)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = " + ".join(
            f"{c}*t^{i}" for i, c in enumerate(self.coeffs) if c
        )
        return f"<NumberField t^{self.degree}: {terms}>"


class FieldElem:
    """Element of a NumberField: a coordinate vector in the power basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords):
        coords = tuple(map(_as_fraction, coords))
        if len(coords) != field.degree:
            raise ValueError(
                f"expected {field.degree} coordinates, got {len(coords)}"
            )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")

    def __add__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        self._check(other)
        return FieldElem(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        self._check(other)
        return FieldElem(self.field, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return FieldElem(self.field, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElem(self.field, [a * other for a in self.coords])
        if not isinstance(other, FieldElem):
            return NotImplemented
        self._check(other)
        d = self.field.degree
        prod = [_ZERO] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        prod[i + j] += a * b
        out = list(prod[:d])
        for e, coef in enumerate(prod[d:]):
            if coef:
                for i, h in enumerate(self.field._high_powers[e]):
                    out[i] += coef * h
        return FieldElem(self.field, out)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        """Multiplicative inverse via the extended Euclidean algorithm.

        Runs over Q[t] against the modulus.  Fails (ValueError) for zero;
        for a reducible modulus a nonzero zero-divisor also fails, which
        is reported as such.
        """
        if self.is_zero():
            raise ValueError("inversion of zero")
        mod = list(self.field.coeffs)
        a = list(self.coords)

        def deg(p):
            d = len(p) - 1
            while d >= 0 and p[d] == 0:
                d -= 1
            return d

        def polydivmod(num, den):
            num = list(num)
            dd = deg(den)
            lead = den[dd]
            quot = [_ZERO] * (max(deg(num) - dd, -1) + 1)
            while deg(num) >= dd:
                shift = deg(num) - dd
                factor = num[deg(num)] / lead
                quot[shift] = factor
                for i in range(dd + 1):
                    num[shift + i] -= factor * den[i]
            return quot, num

        # extended gcd of (a, mod): r0 = mod, r1 = a
        r0, r1 = mod, a
        s0, s1 = [_ZERO], [_ONE]  # coefficients on a
        while deg(r1) > 0:
            q, rem = polydivmod(r0, r1)
            r0, r1 = r1, rem
            # s_next = s0 - q * s1
            prod = [_ZERO] * (deg(q) + deg(s1) + 2 if deg(q) >= 0 and deg(s1) >= 0 else 1)
            for i in range(deg(q) + 1):
                if q[i]:
                    for j in range(deg(s1) + 1):
                        if s1[j]:
                            prod[i + j] += q[i] * s1[j]
            ln = max(len(s0), len(prod))
            s_next = [
                (s0[i] if i < len(s0) else _ZERO) - (prod[i] if i < len(prod) else _ZERO)
                for i in range(ln)
            ]
            s0, s1 = s1, s_next
        if deg(r1) != 0:
            raise ValueError("element is a zero divisor (modulus not irreducible)")
        scale = _ONE / r1[0]
        d = self.field.degree
        coords = [_ZERO] * d
        for i in range(min(len(s1), d)):
            coords[i] = s1[i] * scale
        inv = FieldElem(self.field, coords)
        return inv

    def __truediv__(self, other):
        if isinstance(other, FieldElem):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return FieldElem(self.field, [a / other for a in self.coords])
        return NotImplemented

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElem)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field, self.coords))

    def __repr__(self):
        return f"<elem ({', '.join(str(c) for c in self.coords)})>"


def _integer_representation(x: FieldElem):
    """The regular representation of x, as (B, e) with B an integer table.

    B/e is the matrix of multiplication by x in the power basis: column j
    holds the coordinates of x * alpha^j, so composition matches field
    multiplication and x -> B/e is a unital ring homomorphism.

    Multiplying by alpha shifts the coordinates up one place and adds the
    top one times alpha^d = h/m, for h the integer vector -m (c_0, ...,
    c_{d-1}) and m the lcm of the modulus' denominators.  So with x = U/q
    (U an integer vector), x alpha^j = U_j / (q m^j) for the integer
    vectors U_0 = U and U_{j+1} = m shift(U_j) + top(U_j) h, and
    e = q m^(d-1) with column j scaled by m^(d-1-j).
    """
    d = x.field.degree
    m, h = x.field._alpha_d
    q = common_denominator(x.coords)
    col = [c.numerator * (q // c.denominator) for c in x.coords]
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


class HeisenbergElemK:
    """Element of the n x n Heisenberg group over a number field.

    Coordinates: vectors a, b of length n-2 and a corner entry c, all
    field elements.  The group law is
    (a, b, c)(a', b', c') = (a+a', b+b', c+c'+<a, b'>).
    """

    __slots__ = ("n", "a", "b", "c")

    def __init__(self, n: int, a, b, c: FieldElem):
        if n < 3:
            raise ValueError("Heisenberg dimension must be >= 3")
        a = tuple(a)
        b = tuple(b)
        if len(a) != n - 2 or len(b) != n - 2:
            raise ValueError(f"a and b must have length {n - 2}")
        fields = {x.field for x in a} | {x.field for x in b} | {c.field}
        if len(fields) != 1:
            raise ValueError("mixed fields in Heisenberg element")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("HeisenbergElemK is immutable")

    @property
    def field(self) -> NumberField:
        return self.c.field

    @classmethod
    def identity(cls, n: int, field: NumberField) -> "HeisenbergElemK":
        zero = field.zero()
        return cls(n, [zero] * (n - 2), [zero] * (n - 2), zero)

    def __mul__(self, other):
        if not isinstance(other, HeisenbergElemK):
            return NotImplemented
        if self.n != other.n or self.field != other.field:
            raise ValueError("mismatched Heisenberg elements")
        cross = self.field.zero()
        for x, y in zip(self.a, other.b):
            cross = cross + x * y
        return HeisenbergElemK(
            self.n,
            [x + y for x, y in zip(self.a, other.a)],
            [x + y for x, y in zip(self.b, other.b)],
            self.c + other.c + cross,
        )

    def inverse(self) -> "HeisenbergElemK":
        cross = self.field.zero()
        for x, y in zip(self.a, self.b):
            cross = cross + x * y
        return HeisenbergElemK(
            self.n,
            [-x for x in self.a],
            [-x for x in self.b],
            -self.c + cross,
        )

    def __eq__(self, other):
        return (
            isinstance(other, HeisenbergElemK)
            and self.n == other.n
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.n, self.a, self.b, self.c))

    def __repr__(self):
        return f"<H{self.n} a={self.a} b={self.b} c={self.c}>"


def embed_heisenberg(h: HeisenbergElemK) -> UnipotentMatrix:
    """Embed an n x n Heisenberg element over Q(alpha) into UT(n*d, Q).

    Each field entry e of the Heisenberg matrix becomes the d x d block
    of its regular representation; ones and zeros become identity and
    zero blocks.  The map is injective and multiplicative.

    The matrix is written as one integer table over the lcm L of the
    denominators of the blocks B/e (`_integer_representation`): identity
    blocks hold L on their diagonal, and each block is scaled by L/e.
    """
    n, d = h.n, h.field.degree
    placed = [(0, 1 + j, e) for j, e in enumerate(h.a)]
    placed += [(1 + i, n - 1, e) for i, e in enumerate(h.b)]
    placed.append((0, n - 1, h.c))
    blocks = [
        (bi, bj, *_integer_representation(e)) for bi, bj, e in placed if not e.is_zero()
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
