"""Arithmetic in Q(alpha) and the embedding into rational matrices.

A number field is given by a monic polynomial over Q; elements are
coordinate vectors in the power basis 1, alpha, ..., alpha^(d-1).
Multiplication by a fixed element is a Q-linear endomorphism, and its
matrix (the regular representation) gives a unital ring embedding of the
field into d x d rational matrices.  Applied blockwise, it embeds the
(n x n) Heisenberg group over the field into UT(n*d, Q).

Irreducibility of the modulus is the caller's responsibility: only a
rational-root test is run (complete for degree <= 3).  Multiplication
and the representation are well defined for any monic modulus;
irreducibility is what makes the field interpretation injective.
"""

from __future__ import annotations

from fractions import Fraction

from .matlie import UnipotentMatrix, common_denominator

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def _has_rational_root(coeffs) -> bool:
    """Rational-root test for a polynomial with Fraction coefficients.

    coeffs are ascending (c0 + c1 t + ... + cd t^d).  Candidates p/q with
    p | numerator(c0') and q | leading coefficient after clearing
    denominators.
    """
    den = common_denominator(coeffs)
    ints = [int(c * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if len(ints) <= 1:
        return False
    if ints[0] == 0:
        return True  # root at 0
    lead = ints[-1]
    const = ints[0]
    for p in _divisors(const):
        for q in _divisors(lead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = _ZERO
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    return True
    return False


class NumberField:
    """Q[t] / (monic modulus), with elements in the power basis."""

    __slots__ = ("coeffs", "degree", "_high_powers")

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
        coords = tuple(Fraction(c) for c in coords)
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


def regular_representation(x: FieldElem):
    """Matrix of multiplication-by-x in the power basis (d x d Fractions).

    Column j holds the coordinates of x * alpha^j, so composition matches
    field multiplication and the map is a unital ring homomorphism.
    """
    field = x.field
    d = field.degree
    cols = []
    cur = x
    alpha = field.alpha()
    for j in range(d):
        cols.append(cur.coords)
        if j + 1 < d:
            cur = cur * alpha
    return tuple(
        tuple(cols[j][i] for j in range(d)) for i in range(d)
    )


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
    regular_representation(e); ones and zeros become identity and zero
    blocks.  The map is injective and multiplicative.
    """
    n, d = h.n, h.field.degree
    size = n * d
    rows = [[_ZERO] * size for _ in range(size)]

    def put_block(bi, bj, block):
        for i in range(d):
            for j in range(d):
                rows[bi * d + i][bj * d + j] = block[i][j]

    ident = tuple(
        tuple(_ONE if i == j else _ZERO for j in range(d)) for i in range(d)
    )
    for i in range(n):
        put_block(i, i, ident)
    for j, e in enumerate(h.a):
        put_block(0, 1 + j, regular_representation(e))
    for i, e in enumerate(h.b):
        put_block(1 + i, n - 1, regular_representation(e))
    put_block(0, n - 1, regular_representation(h.c))
    return UnipotentMatrix(rows)
