"""Exact arithmetic for unipotent rational matrices and their Lie algebra.

The group side is UT(n, Q): upper triangular matrices with unit diagonal
and rational entries.  The algebra side is the space of strictly upper
triangular rational matrices.  The matrix logarithm and exponential are
terminating series on these sets and are computed exactly; there is no
floating point anywhere in this package.

Matrices are immutable (tuples of tuples of Fraction), hashable and safe
to share between threads.  All operations are pure functions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _freeze(rows):
    """Coerce a row-major table to a square tuple-of-tuples of Fractions."""
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    n = len(out)
    for row in out:
        if len(row) != n:
            raise ValueError("matrix is not square")
    return n, out


def _identity_rows(n):
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
    )


def _zero_rows(n):
    return tuple((_ZERO,) * n for _ in range(n))


def mul_upper_rows(a, b, n, zero=0):
    """Product of two upper triangular row tables, skipping zero entries.

    Works for any numeric entry type (Fraction or plain int); relies on
    both inputs being upper triangular.  Entries no product reaches are
    `zero`: the matrix classes pass Fraction(0), so their tables stay
    all-Fraction.
    """
    rows = []
    for i in range(n):
        ai = a[i]
        acc = [zero] * n
        for k in range(i, n):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(k, n):
                    y = bk[j]
                    if y:
                        acc[j] = acc[j] + x * y
        rows.append(tuple(acc))
    return tuple(rows)


def _add(a, b, n):
    return tuple(
        tuple(a[i][j] + b[i][j] for j in range(n)) for i in range(n)
    )


def _sub(a, b, n):
    return tuple(
        tuple(a[i][j] - b[i][j] for j in range(n)) for i in range(n)
    )


def _scale(a, coef, n):
    return tuple(tuple(coef * x for x in row) for row in a)


def _is_zero_rows(a):
    return all(not x for row in a for x in row)


def common_denominator(values) -> int:
    """Least common multiple of the denominators of the given rationals.

    A fold, so no argument tuple of every denominator is built.
    """
    d = 1
    for v in values:
        d = lcm(d, v.denominator)
    return d


def _integer_log(m: UnipotentMatrix):
    """Integer row table of a positive multiple of log m, fraction-free.

    With d the common denominator of M - I, N' = d(M - I) is an integer
    table; for p the last k with N'^k != 0 and L = lcm(1..p),

        sum_{k<=p} (-1)^(k-1) (L/k) d^(p-k) N'^k  =  L d^p log M.
    """
    n = m.n
    d = common_denominator(x for row in m.rows for x in row)
    nil = tuple(
        tuple(int(x * d) if j > i else 0 for j, x in enumerate(row))
        for i, row in enumerate(m.rows)
    )
    powers = []
    power = nil
    while not _is_zero_rows(power):
        powers.append(power)
        power = mul_upper_rows(power, nil, n)
    p = len(powers)
    big_l = lcm(*range(1, p + 1))
    acc = ((0,) * n,) * n
    for k, power in enumerate(powers, start=1):
        coef = (-1) ** (k - 1) * (big_l // k) * d ** (p - k)
        acc = _add(acc, _scale(power, coef, n), n)
    return acc


class UnipotentMatrix:
    """Element of UT(n, Q): unit diagonal, zero below it, exact entries."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        n, table = _freeze(rows)
        for i in range(n):
            if table[i][i] != 1:
                raise ValueError(f"diagonal entry ({i},{i}) is not 1")
            for j in range(i):
                if table[i][j]:
                    raise ValueError(f"nonzero entry ({i},{j}) below the diagonal")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", table)

    def __setattr__(self, name, value):
        raise AttributeError("UnipotentMatrix is immutable")

    @classmethod
    def identity(cls, n) -> "UnipotentMatrix":
        return cls(_identity_rows(n))

    @classmethod
    def _wrap(cls, n, rows):
        m = object.__new__(cls)
        object.__setattr__(m, "n", n)
        object.__setattr__(m, "rows", rows)
        return m

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __mul__(self, other):
        if not isinstance(other, UnipotentMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        rows = mul_upper_rows(self.rows, other.rows, self.n, _ZERO)
        return UnipotentMatrix._wrap(self.n, rows)

    def __pow__(self, e: int) -> "UnipotentMatrix":
        """A^e = exp(e log A), exact for every integer e (log A commutes
        with itself), so the cost does not grow with |e|."""
        return exp_nilpotent(log_unipotent(self) * e)

    def inverse(self) -> "UnipotentMatrix":
        # (I + N)^-1 = sum_k (-N)^k, N strictly upper so the series stops
        n = self.n
        nil = _sub(self.rows, _identity_rows(n), n)
        acc = _identity_rows(n)
        power = _identity_rows(n)
        for k in range(1, n):
            power = mul_upper_rows(power, nil, n, _ZERO)
            if _is_zero_rows(power):
                break
            if k % 2:
                acc = _sub(acc, power, n)
            else:
                acc = _add(acc, power, n)
        return UnipotentMatrix._wrap(n, acc)

    def log(self) -> "NilpotentMatrix":
        return log_unipotent(self)

    def __eq__(self, other):
        return isinstance(other, UnipotentMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"<UT{self.n} [{body}]>"


class NilpotentMatrix:
    """Strictly upper triangular rational matrix (a Lie algebra element)."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        n, table = _freeze(rows)
        for i in range(n):
            for j in range(i + 1):
                if table[i][j]:
                    raise ValueError(f"nonzero entry ({i},{j}) on or below the diagonal")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", table)

    def __setattr__(self, name, value):
        raise AttributeError("NilpotentMatrix is immutable")

    @classmethod
    def zero(cls, n) -> "NilpotentMatrix":
        return cls(_zero_rows(n))

    @classmethod
    def _wrap(cls, n, rows):
        m = object.__new__(cls)
        object.__setattr__(m, "n", n)
        object.__setattr__(m, "rows", rows)
        return m

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __add__(self, other):
        if not isinstance(other, NilpotentMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return NilpotentMatrix._wrap(self.n, _add(self.rows, other.rows, self.n))

    def __sub__(self, other):
        if not isinstance(other, NilpotentMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return NilpotentMatrix._wrap(self.n, _sub(self.rows, other.rows, self.n))

    def __neg__(self):
        return NilpotentMatrix._wrap(self.n, _scale(self.rows, Fraction(-1), self.n))

    def __mul__(self, coef):
        if isinstance(coef, (int, Fraction)):
            return NilpotentMatrix._wrap(self.n, _scale(self.rows, Fraction(coef), self.n))
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return _is_zero_rows(self.rows)

    def exp(self) -> UnipotentMatrix:
        return exp_nilpotent(self)

    def __eq__(self, other):
        return isinstance(other, NilpotentMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"<nil{self.n} [{body}]>"


def log_unipotent(m: UnipotentMatrix) -> NilpotentMatrix:
    """Matrix logarithm on UT(n, Q): sum_{k>=1} (-1)^(k-1)/k (M-I)^k.

    The series stops because (M-I)^n = 0; the result is exact.
    """
    if not isinstance(m, UnipotentMatrix):
        m = UnipotentMatrix(m)
    n = m.n
    s = _sub(m.rows, _identity_rows(n), n)
    acc = _zero_rows(n)
    power = s
    k = 1
    while k < n and not _is_zero_rows(power):
        acc = _add(acc, _scale(power, Fraction((-1) ** (k - 1), k), n), n)
        power = mul_upper_rows(power, s, n, _ZERO)
        k += 1
    return NilpotentMatrix._wrap(n, acc)


def exp_nilpotent(x: NilpotentMatrix) -> UnipotentMatrix:
    """Matrix exponential on strictly upper triangular matrices: sum X^k/k!."""
    if not isinstance(x, NilpotentMatrix):
        x = NilpotentMatrix(x)
    n = x.n
    acc = _identity_rows(n)
    power = _identity_rows(n)
    fact = 1
    for k in range(1, n):
        power = mul_upper_rows(power, x.rows, n, _ZERO)
        if _is_zero_rows(power):
            break
        fact *= k
        acc = _add(acc, _scale(power, Fraction(1, fact), n), n)
    return UnipotentMatrix._wrap(n, acc)


def bracket(x: NilpotentMatrix, y: NilpotentMatrix) -> NilpotentMatrix:
    """Lie bracket [X, Y] = XY - YX."""
    if x.n != y.n:
        raise ValueError("dimension mismatch")
    n = x.n
    xy = mul_upper_rows(x.rows, y.rows, n, _ZERO)
    yx = mul_upper_rows(y.rows, x.rows, n, _ZERO)
    return NilpotentMatrix._wrap(n, _sub(xy, yx, n))


def direct_sum(mats) -> UnipotentMatrix:
    """Block-diagonal join of unipotent matrices (for product groups)."""
    mats = list(mats)
    if not mats:
        raise ValueError("empty direct sum")
    total = sum(m.n for m in mats)
    rows = [[_ZERO] * total for _ in range(total)]
    off = 0
    for m in mats:
        for i in range(m.n):
            row = rows[off + i]
            mi = m.rows[i]
            for j in range(m.n):
                row[off + j] = mi[j]
        off += m.n
    return UnipotentMatrix(rows)


class GeneratorSystem:
    """A named finite alphabet of unipotent matrices with cached logs/brackets.

    Immutable after construction.  `log(i)` and `bracket_log(i, j)` are
    computed on first use and memoised, as is the verdict of
    `is_two_step`.
    """

    __slots__ = ("n", "mats", "names", "_logs", "_brackets", "_two_step")

    def __init__(self, mats, names=None):
        mats = tuple(m if isinstance(m, UnipotentMatrix) else UnipotentMatrix(m) for m in mats)
        if not mats:
            raise ValueError("generator system needs at least one matrix")
        n = mats[0].n
        if any(m.n != n for m in mats):
            raise ValueError("generators have mixed dimensions")
        if names is None:
            names = tuple(f"g{i}" for i in range(len(mats)))
        else:
            names = tuple(str(s) for s in names)
            if len(names) != len(mats):
                raise ValueError("one name per generator required")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_logs", [None] * len(mats))
        object.__setattr__(self, "_brackets", {})
        object.__setattr__(self, "_two_step", None)

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorSystem is immutable")

    def __len__(self):
        return len(self.mats)

    @property
    def K(self) -> int:
        return len(self.mats)

    def log(self, i: int) -> NilpotentMatrix:
        cached = self._logs[i]
        if cached is None:
            cached = log_unipotent(self.mats[i])
            self._logs[i] = cached
        return cached

    def bracket_log(self, i: int, j: int) -> NilpotentMatrix:
        """[log A_i, log A_j]; cached for i < j, antisymmetric otherwise."""
        if i == j:
            return NilpotentMatrix.zero(self.n)
        if i > j:
            return -self.bracket_log(j, i)
        key = (i, j)
        cached = self._brackets.get(key)
        if cached is None:
            cached = bracket(self.log(i), self.log(j))
            self._brackets[key] = cached
        return cached


def is_two_step(gens: GeneratorSystem) -> bool:
    """Whether the group generated is 2-step nilpotent.

    Checked on the Lie side: with x_i = log A_i, the group is 2-step
    nilpotent iff the rational Lie algebra generated by the x_i is (the
    Mal'cev correspondence), and that holds iff [[x_i, x_j], x_k] = 0 for
    all i < j and all k.  For the converse, by Jacobi the centraliser of
    [x_i, x_j] is a subalgebra; it holds every generator, hence the whole
    algebra, so every bracket of three or more elements vanishes.

    The test is a zero test and bilinear, so it gives the same answer
    when each x_i is replaced by a positive multiple of itself.  It runs
    on the integer multiples of `_integer_log`; rationals are touched only
    to clear the denominators of each generator.
    """
    if gens._two_step is not None:
        return gens._two_step
    n = gens.n
    logs = [_integer_log(m) for m in gens.mats]
    result = True
    for i in range(len(logs)):
        for j in range(i + 1, len(logs)):
            xi, xj = logs[i], logs[j]
            inner = _sub(mul_upper_rows(xi, xj, n), mul_upper_rows(xj, xi, n), n)
            if _is_zero_rows(inner):
                continue
            for xk in logs:
                if mul_upper_rows(inner, xk, n) != mul_upper_rows(xk, inner, n):
                    result = False
                    break
            if not result:
                break
        if not result:
            break
    object.__setattr__(gens, "_two_step", result)
    return result


def bch_log(gens: GeneratorSystem, parikh, delta) -> NilpotentMatrix:
    """Logarithm of any word with the given letter counts and delta table.

    Computes sum_i l_i log A_i + 1/2 sum_{i<j} delta_ij [log A_i, log A_j],
    which equals log of the word product whenever the generated group is
    2-step nilpotent (a precondition, enforced here).
    """
    if not is_two_step(gens):
        raise ValueError("generator system is not 2-step nilpotent")
    k = gens.K
    if len(parikh) != k:
        raise ValueError("parikh vector length does not match alphabet size")
    acc = NilpotentMatrix.zero(gens.n)
    for i, count in enumerate(parikh):
        if count:
            acc = acc + gens.log(i) * Fraction(count)
    for (i, j), d in delta.items():
        if not 0 <= i < j < k:
            raise ValueError(f"bad delta index pair {(i, j)}")
        if d:
            acc = acc + gens.bracket_log(i, j) * Fraction(d, 2)
    return acc


def product_of_word(gens: GeneratorSystem, word) -> UnipotentMatrix:
    """Ordered product of the word's generators; empty word gives I.

    A run of c > 1 copies of A is multiplied in as A^c = exp(c log A),
    with log A cached by `gens`, so a run costs the same whatever its
    length; a single copy is multiplied in as A itself, which is cheaper.
    This is plain matrix multiplication, independent of the BCH identity
    and of the generated group being 2-step nilpotent.
    """
    acc = UnipotentMatrix.identity(gens.n)
    for letter, count in word.runs:
        if not 0 <= letter < gens.K:
            raise IndexError(f"letter {letter} out of range for {gens.K} generators")
        if count == 1:
            acc = acc * gens.mats[letter]
        else:
            acc = acc * exp_nilpotent(gens.log(letter) * count)
    return acc
