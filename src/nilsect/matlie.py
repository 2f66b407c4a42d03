"""Exact arithmetic for unipotent rational matrices and their logarithms.

The group side is UT(n, Q): upper triangular matrices with unit diagonal
and rational entries.  The matrix logarithm is a terminating series on
this set and is computed exactly; there is no floating point anywhere in
this package.  The Lie algebra enters only through the 2-step BCH
formula, so a log is never a matrix object: it is an integer table X
over a denominator D, reduced (`log_unipotent`), and a bracket is the
integer table XY - YX (`_integer_bracket`).

UnipotentMatrix is immutable, hashable, safe to share between threads,
and compares by exact equality.  Products, powers and logs are computed
fraction-free, in the manner of Bareiss (1968): a UnipotentMatrix is one
integer table over a common denominator, reduced so that equal matrices
have equal tables, and a denominator is divided out by one gcd per
result.  No matrix holds a Fraction: a Fraction table is built only when
asked for, by `rows` on each access.

A matrix A = (d I + N)/d keeps, once computed, the nonzero powers
N, ..., N^q of its nilpotent part as sparse rows (an embedded
Heisenberg matrix has q <= 2 and is mostly zeros), and its log.  One
binomial step over those powers,

    R A^c = (d^q R + sum_k C(c, k) d^(q-k) R N^k) / d^q   (`_power_step`),

serves both `UnipotentMatrix.integer_power` and `product_of_word`;
`log_unipotent` sums the same powers with the log series' coefficients.
Every generator system holding a matrix shares its powers and its log.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x):
    """x as a Fraction; a Fraction is returned as it is, not re-wrapped."""
    return x if type(x) is Fraction else Fraction(x)


def _freeze(rows):
    """Coerce a row-major table to a tuple-of-tuples of Fractions."""
    out = tuple(tuple(map(_as_fraction, row)) for row in rows)
    return len(out), out


def _check_unit_upper(table, den):
    """Raise ValueError unless the integer table over den is square, with
    den on the diagonal and zeros below it."""
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValueError("matrix is not square")
        if row[i] != den:
            raise ValueError(f"diagonal entry ({i},{i}) is not 1")
        for j in range(i):
            if row[j]:
                raise ValueError(f"nonzero entry ({i},{j}) below the diagonal")


def _identity_rows(n):
    """The integer identity table."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mul_upper_rows(a, b, n):
    """Product of two upper triangular row tables, skipping zero entries.

    Works for any numeric entry type (plain int or Fraction); relies on
    both inputs being upper triangular.  Entries no product reaches are
    the int 0.
    """
    rows = []
    for i in range(n):
        ai = a[i]
        acc = [0] * n
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


def _scale(a, coef):
    return tuple(tuple(coef * x for x in row) for row in a)


def common_denominator(values) -> int:
    """Least common multiple of the denominators of the given rationals.

    A fold, so no argument tuple of every denominator is built.
    """
    d = 1
    for v in values:
        d = lcm(d, v.denominator)
    return d


def _primitive_row(row):
    """The row divided by the gcd of its entries (unchanged if all zero)."""
    g = gcd(*row)
    if g > 1:
        return [x // g for x in row]
    return row


def _pivot_step(row, prow, col):
    """The fraction-free pivot step p * row - row[col] * prow, p =
    prow[col] != 0, divided by the gcd of its entries: zero at `col`, and
    a nonzero multiple (positive when p is) of the rational update
    row - (row[col] / p) * prow."""
    p, f = prow[col], row[col]
    return _primitive_row([p * a - f * b for a, b in zip(row, prow)])


# ---- the integer kernel: a table T over a denominator d stands for T/d


def _integer_rows(rows):
    """(T, d) with T = d * rows an integer table, d the common denominator."""
    d = common_denominator(x for row in rows for x in row)
    return tuple(
        tuple(x.numerator * (d // x.denominator) for x in row) for row in rows
    ), d


def _fraction_rows(table, den):
    """The Fraction table table/den; entries 0 and 1 share one Fraction each."""
    return tuple(
        tuple(
            (_ONE if x == den else Fraction(x, den)) if x else _ZERO for x in row
        )
        for row in table
    )


def _reduce(table, den):
    """(table/g, den/g) for g the gcd of den > 0 and every entry.

    The gcd is taken row by row and stops at 1, where the table is
    returned as it is.
    """
    g = den
    for row in table:
        if g == 1:
            return table, den
        g = gcd(g, *row)
    if g == 1:
        return table, den
    return tuple(tuple(x // g for x in row) for row in table), den // g


def _sparse_powers(table):
    """(N, N^2, ..., N^q) for N the strictly upper part of the integer
    table and q the last k with N^k != 0, each power as sparse rows: row i
    is a tuple of the (j, v) with v != 0."""
    n = len(table)
    first = tuple(
        tuple([(j, row[j]) for j in range(i + 1, n) if row[j]])
        for i, row in enumerate(table)
    )
    powers = []
    power = first
    while any(power):
        powers.append(power)
        power = tuple(_sparse_row_times(row, first) if row else () for row in power)
    return tuple(powers)


def _sparse_row_times(row, b):
    """The sparse row times the sparse rows b."""
    acc = {}
    for k, x in row:
        for j, y in b[k]:
            acc[j] = acc.get(j, 0) + x * y
    return tuple([(j, v) for j, v in acc.items() if v])


def _power_step(rows, m, c):
    """(R', e) with R A^c = R'/e, for R an upper triangular integer table,
    A = m and c any integer.

    With A = (d I + N)/d and N = table - d I nilpotent, the binomial
    series A^c = sum_k C(c, k) (N/d)^k stops at the last nonzero power of
    N that `UnipotentMatrix.nilpotent_powers` keeps, since I and N
    commute.  C(c, k) = c (c-1) ... (c-k+1) / k! is an integer for every
    integer c, negative ones included; the binomials are built one from
    the last and stop at the first zero (k > c >= 0), after q terms.  So

        R A^c = (d^q R + sum_{k=1..q} C(c, k) d^(q-k) R N^k) / d^q,

    e = d^q, and R' is computed as d^q R plus each term: row k of N^k,
    times its coefficient and R[i][k], is added to row i for every
    i <= k with R[i][k] != 0.
    """
    powers = m.nilpotent_powers()
    binoms = []
    binom = 1
    for k in range(1, len(powers) + 1):
        binom = binom * (c - k + 1) // k
        if not binom:
            break
        binoms.append(binom)
    q, d = len(binoms), m.den
    coefs = [b * d ** (q - k) for k, b in enumerate(binoms, start=1)]
    e = d**q
    out = [[e * x for x in row] for row in rows]
    for coef, power in zip(coefs, powers):
        for k, step in enumerate(power):
            if step:
                for i in range(k + 1):
                    x = rows[i][k]
                    if x:
                        x *= coef
                        new = out[i]
                        for j, v in step:
                            new[j] += x * v
    return out, e


def _integer_bracket(x, y, n):
    return _sub(mul_upper_rows(x, y, n), mul_upper_rows(y, x, n), n)


class UnipotentMatrix:
    """Element of UT(n, Q): unit diagonal, zero below it, exact entries.

    Held as one reduced integer table: the matrix is table/den with
    den > 0 and gcd(den, every entry) = 1, so two matrices are equal iff
    their (table, den) are.  `rows` is the Fraction table, built on each
    access, and m[i, j] one Fraction entry.  Two things are computed on
    first use and kept: log M = X/D, and the nonzero powers N, ..., N^q of
    N = table - den*I, as sparse rows (`nilpotent_powers`).  The log, the
    powers M^c and the word products that multiply M in all read those
    powers; M^c comes from the binomial series, not from the log.
    """

    __slots__ = ("n", "table", "den", "_log", "_powers")

    def __init__(self, rows):
        # the lcm of reduced denominators leaves gcd 1: for each prime p
        # of den, an entry whose denominator holds all of p's power in
        # den keeps a numerator prime to p
        n, frac = _freeze(rows)
        table, den = _integer_rows(frac)
        _check_unit_upper(table, den)
        self._set(n, table, den)

    def _set(self, n, table, den):
        _SET_N(self, n)
        _SET_TABLE(self, table)
        _SET_DEN(self, den)
        _SET_LOG(self, None)
        _SET_POWERS(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("UnipotentMatrix is immutable")

    @classmethod
    def from_integer_table(cls, table, den):
        """The matrix table/den, for a square integer table and den > 0.

        Checked like the constructor's input, then held as tuples and
        reduced.
        """
        table = tuple(map(tuple, table))
        if den < 1:
            raise ValueError("denominator must be positive")
        _check_unit_upper(table, den)
        return cls._from_integer(len(table), table, den)

    @classmethod
    def _from_integer(cls, n, table, den):
        """The matrix table/den, unchecked, reduced by their gcd."""
        m = object.__new__(cls)
        m._set(n, *_reduce(table, den))
        return m

    @classmethod
    def identity(cls, n) -> "UnipotentMatrix":
        return cls._from_integer(n, _identity_rows(n), 1)

    @property
    def rows(self):
        """The Fraction table, built on each access."""
        return _fraction_rows(self.table, self.den)

    def __getitem__(self, ij):
        return Fraction(self.table[ij[0]][ij[1]], self.den)

    def __eq__(self, other):
        return (
            isinstance(other, UnipotentMatrix)
            and self.den == other.den
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.table, self.den))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"<UT{self.n} [{body}]>"

    def integer_log(self):
        """(X, D) with log M = X/D (`log_unipotent`), computed once."""
        if self._log is None:
            _SET_LOG(self, log_unipotent(self))
        return self._log

    def nilpotent_powers(self):
        """(N, N^2, ..., N^q) for N = table - den*I, q the last k with
        N^k != 0, as sparse rows (`_sparse_powers`), computed once."""
        if self._powers is None:
            _SET_POWERS(self, _sparse_powers(self.table))
        return self._powers

    def integer_power(self, c: int):
        """(T, t) with M^c = T/t, for any integer c: the binomial step
        (`_power_step`) applied to the identity, so T = t*I + sum_k
        C(c, k) den^(q-k) N^k over t = den^q."""
        rows, e = _power_step(_identity_rows(self.n), self, c)
        return tuple(map(tuple, rows)), e

    def __mul__(self, other):
        if not isinstance(other, UnipotentMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        table = mul_upper_rows(self.table, other.table, self.n)
        return UnipotentMatrix._from_integer(self.n, table, self.den * other.den)

    def __pow__(self, e: int) -> "UnipotentMatrix":
        """A^e, exact for every integer e: `integer_power`, reduced.  The
        binomial series has at most n - 1 terms past I, over the kept
        powers of N, so the cost grows only with the bits of e."""
        return UnipotentMatrix._from_integer(self.n, *self.integer_power(e))

    def inverse(self) -> "UnipotentMatrix":
        return self**-1


def log_unipotent(m: UnipotentMatrix):
    """(X, D) with log M = X/D, X an integer table and D > 0 reduced
    against it: the matrix logarithm sum_k (-1)^(k-1)/k (M-I)^k on UT(n, Q).

    With M = T/d, N = T - d*I (the strictly upper part), p the last k
    with N^k != 0 and L = lcm(1..p), the series gives the integer
    identity

        sum_{k<=p} (-1)^(k-1) (L/k) d^(p-k) N^k  =  L d^p log M.

    The left side is scattered into a zero table from the sparse powers
    the matrix keeps (`UnipotentMatrix.nilpotent_powers`); it and L d^p
    are divided by their common gcd, so X/D is log M with D dividing
    L d^p, and equal logs have equal (X, D).  For the identity p = 0,
    X = 0 and D = 1.  `UnipotentMatrix.integer_log` keeps the result on
    the matrix.
    """
    n, den = m.n, m.den
    powers = m.nilpotent_powers()
    p = len(powers)
    big_l = lcm(*range(1, p + 1))
    coefs = [(-1) ** (k - 1) * (big_l // k) * den ** (p - k) for k in range(1, p + 1)]
    acc = [[0] * n for _ in range(n)]
    for coef, power in zip(coefs, powers):
        for out, row in zip(acc, power):
            for j, v in row:
                out[j] += coef * v
    return _reduce(tuple(map(tuple, acc)), big_l * den**p)


# The slots' own setters, for the constructors and the values computed on
# first use: UnipotentMatrix refuses __setattr__, and object.__setattr__
# looks each slot up by name.
_SET_N, _SET_TABLE, _SET_DEN, _SET_LOG, _SET_POWERS = (
    getattr(UnipotentMatrix, name).__set__ for name in UnipotentMatrix.__slots__
)


def direct_sum(mats) -> UnipotentMatrix:
    """Block-diagonal join of unipotent matrices (for product groups).

    Written as one integer table: each block's integer table, scaled to
    the lcm of the blocks' denominators.  A sum of one matrix is that
    matrix.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("empty direct sum")
    if len(mats) == 1:
        return mats[0]
    den = lcm(*(m.den for m in mats))
    total = sum(m.n for m in mats)
    rows = []
    off = 0
    for m in mats:
        scale = den // m.den
        left, right = (0,) * off, (0,) * (total - off - m.n)
        rows.extend(left + tuple(x * scale for x in row) + right for row in m.table)
        off += m.n
    return UnipotentMatrix._from_integer(total, tuple(rows), den)


class GeneratorSystem:
    """A named finite alphabet of unipotent matrices.

    Immutable after construction.  The integer logs live on the
    matrices, so systems sharing a matrix share its log.
    """

    __slots__ = ("n", "mats", "names")

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

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorSystem is immutable")

    @property
    def K(self) -> int:
        return len(self.mats)


def _echelon_insert(basis, vec):
    """Add the integer vector vec to the echelon basis unless it lies in
    its span; return the added row, or None.

    basis is a list of (pivot, row): each row is zero at the pivots of
    the rows before it and nonzero at its own.  vec is reduced by the
    pivot step (`_pivot_step`) against each row in turn, which keeps it
    zero at the pivots already cleared; the added row is primitive.
    """
    for p, row in basis:
        if vec[p]:
            vec = _pivot_step(vec, row, p)
    pivot = next((i for i, v in enumerate(vec) if v), None)
    if pivot is None:
        return None
    row = tuple(_primitive_row(vec))
    basis.append((pivot, row))
    return row


def _support_has_path_of_length_3(tables, n):
    """Whether S, the positions (r, c) where some table is nonzero, holds
    a path r -> s -> t -> c: whether S^3 != 0 as a boolean product.

    Row r of S is a bit mask of its columns; a row of S^(k+1) is the OR
    of the rows of S at the columns set in that row of S^k.
    """
    step = [0] * n
    for x in tables:
        for r, row in enumerate(x):
            for c, v in enumerate(row):
                if v:
                    step[r] |= 1 << c
    reach = step
    for _ in range(2):
        nxt = []
        for mask in reach:
            acc = 0
            while mask:
                low = mask & -mask
                acc |= step[low.bit_length() - 1]
                mask ^= low
            nxt.append(acc)
        reach = nxt
    return any(reach)


def is_two_step(gens: GeneratorSystem) -> bool:
    """Whether the group generated is 2-step nilpotent.

    Checked on the Lie side: with x_i = log A_i, the group is 2-step
    nilpotent iff the rational Lie algebra generated by the x_i is (the
    Mal'cev correspondence), and that holds iff [[x_i, x_j], x_k] = 0 for
    all i < j and all k.  For the converse, by Jacobi the centraliser of
    [x_i, x_j] is a subalgebra; it holds every generator, hence the whole
    algebra, so every bracket of three or more elements vanishes.

    First the support pattern: let S be the set of positions (r, c) where
    some log is nonzero.  Entry (r, c) of a product x_a x_b x_c is the sum
    over s, t of x_a[r][s] x_b[s][t] x_c[t][c], and a term is nonzero only
    if (r, s), (s, t) and (t, c) all lie in S: a path of length 3 in S.
    So if S has no such path (S^3 = 0 as a boolean product), every triple
    product of logs vanishes, with it every [[x_i, x_j], x_k], and the
    answer is yes without a bracket.  Embedded Heisenberg, number-field
    and product elements all pass this way.  The test reads the logs, not
    the matrices, because the decision needs the logs anyway: they are
    computed here once and cached on the matrices.

    Otherwise the condition is tested on a basis, not on every triple:
    ad x_k is linear, so it kills every [x_i, x_j] iff it kills each
    element of a basis of their span, and that span has dimension at most
    dim [g, g].  The basis is an integer echelon basis (`_echelon_insert`)
    of the brackets [X_i, X_j] of the integer logs X_i = D_i x_i that the
    matrices cache (`UnipotentMatrix.integer_log`).  A zero test is
    unchanged when each x_i is replaced by a positive multiple of itself,
    and so are the span and the support S, so the verdict is the one of
    the rational logs.  Each basis element is tested against every X_k as
    soon as it is found.
    """
    n = gens.n
    logs = [m.integer_log()[0] for m in gens.mats]
    if not _support_has_path_of_length_3(logs, n):
        return True
    basis = []
    for i in range(len(logs)):
        for j in range(i + 1, len(logs)):
            inner = _integer_bracket(logs[i], logs[j], n)
            row = _echelon_insert(basis, [x for r in inner for x in r])
            if row is None:
                continue
            b = tuple(row[k * n:(k + 1) * n] for k in range(n))
            if any(mul_upper_rows(b, xk, n) != mul_upper_rows(xk, b, n) for xk in logs):
                return False
    return True


def bch_log(gens: GeneratorSystem, parikh, delta):
    """(X, D) with log w = X/D for any word w with the given letter counts
    and delta table, reduced like `log_unipotent`.

    Computes sum_i l_i log A_i + 1/2 sum_{i<j} delta_ij [log A_i, log A_j],
    which equals log of the word product whenever the generated group is
    2-step nilpotent (a precondition, enforced here).  With the integer
    logs X_i/D_i scaled to Y_i/L over L = lcm(D_i), the sum is
    (2L sum_i l_i Y_i + sum_{i<j} delta_ij [Y_i, Y_j]) / (2 L^2).
    """
    if not is_two_step(gens):
        raise ValueError("generator system is not 2-step nilpotent")
    k, n = gens.K, gens.n
    if len(parikh) != k:
        raise ValueError("parikh vector length does not match alphabet size")
    logs = [m.integer_log() for m in gens.mats]
    big_l = lcm(*(d for _, d in logs))
    scaled = [_scale(x, big_l // d) for x, d in logs]
    acc = ((0,) * n,) * n
    for count, y in zip(parikh, scaled):
        if count:
            acc = _add(acc, _scale(y, 2 * big_l * count), n)
    for (i, j), d in delta.items():
        if not 0 <= i < j < k:
            raise ValueError(f"bad delta index pair {(i, j)}")
        if d:
            acc = _add(acc, _scale(_integer_bracket(scaled[i], scaled[j], n), d), n)
    return _reduce(acc, 2 * big_l * big_l)


def product_of_word(gens: GeneratorSystem, word) -> UnipotentMatrix:
    """Ordered product of the word's generators; empty word gives I.

    Runs on one integer table over one running denominator, each run
    building it anew as int lists.  A run of c copies of A is multiplied
    in by one binomial step (`_power_step`) over the sparse powers of N
    that A keeps, whatever c is, so a run costs the same at any length.
    After each run the table and the denominator are divided by their
    gcd.  This is plain matrix multiplication, independent of the
    logarithm, of the BCH identity and of the generated group being
    2-step nilpotent.
    """
    n = gens.n
    rows, den = _identity_rows(n), 1
    for letter, count in word.runs:
        if not 0 <= letter < gens.K:
            raise IndexError(f"letter {letter} out of range for {gens.K} generators")
        rows, e = _power_step(rows, gens.mats[letter], count)
        rows, den = _reduce(rows, den * e)
    return UnipotentMatrix._from_integer(n, tuple(map(tuple, rows)), den)
