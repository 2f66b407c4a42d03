"""Exact linear algebra over Q and Z.

The one row type is an integer row.  Every solver here takes int
entries only (rows, right-hand sides, bounds, cone generators) and
raises TypeError on any other, since a truncated entry would change the
system; a rational system comes in with its denominators cleared.
Columns are positions: a subspace of Q^width is the list of integer rows
of its homogeneous equations, column j of every row the coefficient of
x_j, and a projection keeps a leading block of columns.
The one point type is (nums, den): a rational point nums/den, `nums` a
list of ints and `den` >= 1 an int with gcd(den, *nums) == 1, so `den`
is the least common denominator of the point and `nums` the point times
it.  The LPs and a `Lift` return their points in this form.

Contents:

* Gauss-Jordan elimination, fraction-free: integer rows, each a
  nonzero multiple of its rational row, gcd-reduced after every update
  by one pivot step (`matlie._pivot_step`); each pivot row ends primitive
  and positive on its pivot; on it, the projection of a subspace onto
  its first columns (variable elimination) and the lift back;
* an exact phase-1 simplex with Bland's rule on a fraction-free
  tableau: integer rows, each a positive multiple of its rational row,
  one unit artificial column per row, so no rational arithmetic in the
  pivots and no floating point or epsilon anywhere; every variable has
  a lower bound, so there are no free variables to split;
* a nonnegative integer point of a rational subspace with maximal
  support (a cover loop: one feasibility LP per column that the sum of
  the certificates found so far does not cover, and after each
  infeasible one a remainder LP that ends the loop when no later
  uncovered column can be positive; a rational point scales to an
  integer one by homogeneity);
* an integer solution of A x = b via a column Hermite reduction with
  recorded transformation;
* the one integer point search: the integer points of A x = b with
  x >= lower, in nondecreasing sum(x) and lexicographic order within one
  sum, by a depth-first walk over an echelon basis of the lattice, each
  depth bounded by the exact rational projection of the bounds
  (Fourier-Motzkin elimination, built once per search), under a cap on
  sum(x) and a node budget (`PointSearch`);
* the least nonnegative integer point of A x = b under side conditions
  (`ilp_feasible_nonneg`): one such walk per choice of nonzero members,
  capped by the proximity theorem of Eisenbrand and Weismantel, under
  one budget of ILP_NODE_CAP walk nodes per call;
* finitely generated cones in Q^2, each given as the list of its
  int-pair generators: the functional the easy orbit case runs on, or
  none for the hard case, from the feasible rays of the one polar cone
  of functionals nonnegative on one side and nonpositive on the other;
  on the exact plane forms `cross` and `angular_order` that word
  realisation shares.

Everything operates on immutable inputs and returns fresh values.  The
LPs of `support_nonneg` run in column order: whether one runs at all
depends on the certificates found before it, and on whether the last
remainder LP was feasible.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd, lcm
from operator import mul

from .errors import BudgetExceeded
from .matlie import _pivot_step, _primitive_row, _require_ints


# ---------------------------------------------------------------------------
# Gaussian elimination


def _row_reduce(rows, pivot_order):
    """Gauss-Jordan reduction choosing pivot columns in the given order.

    Entries are ints, checked where the rows are made: `eliminate`
    passes rows it has checked, and its own primitive rows, and
    `ilp_feasible_nonneg` rows it has checked.  Returns
    (reduced_rows, pivots), where pivots lists (row_index, col_index) in
    the order found: the pivot for a column is the first row not yet used
    whose entry there is nonzero.  Every row comes back as a primitive
    integer list (gcd of its entries 1), a nonzero multiple of the row
    that elimination over Q (pivot row scaled to 1, then r - r[col] * p)
    leaves there; each pivot row is positive on its pivot and 0 on every
    other pivot column, so divided by its pivot entry it is the pivot row
    over Q.

    The elimination is fraction-free: a pivot on row p replaces each
    other row r by the pivot step (`_pivot_step`), divided by the gcd of
    its entries.  By induction every row is a nonzero multiple of its
    rational counterpart at the same step, so the zero pattern and the
    pivot choices are exactly those over Q.
    """
    mat = [_primitive_row(list(r)) for r in rows]
    pivots = []
    used_rows = set()
    for col in pivot_order:
        pivot_row = None
        for i in range(len(mat)):
            if i not in used_rows and mat[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        prow = mat[pivot_row]
        for i in range(len(mat)):
            if mat[i][col] and i != pivot_row:
                mat[i] = _pivot_step(mat[i], prow, col)
        used_rows.add(pivot_row)
        pivots.append((pivot_row, col))
    for r, c in pivots:
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
    return mat, pivots


@dataclass(frozen=True)
class Lift:
    """A linear map from the projection of a space back into the space.

    The space's columns are positions 0 .. `width` - 1, and the
    projection keeps the first k of them, k the length of the point
    lifted.  `solved` pairs each dropped column c >= k that `eliminate`
    pivoted on with its pivot row r over all `width` columns, an integer
    row positive on c and 0 on the other pivot columns: x_c = -(r . x) /
    r[c] over the first k columns once every dropped column without a
    pivot is set to 0.  `equations` are integer rows over the first k
    columns that span the projection's equations.  Called on an integer
    point of the projection (any other entry is a TypeError), the lift
    returns the point of the space that starts with it, as (nums, den)
    over the least common denominator; a point outside the projection is
    a defect of the caller.
    """

    width: int
    solved: tuple
    equations: tuple

    def __call__(self, point) -> tuple:
        _require_ints(point, "a point to lift")
        if any(sum(a * v for a, v in zip(row, point) if a and v) for row in self.equations):
            raise AssertionError("point lies outside the projection (defect)")
        den = lcm(*(row[c] for c, row in self.solved))
        full = [v * den for v in point] + [0] * (self.width - len(point))
        for c, row in self.solved:
            dot = sum(a * v for a, v in zip(row, point) if a and v)
            full[c] = -dot * (den // row[c])
        *nums, den = _primitive_row([*full, den])
        return nums, den


def eliminate(rows, width, keep):
    """(projection rows, lift): the exact projection of the subspace
    {x in Q^width : row . x = 0 for every row} onto its first `keep`
    columns, and a `Lift` back into the subspace.

    The rows are integer rows of length `width` (any other entry is a
    TypeError): a rational row and any nonzero multiple of it define the
    same space, so a caller clears its denominators first.

    A vector over the first `keep` columns lies in the projection iff it
    extends to a vector of the input space.  Implemented by
    fraction-free elimination (`_row_reduce`) pivoting on the dropped
    columns `keep` .. `width` - 1 first: the rows that get no pivot then
    carry zero coefficients on every dropped column and span the
    equations of the projection.  The projection's equations are the
    reduced echelon form of that span as primitive integer rows, each
    positive on its pivot: the reduced row echelon form over Q, which is
    unique, times the least common denominator of each row (a row holding
    a 1 scales to a row with gcd 1).  So the output is the same as
    elimination over Q gives, with each row cleared of its denominators.

    Each pivot row r, which is positive on its dropped column c and 0 on
    the other pivot columns, reads r[c] x_c + (dropped terms without a
    pivot) + row . x_keep = 0.  With those dropped columns set to 0,
    x_c = -(row . x_keep) / r[c] extends any point of the projection to
    the space: that is the lift.
    """
    if any(len(row) != width for row in rows):
        raise ValueError("row length does not match the width")
    _require_ints(itertools.chain(*rows), "a subspace equation")
    mat, pivots = _row_reduce(rows, range(keep, width))
    pivot_rows = {r for r, _ in pivots}
    projected = []
    for i, row in enumerate(mat):
        if i not in pivot_rows and any(row[:keep]):
            projected.append(tuple(row[:keep]))
    # normalize the output representation
    reduced, pivs = _row_reduce(projected, range(keep))
    solved = tuple((c, tuple(mat[r])) for r, c in pivots)
    return tuple(tuple(reduced[r]) for r, _ in pivs), Lift(width, solved, tuple(projected))


# ---------------------------------------------------------------------------
# Exact simplex (phase-1 feasibility)


def _phase1(rows, n):
    """Point (nums, den) of {A u = b, u >= 0}, or None, by phase-1
    simplex, Bland's rule.

    `rows[i]` is the integer list (A_i | b_i).  Each row gets its own
    artificial variable, with coefficient 1 and cost 1, so the cost row
    starts as minus the sum of the rows (made nonnegative on the right)
    and 0 on the artificial columns.

    The tableau is fraction-free: every row, and the cost row z, is kept
    as an integer list equal to its rational counterpart times some
    positive factor, reduced by the gcd of its entries after each update.
    A row's basic column holds that factor, so a basic value is
    rhs / (basic entry).  Positive factors change no sign and cancel from
    both sides of a cross-multiplied ratio test, so the entering column
    (first negative reduced cost), the leaving row (least ratio, ties to
    the smallest basic index) and hence every pivot and the returned point
    are exactly those of the rational tableau.  A pivot on entry p of the
    leaving row l replaces each other row r by the pivot step
    p * r - r[e] * l (`_pivot_step`).  The point's denominator is the
    lcm of the basic entries, reduced with its numerators.
    """
    m = len(rows)
    if m == 0:
        return [0] * n, 1
    total = n + m
    T = []
    z = [0] * (total + 1)
    for i, row in enumerate(rows):
        if row[n] < 0:
            row = [-x for x in row]
        art = [0] * m
        art[i] = 1
        T.append(row[:n] + art + [row[n]])
        for j in range(n):
            z[j] -= row[j]
        z[total] -= row[n]
    z = _primitive_row(z)
    basis = list(range(n, total))

    while True:
        enter = None
        for j in range(total):
            if z[j] < 0:  # Bland: smallest improving index
                enter = j
                break
        if enter is None:
            break
        leave = None
        for i in range(m):
            coef = T[i][enter]
            if coef > 0:
                if leave is None:
                    leave, best_num, best_den = i, T[i][total], coef
                    continue
                lhs = T[i][total] * best_den
                rhs = best_num * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_num, best_den = i, T[i][total], coef
        if leave is None:
            raise AssertionError("phase-1 objective unbounded (impossible)")
        prow = T[leave]
        for i in range(m):
            if T[i][enter] and i != leave:
                T[i] = _pivot_step(T[i], prow, enter)
        if z[enter]:
            z = _pivot_step(z, prow, enter)
        basis[leave] = enter

    if z[total] != 0:  # -(objective); nonzero means artificials stuck
        return None
    den = lcm(*(T[i][var] for i, var in enumerate(basis) if var < n))
    u = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            u[var] = T[i][total] * (den // T[i][var])
    *nums, den = _primitive_row([*u, den])
    return nums, den


def lp_feasible(rows, rhs, lower):
    """A point (nums, den) with rows . nums = den * rhs and nums_j >=
    den * lower[j], or None.

    `lower` gives every variable an integer lower bound (for a
    homogeneous system, a lower bound of 1 expresses strict positivity
    up to scaling).  Entries of rows, rhs and lower are ints; any other
    entry is a TypeError, so a rational system is passed with each row
    cleared of its denominators.  The variables are shifted to the
    nonnegative u = x - lower, and the standard-form rows (A | b - A
    lower) go to `_phase1` as they are.  Exact arithmetic, no
    tolerances: the returned point satisfies everything exactly.

    Scaling: for one positive integer c, the system c A x = c b, with the
    same bounds, returns the same point as A x = b.  The bounds do not
    involve A, so the shifts are the same, and each standard-form row
    (shifted right-hand side included) is c times the unscaled one,
    negated where the unscaled one is.  Phase 1 solves min sum a_i over
    A' u + a = b', one artificial a_i of coefficient 1 per row.  Row i of
    the scaled tableau is (c A'_i | e_i | c b'_i) and its cost row is c
    times the unscaled one (whose artificial entries are 0).  So the
    scaled tableau, cost row included, is c times the unscaled one,
    except that the artificial columns are not multiplied by c.  A pivot
    keeps this form: the multiplier T[i][e] / T[l][e] of each row update
    is a ratio within one column, so the scales cancel.  Each choice
    agrees as well: every reduced cost changes by a positive factor, so
    the first negative one is in the same column; in the ratio test the
    entering column's scale divides every ratio alike, so the least ratio
    and its tie break by basic index pick the same row, among the same
    rows with a positive entry.  At the end the structural and
    right-hand-side columns carry the same scale, so every basic value
    rhs / (basic entry) and the zero test of the objective are unchanged.
    The lemma needs one c for all rows: distinct factors c_i weight the
    artificials in the cost differently, and the pivots can then differ.
    """
    _require_ints(itertools.chain(*rows, rhs, lower), "an LP")
    shifted = [
        [*row, target - sum(coef * lo for coef, lo in zip(row, lower) if coef and lo)]
        for row, target in zip(rows, rhs)
    ]
    point = _phase1(shifted, len(lower))
    if point is None:
        return None
    u, den = point
    return [lo * den + v for lo, v in zip(lower, u)], den


def support_nonneg(rows, k) -> tuple:
    """A nonnegative integer point with maximal support of the subspace
    {x in Q^k : row . x = 0 for every row}, the rows integer rows over
    columns 0 .. k - 1.

    Column i lies in the support of some nonnegative integer point iff
    {x in space, x >= 0, x_i >= 1} has a rational point: by homogeneity,
    the numerators of such a point (nums, den) are an integer point, and
    conversely.  Nonnegative points are closed under addition, so the sum
    of one such certificate per supported column is positive on every
    one of them.  The certificates are summed over the lcm of their
    denominators, and the returned point is the numerators of the
    reduced sum.  Columns are visited in order; one the running sum
    already covers needs no LP, since its LP is feasible.  The support of
    the returned point (its nonzero entries) is the support of the
    nonnegative integer points.

    After each infeasible column LP at i, one remainder LP asks for
    {x in space, x >= 0, sum_{j in U} x_j = 1}, U the columns after i
    that the running sum does not cover; its point is discarded.  When it
    is infeasible, or U is empty, the loop stops, and the point is the
    one the loop without remainder LPs returns: every nonnegative point
    of the space is 0 on all of U (a positive sum on U scales to 1), so
    each later column LP would be infeasible or skipped, and none would
    add to the sum.  So the LPs number at most the feasible column LPs
    plus twice the infeasible ones, and exactly 2 on a space of k >= 2
    columns whose support is empty.

    The LPs run on the rows as they are: the point each returns depends
    on that presentation (see `lp_feasible`), the support does not.
    """
    rhs = [0] * len(rows)
    total, den = [0] * k, 1
    for i in range(k):
        if total[i]:
            continue
        lower = [0] * k
        lower[i] = 1
        point = lp_feasible(rows, rhs, lower)
        if point is not None:
            nums, d = point
            m = lcm(den, d)
            total = [a * (m // den) + b * (m // d) for a, b in zip(total, nums)]
            den = m
            continue
        rest = [int(j > i and not total[j]) for j in range(k)]
        if not any(rest) or lp_feasible([*rows, rest], [*rhs, 1], [0] * k) is None:
            break
    return tuple(_primitive_row([*total, den])[:k])


# ---------------------------------------------------------------------------
# Integer linear systems


def _column_echelon(A, m):
    """Integer column echelon form of the first m rows of A, by
    unimodular column operations on all of A: returns (H, pivots), H the
    rows of A after them and pivots the (row, column) of each pivot, in
    order.

    Scanning rows 0 .. m - 1, each row either gets a pivot column (the
    only nonzero among not-yet-pivoted columns, made positive by a sign
    flip) or is zero on all of them; pivot columns are numbered 0, 1, ...
    Rows from m on take part in every operation without being scanned,
    so A stacked over the identity ends as A U stacked over U: the
    recorded transformation.
    """
    H = [list(r) for r in A]
    k = len(H[0])
    pivots = []
    col = 0
    for r in range(m):
        if col >= k:
            break
        row = H[r]
        while True:
            nz = [j for j in range(col, k) if row[j]]
            if not nz:
                break
            if len(nz) == 1:
                j0 = nz[0]
                for h in H:
                    h[col], h[j0] = h[j0], h[col]
                if row[col] < 0:
                    for h in H:
                        h[col] = -h[col]
                pivots.append((r, col))
                col += 1
                break
            j0 = min(nz, key=lambda j: abs(row[j]))
            for j in nz:
                if j != j0:
                    q = row[j] // row[j0]
                    if q:
                        for h in H:
                            h[j] -= q * h[j0]
    return H, pivots


def _identity(k):
    """The rows of the k x k identity matrix."""
    rows = [[0] * k for _ in range(k)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _substitute(H, pivots, b):
    """The integer y, one entry per column of H, with H y = b on the
    first len(b) rows and y = 0 off the pivot columns of those rows, by
    forward substitution down the column echelon form H
    (`_column_echelon`); None when a pivot does not divide its residual
    or a row without a pivot keeps a nonzero one."""
    pivot_by_row = {r: c for r, c in pivots}
    y = [0] * len(H[0])
    for r, t in enumerate(b):
        acc = t
        for _, c in pivots:
            if y[c] and H[r][c]:
                acc -= H[r][c] * y[c]
        c = pivot_by_row.get(r)
        if c is None:
            if acc != 0:
                return None
        else:
            q, rem = divmod(acc, H[r][c])
            if rem:
                return None
            y[c] = q
    return y


def _integer_system(A, b):
    """A and b as lists of their int entries; any other entry is a
    TypeError (`_require_ints`)."""
    A = [list(row) for row in A]
    b = list(b)
    _require_ints(itertools.chain(*A, b), "an integer system")
    return A, b


def hnf_solve(A, b):
    """An integer solution of A x = b, as a tuple, or None when there is
    none, for int entries.

    Column-reduces A with a recorded unimodular transform U; the echelon
    system H y = b solves by forward substitution, requiring exact
    divisibility at every pivot, and the solution is x = U y.  Every
    integer solution is x plus an integer combination of the columns of
    U over the pivot-free columns of H, which the same `_column_echelon`
    of A stacked over the identity gives.

    Row scaling: for positive integers c_r, the system diag(c) A x =
    diag(c) b gets the same solution as A x = b.  Column operations
    commute with scaling a row, so row r of H stays c_r times its
    unscaled row throughout: its nonzero columns, its entry of least
    absolute value (the first on ties), the floor quotients and the sign
    flips are all the same, hence so are U and the pivots.  In the
    substitution, row r's residual and pivot are c_r times the unscaled
    ones, so the quotients agree and a remainder or a pivot-free residual
    is nonzero in both systems or in neither.
    """
    A, b = _integer_system(A, b)
    m = len(A)
    k = len(A[0]) if m else 0
    if any(len(row) != k for row in A):
        raise ValueError("ragged matrix")
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    if k == 0:
        return None if any(b) else ()
    H, pivots = _column_echelon([*A, *_identity(k)], m)
    y = _substitute(H, pivots, b)
    if y is None:
        return None
    return tuple(sum(map(mul, row, y)) for row in H[m:])


def _affine_range(terms):
    """(lo, hi): the integers u with a + k u >= 0 for every (a, k) of
    `terms` are lo <= u <= hi, an end None when unbounded; None when
    there are none."""
    lo = hi = None
    for a, k in terms:
        if k > 0:
            bound = -(a // k)
            lo = bound if lo is None else max(lo, bound)
        elif k < 0:
            bound = a // -k
            hi = bound if hi is None else min(hi, bound)
        elif a < 0:
            return None
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _depth_bounds(rows, depth):
    """The bounds of a `PointSearch` walk, by Fourier-Motzkin elimination
    of u_{depth-1}, ..., u_1 from the rows (a, k), each the inequality
    a + k . u >= 0 over integer u = (u_0, ..., u_{depth-1}).

    Entry d of the returned list holds (a, k[:d], k[d]) for each row of
    the system S_d with k[d] != 0, the rows the walk checks at depth d;
    the result is None when a row without nonzero coefficients has
    a < 0.  A derived row is divided by the gcd of its coefficients with
    its constant floored, and after e eliminations a row combined from
    more than e + 1 input rows is dropped (`PointSearch` proves both
    valid).  The input rows are tracked as bits of an int.
    """
    current = [(a, k, 1 << i) for i, (a, k) in enumerate(rows)]
    levels = []
    for d in reversed(range(depth)):
        pos = [row for row in current if row[1][d] > 0]
        neg = [row for row in current if row[1][d] < 0]
        levels.append([(a, k[:d], k[d]) for a, k, _ in pos + neg])
        current = [(a, k[:d], used) for a, k, used in current if not k[d]]
        if not d:
            break
        most = depth - d + 1
        for a1, k1, used1 in pos:
            for a2, k2, used2 in neg:
                used = used1 | used2
                if used.bit_count() > most:
                    continue
                p, n = k1[d], -k2[d]
                k = [n * x + p * y for x, y in zip(k1[:d], k2[:d])]
                a = n * a1 + p * a2
                g = gcd(*k)
                if g > 1:
                    k = [v // g for v in k]
                    a //= g
                current.append((a, k, used))
    if any(a < 0 for a, _, _ in current):
        return None
    return levels[::-1]


class PointSearch:
    """The integer points x of rows . x = rhs with x >= lower and
    sum(x) <= cap, in nondecreasing sum(x) and, within one sum,
    lexicographic order.

    Iterating yields them as tuples, as the walk reaches them.  Entries
    are ints (any other is a TypeError).  `nodes` counts the nodes
    visited so far; the walk visits at most `budget` of them, and when
    it would visit one more it raises BudgetExceeded instead, so the
    points it yields up to then are those of the unbudgeted walk, in the
    same order.  The set-up reads neither `cap` nor `budget`, so a
    caller may set either before iterating.  `first_level` is the level
    at which the walk starts, or None when the set-up already shows that
    no cap gives a point.

    The walk runs on one lattice.  With the level s = sum(x) as a
    coordinate of its own, placed first, the points (s, x) with
    rows . x = rhs are q + sum_c u_c C_c over all integer u, for one such
    point q and a basis C of the integer points (s, x) with rows . x = 0.
    Both come from one column echelon form (`_column_echelon`) of the
    columns (rows e_j, 1, e_j): its columns that pivot in the rows part
    give q by forward substitution (`_substitute`), and the others, which
    are 0 there, are C in column echelon form: C_c is 0 above its pivot
    coordinate p_c, positive on it, and p_0 < p_1 < ...  So u_0 .. u_{c-1}
    fix every coordinate above p_c, and u_c moves coordinate p_c upward:
    ordering the u lexicographically orders the points (s, x)
    lexicographically, which is nondecreasing s with x lexicographic
    within one s.  A depth-first walk gives u_0, u_1, ... their values in
    increasing order; a node is one value of one u_d, and a node of the
    last u_d is a point.

    The bounds.  In u, each x_i >= lower_i is an integer row
    a + k . u >= 0 (a = q_i - lower_i, k_c = C_c[i]), and s <= cap reads
    cap - q_0 - C_0[0] u_0 >= 0, since C_c[0] = 0 for c >= 1.  Let S_{L-1}
    be the n rows of x >= lower, L the number of u, and let S_{d-1} come
    from S_d by Fourier-Motzkin elimination of u_d (`_depth_bounds`):
    the rows with k_d = 0, and for each row P with k_d > 0 and row N
    with k_d < 0 the row (-N_d) P + P_d N.  The walk takes u_d from the
    interval (`_affine_range`) of the rows of S_d with k_d != 0; the
    rows that are constant are checked once, before the walk.  The cap's
    row has k_d = 0 for every d >= 1, so it would pass unchanged into
    every S_d: the elimination leaves it out, and the walk adds it at
    depth 0, so the set-up does not depend on the cap.

    * Exact projection.  Without rounding or dropping, S_{d-1} is the
      projection of S_d onto u_0 .. u_{d-1}: for fixed u_0 .. u_{d-1},
      each P bounds u_d below and each N above, and a rational u_d meets
      them all iff every lower bound is at most every upper bound and
      the rows without u_d hold; the pair (P, N) is that condition for
      its two bounds, times P_d (-N_d) > 0.  By induction S_d, and so
      each depth's interval, is the exact rational projection of the LP
      region {rows . x = rhs, x >= lower} onto u_0 .. u_d.
    * Rounding.  A derived row a + k . u >= 0 with g = gcd(k) > 0 becomes
      (k / g) . u + floor(a / g) >= 0: for integer u, (k / g) . u is an
      integer at least -a / g, so at least ceil(-a / g) =
      -floor(a / g).  By induction every integer u_0 .. u_d that extends
      to an integer point meets the rounded S_d, so the walk misses no
      point, and rounding only shrinks the rational projection.
    * Chernikov's rule.  A row of S_d is sum lambda_i R_i over the input
      rows R_i with lambda >= 0; its support I is the set of rows it was
      combined from.  After e eliminations, the rows whose multipliers
      vanish on the e eliminated coordinates form a pointed cone; on an
      extreme ray the rows of its support have a one-dimensional
      dependency over those e coordinates, so the support has at most
      e + 1 rows.  Fourier-Motzkin without dropping yields multipliers
      that generate the cone (each elimination pairs the rows that a
      nonnegative combination with k_d = 0 decomposes into), so every
      extreme ray is a positive multiple of a row's multiplier, of
      support at most e + 1, which the rule keeps.  A row with |I| >
      e + 1 has a multiplier that is a sum of extreme rays, so, constant
      included, it is a nonnegative combination of kept rows: dropping
      it keeps the exact projection, the kept rows still generate the
      cone for the next elimination, and rounding only tightens the
      kept rows.
    * Each row once.  A row of S_d with k_d = 0 passes unchanged into
      S_{d-1}, where it already held; so every row is checked at the one
      depth of its last nonzero coefficient, when all its u are fixed.
      Every row of S_{L-1} is among them, so each leaf is a point.
    * Finite intervals.  With s <= cap the region is bounded, so its
      recession cone is {0}, and so is that of each projection, which
      the rows' coefficients alone describe (the rules above are the
      same for every constant).  So e_d and -e_d each break a row of
      S_d, a row with k_d != 0: each depth's interval is finite.  Without the cap,
      the rows of depth 0 still bound u_0 below when C_0[0] > 0, because
      s >= sum(lower) on the region; so `first_level`, the level at the
      interval's lower end, is at least the LP minimum of sum(x) and at
      most the least sum(x) of an integer point.

    The proximity cap (`ilp_feasible_nonneg`).  Eisenbrand and
    Weismantel (SODA 2018): for integer A of m rows with
    Delta = max |A_ij|, if {A y = b', y >= 0} has an integer point, then
    within l1 distance m (2 m Delta + 1)^m of an LP vertex minimising
    sum(y) lies an integer point minimising sum(y).  With y = x - lower
    and b' = rhs - A lower the matrix, and so Delta, is the same, and
    sum(x) = sum(lower) + sum(y).  When the system has a point, a maximal
    set of linearly independent rows has the same points, and its
    entries are entries of A; the bound grows with m and Delta, so m may
    be the rank of A and Delta the largest entry of all of A.  So if an
    integer point exists, the least sum(x) of one is at most the LP
    minimum plus m (2 m Delta + 1)^m, hence at most `first_level` plus
    that: a walk with that cap yields the least point, if there is one.
    """

    def __init__(self, rows, rhs, lower, cap, budget):
        rows, rhs = _integer_system(rows, rhs)
        lower = list(lower)
        _require_ints([*lower, cap, budget], "a point search bound")
        if any(len(row) != len(lower) for row in rows):
            raise ValueError("row length does not match the lower bounds")
        self.cap, self.budget = cap, budget
        self.nodes = 0
        self.first_level = None
        n, m = len(lower), len(rows)
        # column j is (rows e_j, 1, e_j): column operations keep the
        # point (s, x) = (sum(x), x) of each column below its row image
        stacked = [*rows, [1] * n, *_identity(n)]
        echelon, pivots = _column_echelon(stacked, m + 1 + n)
        y = _substitute(echelon, pivots, rhs)
        if y is None:
            return
        q = [sum(map(mul, row, y)) for row in echelon[m:]]
        cols = [[row[c] for row in echelon[m:]] for r, c in pivots if r >= m]
        # x_i = a + k . u for each (a, k) of _point
        self._point = [(a, [col[i] for col in cols]) for i, a in enumerate(q) if i]
        self._levels = _depth_bounds(
            [(a - low, k) for (a, k), low in zip(self._point, lower)], len(cols)
        )
        if self._levels is None:
            return
        # s = q_0 + C_0[0] u_0, and C_0[0] = 0 when s is constant
        self._level = q[0], cols[0][0] if cols else 0
        self._start = _affine_range([(a, k) for a, _, k in self._levels[0]]) if cols else (0, 0)
        if self._start is not None:
            self.first_level = q[0] + self._level[1] * self._start[0]

    def __iter__(self):
        if self.first_level is None or self.first_level > self.cap:
            return
        point, levels = self._point, self._levels
        depth = len(levels)
        u = [0] * depth

        def walk(d, lo, hi):
            for value in range(lo, hi + 1):
                if self.nodes == self.budget:
                    raise BudgetExceeded(
                        f"point search passed {self.budget} nodes", budget=self.budget
                    )
                self.nodes += 1
                u[d] = value
                if d + 1 == depth:
                    yield tuple(a + sum(map(mul, k, u)) for a, k in point)
                    continue
                span = _affine_range(
                    [(a + sum(map(mul, k, u)), kd) for a, k, kd in levels[d + 1]]
                )
                if span is not None:
                    yield from walk(d + 1, *span)

        if not depth:
            yield tuple(a for a, _ in point)
            return
        lo, hi = self._start
        q0, c00 = self._level
        if c00:
            top = (self.cap - q0) // c00
            hi = top if hi is None else min(hi, top)
        yield from walk(0, lo, hi)


# Walk nodes one call of `ilp_feasible_nonneg` may visit, over all of its
# roots, before it gives up.  At 10^6, 2994 of the 3000 systems of
# `tests/test_linsolve.py::seeded_ilp_system` (seed 20240817) are
# decided, the costliest at 101,412 nodes; 10^5 decides 2993.  E99 draws
# 337 and 384 (`tests/test_orbit.py::e99_draws`) need 2,180 and 1,164.
ILP_NODE_CAP = 1_000_000


def ilp_feasible_nonneg(A, b, nonzero_groups=()):
    """The least nonnegative integer point of A x = b honoring side
    conditions, or None, for int entries (any other entry is a
    TypeError).

    `nonzero_groups` is a list of index groups; each group must not be
    all-zero in the solution.  Groups are handled disjunctively: one root
    per choice of one member from each group, in `itertools.product`
    order, whose chosen members are bounded below by 1 (by the number of
    times chosen, when groups share a member).

    Each root is one `PointSearch` walk with its lower bounds, capped at
    its `first_level` plus m (2 m Delta + 1)^m, m the rank of A
    (`_row_reduce`) and Delta its largest entry in absolute value: by the
    proximity theorem as `PointSearch` applies it, the walk's first point
    is the root's least point by sum(x) and then lexicographically, and
    the walk ends without a point only when the root has none.  The
    result is the first root's least point, and None only when no root
    has a point.  A call whose walks would visit more than ILP_NODE_CAP
    nodes over all its roots raises BudgetExceeded.
    """
    A, b = _integer_system(A, b)
    k = len(A[0]) if A else 0
    m = len(_row_reduce(A, range(k))[1])
    delta = max((abs(v) for row in A for v in row), default=0)
    proximity = m * (2 * m * delta + 1) ** m
    nodes = 0
    for choice in itertools.product(*nonzero_groups):
        lower = [0] * k
        for g in choice:
            lower[g] += 1
        search = PointSearch(A, b, lower, 0, ILP_NODE_CAP - nodes)
        if search.first_level is None:
            continue
        search.cap = search.first_level + proximity
        try:
            point = next(iter(search), None)
        except BudgetExceeded:
            raise BudgetExceeded(
                f"integer point search passed {ILP_NODE_CAP} nodes", budget=ILP_NODE_CAP
            ) from None
        if point is not None:
            return point
        nodes += search.nodes
    return None


# ---------------------------------------------------------------------------
# Cones in Q^2


def _primitive(v):
    """Primitive integer vector in the direction of the int pair v, or
    None for zero."""
    a, b = v
    if not a and not b:
        return None
    g = gcd(a, b)
    return (a // g, b // g)


def cross(u, v):
    """The integer form u0 v1 - u1 v0 of two plane vectors: the signed
    area they span, and the corner entry of the bracket of two 3x3 logs
    with superdiagonals u and v."""
    return u[0] * v[1] - u[1] * v[0]


def angular_order(vectors):
    """Indices of the plane vectors sorted by angle in [0, 2 pi) from
    (1, 0), exactly (half-plane, then the sign of `cross`); zero vectors
    last, and equal angles in index order."""

    def half(u):
        if u[0] == u[1] == 0:
            return 2
        return 0 if u[1] > 0 or (u[1] == 0 and u[0] > 0) else 1

    def compare(i, j):
        hi, hj = half(vectors[i]), half(vectors[j])
        if hi != hj:
            return hi - hj
        return -cross(vectors[i], vectors[j])

    return sorted(range(len(vectors)), key=functools.cmp_to_key(compare))


def cone_intersect_dim(g, h):
    """The functional the easy orbit case runs on for the cones generated
    by the int pairs g and h, or None for the hard case; read off one
    polar cone.

    Only directions matter, so a rational cone comes in as its
    generators scaled by positive integers, as the orbit superdiagonals
    come in units of their common denominator D; any other entry is a
    TypeError.  With c running over the primitive g_i and -h_j, let
    P = {n : n . c >= 0 for all c}: the functionals with n . g >= 0 on
    g and n . h <= 0 on h.  Each extreme ray of P is a quarter turn of
    some c, and a half-plane P also holds its own c; so the feasible
    ones among those candidates (each c's two quarter turns, then c,
    first occurrences kept) generate P exactly, with no search.

    * P != {0}: any nonzero n in P separates, so the meet lies in the
      line n . x = 0.  The functional is the first ray when all rays are
      collinear (P a ray or a line); otherwise, in `angular_order`, the
      lesser (as a tuple) of the two rays of the one gap wider than pi
      (P a wedge), and failing that the first ray of the gap of exactly
      pi (P a half-plane).  P is never the plane, since n = -c fails
      n . c >= 0 for a nonzero c, so one such gap exists.
    * No nonzero generator on either side: the conventional (1, 0).
    * No feasible ray, P = {0}: no nonzero functional separates.  By
      Stiemke's alternative, strictly positive X, Y with
      sum X_i g_i = sum Y_j h_j exist iff no n in P is nonzero on some
      c, so here they exist, whatever the ranks of the sides.  The
      result is None when some side has two generators with a nonzero
      `cross` (the hard case: its balancing combination is such X, Y,
      and its inflation needs that one nonzero corner bracket), and the
      zero functional (0, 0) otherwise: then the generators of each side
      are collinear, every one lies on ker (0, 0), and no two of one side
      bracket to anything but zero.
    """
    _require_ints(itertools.chain(*g, *h), "a cone generator")
    signed = [*g, *((-a, -b) for a, b in h)]
    constraints = [p for p in map(_primitive, signed) if p is not None]
    if not constraints:
        return (1, 0)
    candidates = dict.fromkeys(r for a, b in constraints for r in ((-b, a), (b, -a), (a, b)))
    rays = [r for r in candidates if all(r[0] * c[0] + r[1] * c[1] >= 0 for c in constraints)]
    if not rays:
        spans = any(cross(u, v) for side in (g, h) for u, v in itertools.combinations(side, 2))
        return None if spans else (0, 0)
    if all(cross(rays[0], r) == 0 for r in rays):
        return rays[0]
    order = [rays[i] for i in angular_order(rays)]
    gaps = list(zip(order, order[1:] + order[:1]))
    for a, b in gaps:
        if cross(a, b) < 0:
            return min(a, b)
    return next(a for a, b in gaps if cross(a, b) == 0)
