"""Exact linear algebra over Q and Z.

The one row type is an integer row.  Every solver here takes int
entries only (rows, right-hand sides, bounds, cone generators) and
raises TypeError on any other, since a truncated entry would change the
system; a rational system comes in with its denominators cleared.
The one point type is (nums, den): a rational point nums/den, `nums` a
list of ints and `den` >= 1 an int with gcd(den, *nums) == 1, so `den`
is the least common denominator of the point and `nums` the point times
it.  The LPs and a `Lift` return their points in this form.

Contents:

* Gauss-Jordan elimination, fraction-free: integer rows, each a
  nonzero multiple of its rational row, gcd-reduced after every update
  by one pivot step (`matlie._pivot_step`); each pivot row ends primitive
  and positive on its pivot; subspace projection (variable
  elimination) on it;
* an exact phase-1 simplex with Bland's rule on a fraction-free
  tableau: integer rows, each a positive multiple of its rational row,
  one unit artificial column per row, so no rational arithmetic in the
  pivots and no floating point or epsilon anywhere; every variable has
  a lower bound, so there are no free variables to split;
* a nonnegative integer point of a rational subspace with maximal
  support (a cover loop: one feasibility LP per coordinate that the sum
  of the certificates found so far does not cover, and after each
  infeasible one a remainder LP that ends the loop when no later
  uncovered coordinate can be positive; a rational point scales to an
  integer one by homogeneity);
* complete integer solution sets of A x = b via a column Hermite
  reduction with recorded transformation;
* small-scale integer feasibility with sign constraints, by one
  depth-first branch-and-bound over the exact LP relaxation per call,
  capped at ILP_NODE_CAP relaxations per call;
* finitely generated cones in Q^2, each given as the list of its
  int-pair generators: whether two meet with full dimension, and a
  separating functional, both from the feasible rays of the one polar
  cone of functionals nonnegative on one side and nonpositive on the
  other; on the exact plane forms `cross` and `angular_order` that word
  realisation shares.

Everything operates on immutable inputs and returns fresh values.  The
LPs of `support_nonneg` run in coordinate order: whether one runs at all
depends on the certificates found before it, and on whether the last
remainder LP was feasible.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd, lcm

from .errors import BudgetExceeded
from .matlie import _pivot_step, _primitive_row


# ---------------------------------------------------------------------------
# Gaussian elimination


def _require_ints(values, what):
    """Raise TypeError unless every value is an int, since a truncated
    one would change the system."""
    for x in values:
        if type(x) is not int:
            raise TypeError(f"entry {x!r} of {what} is not an int")


def _row_reduce(rows, pivot_order):
    """Gauss-Jordan reduction choosing pivot columns in the given order.

    Entries are ints, checked where the rows are made: `eliminate`
    passes `LinearSubspace` equations and its own primitive rows.  Returns
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


class LinearSubspace:
    """Q-linear subspace of Q^len(coords), given by homogeneous equations.

    `coords` are hashable names in a fixed order; `equations` are integer
    rows with row . x = 0, kept as given (any other entry is a
    TypeError): a rational row and any nonzero multiple of it define the
    same space, so a builder clears its denominators first.

    Two subspaces compare equal when their coordinates and their equation
    rows are equal, entry by entry and in order: equality of the
    presentations, which implies but is not implied by equality of the
    spaces.
    """

    __slots__ = ("coords", "equations")

    def __init__(self, coords, equations=()):
        coords = tuple(coords)
        eqs = tuple(tuple(row) for row in equations)
        for row in eqs:
            if len(row) != len(coords):
                raise ValueError("equation length does not match coordinates")
        _require_ints(itertools.chain(*eqs), "a subspace equation")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "equations", eqs)

    def __setattr__(self, name, value):
        raise AttributeError("LinearSubspace is immutable")

    def __eq__(self, other):
        if not isinstance(other, LinearSubspace):
            return NotImplemented
        return self.coords == other.coords and self.equations == other.equations

    def __hash__(self):
        return hash((self.coords, self.equations))

    def __repr__(self):
        return (
            f"<subspace of Q^{len(self.coords)}, {len(self.equations)} equations>"
        )


@dataclass(frozen=True)
class Lift:
    """A linear map from the projection of a space back into the space.

    `coords` are the space's coordinates and `kept` the positions of the
    kept ones among them.  `solved` pairs the position c of each dropped
    coordinate that `eliminate` pivoted on with its pivot row r over
    `coords`, an integer row positive on c and 0 on the other pivot
    columns: x_c = -(r . x) / r[c] over the kept positions once every
    dropped coordinate without a pivot is set to 0.  `equations` are
    integer rows over the kept coordinates that span the projection's
    equations.  Called on an integer point of the projection (any other
    entry is a TypeError), the lift returns the point of the space with
    those kept coordinates, as (nums, den) over the least common
    denominator; a point outside the projection is a defect of the
    caller.
    """

    coords: tuple
    kept: tuple
    solved: tuple
    equations: tuple

    def __call__(self, point) -> tuple:
        _require_ints(point, "a point to lift")
        if any(sum(a * v for a, v in zip(row, point) if a and v) for row in self.equations):
            raise AssertionError("point lies outside the projection (defect)")
        den = lcm(*(row[c] for c, row in self.solved))
        full = [0] * len(self.coords)
        for i, v in zip(self.kept, point):
            full[i] = v * den
        for c, row in self.solved:
            dot = sum(row[i] * v for i, v in zip(self.kept, point) if v and row[i])
            full[c] = -dot * (den // row[c])
        *nums, den = _primitive_row([*full, den])
        return nums, den


def eliminate(space: LinearSubspace, keep):
    """(projection, lift): the exact projection of the subspace onto the
    `keep` coordinates, and a `Lift` back into the subspace.

    A vector over `keep` lies in the projection iff it extends to a
    vector of the input space.  Implemented by fraction-free elimination
    (`_row_reduce`) pivoting on the dropped columns first: the rows that
    get no pivot then carry zero coefficients on every dropped column and
    span the equations of the projection.  The projection's equations are
    the reduced echelon form of that span as primitive integer rows, each
    positive on its pivot: the reduced row echelon form over Q, which is
    unique, times the least common denominator of each row (a row holding
    a 1 scales to a row with gcd 1).  So the output is the same as
    elimination over Q gives, with each row cleared of its denominators.

    Each pivot row r, which is positive on its dropped column c and 0 on
    the other pivot columns, reads r[c] x_c + (dropped terms without a
    pivot) + row . x_keep = 0.  With those dropped coordinates set to 0,
    x_c = -(row . x_keep) / r[c] extends any point of the projection to
    the space: that is the lift.
    """
    keep = list(keep)
    keep_set = set(keep)
    if not keep_set.issubset(space.coords):
        raise ValueError("keep must be a subset of the coordinates")
    index = {name: i for i, name in enumerate(space.coords)}
    keep_idx = [index[name] for name in keep]
    drop_idx = [i for i, name in enumerate(space.coords) if name not in keep_set]

    mat, pivots = _row_reduce(space.equations, drop_idx)
    pivot_rows = {r for r, _ in pivots}
    projected = []
    for i, row in enumerate(mat):
        if i in pivot_rows:
            continue
        new_row = tuple(row[j] for j in keep_idx)
        if any(new_row):
            projected.append(new_row)
    # normalize the output representation
    reduced, pivs = _row_reduce(projected, range(len(keep)))
    projection = LinearSubspace(keep, [tuple(reduced[r]) for r, _ in pivs])
    solved = tuple((c, tuple(mat[r])) for r, c in pivots)
    return projection, Lift(space.coords, tuple(keep_idx), solved, tuple(projected))


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


def _simplex_feasible(rows, rhs, lower, upper=None):
    """Feasible x for {rows . x = rhs, lower_j <= x_j <= upper_j}, as
    (nums, den), or None.

    `lower` has one bound per variable; `upper` is a per-variable list
    whose None entries are unbounded, or None for no upper bounds at all.
    Entries of rows, rhs and bounds are ints; any other entry is a
    TypeError.  Variables are shifted to nonnegative ones, and upper
    bounds become slack rows; the standard-form rows go to `_phase1` as
    they are.  A slack is an integer minus its shifted variable, so
    dropping the slacks keeps the point reduced.
    """
    nvars = len(lower)
    bounded = [j for j in range(nvars) if upper and upper[j] is not None]
    _require_ints(
        itertools.chain(*rows, rhs, lower, (upper[j] for j in bounded)), "an LP"
    )
    width = nvars + len(bounded)

    int_rows = []
    for row, target in zip(rows, rhs):
        out = [0] * (width + 1)
        out[:nvars] = row
        out[width] = target - sum(coef * lower[j] for j, coef in enumerate(row) if coef and lower[j])
        int_rows.append(out)
    for s, j in enumerate(bounded):
        out = [0] * (width + 1)
        out[j] = 1
        out[nvars + s] = 1
        out[width] = upper[j] - lower[j]
        int_rows.append(out)

    point = _phase1(int_rows, width)
    if point is None:
        return None
    u, den = point
    return [lo * den + v for lo, v in zip(lower, u)], den


def lp_feasible(rows, rhs, lower):
    """A point (nums, den) with rows . nums = den * rhs and nums_j >=
    den * lower[j], or None.

    `lower` gives every variable an integer lower bound (for a
    homogeneous system, a lower bound of 1 expresses strict positivity
    up to scaling).  Entries of rows, rhs and lower are ints; any other
    entry is a TypeError, so a rational system is passed with each row
    cleared of its denominators.  Exact arithmetic, no tolerances: the
    returned point satisfies everything exactly.

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
    return _simplex_feasible(rows, rhs, lower)


def support_nonneg(space: LinearSubspace) -> tuple:
    """A nonnegative integer point of the subspace with maximal support.

    Coordinate i lies in the support of some nonnegative integer point iff
    {x in space, x >= 0, x_i >= 1} has a rational point: by homogeneity,
    the numerators of such a point (nums, den) are an integer point, and
    conversely.  Nonnegative points are closed under addition, so the sum
    of one such certificate per supported coordinate is positive on every
    one of them.  The certificates are summed over the lcm of their
    denominators, and the returned point is the numerators of the
    reduced sum.  Coordinates are visited in order; one the running sum
    already covers needs no LP, since its LP is feasible.  The support of
    the returned point (its nonzero entries) is the support of the
    nonnegative integer points.

    After each infeasible coordinate LP at i, one remainder LP asks for
    {x in space, x >= 0, sum_{j in U} x_j = 1}, U the coordinates after i
    that the running sum does not cover; its point is discarded.  When it
    is infeasible, or U is empty, the loop stops, and the point is the
    one the loop without remainder LPs returns: every nonnegative point
    of the space is 0 on all of U (a positive sum on U scales to 1), so
    each later coordinate LP would be infeasible or skipped, and none
    would add to the sum.  So the LPs number at most the feasible coordinate LPs plus
    twice the infeasible ones, and exactly 2 on a space of k >= 2
    coordinates whose support is empty.

    The LPs run on the space's integer equations as they are: the point
    each returns depends on that presentation (see `lp_feasible`), the
    support does not.
    """
    k = len(space.coords)
    rows = space.equations
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


@dataclass(frozen=True)
class IntegerSolutionSet:
    """All integer solutions of A x = b: particular + integer span of basis.

    `particular` is None when the system has no integer solution; the
    lattice basis vectors span the integer kernel of A, so the full
    solution set is particular + Z-combinations of the basis.
    """

    particular: tuple | None
    lattice_basis: tuple

    @property
    def feasible(self) -> bool:
        return self.particular is not None


def _column_echelon(A, m, k):
    """Integer column echelon: returns (H, U, pivots) with A U = H, U unimodular.

    Scanning rows top to bottom, each row either gets a pivot column
    (the only nonzero among not-yet-pivoted columns, made positive by a
    sign flip) or is zero on all of them.
    """
    H = [list(r) for r in A]
    U = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def col_op(dst, src, q):
        for i in range(m):
            H[i][dst] -= q * H[i][src]
        for i in range(k):
            U[i][dst] -= q * U[i][src]

    def col_swap(a, b):
        for i in range(m):
            H[i][a], H[i][b] = H[i][b], H[i][a]
        for i in range(k):
            U[i][a], U[i][b] = U[i][b], U[i][a]

    def col_neg(a):
        for i in range(m):
            H[i][a] = -H[i][a]
        for i in range(k):
            U[i][a] = -U[i][a]

    pivots = []
    col = 0
    for r in range(m):
        if col >= k:
            break
        while True:
            nz = [j for j in range(col, k) if H[r][j]]
            if not nz:
                break
            if len(nz) == 1:
                j0 = nz[0]
                col_swap(col, j0)
                if H[r][col] < 0:
                    col_neg(col)
                pivots.append((r, col))
                col += 1
                break
            j0 = min(nz, key=lambda j: abs(H[r][j]))
            for j in nz:
                if j != j0:
                    q = H[r][j] // H[r][j0]
                    if q:
                        col_op(j, j0, q)
    return H, U, pivots


def _integer_system(A, b):
    """A and b as lists of their int entries; any other entry is a
    TypeError (`_require_ints`)."""
    A = [list(row) for row in A]
    b = list(b)
    _require_ints(itertools.chain(*A, b), "an integer system")
    return A, b


def hnf_solve(A, b) -> IntegerSolutionSet:
    """Complete integer solution set of A x = b, for int entries.

    Column-reduces A with a recorded unimodular transform U; the echelon
    system H y = b solves by forward substitution, requiring exact
    divisibility at every pivot.  Solutions are x = U y; kernel basis =
    columns of U over the pivot-free columns of H.

    Row scaling: for positive integers c_r, the system diag(c) A x =
    diag(c) b gets the same `particular` and `lattice_basis` as A x = b.
    Column operations commute with scaling a row, so row r of H stays
    c_r times its unscaled row throughout: its nonzero columns, its
    entry of least absolute value (the first on ties), the floor
    quotients and the sign flips are all the same, hence so are U and
    the pivots.  In the substitution, row r's residual and pivot are c_r
    times the unscaled ones, so the quotients agree and a remainder or a
    pivot-free residual is nonzero in both systems or in neither.
    """
    A, b = _integer_system(A, b)
    m = len(A)
    k = len(A[0]) if m else 0
    if any(len(row) != k for row in A):
        raise ValueError("ragged matrix")
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    if k == 0:
        if any(b):
            return IntegerSolutionSet(None, ())
        return IntegerSolutionSet((), ())

    H, U, pivots = _column_echelon(A, m, k)
    pivot_by_row = {r: c for r, c in pivots}
    y = [0] * k
    for r in range(m):
        acc = b[r]
        for _, c in pivots:
            if y[c] and H[r][c]:
                acc -= H[r][c] * y[c]
        c = pivot_by_row.get(r)
        if c is None:
            if acc != 0:
                return IntegerSolutionSet(None, ())
        else:
            q, rem = divmod(acc, H[r][c])
            if rem:
                return IntegerSolutionSet(None, ())
            y[c] = q
    particular = tuple(
        sum(U[i][j] * y[j] for j in range(k) if y[j]) for i in range(k)
    )
    pivot_cols = {c for _, c in pivots}
    kernel = tuple(
        tuple(U[i][j] for i in range(k)) for j in range(k) if j not in pivot_cols
    )
    return IntegerSolutionSet(particular, kernel)


# LP relaxations one call of `ilp_feasible_nonneg` may solve, over all
# of its roots, before it gives up
ILP_NODE_CAP = 5000


def _solution_box_bound(A, b, lower):
    """B such that {Ax=b, x>=lower} feasible implies a solution with
    lower <= x <= lower + B.

    Standard small-solution bound for equality-form integer programs,
    taken with generous constants, applied to x - lower >= 0; only used
    to prune branch-and-bound.
    """
    m = len(A)
    shifted = [t - sum(a * lo for a, lo in zip(row, lower) if lo) for row, t in zip(A, b)]
    amax = max([2] + [abs(x) for row in A for x in row] + [abs(x) for x in shifted])
    return (len(lower) + 2) * ((m + 2) * amax) ** (2 * m + 3)


def ilp_feasible_nonneg(A, b, nonzero_groups=()):
    """Nonnegative integer point of A x = b honoring side conditions, or
    None, for int entries (any other entry is a TypeError).

    `nonzero_groups` is a list of index groups; each group must not be
    all-zero in the solution.  Groups are handled disjunctively: one root
    per choice of one member from each group, in `itertools.product`
    order, whose chosen members are bounded below by 1 (by the number of
    times chosen, when groups share a member).

    A Hermite pre-reduction comes first (no integer solutions at all, or
    a zero-dimensional kernel, settle the call at once).  Then one
    branch-and-bound over the exact LP relaxation searches every root,
    branching on the smallest-index fractional variable, depth first with
    the lower branch first; each root's subtree is searched whole before
    the next root.  Branch bounds are clamped to the finite solution box
    of their root, which makes the search finite; a call that needs more
    than ILP_NODE_CAP LP relaxations over all its roots raises
    BudgetExceeded.
    """
    A, b = _integer_system(A, b)
    k = len(A[0]) if A else 0
    roots = []
    for choice in itertools.product(*nonzero_groups):
        lower = [0] * k
        for g in choice:
            lower[g] += 1
        roots.append(lower)
    if not roots:
        return None  # an empty group can never be made nonzero
    zsol = hnf_solve(A, b)
    if not zsol.feasible:
        return None
    if not zsol.lattice_basis:
        x = zsol.particular
        fits = any(all(v >= lo for v, lo in zip(x, lower)) for lower in roots)
        return x if fits else None

    # depth first: the down branch x_frac <= floor is pushed last, so its
    # whole subtree is searched before the up branch x_frac >= floor + 1;
    # the roots go on in reverse, so the first choice is searched first
    stack = []
    for lower in reversed(roots):
        box = _solution_box_bound(A, b, lower)
        stack.append((lower, [None] * k, [lo + box for lo in lower]))
    nodes = 0
    while stack:
        lower, upper, cap = stack.pop()
        nodes += 1
        if nodes > ILP_NODE_CAP:
            raise BudgetExceeded(
                f"branch-and-bound passed {ILP_NODE_CAP} LP relaxations",
                budget=ILP_NODE_CAP,
            )
        point = _simplex_feasible(A, b, lower, upper)
        if point is None:
            continue
        nums, den = point
        if den == 1:
            return tuple(nums)
        frac = next(j for j in range(k) if nums[j] % den)
        fl = nums[frac] // den
        down = min(fl, cap[frac])
        up = fl + 1
        if up <= cap[frac] and (upper[frac] is None or up <= upper[frac]):
            l2 = list(lower)
            l2[frac] = up
            stack.append((l2, upper, cap))
        if down >= lower[frac]:
            u2 = list(upper)
            if u2[frac] is None or down < u2[frac]:
                u2[frac] = down
            stack.append((lower, u2, cap))
    return None


# ---------------------------------------------------------------------------
# Cones in Q^2


@dataclass(frozen=True)
class ConeMeet:
    """Outcome of intersecting two plane cones: whether they meet with
    full dimension, and a separating functional when one exists."""

    full: bool
    separating_functional: tuple | None


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


def cone_intersect_dim(g, h) -> ConeMeet:
    """Whether the cones generated by the int pairs g and h meet with
    full dimension, plus a separating functional, both read off one
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

    * No feasible ray, P = {0}: no functional separates, and the cones
      meet with full dimension iff each side spans the plane (`full`).
      The relative interior of a finitely generated cone is the set of
      its strictly positive combinations, and by Stiemke's alternative
      strictly positive X, Y with sum X_i g_i = sum Y_j h_j exist iff no
      n in P is nonzero on some c.  So for P = {0} the relative
      interiors meet; if both are open (rank 2 on each side) they meet
      in an open set, and if one side has rank <= 1 the meet lies in
      its line.  Conversely, a meet of full dimension has a point
      interior to both cones, so every n in P vanishes on every c, and
      n = 0 when a side spans the plane.
    * P != {0}: any nonzero n in P separates, so the meet lies in the
      line n . x = 0.  The functional is the first ray when all rays are
      collinear (P a ray or a line); otherwise, in `angular_order`, the
      lesser (as a tuple) of the two rays of the one gap wider than pi
      (P a wedge), and failing that the first ray of the gap of exactly
      pi (P a half-plane).  P is never the plane, since n = -c fails
      n . c >= 0 for a nonzero c, so one such gap exists.
    * No nonzero generator on either side: the functional is the
      conventional (1, 0).
    """
    _require_ints(itertools.chain(*g, *h), "a cone generator")
    signed = [*g, *((-a, -b) for a, b in h)]
    constraints = [p for p in map(_primitive, signed) if p is not None]
    if not constraints:
        return ConeMeet(False, (1, 0))
    candidates = dict.fromkeys(r for a, b in constraints for r in ((-b, a), (b, -a), (a, b)))
    rays = [r for r in candidates if all(r[0] * c[0] + r[1] * c[1] >= 0 for c in constraints)]
    if not rays:
        spans = [any(cross(u, v) for u, v in itertools.combinations(side, 2)) for side in (g, h)]
        return ConeMeet(all(spans), None)
    if all(cross(rays[0], r) == 0 for r in rays):
        return ConeMeet(False, rays[0])
    order = [rays[i] for i in angular_order(rays)]
    gaps = list(zip(order, order[1:] + order[:1]))
    for a, b in gaps:
        if cross(a, b) < 0:
            return ConeMeet(False, min(a, b))
    return ConeMeet(False, next(a for a, b in gaps if cross(a, b) == 0))
