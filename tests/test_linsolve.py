import collections
import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilsect import (
    BudgetExceeded,
    IntegerSolutionSet,
    cone_intersect_dim,
    decide_intersection,
    eliminate,
    hnf_solve,
    ilp_feasible_nonneg,
    load_instance_file,
    lp_feasible,
    support_nonneg,
)
from nilsect import intersect, linsolve
from nilsect.linsolve import ILP_NODE_CAP, _row_reduce, _simplex_feasible

from conftest import cleared, fractions_of, nullspace, subspace_basis, subspace_contains

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def test_nullspace_examples():
    assert nullspace([(1, -1)]) == [(1, 1)]
    basis = nullspace([], 2)
    assert len(basis) == 2
    assert nullspace([(1, 0), (0, 1)]) == []


def test_nullspace_spans_kernel(rng):
    for _ in range(40):
        ncols = rng.randint(2, 5)
        rows = [
            tuple(rng.randint(-4, 4) for _ in range(ncols))
            for _ in range(rng.randint(0, 4))
        ]
        basis = nullspace(rows, ncols)
        for vec in basis:
            assert all(
                sum(a * x for a, x in zip(row, vec)) == 0 for row in rows
            )
        # rank-nullity
        _, pivots = _row_reduce(rows, range(ncols))
        assert len(basis) == ncols - len(pivots)


def test_eliminate_examples():
    # columns (x, c): x = c
    p, lift = eliminate([(1, -1)], 2, 1)
    assert p == () and lift([3]) == ([3, 3], 1)
    p, lift = eliminate([(1, 0), (0, 1)], 2, 1)
    assert subspace_contains(p, 1, [0]) and not subspace_contains(p, 1, [1])
    assert lift([0]) == ([0, 0], 1)
    # columns (x, y, c)
    p, lift = eliminate([(1, 1, 0), (0, 1, -1)], 3, 2)
    assert subspace_contains(p, 2, [1, -1]) and not subspace_contains(p, 2, [0, 1])
    assert lift([2, -2]) == ([2, -2, -2], 1)
    with pytest.raises(AssertionError, match="outside the projection"):
        lift([0, 1])
    # columns (y, x, c, d): 2x = y and c + d + 3y = 0, a dropped column
    # free: d = 0
    p, lift = eliminate([(-1, 2, 0, 0), (3, 0, 1, 1)], 4, 2)
    assert p == ((1, -2),)
    assert lift([2, 1]) == ([2, 1, -6, 0], 1)
    # the lift divides by the pivot entry: x = 2c gives c = 1/2 at x = 1,
    # the point (1, 1/2) over its least common denominator 2
    p, lift = eliminate([(-1, 2)], 2, 1)
    assert p == () and lift([1]) == ([2, 1], 2)
    assert lift([2]) == ([2, 1], 1)
    # no equations: every point lifts, padded with zeros
    p, lift = eliminate([], 3, 1)
    assert p == () and lift([4]) == ([4, 0, 0], 1)
    with pytest.raises(ValueError, match="row length"):
        eliminate([(1, 2)], 3, 1)


def test_eliminate_matches_enumeration(rng):
    # the projection equations must hold exactly for every projected
    # integer point of the space, and conversely every solution of the
    # projected equations must extend (checked through the enumerated span)
    for _ in range(25):
        ncols = rng.randint(3, 5)
        keep_count = rng.randint(1, ncols - 1)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(ncols))
            for _ in range(rng.randint(1, 3))
        ]
        projected, lift = eliminate(rows, ncols, keep_count)

        basis = subspace_basis(rows, ncols)
        enumerated = set()
        for combo in itertools.product((-2, -1, 0, 1, 2), repeat=len(basis)):
            vec = [Fraction(0)] * ncols
            for c, b in zip(combo, basis):
                if c:
                    vec = [v + c * x for v, x in zip(vec, b)]
            enumerated.add(tuple(vec[:keep_count]))
        # soundness: every enumerated projection satisfies the equations
        for point in enumerated:
            assert subspace_contains(projected, keep_count, point)
        # completeness: the projected space has no more dimensions than
        # the span of the enumerated points
        span_rows = [cleared(p) for p in enumerated]
        _, pivots = _row_reduce(span_rows, range(keep_count))
        span_dim = len(pivots)
        assert len(subspace_basis(projected, keep_count)) == span_dim
        # the lift extends each point of the projection, scaled to an
        # integer point, into the space
        for point in list(enumerated)[:10] + subspace_basis(projected, keep_count):
            point = cleared(point)
            lifted = fractions_of(lift(point))
            assert subspace_contains(rows, ncols, lifted) and lifted[:keep_count] == point


# ---------------------------------------------------------------------------
# The Gauss-Jordan reduction over Fraction that the fraction-free one
# replaced, kept as the reference on the same integer rows: the integer
# reduction must take its pivots, return each of its rows up to a nonzero
# rational factor as a primitive integer row, and each pivot row positive
# on its pivot, so that divided by that entry it is the reference's
# normalised pivot row; and `eliminate` and `nullspace` built on it must
# return exactly what they return on the reference with every row cleared
# of its denominators (`_cleared_reference_row_reduce`).


def _reference_row_reduce(rows, pivot_order):
    mat = [list(r) for r in rows]
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
        inv = Fraction(1) / mat[pivot_row][col]
        mat[pivot_row] = [x * inv for x in mat[pivot_row]]
        for i in range(len(mat)):
            if i != pivot_row and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[pivot_row])]
        used_rows.add(pivot_row)
        pivots.append((pivot_row, col))
    return mat, pivots


def _cleared_reference_row_reduce(rows, pivot_order):
    mat, pivots = _reference_row_reduce(rows, pivot_order)
    return [cleared(row) for row in mat], pivots


def _is_primitive(row):
    return all(type(v) is int for v in row) and math.gcd(*row) in (0, 1)


def _nonzero_multiple(row, ref):
    """Whether row = q * ref for a rational q != 0."""
    k = next((i for i, v in enumerate(ref) if v), None)
    if k is None:
        return not any(row)
    q = Fraction(row[k]) / ref[k]
    return q != 0 and all(a == q * b for a, b in zip(row, ref))


def _check_row_reduce(rows, order):
    want, want_pivots = _reference_row_reduce(rows, order)
    got, pivots = _row_reduce(rows, order)
    assert pivots == want_pivots, (rows, order)
    assert len(got) == len(want)
    pivot_rows = {r for r, _ in pivots}
    for i, (row, ref) in enumerate(zip(got, want)):
        assert _is_primitive(row) and _nonzero_multiple(row, ref), (rows, order, i)
    for r, c in pivots:
        assert got[r][c] > 0 and [Fraction(v, got[r][c]) for v in got[r]] == want[r]
    return len(pivots)


def _check_on_reference(rows, ncols, keep):
    """`eliminate` onto the `keep` columns, moved to the front, and
    `nullspace` equal their results with the reference reduction patched
    in."""
    order = keep + [c for c in range(ncols) if c not in keep]
    moved = [[row[c] for c in order] for row in rows]
    k = len(keep)
    got = eliminate(moved, ncols, k), nullspace(rows, ncols)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linsolve, "_row_reduce", _cleared_reference_row_reduce)
        want = eliminate(moved, ncols, k), nullspace(rows, ncols)
    (projected, lift), basis = got
    (want_projected, want_lift), want_basis = want
    assert (projected, lift.width, lift.solved, basis) == (
        want_projected, want_lift.width, want_lift.solved, want_basis
    ), (rows, keep)
    assert len(lift.equations) == len(want_lift.equations)
    for row, ref in zip(lift.equations, want_lift.equations):
        assert _is_primitive(row) and _nonzero_multiple(row, ref)
    assert all(_is_primitive(row) for row in projected)
    assert all(type(v) is Fraction for vec in basis for v in vec)
    for vec in subspace_basis(projected, k):
        vec = cleared(vec)
        point = fractions_of(lift(vec))
        assert subspace_contains(moved, ncols, point) and point[:k] == vec


def _random_entry(rng):
    if rng.random() < 0.3:
        return 0
    num = rng.randint(-6, 6)
    if rng.random() < 0.4:
        return num
    return Fraction(num, rng.choice((1, 2, 3, 4, 6, 9)))


def _random_rows(rng, ncols):
    """Integer rows: rows of int and Fraction entries with mixed
    denominators, with zero rows, duplicates and rational multiples of
    earlier rows, each cleared of its denominators."""
    rows = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))
        elif rows and kind < 0.3:
            q = Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 7)))
            rows.append([q * v for v in rng.choice(rows)])
        elif kind < 0.4:
            rows.append([rng.choice((0, Fraction(0)))] * ncols)
        else:
            rows.append([_random_entry(rng) for _ in range(ncols)])
    rows = [cleared(r) for r in rows]
    if rows and rng.random() < 0.5:
        rows = [tuple(r) for r in rows]
    return rows


def test_row_reduce_matches_reference(rng):
    pivoted = 0
    for _ in range(300):
        ncols = rng.randint(1, 7)
        rows = _random_rows(rng, ncols)
        partial = rng.sample(range(ncols), rng.randint(0, ncols))
        # every column; a partial order, as `eliminate` pivots on the
        # dropped columns; and an augmented last column, as a linear
        # system solves (`solve_in_lattice`)
        for order in (range(ncols), partial, range(ncols - 1)):
            pivoted += _check_row_reduce(rows, list(order))
        _check_on_reference(rows, ncols, sorted(rng.sample(range(ncols), rng.randint(1, ncols))))
    assert pivoted > 500


_entries = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6, 9))),
)


@st.composite
def _reductions(draw):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols), max_size=5))
    rows = [cleared(r) for r in rows]
    if rows and draw(st.booleans()):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    order = draw(st.permutations(range(ncols)))
    order = order[: draw(st.integers(0, ncols))]
    keep = draw(st.lists(st.integers(0, ncols - 1), min_size=1, unique=True))
    return ncols, rows, order, keep


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_reductions())
def test_row_reduce_matches_reference_hypothesis(drawn):
    ncols, rows, order, keep = drawn
    _check_row_reduce(rows, order)
    _check_row_reduce(rows, range(ncols))
    _check_on_reference(rows, ncols, keep)


def test_lp_examples():
    pt = fractions_of(lp_feasible([(1, 1)], [1], [0, 0]))
    assert pt is not None and pt[0] + pt[1] == 1 and min(pt) >= 0
    assert lp_feasible([(1, 0)], [-1], [0, 0]) is None
    pt = fractions_of(lp_feasible([(1, -1)], [0], [1, 0]))
    assert pt is not None and pt[0] == pt[1] and pt[0] >= 1
    pt = fractions_of(lp_feasible([(1, 1)], [0], [-2, 1]))
    assert pt is not None and pt[0] == -pt[1] and pt[0] >= -2 and pt[1] >= 1


def test_lp_exactness(rng):
    for _ in range(40):
        nvars = rng.randint(2, 5)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nvars)]
            for _ in range(rng.randint(1, 3))
        ]
        rhs = [Fraction(rng.randint(-6, 6)) for _ in rows]
        pt = fractions_of(lp_feasible(*_cleared_system(rows, rhs), [0] * nvars))
        if pt is not None:
            assert all(v >= 0 for v in pt)
            for row, target in zip(rows, rhs):
                assert sum(a * x for a, x in zip(row, pt)) == target


def _cleared_system(rows, rhs):
    """(rows, rhs) with each row and its right-hand side cleared of their
    denominators: the integer system of the same points."""
    full = [cleared([*row, t]) for row, t in zip(rows, rhs)]
    return [r[:-1] for r in full], [r[-1] for r in full]


# ---------------------------------------------------------------------------
# The rational phase-1 simplex that the fraction-free tableau replaced, kept
# as the reference on the same integer rows: the integer tableau must take
# exactly its pivots and return exactly its points.


def _reference_phase1(A, b, n, stats):
    """Point of {A u = b, u >= 0}, or None, on a Fraction tableau.

    Counts pivots and ratio-test ties (broken by the smallest basic
    index) in `stats`.
    """
    zero, one = Fraction(0), Fraction(1)
    m = len(A)
    if m == 0:
        return [zero] * n
    T = []
    for i in range(m):
        row = list(A[i])
        r = Fraction(b[i])
        if r < 0:
            row = [-x for x in row]
            r = -r
        art = [zero] * m
        art[i] = one
        T.append(row + art + [r])
    total = n + m
    basis = list(range(n, n + m))
    z = [zero] * (total + 1)
    for i in range(m):
        for j in range(n):
            z[j] -= T[i][j]
        z[total] -= T[i][total]

    while True:
        enter = None
        for j in range(total):
            if z[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = T[i][enter]
            if coef > 0:
                ratio = T[i][total] / coef
                if best is not None and ratio == best:
                    stats["ties"] += 1
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        assert leave is not None
        stats["pivots"] += 1
        piv = T[leave][enter]
        if piv != 1:
            T[leave] = [x / piv for x in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [a - f * p for a, p in zip(T[i], T[leave])]
        if z[enter]:
            f = z[enter]
            z = [a - f * p for a, p in zip(z, T[leave])]
        basis[leave] = enter

    if z[total] != 0:
        return None
    u = [zero] * n
    for i, var in enumerate(basis):
        if var < n:
            u[var] = T[i][total]
    return u


def _reference_simplex_feasible(rows, rhs, lower, upper=None, stats=None):
    """The standard form of `_simplex_feasible`, built over Fractions."""
    if stats is None:
        stats = {"ties": 0, "pivots": 0}
    zero, one = Fraction(0), Fraction(1)
    nvars = len(lower)
    eq_rows = [list(map(Fraction, r)) for r in rows]
    eq_rhs = [Fraction(x) for x in rhs]
    upper_rows = []
    for j in range(nvars):
        u = upper[j] if upper else None
        if u is not None:
            extra = [zero] * nvars
            extra[j] = one
            eq_rows.append(extra)
            eq_rhs.append(Fraction(u))
            upper_rows.append(len(eq_rows) - 1)
    shifts = [Fraction(lo) for lo in lower]
    ncols = nvars + len(upper_rows)
    A = [[zero] * ncols for _ in eq_rows]
    b = []
    for i, row in enumerate(eq_rows):
        acc = eq_rhs[i]
        for j in range(nvars):
            coef = row[j]
            if coef:
                acc -= coef * shifts[j]
                A[i][j] += coef
        b.append(acc)
    for s, i in enumerate(upper_rows):
        A[i][nvars + s] = one
    u = _reference_phase1(A, b, ncols, stats)
    if u is None:
        return None
    return [shifts[j] + u[j] for j in range(nvars)]


def _reference_ilp_search(A, b, nonzero_groups=(), lp=_reference_simplex_feasible):
    """The ILP as one branch-and-bound per choice of nonzero-group
    members: the choice is substituted away (x = x' + bump, b shifted by
    A bump), and each choice runs its own Hermite checks and recursive
    branch-and-bound on x' >= 0, over the LP `lp` (the Fraction tableau
    by default).  Nodes are counted over the whole call, against
    `linsolve.ILP_NODE_CAP` as it is at call time."""
    k = len(A[0]) if A else 0
    groups = [list(g) for g in nonzero_groups]
    if any(not g for g in groups):
        return None
    cap = linsolve.ILP_NODE_CAP
    nodes = 0

    def search(rhs):
        zsol = hnf_solve(A, rhs)
        if not zsol.feasible:
            return None
        if not zsol.lattice_basis:
            x = zsol.particular
            return x if all(v >= 0 for v in x) else None
        box = linsolve._solution_box_bound(A, rhs, [0] * k)

        def recurse(lower, upper):
            nonlocal nodes
            nodes += 1
            if nodes > cap:
                raise BudgetExceeded("reference node cap", budget=cap)
            point = lp(A, rhs, lower, upper)
            if point is None:
                return None
            frac = next((j for j in range(k) if point[j].denominator != 1), None)
            if frac is None:
                return tuple(int(v) for v in point)
            v = point[frac]
            fl = v.numerator // v.denominator
            down = min(fl, box)
            up = fl + 1
            if down >= lower[frac]:
                u2 = list(upper)
                if u2[frac] is None or down < u2[frac]:
                    u2[frac] = down
                found = recurse(lower, u2)
                if found is not None:
                    return found
            if up <= box and (upper[frac] is None or up <= upper[frac]):
                l2 = list(lower)
                l2[frac] = up
                return recurse(l2, upper)
            return None

        return recurse([0] * k, [None] * k)

    for choice in itertools.product(*groups):
        shifted = list(b)
        bump = [0] * k
        for g in choice:
            for i in range(len(A)):
                shifted[i] -= A[i][g]
            bump[g] += 1
        sol = search(shifted)
        if sol is not None:
            return tuple(v + extra for v, extra in zip(sol, bump))
    return None


def _random_rational(rng, bound):
    return Fraction(rng.randint(-bound, bound), rng.choice((1, 1, 2, 3, 4, 6)))


def _random_bounded_system(rng):
    """Integer rows with rational ones cleared, and integer bounds: 0, 1
    or anything in -3..3 below, and in some variables an upper bound at
    most 4 above (or below) the lower one."""
    nvars = rng.randint(1, 5)
    m = rng.randint(0, 4)
    if rng.random() < 0.3:
        # homogeneous 0/+-1 rows: degenerate vertices and ratio ties
        rows = [[rng.choice((-1, 0, 0, 1)) for _ in range(nvars)] for _ in range(m)]
        rhs = [0] * m
    else:
        rows = [
            [_random_rational(rng, 4) if rng.random() < 0.8 else 0 for _ in range(nvars)]
            for _ in range(m)
        ]
        rhs = [_random_rational(rng, 6) for _ in range(m)]
        rows, rhs = _cleared_system(rows, rhs)
    lower, upper = [], []
    for _ in range(nvars):
        lo = rng.choice((0, 1, rng.randint(-3, 3)))
        lower.append(lo)
        if rng.random() < 0.35:
            upper.append(lo + rng.randint(-4, 4))
        else:
            upper.append(None)
    return rows, rhs, lower, upper


def test_simplex_returns_reference_points(rng):
    # the fraction-free tableau takes the rational tableau's pivots, so
    # the point itself, not only feasibility, must be the same
    stats = {"ties": 0, "pivots": 0}
    feasible = infeasible = 0
    for _ in range(600):
        rows, rhs, lower, upper = _random_bounded_system(rng)
        want = _reference_simplex_feasible(rows, rhs, lower, upper, stats)
        got = _simplex_feasible(rows, rhs, lower, upper)
        assert fractions_of(got) == want, (rows, rhs, lower, upper)
        if got is None:
            infeasible += 1
        else:
            feasible += 1
            nums, den = got
            assert all(type(v) is int for v in nums) and type(den) is int
            assert den >= 1 and math.gcd(den, *nums) == 1
    assert feasible > 100 and infeasible > 100
    assert stats["ties"] > 25  # Bland's tie-break was exercised


def test_simplex_reference_points_on_degenerate_supports(rng):
    # the LPs of support_nonneg: homogeneous rows, x >= 0, one x_i >= 1
    stats = {"ties": 0, "pivots": 0}
    for _ in range(150):
        k = rng.randint(2, 6)
        rows = [
            cleared([Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(k)])
            for _ in range(rng.randint(1, 4))
        ]
        rows.append(list(rows[0]))  # a duplicated row ties every ratio
        for i in range(k):
            lower = [0] * k
            lower[i] = 1
            want = _reference_simplex_feasible(rows, [0] * len(rows), lower, None, stats)
            got = lp_feasible(rows, [0] * len(rows), lower)
            assert fractions_of(got) == want
    assert stats["ties"] > 100


_rationals = st.builds(
    Fraction, st.integers(-5, 5), st.sampled_from((1, 2, 3, 4, 6))
)


@st.composite
def _bounded_systems(draw):
    nvars = draw(st.integers(1, 4))
    m = draw(st.integers(0, 3))
    row = st.lists(_rationals, min_size=nvars, max_size=nvars)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    rhs = draw(st.lists(_rationals, min_size=m, max_size=m))
    bound = st.integers(-5, 5)
    lower = draw(st.lists(bound, min_size=nvars, max_size=nvars))
    upper = draw(st.lists(st.one_of(st.none(), bound), min_size=nvars, max_size=nvars))
    return *_cleared_system(rows, rhs), lower, upper


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_bounded_systems())
def test_simplex_matches_reference_hypothesis(system):
    rows, rhs, lower, upper = system
    want = _reference_simplex_feasible(rows, rhs, lower, upper)
    assert fractions_of(_simplex_feasible(rows, rhs, lower, upper)) == want


def _reference_simplex_point(rows, rhs, lower, upper=None):
    """`_reference_simplex_feasible`'s point as (nums, den) over its least
    common denominator, the form the solvers return."""
    point = _reference_simplex_feasible(rows, rhs, lower, upper)
    if point is None:
        return None
    den = math.lcm(*(v.denominator for v in point))
    return [int(v * den) for v in point], den


def test_witnesses_match_reference_lp(monkeypatch):
    # decision and witness on every sample are unchanged under the
    # reference simplex: the integer points and hence the words agree
    checked = witnessed = 0
    for path in sorted(SAMPLES.glob("*.txt")):
        inst = load_instance_file(path).build()
        if not isinstance(inst, intersect.IntersectionInstance):
            continue

        def answer():
            decision = decide_intersection(inst)
            if decision.verdict is not intersect.Verdict.NONEMPTY:
                return decision.details, None
            witness = intersect.extract_witness(inst, decision)
            return witness.details, [w.runs for w in witness.witnesses]

        got = answer()
        with monkeypatch.context() as patch:
            patch.setattr(linsolve, "_simplex_feasible", _reference_simplex_point)
            want = answer()
        assert got == want
        checked += 1
        witnessed += got[1] is not None
    assert checked >= 3 and witnessed >= 1


# ---------------------------------------------------------------------------
# Two loops kept as references.  The per-coordinate loop solves one LP for
# every coordinate, whatever earlier LPs returned.  The cover loop without
# remainder LPs skips the coordinates that the running sum covers and
# solves one LP for each of the others, up to the last coordinate.


def _unit_lower(k, i):
    """Lower bounds 0 on every variable but x_i >= 1."""
    return [int(j == i) for j in range(k)]


def _reference_support(rows, k):
    return frozenset(
        i
        for i in range(k)
        if lp_feasible(rows, [0] * len(rows), _unit_lower(k, i)) is not None
    )


def _reference_cover_loop(rows, k):
    total = [Fraction(0)] * k
    for i in range(k):
        if total[i]:
            continue
        point = fractions_of(lp_feasible(rows, [0] * len(rows), _unit_lower(k, i)))
        if point is not None:
            total = [a + b for a, b in zip(total, point)]
    return tuple(cleared(total))


def support_of(rows, k):
    """Support of `support_nonneg`'s point, after checking that the point
    is a nonnegative integer point of the space of the rows over k
    columns."""
    point = support_nonneg(rows, k)
    assert len(point) == k
    assert all(type(v) is int and v >= 0 for v in point)
    assert subspace_contains(rows, k, point)
    return frozenset(i for i, v in enumerate(point) if v)


def test_support_examples():
    assert support_of([(1, 1)], 2) == frozenset()
    assert support_of([(1, -1)], 2) == {0, 1}
    assert support_of([(1, -2, 0)], 3) == {0, 1, 2}
    assert support_nonneg([(2, -3)], 2) == (3, 2)
    assert support_nonneg([], 2) == (1, 1)


def brute_support(rows, k, bound=20):
    out = set()
    for point in itertools.product(range(bound + 1), repeat=k):
        if subspace_contains(rows, k, point):
            out.update(i for i, v in enumerate(point) if v > 0)
    return frozenset(out)


def test_support_matches_brute_force(rng):
    for _ in range(25):
        k = rng.randint(2, 3)
        rows = [
            tuple(rng.randint(-2, 2) for _ in range(k))
            for _ in range(rng.randint(1, 2))
        ]
        assert support_of(rows, k) == brute_support(rows, k)


def test_support_monotone_under_dropped_equations(rng):
    for _ in range(20):
        k = rng.randint(2, 4)
        rows = [
            tuple(rng.randint(-2, 2) for _ in range(k))
            for _ in range(2)
        ]
        big = support_of(rows[:1], k)
        small = support_of(rows, k)
        assert small <= big


def _check_cover_loop(rows, k, monkeypatch):
    """`support_nonneg` returns the reference cover loop's point, with
    exactly this LP sequence: a coordinate LP for each coordinate that the
    running sum does not cover, in order; after each infeasible one, a
    remainder LP whose extra row is 1 exactly on the later uncovered
    coordinates, with right-hand side 1; and a stop at the first
    infeasible remainder LP or empty remainder.  Returns the LP calls as
    (is_remainder, point) pairs."""
    rows = list(rows)
    zeros = [0] * len(rows)
    want = _reference_cover_loop(rows, k)
    calls = []

    def counting(lp_rows, rhs, lower):
        point = lp_feasible(lp_rows, rhs, lower)
        calls.append((list(lp_rows), list(rhs), list(lower), point))
        return point

    with monkeypatch.context() as patch:
        patch.setattr(linsolve, "lp_feasible", counting)
        point = support_nonneg(rows, k)
    assert point == want
    assert support_of(rows, k) == _reference_support(rows, k)

    seen = []
    total = [Fraction(0)] * k
    pending = iter(calls)
    for i in range(k):
        if total[i]:
            continue
        lp_rows, rhs, lower, found = next(pending)
        found = fractions_of(found)
        assert (lp_rows, rhs, lower) == (rows, zeros, _unit_lower(k, i))
        seen.append((False, found))
        if found is not None:
            total = [a + b for a, b in zip(total, found)]
            continue
        rest = [int(j > i and total[j] == 0) for j in range(k)]
        if not any(rest):
            break
        lp_rows, rhs, lower, found = next(pending)
        found = fractions_of(found)
        assert (lp_rows, rhs, lower) == (rows + [rest], zeros + [1], [0] * k)
        seen.append((True, found))
        if found is None:
            break
        assert subspace_contains(rows, k, found) and min(found) >= 0
        assert sum(v for v, r in zip(found, rest) if r) == 1
    assert next(pending, None) is None
    if k >= 2 and not any(want):
        assert len(calls) == 2
    return seen


def test_cover_loop_matches_per_coordinate_loop(rng, monkeypatch):
    kinds = collections.Counter()
    for _ in range(120):
        k = rng.randint(2, 7)
        rows = [
            cleared([Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(k)])
            for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.3:
            rows.append(list(rows[0]))
        seen = _check_cover_loop(rows, k, monkeypatch)
        solved = sum(not remainder for remainder, _ in seen)
        kinds["covered"] += solved < k
        kinds["feasible remainder"] += any(r and p is not None for r, p in seen)
        kinds["early stop"] += any(r and p is None for r, p in seen)
        kinds["empty support"] += not any(support_nonneg(rows, k))
    # every branch of the loop ran on some space
    assert min(kinds.values()) > 5, kinds


def test_cover_loop_lp_counts():
    calls = []
    real = linsolve.lp_feasible

    def count(rows, k):
        calls.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linsolve, "lp_feasible", lambda *a: calls.append(a) or real(*a))
            support_nonneg(rows, k)
        return len(calls)

    # empty support: one coordinate LP and one remainder LP, for any k >= 2
    for k in range(2, 7):
        assert count([(1,) * k], k) == 2
    assert count([(1,)], 1) == 1
    # x_0 = 0 and x_1 = x_2: the remainder LP over {1, 2} is feasible,
    # and the point of the LP at 1 covers 2
    assert count([(1, 0, 0), (0, 1, -1)], 3) == 3
    # x_0 = x_1 = 0 and x_2 = x_3: the remainder LPs after 0 and 1 are
    # feasible, and the point of the LP at 2 covers 3
    assert count([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, -1)], 4) == 5
    # full support, covered by the first point: one LP
    assert count([(1, -1, 0), (0, 1, -1)], 3) == 1


_small_rows = st.integers(1, 6).flatmap(
    lambda k: st.lists(
        st.lists(_rationals, min_size=k, max_size=k), min_size=0, max_size=4
    ).map(lambda rows: (k, [cleared(r) for r in rows]))
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_small_rows)
def test_cover_loop_matches_per_coordinate_loop_hypothesis(shape):
    k, rows = shape
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_cover_loop(rows, k, monkeypatch)


def test_hnf_examples():
    r = hnf_solve([[2, 4]], [6])
    assert r.feasible
    x = r.particular
    assert 2 * x[0] + 4 * x[1] == 6
    assert len(r.lattice_basis) == 1
    k = r.lattice_basis[0]
    assert 2 * k[0] + 4 * k[1] == 0 and k != (0, 0)
    assert not hnf_solve([[2]], [1]).feasible
    r = hnf_solve([[1, 1]], [0])
    assert r.particular == (0, 0) or sum(r.particular) == 0
    assert len(r.lattice_basis) == 1


def solve_in_lattice(sol: IntegerSolutionSet, x):
    """Integer combination of the basis reaching x - particular, or None."""
    diff = [a - b for a, b in zip(x, sol.particular)]
    basis = [list(b) for b in sol.lattice_basis]
    if not basis:
        return [] if all(v == 0 for v in diff) else None
    ncols = len(basis)
    rows = [[basis[j][i] for j in range(ncols)] for i in range(len(diff))]
    mat = [row + [d] for row, d in zip(rows, diff)]
    reduced, pivots = _row_reduce(mat, range(ncols))
    coeffs = [Fraction(0)] * ncols
    for r, c in pivots:
        coeffs[c] = Fraction(reduced[r][ncols], reduced[r][c])
    # consistency and integrality
    for i in range(len(diff)):
        if sum(rows[i][j] * coeffs[j] for j in range(ncols)) != diff[i]:
            return None
    if any(c.denominator != 1 for c in coeffs):
        return None
    return [int(c) for c in coeffs]


def _box_solutions(A, b, box):
    """All integer solutions of A x = b with every coordinate in `box`.

    Enumerates the first three coordinates and solves one row for the
    fourth; every value of the box is tried when no row involves it.
    """
    pivot = next((i for i, row in enumerate(A) if row[3]), None)
    out = []
    for head in itertools.product(box, repeat=3):
        if pivot is None:
            candidates = box
        else:
            row = A[pivot]
            num = b[pivot] - sum(a * v for a, v in zip(row, head))
            if num % row[3] or num // row[3] not in box:
                continue
            candidates = (num // row[3],)
        for last in candidates:
            x = head + (last,)
            if all(
                sum(a * v for a, v in zip(row, x)) == t for row, t in zip(A, b)
            ):
                out.append(x)
    return out


def test_integer_solvers_refuse_non_int_entries():
    # truncating these gave x = (1,), no solution (x = 2 solves it),
    # (2, 0) and (3, 0)
    for call in (
        lambda: hnf_solve([[1]], [Fraction(3, 2)]),
        lambda: hnf_solve([[Fraction(1, 2)]], [1]),
        lambda: ilp_feasible_nonneg([[1, 1]], [Fraction(5, 2)]),
        lambda: ilp_feasible_nonneg([[1.5, 1]], [3]),
    ):
        with pytest.raises(TypeError, match="is not an int"):
            call()
    assert hnf_solve([[2]], [4]).particular == (2,)
    assert ilp_feasible_nonneg([[1, 1]], [5]) is not None


# a Fraction entry, even one of denominator 1, in each input of each
# solver; every solver takes int entries only
FRACTION_ENTRIES = {
    "eliminate": lambda: eliminate([(1, Fraction(1, 2))], 2, 1),
    "eliminate-integral": lambda: eliminate([(1, Fraction(2))], 2, 1),
    "lift": lambda: eliminate([(1, -1)], 2, 1)[1]([Fraction(1, 2)]),
    "support_nonneg": lambda: support_nonneg([(1, Fraction(2))], 2),
    "lp_feasible-row": lambda: lp_feasible([(Fraction(1, 2), 1)], [1], [0, 0]),
    "lp_feasible-rhs": lambda: lp_feasible([(1, 1)], [Fraction(1, 2)], [0, 0]),
    "lp_feasible-lower": lambda: lp_feasible([(1, 1)], [1], [0, Fraction(1, 2)]),
    "simplex-upper": lambda: _simplex_feasible([(1, 1)], [1], [0, 0], [None, Fraction(1, 2)]),
    "hnf_solve": lambda: hnf_solve([[Fraction(1, 2)]], [1]),
    "ilp_feasible_nonneg": lambda: ilp_feasible_nonneg([[1, 1]], [Fraction(5, 2)]),
    "cone_intersect_dim": lambda: cone_intersect_dim([(Fraction(1, 2), 1)], []),
}


@pytest.mark.parametrize("call", FRACTION_ENTRIES.values(), ids=FRACTION_ENTRIES.keys())
def test_solvers_refuse_fraction_entries(call):
    with pytest.raises(TypeError, match="is not an int"):
        call()


def test_hnf_matches_box_brute_force(rng):
    for _ in range(15):
        A = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
        b = [rng.randint(-5, 5) for _ in range(3)]
        sol = hnf_solve(A, b)
        box = range(-20, 21)
        brute = _box_solutions(A, b, box)
        if not sol.feasible:
            assert not brute
            continue
        x0 = sol.particular
        assert all(
            sum(a * v for a, v in zip(row, x0)) == t for row, t in zip(A, b)
        )
        for k in sol.lattice_basis:
            assert all(sum(a * v for a, v in zip(row, k)) == 0 for row in A)
        for x in brute:
            assert solve_in_lattice(sol, x) is not None


def assert_row_scaling_keeps_solution(A, b, scales):
    """`hnf_solve` on diag(scales) A x = diag(scales) b returns the
    particular solution and lattice basis of A x = b."""
    scaled_A = [[c * v for v in row] for c, row in zip(scales, A)]
    scaled_b = [c * v for c, v in zip(scales, b)]
    want = hnf_solve(A, b)
    got = hnf_solve(scaled_A, scaled_b)
    assert got.particular == want.particular
    assert got.lattice_basis == want.lattice_basis
    return want.feasible


def test_hnf_solve_ignores_positive_row_scaling(rng):
    feasible = []
    for _ in range(300):
        m, k = rng.randint(1, 3), rng.randint(1, 5)
        A = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(m)]
        b = [rng.randint(-9, 9) for _ in range(m)]
        scales = [rng.choice((1, 2, 3, 4, 6, 10, 2**40)) for _ in range(m)]
        feasible.append(assert_row_scaling_keeps_solution(A, b, scales))
    assert feasible.count(True) >= 50 and feasible.count(False) >= 50


_scaled_systems = st.tuples(st.integers(1, 3), st.integers(1, 5)).flatmap(
    lambda shape: st.tuples(
        st.lists(
            st.lists(st.integers(-8, 8), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ),
        st.lists(st.integers(-12, 12), min_size=shape[0], max_size=shape[0]),
        st.lists(st.integers(1, 50), min_size=shape[0], max_size=shape[0]),
    )
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_scaled_systems)
def test_hnf_solve_ignores_positive_row_scaling_hypothesis(system):
    assert_row_scaling_keeps_solution(*system)


def assert_lp_scaling_keeps_point(rows, rhs, lower, c):
    """`lp_feasible` on c A x = c b returns the point of A x = b, for one
    positive integer c on every row.  Returns whether it is feasible."""
    want = lp_feasible(rows, rhs, lower)
    got = lp_feasible([[c * v for v in row] for row in rows], [c * v for v in rhs], lower)
    assert got == want
    return want is not None


def random_lower(rng, nvars, strict):
    """Lower bounds for `lp_feasible`: 0 on every variable, or with
    `strict` an integer in -3..3 on some of them."""
    return [
        rng.randint(-3, 3) if strict and rng.random() < 0.5 else 0
        for _ in range(nvars)
    ]


def test_lp_ignores_one_positive_row_scale(rng):
    # the rows of a rational system with denominators 2 and 6, each
    # cleared of its own, and one factor c = 3 on both
    rows = [[-2, -2, 2], [2, 3, 0]]
    assert assert_lp_scaling_keeps_point(rows, [3, 18], [0] * 3, 3)
    feasible = []
    for trial in range(300):
        nvars, m = rng.randint(2, 5), rng.randint(1, 3)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nvars)]
            for _ in range(m)
        ]
        rhs = [Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(m)]
        c = rng.choice((1, 2, 3, 6, 10, 2**40))
        lower = random_lower(rng, nvars, strict=trial % 2 == 1)
        feasible.append(assert_lp_scaling_keeps_point(*_cleared_system(rows, rhs), lower, c))
    assert feasible.count(True) >= 50 and feasible.count(False) >= 20
    # the balancing-combination form: homogeneous, every variable >= 1
    for _ in range(100):
        k = rng.randint(2, 6)
        rows = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(2)]
        assert_lp_scaling_keeps_point(
            rows, [0, 0], [1] * k, rng.randint(2, 36)
        )


def test_lp_scaling_needs_one_factor():
    # distinct factors per row weight the artificials differently, and
    # phase 1 then ends at another vertex
    rows, rhs = [[-2, -1, 1], [-1, 1, 1]], [0, 3]
    assert lp_feasible(rows, rhs, [0] * 3) == ([3, 0, 6], 1)
    tripled = [rows[0], [3 * v for v in rows[1]]]
    assert lp_feasible(tripled, [0, 9], [0] * 3) == ([0, 3, 3], 2)
    assert lp_feasible([[3 * v for v in row] for row in rows], [0, 9], [0] * 3) == ([3, 0, 6], 1)


@st.composite
def lp_systems(draw, strict):
    nvars = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    rows = draw(st.lists(st.lists(entry, min_size=nvars, max_size=nvars), min_size=m, max_size=m))
    rhs = draw(st.lists(entry, min_size=m, max_size=m))
    bound = st.one_of(st.just(0), st.integers(-6, 6)) if strict else st.just(0)
    lower = draw(st.lists(bound, min_size=nvars, max_size=nvars))
    c = draw(st.integers(1, 60))
    return *_cleared_system(rows, rhs), lower, c


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lp_systems(strict=False))
def test_lp_ignores_one_positive_row_scale_hypothesis(system):
    assert_lp_scaling_keeps_point(*system)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lp_systems(strict=True))
def test_lp_ignores_one_positive_row_scale_strict_lower_hypothesis(system):
    assert_lp_scaling_keeps_point(*system)


def test_ilp_examples():
    s = ilp_feasible_nonneg([[1, 1]], [2])
    assert s is not None and s[0] + s[1] == 2 and min(s) >= 0
    s = ilp_feasible_nonneg([[1, 1]], [2], nonzero_groups=[[0, 1]])
    assert s is not None and sum(s) == 2
    assert ilp_feasible_nonneg([[2, 2]], [3]) is None


def test_ilp_needs_branching():
    # LP-relaxation feasible (x = y + 1/2), no integer points at all
    assert ilp_feasible_nonneg([[2, -2]], [1]) is None
    # integral only away from the LP vertex
    s = ilp_feasible_nonneg([[2, -2]], [2])
    assert s is not None and 2 * s[0] - 2 * s[1] == 2


def test_ilp_nonzero_groups():
    # x + y = 0, x,y >= 0 forces the zero solution; a nonzero group on it fails
    assert ilp_feasible_nonneg([[1, 1]], [0], nonzero_groups=[[0, 1]]) is None
    s = ilp_feasible_nonneg([[1, -1]], [0], nonzero_groups=[[0], [1]])
    assert s is not None and s[0] == s[1] >= 1


def test_ilp_matches_brute_force(rng):
    for _ in range(20):
        A = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)]
        b = [rng.randint(-4, 4) for _ in range(2)]
        got = ilp_feasible_nonneg(A, b)
        brute = None
        for x in itertools.product(range(0, 9), repeat=3):
            if all(sum(a * v for a, v in zip(row, x)) == t for row, t in zip(A, b)):
                brute = x
                break
        if got is None:
            # brute force within the box must not contradict (the solver
            # proves infeasibility over all of Z^3_{>=0})
            assert brute is None
        else:
            assert all(v >= 0 for v in got)
            assert all(
                sum(a * v for a, v in zip(row, got)) == t for row, t in zip(A, b)
            )


def box_points(rows, rhs, lower, cap):
    """Reference for `PointSearch`: every x with lower <= x, sum(x) <= cap
    and rows . x = rhs, from the whole box, sorted by (sum, x)."""
    spare = cap - sum(lower)
    box = itertools.product(*(range(lo, lo + spare + 1) for lo in lower))
    return sorted(
        (
            x
            for x in box
            if sum(x) <= cap
            and all(sum(a * v for a, v in zip(row, x)) == t for row, t in zip(rows, rhs))
        ),
        key=lambda x: (sum(x), x),
    )


def assert_point_search_matches_box(rows, rhs, lower, cap):
    """The walk yields the box points in their order, and a budget below
    its node count stops it after exactly that many nodes, the points
    before the stop a prefix of the whole walk's."""
    search = linsolve.PointSearch(rows, rhs, lower, cap, 10**6)
    got = list(search)
    assert got == box_points(rows, rhs, lower, cap), (rows, rhs, lower, cap)
    assert all(sum(a) <= sum(b) for a, b in zip(got, got[1:]))
    total = search.nodes
    assert list(linsolve.PointSearch(rows, rhs, lower, cap, total)) == got
    for budget in sorted({0, total // 2, total - 1} - {-1, total}):
        stopped = linsolve.PointSearch(rows, rhs, lower, cap, budget)
        before = []
        with pytest.raises(BudgetExceeded):
            for x in stopped:
                before.append(x)
        assert stopped.nodes == budget
        assert before == got[: len(before)]
    return got


def random_point_system(rng):
    """Up to 2 rows over 1..5 columns with entries in -3..3, a right-hand
    side that some point in -1..4 meets, lower bounds in -1..2 and a cap
    up to 7 past their sum."""
    n, m = rng.randint(1, 5), rng.randint(0, 2)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    seed = [rng.randint(-1, 4) for _ in range(n)]
    rhs = [sum(a * v for a, v in zip(row, seed)) for row in rows]
    lower = [rng.randint(-1, 2) for _ in range(n)]
    return rows, rhs, lower, sum(lower) + rng.randint(-1, 7)


def test_point_search_matches_box(rng):
    found = 0
    for _ in range(300):
        found += bool(assert_point_search_matches_box(*random_point_system(rng)))
    assert found >= 100


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_point_search_matches_box_hypothesis(drawn_rng):
    assert_point_search_matches_box(*random_point_system(drawn_rng))


def test_point_search_checks_its_input():
    with pytest.raises(TypeError):
        linsolve.PointSearch([[1, 1]], [2], [0, 0.5], 4, 10)
    with pytest.raises(ValueError):
        linsolve.PointSearch([[1, 1, 1]], [2], [0, 0], 4, 10)
    # no integer point at all, and a cap below the lower bounds
    assert list(linsolve.PointSearch([[2, 4]], [3], [0, 0], 9, 10)) == []
    assert list(linsolve.PointSearch([[1, -1]], [0], [1, 1], 1, 10)) == []


def test_ilp_search_matches_reference_order(rng):
    # the explicit stack visits the recursive search's nodes in its order,
    # so the same first integer point comes back
    compared = 0
    for _ in range(120):
        k = rng.randint(2, 4)
        A = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(1, 2))]
        b = [rng.randint(-4, 4) for _ in A]
        zsol = hnf_solve(A, b)
        if not zsol.feasible or not zsol.lattice_basis:
            continue
        try:
            want = ilp_outcome(_reference_ilp_search, A, b)
        except RecursionError:
            # the recursion gave out; the stack search must end cleanly
            got = ilp_outcome(ilp_feasible_nonneg, A, b)
            if got is not None and got[0] == "BudgetExceeded":
                continue
            assert got is not None and all(v >= 0 for v in got)
            assert all(sum(a * v for a, v in zip(row, got)) == t for row, t in zip(A, b))
            continue
        assert ilp_outcome(ilp_feasible_nonneg, A, b) == want, (A, b)
        compared += 1
    assert compared > 40


def ilp_outcome(solve, A, b, nonzero_groups=()):
    """The point or None that `solve` returns, or ("BudgetExceeded",
    budget) when it gives up."""
    try:
        return solve(A, b, nonzero_groups)
    except BudgetExceeded as exc:
        return ("BudgetExceeded", exc.budget)


def seeded_ilp_system(rng, index):
    """A system shaped like the orbit easy case's: 1 to 3 rows, 2 to 6
    columns, entries of absolute value at most 16, and in half of the
    draws a right-hand side A x0 for a small nonnegative x0.  Every
    second draw (index 2 and 3 mod 4) has two nonzero groups that split
    the columns, as the two sides of a pair without off-line letters
    do; index 1 mod 4 has one group of all columns."""
    m, k = rng.randint(1, 3), rng.randint(2, 6)
    A = [[rng.randint(-16, 16) if rng.random() < 0.7 else 0 for _ in range(k)] for _ in range(m)]
    if rng.random() < 0.5:
        x0 = [rng.randint(0, 3) for _ in range(k)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    else:
        b = [rng.randint(-16, 16) for _ in range(m)]
    cut = rng.randint(1, k - 1)
    split = [range(cut), range(cut, k)]
    return A, b, ([], [range(k)], split, split)[index % 4]


def test_ilp_matches_per_choice_search(rng, monkeypatch):
    # one search over every root returns the point, None or budget of one
    # search per choice of group members; a cap of 150 keeps the budget
    # draws quick and the reference's recursion shallow, and the integer
    # tableau, pinned to the Fraction one above, keeps the reference quick
    monkeypatch.setattr(linsolve, "ILP_NODE_CAP", 150)
    kinds = collections.Counter()

    def reference(A, b, groups):
        return _reference_ilp_search(
            A, b, groups, lp=lambda *args: fractions_of(_simplex_feasible(*args))
        )

    for index in range(600):
        A, b, groups = seeded_ilp_system(rng, index)
        want = ilp_outcome(reference, A, b, groups)
        assert ilp_outcome(ilp_feasible_nonneg, A, b, groups) == want, (A, b, groups)
        if want is None:
            kinds["none"] += 1
        elif want[0] == "BudgetExceeded":
            kinds["budget"] += 1
        else:
            kinds["point", len(groups)] += 1
    assert kinds["none"] + sum(v for key, v in kinds.items() if key[0] == "point") >= 500
    assert kinds["none"] >= 50 and kinds["budget"] >= 1
    assert all(kinds["point", n] >= 50 for n in (0, 1, 2))


def test_ilp_node_cap_counts_relaxations_over_all_roots(monkeypatch):
    # 3x + 3y + 2z = 4 has the point (0, 0, 2), but none with x >= 1 or
    # y >= 1: each of the two roots is refuted after 7 relaxations, and
    # the cap counts the 14 of the call
    A, b, groups = [[3, 3, 2]], [4], [[0, 1]]
    assert ilp_feasible_nonneg(A, b) == (0, 0, 2)
    calls = []
    real = linsolve._simplex_feasible

    def counting(rows, rhs, lower, upper=None):
        calls.append((list(lower), list(upper)))
        return real(rows, rhs, lower, upper)

    monkeypatch.setattr(linsolve, "_simplex_feasible", counting)
    second_root = ([0, 1, 0], [None] * 3)
    assert ilp_feasible_nonneg(A, b, groups) is None
    assert len(calls) == 14 and calls.index(second_root) == 7
    calls.clear()
    monkeypatch.setattr(linsolve, "ILP_NODE_CAP", 10)
    with pytest.raises(BudgetExceeded) as caught:
        ilp_feasible_nonneg(A, b, groups)
    assert caught.value.budget == linsolve.ILP_NODE_CAP == 10
    assert len(calls) == 10 and calls[7] == second_root


def test_ilp_node_cap_bounds_a_diving_search():
    # depth first keeps diving into y <= 0, where x - z = 3/2 has no
    # integer point; the cap ends the search instead of the stack
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as caught:
        ilp_feasible_nonneg([[-2, 3, 2]], [-3])
    assert caught.value.budget == ILP_NODE_CAP
    assert time.perf_counter() - start < 10


ILP_DIVING_DEFECT = (
    "linsolve.ilp_feasible_nonneg still branches on x depth first, so it dives into a "
    "branch without integer points and ends in BudgetExceeded after 5000 "
    "relaxations instead of returning a point; branching in HNF lattice "
    "coordinates (ROADMAP item 4) is the fix"
)


@pytest.mark.xfail(strict=True, raises=BudgetExceeded, reason=ILP_DIVING_DEFECT)
@pytest.mark.parametrize(
    "A, b, point",
    [([[-2, 3, 2]], [-3], (3, 1, 0)), ([[-3, 2, -2]], [1], (1, 2, 0))],
)
def test_ilp_finds_point_past_a_diving_branch(A, b, point):
    assert all(sum(a * v for a, v in zip(row, point)) == t for row, t in zip(A, b))
    got = ilp_feasible_nonneg(A, b)
    assert got is not None and all(v >= 0 for v in got)
    assert all(sum(a * v for a, v in zip(row, got)) == t for row, t in zip(A, b))


def test_cone_examples():
    n = cone_intersect_dim([(1, 0)], [(0, 1)])
    assert n is not None and n != (0, 0) and n[0] >= 0 and n[1] <= 0

    assert cone_intersect_dim([(1, 0), (0, 1)], [(1, 0), (0, 1)]) is None

    n = cone_intersect_dim([(1, 1), (1, -1)], [(1, 1), (-1, 1)])
    assert n is not None and n != (0, 0)
    for g in [(1, 1), (1, -1)]:
        assert n[0] * g[0] + n[1] * g[1] >= 0
    for h in [(1, 1), (-1, 1)]:
        assert n[0] * h[0] + n[1] * h[1] <= 0


def test_cross_and_angular_order_examples():
    assert linsolve.cross((2, 3), (5, 7)) == 2 * 7 - 3 * 5
    assert linsolve.cross((1, 2), (2, 4)) == 0
    # counterclockwise from (1, 0), equal angles in index order, zero
    # vectors last
    vecs = [(0, 0), (-1, 0), (0, -2), (2, 0), (1, 1), (0, 1), (1, 0), (2, 2), (1, -1), (-1, -1)]
    assert linsolve.angular_order(vecs) == [3, 6, 4, 7, 5, 1, 9, 2, 8, 0]
    assert linsolve.angular_order([]) == []


def test_cone_degenerate_convention():
    assert cone_intersect_dim([(0, 0)], []) == (1, 0)


def test_cone_no_functional_configuration():
    # P = {0}, no nonzero functional: the hard case (None) as soon as
    # one side has a nonzero bracket, also the plane against a ray
    # inside it; the zero functional when each side's generators are
    # collinear
    plane = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    assert cone_intersect_dim(plane, [(1, 1)]) is None
    assert cone_intersect_dim([(1, 1)], plane) is None
    assert cone_intersect_dim([(1, 0), (-1, 0)], [(0, 2), (0, -1), (0, 0)]) == (0, 0)
    assert cone_intersect_dim([(2, 1), (-2, -1)], [(1, 1), (-3, -3)]) == (0, 0)


def test_cone_scaling_invariance(rng):
    for _ in range(30):
        g1 = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
        g2 = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
        base = cone_intersect_dim(g1, g2)
        scale = rng.randint(1, 5)
        assert cone_intersect_dim([(scale * a, scale * b) for a, b in g1], g2) == base


def reference_cone_form(generators):
    """Canonical form of the cone generated by the given int pairs.

    One of ("zero",), ("ray", d), ("line", d), ("wedge", r1, r2) running
    counterclockwise from r1 to r2 through an angle < pi,
    ("halfplane", n) with inward normal n, or ("plane",).
    """
    dirs = list(dict.fromkeys(p for p in map(linsolve._primitive, generators) if p))
    if not dirs:
        return ("zero",)
    if len(dirs) == 1:
        return ("ray", dirs[0])
    neg0 = (-dirs[0][0], -dirs[0][1])
    if all(d == dirs[0] or d == neg0 for d in dirs):
        return ("line", dirs[0])
    order = [dirs[i] for i in linsolve.angular_order(dirs)]
    gaps = list(zip(order, order[1:] + order[:1]))
    # at most one cyclic gap is >= pi
    for a, b in gaps:
        if linsolve.cross(a, b) < 0:
            # ccw gap from a to b exceeds pi: the cone is the wedge from b to a
            return ("wedge", b, a)
    for a, b in gaps:
        if linsolve.cross(a, b) == 0 and a[0] * b[0] + a[1] * b[1] < 0:
            # a gap of exactly pi: the occupied side is a closed halfplane
            return ("halfplane", (-b[1], b[0]))
    return ("plane",)


def reference_cone_meet(g, h):
    """The functional of the int-pair cones g and h, or None for the hard
    case, by classifying the polar cone P = {n : n . c >= 0} over c in g
    and -h.

    P is generated by its feasible candidates among the boundary
    directions of the constraints and the constraint normals, so the
    form classifier names it; its functional is the direction of a ray
    or line, the lesser ray of a wedge, or the boundary direction of a
    half-plane.  For P = {0} it is None when one side has a nonzero
    bracket, else (0, 0).
    """
    signed = [*g, *((-a, -b) for a, b in h)]
    constraints = [p for p in map(linsolve._primitive, signed) if p is not None]
    if not constraints:
        return (1, 0)
    candidates = [r for a, b in constraints for r in ((-b, a), (b, -a), (a, b))]
    form = reference_cone_form(
        [r for r in candidates if all(r[0] * c[0] + r[1] * c[1] >= 0 for c in constraints)]
    )
    if form[0] == "zero":
        spans = [
            any(linsolve.cross(u, v) for u, v in itertools.combinations(side, 2))
            for side in (g, h)
        ]
        return None if any(spans) else (0, 0)
    if form[0] in ("ray", "line"):
        return form[1]
    if form[0] == "wedge":
        return min(form[1], form[2])
    assert form[0] == "halfplane", form  # P never holds the plane
    return (-form[1][1], form[1][0])


def cone_case(functional):
    """Which orbit case a `cone_intersect_dim` value selects."""
    if functional is None:
        return "hard"
    return "zero" if functional == (0, 0) else "separating"


def test_cone_meet_matches_reference_form_classifier():
    # value for value against the classifier of the polar cone, on
    # sides of 0-5 generators with entries in -3..3 and -1000..1000,
    # zero generators mixed in
    rng = random.Random(31)
    kinds = collections.Counter()
    for bound in (3, 1000):
        for _ in range(12000):
            g, h = (
                [
                    (0, 0) if rng.random() < 0.1
                    else (rng.randint(-bound, bound), rng.randint(-bound, bound))
                    for _ in range(rng.randint(0, 5))
                ]
                for _ in range(2)
            )
            meet = cone_intersect_dim(g, h)
            assert meet == reference_cone_meet(g, h), (g, h)
            kinds[bound, cone_case(meet)] += 1
            kinds["empty side"] += not g or not h
            kinds["zero generator"] += (0, 0) in g + h
    # two collinear sides with a zero polar cone, the zero functional,
    # take two opposite directions a side and are not drawn here; the
    # tests below draw them
    assert {k for k in kinds if k[0] == 3} == {(3, "hard"), (3, "separating")}
    assert (1000, "separating") in kinds and (1000, "hard") in kinds
    assert kinds["empty side"] > 1000 and kinds["zero generator"] > 1000


CONE_FORMS = ("zero", "ray", "line", "wedge", "halfplane", "plane")


def _generators_of_form(rng, kind):
    """Integer generators whose cone has the given canonical form, with
    positive multiples, duplicates and zero vectors mixed in."""
    d = (0, 0)
    while d == (0, 0):
        d = (rng.randint(-3, 3), rng.randint(-3, 3))
    e = d
    while e[0] * d[1] - e[1] * d[0] == 0:
        e = (rng.randint(-3, 3), rng.randint(-3, 3))

    def comb(p, q, u=None, v=None):
        return (p * u[0] + q * v[0], p * u[1] + q * v[1])

    k = lambda: rng.randint(1, 3)  # noqa: E731
    neg = lambda u: (-u[0], -u[1])  # noqa: E731
    gens = {
        "zero": [],
        "ray": [d, comb(k(), 0, d, e)],
        "line": [d, neg(comb(k(), 0, d, e))],
        "wedge": [d, e, comb(k(), k(), d, e)],
        "halfplane": [d, neg(d), e, comb(rng.randint(-3, 3), k(), d, e)],
        "plane": [d, e, neg(comb(k(), k(), d, e))],
    }[kind]
    gens += [(0, 0)] * rng.randint(0, 2)
    if gens:
        gens.append(rng.choice(gens))
    rng.shuffle(gens)
    assert reference_cone_form(gens)[0] == kind
    return gens


def test_cone_takes_int_generators_only():
    rng = random.Random(73)
    assert cone_intersect_dim([(2, -4), (0, 0)], []) == (2, 1)
    for bad in ((Fraction(1, 2), 3), (1, Fraction(2)), (1.0, 0), (True, 1)):
        for g, h in (([(1, 0), bad], [(0, 1)]), ([(1, 0)], [(0, 1), bad])):
            with pytest.raises(TypeError, match="is not an int"):
                cone_intersect_dim(g, h)
    seen = set()
    for _ in range(4):
        for kind1, kind2 in itertools.product(CONE_FORMS, repeat=2):
            g1 = _generators_of_form(rng, kind1)
            g2 = _generators_of_form(rng, kind2)
            vec = cone_intersect_dim(g1, g2)
            assert vec is None or all(type(x) is int for x in vec)
            seen.add((kind1, kind2, cone_case(vec)))
    assert {kind for kind, _, _ in seen} == set(CONE_FORMS)
    assert {case for _, _, case in seen} == {"hard", "zero", "separating"}


def test_cone_meet_matches_independent_reference():
    # None (the hard case): some side of rank 2 (by elimination) and a
    # strictly positive balancing combination (the LP of
    # orbit._positive_combination), which for a side of rank 2 holds iff
    # P = {0}; (0, 0) exactly when no nonzero n in the box -3..3
    # separates and the case is not hard; else a nonzero int pair that
    # separates.  The polar cone's extreme rays are perpendicular to
    # generators with entries in -3..3, so the box holds a separating n
    # whenever one exists.
    rng = random.Random(29)
    box = [n for n in itertools.product(range(-3, 4), repeat=2) if n != (0, 0)]

    def rank(vecs):
        return 2 - len(nullspace(vecs, 2))

    def separates(n, g, h):
        return all(n[0] * a + n[1] * b >= 0 for a, b in g) and all(
            n[0] * a + n[1] * b <= 0 for a, b in h
        )

    kinds = collections.Counter()
    for _ in range(3000):
        g, h = (
            [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
            for _ in range(2)
        )
        n = cone_intersect_dim(g, h)
        rows = [[x[c] for x in g] + [-y[c] for y in h] for c in range(2)]
        want_hard = (
            (rank(g) == 2 or rank(h) == 2)
            and lp_feasible(rows, [0, 0], [1] * (len(g) + len(h))) is not None
        )
        separable = any(separates(m, g, h) for m in box)
        assert (n is None) == want_hard, (g, h)
        if n is None:
            assert not separable, (g, h)
        else:
            assert all(type(x) is int for x in n) and separates(n, g, h), (g, h)
            assert (n == (0, 0)) == (not separable), (g, h)
        kinds[cone_case(n)] += 1
    # every outcome occurs: the hard case (also with one side of rank
    # <= 1), the zero functional and a separating one
    assert set(kinds) == {"hard", "zero", "separating"}
