import itertools
import random
from fractions import Fraction

import pytest

from nilsect import (
    Cone2D,
    IntegerSolutionSet,
    LinearSubspace,
    cone_intersect_dim,
    eliminate,
    hnf_solve,
    ilp_feasible_nonneg,
    lp_feasible,
    nullspace,
    support_nonneg,
)
from nilsect.linsolve import _row_reduce


def test_nullspace_examples():
    assert nullspace([(1, -1)]) == [(1, 1)]
    basis = nullspace([], 2)
    assert len(basis) == 2
    assert nullspace([(1, 0), (0, 1)]) == []


def test_nullspace_spans_kernel(rng):
    for _ in range(40):
        ncols = rng.randint(2, 5)
        rows = [
            tuple(Fraction(rng.randint(-4, 4)) for _ in range(ncols))
            for _ in range(rng.randint(0, 4))
        ]
        basis = nullspace(rows, ncols)
        for vec in basis:
            assert all(
                sum(a * x for a, x in zip(row, vec)) == 0 for row in rows
            )
        # rank-nullity
        _, pivots = _row_reduce(rows, ncols, range(ncols))
        assert len(basis) == ncols - len(pivots)


def test_eliminate_examples():
    s = LinearSubspace(("x", "c"), [(1, -1)])
    assert eliminate(s, ["x"]).equations == ()
    s = LinearSubspace(("x", "c"), [(1, 0), (0, 1)])
    p = eliminate(s, ["x"])
    assert p.contains([0]) and not p.contains([1])
    s = LinearSubspace(("x", "y", "c"), [(1, 1, 0), (0, 1, -1)])
    p = eliminate(s, ["x", "y"])
    assert p.contains([1, -1]) and not p.contains([0, 1])


def test_eliminate_matches_enumeration(rng):
    # the projection equations must hold exactly for every projected
    # integer point of the space, and conversely every solution of the
    # projected equations must extend (checked through the enumerated span)
    for _ in range(25):
        ncols = rng.randint(3, 5)
        keep_count = rng.randint(1, ncols - 1)
        names = tuple(range(ncols))
        rows = [
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(ncols))
            for _ in range(rng.randint(1, 3))
        ]
        space = LinearSubspace(names, rows)
        keep = list(names[:keep_count])
        projected = eliminate(space, keep)

        basis = space.basis()
        enumerated = set()
        for combo in itertools.product((-2, -1, 0, 1, 2), repeat=len(basis)):
            vec = [Fraction(0)] * ncols
            for c, b in zip(combo, basis):
                if c:
                    vec = [v + c * x for v, x in zip(vec, b)]
            enumerated.add(tuple(vec[:keep_count]))
        # soundness: every enumerated projection satisfies the equations
        for point in enumerated:
            assert projected.contains(point)
        # completeness: the projected space has no more dimensions than
        # the span of the enumerated points
        span_rows = [list(p) for p in enumerated]
        _, pivots = _row_reduce(span_rows, keep_count, range(keep_count))
        span_dim = len(pivots)
        assert projected.dim() == span_dim


def test_lp_examples():
    pt = lp_feasible([(1, 1)], [1], 2, nonneg=[0, 1])
    assert pt is not None and pt[0] + pt[1] == 1 and min(pt) >= 0
    assert lp_feasible([(1, 0)], [-1], 2, nonneg=[0]) is None
    pt = lp_feasible([(1, -1)], [0], 2, strict_lower={0: 1})
    assert pt is not None and pt[0] == pt[1] and pt[0] >= 1


def test_lp_exactness(rng):
    for _ in range(40):
        nvars = rng.randint(2, 5)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nvars)]
            for _ in range(rng.randint(1, 3))
        ]
        rhs = [Fraction(rng.randint(-6, 6)) for _ in rows]
        pt = lp_feasible(rows, rhs, nvars, nonneg=range(nvars))
        if pt is not None:
            assert all(v >= 0 for v in pt)
            for row, target in zip(rows, rhs):
                assert sum(a * x for a, x in zip(row, pt)) == target


def test_support_examples():
    assert support_nonneg(LinearSubspace((0, 1), [(1, 1)])) == frozenset()
    assert support_nonneg(LinearSubspace((0, 1), [(1, -1)])) == {0, 1}
    assert support_nonneg(LinearSubspace((0, 1, 2), [(1, -2, 0)])) == {0, 1, 2}


def brute_support(space, bound=20):
    k = len(space.coords)
    out = set()
    for point in itertools.product(range(bound + 1), repeat=k):
        if space.contains(point):
            out.update(i for i, v in enumerate(point) if v > 0)
    return frozenset(out)


def test_support_matches_brute_force(rng):
    for _ in range(25):
        k = rng.randint(2, 3)
        rows = [
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(k))
            for _ in range(rng.randint(1, 2))
        ]
        space = LinearSubspace(tuple(range(k)), rows)
        assert support_nonneg(space) == brute_support(space)


def test_support_monotone_under_dropped_equations(rng):
    for _ in range(20):
        k = rng.randint(2, 4)
        rows = [
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(k))
            for _ in range(2)
        ]
        big = support_nonneg(LinearSubspace(tuple(range(k)), rows[:1]))
        small = support_nonneg(LinearSubspace(tuple(range(k)), rows))
        assert small <= big


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
    rows = [[Fraction(basis[j][i]) for j in range(ncols)] for i in range(len(diff))]
    mat = [row + [Fraction(d)] for row, d in zip(rows, diff)]
    reduced, pivots = _row_reduce(mat, ncols + 1, range(ncols))
    coeffs = [Fraction(0)] * ncols
    for r, c in pivots:
        coeffs[c] = reduced[r][ncols]
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


def test_cone_examples():
    m = cone_intersect_dim(Cone2D([(1, 0)]), Cone2D([(0, 1)]))
    assert m.dim == 0
    n = m.separating_functional
    assert n is not None and n[0] >= 0 and n[1] <= 0

    m = cone_intersect_dim(Cone2D([(1, 0), (0, 1)]), Cone2D([(1, 0), (0, 1)]))
    assert m.dim == 2
    v = m.interior_vector
    assert v is not None and v[0] > 0 and v[1] > 0

    m = cone_intersect_dim(Cone2D([(1, 1), (1, -1)]), Cone2D([(1, 1), (-1, 1)]))
    assert m.dim == 1
    n = m.separating_functional
    for g in [(1, 1), (1, -1)]:
        assert n[0] * g[0] + n[1] * g[1] >= 0
    for h in [(1, 1), (-1, 1)]:
        assert n[0] * h[0] + n[1] * h[1] <= 0


def test_cone_degenerate_convention():
    m = cone_intersect_dim(Cone2D([(0, 0)]), Cone2D([]))
    assert m.dim == 0 and m.separating_functional == (1, 0)


def test_cone_no_functional_configuration():
    plane = Cone2D([(1, 0), (0, 1), (-1, 0), (0, -1)])
    m = cone_intersect_dim(plane, Cone2D([(1, 1)]))
    assert m.dim == 1 and m.separating_functional is None


def test_cone_scaling_invariance(rng):
    for _ in range(30):
        g1 = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
        g2 = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
        base = cone_intersect_dim(Cone2D(g1), Cone2D(g2))
        scale = rng.randint(1, 5)
        scaled = cone_intersect_dim(
            Cone2D([(scale * a, scale * b) for a, b in g1]), Cone2D(g2)
        )
        assert base.dim == scaled.dim


def test_cone_interior_vector_certificates(rng):
    # a returned interior vector is a strictly positive combination of
    # each cone's generators (checked by LP with a scale variable)
    for _ in range(30):
        g1 = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
        g2 = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
        meet = cone_intersect_dim(Cone2D(g1), Cone2D(g2))
        if meet.dim != 2:
            continue
        v = meet.interior_vector
        for gens in (g1, g2):
            nonzero = [g for g in gens if g != (0, 0)]
            rows = [
                [Fraction(g[0]) for g in nonzero] + [-Fraction(v[0])],
                [Fraction(g[1]) for g in nonzero] + [-Fraction(v[1])],
            ]
            pt = lp_feasible(
                rows,
                [0, 0],
                len(nonzero) + 1,
                strict_lower={i: 1 for i in range(len(nonzero) + 1)},
            )
            assert pt is not None
