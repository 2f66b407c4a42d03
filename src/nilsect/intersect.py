"""Intersection emptiness for semigroups of unipotent rational matrices.

Given M finite generating sets inside a 2-step nilpotent subgroup of
UT(n, Q), decides whether the generated semigroups have a common
element.  The decision runs a support-refinement loop over an exactly
represented linear condition space; a nonempty verdict can be upgraded
to explicit witness words (one per semigroup, all multiplying to the
same matrix, checked by exact multiplication).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import lcm

from .matlie import (
    GeneratorSystem,
    UnipotentMatrix,
    _integer_bracket,
    common_denominator,
    is_two_step,
    product_of_word,
)
from .linsolve import LinearSubspace, eliminate, support_nonneg
from .wordcraft import (
    least_scale,
    realize_word,
    total_letters,
    within_bounds,
)


class Verdict(Enum):
    EMPTY = "empty"
    NONEMPTY = "nonempty"


@dataclass
class Decision:
    """Outcome of a decision run.

    For nonempty verdicts with witnesses attached, all word products
    equal `common_element` (this is verified, not assumed).  `trace`
    records the support-refinement iterations (or, for orbit decisions,
    the case analysis); `details` carries auxiliary data such as the
    final support sets, point and lift that witness extraction reads.
    """

    verdict: Verdict
    witnesses: tuple | None = None
    common_element: UnipotentMatrix | None = None
    trace: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


class IntersectionInstance:
    """M generator systems sharing one ambient dimension.

    Construction verifies that the union of all generators lies in a
    2-step nilpotent group: [[x_i, x_j], x_k] = 0 for the generator logs
    x_i, which by the Mal'cev correspondence and Jacobi is equivalent (see
    `is_two_step`).  The decision procedure's guarantees do not extend
    beyond that class.  When no path of length 3 runs through the logs'
    support, all their triple products vanish and no bracket is taken;
    the check reads the logs, which the decision needs anyway.
    """

    __slots__ = ("n", "systems", "set_names")

    def __init__(self, systems, set_names=None):
        systems = tuple(
            s if isinstance(s, GeneratorSystem) else GeneratorSystem(s)
            for s in systems
        )
        if not systems:
            raise ValueError("need at least one generator set")
        n = systems[0].n
        if any(s.n != n for s in systems):
            raise ValueError("generator sets have mixed dimensions")
        if set_names is None:
            set_names = tuple(f"G{m + 1}" for m in range(len(systems)))
        else:
            set_names = tuple(str(s) for s in set_names)
            if len(set_names) != len(systems):
                raise ValueError("one name per generator set required")
        union = GeneratorSystem([m for s in systems for m in s.mats])
        if not is_two_step(union):
            raise ValueError("the union of the generators is not 2-step nilpotent")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "systems", systems)
        object.__setattr__(self, "set_names", set_names)

    def __setattr__(self, name, value):
        raise AttributeError("IntersectionInstance is immutable")

    @property
    def M(self) -> int:
        return len(self.systems)


def build_condition_space(inst: IntersectionInstance, supports) -> LinearSubspace:
    """The linear space of (l, c) tuples equating the M log expressions.

    Coordinates: ("l", m, j) for every generator (all j, not only the
    current support), and ("c", m, i, j) for pairs i < j inside the
    current support set of system m.  Equations equate, entry by entry of
    the strictly-upper-triangular matrices, the expression

        sum_j l_mj log A_mj + sum_{i<j in S_m} c_mij [log A_mi, log A_mj]

    across consecutive m.  All equations are homogeneous.

    The rows are integers.  Each log is the matrix's cached integer log
    X_j over D_j, each bracket (X_i X_j - X_j X_i) over D_i D_j, and
    every column is scaled by one common multiple L of those denominators,
    so each row is L times its rational row.
    """
    n = inst.n
    coords = []
    for m, sys in enumerate(inst.systems):
        for j in range(sys.K):
            coords.append(("l", m, j))
    for m, sup in enumerate(supports):
        ordered = sorted(sup)
        for a in range(len(ordered)):
            for b in range(a + 1, len(ordered)):
                coords.append(("c", m, ordered[a], ordered[b]))
    index = {name: i for i, name in enumerate(coords)}

    def expression_columns(m):
        """Triples (coordinate index, integer table, its denominator)."""
        logs = [mat.integer_log() for mat in inst.systems[m].mats]
        cols = [(index[("l", m, j)], x, d) for j, (x, d) in enumerate(logs)]
        ordered = sorted(supports[m])
        for a in range(len(ordered)):
            for b in range(a + 1, len(ordered)):
                i, j = ordered[a], ordered[b]
                (xi, di), (xj, dj) = logs[i], logs[j]
                cols.append(
                    (index[("c", m, i, j)], _integer_bracket(xi, xj, n), di * dj)
                )
        return cols

    per_m = [expression_columns(m) for m in range(inst.M)]
    big = lcm(*(d for cols in per_m for _, _, d in cols))
    per_m = [[(col, x, big // d) for col, x, d in cols] for cols in per_m]
    rows = []
    for m in range(inst.M - 1):
        for r in range(n):
            for c in range(r + 1, n):
                row = [0] * len(coords)
                nonzero = False
                for col, x, f in per_m[m]:
                    v = x[r][c]
                    if v:
                        row[col] += f * v
                        nonzero = True
                for col, x, f in per_m[m + 1]:
                    v = x[r][c]
                    if v:
                        row[col] -= f * v
                        nonzero = True
                if nonzero:
                    rows.append(tuple(row))
    return LinearSubspace(coords, rows)


def decide_intersection(inst: IntersectionInstance) -> Decision:
    """Support-refinement decision for intersection emptiness.

    Starting from full supports, repeatedly: build the condition space,
    project it onto the count coordinates, compute the support of its
    nonnegative integer points, and intersect each system's support set
    with it.  Supports only shrink, so once a round empties some support
    set the intersection is empty: the loop returns Empty at that round,
    without the further round that would only confirm a stable state.
    Otherwise it stops at the first stable round, with a NonEmpty
    verdict.  The total support size strictly shrinks in every round but
    the last, so there are at most sum K_m + 1 rounds (`max_rounds`).

    An Empty decision's `details` holds only `final_supports` (the
    supports its last round left, one of them empty) and `iterations`.
    On a NonEmpty decision, `details["support_point"]` keeps the final
    round's nonnegative integer point of the projection, over the
    ("l", m, j) coordinates; its support is exactly the final support
    sets.  `details["lift"]` keeps that round's `Lift`, which
    `eliminate` read off the pivot rows of the elimination it ran anyway:
    it solves the pair coordinates of the condition space for the counts.
    `extract_witness` evaluates it on the point, so the space is built
    and reduced once per round and never again for the witness.
    """
    supports = [frozenset(range(sys.K)) for sys in inst.systems]
    trace = []
    rounds = 0
    max_rounds = sum(sys.K for sys in inst.systems) + 1
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise AssertionError("support loop exceeded its termination bound")
        space = build_condition_space(inst, supports)
        ell_coords = [name for name in space.coords if name[0] == "l"]
        projected, lift = eliminate(space, ell_coords)
        point = support_nonneg(projected)
        support_names = {name for name, v in zip(ell_coords, point) if v}
        new_supports = [
            frozenset(
                j for j in supports[m] if ("l", m, j) in support_names
            )
            for m in range(inst.M)
        ]
        trace.append(
            {
                "iteration": rounds,
                "supports": [sorted(s) for s in supports],
                "projected_support": sorted(
                    (m, j) for (_, m, j) in support_names
                ),
            }
        )
        if any(not s for s in new_supports):
            return Decision(
                Verdict.EMPTY,
                trace=trace,
                details={"final_supports": new_supports, "iterations": rounds},
            )
        if new_supports == supports:
            break
        supports = new_supports

    return Decision(
        Verdict.NONEMPTY,
        trace=trace,
        details={
            "final_supports": supports,
            "iterations": rounds,
            "support_point": point,
            "lift": lift,
        },
    )


def _minimal_even_scale(counts_by_m, deltas_by_m, kmax):
    """Smallest even N such that counts N*l and targets 2*N*c of every
    system are within the realizability bound at K = kmax.

    ok(N) is monotone in N and true for every large N, as `least_scale`
    needs.  Every count l is at least 1: the support letters are those on
    which the point is positive.  In integers (`within_bounds`), pair
    i < j of a system holds at N iff f(N) >= 0 for

        f(N) = l_i l_j N^2 - (8K^3 (l_i + l_j) + 8K^2 |c_ij|) N - 16K^4,

    K = kmax.  f is a quadratic with l_i l_j >= 1 > 0 before N^2 and
    f(0) = -16K^4 < 0, so it has one positive root r and, for N > 0,
    f(N) >= 0 iff N >= r: once a pair holds it holds for every larger N,
    and so does ok, the conjunction over all pairs.  With b the middle
    coefficient, f(N) >= N (N - b) - 16K^4 >= 0 for every
    N >= b + 16K^4, so ok holds from the largest such bound on.
    """

    def ok(N):
        return all(
            within_bounds(
                [N * v for v in counts],
                {key: 2 * N * c for key, c in deltas.items()},
                kmax,
            )
            for counts, deltas in zip(counts_by_m, deltas_by_m)
        )

    return least_scale(ok, 2)


def extract_witness(inst: IntersectionInstance, decision: Decision) -> Decision:
    """Attach verified witness words to a nonempty decision.

    Evaluates the final round's lift (`details["lift"]`) on that round's
    point of the projection (`details["support_point"]`, positive
    exactly on the support letters), which solves for the pair
    coordinates with no LP, no row reduction and no condition space, and
    scales the rational result by its common denominator to an integer
    point (l, c) of the condition space.  Then scales that by an even
    factor N large enough that the word-realization bounds hold,
    realizes one word per system with counts N*l and delta targets
    2*N*c (restricted to the support letters), and checks by plain
    matrix multiplication that all word products agree, however many
    letters the words have.
    """
    if decision.verdict is not Verdict.NONEMPTY:
        raise ValueError("witness extraction requires a nonempty verdict")
    supports = decision.details["final_supports"]
    lift = decision.details["lift"]
    point = lift(decision.details["support_point"])
    den = common_denominator(point)
    by_name = {name: int(v * den) for name, v in zip(lift.coords, point)}

    kmax = max(sys.K for sys in inst.systems)
    counts_by_m = []
    deltas_by_m = []
    sub_alphabets = []
    for m, sys in enumerate(inst.systems):
        letters = sorted(supports[m])
        sub_alphabets.append(letters)
        counts = [by_name[("l", m, j)] for j in letters]
        deltas = {}
        for a in range(len(letters)):
            for b in range(a + 1, len(letters)):
                i, j = letters[a], letters[b]
                deltas[(a, b)] = by_name[("c", m, i, j)]
        counts_by_m.append(counts)
        deltas_by_m.append(deltas)

    N = _minimal_even_scale(counts_by_m, deltas_by_m, kmax)
    words = []
    for m, sys in enumerate(inst.systems):
        letters = sub_alphabets[m]
        counts = [N * v for v in counts_by_m[m]]
        deltas = {key: 2 * N * v for key, v in deltas_by_m[m].items()}
        words.append(realize_word(counts, deltas).relabel(letters, sys.K))

    common = _common_product(inst, words)
    if common is None:
        raise AssertionError("witness products disagree (defect)")

    out = Decision(
        Verdict.NONEMPTY,
        witnesses=tuple(words),
        common_element=common,
        trace=decision.trace,
        details=dict(decision.details),
    )
    out.details["scale"] = N
    out.details["witness_letters"] = total_letters(words)
    return out


def _common_product(inst: IntersectionInstance, words):
    """The product shared by all the word products over the M systems,
    or None when two of them differ."""
    products = [
        product_of_word(sys, w) for sys, w in zip(inst.systems, words)
    ]
    first = products[0]
    return first if all(p == first for p in products[1:]) else None
