"""Orbit intersection in the 3x3 unipotent rational group.

Decides whether T<G> and S<H> meet, for finite generator sets G, H and
translations T, S, all 3x3 unipotent rational matrices.  After reducing
to T = I, the case split is on one plane cone: the polar cone P of the
functionals n with n . g >= 0 on the superdiagonal g of every log of G
and n . h <= 0 on that h of every log of H (`linsolve.cone_intersect_dim`):

* P != {0} ("easy"): a nonzero n in P separates the two superdiagonal
  cones and bounds how many off-line letters a witness can use; the
  remaining search is a finite family of linear Diophantine systems
  over nonnegative integers.
* P = {0} and both sides span the plane ("hard"): the cones meet with
  full dimension, and solvability is equivalent to one relaxed integer
  system on counts and pair coefficients plus parity constraints, solved
  by enumerating residues and checking integer feasibility.  A solution
  is turned into explicit witness words: the counts are shifted along a
  positive balancing combination until block orders of the letters hit
  the corner exactly, a signed area (`wordcraft.realize_corner`); the
  inflation to the source paper's sufficient realisability bound is the
  fallback.

Lie-algebra elements are log triples (a, b, gamma), the entries (0,1),
(1,2) and (0,2) of a 3x3 log.  A bracket [X, Y] is nonzero only in the
corner, a_X b_Y - a_Y b_X (`linsolve.cross` of the superdiagonals), so
the 2-step BCH formula

    log(e^{X_1} ... e^{X_n}) = sum X_k + 1/2 sum_{k<l} [X_k, X_l]

is exact here, and every equation below is written with it.

Group elements (T, S and the generators) are 3x3 `UnipotentMatrix`es,
each a reduced integer table over a denominator; there is no separate
element type.  The easy case and the polar cone run on integers read
straight off those tables: each superdiagonal cone is the list of the
int pairs of its side.  With D the lcm of the table denominators of S,
G and H, each log triple (a, b, gamma) becomes the integer triple
(D a, D b, 2 D^2 gamma) (`_integer_logs`).  Superdiagonals scale by D and
corners by D^2, so half a corner bracket in units of 2 D^2 is the
integer bracket of the integer superdiagonals, and the BCH sums above
stay integer sums.  The easy case skips every ordering pair that misses
the balance its separating functional imposes (see `decide_easy`)
before any integer program is solved; its solution stays one flat
count vector, read by position (`_word_from_layout`).  The hard case
writes its relaxed system once, in `_hard_system`, from the same integer
triples, over one column layout: x (K columns), y (M), then one c per
pair of G letters and one d per pair of H letters.  It branches over
the parity residues in ints, and its solution is one int tuple over
those columns (`details["relaxed"]`).  The witness is built from the
rows of that system: the balancing combination solves on its two
superdiagonal rows, and the corner search and the inflation fallback
read its corner row (see `extract_orbit_witness`).  No rational log
triple is formed anywhere; the easy trace reports n . log S as the
string "p/q" (`matlie.rational_str`).

`decide_orbit` builds the `IntegerLogs` and the cone meet once and
dispatches on them; `decide_hard` and `extract_orbit_witness` read only
the `IntegerLogs`, and `decide_easy` those and the meet's separating
functional.  Nonempty verdicts always come with a witness pair that
`decide_orbit` verifies.  The remainder, P = {0} while one side's
superdiagonals span at most a line (e.g. a full plane cone against a ray
inside it), is outside the supported procedure; `decide_orbit` then
tries the breadth-first oracle as a semi-decision (`_easy_fallback`),
and the run reports Unsupported when it finds nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm
from operator import mul

from .errors import BudgetExceeded, UnsupportedInstance
from .intersect import Decision, Verdict
from .linsolve import cone_intersect_dim, cross, hnf_solve, ilp_feasible_nonneg, lp_feasible
from .matlie import GeneratorSystem, UnipotentMatrix, product_of_word, rational_str
from .oracle import bfs_oracle
from .wordcraft import Word, least_scale, realize_corner, realize_word, total_letters, within_bounds

DEFAULT_INTERLEAVING_BUDGET = 100_000
DEFAULT_PARITY_CAP = 16  # residue enumeration is 2^(K+M) branches
FALLBACK_DEPTH = 8  # default oracle-depth, here and in the CLI
CORNER_SHIFTS = 1024  # shifts the corner search tries before it inflates


class OrbitInstance:
    """T<G> vs S<H> inside the 3x3 unipotent rational group.

    T and S are 3x3 `UnipotentMatrix`es, G and H `GeneratorSystem`s of
    3x3 matrices.  A part of another type is a TypeError naming it, and
    one of another dimension a ValueError naming it.
    """

    __slots__ = ("T", "S", "G", "H", "options")

    def __init__(self, T, S, G, H, options=None):
        for name, part, kind in (
            ("T", T, UnipotentMatrix),
            ("S", S, UnipotentMatrix),
            ("G", G, GeneratorSystem),
            ("H", H, GeneratorSystem),
        ):
            if not isinstance(part, kind):
                raise TypeError(f"{name} is not a {kind.__name__}")
            if part.n != 3:
                raise ValueError(
                    f"orbit problems live in dimension 3; {name} has dimension {part.n}"
                )
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "options", dict(options or {}))

    def __setattr__(self, name, value):
        raise AttributeError("OrbitInstance is immutable")


def reduce_to_identity(inst: OrbitInstance) -> OrbitInstance:
    """Equivalent instance with T = I (replaces S by T^-1 S)."""
    s_elem = inst.T.inverse() * inst.S
    return OrbitInstance(UnipotentMatrix.identity(3), s_elem, inst.G, inst.H, inst.options)


@dataclass(frozen=True)
class IntegerLogs:
    """The log triples of one orbit instance in integer units.

    `den` is D, the lcm of the denominators of the reduced integer tables
    of S, G and H; each log triple (a, b, gamma) is stored as the ints
    (D a, D b, 2 D^2 gamma).  In these units the halved corner bracket
    1/2 [X, Y] of two triples is the plain integer corner of their
    integer superdiagonals, since 2 D^2 * (a_X b_Y - a_Y b_X) / 2 =
    (D a_X)(D b_Y) - (D a_Y)(D b_X).
    """

    den: int
    s: tuple
    g: list
    h: list


def _integer_logs(s: UnipotentMatrix, g_mats, h_mats) -> IntegerLogs:
    """`IntegerLogs` of S, G and H, read off their integer tables.

    A table t over d is the element with a = t01/d, b = t12/d and
    gamma = c - ab/2 = (2 d t02 - t01 t12) / (2 d^2); with k = D/d its
    triple in units (D, D, 2 D^2) is (k t01, k t12, k^2 (2 d t02 - t01 t12)).
    """
    mats = [s, *g_mats, *h_mats]
    den = lcm(*(m.den for m in mats))

    def scaled(m):
        (_, a, c), (_, _, b), _ = m.table
        k = den // m.den
        return (k * a, k * b, k * k * (2 * m.den * c - a * b))

    triples = [scaled(m) for m in mats]
    split = 1 + len(g_mats)
    return IntegerLogs(den, triples[0], triples[1:split], triples[split:])


def decide_orbit(inst: OrbitInstance) -> Decision:
    """Dispatch on the polar cone P of the two superdiagonal cones.

    Reduces to T = I, builds the two superdiagonal cones, and runs the
    hard case when they meet with full dimension (P = {0} and both sides
    span the plane), the easy case when P holds a separating functional,
    and otherwise (P = {0}, some side of rank <= 1) the breadth-first
    fallback.  The cones are the int pairs of the integer superdiagonals
    of `_integer_logs`, read straight off the integer tables: scaling every
    generator by the same D > 0 moves no direction, so P and the
    functional are those of the rational cones.  Nonempty verdicts
    carry a witness pair (v over G, w over H), and this is the one place
    it is checked, by `_common_element`.  The common element reported is
    T * product(v).
    """
    reduced = reduce_to_identity(inst)
    units = _integer_logs(reduced.S, inst.G.mats, inst.H.mats)
    meet = cone_intersect_dim([x[:2] for x in units.g], [x[:2] for x in units.h])

    if meet.full:
        decision = decide_hard(units, inst.options)
    elif meet.separating_functional is None:
        decision = _easy_fallback(reduced)
    else:
        decision = decide_easy(units, meet.separating_functional, inst.options)

    if decision.verdict is Verdict.NONEMPTY:
        common = _common_element(inst, *decision.witnesses)
        if common is None:
            raise AssertionError("orbit witness failed verification (defect)")
        decision.common_element = common
    return decision


def _common_element(inst: OrbitInstance, v: Word, w: Word):
    """T * product(v) when it equals S * product(w), else None."""
    left = inst.T * product_of_word(inst.G, v)
    right = inst.S * product_of_word(inst.H, w)
    return left if left == right else None


# ---------------------------------------------------------------------------
# Easy case: a separating functional


def _interleavings(letters, caps, length):
    """Ordered tuples of `length` letters honoring per-letter caps.

    Yields them one at a time in lexicographic order, letters ranked as in
    `letters`; no sequence is built before it is needed.
    """
    left = [caps[a] for a in letters]
    if length > sum(left):
        return
    chosen = []  # index into `letters` at each filled position
    start = 0  # first index to try at the next position
    while True:
        if len(chosen) < length:
            pick = start
            while pick < len(letters) and not left[pick]:
                pick += 1
            if pick < len(letters):
                left[pick] -= 1
                chosen.append(pick)
                start = 0
                continue
        else:
            yield tuple(letters[i] for i in chosen)
        if not chosen:
            return
        last = chosen.pop()
        left[last] += 1
        start = last + 1


def decide_easy(units: IntegerLogs, functional, options) -> Decision:
    """Finite Diophantine search along a separating functional: a
    nonzero n in the polar cone P (an int pair), so the cones meet in at
    most a line.

    A separating functional n (nonnegative on the G directions,
    nonpositive on the H directions) bounds the number of off-line
    letters in any witness pair; all their orderings are enumerated and
    each yields one linear system over nonnegative integers in the
    on-line letter counts.  For a fixed ordering the log of each side is
    affine in those counts, and its base and coefficients are explicit
    BCH sums over the ordering (`_side_coefficients`).

    Balance lemma: let val_i = +-n.x_i > 0 be the value of an off-line
    letter (the sign is + on G, - on H) and ns = n.log S.  Every on-line
    superdiagonal lies in ker n, so n applied to the two superdiagonal
    rows of a pair's system cancels every column and leaves the equation
    sum val(cs) + sum val(ds) = ns.  A pair (cs, ds) that misses this
    balance therefore has no solution, not even a rational one, and is
    skipped before any row is built.  Skipped pairs are enumerated in the
    same order and still counted in `pairs_tried` and toward the
    interleaving budget, so verdicts, witnesses and `BudgetExceeded` are
    those of handing every pair to `_solve_interleaving`;
    `systems_solved` counts the pairs that reach `ilp_feasible_nonneg`.

    Everything here is integer arithmetic on `units`, the `IntegerLogs`
    of the instance reduced to T = I: triples in units (D, D, 2 D^2), D
    the lcm of the denominators of the integer tables, one D for the
    whole search.  Scaling n.x and n.log S by the same D
    leaves every letter cap ns / val and the balance as they are, and
    `_solve_interleaving` turns each ordering's integer rows into exactly
    the rows the rational system clears to, whatever D is.

    Without a separating functional (P = {0}) the bounding argument has
    no footing: `decide_orbit` runs `decide_hard` when both sides span
    the plane, and `_easy_fallback` otherwise.  A nonempty witness
    pair is not checked here; `decide_orbit` checks it.
    """
    if functional is None:
        raise ValueError(
            "easy case requires a separating functional (a nonzero polar cone)"
        )
    budget = options.get("interleave_budget", DEFAULT_INTERLEAVING_BUDGET)

    n0, n1 = functional
    ns = n0 * units.s[0] + n1 * units.s[1]  # D * (n . log S)

    def side_split(triples, sign):
        on_line, vals = [], {}
        for i, x in enumerate(triples):
            val = sign * (n0 * x[0] + n1 * x[1])  # positive off the line
            if val == 0:
                on_line.append(i)
            else:
                vals[i] = val
        return on_line, vals

    g0, g_vals = side_split(units.g, 1)
    h0, h_vals = side_split(units.h, -1)
    gplus, hplus = list(g_vals), list(h_vals)

    trace = {
        "functional": functional,
        "ns": rational_str(ns, units.den),
        "g_plus": gplus,
        "h_plus": hplus,
        "pairs_tried": 0,
        "systems_solved": 0,
    }
    if ns < 0:
        # every witness pair projects to a nonnegative number on the left
        # and ns plus a nonpositive number on the right
        return Decision(Verdict.EMPTY, trace=[trace], details={"case": "easy"})

    g_caps = {i: ns // val for i, val in g_vals.items()}
    h_caps = {i: ns // val for i, val in h_vals.items()}
    g_max = sum(g_caps.values())
    h_max = sum(h_caps.values())
    # (base, cols) of each side, per interleaving: a pair recomputes neither
    g_coefs = {}
    h_coefs = {}

    pairs_tried = systems_solved = 0
    for total in range(g_max + h_max + 1):
        for s_len in range(max(0, total - h_max), min(total, g_max) + 1):
            t_len = total - s_len
            for cs in _interleavings(gplus, g_caps, s_len):
                rest = ns - sum(map(g_vals.__getitem__, cs))  # ds must balance it
                for ds in _interleavings(hplus, h_caps, t_len):
                    pairs_tried += 1
                    if pairs_tried > budget:
                        raise BudgetExceeded(
                            f"easy-case enumeration exceeded {budget} interleavings",
                            budget=budget,
                        )
                    if sum(map(h_vals.__getitem__, ds)) != rest:
                        continue  # no solution: skipped, but counted
                    systems_solved += 1
                    found = _solve_interleaving(
                        units, g0, h0, cs, ds, g_coefs, h_coefs
                    )
                    if found is not None:
                        v, w = found
                        trace["pairs_tried"] = pairs_tried
                        trace["systems_solved"] = systems_solved
                        return Decision(
                            Verdict.NONEMPTY,
                            witnesses=(v, w),
                            trace=[trace],
                            details={"case": "easy"},
                        )
    trace["pairs_tried"] = pairs_tried
    trace["systems_solved"] = systems_solved
    return Decision(Verdict.EMPTY, trace=[trace], details={"case": "easy"})


def _word_from_layout(k, interleaving, on_line, counts):
    """Word over k letters: the on-line runs of each gap, then the
    off-line letter that closes the gap.  `counts` is flat, ordered by
    gap, then by `on_line`: the count of on_line[pos] in gap `gap` is
    counts[gap * len(on_line) + pos]."""
    runs = []
    for gap in range(len(interleaving) + 1):
        for pos, letter in enumerate(on_line):
            c = counts[gap * len(on_line) + pos]
            if c:
                runs.append((letter, c))
        if gap < len(interleaving):
            runs.append((interleaving[gap], 1))
    return Word(k, runs)


def _side_coefficients(triples, interleaving, on_line, prefix):
    """log(prefix * product) at zero on-line counts, and its change per unit.

    The base is the BCH sum over the prefix (log S on the H side, nothing
    on the G side) followed by the off-line letters of `interleaving`.
    One on-line letter X_j added in gap g (before off-line letter g) adds

        X_j + 1/2 [P, X_j] + 1/2 [X_j, A]  =  X_j + 1/2 [P - A, X_j],

    with P the sum of the prefix and the off-line letters before the gap
    and A the sum of those after it.  This is exact at every point, not
    only at zero: the on-line superdiagonals are collinear (all lie on
    the kernel of the separating functional), so on-line letters bracket
    to zero with each other and the change does not depend on the other
    on-line counts.  Columns are ordered by gap, then by `on_line`.

    `triples` and `prefix` are integer triples in units (D, D, 2 D^2)
    (`IntegerLogs`), and so are the base and the columns: a halved
    bracket 1/2 [U, X] in units of 2 D^2 is the integer corner
    u0 x1 - x0 u1 of the superdiagonals in units of D, so the update of
    gamma is x2 + a x1 - x0 b and a column is x2 + d0 x1 - x0 d1, with
    (d0, d1) = P - A.  No division happens anywhere.
    """
    a = b = gamma = 0
    if prefix is not None:
        a, b, gamma = prefix
    ahead = [(a, b)]  # superdiagonal sum ahead of each gap
    for i in interleaving:
        x0, x1, x2 = triples[i]
        gamma += x2 + a * x1 - x0 * b
        a += x0
        b += x1
        ahead.append((a, b))
    cols = []
    for pa, pb in ahead:
        d0, d1 = 2 * pa - a, 2 * pb - b  # P - A
        for j in on_line:
            x0, x1, x2 = triples[j]
            cols.append((x0, x1, x2 + d0 * x1 - x0 * d1))
    return (a, b, gamma), cols


def _solve_interleaving(units, g0, h0, cs, ds, g_coefs, h_coefs):
    """One linear Diophantine system for fixed off-line letter orderings.

    Variables: the count of each on-line G letter in each of the
    len(cs)+1 gaps, ordered by gap, then by `g0`, then the same for H;
    the solution stays flat and `_word_from_layout` reads it.  The log of each side is affine in these
    counts (`_side_coefficients`); its three coordinates give the
    equation rows.  The coefficients of each side are memoised in
    `g_coefs` / `h_coefs`, keyed by its ordering.  Side conditions: a
    side with no off-line letters must still be a nonempty word, so one
    with no letter at all gets an empty nonzero group, which no point
    meets.

    The rows reach `ilp_feasible_nonneg` as exactly the integers that
    clearing the rational system by its common denominator gives.  The
    coefficients come in units (D, D, 2 D^2); rows 0 and 1 are lifted by
    2 D, so every entry is n_i / M of the rational entry with M = 2 D^2.
    For rationals n_i / M the lcm of the reduced denominators is
    M / gcd(M, n_1, ..., n_k); so dividing every entry and right-hand
    side by g = gcd(M, all of them) gives n_i / g, the rational entry
    times that lcm.
    """
    if cs not in g_coefs:
        g_coefs[cs] = _side_coefficients(units.g, cs, g0, None)
    if ds not in h_coefs:
        h_coefs[ds] = _side_coefficients(units.h, ds, h0, units.s)
    base_v, cols_v = g_coefs[cs]
    base_w, cols_w = h_coefs[ds]

    lift = 2 * units.den
    rows = []
    rhs = []
    for e, scale in ((0, lift), (1, lift), (2, 1)):
        rows.append(
            [scale * col[e] for col in cols_v] + [-scale * col[e] for col in cols_w]
        )
        rhs.append(scale * (base_w[e] - base_v[e]))
    g = gcd(lift * units.den, *rows[0], *rows[1], *rows[2], *rhs)
    if g > 1:
        rows = [[v // g for v in row] for row in rows]
        rhs = [v // g for v in rhs]

    nonzero_groups = []
    nv = len(cols_v)
    if not cs:
        nonzero_groups.append(list(range(nv)))
    if not ds:
        nonzero_groups.append(list(range(nv, nv + len(cols_w))))

    sol = ilp_feasible_nonneg(rows, rhs, nonzero_groups)
    if sol is None:
        return None
    v = _word_from_layout(len(units.g), cs, g0, sol[:nv])
    w = _word_from_layout(len(units.h), ds, h0, sol[nv:])
    return v, w


def _easy_fallback(reduced: OrbitInstance) -> Decision:
    """Semi-decision by enumeration on the instance reduced to T = I, for
    the one configuration neither case covers: the polar cone P is {0}
    (no separating functional) while some side's superdiagonals span at
    most a line (so the cones do not meet with full dimension)."""
    options = reduced.options
    depth = options.get("oracle_depth", FALLBACK_DEPTH)
    found = bfs_oracle(reduced, depth, memory_budget=options.get("memory_budget"))
    if found is not None:
        v, w = found.words
        return Decision(
            Verdict.NONEMPTY,
            witnesses=(v, w),
            trace=[{"fallback_depth": depth}],
            details={"case": "fallback"},
        )
    raise UnsupportedInstance(
        "no separating functional exists for the cone pair while one side "
        "spans at most a line, and the "
        f"enumeration fallback found no witness up to length {depth}; "
        "the emptiness question is undecided for this configuration"
    )


# ---------------------------------------------------------------------------
# Hard case: cones meeting with full dimension


def _pairs(k):
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def _hard_system(units: IntegerLogs):
    """Integer rows R and right-hand side t of the relaxed system, read
    off `units` (triples in units (D, D, 2 D^2)); the one place its
    coefficients are written.

    Returns (rows, rhs).  The columns are x (K of them), y (M), then one
    c per pair of `_pairs(K)` and one d per pair of `_pairs(M)`, and a
    solution is one int tuple over them.  The rows are the two
    superdiagonal equations, in units of D, followed by the corner
    equation, in units of 2 D^2.  In the corner row, x_i has coefficient
    g_i[2], y_j has -(h_j[2] + omega(s, h_j)), and each pair coefficient
    has +-omega of its pair's integer superdiagonals (the halved brackets
    of the rational system, see `IntegerLogs`).
    """
    g, h, s = units.g, units.h, units.s
    g_pairs = _pairs(len(g))
    h_pairs = _pairs(len(h))
    rows = [
        [x[comp] for x in g]
        + [-y[comp] for y in h]
        + [0] * (len(g_pairs) + len(h_pairs))
        for comp in range(2)
    ]
    rows.append(
        [x[2] for x in g]
        + [-(y[2] + cross(s, y)) for y in h]
        + [cross(g[i], g[j]) for i, j in g_pairs]
        + [-cross(h[i], h[j]) for i, j in h_pairs]
    )
    return rows, list(s)


def _parities(vec, K, M):
    """The parities the pair columns of the hard system must have, read
    off the counts vec[:K + M]: x_i x_j mod 2 for each pair of
    `_pairs(K)`, then y_i y_j mod 2 for each pair of `_pairs(M)`."""
    x, y = vec[:K], vec[K : K + M]
    return [x[i] * x[j] % 2 for i, j in _pairs(K)] + [
        y[i] * y[j] % 2 for i, j in _pairs(M)
    ]


def decide_hard(units: IntegerLogs, options) -> Decision:
    """Relaxed-system decision when the cones meet with full dimension.

    Solvability is equivalent to integer x, y, c, d satisfying the two
    superdiagonal equations, the corner equation, and the parities
    c_ij == x_i x_j, d_ij == y_i y_j (mod 2).  Residues of (x, y) are
    enumerated (2^(K+M) branches, lowest branch wins); they determine the
    pair parities (`_parities`), and each branch is a pure integer linear
    system.  A feasible branch's solution is one int tuple over the
    columns of `_hard_system` (x, y, then the c and d of each pair),
    checked against the rows and the parities and kept as
    `details["relaxed"]`.  It is turned into a witness pair by
    `extract_orbit_witness`, and `decide_orbit` checks that.  The trace
    entry records `branches_tried`, the `residues` of that branch, how
    the witness was made (`witness`: "corner" or "inflated"), its
    `shift` along the balancing combination and `witness_letters`.

    The system is built once, as integer rows R and right-hand side t
    (`_hard_system`), from `units`, the `IntegerLogs` of the instance
    reduced to T = I: the superdiagonal rows in units of D, the corner
    row in units of 2 D^2.  A branch with residue vector r
    writes the solution as 2 h + r and solves 2 R h = t - R r for integer
    h, in ints only: the columns with r_i = 1 are subtracted from t.
    Why this is the rational system's answer: clearing the rational
    system by one common denominator E (entries times 2E, right-hand
    sides times E) gives rows that row r of this system equals q_r times,
    right-hand side included, with q_r = D/E for the superdiagonals and
    2 D^2 / E for the corner.  Writing q_r = u/v with positive integers,
    both systems scale to one integer system (the cleared row by u, this
    one by v), and `hnf_solve` returns the same particular solution for
    positively scaled rows (see its docstring).  So every branch, its
    residues and the witness are those of the rational system, whatever
    D is.
    """
    K, M = len(units.g), len(units.h)
    cap = options.get("parity_cap", DEFAULT_PARITY_CAP)
    if K + M > cap:
        raise BudgetExceeded(
            f"hard case would enumerate 2^{K + M} parity branches (cap {cap})",
            budget=cap,
        )
    rows, rhs = _hard_system(units)
    doubled = [[2 * coef for coef in row] for row in rows]

    branches = 0
    for residue in itertools.product((0, 1), repeat=K + M):
        branches += 1
        res = [*residue, *_parities(residue, K, M)]
        shifted = [t - sum(map(mul, row, res)) for row, t in zip(rows, rhs)]

        sol = hnf_solve(doubled, shifted)
        if not sol.feasible:
            continue
        relaxed = tuple(2 * h + r for h, r in zip(sol.particular, res))
        if any(sum(map(mul, row, relaxed)) != t for row, t in zip(rows, rhs)):
            raise AssertionError("relaxed solution fails its system (defect)")
        if any((v - p) % 2 for v, p in zip(relaxed[K + M :], _parities(relaxed, K, M))):
            raise AssertionError("relaxed solution fails parity (defect)")
        v, w, how, shift = extract_orbit_witness(units, relaxed)
        return Decision(
            Verdict.NONEMPTY,
            witnesses=(v, w),
            trace=[
                {
                    "branches_tried": branches,
                    "residues": residue,
                    "witness": how,
                    "shift": shift,
                    "witness_letters": total_letters((v, w)),
                }
            ],
            details={"case": "hard", "relaxed": relaxed},
        )
    return Decision(
        Verdict.EMPTY,
        trace=[{"branches_tried": branches}],
        details={"case": "hard"},
    )


def _positive_combination(rows, n):
    """Strictly positive integers (X, Y), one per count column, with
    R (X, Y) = 0 on the two superdiagonal rows of `_hard_system`: sum X_i
    u(G_i) = sum Y_j u(H_j), u the integer superdiagonal of a generator
    (`IntegerLogs`, units of D).  `n` = K + M is the number of count
    columns, and the result is one list over them.

    Exists whenever the polar cone P is {0} (Stiemke's alternative, see
    `linsolve.cone_intersect_dim`), so in the hard case; found as one
    homogeneous LP with all variables >= 1.  Its
    rows are D times the rows over the rational superdiagonals, right-hand
    side 0 included, so by the scaling lemma of `lp_feasible` the point,
    and X, Y, are those of the rational LP.  X, Y are the numerators of
    the point (nums, den): it times its least common denominator.
    """
    point = lp_feasible([row[:n] for row in rows[:2]], [0, 0], [1] * n)
    if point is None:
        raise AssertionError(
            "no positive balancing combination despite a zero polar cone (defect)"
        )
    return point[0]


def _sides(vec, K, M):
    """The (counts, delta table) of each side of a vector over the
    columns of `_hard_system`: (x, c) over G, then (y, d) over H, each
    pair coefficient keyed by its pair."""
    n, g_pairs = K + M, _pairs(K)
    return (
        (vec[:K], dict(zip(g_pairs, vec[n : n + len(g_pairs)]))),
        (vec[K:n], dict(zip(_pairs(M), vec[n + len(g_pairs) :]))),
    )


def extract_orbit_witness(units: IntegerLogs, sol):
    """Witness words for a relaxed hard-case solution, as (v, w, how, shift).

    `sol` is one int tuple over the columns of `_hard_system`: x (K), y
    (M), then the c of each pair of `_pairs(K)` and the d of each pair
    of `_pairs(M)`.  Everything runs on `units`, the `IntegerLogs` of
    the instance reduced to T = I: triples in units (D, D, 2 D^2), u the
    integer superdiagonal and g the corner entry of each, omega the
    integer corner of two superdiagonals.  The coefficients are read
    from the rows of `_hard_system`, never rewritten here.  Both ways
    shift the counts along the positive balancing combination (X, Y)
    (`_positive_combination`): l = x + shift X, m = y + shift Y keeps
    both superdiagonal equations for every integer shift.

    * "corner": by the 2-step BCH formula the corner of log(product v)
      is sum_i l_i g(G_i) + sum_{i<j} delta_ij omega(u_i, u_j), and the
      second sum is the signed area A(v) of `wordcraft.corner_area`.
      The corner of log(S product w) adds g(S) and the halved bracket
      omega(u(S), sum_j m_j u(H_j)).  So a word pair with counts l, m
      meets the corner equation iff A(v) - A(w) = R with R = t_2 minus
      the corner row applied to the counts (l, m):
          R = g(S) + sum_j m_j (g(H_j) + omega(u(S), u(H_j)))
                - sum_i l_i g(G_i),
      an integer affine in the shift.  Shifts are tried upward from the
      least one that makes every count positive, each by
      `realize_corner`, which hits the area exactly with block orders.
    * "inflated", the fallback, which always ends: pick pair coefficients
      making a strictly positive combined bracket value d (a single +-1
      on the first pair column with a nonzero corner coefficient, so G
      before H; one exists since in the hard case both sides span the
      plane); let e clear the denominators of the rational logs, halved
      brackets and d; shift the solution by 2 N de (X, Y) and the chosen
      pair column by -4 N ep times the sign of its corner coefficient,
      p the corner the balancing combination adds.  The shifts preserve
      the three equations and all parities, and for N large enough every
      count is positive and the pair targets fall inside the
      word-realization bounds (`within_bounds`).  The least such N is
      taken (`least_scale`) and the two words are realized by
      `realize_word`.

    de and ep in integers: every rational that e clears is n / (2 D^2)
    for an integer n, namely 2 D times a superdiagonal entry in units,
    a corner entry g, or an omega.  The lcm of the reduced denominators
    of such values is e = 2 D^2 / q with q = gcd(2 D^2, all those n).
    Since d = 2 |omega_1| / (2 D^2) for the chosen pair's omega_1, and
    p = P / (2 D^2) with P the corner row applied to (X, Y), de = 2
    |omega_1| / q and ep = P / q; q divides both numerators, as it
    divides every n.  The gcd takes each g(H_j) and each omega(u(S),
    u(H_j)) as a term of its own: e clears the rational log and the
    halved bracket, two separate values.  Their sum, the corner
    coefficient of y_j, can share a larger factor with the other terms,
    and a larger q gives another e, N and witness.

    The corner search stops before its letter count passes the
    inflation's, so a corner witness is never longer.  The counts at a
    shift sum to sum(x) + sum(y) + shift (sum X + sum Y), and the
    inflation's to the same with 2 N de in place of shift; sum X + sum Y
    is positive, so the letter test is shift > 2 N de.  N >= 1, so no
    shift up to 2 de can pass it, and N is only computed when a shift
    first passes 2 de, or when the search ends without a witness.  The
    search also stops after CORNER_SHIFTS shifts: the shifts up to the
    inflation's can number in the millions when the relaxed counts start
    near zero, and a family that misses the area lattice at every shift
    would try them all.  The identity product(v) = S * product(w) is not
    checked here; `decide_orbit` checks it.
    """
    g, h, s = units.g, units.h, units.s
    K, M = len(g), len(h)
    n = K + M
    rows, rhs = _hard_system(units)
    corner = rows[2]

    # the positive bracket witness: the first pair column, G before H,
    # with a nonzero corner coefficient
    pick = next((i for i in range(n, len(corner)) if corner[i]), None)
    if pick is None:
        raise AssertionError(
            "no nonzero corner bracket despite a full-dimensional meet (defect)"
        )
    sign = 1 if corner[pick] > 0 else -1

    two_d = 2 * units.den
    q = gcd(
        two_d * units.den,
        *(two_d * v for t in (s, *g, *h) for v in t[:2]),
        *(t[2] for t in (s, *g, *h)),
        *(cross(s, y) for y in h),
        *corner[n:],
    )
    XY = _positive_combination(rows, n)
    de = 2 * abs(corner[pick]) // q
    ep = sum(map(mul, corner, XY)) // q

    def shifted(n_scale):
        vec = [v + 2 * n_scale * de * c for v, c in zip(sol, XY)] + list(sol[n:])
        vec[pick] -= 4 * n_scale * ep * sign
        return vec

    def bounds_ok(n_scale):
        vec = shifted(n_scale)
        return all(v > 0 for v in vec[:n]) and all(
            within_bounds(counts, delta, len(counts))
            for counts, delta in _sides(vec, K, M)
        )

    vecs = [t[:2] for t in (*g, *h)]
    n_scale = None
    first = max(-((v - 1) // c) for v, c in zip(sol, XY))
    for shift in range(first, first + CORNER_SHIFTS):
        if shift > 2 * de:
            n_scale = n_scale or least_scale(bounds_ok, 1)
            if shift > 2 * n_scale * de:
                break
        counts = [v + shift * c for v, c in zip(sol, XY)]
        target = rhs[2] - sum(map(mul, corner, counts))
        found = realize_corner(counts[:K], vecs[:K], counts[K:], vecs[K:], target)
        if found is not None:
            return (*found, "corner", shift)
    n_scale = n_scale or least_scale(bounds_ok, 1)
    (xs, cs), (ys, ds) = _sides(shifted(n_scale), K, M)
    return realize_word(xs, cs), realize_word(ys, ds), "inflated", 2 * n_scale * de
