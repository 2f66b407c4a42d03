"""Word statistics over a finite alphabet and constructive realization.

A word over an alphabet of size K is a finite sequence of letters
0..K-1.  Two statistics drive everything here:

* the letter-count vector (how many times each letter occurs), and
* for each pair i < j the signed count delta_ij = (#occurrences of the
  scattered subword "i then j") - (#occurrences of "j then i").

Words are stored run-length encoded; witness words produced by the
deciders can have astronomically many letters but only a handful of
runs, and both statistics and matrix products are computed from runs.

Two realisers build words from these statistics: `realize_word` hits a
whole delta table once the counts are scaled into the source paper's
sufficient bound, and `realize_areas` hits one signed area per word
(sum_{i<j} delta_ij omega[i][j] for an integer table omega), for several
words tied by their area differences, with block orders of the letters
and no scaling.  `least_words` walks the count vectors that the deciders
ask for, least letters first, until an area realiser succeeds.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .errors import BudgetExceeded
from .linsolve import PointSearch, _affine_range, angular_order, cross
from .matlie import _require_ints


class Word:
    """Immutable word over letters 0..K-1, stored as (letter, count) runs.

    The alphabet size, letters and counts are ints; any other type is a
    TypeError, since a truncated one would change the word.
    """

    __slots__ = ("K", "runs")

    def __init__(self, K: int, runs=()):
        _require_ints([K], "an alphabet size")
        if K < 1:
            raise ValueError("alphabet size must be >= 1")
        merged = []
        for letter, count in runs:
            _require_ints((letter, count), "a word run")
            if not 0 <= letter < K:
                raise ValueError(f"letter {letter} out of range 0..{K - 1}")
            if count < 0:
                raise ValueError("negative run length")
            if count == 0:
                continue
            if merged and merged[-1][0] == letter:
                merged[-1] = (letter, merged[-1][1] + count)
            else:
                merged.append((letter, count))
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "runs", tuple(merged))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def from_letters(cls, K: int, letters) -> "Word":
        return cls(K, [(a, 1) for a in letters])

    def __add__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        if self.K != other.K:
            raise ValueError("alphabet size mismatch")
        return Word(self.K, self.runs + other.runs)

    def relabel(self, mapping, K: int) -> "Word":
        """New word with letters replaced via `mapping` (a sequence or dict)."""
        return Word(K, [(mapping[a], c) for a, c in self.runs])

    def __eq__(self, other):
        return isinstance(other, Word) and self.K == other.K and self.runs == other.runs

    def __hash__(self):
        return hash((self.K, self.runs))

    def __repr__(self):
        if not self.runs:
            return f"<word K={self.K} empty>"
        body = " ".join(f"{a}^{c}" if c > 1 else str(a) for a, c in self.runs)
        return f"<word K={self.K} {body}>"


def total_letters(words) -> int:
    """Number of letters in all the given words, summed over their runs.

    A word has no len(): witness words can have more than 2^63 - 1
    letters, past which len() raises OverflowError.
    """
    return sum(count for word in words for _, count in word.runs)


def parikh(word: Word):
    """Letter-count vector of the word, as a tuple of length K."""
    counts = [0] * word.K
    for letter, count in word.runs:
        counts[letter] += count
    return tuple(counts)


def delta_table(word: Word):
    """All signed two-letter subword counts, as a dict {(i, j): int, i < j}.

    One pass over the runs with running prefix counts: a run of letter a
    after p earlier copies of letter b contributes p*len pairs in the
    (b, a) order.
    """
    K = word.K
    table = {(i, j): 0 for i in range(K) for j in range(i + 1, K)}
    prefix = [0] * K
    for a, c in word.runs:
        for b in range(K):
            p = prefix[b]
            if p and b != a:
                if b < a:
                    table[(b, a)] += p * c
                else:
                    table[(a, b)] -= p * c
        prefix[a] += c
    return table


def two_letter_permutation(s_i: int, s_j: int, C: int, *, letters=(0, 1), K: int = 2) -> Word:
    """A permutation of i^s_i j^s_j whose delta_ij equals C.

    Requires |C| <= s_i*s_j and C == s_i*s_j (mod 2).  Starting from
    i^s_i j^s_j, each swap of one consecutive "i j" into "j i" lowers
    delta by 2; performing t = (s_i*s_j - C)/2 such swaps greedily (always
    moving the last block of i's rightward) yields the word below, built
    directly in closed form:

        i^(s_i-q-1) j^r i j^(s_j-r) i^q      with t = q*s_j + r.
    """
    if s_i < 0 or s_j < 0:
        raise ValueError("letter counts must be nonnegative")
    li, lj = letters
    bound = s_i * s_j
    if abs(C) > bound:
        raise ValueError(f"|C| = {abs(C)} exceeds s_i*s_j = {bound}")
    if (C - bound) % 2:
        raise ValueError(f"C = {C} has wrong parity for s_i*s_j = {bound}")
    t = (bound - C) // 2  # number of inverted (j before i) pairs
    if s_j == 0 or s_i == 0:
        return Word(K, [(li, s_i), (lj, s_j)])
    q, r = divmod(t, s_j)
    if q == s_i:  # t == s_i*s_j, full reversal
        return Word(K, [(lj, s_j), (li, s_i)])
    return Word(
        K,
        [(li, s_i - q - 1), (lj, r), (li, 1), (lj, s_j - r), (li, q)],
    )


def within_bounds(counts, delta, K: int) -> bool:
    """Whether |C_ij| <= l_i*l_j/(4K^2) - 2K(l_i+l_j) - 4K^2 for every pair
    i < j of the counts (a pair missing from `delta` has C_ij = 0).

    K is normally len(counts); a larger K gives a stricter bound.  The
    test runs in integers, both sides times 4K^2 > 0:
        4K^2 |C_ij| <= l_i*l_j - 8K^3 (l_i + l_j) - 16K^4.
    """
    n = len(counts)
    k2, k3, k4 = 4 * K**2, 8 * K**3, 16 * K**4
    return all(
        k2 * abs(delta.get((i, j), 0))
        <= counts[i] * counts[j] - k3 * (counts[i] + counts[j]) - k4
        for i in range(n)
        for j in range(i + 1, n)
    )


def least_scale(ok, step: int) -> int:
    """Least positive multiple N of `step` with ok(N), for ok monotone in
    N and true for every large N (each caller proves both).

    Doubles from `step` until ok holds, then binary searches the multiples
    of `step` below: about 2 log2 N probes, so no cap is needed.
    """
    hi = 1
    while not ok(hi * step):
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid * step):
            hi = mid
        else:
            lo = mid + 1
    return hi * step


def check_realizable(counts, delta) -> None:
    """Raise ValueError unless (counts, delta) satisfies the sufficient bounds.

    For every pair i < j the target must obey
        |C_ij| <= l_i*l_j/(4K^2) - 2K(l_i+l_j) - 4K^2   and
        C_ij == l_i*l_j (mod 2).
    """
    K = len(counts)
    for i in range(K):
        for j in range(i + 1, K):
            c = delta.get((i, j), 0)
            if (c - counts[i] * counts[j]) % 2:
                raise ValueError(
                    f"parity violated for pair {(i, j)}: "
                    f"C = {c}, l_i*l_j = {counts[i] * counts[j]}"
                )
    if not within_bounds(counts, delta, K):
        raise ValueError("a target C_ij is out of the realizable bound")


def realize_word(counts, delta) -> Word:
    """A word with the prescribed letter counts and delta table.

    Preconditions (checked): counts and delta targets are ints, any
    other entry a TypeError (`_require_ints`), since a truncated one
    would change the word; K >= 1; for K >= 2 every pair satisfies the
    bound and parity conditions of `check_realizable`.

    Construction: write l_i = 2(K-1) s_i + r_i; start from

        W_init = A_1^r_1 ... A_K^r_K  .  W  .  reverse(W)

    where W concatenates the blocks A_i^s_i A_j^s_j over all pairs i < j.
    The middle-plus-reverse part is a palindrome, so delta(W_init) has a
    small explicit value, and each pair's delta is then adjusted
    independently: rearrange the (i, j) block of W when delta must go
    down, the mirrored block of the reversed part when it must go up.
    The output is re-counted and must match exactly (an internal failure
    here is a defect, not an input error).
    """
    counts = list(counts)
    _require_ints(counts, "a letter count")
    _require_ints(delta.values(), "a delta target")
    K = len(counts)
    if K == 0:
        raise ValueError("empty alphabet")
    if any(x < 0 for x in counts):
        raise ValueError("negative letter count")
    if K == 1:
        if delta:
            raise ValueError("delta table must be empty for a single letter")
        return Word(1, [(0, counts[0])])
    check_realizable(counts, delta)

    width = 2 * (K - 1)
    s = [l // width for l in counts]
    r = [l % width for l in counts]
    pairs = [(i, j) for i in range(K) for j in range(i + 1, K)]

    residue = Word(K, [(i, r[i]) for i in range(K)])
    mid_blocks = {(i, j): Word(K, [(i, s[i]), (j, s[j])]) for i, j in pairs}
    rev_blocks = {(i, j): Word(K, [(j, s[j]), (i, s[i])]) for i, j in pairs}

    def assemble():
        w = residue
        for p in pairs:
            w = w + mid_blocks[p]
        for p in reversed(pairs):
            w = w + rev_blocks[p]
        return w

    current = delta_table(assemble())
    for i, j in pairs:
        have = current[(i, j)]
        want = delta.get((i, j), 0)
        try:
            if have > want:
                target = s[i] * s[j] + want - have
                mid_blocks[(i, j)] = two_letter_permutation(
                    s[i], s[j], target, letters=(i, j), K=K
                )
            elif have < want:
                target = -s[i] * s[j] + want - have
                rev_blocks[(i, j)] = two_letter_permutation(
                    s[i], s[j], target, letters=(i, j), K=K
                )
        except ValueError as exc:  # unreachable once check_realizable passed
            raise AssertionError(
                f"construction defect adjusting pair {(i, j)}: {exc}"
            ) from exc

    word = assemble()
    if parikh(word) != tuple(counts):
        raise AssertionError("construction defect: letter counts do not match")
    got = delta_table(word)
    for i, j in pairs:
        if got[(i, j)] != delta.get((i, j), 0):
            raise AssertionError(
                f"construction defect: delta mismatch at pair {(i, j)}"
            )
    return word


# ---- exact areas: one signed area per word, hit by block orders

# Nodes the least-count search of a witness may visit (`least_words`),
# hard orbit and intersection witnesses alike.  It bounds the nodes of
# that search only: past it the witness comes from the caller's
# fallback, never from BudgetExceeded.  The most nodes a hard orbit
# witness took were 165 on the NonEmpty `orbit-hard` instances of bench
# seeds 1, 2, 7 and 11, and 5788 on the F11 draws (`tests/test_orbit.py`);
# one F13 draw needs 1,333.  An intersection witness took at most 122
# on `intersect-witness` seeds 1, 2, 3 and 11, and 2849 on IW(3, 3).
WITNESS_SEARCH_NODES = 20_000


def least_words(rows, rhs, n, cap, realise):
    """(found, nodes): the first of the count vectors x >= 1 over n
    columns with rows . x = rhs and sum(x) <= cap at which realise(x) is
    not None, walked in nondecreasing sum(x) and lexicographic order
    within one sum (`linsolve.PointSearch`), with found = realise(x);
    and the number of nodes the walk visited.

    found is None when no vector up to the cap succeeds, or when the
    walk would pass WITNESS_SEARCH_NODES nodes: the budget ends in the
    caller's fallback, never in BudgetExceeded.
    """
    search = PointSearch(rows, rhs, [1] * n, cap, WITNESS_SEARCH_NODES)
    try:
        for counts in search:
            found = realise(counts)
            if found is not None:
                return found, search.nodes
    except BudgetExceeded:
        pass
    return None, search.nodes


def word_area(word: Word, omega) -> int:
    """A(word) = sum over positions p < q of omega[w_p][w_q], for an
    integer table with omega[b][a] = -omega[a][b].

    Equal to sum_{i<j} delta_ij omega[i][j]: a pair "i then j" counts
    omega[i][j], a pair "j then i" its negative, and equal letters 0.
    With omega[i][j] = omega(u_i, u_j) = cross(u_i, u_j) for plane
    vectors u (`linsolve.cross`) it is twice the signed area between the
    path of the steps u_{w_1}, u_{w_2}, ... and its chord.
    """
    return sum(d * omega[i][j] for (i, j), d in delta_table(word).items())


def _order_area(counts, omega, order):
    """The area of the word with every letter's copies together, in
    `order`."""
    return sum(
        counts[a] * counts[b] * omega[a][b] for q, b in enumerate(order) for a in order[:q]
    )


def _block_candidates(counts, omega, order):
    """The block-order family of one side, in a fixed order.

    `counts` are the side's letter counts, `omega` its area table
    (`word_area`) and `order` a list of its letters.  Each entry is
    (seq, k, base, step, cap): the word with every letter's copies
    together in the order `seq` has area `base`; interleaving its
    adjacent blocks k and k + 1, letters a = seq[k] and b = seq[k + 1],
    with s of the l_a l_b pairs put "b before a" gives area
    base - 2 s step, step = omega[a][b], for 0 <= s <= cap = l_a l_b.
    The orders are the K rotations of `order`, each read forward and
    reversed, so a side has at most 2K(K - 1) entries, never K! orders;
    a single letter has one entry with cap 0.  Reversing an order negates
    its area.
    """
    K = len(order)
    # moving the first block f of an order to its end turns every pair
    # "f then b" around, which moves the area by -2 l_f sum_b l_b omega[f][b]
    pull = {a: sum(counts[b] * omega[a][b] for b in order) for a in order}
    base = _order_area(counts, omega, order)
    out = []
    for r in range(K):
        turned = order[r:] + order[:r]
        for seq, area in ((turned, base), (turned[::-1], -base)):
            if K == 1:
                out.append((seq, 0, area, 0, 0))
            for k in range(K - 1):
                a, b = seq[k], seq[k + 1]
                out.append((seq, k, area, omega[a][b], counts[a] * counts[b]))
        base -= 2 * counts[order[r]] * pull[order[r]]
    return out


def _ext_gcd(a, b):
    """(g, p, q) with a p + b q = g = gcd(a, b) >= 0."""
    p0, q0, p1, q1 = 1, 0, 0, 1
    while b:
        quo, rem = divmod(a, b)
        a, b = b, rem
        p0, p1 = p1, p0 - quo * p1
        q0, q1 = q1, q0 - quo * q1
    if a < 0:
        return -a, -p0, -q0
    return a, p0, q0


def _chain_link(state, link, entry, bound):
    """The chain's solutions once one more side's `_block_candidates`
    entry is chosen, or None when there are none.

    A state (alphas, betas, lo, hi) stands for the solutions
    s_i = alphas[i] + betas[i] j, one per side so far, over the integers
    j in [lo, hi]; betas[0] >= 1, so a smaller j is a smaller s_0.  The
    first side (state and link None) starts at s_0 = j, 0 <= j <= cap.
    A later one is tied to the side before by `link` = (step', r):
    step' s' - step s = r, s' the last s of the state.  With
    step' s' = b' + a j that reads step s = b + a j, b = b' - r:
    * step != 0: step divides b + a j exactly on one class of j modulo
      |step| / gcd(a, step) (`_ext_gcd`), and j is rewritten as
      j0 + period i over that class, so every s stays affine in i;
    * step = 0: s is in no equation, so it takes its least value 0, and
      b + a j = 0 is a bound on j.
    Then every bound left, each affine in j (`linsolve._affine_range`):
    0 <= s <= cap, and the area base - 2 step s within `bound`.
    """
    _, _, base, step, cap = entry
    if state is None:
        alphas, betas, alpha, beta, terms = [], [], 0, 1, []
    else:
        alphas, betas, lo, hi = state
        prev_step, r = link
        a = prev_step * betas[-1]
        b = prev_step * alphas[-1] - r
        if step:
            g, p, _ = _ext_gcd(a, step)
            if b % g:
                return None
            period = abs(step) // g
            j0 = -b // g * p % period
            alphas = [x + y * j0 for x, y in zip(alphas, betas)]
            betas = [y * period for y in betas]
            alpha, beta = (b + a * j0) // step, a * period // step
            terms = [(j0 - lo, period), (hi - j0, -period)]
        else:
            alpha = beta = 0
            terms = [(-lo, 1), (hi, -1), (b, a), (-b, -a)]
    area, darea = base - 2 * step * alpha, -2 * step * beta
    low, high = bound
    terms += [(alpha, beta), (cap - alpha, -beta), (area - low, darea), (high - area, -darea)]
    span = _affine_range(terms)
    if span is None:
        return None
    return alphas + [alpha], betas + [beta], *span


def _candidate_word(K, counts, seq, k, s):
    """The word of a `_block_candidates` entry with s inverted pairs."""
    if K == 1:
        return Word(1, [(0, counts[0])])
    a, b = seq[k], seq[k + 1]
    la, lb = counts[a], counts[b]
    middle = two_letter_permutation(la, lb, la * lb - 2 * s, letters=(a, b), K=K)
    runs = [(x, counts[x]) for x in seq[:k]]
    runs += middle.runs
    runs += [(x, counts[x]) for x in seq[k + 2 :]]
    return Word(K, runs)


def realize_areas(sides, targets):
    """A tuple of words, one per side, with the given letter counts and
    areas A_m (`word_area`) that meet A_m - A_{m+1} = targets[m] for
    every two consecutive sides; or None.

    Each side is (counts, omega, order): positive int letter counts, an
    integer area table and a base order of the side's letters.  The
    search runs over the block-order family of each side
    (`_block_candidates`), in product order, side 0 outermost.  In a
    tuple of entries, entry m with s_m inverted pairs has area
    base_m - 2 s_m step_m, so the targets are the chain

        step_m s_m - step_{m+1} s_{m+1} = (base_m - base_{m+1} - targets[m]) / 2,

    0 <= s_m <= cap_m, solved side by side (`_chain_link`).  The first
    tuple with a solution gives the words of its lexicographically least
    (s_0, s_1, ...), each of at most K + 3 runs; they are recounted
    before they are returned.

    Letter counts are positive ints (any other type is a TypeError, a
    count below 1 a ValueError).  Two necessary conditions prune the
    search, since no word of a family meets what the whole family misses.
    An adjacent swap of letters i, j moves an area by 2 omega[i][j], so
    every area of side m is congruent to any of its bases modulo 2 g_m,
    g_m the gcd of the side's table entries.  Through the chain each side
    puts A_0 in one class, and the classes must meet: pairwise, modulo
    the gcd of their moduli (a modulus 0 is an equation), as the
    generalised Chinese remainder theorem asks.  And every area of an
    entry lies between base and base - 2 cap step, so the areas of a side
    lie in the hull of those ends; through the chain the hulls of the
    other sides bound A_m further, and each entry's range of s_m is cut
    to that bound as it is chosen.  Along an angular order of plane
    vectors the hull is [-a, a], a the largest |area| of any word
    (`realize_corner`).
    """
    # A_0 = A_m + (targets before m) lies in one class modulo 2 g_m
    classes = []
    shift = 0
    for m, (counts, omega, order) in enumerate(sides):
        _require_ints(counts, "a letter count")
        if min(counts) < 1:
            raise ValueError("every letter count must be positive")
        shift += targets[m - 1] if m else 0
        g = gcd(*(x for row in omega for x in row))
        classes.append((2 * g, _order_area(counts, omega, order) + shift))
    for (n1, a1), (n2, a2) in combinations(classes, 2):
        g = gcd(n1, n2)
        if (a1 - a2) % g if g else a1 != a2:
            return None
    families = [_block_candidates(*side) for side in sides]
    hulls = []
    for family in families:
        ends = [x for _, _, base, step, cap in family for x in (base, base - 2 * cap * step)]
        hulls.append((min(ends), max(ends)))
    # bounds[m]: the areas A_m that side m and the sides after it allow
    bounds = hulls[:]
    for m in range(len(sides) - 2, -1, -1):
        low, high = bounds[m + 1]
        bounds[m] = (
            max(hulls[m][0], low + targets[m]),
            min(hulls[m][1], high + targets[m]),
        )
        if bounds[m][0] > bounds[m][1]:
            return None

    def walk(m, state, prev):
        for entry in families[m]:
            link = None
            if m:
                link = (prev[3], (prev[2] - entry[2] - targets[m - 1]) // 2)
            after = _chain_link(state, link, entry, bounds[m])
            if after is None:
                continue
            if m + 1 == len(families):
                return [entry], after
            found = walk(m + 1, after, entry)
            if found is not None:
                return [entry, *found[0]], found[1]
        return None

    found = walk(0, None, None)
    if found is None:
        return None
    entries, (alphas, betas, lo, _) = found
    words = []
    for (counts, _, _), (seq, k, _, _, _), alpha, beta in zip(sides, entries, alphas, betas):
        words.append(_candidate_word(len(counts), counts, seq, k, alpha + beta * lo))
    areas = [word_area(w, omega) for w, (_, omega, _) in zip(words, sides)]
    if any(parikh(w) != tuple(counts) for w, (counts, _, _) in zip(words, sides)) or any(
        a - b != t for a, b, t in zip(areas, areas[1:], targets)
    ):
        raise AssertionError("construction defect: area mismatch")
    return tuple(words)


def realize_corner(v_counts, v_vectors, w_counts, w_vectors, target):
    """Words v and w with the given letter counts and
    A(v) - A(w) = target, A the area of `word_area` under
    omega[i][j] = cross(u_i, u_j) for the integer plane vectors u of the
    side's letters; or None.

    `realize_areas` on two sides, each in the angular order of its
    vectors (`linsolve.angular_order`).  Along that order the family
    reaches the largest area of any word (the convex-polygon argument on
    the path of steps), and reversing a word negates its area, so a
    target out of the hulls' reach is out of reach of every word.
    """
    return realize_areas(
        [
            (counts, [[cross(u, u2) for u2 in vectors] for u in vectors], angular_order(vectors))
            for counts, vectors in ((v_counts, v_vectors), (w_counts, w_vectors))
        ],
        [target],
    )
