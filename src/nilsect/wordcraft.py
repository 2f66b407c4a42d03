"""Word statistics over a finite alphabet and constructive realization.

A word over an alphabet of size K is a finite sequence of letters
0..K-1.  Two statistics drive everything here:

* the letter-count vector (how many times each letter occurs), and
* for each pair i < j the signed count delta_ij = (#occurrences of the
  scattered subword "i then j") - (#occurrences of "j then i").

Words are stored run-length encoded; witness words produced by the
deciders can have astronomically many letters but only a handful of
runs, and both statistics and matrix products are computed from runs.
"""

from __future__ import annotations

from math import gcd

from .linsolve import angular_order, cross


class Word:
    """Immutable word over letters 0..K-1, stored as (letter, count) runs."""

    __slots__ = ("K", "runs")

    def __init__(self, K: int, runs=()):
        if K < 1:
            raise ValueError("alphabet size must be >= 1")
        merged = []
        for letter, count in runs:
            letter = int(letter)
            count = int(count)
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

    Preconditions (checked): K >= 1; for K >= 2 every pair satisfies the
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
    counts = [int(x) for x in counts]
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


# ---- exact corners: one signed area per word, hit by block orders


def corner_area(word: Word, vectors) -> int:
    """A(word) = sum over positions p < q of omega(u_{w_p}, u_{w_q}), for
    omega(u, v) = u0 v1 - u1 v0 (`linsolve.cross`).

    Equal to sum_{i<j} delta_ij omega(u_i, u_j): a pair "i then j"
    counts omega(u_i, u_j), a pair "j then i" its negative, and equal
    letters count 0.  It is twice the signed area between the path of
    the steps u_{w_1}, u_{w_2}, ... and its chord.
    """
    return sum(
        d * cross(vectors[i], vectors[j]) for (i, j), d in delta_table(word).items()
    )


def _block_candidates(counts, vectors):
    """The block-order family of one side, in a fixed order.

    Each entry is (seq, k, base, step, cap): the word with every letter's
    copies together in the order `seq` has area `base`; interleaving its
    adjacent blocks k and k + 1, letters a = seq[k] and b = seq[k + 1],
    with s of the l_a l_b pairs put "b before a" gives area
    base - 2 s step, step = omega(u_a, u_b), for 0 <= s <= cap = l_a l_b.
    The orders are the K rotations of the angular order, each read
    forward and reversed; a single letter has one entry with cap 0.
    """
    order = angular_order(vectors)
    K = len(order)
    seqs = []
    for r in range(K):
        seq = order[r:] + order[:r]
        seqs += [seq, seq[::-1]]
    out = []
    for seq in seqs:
        base = 0
        acc = (0, 0)
        for letter in seq:
            u = vectors[letter]
            base += counts[letter] * cross(acc, u)
            acc = (acc[0] + counts[letter] * u[0], acc[1] + counts[letter] * u[1])
        if K == 1:
            out.append((seq, 0, base, 0, 0))
        for k in range(K - 1):
            a, b = seq[k], seq[k + 1]
            out.append(
                (seq, k, base, cross(vectors[a], vectors[b]), counts[a] * counts[b])
            )
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


def _ceil_div(x, m):
    return -((-x) // m)


def _box_solution(a, b, r, cap_a, cap_b):
    """Least s with (s, s') in [0, cap_a] x [0, cap_b] and a s + b s' = r,
    as (s, s'); None if there is none."""
    if a == 0 and b == 0:
        return (0, 0) if r == 0 else None
    g, p, q = _ext_gcd(a, b)
    if r % g:
        return None
    # s = s0 + k bb, s' = t0 - k aa over all integers k
    s0, t0, aa, bb = p * (r // g), q * (r // g), a // g, b // g
    k_lo, k_hi = None, None
    for c0, m, hi in ((s0, bb, cap_a), (t0, -aa, cap_b)):
        if m == 0:
            if not 0 <= c0 <= hi:
                return None
            continue
        if m > 0:
            lo_k, hi_k = _ceil_div(-c0, m), (hi - c0) // m
        else:
            lo_k, hi_k = _ceil_div(hi - c0, m), (-c0) // m
        k_lo = lo_k if k_lo is None else max(k_lo, lo_k)
        k_hi = hi_k if k_hi is None else min(k_hi, hi_k)
    if k_lo > k_hi:
        return None
    k = k_lo if bb >= 0 else k_hi  # the least s
    return s0 + k * bb, t0 - k * aa


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


def realize_corner(v_counts, v_vectors, w_counts, w_vectors, target):
    """Words v and w with the given letter counts and
    corner_area(v) - corner_area(w) = target, or None.

    `*_vectors` are integer plane vectors, one per letter, and every count
    is positive.  The search runs over the block-order family of each
    side (`_block_candidates`): at most 2K(K - 1) entries for K >= 2, so
    O(K^2 M^2) pairs and never K! orders.  A pair of entries is one
    equation step_v s - step_w s' = (base_v - base_w - target) / 2 in the
    box [0, cap_v] x [0, cap_w], solved by the extended gcd
    (`_box_solution`).  The first pair in the fixed order that has a
    solution gives the words, each of at most K + 3 runs; they are
    recounted before they are returned.

    Two necessary conditions are checked first, since the family meets
    neither bound nor lattice that no order meets.  Reversing a word
    negates its area, and the largest area is that of a rotation of the
    angular order (the convex-polygon argument on the path of steps), so
    every area of a side lies in [-m, m], m the largest |base|.  An
    adjacent swap of letters i, j moves the area by 2 omega(u_i, u_j), so
    every area of a side is congruent to any base modulo 2 g, g the gcd
    of all omega(u_i, u_j).
    """
    v_counts = [int(x) for x in v_counts]
    w_counts = [int(x) for x in w_counts]
    if min(v_counts + w_counts) < 1:
        raise ValueError("every letter count must be positive")
    v_cands = _block_candidates(v_counts, v_vectors)
    w_cands = _block_candidates(w_counts, w_vectors)
    reach = max(abs(c[2]) for c in v_cands) + max(abs(c[2]) for c in w_cands)
    if abs(target) > reach:
        return None
    lattice = 2 * gcd(
        *(
            cross(u, u2)
            for vectors in (v_vectors, w_vectors)
            for i, u in enumerate(vectors)
            for u2 in vectors[i + 1 :]
        )
    )
    offset = v_cands[0][2] - w_cands[0][2] - target
    if lattice and offset % lattice or not lattice and offset:
        return None
    for seq_v, k_v, base_v, step_v, cap_v in v_cands:
        for seq_w, k_w, base_w, step_w, cap_w in w_cands:
            found = _box_solution(
                step_v, -step_w, (base_v - base_w - target) // 2, cap_v, cap_w
            )
            if found is None:
                continue
            v = _candidate_word(len(v_counts), v_counts, seq_v, k_v, found[0])
            w = _candidate_word(len(w_counts), w_counts, seq_w, k_w, found[1])
            if (
                parikh(v) != tuple(v_counts)
                or parikh(w) != tuple(w_counts)
                or corner_area(v, v_vectors) - corner_area(w, w_vectors) != target
            ):
                raise AssertionError("construction defect: corner mismatch")
            return v, w
    return None
