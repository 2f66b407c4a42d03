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

from fractions import Fraction


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

    def letters(self):
        """Iterate the individual letters (avoid for huge words)."""
        for letter, count in self.runs:
            for _ in range(count):
                yield letter

    def __len__(self):
        return total_letters((self,))

    def __add__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        if self.K != other.K:
            raise ValueError("alphabet size mismatch")
        return Word(self.K, self.runs + other.runs)

    def reversed(self) -> "Word":
        return Word(self.K, tuple(reversed(self.runs)))

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

    Use this rather than len(): witness words can have more than
    2^63 - 1 letters, past which len() raises OverflowError.
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


def _pair_bound(l_i: int, l_j: int, K: int) -> Fraction:
    """Right hand side of the realizability bound for one letter pair."""
    return Fraction(l_i * l_j, 4 * K * K) - 2 * K * (l_i + l_j) - 4 * K * K


def within_bounds(counts, delta, K: int) -> bool:
    """Whether |C_ij| <= l_i*l_j/(4K^2) - 2K(l_i+l_j) - 4K^2 for every pair
    i < j of the counts (a pair missing from `delta` has C_ij = 0).

    K is normally len(counts); a larger K gives a stricter bound.
    """
    n = len(counts)
    return all(
        abs(delta.get((i, j), 0)) <= _pair_bound(counts[i], counts[j], K)
        for i in range(n)
        for j in range(i + 1, n)
    )


def least_scale(ok, step: int) -> int:
    """Least positive multiple N of `step` with ok(N), for ok monotone in N.

    Doubles from `step` until ok holds, then binary searches the multiples
    of `step` below.  Raises AssertionError once the scale passes 2^64.
    """
    hi = 1
    while not ok(hi * step):
        hi *= 2
        if hi * step > 2**64:
            raise AssertionError("no admissible scale below 2^64 (defect)")
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
