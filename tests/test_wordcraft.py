import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilsect import Word, delta_table, parikh, realize_word, two_letter_permutation
from nilsect.intersect import _minimal_even_scale
from nilsect.wordcraft import (
    _block_candidates,
    check_realizable,
    corner_area,
    least_scale,
    realize_corner,
    total_letters,
    within_bounds,
)

from conftest import reversed_word, word_letters


def brute_delta(letters, K):
    """Quadratic recount straight from the definition."""
    table = {(i, j): 0 for i in range(K) for j in range(i + 1, K)}
    for u in range(len(letters)):
        for v in range(u + 1, len(letters)):
            a, b = letters[u], letters[v]
            if a < b:
                table[(a, b)] += 1
            elif b < a:
                table[(b, a)] -= 1
    return table


def test_word_runs_merge():
    w = Word(2, [(0, 2), (0, 3), (1, 0), (1, 1)])
    assert w.runs == ((0, 5), (1, 1))
    assert total_letters([w]) == 6
    # past 2^63 - 1 letters, where len() could not count them
    assert total_letters([w, Word(2, [(0, 2**70), (1, 3)])]) == 2**70 + 9
    assert word_letters(w) == [0, 0, 0, 0, 0, 1]


@pytest.mark.parametrize(
    "runs",
    [
        [(0, 2.5)],  # once truncated to ((0, 2),)
        [(1.9, 1)],  # once read as letter 1
        [(0, 2.0)],
        [(0, Fraction(3))],
        [(Fraction(1), 1)],
        [(0, "3")],
        [(True, 1)],
        [(0, 1), (1, 1.0)],
    ],
)
def test_word_takes_int_letters_and_counts_only(runs):
    # int() would truncate a letter or count silently; any other type
    # is a TypeError
    with pytest.raises(TypeError, match="of a word run is not an int"):
        Word(2, runs)
    with pytest.raises(TypeError, match="of an alphabet size is not an int"):
        Word(2.5, [(0, 1)])


# a non-int count or target in each argument of each realiser
REALIZER_ENTRIES = {
    "word-float-count": (lambda: realize_word([7.9], {}), "letter count"),  # once 0^7
    "word-integral-float-count": (lambda: realize_word([2, 2.0], {(0, 1): 0}), "letter count"),
    "word-float-target": (lambda: realize_word([4, 4], {(0, 1): 2.0}), "delta target"),
    "word-fraction-target": (lambda: realize_word([4, 4], {(0, 1): Fraction(2)}), "delta target"),
    # once two one-letter words
    "corner-float-counts": (
        lambda: realize_corner([1.9], [(1, 0)], [1.5], [(1, 0)], 0),
        "letter count",
    ),
    "corner-fraction-count": (
        lambda: realize_corner([1], [(1, 0)], [Fraction(1)], [(1, 0)], 0),
        "letter count",
    ),
}


@pytest.mark.parametrize("call, what", REALIZER_ENTRIES.values(), ids=REALIZER_ENTRIES.keys())
def test_realizers_take_int_counts_and_targets_only(call, what):
    # int() would truncate a count or a target silently
    with pytest.raises(TypeError, match=f"of a {what} is not an int"):
        call()
    assert realize_word([7], {}).runs == ((0, 7),)


def test_word_concat_reverse_relabel():
    u = Word.from_letters(2, [0, 1])
    v = Word.from_letters(2, [1, 0])
    assert (u + v).runs == ((0, 1), (1, 2), (0, 1))
    assert reversed_word(u) == v
    assert u.relabel({0: 2, 1: 0}, 3) == Word.from_letters(3, [2, 0])


def test_parikh_examples():
    assert parikh(Word(2)) == (0, 0)
    assert parikh(Word.from_letters(2, [0, 1, 0])) == (2, 1)
    assert parikh(Word.from_letters(3, [1, 1, 1])) == (0, 3, 0)


def test_delta_examples():
    assert delta_table(Word.from_letters(2, [0, 1]))[(0, 1)] == 1
    assert delta_table(Word.from_letters(2, [1, 0]))[(0, 1)] == -1
    assert delta_table(Word.from_letters(2, [0, 1, 0]))[(0, 1)] == 0


def test_delta_matches_brute_force(rng):
    for _ in range(100):
        K = rng.randint(2, 4)
        letters = [rng.randrange(K) for _ in range(rng.randint(0, 30))]
        assert delta_table(Word.from_letters(K, letters)) == brute_delta(letters, K)


def test_delta_parity_and_bound_invariant(rng):
    # every word satisfies delta_ij == l_i l_j (mod 2) and |delta_ij| <= l_i l_j
    for _ in range(200):
        K = rng.randint(2, 4)
        letters = [rng.randrange(K) for _ in range(rng.randint(0, 40))]
        w = Word.from_letters(K, letters)
        counts = parikh(w)
        for (i, j), d in delta_table(w).items():
            assert (d - counts[i] * counts[j]) % 2 == 0
            assert abs(d) <= counts[i] * counts[j]


def test_palindrome_delta_vanishes(rng):
    for _ in range(50):
        K = rng.randint(2, 4)
        letters = [rng.randrange(K) for _ in range(rng.randint(0, 25))]
        w = Word.from_letters(K, letters)
        pal = w + reversed_word(w)
        assert all(v == 0 for v in delta_table(pal).values())


def concat_delta(u_parikh, u_delta, v_parikh, v_delta):
    """Reference: delta of a concatenation uv from the statistics of u and v."""
    K = len(u_parikh)
    out = {}
    for i in range(K):
        for j in range(i + 1, K):
            out[(i, j)] = (
                u_delta[(i, j)]
                + v_delta[(i, j)]
                + u_parikh[i] * v_parikh[j]
                - u_parikh[j] * v_parikh[i]
            )
    return out


def test_concatenation_law(rng):
    # delta(uv) = delta(u) + delta(v) + PI_i(u) PI_j(v) - PI_j(u) PI_i(v)
    for _ in range(100):
        K = rng.randint(2, 4)
        u = Word.from_letters(K, [rng.randrange(K) for _ in range(rng.randint(0, 20))])
        v = Word.from_letters(K, [rng.randrange(K) for _ in range(rng.randint(0, 20))])
        expected = concat_delta(parikh(u), delta_table(u), parikh(v), delta_table(v))
        assert delta_table(u + v) == expected


def test_two_letter_permutation_examples():
    assert word_letters(two_letter_permutation(1, 1, 1)) == [0, 1]
    assert word_letters(two_letter_permutation(1, 1, -1)) == [1, 0]
    w = two_letter_permutation(2, 2, 0)
    assert parikh(w) == (2, 2) and delta_table(w)[(0, 1)] == 0


def test_two_letter_permutation_exhaustive():
    # all admissible targets for s_i, s_j <= 5, recounted exactly
    for si in range(6):
        for sj in range(6):
            for target in range(-si * sj, si * sj + 1):
                if (target - si * sj) % 2:
                    continue
                w = two_letter_permutation(si, sj, target)
                assert parikh(w) == (si, sj)
                assert delta_table(w)[(0, 1)] == target


def test_two_letter_permutation_rejects_bad_targets():
    with pytest.raises(ValueError):
        two_letter_permutation(2, 2, 5)  # out of range
    with pytest.raises(ValueError):
        two_letter_permutation(2, 2, 1)  # parity


def sample_realizable(rng, K, lo, hi):
    """Counts in [lo, hi] and deltas inside the admissible bound."""
    while True:
        counts = [rng.randint(lo, hi) for _ in range(K)]
        bounds = {}
        ok = True
        for i in range(K):
            for j in range(i + 1, K):
                b = Fraction(counts[i] * counts[j], 4 * K * K) - 2 * K * (
                    counts[i] + counts[j]
                ) - 4 * K * K
                if b < 0:
                    ok = False
                    break
                bounds[(i, j)] = int(b)
            if not ok:
                break
        if not ok:
            continue
        deltas = {}
        for (i, j), b in bounds.items():
            d = rng.randint(-b, b)
            if (d - counts[i] * counts[j]) % 2:
                d += 1 if d < b else -1
            deltas[(i, j)] = d
        return counts, deltas


def test_realize_word_examples():
    w = realize_word([132, 132], {(0, 1): 0})
    assert parikh(w) == (132, 132) and delta_table(w)[(0, 1)] == 0
    w = realize_word([132, 132], {(0, 1): 16})
    assert delta_table(w)[(0, 1)] == 16
    with pytest.raises(ValueError):
        realize_word([132, 132], {(0, 1): 17})  # parity


def test_realize_word_single_letter():
    w = realize_word([7], {})
    assert w == Word(1, [(0, 7)])
    with pytest.raises(ValueError):
        realize_word([7], {(0, 1): 0})


def test_realize_word_randomized(rng):
    # K = 2 fits the small range; larger alphabets need larger counts for
    # the bound to admit any target at all
    plans = [(2, 132, 400, 30), (3, 500, 900, 12), (4, 1030, 1500, 8)]
    for K, lo, hi, reps in plans:
        for _ in range(reps):
            counts, deltas = sample_realizable(rng, K, lo, hi)
            check_realizable(counts, deltas)
            w = realize_word(counts, deltas)
            assert parikh(w) == tuple(counts)
            assert delta_table(w) == deltas


def test_realize_word_rejects_out_of_bound():
    counts = [132, 132]
    bad = 132 * 132  # parity fine, wildly out of bound
    with pytest.raises(ValueError):
        realize_word(counts, {(0, 1): bad})


def pair_bound(l_i, l_j, K):
    """Reference: the right-hand side of the realizability bound for one
    letter pair, l_i*l_j/(4K^2) - 2K(l_i+l_j) - 4K^2, as a Fraction."""
    return Fraction(l_i * l_j, 4 * K * K) - 2 * K * (l_i + l_j) - 4 * K * K


def fraction_within_bounds(counts, delta, K):
    """Reference for `within_bounds`: the bound tested over Fractions."""
    n = len(counts)
    return all(
        abs(delta.get((i, j), 0)) <= pair_bound(counts[i], counts[j], K)
        for i in range(n)
        for j in range(i + 1, n)
    )


def bound_case(rng, K, n, lo, hi):
    """Counts in [lo, hi] and targets within one of the reference bound,
    either side of it, rounded down or up when it is not an integer."""
    counts = [rng.randint(lo, hi) for _ in range(n)]
    delta = {}
    for i, j in _pairs(n):
        if rng.random() < 0.2:
            continue  # a missing pair has target 0
        edge = pair_bound(counts[i], counts[j], K)
        edge = math.floor(edge) if rng.random() < 0.5 else math.ceil(edge)
        delta[(i, j)] = rng.choice((1, -1)) * (abs(edge) + rng.randint(-1, 1))
    return counts, delta


def test_within_bounds_matches_fraction_reference(rng):
    answers, realizable = [], []
    for _ in range(2000):
        n = rng.randint(1, 4)
        K = n + rng.randint(0, 2)
        lo = rng.choice((0, 1, 40, 200))
        counts, delta = bound_case(rng, K, n, lo, lo + rng.choice((10, 300, 3000)))
        want = fraction_within_bounds(counts, delta, K)
        assert within_bounds(counts, delta, K) is want
        answers.append(want)
        parity = all(
            (delta.get((i, j), 0) - counts[i] * counts[j]) % 2 == 0 for i, j in _pairs(n)
        )
        if K == n and parity:
            # check_realizable tests the same bound once parity holds
            try:
                check_realizable(counts, delta)
            except ValueError:
                assert not want
            else:
                assert want
            realizable.append(want)
    assert answers.count(True) >= 300 and answers.count(False) >= 300
    assert realizable.count(True) >= 30 and realizable.count(False) >= 30


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(0, 2))
def test_within_bounds_matches_fraction_reference_hypothesis(drawn_rng, n, extra):
    K = n + extra
    counts, delta = bound_case(drawn_rng, K, n, 0, drawn_rng.choice((50, 5000)))
    assert within_bounds(counts, delta, K) is fraction_within_bounds(counts, delta, K)


def _reference_even_scale(counts_by_m, deltas_by_m, kmax):
    """The former intersect._minimal_even_scale, with its inline bound."""

    def ok(N):
        for counts, deltas in zip(counts_by_m, deltas_by_m):
            for (i, j), c in deltas.items():
                li, lj = counts[i], counts[j]
                lhs = abs(N * 2 * c)
                rhs = (
                    Fraction(N * N * li * lj, 4 * kmax * kmax)
                    - 2 * N * kmax * (li + lj)
                    - 4 * kmax * kmax
                )
                if lhs > rhs:
                    return False
        return True

    hi = 2
    while not ok(hi):
        hi *= 2
    lo = 2
    while lo < hi:
        mid = (lo + hi) // 2
        mid -= mid % 2  # round down to even
        if mid < lo:
            mid = lo
        if mid == hi:
            break
        if ok(mid):
            hi = mid
        else:
            lo = mid + 2
    return hi


def _reference_inflation_scale(shifted, K, M):
    """The former inline scale search of orbit.extract_orbit_witness."""

    def bounds_ok(n_scale):
        xs, ys, cs, dsh = shifted(n_scale)
        if any(v <= 0 for v in xs) or any(v <= 0 for v in ys):
            return False
        for (i, j), c in cs.items():
            if abs(c) > Fraction(xs[i] * xs[j], 4 * K * K) - 2 * K * (
                xs[i] + xs[j]
            ) - 4 * K * K:
                return False
        for (i, j), dv in dsh.items():
            if abs(dv) > Fraction(ys[i] * ys[j], 4 * M * M) - 2 * M * (
                ys[i] + ys[j]
            ) - 4 * M * M:
                return False
        return True

    hi = 1
    while not bounds_ok(hi):
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid == hi:
            break
        if bounds_ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def _pairs(k):
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def test_even_scale_matches_reference(rng):
    for _ in range(300):
        counts_by_m, deltas_by_m = [], []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 4)
            counts_by_m.append([rng.randint(1, 60) for _ in range(k)])
            bound = rng.choice((0, 5, 500, 10**6))
            deltas_by_m.append({p: rng.randint(-bound, bound) for p in _pairs(k)})
        kmax = max(len(c) for c in counts_by_m) + rng.randint(0, 2)
        assert _minimal_even_scale(counts_by_m, deltas_by_m, kmax) == (
            _reference_even_scale(counts_by_m, deltas_by_m, kmax)
        )


def test_inflation_scale_matches_reference(rng):
    # the orbit witness tables: a relaxed solution shifted by n times a
    # positive balancing combination, one pair moved by n times ep
    for _ in range(300):
        K, M = rng.randint(1, 4), rng.randint(1, 4)
        x0 = [rng.randint(-30, 30) for _ in range(K)]
        y0 = [rng.randint(-30, 30) for _ in range(M)]
        c0 = {p: rng.randint(-400, 400) for p in _pairs(K)}
        d0 = {p: rng.randint(-400, 400) for p in _pairs(M)}
        X = [rng.randint(1, 6) for _ in range(K)]
        Y = [rng.randint(1, 6) for _ in range(M)]
        de, ep = rng.randint(1, 4), rng.randint(-20, 20)
        pick = rng.choice(_pairs(K) + _pairs(M) + [None])
        big_c = {pick: rng.choice((1, -1))} if pick in c0 else {}
        big_d = {pick: rng.choice((1, -1))} if not big_c and pick in d0 else {}

        def shifted(n):
            return (
                [x0[i] + 2 * n * de * X[i] for i in range(K)],
                [y0[j] + 2 * n * de * Y[j] for j in range(M)],
                {p: v - 4 * n * big_c.get(p, 0) * ep for p, v in c0.items()},
                {p: v + 4 * n * big_d.get(p, 0) * ep for p, v in d0.items()},
            )

        def ok(n):
            xs, ys, cs, ds = shifted(n)
            return (
                all(v > 0 for v in xs + ys)
                and within_bounds(xs, cs, K)
                and within_bounds(ys, ds, M)
            )

        assert least_scale(ok, 1) == _reference_inflation_scale(shifted, K, M)


def test_least_scale_searches_past_2_64():
    # no cap: the least scale is found however large, by doubling to
    # 2^200 and bisecting below it
    for step, least in ((1, 2**200), (2, 2**200), (1, 2**199 + 1), (2, 2**199 + 2)):
        probes = []

        def ok(n):
            probes.append(n)
            return n >= least

        assert least_scale(ok, step) == least
        doubling = probes[: probes.index(2**200) + 1]
        assert doubling == [2**k for k in range(step.bit_length() - 1, 201)]
        assert len(probes) <= 2 * 200 + 1


def brute_area(letters, vectors):
    """sum over positions p < q of omega(u_p, u_q), from the definition."""
    return sum(
        vectors[a][0] * vectors[b][1] - vectors[a][1] * vectors[b][0]
        for (p, a), (q, b) in itertools.combinations(enumerate(letters), 2)
    )


def all_orders(counts):
    """Every distinct word with the given letter counts, as letter tuples."""
    letters = [i for i, c in enumerate(counts) for _ in range(c)]
    return set(itertools.permutations(letters))


def family_areas(counts, vectors):
    """Areas of every word of the block-order family, recounted letter by
    letter: each entry's blocks with its adjacent pair interleaved in
    every possible way."""
    areas = set()
    for seq, k, _, _, _ in _block_candidates(counts, vectors):
        if len(seq) == 1:
            areas.add(0)
            continue
        a, b = seq[k], seq[k + 1]
        head = [x for x in seq[:k] for _ in range(counts[x])]
        tail = [x for x in seq[k + 2 :] for _ in range(counts[x])]
        pair_counts = [c if i in (a, b) else 0 for i, c in enumerate(counts)]
        for middle in all_orders(pair_counts):
            areas.add(brute_area(head + list(middle) + tail, vectors))
    return areas


def test_corner_area_matches_definition(rng):
    for _ in range(100):
        K = rng.randint(1, 4)
        vectors = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(K)]
        letters = [rng.randrange(K) for _ in range(rng.randint(0, 12))]
        word = Word.from_letters(K, letters)
        assert corner_area(word, vectors) == brute_area(letters, vectors)


def check_corner_against_brute_force(rng):
    sides = []
    for _ in range(2):
        K = rng.randint(1, 4)
        vectors = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(K)]
        counts = [rng.randint(1, 3) for _ in range(K)]
        while sum(counts) > 6:
            counts[rng.randrange(K)] = 1
        sides.append((counts, vectors))
    (lv, uv), (lw, uw) = sides
    reach = []
    for counts, vectors in sides:
        areas = {brute_area(w, vectors) for w in all_orders(counts)}
        # the largest area is a rotation of the angular order, and every
        # area lies in one class modulo twice the gcd of the brackets
        bases = [c[2] for c in _block_candidates(counts, vectors)]
        assert max(areas) == max(map(abs, bases)) == -min(areas)
        k = len(counts)
        g = 2 * math.gcd(*(brute_area([i, j], vectors) for j in range(k) for i in range(j)))
        assert all((x - bases[0]) % g == 0 if g else x == bases[0] for x in areas)
        reach.append((areas, family_areas(counts, vectors)))
    (all_v, fam_v), (all_w, fam_w) = reach
    hits_all = {a - b for a in all_v for b in all_w}
    hits_family = {a - b for a in fam_v for b in fam_w}
    span = max(hits_all) + 2
    for target in range(-span, span + 1):
        found = realize_corner(lv, uv, lw, uw, target)
        if found is None:
            assert target not in hits_family, (sides, target)
            continue
        v, w = found
        assert parikh(v) == tuple(lv) and parikh(w) == tuple(lw)
        assert brute_area(word_letters(v), uv) - brute_area(word_letters(w), uw) == target
        assert len(v.runs) <= len(lv) + 3 and len(w.runs) <= len(lw) + 3
        assert target in hits_all


def test_realize_corner_matches_brute_force(rng):
    for _ in range(40):
        check_corner_against_brute_force(rng)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_realize_corner_matches_brute_force_hypothesis(drawn_rng):
    check_corner_against_brute_force(drawn_rng)


def test_realize_corner_examples():
    # x and y steps: x y has area 1, y x area -1
    x, y = (1, 0), (0, 1)
    v, w = realize_corner([1, 1], [x, y], [1], [(0, 0)], 1)
    assert word_letters(v) == [0, 1] and word_letters(w) == [0]
    v, _ = realize_corner([1, 1], [x, y], [1], [(0, 0)], -1)
    assert word_letters(v) == [1, 0]
    # out of reach, and off the area lattice (x^2 y has areas 2, 0, -2)
    assert realize_corner([1, 1], [x, y], [1], [(0, 0)], 2) is None
    assert realize_corner([2, 1], [x, y], [1], [(0, 0)], 1) is None
    with pytest.raises(ValueError):
        realize_corner([0, 1], [x, y], [1], [(0, 0)], 0)
