import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilsect import (
    BudgetExceeded,
    GeneratorSystem,
    IntersectionInstance,
    OrbitInstance,
    UnipotentMatrix,
    UnsupportedInstance,
    Verdict,
    bfs_oracle,
    decide_easy,
    decide_hard,
    decide_orbit,
    delta_table,
    extract_orbit_witness,
    load_instance_file,
    parikh,
    product_of_word,
    reduce_to_identity,
    Word,
)

from nilsect import orbit as orbit_module
from nilsect.linsolve import cone_intersect_dim, cross, hnf_solve, lp_feasible
from nilsect.wordcraft import realize_corner, realize_word, total_letters
from nilsect.orbit import (
    _hard_system,
    _integer_logs,
    _pairs,
    _interleavings,
    _side_coefficients,
    _solve_interleaving,
    _word_from_layout,
)

from conftest import (
    cleared,
    common_denominator,
    entry,
    fractions_of,
    refuse_fractions,
    rows_of,
    h3,
    ref_bracket,
    ref_combine,
    ref_log,
    verify_orbit_witness,
)
from test_wordcraft import _reference_inflation_scale

DATA = Path(__file__).resolve().parent / "data"
X, Y = h3(1, 0, 0), h3(0, 1, 0)
IDENT = UnipotentMatrix.identity(3)


def gsys(*mats):
    return GeneratorSystem(list(mats))


def orbit(T, S, G, H, **opts):
    return OrbitInstance(T, S, G, H, options=opts or None)


def units_of(inst):
    """The `IntegerLogs` that `decide_orbit` builds for `inst` and hands
    to `decide_easy`, `decide_hard` and `extract_orbit_witness`."""
    return _integer_logs(reduce_to_identity(inst).S, inst.G.mats, inst.H.mats)


def meet_of(units):
    """The cone meet `decide_orbit` reads off `units`: the superdiagonal
    int pairs of each side, as `cone_intersect_dim` takes them."""
    return cone_intersect_dim([x[:2] for x in units.g], [x[:2] for x in units.h])


def verified(inst, decision):
    v, w = decision.witnesses
    left = inst.T * product_of_word(inst.G, v)
    right = inst.S * product_of_word(inst.H, w)
    return left == right == decision.common_element


def random_rational(rng, bound=4):
    return Fraction(rng.randint(-bound, bound), rng.choice((1, 2, 3)))


ENTRIES = ((0, 1), (1, 2), (0, 2))


def log_triple(m):
    """The Fraction log triple (a, b, gamma) of a 3x3 unipotent matrix,
    read off its matrix log."""
    log = ref_log(m)
    return tuple(log[i][j] for i, j in ENTRIES)


def table_log_triple(m):
    """Reference: the Fraction log triple (a, b, c - ab/2) read off the
    entries (0,1), (1,2) and (0,2) of m, the form `_integer_logs`
    replaced."""
    a, b = entry(m, 0, 1), entry(m, 1, 2)
    return (a, b, entry(m, 0, 2) - a * b / 2)


def fraction_logs(sys):
    """Reference: the Fraction log triples of the generators, in order."""
    return [table_log_triple(m) for m in sys.mats]


def test_log_triple_and_corner_bracket():
    # the table formula (a, b, c - ab/2) is the (0,1), (1,2), (0,2)
    # entries of the matrix log, the corner is the only nonzero entry of
    # the bracket, and `_integer_logs` is that triple in units (D, D,
    # 2 D^2), its corner bracket D^2 times the rational one
    lx, ly = ref_log(X), ref_log(Y)
    assert table_log_triple(X) == (1, 0, 0)
    assert cross(table_log_triple(X), table_log_triple(Y)) == 1
    assert ref_bracket(lx, ly)[0][2] == 1
    rng = random.Random(31)
    for _ in range(200):
        e, f = (h3(*(random_rational(rng) for _ in range(3))) for _ in range(2))
        le, lf = ref_log(e), ref_log(f)
        assert_same_fractions(table_log_triple(e), log_triple(e))
        br = ref_bracket(le, lf)
        assert cross(table_log_triple(e), table_log_triple(f)) == br[0][2]
        assert all(
            not br[i][j] for i in range(3) for j in range(3) if (i, j) != (0, 2)
        )
        units = _integer_logs(e, [f], [])
        den = units.den
        assert den == math.lcm(e.den, f.den)
        assert_same_ints(units.s, in_units(table_log_triple(e), den))
        assert_same_ints(units.g[0], in_units(table_log_triple(f), den))
        assert cross(units.s, units.g[0]) == den * den * br[0][2]


def test_orbit_instance_holds_3x3_matrices():
    # T and S are held as the matrices given, and each part of another
    # type or dimension is refused by name: rows are not converted
    t, s = h3(1, 2, 3), h3(0, Fraction(1, 2), 1)
    inst = orbit(t, s, gsys(X), gsys(Y))
    assert inst.T is t and inst.S is s
    with pytest.raises(TypeError, match="T is not a UnipotentMatrix"):
        orbit(rows_of(t), s, gsys(X), gsys(Y))
    with pytest.raises(TypeError, match="G is not a GeneratorSystem"):
        orbit(t, s, [X], gsys(Y))
    big = UnipotentMatrix.identity(4)
    for name, parts in (
        ("T", (big, s, gsys(X), gsys(Y))),
        ("S", (t, big, gsys(X), gsys(Y))),
        ("G", (t, s, gsys(big), gsys(Y))),
        ("H", (t, s, gsys(X), gsys(big))),
    ):
        with pytest.raises(ValueError, match=f"{name} has dimension 4"):
            orbit(*parts)
    with pytest.raises(AttributeError):
        inst.T = s


def test_integer_logs_are_the_fraction_logs_in_units():
    # the table formula (k t01, k t12, k^2 (2 d t02 - t01 t12)) is the
    # Fraction log triple in units (D, D, 2 D^2), D the lcm of the table
    # denominators
    rng = random.Random(37)
    for _ in range(100):
        s = h3(*(random_rational(rng) for _ in range(3)))
        G, H = (random_easy_side(rng)[0] for _ in range(2))
        units = _integer_logs(s, G.mats, H.mats)
        dens = [m.den for m in (s,) + G.mats + H.mats]
        assert units.den == math.lcm(*dens)
        assert_same_ints(units.s, in_units(log_triple(s), units.den))
        for got, ref in zip(units.g + units.h, fraction_logs(G) + fraction_logs(H)):
            assert_same_ints(got, in_units(ref, units.den))
        assert len(units.g) == G.K and len(units.h) == H.K


def test_reduce_to_identity():
    t = h3(1, 0, 0)
    s = t * h3(0, 1, 0)
    inst = orbit(t, s, gsys(X), gsys(Y))
    red = reduce_to_identity(inst)
    assert red.T == IDENT
    assert red.S == h3(0, 1, 0)
    # verdict preserved under reduction
    for t2, s2 in [(h3(1, 1, 0), h3(1, 1, 1)), (h3(0, 0, 2), h3(0, 0, 2))]:
        a = decide_orbit(orbit(t2, s2, gsys(X, Y), gsys(X, Y)))
        b = decide_orbit(
            orbit(IDENT, t2.inverse() * s2, gsys(X, Y), gsys(X, Y))
        )
        assert a.verdict == b.verdict


def test_easy_same_ray_nonempty():
    inst = orbit(IDENT, h3(1, 0, 0), gsys(X), gsys(X))
    d = decide_orbit(inst)
    assert d.verdict is Verdict.NONEMPTY
    assert d.details["case"] == "easy"
    assert verified(inst, d)


def test_easy_disjoint_rays_empty():
    inst = orbit(IDENT, IDENT, gsys(X), gsys(Y))
    d = decide_orbit(inst)
    assert d.verdict is Verdict.EMPTY
    assert d.details["case"] == "easy"
    # the polar cone is the wedge from (0, -1) to (1, 0), and its lesser
    # ray separates: 0 on the superdiagonal of X, -1 on that of Y
    assert d.trace[0]["functional"] == (0, -1)


def test_easy_trace_reports_ns_as_its_fraction_string():
    # ns = n . log S of the instance reduced to T = I, printed as "p/q"
    inst = orbit(IDENT, h3(Fraction(1, 2), Fraction(-1, 3), 5), gsys(X), gsys(Y))
    d = decide_orbit(inst)
    assert d.trace[0]["functional"] == (0, -1)
    assert d.trace[0]["ns"] == "1/3"
    seen = 0
    for inst in itertools.islice(f11_draws(), 40):
        inst = orbit(inst.T, inst.S, inst.G, inst.H, interleave_budget=2000)
        try:
            d = decide_orbit(inst)
        except (BudgetExceeded, UnsupportedInstance):
            continue
        if d.details["case"] != "easy":
            continue
        s = inst.T.inverse() * inst.S
        n0, n1 = d.trace[0]["functional"]
        assert d.trace[0]["ns"] == str(n0 * entry(s, 0, 1) + n1 * entry(s, 1, 2))
        seen += 1
    assert seen >= 15


def test_easy_with_off_line_letters():
    # no witness here: matching the central entry is impossible
    s = h3(0, 0, 1)
    inst = orbit(IDENT, s, gsys(X, Y), gsys(Y))
    d = decide_orbit(inst)
    assert d.details["case"] == "easy"
    # the polar cone is the ray of (1, 0): 1 on the superdiagonal of X,
    # 0 on that of Y
    assert d.trace[0]["functional"] == (1, 0)
    if d.verdict is Verdict.NONEMPTY:
        assert verified(inst, d)
    # oracle agreement either way
    found = bfs_oracle(inst, 8)
    assert (found is not None) == (d.verdict is Verdict.NONEMPTY)


def test_easy_interleaving_witness():
    # v = y x against w = x shifted by S = y: one off-line letter on the
    # left, none on the right, found through the interleaving search
    inst = orbit(IDENT, h3(0, 1, 0), gsys(X, Y), gsys(X))
    d = decide_orbit(inst)
    assert d.details["case"] == "easy"
    assert d.verdict is Verdict.NONEMPTY
    assert verified(inst, d)
    v, w = d.witnesses
    assert total_letters([v]) >= 1 and total_letters([w]) >= 1


def test_verify_orbit_witness_checks_the_translated_products():
    # T^-1 S = (0, 1, 0), as in the interleaving witness above
    inst = orbit(h3(1, 0, 0), h3(1, 1, 1), gsys(X, Y), gsys(X))
    d = decide_orbit(inst)
    assert d.verdict is Verdict.NONEMPTY and verified(inst, d)
    v, w = d.witnesses
    assert verify_orbit_witness(inst, v, w)
    common = orbit_module._common_element(inst, v, w)
    assert common == d.common_element
    assert common == inst.T * product_of_word(inst.G, v)
    longer = Word(inst.H.K, [(letter, count + 1) for letter, count in w.runs])
    assert not verify_orbit_witness(inst, v, longer)
    assert orbit_module._common_element(inst, v, longer) is None
    swapped = orbit(inst.S, inst.T, inst.G, inst.H)
    assert not verify_orbit_witness(swapped, v, w)
    assert orbit_module._common_element(swapped, v, w) is None


def test_easy_interleaving_deeper_caps():
    # S = y^2 x needs two off-line letters on the left
    s_elem = Y * Y * X
    inst = orbit(IDENT, s_elem, gsys(X, Y), gsys(X))
    d = decide_orbit(inst)
    assert d.details["case"] == "easy"
    found = bfs_oracle(inst, 6)
    assert (found is not None) == (d.verdict is Verdict.NONEMPTY)
    if d.verdict is Verdict.NONEMPTY:
        assert verified(inst, d)


def _interleavings_by_length(letters, caps):
    """Reference: every capped sequence, materialised level by level."""
    levels = [[()]]
    while levels[-1]:
        levels.append(
            [
                seq + (a,)
                for seq in levels[-1]
                for a in letters
                if seq.count(a) < caps[a]
            ]
        )
    return levels[:-1]


def test_interleavings_stream_in_reference_order():
    rng = random.Random(5)
    for _ in range(300):
        letters = rng.sample(range(6), rng.randint(0, 4))
        caps = {a: rng.randint(0, 2) for a in letters}
        levels = _interleavings_by_length(letters, caps)
        assert len(levels) == sum(caps.values()) + 1
        for length, expected in enumerate(levels):
            assert list(_interleavings(letters, caps, length)) == expected
        assert list(_interleavings(letters, caps, len(levels))) == []


def side_coefficients_by_products(sys, interleaving, on_line, prefix):
    """Reference: the log of prefix * product at zero on-line counts and
    at each unit count, by multiplying out the words and taking matrix
    logs; returned as (a, b, gamma) triples."""

    def log_of(counts):
        word = _word_from_layout(sys.K, interleaving, on_line, counts)
        p = product_of_word(sys, word)
        if prefix is not None:
            p = prefix * p
        return ref_log(p)

    zero_counts = [0] * (len(on_line) * (len(interleaving) + 1))
    base = log_of(zero_counts)
    cols = []
    for index in range(len(zero_counts)):
        bumped = zero_counts[:]
        bumped[index] = 1
        cols.append(ref_combine(log_of(bumped), base, -1))
    return (
        tuple(base[i][j] for i, j in ENTRIES),
        [tuple(col[i][j] for i, j in ENTRIES) for col in cols],
    )


def hard_system_by_matrix_logs(s_elem, G, H):
    """Reference: the relaxed hard-case system from 3x3 matrix logs and
    matrix brackets."""
    K, M = G.K, H.K
    log_s = ref_log(s_elem)
    g_pairs = [(i, j) for i in range(K) for j in range(i + 1, K)]
    h_pairs = [(i, j) for i in range(M) for j in range(i + 1, M)]
    nx, ny, nc = K, M, len(g_pairs)
    width = nx + ny + nc + len(h_pairs)
    g_logs = [ref_log(m) for m in G.mats]
    h_logs = [ref_log(m) for m in H.mats]
    rows, rhs = [], []
    for r, c in ENTRIES[:2]:
        row = [Fraction(0)] * width
        for i in range(K):
            row[i] = g_logs[i][r][c]
        for i in range(M):
            row[nx + i] = -h_logs[i][r][c]
        rows.append(row)
        rhs.append(log_s[r][c])
    row = [Fraction(0)] * width
    for i in range(K):
        row[i] = g_logs[i][0][2]
    for i in range(M):
        adj = ref_bracket(log_s, h_logs[i])
        row[nx + i] = -(h_logs[i][0][2] + Fraction(1, 2) * adj[0][2])
    for idx, (i, j) in enumerate(g_pairs):
        row[nx + ny + idx] = Fraction(1, 2) * ref_bracket(g_logs[i], g_logs[j])[0][2]
    for idx, (i, j) in enumerate(h_pairs):
        row[nx + ny + nc + idx] = -Fraction(1, 2) * ref_bracket(h_logs[i], h_logs[j])[0][2]
    rows.append(row)
    rhs.append(log_s[0][2])
    return rows, rhs


def fraction_hard_system(s_log, g_logs, h_logs):
    """Reference: the relaxed hard-case system over Fraction log triples,
    the form the integer rows of `_hard_system` replaced.  Returns (rows,
    rhs, g_pairs, h_pairs); in the corner row, x_i has coefficient gamma
    of G_i, y_j has gamma of H_j plus 1/2 [log S, H_j] (negated), and each
    pair coefficient has half the corner bracket of its pair."""
    g_pairs = _pairs(len(g_logs))
    h_pairs = _pairs(len(h_logs))
    rows = [
        [x[comp] for x in g_logs]
        + [-y[comp] for y in h_logs]
        + [Fraction(0)] * (len(g_pairs) + len(h_pairs))
        for comp in range(2)
    ]
    rows.append(
        [x[2] for x in g_logs]
        + [-(y[2] + cross(s_log, y) / 2) for y in h_logs]
        + [cross(g_logs[i], g_logs[j]) / 2 for i, j in g_pairs]
        + [-cross(h_logs[i], h_logs[j]) / 2 for i, j in h_pairs]
    )
    return rows, list(s_log), g_pairs, h_pairs


def assert_same_fractions(got, expected):
    assert got == expected
    assert all(isinstance(v, Fraction) for v in got)


def assert_same_ints(got, expected):
    assert got == expected
    assert all(type(v) is int for v in got)


def side_units(sys, prefix):
    """`IntegerLogs` of one side, the prefix matrix in the place of S."""
    return _integer_logs(prefix or IDENT, sys.mats, [])


def in_units(triple, den):
    """A Fraction log triple in the integer units (D, D, 2 D^2)."""
    a, b, gamma = triple
    return (den * a, den * b, 2 * den * den * gamma)


def random_easy_side(rng):
    """Generators whose first letters are on-line (collinear with a random
    direction), the rest off-line; rational entries with denominators 1-3."""
    p, q = random_rational(rng, 2), random_rational(rng, 2)
    if p == q == 0:
        p = Fraction(1)
    n_on = rng.randint(1, 2)
    mats = []
    for _ in range(n_on):
        t = random_rational(rng, 3) or Fraction(1, 2)
        mats.append(h3(t * p, t * q, random_rational(rng)))
    mats += [
        h3(*(random_rational(rng) for _ in range(3)))
        for _ in range(rng.randint(1, 3))
    ]
    return GeneratorSystem(mats), list(range(n_on))


def test_side_coefficients_match_unit_count_products():
    rng = random.Random(47)
    gaps_seen = set()
    for trial in range(120):
        sys, on_line = random_easy_side(rng)
        off_line = list(range(len(on_line), sys.K))
        interleaving = tuple(
            rng.choice(off_line) for _ in range(rng.randint(0, 4))
        )
        prefix = None
        if trial % 2:
            prefix = h3(*(random_rational(rng) for _ in range(3)))
        units = side_units(sys, prefix)
        base, cols = _side_coefficients(
            units.g, interleaving, on_line, None if prefix is None else units.s
        )
        ref_base, ref_cols = side_coefficients_by_products(
            sys, interleaving, on_line, prefix
        )
        assert_same_ints(base, in_units(ref_base, units.den))
        assert len(cols) == len(ref_cols) == (len(interleaving) + 1) * len(on_line)
        for col, ref in zip(cols, ref_cols):
            assert_same_ints(col, in_units(ref, units.den))
        gaps_seen.add(len(interleaving) + 1)
    assert gaps_seen == {1, 2, 3, 4, 5}


def test_side_coefficients_affine_in_on_line_counts():
    # the closed form holds at every point: a word with arbitrary on-line
    # counts has log base + sum(count * column)
    rng = random.Random(53)
    for _ in range(60):
        sys, on_line = random_easy_side(rng)
        off_line = list(range(len(on_line), sys.K))
        interleaving = tuple(rng.choice(off_line) for _ in range(rng.randint(0, 3)))
        units = side_units(sys, None)
        base, cols = _side_coefficients(units.g, interleaving, on_line, None)
        counts = [
            rng.randint(0, 3) for _ in range((len(interleaving) + 1) * len(on_line))
        ]
        word = _word_from_layout(sys.K, interleaving, on_line, counts)
        log = ref_log(product_of_word(sys, word))
        expected = tuple(
            base[e] + sum(c * col[e] for c, col in zip(counts, cols)) for e in range(3)
        )
        assert in_units(tuple(log[i][j] for i, j in ENTRIES), units.den) == expected


def assert_units_match_reference(s_elem, G, H, units):
    """`units` are the reference Fraction log triples of S, G and H in
    units (D, D, 2 D^2), and those are the matrix-log triples."""
    den = units.den
    assert den == math.lcm(*(m.den for m in (s_elem,) + G.mats + H.mats))
    assert_same_ints(units.s, in_units(table_log_triple(s_elem), den))
    refs = fraction_logs(G) + fraction_logs(H)
    assert len(units.g) == G.K and len(units.h) == H.K
    for got, ref, m in zip(units.g + units.h, refs, G.mats + H.mats):
        assert_same_ints(got, in_units(ref, den))
        assert_same_fractions(ref, log_triple(m))


def test_hard_system_matches_matrix_logs():
    rng = random.Random(59)
    for _ in range(80):
        G = GeneratorSystem(
            [h3(*(random_rational(rng) for _ in range(3)))
             for _ in range(rng.randint(1, 4))]
        )
        H = GeneratorSystem(
            [h3(*(random_rational(rng) for _ in range(3)))
             for _ in range(rng.randint(1, 4))]
        )
        s_elem = h3(*(random_rational(rng) for _ in range(3)))
        frac_rows, frac_rhs, _, _ = fraction_hard_system(
            log_triple(s_elem), fraction_logs(G), fraction_logs(H)
        )
        ref_rows, ref_rhs = hard_system_by_matrix_logs(s_elem, G, H)
        for row, ref in zip(frac_rows, ref_rows):
            assert_same_fractions(row, ref)
        assert_same_fractions(frac_rhs, ref_rhs)
        # the integer rows are the reference rows in units D, D and 2 D^2
        units = _integer_logs(s_elem, G.mats, H.mats)
        assert_units_match_reference(s_elem, G, H, units)
        rows, rhs = _hard_system(units)
        den = units.den
        scales = (den, den, 2 * den * den)
        assert len(rows) == len(ref_rows) == 3
        for row, ref, scale in zip(rows, ref_rows, scales):
            assert_same_ints(row, [scale * v for v in ref])
        assert_same_ints(rhs, [scale * v for scale, v in zip(scales, ref_rhs)])


def test_closed_forms_on_orbit_central_sample():
    path = Path(__file__).resolve().parent.parent / "samples" / "orbit-central.txt"
    inst = load_instance_file(path).build()
    s_elem = reduce_to_identity(inst).S
    rows, rhs, _, _ = fraction_hard_system(
        log_triple(s_elem), fraction_logs(inst.G), fraction_logs(inst.H)
    )
    assert (rows, rhs) == hard_system_by_matrix_logs(s_elem, inst.G, inst.H)
    # the production rows are those rows in units D, D and 2 D^2
    units = _integer_logs(s_elem, inst.G.mats, inst.H.mats)
    assert_units_match_reference(s_elem, inst.G, inst.H, units)
    int_rows, int_rhs = _hard_system(units)
    scales = (units.den, units.den, 2 * units.den * units.den)
    assert len(int_rows) == len(rows) == 3
    for row, ref, scale in zip(int_rows, rows, scales):
        assert_same_ints(row, [scale * v for v in ref])
    assert_same_ints(int_rhs, [scale * v for scale, v in zip(scales, rhs)])
    # x on-line, y off-line, with S in front on the H side
    for length in range(3):
        interleaving = (1,) * length
        for sys, prefix in ((inst.G, None), (inst.H, s_elem)):
            units = side_units(sys, prefix)
            got = _side_coefficients(
                units.g, interleaving, [0], None if prefix is None else units.s
            )
            ref_base, ref_cols = side_coefficients_by_products(
                sys, interleaving, [0], prefix
            )
            assert got == (
                in_units(ref_base, units.den),
                [in_units(col, units.den) for col in ref_cols],
            )


def reference_side_coefficients(logs, interleaving, on_line, prefix):
    """The Fraction form of `_side_coefficients` that the integer one
    replaced: Fraction log triples in, Fraction triples out."""
    a = b = gamma = Fraction(0)
    if prefix is not None:
        a, b, gamma = prefix
    ahead = [(a, b)]
    for i in interleaving:
        x = logs[i]
        gamma += x[2] + cross((a, b), x) / 2
        a += x[0]
        b += x[1]
        ahead.append((a, b))
    cols = []
    for pa, pb in ahead:
        diff = (2 * pa - a, 2 * pb - b)
        for j in on_line:
            x = logs[j]
            cols.append((x[0], x[1], x[2] + cross(diff, x) / 2))
    return (a, b, gamma), cols


def reference_rows(s_log, g_logs, h_logs, g0, h0, cs, ds):
    """The Fraction row builder of `_solve_interleaving` that the integer
    one replaced: the rational system cleared by its common denominator,
    with the nonzero groups of the side conditions."""
    base_v, cols_v = reference_side_coefficients(g_logs, cs, g0, None)
    base_w, cols_w = reference_side_coefficients(h_logs, ds, h0, s_log)
    rows, rhs = [], []
    for e in range(3):
        rows.append([col[e] for col in cols_v] + [-col[e] for col in cols_w])
        rhs.append(base_w[e] - base_v[e])
    den = common_denominator(itertools.chain(*rows, rhs))
    int_rows = [[int(v * den) for v in row] for row in rows]
    int_rhs = [int(v * den) for v in rhs]
    groups = []
    nv = (len(cs) + 1) * len(g0)
    if not cs:
        groups.append(list(range(nv)))
    if not ds:
        groups.append(list(range(nv, nv + (len(ds) + 1) * len(h0))))
    return int_rows, int_rhs, groups


EASY_FUNCTIONALS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2), (3, 2))


def random_easy_instance(rng):
    """T = I and nonzero S against G, H whose cones meet along the kernel of
    a functional n; rational entries with denominators 1-6.

    Each side has an on-line letter in the same direction of that kernel,
    so n is the separating functional, and off-line letters whose value
    under n is more than a third of n . log S, so at most two copies of
    each fit and a side has 1 to 5 gaps.
    """
    n = rng.choice(EASY_FUNCTIONALS)
    line = (-n[1], n[0])
    unit = next(
        (a, b)
        for a in range(-3, 4)
        for b in range(-3, 4)
        if n[0] * a + n[1] * b == 1
    )

    def rat(bound):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 6))

    def point(value, t):
        return (value * unit[0] + t * line[0], value * unit[1] + t * line[1])

    ns = Fraction(rng.randint(1, 12), rng.randint(1, 6))

    def off_line(sign):
        value = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        while ns / value >= 3:
            value = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        return h3(*point(sign * value, rat(2)), rat(4))

    def side(sign):
        t = Fraction(rng.randint(1, 3), rng.randint(1, 6))
        mats = [h3(*point(0, t), rat(4))]
        mats += [
            h3(*point(0, rat(3) or Fraction(1, 2)), rat(4))
            for _ in range(rng.randint(0, 1))
        ]
        mats += [off_line(sign) for _ in range(rng.randint(1, 2))]
        rng.shuffle(mats)
        return GeneratorSystem(mats)

    G, H = side(1), side(-1)
    S = h3(*point(ns, rat(4)), rat(4) or Fraction(1, 5))
    return OrbitInstance(IDENT, S, G, H)


def easy_search(inst):
    """The easy case's search for `inst`, rebuilt with no skip: its
    `IntegerLogs`, the on-line letters g0 and h0, the values of the
    off-line letters under the separating functional, n . log S in units
    of D, and every ordering pair within the caps, in the order
    `decide_easy` enumerates them."""
    units = _integer_logs(
        reduce_to_identity(inst).S, inst.G.mats, inst.H.mats
    )
    n0, n1 = meet_of(units).separating_functional
    ns = n0 * units.s[0] + n1 * units.s[1]

    def split(triples, sign):
        vals = [sign * (n0 * x[0] + n1 * x[1]) for x in triples]
        return [i for i, v in enumerate(vals) if not v], {
            i: v for i, v in enumerate(vals) if v
        }

    g0, g_vals = split(units.g, 1)
    h0, h_vals = split(units.h, -1)
    g_caps = {i: ns // v for i, v in g_vals.items()}
    h_caps = {i: ns // v for i, v in h_vals.items()}
    g_max, h_max = sum(g_caps.values()), sum(h_caps.values())
    pairs = [
        (cs, ds)
        for total in range(g_max + h_max + 1)
        for s_len in range(max(0, total - h_max), min(total, g_max) + 1)
        for cs in _interleavings(list(g_vals), g_caps, s_len)
        for ds in _interleavings(list(h_vals), h_caps, total - s_len)
    ]
    return units, g0, h0, g_vals, h_vals, ns, pairs


def skipped_pairs(search):
    """Per pair of `search`: whether it misses the functional balance,
    the pairs `decide_easy` skips."""
    _, _, _, g_vals, h_vals, ns, pairs = search
    return [
        sum(g_vals[i] for i in cs) + sum(h_vals[j] for j in ds) != ns
        for cs, ds in pairs
    ]


def record_easy_systems(inst, monkeypatch):
    """Drive `_solve_interleaving` over every ordering pair within the
    caps of `inst`, skipped by `decide_easy` or not; a recorder in place
    of `ilp_feasible_nonneg` keeps the rows, right-hand side and nonzero
    groups each pair's system reaches it with, and answers that no
    system is feasible.  Checks first that `decide_easy` enumerates the
    same pairs and solves exactly the ones it does not skip."""
    units, g0, h0, _, _, _, pairs = search = easy_search(inst)
    received = []
    monkeypatch.setattr(
        orbit_module,
        "ilp_feasible_nonneg",
        lambda A, b, nonzero_groups=(): received.append((A, b, nonzero_groups)),
    )
    d = decide_orbit(inst)
    assert d.details["case"] == "easy"
    assert d.verdict is Verdict.EMPTY
    assert d.trace[0]["pairs_tried"] == len(pairs)
    assert d.trace[0]["systems_solved"] == len(received)
    assert len(received) == skipped_pairs(search).count(False)
    calls = []
    g_coefs, h_coefs = {}, {}
    for cs, ds in pairs:
        received.clear()
        assert _solve_interleaving(units, g0, h0, cs, ds, g_coefs, h_coefs) is None
        ((A, b, groups),) = received
        calls.append(((g0, h0, cs, ds), A, b, groups))
    monkeypatch.undo()
    return calls


def assert_rows_match_reference(inst, calls):
    """Every recorded system is, int for int, the reference's system."""
    s_log = log_triple(reduce_to_identity(inst).S)
    g_logs, h_logs = fraction_logs(inst.G), fraction_logs(inst.H)
    for (g0, h0, cs, ds), A, b, groups in calls:
        ref_rows, ref_rhs, ref_groups = reference_rows(
            s_log, g_logs, h_logs, g0, h0, cs, ds
        )
        assert A == ref_rows
        assert b == ref_rhs
        assert list(groups) == ref_groups
        assert all(type(v) is int for v in itertools.chain(*A, b))


def dilated(inst, t):
    """The instance under the automorphism (a, b, gamma) -> (t a, t b,
    t^2 gamma) of the Lie algebra, T = I."""

    def image(elem):
        a, b, gamma = log_triple(elem)
        a, b, gamma = t * a, t * b, t * t * gamma
        return h3(a, b, gamma + a * b / 2)

    def system(sys):
        return GeneratorSystem([image(m) for m in sys.mats])

    return OrbitInstance(IDENT, image(inst.S), system(inst.G), system(inst.H))


def test_easy_rows_match_fraction_reference(monkeypatch):
    rng = random.Random(61)
    gaps_seen = set()
    systems = 0
    for trial in range(120):
        inst = random_easy_instance(rng)
        assert inst.S != IDENT
        calls = record_easy_systems(inst, monkeypatch)
        assert_rows_match_reference(inst, calls)
        systems += len(calls)
        for (_, _, cs, ds), _, _, _ in calls:
            gaps_seen.update((len(cs) + 1, len(ds) + 1))
        if trial % 4 == 0:
            # integer triples that are all multiples of 3, so every entry
            # shares the factor 3 that 2 D^2 = 2 lacks: the rows must not
            # be divided by it
            den = common_denominator(
                itertools.chain(log_triple(inst.S), *fraction_logs(inst.G), *fraction_logs(inst.H))
            )
            scaled = dilated(inst, 3 * den)
            calls = record_easy_systems(scaled, monkeypatch)
            assert_rows_match_reference(scaled, calls)
            assert any(
                all(v % 3 == 0 for v in itertools.chain(*A, b))
                for _, A, b, _ in calls
            )
    assert gaps_seen == {1, 2, 3, 4, 5}
    assert systems > 1000


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_easy_rows_match_fraction_reference_hypothesis(drawn_rng):
    # hypothesis draws the generator's choices; monkeypatching by hand,
    # since a function-scoped fixture is not reset between examples
    with pytest.MonkeyPatch.context() as monkeypatch:
        inst = random_easy_instance(drawn_rng)
        calls = record_easy_systems(inst, monkeypatch)
        assert calls
        assert_rows_match_reference(inst, calls)


def test_common_denominator_once_per_decide_easy(monkeypatch):
    # decide_orbit converts the instance to integers once, from the
    # integer tables (`_integer_logs`, one lcm D of their denominators),
    # and decide_easy converts nothing; no ordering pair computes a
    # denominator of its own, and no Fraction denominator is taken at
    # all: `orbit` names no `common_denominator`.  No system is let be
    # feasible, so every ordering pair within the caps is enumerated.
    assert not hasattr(orbit_module, "common_denominator")
    conversions = []
    real = orbit_module._integer_logs

    def counting(*args):
        conversions.append(1)
        return real(*args)

    monkeypatch.setattr(orbit_module, "_integer_logs", counting)
    monkeypatch.setattr(orbit_module, "ilp_feasible_nonneg", lambda *args: None)
    rng = random.Random(67)
    pairs = []
    for _ in range(20):
        inst = random_easy_instance(rng)
        units = units_of(inst)
        functional = meet_of(units).separating_functional
        for run, converts in (
            (lambda: decide_easy(units, functional, inst.options), 0),
            (lambda: decide_orbit(inst), 1),
        ):
            conversions.clear()
            d = run()
            assert d.verdict is Verdict.EMPTY
            assert len(conversions) == converts
            pairs.append(d.trace[0]["pairs_tried"])
    assert sum(p > 1 for p in pairs) >= 30


def reference_decide_easy(search):
    """The easy-case loop without the skip: every ordering pair, in
    order, goes to `_solve_interleaving` with the real integer program.
    Returns (witness pair or None, pairs tried)."""
    units, g0, h0, _, _, _, pairs = search
    g_coefs, h_coefs = {}, {}
    for tried, (cs, ds) in enumerate(pairs, start=1):
        found = _solve_interleaving(units, g0, h0, cs, ds, g_coefs, h_coefs)
        if found is not None:
            return found, tried
    return None, len(pairs)


def outcome(run):
    try:
        return run()
    except BudgetExceeded:
        return "budget"


def assert_skip_matches_reference(inst):
    """Every pair `decide_easy` skips has no solution, and the decision
    is the reference loop's: verdict, witness pair and pairs tried.
    Returns the number of pairs skipped."""
    units, g0, h0, _, _, _, pairs = search = easy_search(inst)
    skips = skipped_pairs(search)
    for (cs, ds), skip in zip(pairs, skips):
        if skip:
            assert _solve_interleaving(units, g0, h0, cs, ds, {}, {}) is None

    def decided():
        d = decide_easy(units, meet_of(units).separating_functional, inst.options)
        tried = d.trace[0]["pairs_tried"]
        assert d.trace[0]["systems_solved"] == skips[:tried].count(False)
        return (d.witnesses if d.verdict is Verdict.NONEMPTY else None), tried

    expected = outcome(lambda: reference_decide_easy(search))
    assert outcome(decided) == expected
    return sum(skips), expected


def test_balance_skip_matches_unskipped_loop():
    rng = random.Random(71)
    skipped = 0
    outcomes = []
    for _ in range(120):
        count, expected = assert_skip_matches_reference(random_easy_instance(rng))
        skipped += count
        outcomes.append(expected)
    assert skipped > 1000
    assert sum(o != "budget" and o[0] is not None for o in outcomes) >= 5
    assert sum(o != "budget" and o[0] is None for o in outcomes) >= 5


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_balance_skip_matches_unskipped_loop_hypothesis(drawn_rng):
    assert_skip_matches_reference(random_easy_instance(drawn_rng))


def f11_draws(count=300):
    """The first `count` draws of the F11 fuzz family, in order:
    random.Random(11); each draw takes K, M in 1..3, then T, S, the K
    elements of G and the M elements of H, each element's a, b and c a
    Fraction with numerator in -3..3 and denominator in 1..3, drawn in
    that order."""
    rng = random.Random(11)

    def elem():
        return h3(
            *(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
        )

    for _ in range(count):
        K, M = rng.randint(1, 3), rng.randint(1, 3)
        T, S = elem(), elem()
        G = [elem() for _ in range(K)]
        H = [elem() for _ in range(M)]
        yield OrbitInstance(T, S, GeneratorSystem(G), GeneratorSystem(H))


def f11_draw(index):
    """Draw `index` (from 0) of the F11 fuzz family (`f11_draws`)."""
    return next(itertools.islice(f11_draws(index + 1), index, None))


def _planted_elem(rng, P, Q):
    """h3(a, b, c), each entry Fraction(randint(-P, P), randint(1, Q)),
    drawn in the order a, b, c."""
    return h3(*(Fraction(rng.randint(-P, P), rng.randint(1, Q)) for _ in range(3)))


def _planted_word(rng, k, length):
    """A word over k letters: randint(1, length) runs, each the letter
    randrange(k), then the count randint(1, 3)."""
    runs = rng.randint(1, length)
    return Word(k, [(rng.randrange(k), rng.randint(1, 3)) for _ in range(runs)])


def ow_draws(P, Q, count=100):
    """The planted orbit family OW(P, Q), NonEmpty by construction:
    random.Random(5); each draw takes K, M in 1..3, then T, the K
    elements of G and the M of H (`_planted_elem`), then v over G and w
    over H (`_planted_word`, at most 4 runs each), and sets
    S = T prod(v) prod(w)^-1.  Yields (instance, v, w)."""
    rng = random.Random(5)
    for _ in range(count):
        K, M = rng.randint(1, 3), rng.randint(1, 3)
        T = _planted_elem(rng, P, Q)
        G = GeneratorSystem([_planted_elem(rng, P, Q) for _ in range(K)])
        H = GeneratorSystem([_planted_elem(rng, P, Q) for _ in range(M)])
        v, w = _planted_word(rng, K, 4), _planted_word(rng, M, 4)
        S = T * product_of_word(G, v) * product_of_word(H, w).inverse()
        yield OrbitInstance(T, S, G, H), v, w


def iw_draws(P, Q, count=100):
    """The planted intersection family IW(P, Q), NonEmpty by
    construction: random.Random(7); each draw takes k, m in 1..3, then
    the k elements of G and the m of H (`_planted_elem`), then w1 over G
    (at most 4 runs) and p over H (at most 3 runs), and
    C = prod(p)^-1 prod(w1).  The instance is the two sets G and
    H + [C], on which w1 and p C are a common element.  Yields
    (instance, w1, p)."""
    rng = random.Random(7)
    for _ in range(count):
        k, m = rng.randint(1, 3), rng.randint(1, 3)
        G = GeneratorSystem([_planted_elem(rng, P, Q) for _ in range(k)])
        H = [_planted_elem(rng, P, Q) for _ in range(m)]
        w1, p = _planted_word(rng, k, 4), _planted_word(rng, m, 3)
        C = product_of_word(GeneratorSystem(H), p).inverse() * product_of_word(G, w1)
        yield IntersectionInstance([G, GeneratorSystem(H + [C])]), w1, p


def test_ow_draw_9_is_the_data_file():
    inst, v, w = next(itertools.islice(ow_draws(1000, 100), 9, None))
    assert (v.runs, w.runs) == (((0, 2),), ((0, 3), (1, 5)))
    stored = load_instance_file(DATA / "ow-1000-100-draw9.txt").build()
    assert (stored.T, stored.S) == (inst.T, inst.S)
    assert (stored.G.mats, stored.H.mats) == (inst.G.mats, inst.H.mats)


def test_f11_draw_159_is_the_data_file():
    # the one file whose golden report pins an inflated hard witness
    inst = f11_draw(159)
    stored = load_instance_file(DATA / "f11-draw159.txt").build()
    assert (stored.T, stored.S) == (inst.T, inst.S)
    assert (stored.G.mats, stored.H.mats) == (inst.G.mats, inst.H.mats)


def test_ow_wide_entry_draws_decide():
    # 3- and 4-digit entries: the relaxed start, and with it the witness
    # scale, can pass 2^64 (draws 8, 9, 10, 13, 15 and 16 do)
    decided = 0
    for index, (inst, v, w) in enumerate(ow_draws(1000, 100, count=20)):
        assert verify_orbit_witness(inst, v, w), index  # planted
        try:
            d = decide_orbit(inst)
        except UnsupportedInstance:
            continue
        assert d.verdict is Verdict.NONEMPTY, index
        assert verify_orbit_witness(inst, *d.witnesses), index
        decided += 1
    assert decided >= 18


@pytest.mark.parametrize(
    "index, pairs_tried, systems_solved",
    [(71, 5000, 0), (73, 20125, 5), (90, 14877, 0)],
)
def test_f11_easy_draws_skip_unbalanced_pairs(index, pairs_tried, systems_solved):
    # thousands of ordering pairs, of which at most a handful meet the
    # functional balance and reach the integer program
    d = decide_orbit(f11_draw(index))
    assert d.verdict is Verdict.EMPTY
    assert d.details["case"] == "easy"
    assert d.trace[0]["pairs_tried"] == pairs_tried
    assert d.trace[0]["systems_solved"] == systems_solved


def test_hard_central_shift_nonempty():
    G = gsys(X, Y)
    H = gsys(X, Y)
    inst = orbit(IDENT, h3(0, 0, 1), G, H)
    d = decide_orbit(inst)
    assert d.details["case"] == "hard"
    assert d.verdict is Verdict.NONEMPTY
    assert verified(inst, d)
    # recounted statistics match the inflated solution targets
    v, w = d.witnesses
    assert delta_table(v) is not None and delta_table(w) is not None


def test_orbit_witness_multiplied_once(monkeypatch):
    # decide_orbit is the one place a witness pair is checked
    calls = []
    real = orbit_module.product_of_word

    def counting(gens, word):
        calls.append(word)
        return real(gens, word)

    monkeypatch.setattr(orbit_module, "product_of_word", counting)
    G = gsys(X, Y)
    d = decide_orbit(orbit(IDENT, h3(0, 0, 1), G, G))
    assert d.details["case"] == "hard"
    assert d.verdict is Verdict.NONEMPTY
    assert calls == list(d.witnesses)
    # the easy case builds its systems without multiplying any word
    calls.clear()
    d = decide_orbit(orbit(IDENT, h3(0, 1, 0), G, gsys(X)))
    assert d.details["case"] == "easy"
    assert d.verdict is Verdict.NONEMPTY
    assert d.trace[0]["g_plus"] == [1]
    assert calls == list(d.witnesses)


def test_hard_trace_reports_the_witness():
    G = gsys(X, Y)
    d = decide_orbit(orbit(IDENT, h3(0, 0, 1), G, G))
    step = d.trace[0]
    assert step["witness"] == "corner"
    assert step["witness_letters"] == total_letters(d.witnesses)
    v, w = d.witnesses
    # the relaxed counts shifted along the balancing combination
    relaxed = d.details["relaxed"]
    assert len(relaxed) == 2 + 2 + 1 + 1  # x, y, one c, one d
    assert all(type(x) is int for x in relaxed)
    rows, _ = _hard_system(_integer_logs(IDENT, G.mats, G.mats))
    XY = orbit_module._positive_combination(rows, 4)
    shift = step["shift"]
    assert parikh(v) + parikh(w) == tuple(x + shift * c for x, c in zip(relaxed, XY))


def test_f11_hard_census(monkeypatch):
    # every hard draw of F11: verdicts, the corner/inflated split, and no
    # corner witness longer than the inflation it replaces
    hard = []
    for index, inst in enumerate(f11_draws()):
        units = _integer_logs(inst.S, inst.G.mats, inst.H.mats)
        if meet_of(units).full:
            hard.append((index, inst))
    tried = {}  # letters of every count vector the corner search tried
    real = orbit_module.realize_corner

    def spy(ls, g_vecs, ms, h_vecs, target):
        tried[index].append(sum(ls) + sum(ms))
        return real(ls, g_vecs, ms, h_vecs, target)

    monkeypatch.setattr(orbit_module, "realize_corner", spy)
    decisions = {}
    for index, inst in hard:
        tried[index] = []
        decisions[index] = decide_orbit(inst)
    nonempty = [i for i, d in decisions.items() if d.verdict is Verdict.NONEMPTY]
    assert len(hard) - len(nonempty) == 36 and len(nonempty) == 56
    inflated = [i for i in nonempty if decisions[i].trace[0]["witness"] == "inflated"]
    assert inflated == [159, 207]
    assert all(decisions[i].trace[0]["witness"] == "corner" for i in nonempty if i not in inflated)

    cap = orbit_module.CORNER_SHIFTS
    monkeypatch.setattr(orbit_module, "CORNER_SHIFTS", 0)
    for index, inst in hard:
        d = decisions[index]
        if index not in nonempty:
            assert d.verdict is Verdict.EMPTY
            continue
        assert verify_orbit_witness(inst, *d.witnesses)
        step = d.trace[0]
        assert step["witness_letters"] == total_letters(d.witnesses)
        fallback = decide_orbit(inst)
        assert fallback.trace[0]["witness"] == "inflated"
        assert verify_orbit_witness(inst, *fallback.witnesses)
        # the search stops at the inflation's letter count, not at the cap
        assert len(tried[index]) < cap
        assert max(tried[index]) <= fallback.trace[0]["witness_letters"]
        if step["witness"] == "inflated":
            assert d.witnesses == fallback.witnesses
        else:
            assert step["witness_letters"] == tried[index][-1]


def split_relaxed(sol, K, M):
    """A relaxed solution, one int tuple over the columns of
    `_hard_system`, as (x, y, c, d): the counts of each side, then the
    pair coefficients of each side as a dict keyed by pair."""
    n, nc = K + M, len(_pairs(K))
    return (
        sol[:K],
        sol[K:n],
        dict(zip(_pairs(K), sol[n : n + nc])),
        dict(zip(_pairs(M), sol[n + nc :])),
    )


def reference_positive_combination(g_logs, h_logs):
    """Reference: the balancing combination from the Fraction
    superdiagonals, the LP the integer one replaced, with its two rows
    cleared by one common denominator (the one-factor lemma of
    `lp_feasible`)."""
    K, M = len(g_logs), len(h_logs)
    rows = [
        [x[comp] for x in g_logs] + [-y[comp] for y in h_logs] for comp in range(2)
    ]
    den = common_denominator(itertools.chain(*rows))
    rows = [[int(v * den) for v in row] for row in rows]
    point = fractions_of(lp_feasible(rows, [0, 0], [1] * (K + M)))
    scaled = cleared(point)
    return scaled[:K], scaled[K:]


def reference_orbit_witness(s_elem, G, H, sol, corner_shifts=orbit_module.CORNER_SHIFTS):
    """Reference: the Fraction form of `extract_orbit_witness` that the
    integer one replaced.  It builds the Fraction log triples, brackets
    and the denominator E, computes the inflation scale first (by the
    former inline search, Fraction bounds) and lets the corner search
    stop at the inflation's letter count.  Returns ((v, w, how, shift),
    de), de = D E of the inflation."""
    g_logs, h_logs = fraction_logs(G), fraction_logs(H)
    K, M = len(g_logs), len(h_logs)
    s_log = table_log_triple(s_elem)
    g_halves = [cross(g_logs[i], g_logs[j]) / 2 for i, j in _pairs(K)]
    h_halves = [cross(h_logs[i], h_logs[j]) / 2 for i, j in _pairs(M)]
    s_halves = [cross(s_log, y) / 2 for y in h_logs]
    big_c, big_d, d_value = {}, {}, None
    for pairs, halves, big in ((_pairs(K), g_halves, big_c), (_pairs(M), h_halves, big_d)):
        for pair, half in zip(pairs, halves):
            if half:
                big[pair] = 1 if half > 0 else -1
                d_value = abs(2 * half)
                break
        if d_value is not None:
            break
    e_den = common_denominator(
        itertools.chain(*g_logs, *h_logs, s_log, s_halves, g_halves, h_halves)
    )
    X_, Y_ = reference_positive_combination(g_logs, h_logs)
    p_val = sum(X_[k] * g_logs[k][2] for k in range(K)) - sum(
        Y_[k] * (h_logs[k][2] + s_halves[k]) for k in range(M)
    )
    de, ep = d_value * e_den, p_val * e_den
    assert de.denominator == ep.denominator == 1
    de, ep = int(de), int(ep)

    sol_x, sol_y, sol_c, sol_d = split_relaxed(sol, K, M)

    def shifted(n):
        return (
            [sol_x[i] + 2 * n * de * X_[i] for i in range(K)],
            [sol_y[j] + 2 * n * de * Y_[j] for j in range(M)],
            {p: v - 4 * n * big_c.get(p, 0) * ep for p, v in sol_c.items()},
            {p: v + 4 * n * big_d.get(p, 0) * ep for p, v in sol_d.items()},
        )

    n_scale = _reference_inflation_scale(shifted, K, M)
    xs, ys, cs, dsh = shifted(n_scale)
    units = _integer_logs(s_elem, G.mats, H.mats)
    g_vecs = [x[:2] for x in units.g]
    h_vecs = [y[:2] for y in units.h]
    h_gammas = [y[2] + cross(units.s, y) for y in units.h]
    limit = sum(xs) + sum(ys)
    first = max(-((x - 1) // c) for x, c in zip((*sol_x, *sol_y), (*X_, *Y_)))
    for shift in range(first, first + corner_shifts):
        ls = [x + shift * c for x, c in zip(sol_x, X_)]
        ms = [y + shift * c for y, c in zip(sol_y, Y_)]
        if sum(ls) + sum(ms) > limit:
            break
        target = (
            units.s[2]
            + sum(m * gam for m, gam in zip(ms, h_gammas))
            - sum(l * x[2] for l, x in zip(ls, units.g))
        )
        found = realize_corner(ls, g_vecs, ms, h_vecs, target)
        if found is not None:
            return (*found, "corner", shift), de
    inflated = (realize_word(xs, cs), realize_word(ys, dsh), "inflated", 2 * n_scale * de)
    return inflated, de


def hard_nonempty_cases():
    """(name, instance, decide_hard decision) of the NonEmpty hard draws
    of F11 (reduced to T = I) and of 40 seeded random hard instances."""
    cases = []
    for index, inst in enumerate(f11_draws()):
        reduced = reduce_to_identity(inst)
        units = _integer_logs(reduced.S, inst.G.mats, inst.H.mats)
        if meet_of(units).full:
            cases.append((f"f11-{index}", reduced))
    rng = random.Random(89)
    cases += [(f"random-{k}", random_hard_instance(rng)) for k in range(40)]
    out = []
    for name, inst in cases:
        d = decide_hard(units_of(inst), inst.options)
        if d.verdict is Verdict.NONEMPTY:
            out.append((name, inst, d))
    return out


@pytest.fixture(scope="module")
def hard_nonempty():
    return hard_nonempty_cases()


def test_orbit_witness_matches_fraction_reference(hard_nonempty, monkeypatch):
    # the integer extraction returns the Fraction extraction's (v, w,
    # how, shift), with and without the corner search
    names = [name for name, _, _ in hard_nonempty]
    assert {"f11-159", "f11-207"} <= set(names)
    assert sum(name.startswith("f11") for name in names) == 56
    assert sum(name.startswith("random") for name in names) >= 10
    hows = set()
    for name, inst, d in hard_nonempty:
        relaxed = d.details["relaxed"]
        want, _ = reference_orbit_witness(inst.S, inst.G, inst.H, relaxed)
        units = units_of(inst)
        got = extract_orbit_witness(units, relaxed)
        assert got == want, name
        # the balancing combination X, Y itself, from the integer rows
        X_, Y_ = reference_positive_combination(fraction_logs(inst.G), fraction_logs(inst.H))
        rows, _ = _hard_system(units)
        assert orbit_module._positive_combination(rows, inst.G.K + inst.H.K) == [*X_, *Y_], name
        step = d.trace[0]
        assert (*d.witnesses, step["witness"], step["shift"]) == want, name
        hows.add(want[2])
    assert hows == {"corner", "inflated"}
    # the inflation alone: de, ep, the chosen pair and the scale
    monkeypatch.setattr(orbit_module, "CORNER_SHIFTS", 0)
    for name, inst, d in hard_nonempty:
        relaxed = d.details["relaxed"]
        want, _ = reference_orbit_witness(inst.S, inst.G, inst.H, relaxed, corner_shifts=0)
        assert want[2] == "inflated"
        assert extract_orbit_witness(units_of(inst), relaxed) == want, name


def test_inflation_scale_only_past_twice_de(hard_nonempty, monkeypatch):
    # the letter limit is shift > 2 N de with N >= 1, so a corner witness
    # at a shift up to 2 de is found without the inflation scale
    calls = []
    real = orbit_module.least_scale

    def counting(ok, step):
        calls.append(1)
        return real(ok, step)

    def refuse(ok, step):
        raise AssertionError("least_scale called")

    early = late = 0
    for name, inst, d in hard_nonempty:
        relaxed = d.details["relaxed"]
        (v, w, how, shift), de = reference_orbit_witness(inst.S, inst.G, inst.H, relaxed)
        if how == "corner" and shift <= 2 * de:
            early += 1
            monkeypatch.setattr(orbit_module, "least_scale", refuse)
            again = decide_orbit(inst)
            assert again.witnesses == (v, w), name
            assert again.trace[0]["shift"] == shift
        else:
            late += 1
            monkeypatch.setattr(orbit_module, "least_scale", counting)
            calls.clear()
            got = extract_orbit_witness(units_of(inst), relaxed)
            assert got == (v, w, how, shift), name
            assert len(calls) == 1, name
    assert early >= 30 and late >= 30


def test_hard_witnesses_build_no_fraction(hard_nonempty, monkeypatch):
    # the balancing combination, the corner search and the inflation run
    # on the integer units, and so does the LP: no Fraction is built
    refuse_fractions(monkeypatch)
    hows = set()
    for name, inst, d in hard_nonempty:
        again = decide_hard(units_of(inst), inst.options)
        assert again.witnesses == d.witnesses, name
        hows.add(again.trace[0]["witness"])
    assert hows == {"corner", "inflated"}


def random_hard_instance(rng):
    """A random orbit instance, T = I, whose cones meet in dimension 2:
    K, M in 1..3, every entry a Fraction with numerator in -3..3 and
    denominator in 1..3 (the entries of F11)."""

    def elem():
        return h3(*(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)))

    while True:
        G = GeneratorSystem([elem() for _ in range(rng.randint(1, 3))])
        H = GeneratorSystem([elem() for _ in range(rng.randint(1, 3))])
        S = elem()
        units = _integer_logs(S, G.mats, H.mats)
        if meet_of(units).full:
            return OrbitInstance(IDENT, S, G, H)


def reference_hard_branches(inst):
    """The parity-branch loop over the Fraction rows of
    `fraction_hard_system`: each branch clears the rows and the shifted
    right-hand side by one common denominator, doubles the rows and
    solves for the halves.  Returns (residues, branches tried, relaxed
    solution), with None for the residues and the solution when no
    branch is feasible."""
    K, M = inst.G.K, inst.H.K
    rows, rhs, g_pairs, h_pairs = fraction_hard_system(
        log_triple(inst.S), fraction_logs(inst.G), fraction_logs(inst.H)
    )
    den = common_denominator(itertools.chain(*rows, rhs))

    def cleared(values):
        out = [den * v for v in values]
        assert all(v.denominator == 1 for v in out)
        return [int(v) for v in out]

    int_rows = [cleared([2 * coef for coef in row]) for row in rows]
    branches = 0
    for residue in itertools.product((0, 1), repeat=K + M):
        branches += 1
        rho, sigma = residue[:K], residue[K:]
        res = [
            *rho,
            *sigma,
            *(rho[i] * rho[j] for i, j in g_pairs),
            *(sigma[i] * sigma[j] for i, j in h_pairs),
        ]
        shifted = [
            t - sum(coef * r for coef, r in zip(row, res)) for row, t in zip(rows, rhs)
        ]
        sol = hnf_solve(int_rows, cleared(shifted))
        if sol.feasible:
            relaxed = tuple(2 * h + r for h, r in zip(sol.particular, res))
            return residue, branches, relaxed
    return None, branches, None


def assert_hard_matches_reference(inst):
    """`decide_hard` tries the branches of the Fraction reference loop and
    returns its residues and relaxed solution.  Returns the verdict."""
    residues, branches, relaxed = reference_hard_branches(inst)
    d = decide_hard(units_of(inst), inst.options)
    step = d.trace[0]
    assert step["branches_tried"] == branches
    assert step.get("residues") == residues
    assert d.details.get("relaxed") == relaxed
    assert (d.verdict is Verdict.NONEMPTY) == (relaxed is not None)
    return d.verdict


def test_hard_branches_match_fraction_reference():
    rng = random.Random(73)
    verdicts = [assert_hard_matches_reference(random_hard_instance(rng)) for _ in range(60)]
    assert verdicts.count(Verdict.EMPTY) >= 10
    assert verdicts.count(Verdict.NONEMPTY) >= 10


_entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_lengths = st.builds(Fraction, st.integers(0, 3), st.integers(1, 3))


@st.composite
def hard_instances(draw):
    """Orbit instances, T = I, whose cones both hold (1, 1) in their
    interior, so they meet in dimension 2: each side has one generator
    with superdiagonal strictly below the diagonal of the first quadrant,
    one strictly above it, and at most one more of any direction."""

    def elem(a, b):
        return h3(a, b, draw(_entries))

    def side():
        lo, hi = draw(_lengths), draw(_lengths)
        d1, d2 = draw(_lengths) + 1, draw(_lengths) + 1
        mats = [elem(lo + d1, lo), elem(hi, hi + d2)]
        if draw(st.booleans()):
            mats.append(elem(draw(_entries), draw(_entries)))
        return GeneratorSystem(mats)

    G, H = side(), side()
    return OrbitInstance(IDENT, elem(draw(_entries), draw(_entries)), G, H)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(hard_instances())
def test_hard_branches_match_fraction_reference_hypothesis(inst):
    units = _integer_logs(inst.S, inst.G.mats, inst.H.mats)
    assert meet_of(units).full
    assert_hard_matches_reference(inst)


def test_hard_branch_loop_builds_no_fraction(monkeypatch):
    # Empty hard instances try every branch; the loop runs on the integer
    # rows alone, so no Fraction, Fraction log triple or Fraction
    # denominator is needed
    rng = random.Random(79)
    empty = []
    while len(empty) < 5:
        inst = random_hard_instance(rng)
        if decide_hard(units_of(inst), inst.options).verdict is Verdict.EMPTY:
            empty.append(inst)
    empty.append(orbit(IDENT, h3(0, 0, Fraction(1, 2)), gsys(X, Y), gsys(X, Y)))

    # no Fraction log triple exists to call, and no Fraction denominator
    assert not hasattr(orbit_module, "_log_triple")
    assert not hasattr(orbit_module, "_logs")
    assert not hasattr(orbit_module, "common_denominator")
    refuse_fractions(monkeypatch)
    for inst in empty:
        d = decide_hard(units_of(inst), inst.options)
        assert d.verdict is Verdict.EMPTY
        assert d.trace[0]["branches_tried"] == 2 ** (inst.G.K + inst.H.K)


def test_parity_cap_bounds_the_branches(monkeypatch):
    calls = []
    real = orbit_module.hnf_solve

    def spy(A, b):
        calls.append(1)
        return real(A, b)

    monkeypatch.setattr(orbit_module, "hnf_solve", spy)
    s = h3(0, 0, Fraction(1, 2))
    G = gsys(X, Y)
    over = orbit(IDENT, s, G, gsys(X, Y, h3(1, 1, 0)), parity_cap=4)
    with pytest.raises(BudgetExceeded) as info:
        decide_orbit(over)
    assert info.value.budget == 4
    assert not calls
    # K + M equal to the cap is decided, every branch tried
    d = decide_orbit(orbit(IDENT, s, G, gsys(X, Y), parity_cap=4))
    assert d.details["case"] == "hard"
    assert d.verdict is Verdict.EMPTY
    assert d.trace[0]["branches_tried"] == len(calls) == 16
    calls.clear()
    d = decide_orbit(orbit(IDENT, h3(0, 0, 1), G, gsys(X, Y), parity_cap=4))
    assert d.verdict is Verdict.NONEMPTY
    assert d.trace[0]["branches_tried"] == len(calls) <= 16


def test_integer_logs_once_per_hard_decision(monkeypatch):
    # decide_orbit converts the instance once and hands the units to
    # decide_hard and on to extract_orbit_witness, which convert nothing
    conversions = []
    real = orbit_module._integer_logs

    def counting(*args):
        conversions.append(1)
        return real(*args)

    monkeypatch.setattr(orbit_module, "_integer_logs", counting)
    rng = random.Random(83)
    verdicts = set()
    for _ in range(12):
        inst = random_hard_instance(rng)
        units = units_of(inst)
        for run, converts in (
            (lambda: decide_hard(units, inst.options), 0),
            (lambda: decide_orbit(inst), 1),
        ):
            conversions.clear()
            verdicts.add(run().verdict)
            assert len(conversions) == converts
    assert verdicts == {Verdict.EMPTY, Verdict.NONEMPTY}


def test_hard_half_central_shift_empty():
    G = gsys(X, Y)
    inst = orbit(IDENT, h3(0, 0, Fraction(1, 2)), G, G)
    d = decide_orbit(inst)
    assert d.verdict is Verdict.EMPTY


def test_hard_identity_shift_nonempty():
    G = gsys(X, Y)
    d = decide_orbit(orbit(IDENT, IDENT, G, G))
    assert d.verdict is Verdict.NONEMPTY


def test_parity_obstruction_family():
    # S central with corner k + 1/2 is unreachable: the corner equation
    # needs an odd coefficient difference while the parities force even
    G = gsys(X, Y)
    for k in (0, 1, 2):
        s = h3(0, 0, k + Fraction(1, 2))
        inst = orbit(IDENT, s, G, G)
        d = decide_orbit(inst)
        assert d.verdict is Verdict.EMPTY
        assert bfs_oracle(inst, 8) is None


def test_fallback_commutator_membership():
    G = gsys(X, Y, X.inverse(), Y.inverse())
    H = gsys(IDENT)
    inst = orbit(IDENT, h3(0, 0, 1), G, H)
    d = decide_orbit(inst)
    assert d.verdict is Verdict.NONEMPTY
    assert d.details["case"] == "fallback"
    assert verified(inst, d)


def test_unsupported_raises_when_fallback_finds_nothing():
    # full plane against an interior ray, with an unreachable target
    G = gsys(X, Y, X.inverse(), Y.inverse())
    H = gsys(IDENT)
    inst = orbit(
        IDENT, h3(0, 0, Fraction(1, 2)), G, H, oracle_depth=4
    )
    with pytest.raises(UnsupportedInstance):
        decide_orbit(inst)


def random_h3_elem(rng, bound=2):
    return h3(
        rng.randint(-bound, bound),
        rng.randint(-bound, bound),
        rng.randint(-bound, bound),
    )


def random_system(rng, k, bound=2):
    return GeneratorSystem(
        [random_h3_elem(rng, bound) for _ in range(k)]
    )


def test_oracle_agreement_sample(rng):
    # small version of the acceptance criterion, mixed cases
    checked = 0
    for _ in range(60):
        inst = orbit(
            random_h3_elem(rng, 1),
            random_h3_elem(rng, 1),
            random_system(rng, rng.randint(1, 2)),
            random_system(rng, rng.randint(1, 2)),
        )
        try:
            d = decide_orbit(inst)
        except UnsupportedInstance:
            continue
        checked += 1
        found = bfs_oracle(inst, 6)
        if d.verdict is Verdict.EMPTY:
            assert found is None
        else:
            assert verified(inst, d)
    assert checked >= 40


def test_membership_specialization(rng):
    # H = {I}, T = I decides membership of S in the semigroup of G
    for _ in range(25):
        g_sys = random_system(rng, rng.randint(1, 2), bound=1)
        s = random_h3_elem(rng, 1)
        inst = orbit(IDENT, s, g_sys, gsys(IDENT))
        try:
            d = decide_orbit(inst)
        except UnsupportedInstance:
            continue
        found = bfs_oracle(inst, 6)
        if found is not None:
            assert d.verdict is Verdict.NONEMPTY
        if d.verdict is Verdict.EMPTY:
            assert found is None


def test_decide_easy_requires_low_dimension():
    # a meet of dimension 2, and one of dimension 1 without a separating
    # functional (the plane against a ray), carry no functional
    plane = gsys(X, Y, h3(-1, 0, 0), h3(0, -1, 0))
    for G, H in ((gsys(X, Y), gsys(X, Y)), (plane, gsys(h3(1, 1, 0)))):
        units = units_of(orbit(IDENT, IDENT, G, H))
        functional = meet_of(units).separating_functional
        assert functional is None
        with pytest.raises(ValueError):
            decide_easy(units, functional, {})
