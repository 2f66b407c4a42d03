import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilsect import (
    GeneratorSystem,
    IntersectionInstance,
    NumberField,
    OrbitInstance,
    UnipotentMatrix,
    bch_log,
    delta_table,
    direct_sum,
    is_two_step,
    load_instance_file,
    log_unipotent,
    parikh,
    product_of_word,
    Word,
)
from nilsect import matlie
from nilsect.matlie import _integer_bracket, rational_str

from conftest import (
    common_denominator,
    embed_coords,
    entry,
    from_rows,
    h3,
    log_rows,
    random_unipotent,
    reduced_table,
    refuse_fractions,
    rows_of,
    ref_bracket,
    ref_combine,
    ref_exp,
    ref_identity,
    ref_log,
    ref_mul,
    ref_scale,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _zero(n):
    return ((0,) * n,) * n


def _is_zero(rows):
    return all(not x for row in rows for x in row)


def _random_strict_upper(rng, n, bound, den=None):
    """A strictly upper triangular table of random ints, or of Fractions
    with denominators up to `den` when it is given."""
    def entry():
        num = rng.randint(-bound, bound)
        return num if den is None else Fraction(num, rng.randint(1, den))

    return tuple(tuple(entry() if j > i else 0 for j in range(n)) for i in range(n))


def test_constructor_rejects_bad_matrices():
    with pytest.raises(ValueError):
        UnipotentMatrix([[1, 0], [1, 1]], 1)
    with pytest.raises(ValueError):
        UnipotentMatrix([[2, 0], [0, 1]], 1)
    with pytest.raises(ValueError):
        UnipotentMatrix([[1, 0, 0], [0, 1, 0]], 1)
    with pytest.raises(ValueError):
        UnipotentMatrix(((1, 1), (0, 1)), 0)
    with pytest.raises(ValueError):
        UnipotentMatrix(((2, 1), (1, 2)), 2)
    with pytest.raises(ValueError):
        UnipotentMatrix(((2, 1), (0, 1)), 2)
    with pytest.raises(ValueError):
        UnipotentMatrix(((1, 0),), 1)


@pytest.mark.parametrize(
    "table, den",
    [
        ([[1, 0.1, 0], [0, 1, 0], [0, 0, 1]], 1),  # once stored as 3602879701896397/2^55
        ([[2, 0.5, 0], [0, 2, 0], [0, 0, 2]], 2),  # once kept as a float entry
        ([[1, Fraction(1, 2)], [0, 1]], 1),
        ([[1, Fraction(2)], [0, 1]], 1),
        ([[1, "1"], [0, 1]], 1),
        ([[1.0, 0], [0, 1]], 1),
        ([[True, 0], [0, True]], True),
        ([[2, 1], [0, 2]], 2.0),
        ([[2, 1], [0, 2]], Fraction(2)),
        ([[1, 0.5], [1, 1]], 1),  # also nonzero below the diagonal
    ],
)
def test_constructor_takes_ints_only(table, den):
    # a float or Fraction entry, or denominator, is a TypeError before any
    # other check: the one rational form is ints over one int den
    with pytest.raises(TypeError, match="is not an int"):
        UnipotentMatrix(table, den)


def test_generator_systems_and_instances_take_built_parts():
    m = h3(1, 2, 3)
    rows = [[1, 1, 3], [0, 1, 2], [0, 0, 1]]
    with pytest.raises(TypeError, match="generator 1 is not a UnipotentMatrix"):
        GeneratorSystem([m, rows])
    with pytest.raises(TypeError, match="generator set 0 is not a GeneratorSystem"):
        IntersectionInstance([[m]])
    gens = GeneratorSystem([m])
    with pytest.raises(TypeError, match="S is not a UnipotentMatrix"):
        OrbitInstance(m, rows, gens, gens)
    with pytest.raises(TypeError, match="H is not a GeneratorSystem"):
        OrbitInstance(m, m, gens, [m])


def test_rational_str_is_the_fraction_string(rng):
    cases = [(0, 1), (0, 7), (-0, 3), (5, 1), (-5, 1), (6, 4), (-6, 4), (-12, 6), (7, 21), (2**70 + 1, 2**35)]
    cases += [(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(500)]
    for num, den in cases:
        assert rational_str(num, den) == str(Fraction(num, den)), (num, den)


@settings(max_examples=200, deadline=None)
@given(st.integers(), st.integers(min_value=1), st.integers(min_value=1, max_value=50))
def test_rational_str_is_the_fraction_string_hypothesis(num, den, k):
    assert rational_str(num, den) == str(Fraction(num, den))
    assert rational_str(k * num, k * den) == rational_str(num, den)  # not reduced


def test_log_examples():
    # a log is the reduced pair (X, D) with log M = X/D
    assert log_unipotent(UnipotentMatrix.identity(3)) == (_zero(3), 1)
    assert log_unipotent(h3(1, 0, 0)) == (((0, 1, 0), (0, 0, 0), (0, 0, 0)), 1)
    # only the corner changes: c - a*b/2
    assert log_unipotent(h3(1, 1, 1)) == (((0, 2, 1), (0, 0, 2), (0, 0, 0)), 2)
    assert h3(1, 1, 1).integer_log() == log_unipotent(h3(1, 1, 1))
    assert log_unipotent(h3(Fraction(1, 3), 0, Fraction(1, 2))) == (
        ((0, 2, 3), (0, 0, 0), (0, 0, 0)),
        6,
    )


def test_log_exp_round_trip(rng):
    # the integer log against the reference exponential, both ways round
    for n in (2, 3, 4, 5, 6):
        for _ in range(25):
            m = random_unipotent(rng, n, bound=20)
            assert ref_exp(log_rows(log_unipotent(m))) == m
            x = _random_strict_upper(rng, n, bound=20, den=20)
            assert log_unipotent(ref_exp(x)) == reduced_table(x)


def test_log_unipotent_matches_reference_on_every_sample_element():
    count = 0
    for path in sorted(SAMPLES.glob("*.txt")):
        inst_file = load_instance_file(path)
        for name in sorted(inst_file.elements):
            mat = inst_file.elements[name]
            want = ref_log(mat)
            assert log_unipotent(mat) == reduced_table(want), (path.name, name)
            assert log_rows(mat.integer_log()) == want
            count += 1
    assert count == 13


def test_bracket_examples():
    (x, _), (y, _) = log_unipotent(h3(1, 0, 0)), log_unipotent(h3(0, 1, 0))
    assert _integer_bracket(x, x, 3) == _zero(3)
    assert _integer_bracket(x, y, 3) == ((0, 0, 1), (0, 0, 0), (0, 0, 0))
    assert _integer_bracket(y, x, 3) == ((0, 0, -1), (0, 0, 0), (0, 0, 0))


def test_bracket_bilinear_antisymmetric(rng):
    for _ in range(30):
        x, y, z = (_random_strict_upper(rng, 4, bound=9) for _ in range(3))
        xy = _integer_bracket(x, y, 4)
        assert xy == ref_bracket(x, y)
        assert xy == ref_scale(_integer_bracket(y, x, 4), -1)
        assert _integer_bracket(ref_combine(x, z), y, 4) == ref_combine(
            xy, _integer_bracket(z, y, 4)
        )
        c = rng.randint(-5, 5)
        assert _integer_bracket(ref_scale(x, c), y, 4) == ref_scale(xy, c)


def test_h3_bracket_vanishes_iff_superdiagonals_dependent(rng):
    for _ in range(60):
        x = _random_strict_upper(rng, 3, bound=5)
        y = _random_strict_upper(rng, 3, bound=5)
        det = x[0][1] * y[1][2] - x[1][2] * y[0][1]
        assert _is_zero(_integer_bracket(x, y, 3)) == (det == 0)


def test_is_two_step():
    assert is_two_step(GeneratorSystem([h3(1, 0, 0), h3(0, 1, 0), h3(2, 3, 4)]))
    assert is_two_step(GeneratorSystem([h3(1, 2, 3)]))  # cyclic
    # in UT(4): {I+E12, I+E23, I+E34} has a nonzero triple commutator
    def e(i, j):
        rows = [[1 if a == b else 0 for b in range(4)] for a in range(4)]
        rows[i][j] = 1
        return from_rows(rows)

    bad = GeneratorSystem([e(0, 1), e(1, 2), e(2, 3)])
    assert not is_two_step(bad)
    # explicit check that the triple commutator is nontrivial
    g1, g2, g3 = bad.mats
    c12 = g1.inverse() * g2.inverse() * g1 * g2
    outer = c12.inverse() * g3.inverse() * c12 * g3
    assert outer != UnipotentMatrix.identity(4)
    assert entry(outer, 0, 3) != 0


def _two_step_by_group_commutators(mats):
    """Reference: every group commutator of two generators is central."""
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = mats[i].inverse() * mats[j].inverse() * mats[i] * mats[j]
            if any(comm * g != g * comm for g in mats):
                return False
    return True


def _random_rational(rng, bound=4):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 3))


def _random_sparse_unipotent(rng, n, positions):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in positions:
        rows[i][j] = _random_rational(rng)
    return from_rows(rows)


def _heisenberg_shape(n):
    """First row and last column: the positions of H_n inside UT(n)."""
    return [(0, j) for j in range(1, n)] + [(i, n - 1) for i in range(1, n - 1)]


def _differential_family(rng):
    """Seeded generator sets, 2-step and not, with rational entries."""
    family = []
    for n in (3, 4, 5, 6):
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(6):
            k = rng.randint(1, 4)
            # generic pairs and more: from UT(4) on almost never 2-step
            family.append(
                [random_unipotent(rng, n, bound=4) for _ in range(max(k, 2))]
            )
            # Heisenberg shape: always 2-step
            family.append(
                [_random_sparse_unipotent(rng, n, _heisenberg_shape(n)) for _ in range(k)]
            )
            # sparse supports: a mix of both answers
            family.append(
                [
                    _random_sparse_unipotent(rng, n, rng.sample(upper, rng.randint(1, 3)))
                    for _ in range(k)
                ]
            )
            # powers of one element plus a central one: abelian
            base = random_unipotent(rng, n, bound=4)
            central = _random_sparse_unipotent(rng, n, [(0, n - 1)])
            family.append([base, base**2, central])
    fields = (NumberField([-2, 0, 1], 1), NumberField([-2, 0, 0, 1], 1))
    for field in fields:
        for _ in range(4):
            heis = [
                embed_coords(
                    field,
                    3,
                    [[_random_rational(rng) for _ in range(field.degree)]],
                    [[_random_rational(rng) for _ in range(field.degree)]],
                    [_random_rational(rng) for _ in range(field.degree)],
                )
                for _ in range(3)
            ]
            family.append(heis)
            family.append(heis + [random_unipotent(rng, heis[0].n, bound=3)])
    samples = Path(__file__).resolve().parent.parent / "samples"
    for path in sorted(samples.glob("*.txt")):
        built = load_instance_file(path).build()
        if isinstance(built, IntersectionInstance):
            family.append([m for sys in built.systems for m in sys.mats])
        else:
            family.append(list(built.G.mats) + list(built.H.mats))
    return family


def test_is_two_step_matches_group_commutator_definition():
    rng = random.Random(31)
    family = _differential_family(rng)
    verdicts = []
    for mats in family:
        expected = _two_step_by_group_commutators(mats)
        assert is_two_step(GeneratorSystem(mats)) == expected
        verdicts.append(expected)
    # the family exercises both answers in every dimension from 4 up
    for n in (4, 5, 6, 9):
        seen = {v for mats, v in zip(family, verdicts) if mats[0].n == n}
        assert seen == {True, False}


def reference_is_two_step(mats):
    """All K(K-1)/2 * K triples: [[x_i, x_j], x_k] = 0 on the rational logs."""
    logs = [ref_log(m) for m in mats]
    return all(
        _is_zero(ref_bracket(ref_bracket(logs[i], logs[j]), xk))
        for i in range(len(logs))
        for j in range(i + 1, len(logs))
        for xk in logs
    )


_small = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.sampled_from((1, 2, 3)))
_fields = (NumberField([-2, 0, 1], 1), NumberField([-2, 0, 0, 1], 1))


@st.composite
def _ut_generators(draw):
    """1-4 generators of UT(n), n <= 6, each dense or on a few drawn
    positions: dense ones are rarely 2-step, sparse ones often are."""
    n = draw(st.integers(2, 6))
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        dense = draw(st.booleans())
        positions = upper if dense else draw(st.lists(st.sampled_from(upper), min_size=1))
        for i, j in positions:
            rows[i][j] = draw(_small)
        mats.append(from_rows(rows))
    return mats


@st.composite
def _field_heisenberg(draw, field, n):
    """An embedded element of H_n over the field."""
    def elem():
        return [draw(_small) for _ in range(field.degree)]

    return embed_coords(
        field, n, [elem() for _ in range(n - 2)], [elem() for _ in range(n - 2)], elem()
    )


@st.composite
def _embedded_generators(draw):
    """Embedded H_n(Q(sqrt 2)) or H_n(Q(cbrt 2)) elements, or elements of
    their product, sometimes with one generic element of the same
    dimension added (then rarely 2-step)."""
    kind = draw(st.sampled_from(("sqrt2", "cbrt2", "product")))
    k = draw(st.integers(1, 3))
    if kind == "product":
        mats = [
            direct_sum(
                [draw(_field_heisenberg(f, 3)) for f in _fields]
            )
            for _ in range(k)
        ]
    else:
        field = _fields[kind == "cbrt2"]
        n = draw(st.integers(3, 4))
        mats = [draw(_field_heisenberg(field, n)) for _ in range(k)]
    if draw(st.booleans()):
        size = mats[0].n
        rows = [[int(i == j) for j in range(size)] for i in range(size)]
        for j in range(size - 1):
            rows[j][j + 1] = draw(_small)
        mats.append(from_rows(rows))
    return mats


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(_ut_generators(), _embedded_generators()))
def test_is_two_step_matches_all_triples_hypothesis(mats):
    assert is_two_step(GeneratorSystem(mats)) == reference_is_two_step(mats)


def _count_products(monkeypatch):
    """A list that gets one entry per `mul_upper_rows` call from now on."""
    calls = []
    real = matlie.mul_upper_rows
    monkeypatch.setattr(matlie, "mul_upper_rows", lambda *a: calls.append(1) or real(*a))
    return calls


def _unit_upper(n, entries):
    """I plus the given {(r, c): value} entries, as a UnipotentMatrix."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for (r, c), v in entries.items():
        rows[r][c] = v
    return from_rows(rows)


# a = I + E12 + E23 + E34: its log fills the whole strict upper triangle
_CHAIN4 = _unit_upper(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1})


def reference_has_long_support_path(mats):
    """Reference: S S S != 0 for S the 0/1 table of positions where some
    rational log is nonzero."""
    logs = [ref_log(m) for m in mats]
    n = mats[0].n
    s = tuple(
        tuple(int(any(x[r][c] for x in logs)) for c in range(n)) for r in range(n)
    )
    return not _is_zero(ref_mul(ref_mul(s, s), s))


def test_is_two_step_takes_no_product_when_the_support_has_no_long_path(monkeypatch):
    # H3(Q) logs live on (0,1), (1,2), (0,2): no path of length 3, so no
    # bracket and no product once the logs are cached
    gens = GeneratorSystem([h3(i, i * i - 3, 1) for i in range(1, 7)])
    for m in gens.mats:
        m.integer_log()
    calls = _count_products(monkeypatch)
    assert is_two_step(gens)
    assert calls == []
    assert not reference_has_long_support_path(gens.mats)
    assert reference_is_two_step(gens.mats)


def test_is_two_step_tests_a_basis_of_the_brackets(monkeypatch):
    # {a, a^2} commute: the loop takes its one bracket (2 products), which
    # is zero and adds no basis element.  {a, I + E13}: the bracket is a
    # multiple of E14, one basis element tested against both logs
    # (2 products each)
    for mats, products in (
        ([_CHAIN4, _CHAIN4**2], 2),
        ([_CHAIN4, _unit_upper(4, {(0, 2): 1})], 2 + 2 * 2),
    ):
        gens = GeneratorSystem(mats)
        for m in gens.mats:
            m.integer_log()
        assert reference_has_long_support_path(mats)
        calls = _count_products(monkeypatch)
        assert is_two_step(gens)
        assert len(calls) == products
        monkeypatch.undo()
        assert reference_is_two_step(mats)


def _random_dense_unipotent(rng, n):
    """Nonzero rationals on every strictly upper position, so the log's
    superdiagonal is nonzero and its support holds a path of length 3
    from n = 4 up."""
    entries = {}
    for r in range(n):
        for c in range(r + 1, n):
            entries[r, c] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    return _unit_upper(n, entries)


def _long_path_family(rng):
    """Seeded systems whose logs' support has a path of length 3, 2-step
    and not: the systems the basis loop decides."""
    family = []
    for n in (4, 5):
        # a central ideal of UT(n): positions (0, n-2), (1, n-1), (0, n-1)
        corner = [(0, n - 2), (1, n - 1), (0, n - 1)]
        for _ in range(4):
            a = _random_dense_unipotent(rng, n)
            family.append([a])  # cyclic
            family.append([a, a ** rng.choice((-2, 2, 3, 5))])
            family.append(
                [a] + [_random_sparse_unipotent(rng, n, corner) for _ in range(2)]
            )
            family.append([a, _random_dense_unipotent(rng, n)])
            family.append([_random_dense_unipotent(rng, n) for _ in range(3)])
    family.append([_CHAIN4])
    family.append([_CHAIN4, _CHAIN4**2, _CHAIN4**-3])
    family.append([_CHAIN4, _unit_upper(4, {(0, 2): 1, (1, 3): -2})])
    family.append(
        [_unit_upper(4, {(0, 1): 1, (2, 3): 1}), _unit_upper(4, {(1, 2): 1})]
    )
    return family


def test_is_two_step_matches_reference_on_long_support_paths():
    family = _long_path_family(random.Random(25))
    verdicts = []
    for mats in family:
        assert reference_has_long_support_path(mats)
        expected = reference_is_two_step(mats)
        assert is_two_step(GeneratorSystem(mats)) == expected
        verdicts.append(expected)
    # both answers come out of the loop
    assert set(verdicts) == {True, False}
    # {E12 + E34, E23}: [[x, y], x] = 2 E14
    assert verdicts[-1] is False
    assert all(verdicts[-4:-1])


def test_every_sample_intersection_builds_without_a_bracket(monkeypatch):
    def no_bracket(*args):
        raise AssertionError("is_two_step took a bracket")

    monkeypatch.setattr(matlie, "_integer_bracket", no_bracket)
    data = Path(__file__).resolve().parent / "data"
    paths = sorted(SAMPLES.glob("*.txt")) + sorted(data.glob("*.txt"))
    built = [load_instance_file(path).build() for path in paths]
    intersections = [b for b in built if isinstance(b, IntersectionInstance)]
    # build ran is_two_step on each union of generator systems
    assert len(intersections) == 4


def test_common_denominator_is_lcm_of_all(rng):
    assert common_denominator([]) == 1
    for _ in range(200):
        values = [
            Fraction(rng.randint(-50, 50), rng.randint(1, 60))
            for _ in range(rng.randint(1, 20))
        ]
        expected = math.lcm(*(v.denominator for v in values))
        assert common_denominator(values) == expected
        assert common_denominator(iter(values)) == expected


def test_integer_log_is_positive_multiple_of_log(rng):
    for n in range(2, 8):
        for _ in range(20):
            m = random_unipotent(rng, n, bound=9)
            den = m.den
            assert from_rows(rows_of(m)) == m
            scaled, d_log = log_unipotent(m)
            assert all(type(x) is int for row in scaled for x in row)
            assert d_log > 0
            # X = D log M exactly, D dividing L d^p (p = n - 1 for these)
            assert log_rows((scaled, d_log)) == ref_log(m)
            assert (math.lcm(*range(1, n)) * den ** (n - 1)) % d_log == 0
    assert log_unipotent(UnipotentMatrix.identity(4)) == (_zero(4), 1)


def test_bch_log_examples():
    x, y = h3(1, 0, 0), h3(0, 1, 0)
    gens = GeneratorSystem([x, y])
    assert bch_log(gens, (1, 0), {}) == log_unipotent(x)
    assert bch_log(gens, (1, 1), {(0, 1): 1}) == log_unipotent(x * y)
    assert bch_log(gens, (1, 1), {(0, 1): -1}) == log_unipotent(y * x)
    assert bch_log(gens, (0, 0), {}) == (_zero(3), 1)
    assert log_unipotent(x * y) == reduced_table([[0, 1, Fraction(1, 2)], [0, 0, 1], [0, 0, 0]])
    assert log_unipotent(y * x) == reduced_table([[0, 1, Fraction(-1, 2)], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(ValueError):
        bch_log(gens, (1, 1, 1), {})
    with pytest.raises(ValueError):
        bch_log(gens, (1, 1), {(1, 0): 1})


def test_bch_log_requires_two_step():
    def e(i, j):
        rows = [[1 if a == b else 0 for b in range(4)] for a in range(4)]
        rows[i][j] = 1
        return from_rows(rows)

    bad = GeneratorSystem([e(0, 1), e(1, 2), e(2, 3)])
    with pytest.raises(ValueError):
        bch_log(bad, (1, 1, 1), {})


def test_bch_matches_products_on_short_words(rng):
    # cross-module consistency: the integer log of the product of w is
    # bch_log of its statistics, as the same reduced (X, D), on H3(Q) with
    # integer entries and on the Heisenberg shape in UT(n, Q)
    systems = [
        GeneratorSystem(
            [
                h3(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
                for _ in range(3)
            ]
        )
        for _ in range(20)
    ]
    systems += [
        GeneratorSystem(
            [_random_sparse_unipotent(rng, n, _heisenberg_shape(n)) for _ in range(3)]
        )
        for n in (3, 4, 5, 6)
        for _ in range(5)
    ]
    for gens in systems:
        for _ in range(10):
            length = rng.randint(0, 8)
            letters = [rng.randrange(3) for _ in range(length)]
            w = Word.from_letters(3, letters)
            lhs = product_of_word(gens, w).integer_log()
            assert bch_log(gens, parikh(w), delta_table(w)) == lhs
            assert log_rows(lhs) == ref_log(product_of_word(gens, w))


def test_product_of_word():
    x, y = h3(1, 0, 0), h3(0, 1, 0)
    gens = GeneratorSystem([x, y])
    assert product_of_word(gens, Word(2)) == UnipotentMatrix.identity(3)
    assert product_of_word(gens, Word.from_letters(2, [0])) == x
    assert product_of_word(gens, Word.from_letters(2, [0, 1])) == h3(1, 1, 1)
    with pytest.raises(IndexError):
        product_of_word(gens, Word.from_letters(3, [2]))


def test_product_of_word_run_length_powers():
    x = h3(1, 2, 3)
    gens = GeneratorSystem([x])
    w = Word(1, [(0, 1000)])
    assert product_of_word(gens, w) == x**1000


def _binary_power(m, e):
    """m^e by repeated squaring, through the inverse for e < 0: the former
    UnipotentMatrix.__pow__, kept as the reference for the binomial step
    over the powers of N that m keeps."""
    if e < 0:
        return _binary_power(m.inverse(), -e)
    acc = UnipotentMatrix.identity(m.n)
    base = m
    while e:
        if e & 1:
            acc = acc * base
        e >>= 1
        if e:
            base = base * base
    return acc


def _product_by_binary_powering(gens, word):
    """The former product_of_word: every run multiplied in as a power."""
    acc = UnipotentMatrix.identity(gens.n)
    for letter, count in word.runs:
        acc = acc * _binary_power(gens.mats[letter], count)
    return acc


def _all_int(m):
    return type(m.den) is int and all(type(v) is int for row in m.table for v in row)


def test_powers_match_binary_powering(rng):
    for n in range(3, 7):
        for _ in range(3):
            m = random_unipotent(rng, n, bound=10)
            for e in (-5, 0, 1, 7, 2**65):
                got = m**e
                assert got == _binary_power(m, e), (n, e)
                assert _all_int(got)


def test_product_of_word_matches_binary_powering(rng):
    # every run, of 1 letter or of 2^70, is one binomial step over the
    # powers of N that its generator keeps
    for n in range(3, 7):
        gens = GeneratorSystem([random_unipotent(rng, n, bound=10) for _ in range(3)])
        for _ in range(4):
            runs = [
                (rng.randrange(3), rng.choice((1, 2, 3, 2**70)))
                for _ in range(rng.randint(1, 6))
            ]
            w = Word(3, runs)
            got = product_of_word(gens, w)
            assert got == _product_by_binary_powering(gens, w), (n, w)
            assert _all_int(got)


def test_powers_take_int_exponents_only():
    # c = 0.5 once gave the identity: its binomials floor to 0
    m = h3(1, 1, 1)
    for e in (0.5, 2.0, Fraction(2), True):
        with pytest.raises(TypeError, match="of an exponent is not an int"):
            m**e
        with pytest.raises(TypeError, match="of an exponent is not an int"):
            m.integer_power(e)


def test_inverse_and_powers(rng):
    for _ in range(20):
        m = random_unipotent(rng, 5, bound=10)
        assert m * m.inverse() == UnipotentMatrix.identity(5)
        assert m**3 == m * m * m
        assert m**-2 == (m.inverse()) ** 2
        assert m**0 == UnipotentMatrix.identity(5)


def test_matrix_tables_stay_int(rng):
    # products share mul_upper_rows with the logs' tables; entries no
    # product reaches must be int zeros too
    sparse = [h3(1, 0, 0), h3(0, 1, 0), UnipotentMatrix.identity(4)]
    dense = [random_unipotent(rng, 5, bound=10) for _ in range(2)]
    tables = []
    for a in sparse + dense:
        tables += [a * a, a**3, a**-2, a.inverse()]
    tables += [dense[0] * dense[1]]
    for m in tables:
        assert _all_int(m), m


def test_matrices_hashable_immutable():
    m = h3(1, 2, 3)
    assert hash(m) == hash(h3(1, 2, 3))
    with pytest.raises(AttributeError):
        m.n = 4
    with pytest.raises(AttributeError):
        m.den = 1
    assert repr(h3(Fraction(1, 2), 0, 3)) == "<UT3 [1 1/2 3; 0 1 0; 0 0 1]>"


def _holds_fraction(value):
    if isinstance(value, Fraction):
        return True
    return isinstance(value, (tuple, list)) and any(map(_holds_fraction, value))


def _slots(m):
    """The value of every slot of m, those of its base classes included."""
    return [
        getattr(m, name)
        for cls in type(m).__mro__
        for name in getattr(cls, "__slots__", ())
    ]


def _assert_one_reduced_table(m):
    assert not any(map(_holds_fraction, _slots(m)))
    assert {"n", "table", "den"} <= {
        name for cls in type(m).__mro__ for name in getattr(cls, "__slots__", ())
    }
    assert m.den > 0
    assert math.gcd(m.den, *(x for row in m.table for x in row)) == 1


def test_matrix_stores_one_reduced_integer_table(rng):
    for n in range(1, 7):
        for _ in range(10):
            m = random_unipotent(rng, n, bound=9)
            m.integer_power(3)  # the caches are filled too
            m.integer_log()
            assert m._powers is not None and m._log is not None
            _assert_one_reduced_table(m)


def test_equal_matrices_have_one_form_however_built(rng):
    for n in range(2, 7):
        for _ in range(10):
            m = random_unipotent(rng, n, bound=9)
            k = rng.randint(2, 30)
            scaled = tuple(tuple(k * x for x in row) for row in m.table)
            gens = GeneratorSystem([m, m.inverse()])
            builds = [
                from_rows(rows_of(m)),
                from_rows([[str(x) for x in row] for row in rows_of(m)]),
                UnipotentMatrix(scaled, k * m.den),
                UnipotentMatrix(list(map(list, m.table)), m.den),
                m * UnipotentMatrix.identity(n),
                m**3 * m**-2,
                m.inverse().inverse(),
                ref_exp(log_rows(log_unipotent(m))),
                product_of_word(gens, Word(2, [(0, 2), (1, 1)])),
                direct_sum([m]),
            ]
            for other in builds:
                assert other == m and hash(other) == hash(m)
                assert (other.table, other.den) == (m.table, m.den)
            ident = m * m.inverse()
            assert ident == UnipotentMatrix.identity(n)
            assert ident.den == 1 and hash(ident) == hash(UnipotentMatrix.identity(n))


def test_rows_and_entries_are_exact_fractions(rng):
    for n in range(1, 7):
        for _ in range(10):
            rows = [
                [
                    Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if j > i else int(i == j)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            m = from_rows(rows)
            assert rows_of(m) == tuple(tuple(map(Fraction, row)) for row in rows)
            assert all(type(v) is Fraction for row in rows_of(m) for v in row)
            assert _all_int(m)
            for i in range(n):
                for j in range(n):
                    assert type(entry(m, i, j)) is Fraction
                    assert entry(m, i, j) == rows[i][j]


def test_products_build_no_fraction_table(rng, monkeypatch):
    def products(mats):
        word = Word(3, [(0, 1), (1, 4), (2, 2**40), (0, 3)])
        return product_of_word(GeneratorSystem(mats), word), mats[0] * mats[1], mats[2] ** 5

    mats = [random_unipotent(rng, 5, bound=9) for _ in range(3)]
    want = products(mats)
    refuse_fractions(monkeypatch)
    # fresh copies, so their logs and power coefficients are computed here
    fresh = [UnipotentMatrix(m.table, m.den) for m in mats]
    assert products(fresh) == want


def _assert_reduced_log(log, n):
    """A log is one integer table over a positive denominator: strictly
    upper triangular, and gcd(D, every entry) = 1."""
    table, den = log
    assert type(den) is int and den > 0
    assert len(table) == n and all(len(row) == n for row in table)
    assert all(type(x) is int for row in table for x in row)
    assert all(not row[j] for i, row in enumerate(table) for j in range(i + 1))
    assert math.gcd(den, *(x for row in table for x in row)) == 1


def test_nilpotent_matrix_stores_one_reduced_integer_table(rng):
    for n in range(1, 7):
        for _ in range(10):
            m = random_unipotent(rng, n, bound=9)
            gens = GeneratorSystem([m, m**2])  # powers of one element commute
            w = Word(2, [(0, 3), (1, 1), (0, 2)])
            for log in (
                log_unipotent(m),
                m.integer_log(),
                (m * m.inverse()).integer_log(),
                bch_log(gens, parikh(w), delta_table(w)),
                bch_log(gens, (0, 0), {}),
            ):
                _assert_reduced_log(log, n)


def test_equal_nilpotent_matrices_have_one_form_however_built(rng):
    # equal logs are equal (X, D) pairs, whatever computed them
    for n in range(2, 7):
        for _ in range(10):
            m = random_unipotent(rng, n, bound=9)
            k = rng.randint(2, 30)
            scaled = tuple(tuple(k * x for x in row) for row in m.table)
            want = log_unipotent(m)
            same = [
                m.integer_log(),
                from_rows(rows_of(m)).integer_log(),  # a fresh log
                UnipotentMatrix(scaled, k * m.den).integer_log(),
                reduced_table(ref_log(m)),
                bch_log(GeneratorSystem([m]), [1], {}),
                bch_log(GeneratorSystem([m, m.inverse()]), [2, 1], {(0, 1): 2}),
            ]
            for other in same:
                assert other == want
            # log M^k = k log M, and log(M M^-1) = 0 over D = 1
            assert (m**k).integer_log() == reduced_table(ref_scale(ref_log(m), k))
            assert bch_log(GeneratorSystem([m]), [k], {}) == (m**k).integer_log()
            assert (m * m.inverse()).integer_log() == (_zero(n), 1)


def test_nilpotent_arithmetic_builds_no_fraction_table(rng, monkeypatch):
    # logs, the 2-step test, brackets and bch_log run on integer tables
    def algebra(mats):
        gens = GeneratorSystem(mats)
        w = Word(3, [(0, 2), (1, 1), (2, 5), (0, 1)])
        logs = [m.integer_log() for m in mats]
        return (
            logs,
            is_two_step(gens),
            bch_log(gens, parikh(w), delta_table(w)),
            _integer_bracket(logs[0][0], logs[1][0], mats[0].n),
        )

    mats = [_random_sparse_unipotent(rng, 5, _heisenberg_shape(5)) for _ in range(3)]
    want = algebra(mats)
    refuse_fractions(monkeypatch)
    # fresh copies, so their logs are computed here
    fresh = [UnipotentMatrix(m.table, m.den) for m in mats]
    assert algebra(fresh) == want


# ---- the kernel against the Fraction reference of conftest


def _ref_product_of_word(gens, word):
    """One copy of A multiplied in as A, a run of c > 1 as exp(c log A)."""
    acc = ref_identity(gens.n)
    for letter, count in word.runs:
        a = gens.mats[letter]
        factor = a if count == 1 else ref_exp(ref_scale(ref_log(a), count))
        acc = ref_mul(acc, rows_of(factor))
    return from_rows(acc)


def _dense_powers(m):
    """[N, N^2, ..., N^q] for N = den*(M - I), as Fraction tables from the
    reference product, up to the last nonzero power."""
    x = ref_scale(ref_combine(rows_of(m), ref_identity(m.n), -1), m.den)
    powers = []
    power = x
    while not _is_zero(power):
        powers.append(power)
        power = ref_mul(power, x)
    return powers


def _densify(sparse, n):
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(sparse):
        for j, v in row:
            rows[i][j] = v
    return tuple(map(tuple, rows))


def test_kept_powers_are_the_sparse_powers_of_n(rng):
    shapes = [random_unipotent(rng, n, bound=9) for n in range(1, 8)]
    shapes += [_random_sparse_unipotent(rng, n, _heisenberg_shape(n)) for n in (3, 5, 7)]
    shapes += [UnipotentMatrix.identity(4), _CHAIN4]
    for m in shapes:
        powers = m.nilpotent_powers()
        assert [_densify(p, m.n) for p in powers] == _dense_powers(m)
        for power in powers:
            assert len(power) == m.n
            for i, row in enumerate(power):
                assert all(j > i and v and type(v) is int for j, v in row)
                assert len({j for j, _ in row}) == len(row)


def test_powers_of_n_built_once_per_matrix(monkeypatch):
    # the log, every power, the inverse and every word product read the
    # one tuple of sparse powers that the matrix keeps
    real = matlie._sparse_powers
    calls = []
    monkeypatch.setattr(matlie, "_sparse_powers", lambda table: calls.append(table) or real(table))
    m = random_unipotent(random.Random(46), 5, bound=9)
    m.integer_log()
    m.integer_power(7)
    for e in POWERS:
        m**e
    m.inverse()
    for c in RUN_COUNTS:
        product_of_word(GeneratorSystem([m]), Word(1, [(0, c)]))
    assert calls == [m.table]
    assert m._powers == real(m.table)
    _assert_one_reduced_table(m)


def _assert_same_table(got, want):
    assert type(got) is type(want)
    assert rows_of(got) == rows_of(want), (got, want)
    assert _all_int(got), got


RUN_COUNTS = (1, 2, 3, 2**70)
POWERS = (-5, 0, 1, 7, 2**65)


def _assert_kernel_matches_reference(mats, rng):
    """log, bracket, powers and word products against the reference."""
    gens = GeneratorSystem(mats)
    logs = [log_unipotent(m) for m in mats]
    for m, log_m in zip(mats, logs):
        want_log = ref_log(m)
        assert log_m == reduced_table(want_log)
        for e in POWERS:
            _assert_same_table(m**e, ref_exp(ref_scale(want_log, e)))
        for other, log_other in zip(mats, logs):
            # the integer bracket of X/D and X'/D' is D D' times the bracket
            got = _integer_bracket(log_m[0], log_other[0], m.n), log_m[1] * log_other[1]
            assert log_rows(got) == ref_bracket(want_log, ref_log(other))
    for _ in range(3):
        runs = [
            (rng.randrange(len(mats)), rng.choice(RUN_COUNTS))
            for _ in range(rng.randint(1, 5))
        ]
        w = Word(len(mats), runs)
        _assert_same_table(product_of_word(gens, w), _ref_product_of_word(gens, w))
    # every run count on every letter, and the empty word
    for letter in range(len(mats)):
        w = Word(len(mats), [(letter, c) for c in RUN_COUNTS])
        _assert_same_table(product_of_word(gens, w), _ref_product_of_word(gens, w))
    _assert_same_table(product_of_word(gens, Word(len(mats))), UnipotentMatrix.identity(gens.n))


def _random_heisenberg_k(rng, field):
    def elem():
        return [_random_rational(rng) for _ in range(field.degree)]

    return embed_coords(field, 3, [elem()], [elem()], elem())


def test_kernel_matches_reference_on_rational_ut():
    rng = random.Random(41)
    for n in range(3, 13):
        mats = [random_unipotent(rng, n, bound=6) for _ in range(2)]
        _assert_kernel_matches_reference(mats, rng)


def test_powers_and_word_products_take_no_log(monkeypatch):
    # a power is the binomial series of M = I + N, so a witness check by
    # product_of_word never reaches the logarithm
    rng = random.Random(43)
    mats = [random_unipotent(rng, n, bound=6) for n in (2, 3, 4, 6) for _ in range(2)]
    want = [[ref_exp(ref_scale(ref_log(m), e)) for e in POWERS] for m in mats]
    words = [Word(1, [(0, c)]) for c in RUN_COUNTS]
    products = [[_ref_product_of_word(GeneratorSystem([m]), w) for w in words] for m in mats]

    def no_log(m):
        raise AssertionError("a power took the logarithm")

    monkeypatch.setattr(matlie, "log_unipotent", no_log)
    for m, powers, prods in zip(mats, want, products):
        for e, table in zip(POWERS, powers):
            _assert_same_table(m**e, table)
        _assert_same_table(m.inverse() * m, UnipotentMatrix.identity(m.n))
        for w, table in zip(words, prods):
            _assert_same_table(product_of_word(GeneratorSystem([m]), w), table)


def test_kernel_matches_reference_on_number_field_embeddings():
    rng = random.Random(42)
    for field in (NumberField([-2, 0, 1], 1), NumberField([-2, 0, 0, 1], 1)):
        for _ in range(3):
            mats = [_random_heisenberg_k(rng, field) for _ in range(3)]
            _assert_kernel_matches_reference(mats, rng)


def test_kernel_matches_reference_on_direct_sums():
    rng = random.Random(43)
    field = NumberField([-2, 0, 1], 1)
    for _ in range(3):
        mats = [
            direct_sum(
                [
                    h3(_random_rational(rng), _random_rational(rng), _random_rational(rng)),
                    _random_heisenberg_k(rng, field),
                    random_unipotent(rng, 3, bound=5),
                ]
            )
            for _ in range(2)
        ]
        _assert_kernel_matches_reference(mats, rng)


_entries = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 12)))


@st.composite
def _generator_sets(draw):
    n = draw(st.integers(2, 6))
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def matrix():
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for i, j in upper:
            rows[i][j] = draw(_entries)
        return from_rows(rows)

    return [matrix() for _ in range(draw(st.integers(1, 3)))], draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_generator_sets())
def test_kernel_matches_reference_hypothesis(drawn):
    mats, seed = drawn
    _assert_kernel_matches_reference(mats, random.Random(seed))


def test_identity_generator_has_zero_log():
    # X = 0 over D = 1: every power list is empty past I
    ident = UnipotentMatrix.identity(4)
    other = random_unipotent(random.Random(44), 4, bound=5)
    gens = GeneratorSystem([ident, other])
    assert ident.integer_log() == log_unipotent(ident) == (_zero(4), 1)
    (x0, _), (x1, _) = ident.integer_log(), other.integer_log()
    assert _integer_bracket(x0, x1, 4) == _integer_bracket(x1, x0, 4) == _zero(4)
    # the identity letter drops out of bch_log, whatever its count
    assert bch_log(gens, (5, 1), {(0, 1): 3}) == other.integer_log()
    for c in RUN_COUNTS:
        assert product_of_word(gens, Word(2, [(0, c)])) == ident
        assert product_of_word(gens, Word(2, [(1, 1), (0, c), (1, 2)])) == other**3
    for e in POWERS:
        assert ident**e == ident
        assert _all_int(ident**e)
    assert is_two_step(gens)
    _assert_kernel_matches_reference([ident, other], random.Random(45))
