from fractions import Fraction
from pathlib import Path

import pytest

from nilsect import intersect, linsolve
from nilsect import (
    Decision,
    GeneratorSystem,
    IntersectionInstance,
    NumberField,
    UnipotentMatrix,
    Verdict,
    Word,
    bfs_oracle,
    build_condition_space,
    decide_intersection,
    direct_sum,
    eliminate,
    extract_witness,
    load_instance_file,
    product_of_word,
)
from nilsect.wordcraft import total_letters

from conftest import (
    cleared,
    embed_coords,
    entry,
    fractions_of,
    from_rows,
    h3,
    random_h3_system,
    random_unipotent,
    ref_bracket,
    ref_log,
    subspace_contains,
    verify_witness,
)
from test_orbit import iw_draws


def make(instance_sets):
    return IntersectionInstance([GeneratorSystem(s) for s in instance_sets])


X, Y, Z = h3(1, 0, 0), h3(0, 1, 0), h3(0, 0, 1)


def test_condition_space_single_shared_generator():
    inst = make([[X], [X]])
    rows = build_condition_space(inst, [frozenset({0}), frozenset({0})])
    assert subspace_contains(rows, 2, [1, 1])
    assert subspace_contains(rows, 2, [5, 5])
    assert not subspace_contains(rows, 2, [1, 2])


def test_condition_space_disjoint_generators():
    inst = make([[X], [Y]])
    rows = build_condition_space(inst, [frozenset({0}), frozenset({0})])
    # the a-entry forces l11 = 0, the b-entry forces l21 = 0
    assert subspace_contains(rows, 2, [0, 0])
    assert not subspace_contains(rows, 2, [1, 0])
    assert not subspace_contains(rows, 2, [0, 1])


def test_condition_space_empty_supports_has_no_pair_coords():
    inst = make([[X, Y], [Z]])
    supports = [frozenset(), frozenset()]
    assert intersect._columns(inst, supports) == ([0, 2, 3], [])
    rows = build_condition_space(inst, supports)
    # l1 X + l2 Y = l3 Z, entries (0, 1), (0, 2) and (1, 2): count columns only
    assert rows == [(1, 0, 0), (0, 0, -1), (0, 1, 0)]


def test_rejects_non_two_step():
    def e(i, j):
        rows = [[1 if a == b else 0 for b in range(4)] for a in range(4)]
        rows[i][j] = 1
        return from_rows(rows)

    with pytest.raises(ValueError):
        make([[e(0, 1), e(1, 2)], [e(2, 3)]])


def test_shared_generator_nonempty():
    inst = make([[X], [X]])
    d = decide_intersection(inst)
    assert d.verdict is Verdict.NONEMPTY
    d = extract_witness(inst, d)
    assert verify_witness(inst, d.witnesses)
    assert d.common_element == X ** total_letters(d.witnesses[:1])


def test_disjoint_singletons_empty():
    d = decide_intersection(make([[X], [Y]]))
    assert d.verdict is Verdict.EMPTY


def test_commutator_instance_nonempty_with_witness():
    inst = make([[X, Y, X.inverse(), Y.inverse()], [Z]])
    d = decide_intersection(inst)
    assert d.verdict is Verdict.NONEMPTY
    d = extract_witness(inst, d)
    assert verify_witness(inst, d.witnesses)
    # the common element is a power of the central generator
    ce = d.common_element
    assert entry(ce, 0, 1) == 0 and entry(ce, 1, 2) == 0 and entry(ce, 0, 2) > 0


def test_mixed_products_nonempty():
    inst = make([[X * Y, Y * X], [X, Y]])
    d = extract_witness(inst, decide_intersection(inst))
    assert d.verdict is Verdict.NONEMPTY
    assert verify_witness(inst, d.witnesses)


def test_witness_extraction_requires_nonempty():
    inst = make([[X], [Y]])
    d = decide_intersection(inst)
    with pytest.raises(ValueError):
        extract_witness(inst, d)


def test_verify_witness_examples():
    x = Word.from_letters(1, [0])
    inst = make([[X], [X]])
    assert verify_witness(inst, [x, x])
    assert intersect._common_product(inst, [x, x]) == X
    inst = make([[X], [Y]])
    assert not verify_witness(inst, [x, x])
    assert intersect._common_product(inst, [x, x]) is None
    inst = make([[X, Y], [X, Y]])
    w = Word.from_letters(2, [0, 1])
    assert verify_witness(inst, [w, w])
    assert intersect._common_product(inst, [w, w]) == X * Y


def test_monotone_support_loop(rng):
    # the summed support size never grows along the trace
    for _ in range(40):
        inst = IntersectionInstance(
            [random_h3_system(rng, rng.randint(1, 3)) for _ in range(2)]
        )
        d = decide_intersection(inst)
        sizes = [
            sum(len(s) for s in step["supports"]) for step in d.trace
        ]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert d.details["iterations"] <= sum(s.K for s in inst.systems) + 1


def test_homogeneity_of_verdict(rng):
    # replacing each generator A by A^k preserves the verdict
    for _ in range(15):
        sets = [
            [
                h3(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
                for _ in range(rng.randint(1, 3))
            ]
            for _ in range(2)
        ]
        k = rng.randint(2, 4)
        base = decide_intersection(make(sets))
        powered = decide_intersection(
            make([[m**k for m in s] for s in sets])
        )
        assert base.verdict == powered.verdict


def test_oracle_agreement_sample(rng):
    # small version of the acceptance criterion
    for _ in range(60):
        inst = IntersectionInstance(
            [random_h3_system(rng, rng.randint(1, 3)) for _ in range(2)]
        )
        d = decide_intersection(inst)
        found = bfs_oracle(inst, 6)
        if d.verdict is Verdict.EMPTY:
            assert found is None
        else:
            d = extract_witness(inst, d)
            assert verify_witness(inst, d.witnesses)


def test_identity_problem_specialization(rng):
    ident = UnipotentMatrix.identity(3)
    for _ in range(25):
        sys = random_h3_system(rng, rng.randint(1, 3))
        inst = IntersectionInstance([sys, GeneratorSystem([ident])])
        d = decide_intersection(inst)
        found = bfs_oracle(inst, 6)
        if found is not None:
            assert d.verdict is Verdict.NONEMPTY
        if d.verdict is Verdict.EMPTY:
            assert found is None


def test_three_way_intersection():
    assert decide_intersection(make([[X], [X], [X]])).verdict is Verdict.NONEMPTY
    assert decide_intersection(make([[X], [X], [Y]])).verdict is Verdict.EMPTY
    inst = make([[X, Y], [X * Y], [X * Y * X * Y]])
    d = extract_witness(inst, decide_intersection(inst))
    assert d.verdict is Verdict.NONEMPTY
    assert verify_witness(inst, d.witnesses)


def test_single_set_instance():
    d = decide_intersection(make([[X, Y]]))
    assert d.verdict is Verdict.NONEMPTY


def test_witness_past_index_sized_length():
    # the words total more than 2^63 - 1 letters, where len() overflows
    path = Path(__file__).resolve().parent / "data" / "h5q-k6-long-witness.txt"
    inst = load_instance_file(path).build()
    d = decide_intersection(inst)
    assert d.verdict is Verdict.NONEMPTY
    w = extract_witness(inst, d)
    assert verify_witness(inst, w.witnesses)
    letters = total_letters(w.witnesses)
    assert letters > 2**63
    assert letters == sum(count for word in w.witnesses for _, count in word.runs)


# ---------------------------------------------------------------------------
# The solve that the stored lift replaced, kept as the reference: one
# exact row reduction of the final condition space with the counts fixed,
# every free pair coordinate set to 0 and each pivot row divided by its
# pivot entry, scaled to integers.


def _reference_lift(rows, width, fixed):
    nfix = len(fixed)
    nfree = width - nfix
    rows = [
        list(row[nfix:]) + [-sum(a * v for a, v in zip(row, fixed) if a and v)]
        for row in rows
    ]
    mat, pivots = linsolve._row_reduce(rows, range(nfree))
    pivot_rows = {r for r, _ in pivots}
    if any(row[nfree] for i, row in enumerate(mat) if i not in pivot_rows):
        raise AssertionError("point lies outside the projection (defect)")
    rest = [Fraction(0)] * nfree
    for r, c in pivots:
        rest[c] = Fraction(mat[r][nfree], mat[r][c])
    return [Fraction(v) for v in fixed] + rest


def _width(inst, supports):
    """The number of columns of the condition space."""
    starts, pairs = intersect._columns(inst, supports)
    return starts[-1] + len(pairs)


def _lift_instances(rng):
    for _ in range(60):
        if rng.random() < 0.5:
            systems = [random_h3_system(rng, rng.randint(1, 3)) for _ in range(2)]
        else:
            systems = [
                GeneratorSystem([random_unipotent(rng, 3, 3) for _ in range(rng.randint(1, 3))])
                for _ in range(rng.randint(2, 3))
            ]
        yield IntersectionInstance(systems)


def test_lift_lies_in_condition_space(rng):
    # on a NonEmpty decision, the stored lift keeps the projected counts,
    # solves every equation of the final space and is the reference
    # solve's point; an Empty decision stops at an empty support set and
    # keeps no point and no lift
    lifted = empty = 0
    for inst in _lift_instances(rng):
        d = decide_intersection(inst)
        supports = d.details["final_supports"]
        if d.verdict is Verdict.EMPTY:
            assert any(not s for s in supports)
            assert "lift" not in d.details and "support_point" not in d.details
            empty += 1
            continue
        ell = d.details["support_point"]
        rows = build_condition_space(inst, supports)
        width = _width(inst, supports)
        lift = d.details["lift"]
        assert lift.width == width
        point = fractions_of(lift(ell))
        assert subspace_contains(rows, width, point)
        assert point[: len(ell)] == list(ell)
        assert point == _reference_lift(rows, width, ell)
        assert [bool(v) for v in ell] == [
            j in supports[m] for m, sys in enumerate(inst.systems) for j in range(sys.K)
        ]
        lifted += any(point[len(ell):])
    assert lifted > 10  # nonzero pair coordinates were solved for
    assert empty > 5


def test_lift_matches_reference_solve(rng):
    # the integer point (l, c) behind every witness is the one the
    # reference solve gives, on both seeded families
    witnessed = 0
    instances = list(_lift_instances(rng)) + _space_instances(rng)
    for inst in instances:
        d = decide_intersection(inst)
        if d.verdict is not Verdict.NONEMPTY:
            continue
        supports = d.details["final_supports"]
        starts, pairs = intersect._columns(inst, supports)
        rows = build_condition_space(inst, supports)
        want = cleared(_reference_lift(rows, _width(inst, supports), d.details["support_point"]))
        seen = []
        with pytest.MonkeyPatch.context() as patch:
            real = intersect.realize_word
            patch.setattr(
                intersect,
                "realize_word",
                lambda counts, deltas: seen.append((counts, deltas)) or real(counts, deltas),
            )
            w = extract_witness(inst, d)
        N = w.details["scale"]
        assert len(seen) == inst.M
        for m, (counts, deltas) in enumerate(seen):
            letters = sorted(supports[m])
            assert counts == [N * want[starts[m] + j] for j in letters]
            assert deltas == {
                (a, b): 2 * N * want[starts[-1] + pairs.index((m, letters[a], letters[b]))]
                for a in range(len(letters))
                for b in range(a + 1, len(letters))
            }
        witnessed += 1
    assert witnessed > 30


def test_lift_outside_projection_is_a_defect():
    inst = make([[X, Y], [Z]])
    rows = build_condition_space(inst, [frozenset({0, 1}), frozenset({0})])
    # l1 X + l2 Y + c [X, Y] = l3 Z forces l1 = l2 = 0 and c = l3
    _, lift = eliminate(rows, 4, 3)
    assert lift((0, 0, 5)) == ([0, 0, 5, 5], 1)
    assert _reference_lift(rows, 4, (0, 0, 5)) == [0, 0, 5, 5]
    with pytest.raises(AssertionError, match="outside the projection"):
        lift((1, 0, 1))
    inst = make([[X], [Y]])
    rows = build_condition_space(inst, [frozenset({0}), frozenset({0})])
    _, lift = eliminate(rows, 2, 2)
    with pytest.raises(AssertionError, match="outside the projection"):
        lift((1, 0))


def test_support_point_moved_off_the_projection_gives_no_witness():
    # X, Y and their inverses against Z: the counts of X and X^-1 (and
    # of Y and Y^-1) must agree, so one more X leaves the projection
    inst = make([[X, Y, X.inverse(), Y.inverse()], [Z]])
    d = decide_intersection(inst)
    assert d.verdict is Verdict.NONEMPTY
    assert verify_witness(inst, extract_witness(inst, d).witnesses)
    moved = list(d.details["support_point"])
    moved[0] += 1
    d.details["support_point"] = tuple(moved)
    with pytest.raises(AssertionError, match="outside the projection"):
        extract_witness(inst, d)


def _small_nonempty():
    return [
        make([[X, Y, X.inverse(), Y.inverse()], [Z]]),
        make([[X * Y, Y * X], [X, Y]]),
        make([[X, Y], [X * Y], [X * Y * X * Y]]),
    ]


def test_extract_witness_solves_no_lp(monkeypatch):
    # the decision's last round already holds the point that is lifted
    instances = _small_nonempty()
    decisions = [decide_intersection(inst) for inst in instances]
    calls = []
    real = linsolve._simplex_feasible
    monkeypatch.setattr(
        linsolve,
        "_simplex_feasible",
        lambda *args: calls.append(args) or real(*args),
    )
    for inst, d in zip(instances, decisions):
        w = extract_witness(inst, d)
        assert verify_witness(inst, w.witnesses)
    assert calls == []


def test_extract_witness_builds_no_condition_space(monkeypatch):
    # the decision keeps its final round's lift, and the witness uses it
    instances = _small_nonempty()
    decisions = [decide_intersection(inst) for inst in instances]
    calls = []
    real = intersect.build_condition_space
    monkeypatch.setattr(
        intersect,
        "build_condition_space",
        lambda *args: calls.append(args) or real(*args),
    )
    for inst, d in zip(instances, decisions):
        w = extract_witness(inst, d)
        assert verify_witness(inst, w.witnesses)
    assert calls == []
    for inst, d in zip(instances, decisions):
        supports = d.details["final_supports"]
        counts = sum(sys.K for sys in inst.systems)
        rows = real(inst, supports)
        assert d.details["lift"] == eliminate(rows, _width(inst, supports), counts)[1]


def test_extract_witness_runs_no_row_reduction(monkeypatch):
    # the lift is read off the decision's own elimination: the witness
    # reduces no rows, through linsolve or a name imported from it
    instances = _small_nonempty()
    decisions = [decide_intersection(inst) for inst in instances]
    calls = []
    real = linsolve._row_reduce

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linsolve, "_row_reduce", counted)
    monkeypatch.setattr(intersect, "_row_reduce", counted, raising=False)
    for inst, d in zip(instances, decisions):
        w = extract_witness(inst, d)
        assert verify_witness(inst, w.witnesses)
    assert calls == []


# ---------------------------------------------------------------------------
# The condition space on Fraction rows, from the Fraction logs and brackets
# of the generators, that the integer rows replaced; kept as the reference,
# as named columns and Fraction rows, and as those rows each cleared of
# its own denominators.


def _reference_condition_rows(inst, supports):
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
        logs = [ref_log(mat) for mat in inst.systems[m].mats]
        cols = []
        for j, x in enumerate(logs):
            cols.append((index[("l", m, j)], x))
        ordered = sorted(supports[m])
        for a in range(len(ordered)):
            for b in range(a + 1, len(ordered)):
                i, j = ordered[a], ordered[b]
                cols.append((index[("c", m, i, j)], ref_bracket(logs[i], logs[j])))
        return cols

    rows = []
    per_m = [expression_columns(m) for m in range(inst.M)]
    for m in range(inst.M - 1):
        for r in range(n):
            for c in range(r + 1, n):
                row = [Fraction(0)] * len(coords)
                nonzero = False
                for col, mat in per_m[m]:
                    v = mat[r][c]
                    if v:
                        row[col] += v
                        nonzero = True
                for col, mat in per_m[m + 1]:
                    v = mat[r][c]
                    if v:
                        row[col] -= v
                        nonzero = True
                if nonzero:
                    rows.append(tuple(row))
    return coords, rows


def _reference_build_condition_space(inst, supports):
    _, rows = _reference_condition_rows(inst, supports)
    return [cleared(row) for row in rows]


SQRT2 = NumberField([-2, 0, 1], 1)
CBRT2 = NumberField([-2, 0, 0, 1], 1)
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _heisenberg(rng, n, bound=2, den=1):
    """Random element of H_(2n-3)(Q) as an n x n matrix: a row, a column
    and a corner."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(1, n - 1):
        rows[0][j] = Fraction(rng.randint(-bound, bound), rng.randint(1, den))
        rows[j][n - 1] = Fraction(rng.randint(-bound, bound), rng.randint(1, den))
    rows[0][n - 1] = Fraction(rng.randint(-bound, bound), rng.randint(1, den))
    return from_rows(rows)


def _field_heisenberg(rng, field):
    def elem():
        return [Fraction(rng.randint(-2, 2)) for _ in range(field.degree)]

    return embed_coords(field, 3, [elem()], [elem()], elem())


def _space_instances(rng):
    """Intersection instances of the samples and of seeded families:
    H3(Q), UT(3) with rational entries, H5(Q), H3 over Q(sqrt 2) and
    Q(cbrt 2) embedded into UT(6) and UT(9), and direct sums.  About half
    the seeded ones get a last generator equal to a word over the first
    set, which makes them nonempty."""
    out = [
        inst
        for path in sorted(SAMPLES.glob("*.txt"))
        for inst in [load_instance_file(path).build()]
        if isinstance(inst, IntersectionInstance)
    ]
    families = [
        lambda: _heisenberg(rng, 3),
        lambda: _heisenberg(rng, 3, bound=5, den=4),
        lambda: _heisenberg(rng, 4),
        lambda: _field_heisenberg(rng, SQRT2),
        lambda: _field_heisenberg(rng, CBRT2),
        lambda: direct_sum([_heisenberg(rng, 3), _field_heisenberg(rng, SQRT2)]),
    ]
    for family in families:
        for _ in range(6):
            sets = [
                [family() for _ in range(rng.randint(1, 3))]
                for _ in range(rng.choice((2, 2, 3)))
            ]
            if rng.random() < 0.5:
                gens = GeneratorSystem(sets[0])
                runs = [(rng.randrange(gens.K), rng.randint(1, 2)) for _ in range(3)]
                sets[-1].append(product_of_word(gens, Word(gens.K, runs)))
            out.append(make(sets))
    return out


def _positive_multiple(row, ref):
    k = next((i for i, v in enumerate(ref) if v), None)
    if k is None:
        return not any(row)
    q = Fraction(row[k]) / ref[k]
    return q > 0 and all(a == q * b for a, b in zip(row, ref))


def test_condition_space_matches_reference(rng):
    rows = 0
    for inst in _space_instances(rng):
        full = [frozenset(range(sys.K)) for sys in inst.systems]
        shrunk = [
            frozenset(j for j in range(sys.K) if rng.random() < 0.6)
            for sys in inst.systems
        ]
        for supports in (full, shrunk):
            got = build_condition_space(inst, supports)
            coords, want = _reference_condition_rows(inst, supports)
            # the layout names the reference's columns in its order
            starts, pairs = intersect._columns(inst, supports)
            assert coords == [
                ("l", m, j) for m, sys in enumerate(inst.systems) for j in range(sys.K)
            ] + [("c", *pair) for pair in pairs]
            assert starts == [coords.index(("l", m, 0)) for m in range(inst.M)] + [
                len(coords) - len(pairs)
            ]
            assert len(got) == len(want)
            for row, ref in zip(got, want):
                assert len(row) == len(coords) and all(type(v) is int for v in row)
                assert _positive_multiple(row, ref), (row, ref)
            rows += len(got)
    assert rows > 500


def test_decisions_match_reference_space(rng, monkeypatch):
    # details, the stored lift among them, and witness runs are those
    # the Fraction space gives
    def answer(inst):
        d = decide_intersection(inst)
        runs = None
        if d.verdict is Verdict.NONEMPTY:
            d = extract_witness(inst, d)
            runs = [w.runs for w in d.witnesses]
        return d.verdict, d.trace, d.details, runs

    witnessed = 0
    for inst in _space_instances(rng):
        got = answer(inst)
        with monkeypatch.context() as patch:
            patch.setattr(
                intersect, "build_condition_space", _reference_build_condition_space
            )
            want = answer(inst)
        assert got == want
        witnessed += got[3] is not None
    assert witnessed > 10


# ---------------------------------------------------------------------------
# The support loop without the early stop, kept as the reference: it runs
# until a round leaves every support set unchanged, even after one is empty.


def _reference_decide(inst):
    supports = [frozenset(range(sys.K)) for sys in inst.systems]
    trace = []
    rounds = 0
    while True:
        rounds += 1
        counts = sum(sys.K for sys in inst.systems)
        rows = build_condition_space(inst, supports)
        projected, lift = eliminate(rows, _width(inst, supports), counts)
        point = linsolve.support_nonneg(projected, counts)
        ell = [(m, j) for m, sys in enumerate(inst.systems) for j in range(sys.K)]
        support = [name for name, v in zip(ell, point) if v]
        new_supports = [
            frozenset(j for j in supports[m] if (m, j) in support)
            for m in range(inst.M)
        ]
        trace.append(
            {
                "iteration": rounds,
                "supports": [sorted(s) for s in supports],
                "projected_support": support,
            }
        )
        if new_supports == supports:
            break
        supports = new_supports
    verdict = Verdict.EMPTY if any(not s for s in supports) else Verdict.NONEMPTY
    details = {
        "final_supports": supports,
        "iterations": rounds,
        "support_point": point,
        "lift": lift,
    }
    return Decision(verdict, trace=trace, details=details)


def _left_by(step):
    """The support sets a trace entry leaves."""
    projected = set(map(tuple, step["projected_support"]))
    return [
        frozenset(j for j in sup if (m, j) in projected)
        for m, sup in enumerate(step["supports"])
    ]


def test_early_stop_matches_reference_loop(rng):
    instances = list(_lift_instances(rng)) + _space_instances(rng)
    for _ in range(40):
        instances.append(
            IntersectionInstance(
                [random_h3_system(rng, rng.randint(1, 3)) for _ in range(rng.choice((2, 2, 3)))]
            )
        )
    shortened = witnessed = 0
    for inst in instances:
        got = decide_intersection(inst)
        want = _reference_decide(inst)
        assert got.verdict is want.verdict
        if got.verdict is Verdict.NONEMPTY:
            assert got.trace == want.trace
            assert got.details == want.details
            runs = [w.runs for w in extract_witness(inst, got).witnesses]
            assert runs == [w.runs for w in extract_witness(inst, want).witnesses]
            witnessed += 1
            continue
        first = next(
            r for r, step in enumerate(want.trace) if any(not s for s in _left_by(step))
        )
        assert got.trace == want.trace[: first + 1]
        assert got.details == {
            "final_supports": _left_by(want.trace[first]),
            "iterations": first + 1,
        }
        shortened += len(got.trace) < len(want.trace)
    assert witnessed > 30 and shortened > 30


def _count_lps(monkeypatch, inst):
    calls = []
    real = linsolve.lp_feasible
    with monkeypatch.context() as patch:
        patch.setattr(linsolve, "lp_feasible", lambda *a: calls.append(a) or real(*a))
        d = decide_intersection(inst)
    return d, len(calls)


@pytest.mark.parametrize(
    "name, verdict, rounds, lps, reference_rounds",
    [
        ("disjoint.txt", Verdict.EMPTY, 1, 2, 2),
        ("sqrt2-intersection.txt", Verdict.EMPTY, 1, 2, 2),
        ("commutator.txt", Verdict.NONEMPTY, 1, 3, 1),
    ],
)
def test_sample_lp_counts(monkeypatch, name, verdict, rounds, lps, reference_rounds):
    # without the early stop and the remainder LPs, each Empty sample
    # took 2 rounds and 4 LPs
    inst = load_instance_file(SAMPLES / name).build()
    d, calls = _count_lps(monkeypatch, inst)
    assert (d.verdict, d.details["iterations"], len(d.trace), calls) == (
        verdict,
        rounds,
        rounds,
        lps,
    )
    assert _reference_decide(inst).details["iterations"] == reference_rounds


def test_commutator_sample_point_scale_and_runs():
    # pinned: the support point of the projection, the witness scale and
    # the witness runs of samples/commutator.txt, which a change of the
    # phase-1 simplex's choices (its costs or its pivot rule) would move
    inst = load_instance_file(SAMPLES / "commutator.txt").build()
    d = decide_intersection(inst)
    assert d.details["support_point"] == (1, 1, 1, 1, 1)
    w = extract_witness(inst, d)
    assert w.details["scale"] == 1156
    assert [word.runs for word in w.witnesses] == [
        (
            (0, 4), (1, 4), (2, 4), (3, 4), (0, 192), (1, 192), (0, 191),
            (2, 8), (0, 1), (2, 184), (0, 191), (3, 8), (0, 1), (3, 184),
            (1, 191), (2, 8), (1, 1), (2, 184), (1, 191), (3, 8), (1, 1),
            (3, 184), (2, 191), (3, 8), (2, 1), (3, 376), (2, 192), (3, 192),
            (1, 192), (2, 192), (1, 192), (3, 192), (0, 192), (2, 192),
            (0, 197), (1, 4), (0, 1), (1, 188), (0, 186),
        ),
        ((0, 1156),),
    ]


def test_iw_wide_entry_draws_have_witnesses():
    # 3- and 4-digit entries over denominators up to 100: the witness runs
    # reach about 2^99 letters, and the products multiply them out by one
    # binomial step per run on wide integers
    widest = 0
    for index, (inst, w1, p) in enumerate(iw_draws(1000, 100, count=20)):
        m = inst.systems[1].K - 1  # C, the last letter of the second set
        assert verify_witness(inst, [w1, Word(m + 1, [*p.runs, (m, 1)])]), index
        d = decide_intersection(inst)
        assert d.verdict is Verdict.NONEMPTY, index
        d = extract_witness(inst, d)
        assert verify_witness(inst, d.witnesses), index
        widest = max(widest, *(c.bit_length() for w in d.witnesses for _, c in w.runs))
    assert widest > 64
