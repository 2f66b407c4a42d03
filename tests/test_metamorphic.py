"""Oracle-free checks of verdicts: an instance and its image under a map
that preserves the problem must be decided alike.

`bfs_oracle` checks an Empty verdict only up to its depth.  A map that
sends an instance to an equivalent one checks the verdict at every
depth, and it moves the denominators, the cone orientation, the LP
presentation and the letter order, so the two decisions take different
numeric paths.

* Orbits in H3(Q) (the fuzz family F11, `test_orbit.f11_draws`, and
  the degenerate-letter family E99, `e99_draws`): the side swap
  (T, S, G, H) -> (S, T, H, G), and the automorphism
  (v, gamma) -> (A v, det A gamma) of the log coordinates, for A in
  GL2(Q), followed by conjugation by an element X.
* Intersections in UT(3, Q) (the planted family IW(3, 3),
  `test_orbit.iw_draws`, and the two sets G and H of each E99 draw),
  and in H5(Q) and in H3 over Q(sqrt 2) embedded into UT(6, Q)
  (seeded draws of 2-3 sets of 1-3 generators, about half planted
  nonempty, whose condition spaces have more pair columns): conjugation by an X in UT(n, Q), conjugation by a positive
  diagonal matrix (entry (i, j) scaled by d_j / d_i), and a permutation
  of the sets and of each set's generators.

Every map sends products to products, so a witness of the original,
relabelled as the map permutes letters, must verify on the image by
plain multiplication.  The verdicts must agree whenever both runs
decide.  A change of outcome class (a budget fired, or `Unsupported`)
is printed, not asserted: the easy orbit case picks its functional by
a rule that depends on the presentation, and some F11 and E99 draws
exhaust the interleaving budget on one side of the swap only.
"""

import collections
import itertools
import random
from fractions import Fraction

from nilsect import (
    BudgetExceeded,
    GeneratorSystem,
    IntersectionInstance,
    OrbitInstance,
    UnsupportedInstance,
    Verdict,
    Word,
    decide_intersection,
    decide_orbit,
    extract_witness,
    product_of_word,
)

from conftest import (
    entry,
    from_rows,
    h3,
    random_unipotent,
    rows_of,
    verify_orbit_witness,
    verify_witness,
)
from test_intersect import SQRT2, _field_heisenberg, _heisenberg
from test_orbit import f11_draws, iw_draws

F11_DRAWS = 300
IW_DRAWS = 100
E99_DRAWS = 400
H5_SQRT2_DRAWS = 160
# every orbit decision here runs under these options: the budget bounds
# the easy case's enumeration, and the depth the fallback's oracle
ORBIT_OPTIONS = {"interleave_budget": 2000, "oracle_depth": 5}

# A of det 1, -1, 2, 7, 3/2, 1 and 7/6
AUTOMORPHISMS = [
    ((1, 1), (0, 1)),
    ((0, 1), (1, 0)),
    ((2, 0), (0, 1)),
    ((2, 1), (1, 4)),
    ((Fraction(3, 2), 0), (0, 1)),
    ((-1, 0), (0, -1)),
    ((1, Fraction(-1, 2)), (Fraction(1, 3), 1)),
]


def _rational(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _outcome(decide):
    """(class, decision): the verdict's value, or the name of the
    exception that ended the run, with the decision or None."""
    try:
        d = decide()
    except (BudgetExceeded, UnsupportedInstance) as exc:
        return type(exc).__name__, None
    return d.verdict.value, d


def _decided(kind):
    return kind in (Verdict.EMPTY.value, Verdict.NONEMPTY.value)


def _orbit_outcome(inst):
    bounded = OrbitInstance(inst.T, inst.S, inst.G, inst.H, options=ORBIT_OPTIONS)
    return _outcome(lambda: decide_orbit(bounded))


def _h3_automorphism(A, X):
    """M -> X phi_A(M) X^-1, with phi_A the automorphism of H3(Q) that
    maps the log (a, b, gamma), gamma = c - ab/2, to (A (a, b), det A
    gamma)."""
    (p, q), (r, s) = A
    det = p * s - q * r
    x_inv = X.inverse()

    def image(m):
        a, b, c = entry(m, 0, 1), entry(m, 1, 2), entry(m, 0, 2)
        a2, b2 = p * a + q * b, r * a + s * b
        return X * h3(a2, b2, det * (c - a * b / 2) + a2 * b2 / 2) * x_inv

    return image


def _mapped_orbit(inst, image):
    def system(gens):
        return GeneratorSystem([image(m) for m in gens.mats])

    return OrbitInstance(image(inst.T), image(inst.S), system(inst.G), system(inst.H))


def _check_orbit_images(family, draws, rng):
    """Decide each orbit draw and its images under the side swap and
    under one of `AUTOMORPHISMS`, in turn, composed with conjugation by
    a random X.  The verdicts must agree where both runs decide, and
    every witness must transport; each move of outcome class is printed.
    Returns (verdict pairs compared, witnesses transported)."""
    moves, compared, transported = [], 0, 0
    for index, inst in enumerate(draws):
        kind, d = _orbit_outcome(inst)
        X = h3(_rational(rng), _rational(rng), _rational(rng))
        A = AUTOMORPHISMS[index % len(AUTOMORPHISMS)]
        images = {
            "swap": (OrbitInstance(inst.S, inst.T, inst.H, inst.G), True),
            f"A={A}": (_mapped_orbit(inst, _h3_automorphism(A, X)), False),
        }
        for name, (mapped, swapped) in images.items():
            other, _ = _orbit_outcome(mapped)
            if _decided(kind) and _decided(other):
                assert other == kind, (family, index, name)
                compared += 1
            elif other != kind:
                moves.append(f"{family} draw {index} under {name}: {kind} -> {other}")
            if kind == Verdict.NONEMPTY.value:
                v, w = d.witnesses
                pair = (w, v) if swapped else (v, w)
                assert verify_orbit_witness(mapped, *pair), (family, index, name)
                transported += 1
    for line in moves:
        print("outcome moved:", line)
    return compared, transported


def test_f11_verdicts_survive_swap_and_automorphism():
    draws = itertools.islice(f11_draws(), F11_DRAWS)
    compared, transported = _check_orbit_images("F11", draws, random.Random(2111))
    # 481 verdict pairs compared and 112 witnesses transported today
    assert compared >= 450 and transported >= 100


def e99_draws(count=E99_DRAWS):
    """The degenerate-letter family E99, as orbit instances:
    random.Random(99); each draw takes K, M in 1..3, then the K letters
    of G and the M of H, then G gains G[0]'s inverse if rng.random() <
    0.3, then H gains H[0]'s inverse under the same test, then T and S
    are drawn as letters.  A letter takes r = rng.random(): below 0.15
    the identity, below 0.3 a central h3(0, 0, c) with c =
    Fraction(randint(-2, 2), randint(1, 2)), below 0.45 h3(randint(-2,
    2), 0, 0), below 0.6 h3(0, randint(-2, 2), 0), and otherwise h3(a,
    b, c), each entry Fraction(randint(-2, 2), randint(1, 2)), drawn in
    the order a, b, c."""
    rng = random.Random(99)

    def entry_2():
        return Fraction(rng.randint(-2, 2), rng.randint(1, 2))

    def letter():
        r = rng.random()
        if r < 0.15:
            return h3(0, 0, 0)
        if r < 0.3:
            return h3(0, 0, entry_2())
        if r < 0.45:
            return h3(rng.randint(-2, 2), 0, 0)
        if r < 0.6:
            return h3(0, rng.randint(-2, 2), 0)
        return h3(*(entry_2() for _ in range(3)))

    for _ in range(count):
        K, M = rng.randint(1, 3), rng.randint(1, 3)
        G = [letter() for _ in range(K)]
        H = [letter() for _ in range(M)]
        if rng.random() < 0.3:
            G.append(G[0].inverse())
        if rng.random() < 0.3:
            H.append(H[0].inverse())
        T, S = letter(), letter()
        yield OrbitInstance(T, S, GeneratorSystem(G), GeneratorSystem(H))


def test_e99_verdicts_survive_swap_and_automorphism():
    compared, transported = _check_orbit_images("E99", e99_draws(), random.Random(2114))
    # 728 verdict pairs compared and 100 witnesses transported today; the
    # two draws that exhaust the budget (298 and 337) decide Empty swapped
    assert compared >= 700 and transported >= 90


def _conjugation(X):
    x_inv = X.inverse()
    return lambda m: X * m * x_inv


def _diagonal_scaling(d):
    """M -> D^-1 M D for D = diag(d): entry (i, j) times d_j / d_i."""

    def image(m):
        rows = rows_of(m)
        return from_rows(
            [[x * d[j] / d[i] for j, x in enumerate(row)] for i, row in enumerate(rows)]
        )

    return image


def _check_images(rng, inst, d, X, index):
    """Conjugation by X, a positive diagonal scaling and a permutation of
    the sets and generators each keep the verdict of the decision d, and
    carry its witnesses, if any, to witnesses of the image."""
    words = d.witnesses or [None] * inst.M
    scale = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(inst.n)]
    for image in (_conjugation(X), _diagonal_scaling(scale)):
        mapped = IntersectionInstance(
            [GeneratorSystem([image(m) for m in s.mats]) for s in inst.systems]
        )
        assert decide_intersection(mapped).verdict is d.verdict, index
        assert d.witnesses is None or verify_witness(mapped, words), index
    # sets in reverse order, each set's generators shuffled: letter a
    # of a set is letter inv[a] of its image
    systems, moved = [], []
    for s, word in reversed(list(zip(inst.systems, words))):
        perm = list(range(s.K))
        rng.shuffle(perm)
        inv = {a: k for k, a in enumerate(perm)}
        systems.append(GeneratorSystem([s.mats[a] for a in perm]))
        moved.append(word and word.relabel(inv, s.K))
    mapped = IntersectionInstance(systems)
    assert decide_intersection(mapped).verdict is d.verdict, index
    assert d.witnesses is None or verify_witness(mapped, moved), index


def test_iw_verdicts_survive_conjugation_scaling_and_permutation():
    rng = random.Random(2112)
    checked = 0
    for index, (inst, _, _) in enumerate(iw_draws(3, 3, count=IW_DRAWS)):
        d = extract_witness(inst, decide_intersection(inst))
        assert d.verdict is Verdict.NONEMPTY, index
        X = h3(_rational(rng), _rational(rng), _rational(rng))
        _check_images(rng, inst, d, X, index)
        checked += 1
    assert checked == IW_DRAWS


def test_e99_intersections_survive_conjugation_scaling_and_permutation():
    # the intersection of G and H of every E99 draw: identity, central,
    # on-axis and inverse letters
    rng = random.Random(2115)
    verdicts = collections.Counter()
    for index, orbit in enumerate(e99_draws()):
        inst = IntersectionInstance([orbit.G, orbit.H])
        d = decide_intersection(inst)
        if d.verdict is Verdict.NONEMPTY:
            d = extract_witness(inst, d)
        X = h3(_rational(rng), _rational(rng), _rational(rng))
        _check_images(rng, inst, d, X, index)
        verdicts[d.verdict] += 1
    assert verdicts == {Verdict.EMPTY: 196, Verdict.NONEMPTY: 204}


def _h5_sqrt2_draws(rng, count):
    """Intersection instances in H5(Q), as 4 x 4 matrices, and in H3 over
    Q(sqrt 2), embedded into UT(6, Q), in turn: 2-3 sets of 1-3
    generators each.  About half have the last generator of every later
    set replaced by one word over the first set, which makes them
    nonempty."""
    families = [lambda: _heisenberg(rng, 4), lambda: _field_heisenberg(rng, SQRT2)]
    for index in range(count):
        family = families[index % 2]
        sets = [
            [family() for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(2, 3))
        ]
        if rng.random() < 0.5:
            gens = GeneratorSystem(sets[0])
            runs = [(rng.randrange(gens.K), rng.randint(1, 2)) for _ in range(3)]
            planted = product_of_word(gens, Word(gens.K, runs))
            for later in sets[1:]:
                later[-1] = planted
        yield IntersectionInstance([GeneratorSystem(s) for s in sets])


def test_h5_and_sqrt2_verdicts_survive_conjugation_scaling_and_permutation():
    rng = random.Random(2113)
    verdicts = collections.Counter()
    pair_columns = []
    for index, inst in enumerate(_h5_sqrt2_draws(rng, H5_SQRT2_DRAWS)):
        d = decide_intersection(inst)
        if d.verdict is Verdict.NONEMPTY:
            d = extract_witness(inst, d)
            pair_columns.append(d.details["lift"].width - len(d.details["support_point"]))
        _check_images(rng, inst, d, random_unipotent(rng, inst.n, 3), index)
        verdicts[d.verdict] += 1
    # both verdicts, and witnesses lifted through pair columns, up to
    # several in one final condition space: 91 NonEmpty and 69 Empty
    # today, 50 witnesses with pair columns and at most 6 of them
    assert min(verdicts.values()) >= 50 and len(verdicts) == 2, verdicts
    assert sum(map(bool, pair_columns)) >= 30 and max(pair_columns) >= 4
