import random
from fractions import Fraction

from nilsect import (
    GeneratorSystem,
    IntersectionInstance,
    OrbitInstance,
    UnipotentMatrix,
    Word,
    bfs_oracle,
    product_of_word,
)

from conftest import h3

# ---------------------------------------------------------------------------
# The breadth-first enumeration on Fraction rows that the reduced integer
# pairs replaced, kept as the reference: products of Fraction tables,
# hash-consed on the tables themselves.


def _mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _reference_products(gens, depth):
    seen = {}
    frontier = {}
    for i, g in enumerate(gens):
        if g not in seen:
            seen[g] = frontier[g] = (i,)
    for _ in range(depth - 1):
        nxt = {}
        for p, word in frontier.items():
            for i, g in enumerate(gens):
                q = _mul(p, g)
                if q not in seen:
                    seen[q] = nxt[q] = word + (i,)
        frontier = nxt
    return seen


def _rows(mat):
    return tuple(tuple(row) for row in mat.rows)


def _reference_oracle(inst, depth):
    """(letter tuples, Fraction table) of the first collision, or None."""
    if isinstance(inst, IntersectionInstance):
        maps = [
            _reference_products([_rows(m) for m in sys.mats], depth)
            for sys in inst.systems
        ]
        common = [key for key in maps[0] if all(key in mp for mp in maps)]
        if not common:
            return None
        best = min(
            common,
            key=lambda key: (
                sum(len(mp[key]) for mp in maps),
                tuple(mp[key] for mp in maps),
            ),
        )
        return tuple(mp[best] for mp in maps), best
    sides = []
    for start, sys in ((inst.T, inst.G), (inst.S, inst.H)):
        side = {}
        for p, w in _reference_products([_rows(m) for m in sys.mats], depth).items():
            side.setdefault(_mul(_rows(start), p), w)
        sides.append(side)
    left, right = sides
    common = [key for key in left if key in right]
    if not common:
        return None
    best = min(
        common,
        key=lambda key: (len(left[key]) + len(right[key]), left[key], right[key]),
    )
    return (left[best], right[best]), best


def _rational_h3(rng):
    def q():
        return Fraction(rng.randint(-2, 2), rng.randint(1, 3))

    return h3(q(), q(), q())


def _rational_instances(rng, count):
    """Seeded H3(Q) intersection and orbit instances with denominators up
    to 3; about half get a planted collision of length <= 3 a side."""
    out = []
    for idx in range(count):
        planted = rng.random() < 0.5
        sets = [
            [_rational_h3(rng) for _ in range(rng.randint(1, 2))] for _ in range(2)
        ]
        word = Word(len(sets[0]), [(rng.randrange(len(sets[0])), 1) for _ in range(3)])
        if idx % 2 == 0:
            if planted:
                sets[1].append(product_of_word(GeneratorSystem(sets[0]), word))
            out.append(IntersectionInstance(sets))
        else:
            G, H = (GeneratorSystem(s) for s in sets)
            T = _rational_h3(rng)
            if planted:
                w = Word(H.K, [(0, 2)])
                S = T * product_of_word(G, word) * product_of_word(H, w).inverse()
            else:
                S = _rational_h3(rng)
            out.append(OrbitInstance(T, S, G, H))
    return out


def test_oracle_matches_fraction_reference():
    rng = random.Random(5)
    collisions = 0
    instances = _rational_instances(rng, 60)
    assert sum(
        m.den > 1
        for inst in instances
        for sys in getattr(inst, "systems", None) or (inst.G, inst.H)
        for m in sys.mats
    ) > 60
    for inst in instances:
        found = bfs_oracle(inst, 4)
        want = _reference_oracle(inst, 4)
        if want is None:
            assert found is None
            continue
        letters, table = want
        assert tuple(tuple(w.letters()) for w in found.words) == letters
        assert found.element == UnipotentMatrix(table)
        collisions += 1
    assert collisions > 15
