"""Seeded known-answer corpora for the benchmark workloads.

Every instance is planted with an answer that follows from an argument
which does not use the program:

* NonEmpty: the sets share an explicit product.  Intersection sets are
  completed by one generator so that a planted word over every set
  multiplies to the same matrix; orbit instances set
  S = T * prod(v) * prod(w)^-1 for seeded words v over G and w over H.
* Empty by a functional (intersections): one rational coordinate of the
  additive `a` entry is positive on every generator of one set and
  negative on every generator of another.  The coordinate is a
  homomorphism to (Q, +), so the semigroups take values of opposite signs.
* Empty by integrality (orbits): all generators have integer entries and
  T = I, while S has integer `a` and a non-integer corner; every element
  of S<H> then has a non-integer corner and no element of <G> does.

Each workload has a fixed list of strata (group, sizes, answers); the
seed draws only the entries, so the work per corpus is alike across
seeds.  `generate(workload, seed)` returns the instances; the program
receives only `Planted.text`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import exact

# group name -> (factors, text header); a factor is (n, ascending minpoly)
GROUPS = {
    "h3q": (((3, (0, 1)),), "group ut-q 3"),
    "h5q": (((5, (0, 1)),), "group ut-q 5"),
    "h3-sqrt2": (((3, (-2, 0, 1)),), "group heisenberg-k 3 minpoly 1 0 -2"),
    "h3-cbrt2": (((3, (-2, 0, 0, 1)),), "group heisenberg-k 3 minpoly 1 0 0 -2"),
    "h3-sqrt2 x h3-sqrt3": (
        ((3, (-2, 0, 1)), (3, (-3, 0, 1))),
        "group product\n"
        "factor heisenberg-k 3 minpoly 1 0 -2\n"
        "factor heisenberg-k 3 minpoly 1 0 -3",
    ),
}

EMPTY, NONEMPTY = "empty", "nonempty"


@dataclass
class Planted:
    """One instance with its planted answer and the data to check it."""

    ident: str
    path: str  # decider path it is built for: support, hard, easy, fallback
    answer: str
    text: str
    sets: dict  # set name -> generator matrices, in the order of the text
    problem: tuple  # set names (intersection) or (G, H) names (orbit)
    T: list | None = None
    S: list | None = None
    words: dict = field(default_factory=dict)  # planted letters per set
    argument: dict | None = None  # why an Empty instance is empty


# --- surface elements: per factor (a, b, c), field elements as coordinates


def _fmt(x):
    return str(Fraction(x))


def _field_text(x):
    return ",".join(_fmt(v) for v in x)


def _element_matrix(factors, elem):
    return exact.direct_sum(
        [exact.embed(n, a, b, c, poly) for (n, poly), (a, b, c) in zip(factors, elem)]
    )


def _element_from_matrix(factors, mat):
    parts = []
    off = 0
    for n, poly in factors:
        d = len(poly) - 1
        size = n * d
        block = [row[off : off + size] for row in mat[off : off + size]]
        parts.append(exact.unembed(block, n, d))
        off += size
    return parts


def _matrix_text(name, mat):
    return [f"matrix {name}"] + [" ".join(_fmt(x) for x in row) for row in mat]


def _element_text(group, name, elem):
    factors, _ = GROUPS[group]
    if factors[0][1] == (0, 1) and len(factors) == 1:
        return _matrix_text(name, _element_matrix(factors, elem))
    out = [f"element {name}"]
    for idx, (a, b, c) in enumerate(elem, start=1):
        if len(factors) > 1:
            out.append(f"factor {idx}")
        out.append("a " + " ".join(_field_text(x) for x in a))
        out.append("b " + " ".join(_field_text(x) for x in b))
        out.append("c " + _field_text(c))
    return out


def _random_elem(rng, group, a0=None):
    """Random element with coordinates in [-2, 2]; `a0` fixes the first
    coordinate of a[0] of factor 1."""
    factors, _ = GROUPS[group]
    elem = []
    for idx, (n, poly) in enumerate(factors):
        d = len(poly) - 1

        def fe():
            return [Fraction(rng.randint(-2, 2)) for _ in range(d)]

        a = [fe() for _ in range(n - 2)]
        b = [fe() for _ in range(n - 2)]
        c = fe()
        if idx == 0 and a0 is not None:
            a[0][0] = Fraction(a0)
        elem.append((a, b, c))
    return elem


def _random_word(rng, k, length):
    """Random letter list of the given length that uses every letter it can."""
    word = list(range(k))[:length]
    word += [rng.randrange(k) for _ in range(length - len(word))]
    rng.shuffle(word)
    return word


def _runs(word):
    return [(letter, 1) for letter in word]


def _text(header, body, problem_line, comment, options=()):
    lines = [f"# {comment}", "version 1", header] + body + problem_line
    lines += [f"option {k} {v}" for k, v in options]
    return "\n".join(lines) + "\n"


# --- intersection instances


def intersection_instance(rng, ident, group, ks, answer):
    """M = len(ks) sets with ks[m] generators each."""
    factors, header = GROUPS[group]
    names = "ABCDEFGH"[: len(ks)]
    elems = {}
    words = {}
    argument = None
    if answer == EMPTY:
        # sets A and B are separated by the first coordinate of a[0]
        for m, k in enumerate(ks):
            gens = []
            for _ in range(k):
                sign = {0: 1, 1: -1}.get(m)
                a0 = None if sign is None else sign * rng.randint(1, 2)
                gens.append(_random_elem(rng, group, a0=a0))
            elems[names[m]] = gens
        argument = {
            "kind": "functional",
            "coordinate": "a[0] coordinate 0 of factor 1",
            "positive": "A",
            "negative": "B",
        }
    else:
        first = [_random_elem(rng, group) for _ in range(ks[0])]
        w0 = _random_word(rng, ks[0], rng.randint(ks[0], ks[0] + 1))
        mats0 = [_element_matrix(factors, e) for e in first]
        target = exact.word_product(mats0, _runs(w0))
        elems["A"], words["A"] = first, w0
        for m in range(1, len(ks)):
            k = ks[m]
            gens = [_random_elem(rng, group) for _ in range(k - 1)]
            mats = [_element_matrix(factors, e) for e in gens]
            prefix = _random_word(rng, k - 1, rng.randint(1, 2))
            completion = exact.mul(
                exact.inverse(exact.word_product(mats, _runs(prefix))), target
            )
            slot = rng.randrange(k)
            gens.insert(slot, _element_from_matrix(factors, completion))
            shift = [p + (p >= slot) for p in prefix]
            elems[names[m]] = gens
            words[names[m]] = shift + [slot]

    body = []
    sets = {}
    for name in names:
        members = []
        for j, e in enumerate(elems[name]):
            member = f"{name.lower()}{j}"
            members.append(member)
            body += _element_text(group, member, e)
        body.append(f"semigroup {name} " + " ".join(members))
        sets[name] = [_element_matrix(factors, e) for e in elems[name]]
    comment = f"{ident}: {group}, K = {list(ks)}, planted {answer}"
    if argument:
        comment += f" (functional: {argument['coordinate']} > 0 on A, < 0 on B)"
    text = _text(header, body, ["problem intersection " + " ".join(names)], comment)
    planted = Planted(
        ident, "support", answer, text, sets, tuple(names), words=words, argument=argument
    )
    if answer == NONEMPTY:
        products = [
            exact.word_product(sets[n], _runs(words[n])) for n in names
        ]
        if any(p != products[0] for p in products):
            raise AssertionError("planted intersection words disagree")
    return planted


# --- orbit instances in H3(Q), elements (a, b, c)


def _h3(a, b, c):
    return [
        [Fraction(1), Fraction(a), Fraction(c)],
        [Fraction(0), Fraction(1), Fraction(b)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def orbit_instance(rng, ident, path, G, H, v, w, answer, options=()):
    """T<G> vs S<H> with S = T prod(v) prod(w)^-1 (NonEmpty) or its
    integrality twin: T = I and the corner of prod(v) prod(w)^-1 moved by 1/2."""
    gm = [_h3(*g) for g in G]
    hm = [_h3(*h) for h in H]
    base = exact.mul(
        exact.word_product(gm, _runs(v)),
        exact.inverse(exact.word_product(hm, _runs(w))),
    )
    if answer == NONEMPTY:
        T = _h3(*(rng.randint(-2, 2) for _ in range(3)))
        S = exact.mul(T, base)
        argument = None
        note = f"S = T prod(v) prod(w)^-1, v = {v}, w = {w}"
    else:
        T = exact.identity(3)
        S = [row[:] for row in base]
        S[0][2] += Fraction(1, 2)
        argument = {"kind": "integrality"}
        note = "integrality: integer generators, T = I, S with a non-integer corner"
    body = _matrix_text("t", T) + _matrix_text("s", S)
    for prefix, side in (("g", gm), ("h", hm)):
        for j, mat in enumerate(side):
            body += _matrix_text(f"{prefix}{j}", mat)
    body.append("semigroup G " + " ".join(f"g{j}" for j in range(len(G))))
    body.append("semigroup H " + " ".join(f"h{j}" for j in range(len(H))))
    comment = f"{ident}: H3(Q) orbit, K = {len(G)}, M = {len(H)}, planted {answer}; {note}"
    text = _text("group ut-q 3", body, ["problem orbit t s G H"], comment, options)
    words = {"G": v, "H": w} if answer == NONEMPTY else {}
    return Planted(
        ident, path, answer, text, {"G": gm, "H": hm}, ("G", "H"), T, S, words, argument
    )


def _hard_sides(rng, k, m):
    """Integer generators whose superdiagonal cones both contain the wedge
    between (2, 1) and (1, 2), so they meet in dimension 2."""

    def side(count):
        gens = [
            (rng.randint(2, 3), 1, rng.randint(-2, 2)),
            (1, rng.randint(2, 3), rng.randint(-2, 2)),
        ]
        while len(gens) < count:
            a, b = rng.randint(-1, 3), rng.randint(-1, 3)
            if (a, b) != (0, 0):
                gens.append((a, b, rng.randint(-2, 2)))
        rng.shuffle(gens)
        return gens

    return side(k), side(m)


def _easy_sides(rng, k_off_g, k_off_h):
    """Cones in the closed upper and lower half-planes that share the ray
    (1, 0): the separating functional is (0, 1), so the caps are set by
    the b entry of S.  One on-line letter per side keeps the integer
    programs out of the deep branch-and-bound that two opposite on-line
    letters lead to (see the RecursionError in CHANGES.md)."""
    G = [(1, 0, rng.randint(-2, 2))]
    G += [(rng.randint(-2, 2), 1, rng.randint(-2, 2)) for _ in range(k_off_g)]
    H = [(rng.choice((1, 2)), 0, rng.randint(-2, 2))]
    H += [(rng.randint(-2, 2), -1, rng.randint(-2, 2)) for _ in range(k_off_h)]
    return G, H


def _fallback_sides(rng):
    """G positively spans the plane and H is a ray: no separating functional."""
    G = [
        (1, 0, rng.randint(-2, 2)),
        (0, 1, rng.randint(-2, 2)),
        (-1, -1, rng.randint(-2, 2)),
    ]
    H = [(1, 1, rng.randint(-2, 2)), (2, 2, rng.randint(-2, 2))]
    return G, H


# --- workloads: fixed strata, seeded entries

# (group, sizes of the sets); each shape is planted once NonEmpty and once
# Empty.  The shapes favour set sizes whose witness sizes vary little from
# seed to seed (h5q (3, 3) and h3q (2, 3) vary most), so that witness_runs
# and witness_bits are steady across seeds.  The number-field groups get
# sets of two: with three generators in a set their witnesses reach 2^39
# to 2^61 letters on some seeds, next to the len() overflow at 2^63 (see
# CHANGES.md), and their time would dominate.  No witness here passes the
# 10^6-letter product-verification cap; the shapes that pass it have
# witness lengths with tails that reach that overflow.
INTERSECT_SHAPES = (
    [("h3q", (3, 3))] * 2
    + [("h3q", (4, 3))]
    + [("h5q", (3, 2, 2))] * 4
    + [("h5q", (3, 3, 2))] * 2
    + [("h3-sqrt2", (2, 2))] * 2
    + [("h3-sqrt2", (2, 2, 2))] * 2
    + [("h3-cbrt2", (2, 2))] * 2
    + [("h3-sqrt2 x h3-sqrt3", (2, 2))] * 2
)
# (group, sizes, with an Empty twin); the NonEmpty-only draws have steady
# witness sizes and make the corpus totals vary less from seed to seed.
INTERSECT_STRATA = [shape + (True,) for shape in INTERSECT_SHAPES] + [
    (group, ks, False)
    for group, ks in [
        ("h5q", (3, 2, 2)),
        ("h3-sqrt2", (2, 2)),
        ("h3-sqrt2", (2, 2, 2)),
        ("h3-cbrt2", (2, 2)),
        ("h3-sqrt2 x h3-sqrt3", (2, 2)),
    ]
    for _ in range(2)
]

# (K, M) of orbit-hard: each pair of generator sets is planted once
# NonEmpty and once as its Empty twin, which tries all 2^(K+M) parity
# branches.  Larger K + M would let one instance hold most of the time.
# Each (K, M) also gets two NonEmpty-only draws, which make the witness
# counts and the median instance vary less from seed to seed.
HARD_SHAPES = [
    (3, 3), (3, 4), (4, 3), (3, 5), (5, 3), (4, 4), (4, 4), (4, 4),
    (3, 6), (6, 3), (4, 5), (5, 4), (4, 5), (5, 4),
]
HARD_STRATA = [(k, m, True) for k, m in HARD_SHAPES] + [
    (k, m, False) for k, m in HARD_SHAPES for _ in range(2)
]

# orbit-easy: (off-line G letters, off-line H letters, off-line letters in
# v, in w, with an Empty twin).  The caps are v's plus w's off-line count,
# so a twin tries every interleaving pair (4, 9 or 19 of them).  Strata
# without a twin add NonEmpty draws, which are cheap, so that the witness
# counts vary little from seed to seed.  The last stratum materialises
# about 35k interleavings of three letters with cap 4 before its 41st
# pair succeeds, which sets the peak memory; a twin of it would try them
# all.  The other strata come three times each, so that this instance
# holds about a tenth of the corpus time.
EASY_SHAPES = [(1, 1, 1, 0), (1, 1, 0, 1), (1, 1, 1, 1), (2, 0, 2, 0), (0, 2, 0, 2)]
EASY_STRATA = (
    [shape + (True,) for shape in EASY_SHAPES[:2] for _ in range(6)]
    + [shape + (True,) for shape in EASY_SHAPES[2:] for _ in range(12)]
    + [shape + (False,) for shape in EASY_SHAPES for _ in range(12)]
    + [(3, 0, 4, 0, False)]
)
FALLBACK_COUNT = 9

WORKLOADS = ("intersect-witness", "orbit-hard", "orbit-easy")


def _rng(workload, seed, idx):
    return random.Random(f"{workload}/{seed}/{idx}")


def _easy_words(rng, G, H, off_v, off_w):
    on_g = [i for i, g in enumerate(G) if g[1] == 0]
    off_g = [i for i, g in enumerate(G) if g[1] != 0]
    on_h = [i for i, h in enumerate(H) if h[1] == 0]
    off_h = [i for i, h in enumerate(H) if h[1] != 0]
    v = [rng.choice(off_g) for _ in range(off_v)] + [
        rng.choice(on_g) for _ in range(rng.randint(1, 2))
    ]
    w = [rng.choice(off_h) for _ in range(off_w)] + [
        rng.choice(on_h) for _ in range(rng.randint(1, 2))
    ]
    rng.shuffle(v)
    rng.shuffle(w)
    return v, w


def generate(workload, seed):
    """The planted corpus of one workload at one seed."""
    out = []
    if workload == "intersect-witness":
        for idx, (group, ks, twin) in enumerate(INTERSECT_STRATA):
            rng = _rng(workload, seed, idx)
            for answer in (NONEMPTY, EMPTY) if twin else (NONEMPTY,):
                out.append(
                    intersection_instance(
                        rng, f"iw{idx:02d}{answer[0]}", group, ks, answer
                    )
                )
    elif workload == "orbit-hard":
        for idx, (k, m, twin) in enumerate(HARD_STRATA):
            rng = _rng(workload, seed, idx)
            G, H = _hard_sides(rng, k, m)
            v = _random_word(rng, k, rng.randint(2, 4))
            w = _random_word(rng, m, rng.randint(2, 4))
            for answer in (NONEMPTY, EMPTY) if twin else (NONEMPTY,):
                out.append(
                    orbit_instance(
                        rng, f"oh{idx:02d}{answer[0]}", "hard", G, H, v, w, answer
                    )
                )
    elif workload == "orbit-easy":
        for idx, (kg, kh, off_v, off_w, twin) in enumerate(EASY_STRATA):
            rng = _rng(workload, seed, idx)
            G, H = _easy_sides(rng, kg, kh)
            v, w = _easy_words(rng, G, H, off_v, off_w)
            for answer in (NONEMPTY, EMPTY) if twin else (NONEMPTY,):
                out.append(
                    orbit_instance(
                        rng, f"oe{idx:02d}{answer[0]}", "easy", G, H, v, w, answer
                    )
                )
        for idx in range(FALLBACK_COUNT):
            rng = _rng(workload, seed, len(EASY_STRATA) + idx)
            G, H = _fallback_sides(rng)
            v = _random_word(rng, len(G), rng.randint(2, 3))
            w = _random_word(rng, len(H), rng.randint(1, 2))
            depth = max(len(v), len(w))
            out.append(
                orbit_instance(
                    rng,
                    f"of{idx:02d}n",
                    "fallback",
                    G,
                    H,
                    v,
                    w,
                    NONEMPTY,
                    options=(("oracle-depth", depth),),
                )
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
