"""Independent brute-force oracle: breadth-first product enumeration.

Enumerates exact products of all nonempty words up to a given length,
hash-consing on their reduced (integer table, denominator) pairs, which
are equal iff the products are, and reports the first collision in
length-lexicographic order.  Every input matrix (a generator, or an
orbit instance's T or S) is a `UnipotentMatrix`, read as its pair, and
the collision is handed back as the `UnipotentMatrix` of its pair.  Used
to cross-check the deciders; shares no code path with them beyond plain
matrix multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MemoryBudgetExceeded
from .matlie import UnipotentMatrix, _reduce, mul_upper_rows
from .wordcraft import Word

DEFAULT_DEPTH = 8  # `decide oracle` and --check-oracle without oracle-depth
DEFAULT_MEMORY_BUDGET = 2_000_000


@dataclass(frozen=True)
class OracleResult:
    """A collision found by enumeration: one word per side, equal products."""

    words: tuple
    element: UnipotentMatrix


def _times(a, b, n):
    """The reduced pair of the product of the pairs a and b."""
    return _reduce(mul_upper_rows(a[0], b[0], n), a[1] * b[1])


def _bfs_products(gens, n, depth, state, budget):
    """All products of nonempty words of length <= depth, as
    {reduced pair: letters}.

    Breadth-first with dedup, one level per letter from the empty word;
    the first word reaching a product is the length-lexicographically
    least one because levels are expanded in insertion order and
    generators in index order.
    """
    one = UnipotentMatrix.identity(n)
    seen = {}
    frontier = {(one.table, one.den): ()}
    for _ in range(depth):
        nxt = {}
        for p, word in frontier.items():
            for i, g in enumerate(gens):
                q = _times(p, g, n)
                if q not in seen:
                    grown = word + (i,)
                    seen[q] = grown
                    nxt[q] = grown
                    state[0] += 1
                    if state[0] > budget:
                        raise MemoryBudgetExceeded(
                            f"oracle stored more than {budget} matrices",
                            budget=budget,
                        )
        if not nxt:
            break
        frontier = nxt
    return seen


def bfs_oracle(inst, depth: int, *, memory_budget=None):
    """First collision among the instance's sides, or None.

    For an intersection instance: a common product of all generator sets.
    For an orbit instance: matching elements of T<G> and S<H>, each side's
    products translated by T or S; translation is injective, so no two
    words of one side share a key.  The reported collision minimizes
    (total word length, letter tuples), so reruns are deterministic.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    state = [0]

    if hasattr(inst, "systems"):  # intersection instance
        n = inst.n
        sides = [(sys, None) for sys in inst.systems]
    else:  # orbit instance: T * <G> vs S * <H>
        n = 3
        sides = [(inst.G, inst.T), (inst.H, inst.S)]
    maps = []
    for sys, shift in sides:
        gens = [(m.table, m.den) for m in sys.mats]
        products = _bfs_products(gens, n, depth, state, budget)
        if shift is not None:
            pair = shift.table, shift.den
            products = {_times(pair, p, n): w for p, w in products.items()}
        maps.append(products)
    smallest = min(maps, key=len)
    common = [key for key in smallest if all(key in mp for mp in maps)]
    if not common:
        return None
    best = min(
        common,
        key=lambda key: (
            sum(len(mp[key]) for mp in maps),
            tuple(mp[key] for mp in maps),
        ),
    )
    words = tuple(
        Word.from_letters(sys.K, mp[best]) for (sys, _), mp in zip(sides, maps)
    )
    return OracleResult(words, UnipotentMatrix(*best))
