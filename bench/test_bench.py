"""Tests of the benchmark's own parts: the planted answers and the check.

    PYTHONPATH=src python3 -m pytest -q bench

The planted arguments are checked on the generated text, read by the
small reader below rather than by the program's parser.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import exact  # noqa: E402
import run  # noqa: E402

SEEDS = (0, 1, 2)
CASES = [(w, s) for w in corpus.WORKLOADS for s in SEEDS]


def _ascending(tokens):
    return [Fraction(t) for t in reversed(tokens)]


def read_text(text):
    """(element matrices, sets, problem tokens, factors) of generated text."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln.split() for ln in lines if ln]
    assert lines[0] == ["version", "1"]
    head = lines[1]
    pos = 2
    if head[1] == "ut-q":
        factors = [(int(head[2]), [Fraction(0), Fraction(1)])]
    elif head[1] == "heisenberg-k":
        factors = [(int(head[2]), _ascending(head[4:]))]
    else:
        factors = []
        while lines[pos][0] == "factor" and lines[pos][1] == "heisenberg-k":
            factors.append((int(lines[pos][2]), _ascending(lines[pos][4:])))
            pos += 1
    mats, sets, problem = {}, {}, None
    while pos < len(lines):
        toks = lines[pos]
        pos += 1
        if toks[0] == "matrix":
            n = factors[0][0]
            mats[toks[1]] = [[Fraction(x) for x in row] for row in lines[pos : pos + n]]
            pos += n
        elif toks[0] == "element":
            blocks = []
            for n, poly in factors:
                if len(factors) > 1:
                    pos += 1  # "factor i"
                a, b, c = (
                    [[Fraction(x) for x in tok.split(",")] for tok in lines[pos + i][1:]]
                    for i in range(3)
                )
                pos += 3
                blocks.append(exact.embed(n, a, b, c[0], poly))
            mats[toks[1]] = exact.direct_sum(blocks)
        elif toks[0] == "semigroup":
            sets[toks[1]] = [mats[m] for m in toks[2:]]
        elif toks[0] == "problem":
            problem = toks[1:]
    return mats, sets, problem, factors


def _product(gens, letters):
    return exact.word_product(gens, [(a, 1) for a in letters])


@pytest.mark.parametrize("workload,seed", CASES)
def test_empty_instances_carry_their_argument(workload, seed):
    for item in corpus.generate(workload, seed):
        if item.answer != corpus.EMPTY:
            continue
        mats, sets, problem, factors = read_text(item.text)
        arg = item.argument
        if arg["kind"] == "functional":
            # first coordinate of a[0] of factor 1: entry (0, d) of the embedding
            d = len(factors[0][1]) - 1
            union = [g for gens in sets.values() for g in gens]
            for x in union:
                for y in union:
                    assert exact.mul(x, y)[0][d] == x[0][d] + y[0][d]
            assert all(g[0][d] > 0 for g in sets[arg["positive"]])
            assert all(g[0][d] < 0 for g in sets[arg["negative"]])
        else:
            assert arg["kind"] == "integrality"
            t, s = mats[problem[1]], mats[problem[2]]
            assert t == exact.identity(3)
            for name in problem[3:]:
                for g in sets[name]:
                    assert all(x.denominator == 1 for row in g for x in row)
            assert s[0][1].denominator == 1 and s[0][2].denominator != 1


@pytest.mark.parametrize("workload,seed", CASES)
def test_nonempty_instances_share_the_planted_product(workload, seed):
    for item in corpus.generate(workload, seed):
        if item.answer != corpus.NONEMPTY:
            continue
        mats, sets, problem, _ = read_text(item.text)
        assert all(item.words[name] for name in item.problem)
        if problem[0] == "intersection":
            products = [_product(sets[n], item.words[n]) for n in problem[1:]]
            assert all(p == products[0] for p in products)
        else:
            t, s, g, h = problem[1:]
            left = exact.mul(mats[t], _product(sets[g], item.words[g]))
            right = exact.mul(mats[s], _product(sets[h], item.words[h]))
            assert left == right


def _small(item):
    return item.T is not None or item.text.splitlines()[2] in (
        "group ut-q 3",
        "group ut-q 5",
    )


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_oracle_finds_planted_collisions_at_planted_length(workload):
    nilsect = run.import_program()
    for item in corpus.generate(workload, 0):
        if item.answer != corpus.NONEMPTY or not _small(item):
            continue
        depth = max(len(w) for w in item.words.values())
        built = nilsect.parse_instance_text(item.text).build()
        assert nilsect.bfs_oracle(built, depth) is not None, item.ident


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_check_accepts_planted_witness_and_rejects_altered_ones(workload):
    item = next(
        p for p in corpus.generate(workload, 0) if p.answer == corpus.NONEMPTY
    )
    runs = tuple(tuple((a, 1) for a in item.words[n]) for n in item.problem)
    assert run.check(item, ("nonempty", runs)) is None
    assert run.check(item, ("empty", ())) is not None
    assert run.check(item, ("raised", "RecursionError: depth")) is not None
    longer = ((runs[0][0][0], 2),) + runs[0][1:]
    assert run.check(item, ("nonempty", (longer,) + runs[1:])) is not None
    assert run.check(item, ("nonempty", ((),) + runs[1:])) is not None
