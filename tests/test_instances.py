"""Parsed files against a Fraction reference reader.

The parser checks each matrix row, field element and minimal polynomial
against its shape with one regex, reads its tokens with int() over one
denominator, the lcm of the denominators of the "/" tokens, and hands
each matrix block to one checked constructor as an integer table.  The
reference here reads each token with Fraction(tok), embeds a Heisenberg
element through a Fraction grid of regular representations computed by
polynomial multiplication mod the modulus, joins product factors as a
Fraction grid, builds every matrix from its Fraction rows (`conftest.from_rows`), and reads the
semigroups, the problem and the options off their directive lines.  The
two must agree on each element's rows and reduced integer table, and on
the semigroups, problem and options.  Malformed texts pin the line
number and message of each ParseError.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from nilsect import ParseError, parse_instance_text
from conftest import field_times, from_rows, number_field, rows_of

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def reference_representation(fld, x):
    """Matrix of multiplication by x: column j holds x * alpha^j."""
    d = fld.degree
    cols = [field_times(fld, x, [int(i == j) for i in range(d)]) for j in range(d)]
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def reference_embed(fld, n, a, b, c):
    d = fld.degree
    rows = [[Fraction(int(i == j)) for j in range(n * d)] for i in range(n * d)]

    def put(bi, bj, block):
        for i in range(d):
            for j in range(d):
                rows[bi * d + i][bj * d + j] = block[i][j]

    for j, e in enumerate(a):
        put(0, 1 + j, reference_representation(fld, e))
    for i, e in enumerate(b):
        put(1 + i, n - 1, reference_representation(fld, e))
    put(0, n - 1, reference_representation(fld, c))
    return rows


def reference_direct_sum(grids):
    total = sum(len(g) for g in grids)
    rows = [[Fraction(0)] * total for _ in range(total)]
    off = 0
    for g in grids:
        for i, row in enumerate(g):
            rows[off + i][off:off + len(row)] = row
        off += len(g)
    return rows


def reference_elements(text):
    """name -> UnipotentMatrix, built from Fraction(tok) rows."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [toks for toks in lines if toks]
    group, factors, out, pos = lines[1], [], {}, 2
    if group[1] == "ut-q":
        n = int(group[2])
    elif group[1] == "heisenberg-k":
        factors = [group[1:]]
    else:
        while lines[pos][0] == "factor" and lines[pos][1] == "heisenberg-k":
            factors.append(lines[pos][1:])
            pos += 1
    fields = [
        (int(spec[1]), number_field([Fraction(t) for t in reversed(spec[3:])]))
        for spec in factors
    ]

    def heis_body(at, n, fld):
        vals = [
            [[Fraction(t) for t in tok.split(",")] for tok in lines[at + k][1:]]
            for k in range(3)
        ]
        return reference_embed(fld, n, vals[0], vals[1], vals[2][0])

    while pos < len(lines):
        toks = lines[pos]
        if toks[0] == "matrix":
            rows = [[Fraction(t) for t in lines[pos + 1 + i]] for i in range(n)]
            out[toks[1]] = from_rows(rows)
            pos += 1 + n
        elif toks[0] == "element":
            if len(fields) == 1:
                grids = [heis_body(pos + 1, *fields[0])]
                pos += 4
            else:
                grids = []
                pos += 1
                for n_f, fld in fields:
                    grids.append(heis_body(pos + 1, n_f, fld))
                    pos += 4
            out[toks[1]] = from_rows(reference_direct_sum(grids))
        else:
            pos += 1
    return out


OPTION_FIELDS = {
    "oracle-depth": "oracle_depth",
    "interleave-budget": "interleave_budget",
    "parity-cap": "parity_cap",
    "memory-budget": "memory_budget",
}


def reference_directives(text):
    """(semigroups, problem, options), read from the directive lines."""
    semigroups, problem, options = {}, None, {}
    for line in text.splitlines():
        toks = line.split("#", 1)[0].split()
        if toks[:1] == ["semigroup"]:
            semigroups[toks[1]] = tuple(toks[2:])
        elif toks[:2] == ["problem", "intersection"]:
            problem = ("intersection", tuple(toks[2:]))
        elif toks[:2] == ["problem", "orbit"]:
            problem = ("orbit", *toks[2:])
        elif toks[:1] == ["option"]:
            options[OPTION_FIELDS[toks[1]]] = int(toks[2])
    return semigroups, problem, options


def assert_same_parse(text):
    parsed = parse_instance_text(text)
    assert (parsed.semigroups, parsed.problem, parsed.options) == reference_directives(text)
    expected = reference_elements(text)
    assert parsed.elements.keys() == expected.keys()
    for name, want in expected.items():
        got = parsed.elements[name]
        assert rows_of(got) == rows_of(want), name
        assert (got.table, got.den) == (want.table, want.den), name
        assert all(type(x) is int for row in got.table for x in row)


def test_samples_parse_like_the_reference():
    paths = sorted(SAMPLES.glob("*.txt"))
    assert paths
    for path in paths:
        assert_same_parse(path.read_text())


def _token(rng):
    """A rational token, reduced or not, signed or not."""
    num = rng.choice([0, 0, 1, -1, rng.randint(-40, 40), rng.randint(-10**12, 10**12)])
    sign = rng.choice(["", "", "+"]) if num >= 0 else ""
    den = rng.choice([None, None, 1, 2, 3, 4, 6, 12, 35, rng.randint(1, 10**9)])
    return f"{sign}{num}" if den is None else f"{sign}{num}/{den}"


def _int_token(rng):
    num = rng.choice([0, 0, 1, -1, rng.randint(-3, 3), rng.randint(-10**12, 10**12)])
    return f"{rng.choice(['', '', '+']) if num >= 0 else ''}{num}"


def _ut_text(rng, n, count):
    """count matrices; each is rational or, as often, integer-only, its
    rows joined by spaces or tabs and some with a trailing comment."""
    out = ["version 1", f"group ut-q {n}"]
    for k in range(count):
        out.append(f"matrix m{k}")
        integer = rng.random() < 0.5
        for i in range(n):
            row = [
                "0" if j < i
                else rng.choice(["1", "+1"] if integer else ["1", "+1", "2/2"]) if j == i
                else _int_token(rng) if integer
                else _token(rng)
                for j in range(n)
            ]
            line = rng.choice([" ", "\t", " \t "]).join(row)
            out.append(line + rng.choice(["", "", "\t# row", "  # m"]))
    out.append("semigroup A " + " ".join(f"m{k}" for k in range(count)))
    if count > 1:
        out.append("semigroup B m0 m1 # two")
    out.append("problem intersection A" + (" B" if count > 1 else ""))
    # options may come anywhere after the group, also before the problem
    at = rng.choice([2, len(out) - 1, len(out)])
    for key in rng.sample(sorted(OPTION_FIELDS), rng.randint(0, 2)):
        out.insert(at, f"option {key} {rng.randint(1, 99)}")
    return "\n".join(out) + "\n"


# minpoly coefficients from the leading one down, each irreducible over Q
MODULI = ("1 0 -2", "1 0 0 -2", "1 0 -1/2", "1 1/3 0 -2/5", "1 -1 -1", "1 2/3 5/7")
LINEAR = ("1 1", "1 -3/2")


def _field_token(rng, degree):
    return ",".join(_token(rng) for _ in range(degree))


def _heis_body(rng, n, degree):
    return [
        "a " + " ".join(_field_token(rng, degree) for _ in range(n - 2)),
        "b " + " ".join(_field_token(rng, degree) for _ in range(n - 2)),
        "c " + _field_token(rng, degree),
    ]


def _heisenberg_text(rng, factors, count):
    """factors: (n, minpoly) pairs; one pair is a heisenberg-k group."""
    out = ["version 1"]
    if len(factors) == 1:
        out.append(f"group heisenberg-k {factors[0][0]} minpoly {factors[0][1]}")
    else:
        out.append("group product")
        out += [f"factor heisenberg-k {n} minpoly {poly}" for n, poly in factors]
    for k in range(count):
        out.append(f"element e{k}")
        for idx, (n, poly) in enumerate(factors, start=1):
            if len(factors) > 1:
                out.append(f"factor {idx}")
            out += _heis_body(rng, n, len(poly.split()) - 1)
    out.append("semigroup A " + " ".join(f"e{k}" for k in range(count)))
    out.append("problem intersection A")
    return "\n".join(out) + "\n"


# Coordinates are read into (U, q) before any reduction: tokens such as
# 2/4,3/6 give gcd(U, q) > 1, a coordinate may be 0 in every position,
# and both moduli have denominators (alpha^d is not an integer vector).
UNREDUCED_TEXT = """version 1
group product
factor heisenberg-k 3 minpoly 1 0 -1/2
factor heisenberg-k 4 minpoly 1 1/3 0 -2/5
element e0
factor 1
a 2/4,3/6
b 0,0
c 0/3,0/9
factor 2
a 2/4,3/6,4/8 0,0,0
b 6/4,-9/6,0 10/15,0/2,-3/3
c -4/6,8/12,0/5
element e1
factor 1
a 0,0
b 0/2,0/4
c 0,0
factor 2
a 0,0,0 0/7,0,0
b 0,0,0 0,0,0
c 0,0,0
semigroup A e0 e1
problem intersection A
"""


def test_random_texts_parse_like_the_reference():
    assert_same_parse(UNREDUCED_TEXT)
    for token in ("2/4,3/6", "0,0", "0/3,0/9", "-6/4,+10/4"):
        assert_same_parse(
            f"version 1\ngroup heisenberg-k 3 minpoly 1 0 -1/2\n"
            f"element e\na {token}\nb {token}\nc {token}\n"
            "semigroup A e\nproblem intersection A\n"
        )
    rng = random.Random(1107)
    for _ in range(40):
        assert_same_parse(_ut_text(rng, rng.randint(1, 6), rng.randint(1, 3)))
    for _ in range(30):
        factors = [(rng.randint(3, 4), rng.choice(MODULI))]
        assert_same_parse(_heisenberg_text(rng, factors, rng.randint(1, 3)))
    for _ in range(20):
        factors = [
            (rng.randint(3, 4), rng.choice(MODULI + LINEAR)) for _ in range(rng.randint(2, 3))
        ]
        assert_same_parse(_heisenberg_text(rng, factors, rng.randint(1, 2)))


UT_ROWS = "version 1\ngroup ut-q 3\nmatrix m\n{}\n{}\n{}\nsemigroup A m\nproblem intersection A\n"
HEIS_BODY = (
    "version 1\ngroup heisenberg-k 3 minpoly 1 0 -2\nelement e\na {}\nb {}\nc {}\n"
    "semigroup A e\nproblem intersection A\n"
)
PRODUCT_FACTOR = (
    "version 1\ngroup product\nfactor heisenberg-k 3 minpoly 1 0 -2\n"
    "factor heisenberg-k 3 minpoly 1 1\nelement e\nfactor 1\na 1,0\nb 0,1\nc 0,0\n"
    "{}\na {}\nb 0\nc 0\nsemigroup A e\nproblem intersection A\n"
)
LONG_TOKEN = "1" + "0" * 4999


def _digit_limit_message():
    try:
        int(LONG_TOKEN)
    except ValueError as exc:
        return f"bad rational {LONG_TOKEN!r}: {exc}"
    return None  # no digit limit in this interpreter: the token parses


def _malformed_cases():
    """(text, line number, message) of malformed ut-q rows, Heisenberg
    tokens and product factors."""
    cases = []
    bad = {
        "1/0": "bad rational '1/0': Fraction(1, 0)",
        "0/00": "bad rational '0/00': Fraction(0, 0)",
        "1.5": "bad rational '1.5' (use p or p/q)",
        "1_0": "bad rational '1_0' (use p or p/q)",
        "+-1": "bad rational '+-1' (use p or p/q)",
        "９": "bad rational '９' (use p or p/q)",
    }
    if _digit_limit_message():
        bad[LONG_TOKEN] = _digit_limit_message()
    for tok, message in bad.items():
        cases.append((UT_ROWS.format(f"1 {tok} 0", "0 1 0", "0 0 1"), 4, message))
        # the first bad token of a row is named, before its length is checked
        cases.append((UT_ROWS.format("1 0 0", f"0 1 {tok} 2 x", "0 0 1"), 5, message))
        cases.append((HEIS_BODY.format(f"1,{tok}", "0,0", "0,0"), 4, message))
        cases.append((HEIS_BODY.format("1,0", "0,0", f"{tok},3,x"), 6, message))
        cases.append((PRODUCT_FACTOR.format("factor 2", tok), 11, message))
    cases += [
        (UT_ROWS.format("1 0 0", "0 1", "0 0 1"), 5, "row needs 3 entries"),
        (UT_ROWS.format("1 0 0", "0 1 0 0", "0 0 1"), 5, "row needs 3 entries"),
        (UT_ROWS.format("1 0 0", "0 2 0", "0 0 1"), 3,
         "matrix 'm': diagonal entry (1,1) is not 1"),
        (UT_ROWS.format("1 0 0", "0 1/2 0", "0 0 1"), 3,
         "matrix 'm': diagonal entry (1,1) is not 1"),
        (UT_ROWS.format("1 0 0", "0 1 0", "0 3 1"), 3,
         "matrix 'm': nonzero entry (2,1) below the diagonal"),
        # a matrix is checked after all its rows are read
        (UT_ROWS.format("1 0 0", "0 2 0", "0 0 1.5"), 6, "bad rational '1.5' (use p or p/q)"),
        ("version 1\ngroup ut-q 3\nmatrix m\n1 0 0\n", 4,
         "unexpected end of file while reading row of matrix m"),
        (HEIS_BODY.format("1,2,3", "0,0", "0,0"), 4, "field element needs 2 coordinates, got 3"),
        (HEIS_BODY.format("1", "0,0", "0,0"), 4, "field element needs 2 coordinates, got 1"),
        (HEIS_BODY.format("1,0", "0,0 1,1", "0,0"), 5, "'b' needs 1 field element(s), got 2"),
        ("version 1\ngroup heisenberg-k 3 minpoly 1 0 -2\nelement e\na 1,0\n", 4,
         "unexpected end of file while reading 'b' row of element e"),
        (PRODUCT_FACTOR.format("factor 2", "1,2"), 11, "field element needs 1 coordinates, got 2"),
        (PRODUCT_FACTOR.format("factor 3", "1"), 10, "expected 'factor 2', got 'factor 3'"),
    ]
    return cases


def test_malformed_texts_name_their_line_and_fault():
    for text, line_no, message in _malformed_cases():
        with pytest.raises(ParseError) as err:
            parse_instance_text(text)
        assert err.value.line_no == line_no, text
        assert str(err.value) == f"line {line_no}: {message}", text


def test_a_repeated_option_is_an_error():
    text = UT_ROWS.format("1 0 0", "0 1 0", "0 0 1") + (
        "option oracle-depth 3\noption parity-cap 4\n# again\noption oracle-depth 5\n"
    )
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    assert err.value.line_no == 12
    assert str(err.value) == "line 12: duplicate option 'oracle-depth'"
