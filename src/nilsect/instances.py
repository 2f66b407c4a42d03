"""Line-oriented instance files and their parsing.

Grammar (one directive per line; blank lines and '#' comments ignored;
matrix and field entries are exact rationals RAT, never floats):

    file        = "version 1" group directive*
    directive   = element | semigroup | problem | option
    group       = "group ut-q" N
                | "group heisenberg-k" N "minpoly" COEFF+      ; descending,
                                                               ; monic
                | "group product" ("factor heisenberg-k" N "minpoly" COEFF+)+
    element     = "matrix" NAME ROW{N}                         ; ut-q groups
                | "element" NAME heisbody                      ; heisenberg
                | "element" NAME ("factor" IDX heisbody)+      ; product
    heisbody    = "a" FIELDVEC  "b" FIELDVEC  "c" FIELDELEM
    FIELDVEC    = FIELDELEM{N-2}          ; space separated
    FIELDELEM   = RAT ("," RAT)*          ; d comma separated coordinates
    semigroup   = "semigroup" NAME MEMBER+
    problem     = "problem intersection" SETNAME+
                | "problem orbit" TNAME SNAME GSET HSET
    option      = "option" KEY INT                             ; INT >= 1
    N, INT      = [+-]?[0-9]+             ; decimal digits only
    RAT         = [+-]?[0-9]+ ("/" [0-9]+)?

After the group, directives come in any order (an option may precede the
problem) as long as each name is declared before a line uses it.  No
element, semigroup or option is given twice; there is exactly one problem.

Each option bounds some work by its value:

    oracle-depth       longest word the breadth-first oracle enumerates
                       (the easy case's fallback, `oracle`, --check-oracle)
    interleave-budget  pairs of off-line orderings the easy case
                       enumerates; every pair counts, also one that
                       fails the functional balance and is skipped
                       before its integer program
    parity-cap         largest K + M for which the hard case enumerates
                       its 2^(K+M) parity branches
    memory-budget      matrices the breadth-first oracle stores

Heisenberg and product elements are embedded into UT(n*d, Q) (block
substitution by the multiplication matrix of each field entry; factors
go block-diagonally), so downstream code sees plain unipotent rational
matrices regardless of the surface group.  Each line is split once.  A
matrix, an a/b/c row of field elements or a minimal polynomial has its
shape checked by regex and is read by int() over one denominator, the
lcm of those of its "/" tokens (`_integers`).  Those ints over their
denominator are the one form a rational matrix or modulus takes from
here on: a matrix is built from its integer table over that
denominator, and a minimal polynomial from its integer coefficients
over it; no rational entry is formed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import lcm

from .matlie import GeneratorSystem, UnipotentMatrix, direct_sum
from .numfield import NumberField, embed_heisenberg
from .intersect import IntersectionInstance
from .orbit import OrbitInstance


KNOWN_OPTIONS = {
    "oracle-depth": "oracle_depth",
    "interleave-budget": "interleave_budget",
    "parity-cap": "parity_cap",
    "memory-budget": "memory_budget",
}


class ParseError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(ValueError):
    """Instance is well-formed but violates a structural invariant."""


@dataclass
class InstanceFile:
    """Parsed instance: group spec, named elements, sets, problem, options."""

    version: int
    group: tuple
    elements: dict  # name -> UnipotentMatrix (embedded)
    semigroups: dict  # name -> tuple of member names
    problem: tuple  # ("intersection", names) | ("orbit", T, S, G, H)
    options: dict = field(default_factory=dict)

    def build(self):
        """Validated IntersectionInstance or OrbitInstance."""

        def system(set_name):
            members = self.semigroups[set_name]
            return GeneratorSystem([self.elements[m] for m in members], names=members)

        try:
            if self.problem[0] == "intersection":
                names = self.problem[1]
                return IntersectionInstance([system(s) for s in names], set_names=names)
            t_name, s_name, g_name, h_name = self.problem[1:]
            T, S = self.elements[t_name], self.elements[s_name]
            return OrbitInstance(T, S, system(g_name), system(h_name), options=self.options)
        except ValueError as exc:  # e.g. an orbit group of another dimension than 3
            raise ValidationError(str(exc)) from exc


_INT_SHAPE = re.compile(r"[+-]?[0-9]+")
# only integers and p/q are rationals here; no decimal or float forms
_RAT = r"[+-]?[0-9]+(?:/[0-9]+)?"
_RAT_SHAPE = re.compile(_RAT)
# a ROW line (\s is what str.split() splits on) and a FIELDELEM token
_ROW_SHAPE = re.compile(rf"{_RAT}(?:\s+{_RAT})*")
_FIELD_SHAPE = re.compile(rf"{_RAT}(?:,{_RAT})*")


def _check_rats(toks, line_no):
    """Raise the ParseError naming the first token of toks that is not a
    rational: not of the shape RAT, too long for int(), or p/0."""
    for tok in toks:
        if not _RAT_SHAPE.fullmatch(tok):
            raise ParseError(line_no, f"bad rational {tok!r} (use p or p/q)")
        try:
            num, *den = map(int, tok.split("/"))
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(line_no, f"bad rational {tok!r}: {exc}") from exc
        if den == [0]:
            raise ParseError(line_no, f"bad rational {tok!r}: Fraction({num}, 0)")


def _scaled(tok, q):
    num, _, den = tok.partition("/")  # tok = num/den, den dividing q
    return int(num) * (q // int(den))


def _integers(rows):
    """(T, q): the rows of RAT-shaped tokens as integer rows T over q > 0,
    the lcm of the denominators of the "/" tokens (1 without any),
    unreduced.  None when a token is too long for int() or is p/0.
    """
    try:
        q = lcm(*[int(t.partition("/")[2]) for row in rows for t in row if "/" in t])
        if q:
            return [[int(t) * q if "/" not in t else _scaled(t, q) for t in row] for row in rows], q
    except ValueError:  # more digits than int() converts
        pass
    return None


def read_int(tok, what, least=None):
    """The integer tok, of the shape INT = [+-]?[0-9]+ only, and at least
    `least` when given; a ValueError naming `what` otherwise."""
    try:
        value = int(tok) if _INT_SHAPE.fullmatch(tok) else None
    except ValueError:  # more digits than int() converts
        value = None
    if value is None:
        raise ValueError(f"{what} must be an integer, got {tok!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")
    return value


def _int(tok, line_no, what, least=None):
    """`read_int` on line line_no, failing with a ParseError."""
    try:
        return read_int(tok, what, least)
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None


def _field_row(d, toks, line_no):
    """[(U, q)] of the field elements toks, d coordinates each, by one
    `_integers` call; else the ParseError of the first faulty element."""
    elems = [tok.split(",") for tok in toks]
    shaped = set(map(len, elems)) == {d} and all(map(_FIELD_SHAPE.fullmatch, toks))
    ints = _integers(elems) if shaped else None
    if ints is None:  # diagnose element by element, in reading order
        for coords in elems:
            _check_rats(coords, line_no)
            if len(coords) != d:
                got = len(coords)
                raise ParseError(line_no, f"field element needs {d} coordinates, got {got}")
    rows, q = ints
    return [(row, q) for row in rows]


class _Lines:
    """(line number, line) of each line not blank once its comment is cut."""

    def __init__(self, text):
        stripped = [raw.partition("#")[0].strip() for raw in text.splitlines()]
        self.items = [(no, line) for no, line in enumerate(stripped, 1) if line]
        self.pos = 0

    def __iter__(self):
        """The lines not read yet, also by `next` and `take` in the loop."""
        while self.pos < len(self.items):
            self.pos += 1
            yield self.items[self.pos - 1]

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else (None, None)

    def next(self, context, *args):
        """The next line; at the end, a ParseError naming context.format(*args)."""
        if self.pos >= len(self.items):
            raise self.at_end("unexpected end of file while reading " + context.format(*args))
        self.pos += 1
        return self.items[self.pos - 1]

    def take(self, count):
        """The next count pairs, fewer at the end."""
        block = self.items[self.pos:self.pos + count]
        self.pos += len(block)
        return block

    def at_end(self, message):
        """A ParseError at the last line, line 0 in a text without one."""
        return ParseError(self.items[-1][0] if self.items else 0, message)


def _parse_group(lines):
    no, line = lines.next("group declaration")
    toks = line.split()
    if toks[0] != "group":
        raise ParseError(no, f"expected 'group', got {toks[0]!r}")
    if len(toks) < 2:
        raise ParseError(no, "usage: group ut-q|heisenberg-k|product ...")
    if toks[1] == "ut-q":
        if len(toks) != 3:
            raise ParseError(no, "usage: group ut-q N")
        n = _int(toks[2], no, "dimension")
        if n < 1:
            raise ParseError(no, "dimension must be positive")
        return ("ut-q", n)
    if toks[1] == "heisenberg-k":
        return ("heisenberg", (_parse_factor_spec(toks[1:], no),))
    if toks[1] == "product":
        factors = []
        while (lines.peek()[1] or "").startswith("factor "):
            no2, line2 = lines.next("factor")
            factors.append(_parse_factor_spec(line2.split()[1:], no2))
        if not factors:
            raise ParseError(no, "product group needs at least one factor")
        return ("heisenberg", tuple(factors))
    raise ParseError(no, f"unknown group kind {toks[1]!r}")


def _parse_factor_spec(toks, no):
    # toks: ["heisenberg-k", N, "minpoly", c_d, ..., c_0] (descending, monic)
    if toks[0] != "heisenberg-k" or len(toks) < 4 or toks[2] != "minpoly":
        raise ParseError(no, "usage: heisenberg-k N minpoly C_d ... C_0")
    n = _int(toks[1], no, "Heisenberg dimension")
    if n < 3:
        raise ParseError(no, "Heisenberg dimension must be >= 3")
    ints = _integers([toks[3:]]) if all(map(_RAT_SHAPE.fullmatch, toks[3:])) else None
    if ints is None:
        _check_rats(toks[3:], no)
    (coeffs,), q = ints
    try:
        fld = NumberField(coeffs[::-1], q)
    except ValueError as exc:
        raise ParseError(no, f"bad minimal polynomial: {exc}") from exc
    return (n, fld)


def _parse_element(lines, factors, name):
    """The a, b and c rows of element `name` for each factor, embedded and
    joined; in a product group each factor's rows follow `factor IDX`."""
    parts = []
    for idx, (n, fld) in enumerate(factors, start=1):
        if len(factors) > 1:
            no, line = lines.next("factor {} of element {}", idx, name)
            if line.split() != ["factor", str(idx)]:
                raise ParseError(no, f"expected 'factor {idx}', got {line!r}")
        vals = []
        for key, want in (("a", n - 2), ("b", n - 2), ("c", 1)):
            no, line = lines.next("'{}' row of element {}", key, name)
            toks = line.split()
            if toks[0] != key:
                raise ParseError(no, f"expected '{key} ...', got {line!r}")
            if len(toks) - 1 != want:
                raise ParseError(no, f"'{key}' needs {want} field element(s), got {len(toks) - 1}")
            vals.append(_field_row(fld.degree, toks[1:], no))
        a, b, (c,) = vals
        parts.append(embed_heisenberg(fld, n, a, b, c))
    return direct_sum(parts)


def _check_known(names, declared, what, no):
    for name in names:
        if name not in declared:
            raise ParseError(no, f"unknown {what} {name!r}")


def _parse_matrix(lines, n, name, no):
    """The n rows of `matrix name` (on line no) as one checked matrix."""
    block = lines.take(n)
    # the rows of the shape ROW: all n of them, each of n tokens, or a fault
    rows = [line.split() for _, line in block if _ROW_SHAPE.fullmatch(line)]
    ints = _integers(rows) if len(rows) == n and set(map(len, rows)) == {n} else None
    if ints is None:  # name the first fault, in reading order
        for row_no, line in block:
            row = line.split()
            _check_rats(row, row_no)
            if len(row) != n:
                raise ParseError(row_no, f"row needs {n} entries")
        raise lines.at_end(f"unexpected end of file while reading row of matrix {name}")
    try:
        return UnipotentMatrix(*ints)
    except ValueError as exc:
        raise ParseError(no, f"matrix {name!r}: {exc}") from exc


def parse_instance_text(text: str) -> InstanceFile:
    lines = _Lines(text)
    no, line = lines.next("version")
    toks = line.split()
    if toks[:1] != ["version"] or len(toks) != 2:
        raise ParseError(no, "file must start with 'version 1'")
    version = _int(toks[1], no, "version")
    if version != 1:
        raise ParseError(no, f"unsupported version {version}")

    group = _parse_group(lines)
    elements, semigroups, options, problem = {}, {}, {}, None

    for no, line in lines:
        toks = line.split()
        head = toks[0]
        if head in ("matrix", "element"):
            kind = "ut-q" if head == "matrix" else "heisenberg"
            if group[0] != kind:
                raise ParseError(no, f"'{head}' is only valid in {kind} groups")
            if len(toks) != 2:
                raise ParseError(no, f"usage: {head} NAME")
            name = toks[1]
            if name in elements:
                raise ParseError(no, f"duplicate element name {name!r}")
            if head == "matrix":
                elements[name] = _parse_matrix(lines, group[1], name, no)
            else:
                elements[name] = _parse_element(lines, group[1], name)
        elif head == "semigroup":
            if len(toks) < 3:
                raise ParseError(no, "usage: semigroup NAME MEMBER...")
            name = toks[1]
            if name in semigroups:
                raise ParseError(no, f"duplicate semigroup name {name!r}")
            _check_known(toks[2:], elements, "element", no)
            semigroups[name] = tuple(toks[2:])
        elif head == "problem":
            if problem is not None:
                raise ParseError(no, "duplicate problem declaration")
            if len(toks) < 2:
                raise ParseError(no, "usage: problem intersection|orbit ...")
            if toks[1] == "intersection":
                if len(toks) < 3:
                    raise ParseError(no, "intersection needs at least one set")
                _check_known(toks[2:], semigroups, "semigroup", no)
                problem = ("intersection", tuple(toks[2:]))
            elif toks[1] == "orbit":
                if len(toks) != 6:
                    raise ParseError(no, "usage: problem orbit T S G H")
                _check_known(toks[2:4], elements, "element", no)
                _check_known(toks[4:], semigroups, "semigroup", no)
                problem = ("orbit", *toks[2:])
            else:
                raise ParseError(no, f"unknown problem kind {toks[1]!r}")
        elif head == "option":
            if len(toks) != 3:
                raise ParseError(no, "usage: option KEY VALUE")
            key = toks[1]
            if key not in KNOWN_OPTIONS:
                raise ParseError(no, f"unknown option {key!r}")
            if KNOWN_OPTIONS[key] in options:
                raise ParseError(no, f"duplicate option {key!r}")
            options[KNOWN_OPTIONS[key]] = _int(toks[2], no, key, least=1)
        else:
            raise ParseError(no, f"unknown directive {head!r}")

    if problem is None:
        raise lines.at_end("missing problem declaration")
    return InstanceFile(version, group, elements, semigroups, problem, options)


def load_instance_file(path) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance_text(fh.read())
