"""Line-oriented instance files and their parsing.

Grammar (one directive per line; blank lines and '#' comments ignored;
matrix and field entries are exact rationals RAT, never floats):

    file        = "version 1" group element* semigroup+ problem option*
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
matrices regardless of the surface group.  Rationals are read as integer
pairs and field entries as an integer coordinate vector over one
denominator (`numfield`), and every matrix, declared or embedded, is
written as one integer table over a common denominator: the form the
matrix kernel computes on, so no Fraction grid is built and converted
back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
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

    @property
    def dimension(self) -> int:
        return next(iter(self.elements.values())).n if self.elements else 0

    def build(self):
        """Validated IntersectionInstance or OrbitInstance."""
        kind = self.problem[0]
        if kind == "intersection":
            names = self.problem[1]
            systems = []
            for set_name in names:
                members = self.semigroups[set_name]
                systems.append(
                    GeneratorSystem(
                        [self.elements[m] for m in members], names=members
                    )
                )
            try:
                return IntersectionInstance(systems, set_names=names)
            except ValueError as exc:
                raise ValidationError(str(exc)) from exc
        t_name, s_name, g_name, h_name = self.problem[1:]
        g_members = self.semigroups[g_name]
        h_members = self.semigroups[h_name]
        try:
            return OrbitInstance(
                self.elements[t_name],
                self.elements[s_name],
                GeneratorSystem([self.elements[m] for m in g_members], names=g_members),
                GeneratorSystem([self.elements[m] for m in h_members], names=h_members),
                options=self.options,
            )
        except ValueError as exc:  # a group of another dimension than 3
            raise ValidationError(str(exc)) from exc


_INT_SHAPE = re.compile(r"[+-]?[0-9]+")
_RAT_SHAPE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _rat(tok, line_no):
    """(p, q) with tok = p/q and q > 0, read by int(); q = 1 for "p"."""
    # only integers and p/q are rationals here; no decimal or float forms
    if not _RAT_SHAPE.fullmatch(tok):
        raise ParseError(line_no, f"bad rational {tok!r} (use p or p/q)")
    num, _, den = tok.partition("/")
    try:
        num, den = int(num), int(den) if den else 1
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(line_no, f"bad rational {tok!r}: {exc}") from exc
    if not den:
        raise ParseError(line_no, f"bad rational {tok!r}: Fraction({num}, 0)")
    return num, den


def read_int(tok, what, least=None):
    """The integer tok, of the shape INT = [+-]?[0-9]+ only, and at least
    `least` when given; a ValueError naming `what` otherwise."""
    value = None
    if _INT_SHAPE.fullmatch(tok):
        try:
            value = int(tok)
        except ValueError:  # more digits than int() converts
            pass
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


def _field_elem(field_obj, tok, line_no):
    """(U, q): the coordinates of tok as the integer vector U over q > 0,
    q the lcm of the token denominators, unreduced."""
    coords = [_rat(t, line_no) for t in tok.split(",")]
    if len(coords) != field_obj.degree:
        raise ParseError(
            line_no,
            f"field element needs {field_obj.degree} coordinates, got {len(coords)}",
        )
    q = lcm(*(den for _, den in coords))
    return [p * (q // den) for p, den in coords], q


class _Lines:
    def __init__(self, text):
        self.items = []
        for no, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                self.items.append((no, stripped))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else (None, None)

    def next(self, context):
        if self.pos >= len(self.items):
            raise ParseError(
                self.items[-1][0] if self.items else 0,
                f"unexpected end of file while reading {context}",
            )
        item = self.items[self.pos]
        self.pos += 1
        return item

    def done(self):
        return self.pos >= len(self.items)


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
        factor = _parse_factor_spec(toks[1:], no)
        return ("heisenberg", (factor,))
    if toks[1] == "product":
        factors = []
        while True:
            no2, line2 = lines.peek()
            if line2 is None or not line2.startswith("factor "):
                break
            lines.next("factor")
            toks2 = line2.split()
            factors.append(_parse_factor_spec(toks2[1:], no2))
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
    coeffs_desc = [Fraction(*_rat(t, no)) for t in toks[3:]]
    try:
        fld = NumberField(list(reversed(coeffs_desc)))
    except ValueError as exc:
        raise ParseError(no, f"bad minimal polynomial: {exc}") from exc
    return (n, fld)


def _parse_heis_body(lines, n, fld, name):
    """The next a, b and c rows of element `name`, embedded."""
    vals = {}
    for key in ("a", "b", "c"):
        no, line = lines.next(f"'{key}' row of element {name}")
        toks = line.split()
        if toks[0] != key:
            raise ParseError(no, f"expected '{key} ...', got {line!r}")
        want = 1 if key == "c" else n - 2
        if len(toks) - 1 != want:
            raise ParseError(
                no, f"'{key}' needs {want} field element(s), got {len(toks) - 1}"
            )
        vals[key] = [_field_elem(fld, t, no) for t in toks[1:]]
    return embed_heisenberg(fld, n, vals["a"], vals["b"], vals["c"][0])


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
    elements = {}
    semigroups = {}
    problem = None
    options = {}

    while not lines.done():
        no, line = lines.next("directive")
        toks = line.split()
        head = toks[0]
        if head == "matrix":
            if group[0] != "ut-q":
                raise ParseError(no, "'matrix' is only valid in ut-q groups")
            if len(toks) != 2:
                raise ParseError(no, "usage: matrix NAME")
            name = toks[1]
            if name in elements:
                raise ParseError(no, f"duplicate element name {name!r}")
            n = group[1]
            rows = []
            for _ in range(n):
                no2, row_line = lines.next(f"row of matrix {name}")
                entries = [_rat(t, no2) for t in row_line.split()]
                if len(entries) != n:
                    raise ParseError(no2, f"row needs {n} entries")
                rows.append(entries)
            den = lcm(*(q for row in rows for _, q in row))
            table = tuple(tuple(p * (den // q) for p, q in row) for row in rows)
            try:
                mat = UnipotentMatrix.from_integer_table(table, den)
            except ValueError as exc:
                raise ParseError(no, f"matrix {name!r}: {exc}") from exc
            elements[name] = mat
        elif head == "element":
            if group[0] != "heisenberg":
                raise ParseError(no, "'element' is only valid in heisenberg groups")
            if len(toks) != 2:
                raise ParseError(no, "usage: element NAME")
            name = toks[1]
            if name in elements:
                raise ParseError(no, f"duplicate element name {name!r}")
            factors = group[1]
            parts = []
            if len(factors) == 1:
                parts.append(_parse_heis_body(lines, factors[0][0], factors[0][1], name))
            else:
                for idx, (n, fld) in enumerate(factors, start=1):
                    no2, line2 = lines.next(f"factor {idx} of element {name}")
                    if line2.split() != ["factor", str(idx)]:
                        raise ParseError(
                            no2, f"expected 'factor {idx}', got {line2!r}"
                        )
                    parts.append(_parse_heis_body(lines, n, fld, name))
            elements[name] = direct_sum(parts)
        elif head == "semigroup":
            if len(toks) < 3:
                raise ParseError(no, "usage: semigroup NAME MEMBER...")
            name = toks[1]
            if name in semigroups:
                raise ParseError(no, f"duplicate semigroup name {name!r}")
            members = tuple(toks[2:])
            for m in members:
                if m not in elements:
                    raise ParseError(no, f"unknown element {m!r}")
            semigroups[name] = members
        elif head == "problem":
            if problem is not None:
                raise ParseError(no, "duplicate problem declaration")
            if len(toks) < 2:
                raise ParseError(no, "usage: problem intersection|orbit ...")
            if toks[1] == "intersection":
                names = tuple(toks[2:])
                if len(names) < 1:
                    raise ParseError(no, "intersection needs at least one set")
                for s in names:
                    if s not in semigroups:
                        raise ParseError(no, f"unknown semigroup {s!r}")
                problem = ("intersection", names)
            elif toks[1] == "orbit":
                if len(toks) != 6:
                    raise ParseError(no, "usage: problem orbit T S G H")
                t_name, s_name, g_name, h_name = toks[2:]
                for e in (t_name, s_name):
                    if e not in elements:
                        raise ParseError(no, f"unknown element {e!r}")
                for s in (g_name, h_name):
                    if s not in semigroups:
                        raise ParseError(no, f"unknown semigroup {s!r}")
                problem = ("orbit", t_name, s_name, g_name, h_name)
            else:
                raise ParseError(no, f"unknown problem kind {toks[1]!r}")
        elif head == "option":
            if len(toks) != 3:
                raise ParseError(no, "usage: option KEY VALUE")
            key = toks[1]
            if key not in KNOWN_OPTIONS:
                raise ParseError(no, f"unknown option {key!r}")
            options[KNOWN_OPTIONS[key]] = _int(toks[2], no, key, least=1)
        else:
            raise ParseError(no, f"unknown directive {head!r}")

    if problem is None:
        raise ParseError(0, "missing problem declaration")
    return InstanceFile(
        version=version,
        group=group,
        elements=elements,
        semigroups=semigroups,
        problem=problem,
        options=options,
    )


def load_instance_file(path) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance_text(fh.read())
