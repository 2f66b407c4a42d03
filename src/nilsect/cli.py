"""Command line interface: `decide <command> <instance file>`.

Commands: intersect, orbit, witness (decide + force witness extraction),
oracle (brute-force enumeration only).  Exit codes are made for
scripting ground truth:

    0  decided Empty (or: oracle found nothing)
    1  decided NonEmpty (or: oracle found a collision)
    2  Unsupported instance or a work/memory budget fired
    3  input error (an instance file that cannot be read, is not UTF-8
       text, does not parse or does not validate, a bad --budget or
       --depth: like an option value, each is an INT >= 1 of the
       instance grammar, or --budget on an instance that declares an
       intersection problem), and a usage error (an unknown command or
       flag, --budget on intersect among them, or a missing argument);
       --help exits 0
    4  internal error: any other exception (a defect), a ValueError
       raised while deciding included; the traceback goes to stderr

Reports print as text by default; `--json` emits a versioned
machine-readable report (schema "decide-report/1") with all rationals as
exact "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from dataclasses import dataclass, field

from .errors import BudgetExceeded, UnsupportedInstance
from .instances import (
    InstanceFile,
    ValidationError,
    load_instance_file,
    read_int,
)
from .intersect import (
    IntersectionInstance,
    Verdict,
    decide_intersection,
    extract_witness,
)
from .matlie import rational_str
from .oracle import bfs_oracle
from .orbit import FALLBACK_DEPTH, OrbitInstance, decide_orbit
from .wordcraft import Word

SCHEMA = "decide-report/1"

EXIT_EMPTY = 0
EXIT_NONEMPTY = 1
EXIT_UNSUPPORTED = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4


@dataclass
class ResultReport:
    command: str
    verdict: str
    witnesses: list = field(default_factory=list)  # [(set name, [(gen, count), ...])]
    common_element: list | None = None
    trace: list | None = None
    oracle: dict | None = None
    timing_s: float = 0.0
    message: str | None = None

    def to_jsonable(self):
        out = {
            "schema": SCHEMA,
            "command": self.command,
            "verdict": self.verdict,
            "timing_s": round(self.timing_s, 6),
        }
        if self.witnesses:
            out["witnesses"] = [
                {"set": name, "word": [[g, c] for g, c in runs]}
                for name, runs in self.witnesses
            ]
        if self.common_element is not None:
            out["common_element"] = self.common_element
        if self.trace is not None:
            out["trace"] = self.trace
        if self.oracle is not None:
            out["oracle"] = self.oracle
        if self.message is not None:
            out["message"] = self.message
        return out

    def to_text(self):
        lines = [f"verdict: {self.verdict}"]
        for name, runs in self.witnesses:
            body = " ".join(f"{g}^{c}" if c != 1 else g for g, c in runs)
            lines.append(f"witness {name}: {body if body else '(empty)'}")
        if self.common_element is not None:
            lines.append("common element:")
            for row in self.common_element:
                lines.append("  " + " ".join(row))
        if self.oracle is not None:
            lines.append(f"oracle: {self.oracle}")
        if self.message is not None:
            lines.append(self.message)
        if self.trace is not None:
            lines.append(f"trace: {self.trace}")
        lines.append(f"time: {self.timing_s:.3f}s")
        return "\n".join(lines)


def _mat_rows(mat):
    return [[rational_str(x, mat.den) for x in row] for row in mat.table]


def _word_runs(word: Word, names):
    return [(names[letter], count) for letter, count in word.runs]


def _witness_entries(inst_file: InstanceFile, built, words):
    entries = []
    if isinstance(built, IntersectionInstance):
        set_names = inst_file.problem[1]
        for set_name, sys, word in zip(set_names, built.systems, words):
            entries.append((set_name, _word_runs(word, sys.names)))
    else:
        g_name, h_name = inst_file.problem[3], inst_file.problem[4]
        v, w = words
        entries.append((g_name, _word_runs(v, built.G.names)))
        entries.append((h_name, _word_runs(w, built.H.names)))
    return entries


def _jsonable_trace(trace):
    """The trace with its tuples as lists: every trace holds only dicts
    keyed by strings, lists, tuples, ints and strings."""

    def conv(obj):
        if isinstance(obj, dict):
            return {k: conv(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [conv(v) for v in obj]
        return obj

    return conv(trace)


def run(command: str, inst_file: InstanceFile, *, trace=False, depth=None,
        check_oracle=False) -> ResultReport:
    """Dispatch one command against a parsed instance file."""
    start = time.monotonic()
    options = inst_file.options

    built = inst_file.build()

    if command == "oracle":
        d = depth if depth is not None else options.get("oracle_depth", FALLBACK_DEPTH)
        found = bfs_oracle(built, d, memory_budget=options.get("memory_budget"))
        report = ResultReport("oracle", "collision" if found else "none")
        if found:
            report.witnesses = _witness_entries(inst_file, built, found.words)
            report.common_element = _mat_rows(found.element)
        report.oracle = {"depth": d}
        report.timing_s = time.monotonic() - start
        return report

    witness = command == "witness"
    if witness:
        command = (
            "intersect" if isinstance(built, IntersectionInstance) else "orbit"
        )

    if command == "intersect":
        if not isinstance(built, IntersectionInstance):
            raise ValidationError("instance declares an orbit problem")
        decision = decide_intersection(built)
        if witness and decision.verdict is Verdict.NONEMPTY:
            decision = extract_witness(built, decision)
    elif command == "orbit":
        if not isinstance(built, OrbitInstance):
            raise ValidationError("instance declares an intersection problem")
        decision = decide_orbit(built)
    else:
        raise ValidationError(f"unknown command {command!r}")

    report = ResultReport(command, decision.verdict.value)
    if decision.witnesses is not None:
        report.witnesses = _witness_entries(inst_file, built, decision.witnesses)
    if decision.common_element is not None:
        report.common_element = _mat_rows(decision.common_element)
    if trace:
        report.trace = _jsonable_trace(decision.trace)
    if check_oracle:
        d = options.get("oracle_depth", FALLBACK_DEPTH)
        found = bfs_oracle(built, d, memory_budget=options.get("memory_budget"))
        # a missing collision at bounded depth contradicts no verdict
        agree = found is None or decision.verdict is Verdict.NONEMPTY
        report.oracle = {
            "depth": d,
            "collision": found is not None,
            "consistent": agree,
        }
    report.timing_s = time.monotonic() - start
    return report


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit EXIT_INPUT_ERROR:
    argparse's own 2 is EXIT_UNSUPPORTED here.  Subcommand parsers are
    made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="decide",
        description="exact decision procedures for semigroup intersection "
        "problems in unipotent matrix groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("intersect", "orbit", "witness", "oracle"):
        p = sub.add_parser(name)
        p.add_argument("file", help="instance file")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        if name in ("intersect", "orbit", "witness"):
            p.add_argument("--trace", action="store_true",
                           help="include the decision trace in the report")
            p.add_argument("--check-oracle", action="store_true",
                           help="cross-check the verdict against enumeration")
        if name in ("orbit", "witness"):
            # only the orbit easy case reads the interleaving budget
            p.add_argument("--budget", default=None,
                           help="override the interleaving budget of an orbit "
                           "problem (INT >= 1)")
        if name == "oracle":
            p.add_argument("--depth", default=None,
                           help="maximum word length to enumerate (INT >= 1)")
    return parser


def _flag_int(args, key):
    """The value of flag --key read as the instance grammar's INT >= 1,
    or None when the flag is absent or not defined for the command."""
    value = getattr(args, key, None)
    return None if value is None else read_int(value, f"--{key}", least=1)


def _input_error(exc) -> int:
    print(f"input error: {exc}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a bad flag value, a parse error and a file that is not UTF-8
        # text (UnicodeDecodeError) are ValueErrors; past this point a
        # ValueError is a defect
        budget, depth = _flag_int(args, "budget"), _flag_int(args, "depth")
        inst_file = load_instance_file(args.file)
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    if budget is not None:
        if inst_file.problem[0] != "orbit":
            return _input_error("--budget applies to orbit problems only")
        inst_file.options["interleave_budget"] = budget
    try:
        report = run(
            args.command,
            inst_file,
            trace=getattr(args, "trace", False),
            depth=depth,
            check_oracle=getattr(args, "check_oracle", False),
        )
    except ValidationError as exc:
        return _input_error(exc)
    except UnsupportedInstance as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except Exception:
        # a defect must not exit with a verdict's code
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL_ERROR

    if args.json:
        print(json.dumps(report.to_jsonable(), indent=2, sort_keys=True))
    else:
        print(report.to_text())

    if report.verdict in ("empty", "none"):
        return EXIT_EMPTY
    return EXIT_NONEMPTY


if __name__ == "__main__":
    sys.exit(main())
