import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nilsect
from nilsect import (
    IntersectionInstance,
    OrbitInstance,
    ParseError,
    ValidationError,
    Word,
    load_instance_file,
    parse_instance_text,
)
from nilsect.cli import EXIT_INTERNAL_ERROR, EXIT_NONEMPTY, SCHEMA, main, run

from conftest import entry, verify_orbit_witness, verify_witness

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def run_module(*args):
    """`python -m nilsect.cli` with the arguments, in a child process that
    imports the package these tests import."""
    src = str(Path(nilsect.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "nilsect.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )

UT3 = """
version 1
group ut-q 3
matrix x
1 1 0
0 1 0
0 0 1
matrix y
1 0 0
0 1 1
0 0 1
semigroup A x
semigroup B y
problem intersection A B
"""

SQRT2 = """
version 1
group heisenberg-k 3 minpoly 1 0 -2
element u
a 1,0
b 0,0
c 0,0
element v
a 0,1
b 1,0
c 0,1/2
semigroup A u v
semigroup B v
problem intersection A B
option oracle-depth 6
"""

PRODUCT = """
version 1
group product
factor heisenberg-k 3 minpoly 1 0 -2
factor heisenberg-k 3 minpoly 1 1
element g
factor 1
a 0,1
b 0,0
c 0,0
factor 2
a 2
b 3
c 0
semigroup A g
problem intersection A A
"""

ORBIT = """
version 1
group ut-q 3
matrix e
1 0 0
0 1 0
0 0 1
matrix x
1 1 0
0 1 0
0 0 1
matrix y
1 0 0
0 1 1
0 0 1
matrix z
1 0 1
0 1 0
0 0 1
semigroup G x y
semigroup H x y
problem orbit e z G H
"""


def test_parse_basic():
    inst_file = parse_instance_text(UT3)
    built = inst_file.build()
    assert isinstance(built, IntersectionInstance)
    assert built.n == 3 and built.M == 2


def test_parse_sqrt2_embeds_to_dimension_6():
    inst_file = parse_instance_text(SQRT2)
    assert next(iter(inst_file.elements.values())).n == 6
    built = inst_file.build()
    assert built.n == 6


def test_parse_product_group_block_diagonal():
    inst_file = parse_instance_text(PRODUCT)
    # 3*2 + 3*1 = 9
    assert next(iter(inst_file.elements.values())).n == 9
    g = inst_file.elements["g"]
    assert entry(g, 0, 3) == 2  # sqrt(2) block sits in the first factor
    assert entry(g, 6, 7) == 2  # second factor is rational (degree 1)


def test_parse_orbit():
    built = parse_instance_text(ORBIT).build()
    assert isinstance(built, OrbitInstance)


def test_parse_errors_have_line_numbers(capsys):
    # every option bounds some work by its value, so values below 1 are
    # refused where they are written, naming the line
    option_line = UT3.count("\n") + 1
    for key in ("interleave-budget", "parity-cap", "memory-budget", "oracle-depth"):
        for value in (-3, -1, 0):
            with pytest.raises(ParseError) as err:
                parse_instance_text(UT3 + f"option {key} {value}\n")
            assert err.value.line_no == option_line
            assert f"line {option_line}" in str(err.value)
            assert key in str(err.value) and "at least 1" in str(err.value)
        assert parse_instance_text(UT3 + f"option {key} 1\n").options
    for value in ("0", "-1"):
        code = main(["orbit", str(SAMPLES / "orbit-central.txt"), "--budget", value])
        assert code == 3
        assert "--budget must be at least 1" in capsys.readouterr().err
    # integers are ASCII decimal digits only: no digit-group underscores
    for text, line_no in (
        (UT3.replace("group ut-q 3", "group ut-q 0_3"), 3),
        (UT3 + "option oracle-depth 1_000\n", option_line),
        (UT3.replace("version 1", "version 1_0"), 2),
        (UT3 + "option memory-budget \u0663\n", option_line),
    ):
        with pytest.raises(ParseError) as err:
            parse_instance_text(text)
        assert err.value.line_no == line_no
        assert f"line {line_no}" in str(err.value)
        assert "must be an integer" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_instance_text(UT3.replace("1 1 0", "1 \u0663 0"))
    assert "bad rational" in str(err.value)
    assert parse_instance_text(UT3 + "option oracle-depth +7\n").options == {
        "oracle_depth": 7
    }
    with pytest.raises(ParseError) as err:
        parse_instance_text("version 1\ngroup ut-q 3\nmatrix m\n1 2\n")
    assert "line 4" in str(err.value)
    with pytest.raises(ParseError):
        parse_instance_text("version 2\n")
    with pytest.raises(ParseError):
        parse_instance_text(UT3.replace("problem intersection A B", ""))
    with pytest.raises(ParseError):
        parse_instance_text(UT3 + "option no-such-option 3\n")
    with pytest.raises(ParseError):
        parse_instance_text(UT3 + "option letters-cap 5\n")
    # floating literals are rejected outright
    with pytest.raises(ParseError):
        parse_instance_text(UT3.replace("1 1 0", "1 1.5 0"))


def test_integer_flags_follow_the_instance_grammar(capsys):
    # --budget and --depth read INT = [+-]?[0-9]+ with the options' rule
    # INT >= 1, like `option oracle-depth 1_000`; a bad value is an input
    # error naming the flag
    orbit_file = str(SAMPLES / "orbit-central.txt")
    for command, flag in (("orbit", "--budget"), ("oracle", "--depth")):
        for value, message in (
            ("1_0", "must be an integer, got '1_0'"),
            ("\u0663", "must be an integer, got '\u0663'"),
            (" 5", "must be an integer, got ' 5'"),
            ("2.0", "must be an integer, got '2.0'"),
            ("0", "must be at least 1, got 0"),
            ("-2", "must be at least 1, got -2"),
        ):
            assert main([command, orbit_file, flag, value]) == 3
            err = capsys.readouterr().err
            assert f"input error: {flag} {message}" in err
            assert "Traceback" not in err
    assert main(["orbit", orbit_file, "--budget", "+100000"]) == EXIT_NONEMPTY
    assert main(["oracle", orbit_file, "--depth", "+3"]) == EXIT_NONEMPTY
    assert "depth': 3}" in capsys.readouterr().out


def test_validation_non_unipotent():
    bad = UT3.replace("0 1 0\n0 0 1\nmatrix y", "2 1 0\n0 0 1\nmatrix y")
    with pytest.raises(ParseError):
        parse_instance_text(bad)


def test_orbit_outside_dimension_3_rejected():
    text = SQRT2.replace(
        "problem intersection A B", "problem orbit u u A B"
    )
    with pytest.raises(ValidationError):
        parse_instance_text(text).build()


def test_run_intersect_report():
    inst_file = parse_instance_text(UT3)
    report = run("intersect", inst_file)
    assert report.verdict == "empty"
    payload = report.to_jsonable()
    assert payload["schema"] == "decide-report/1"
    assert payload["verdict"] == "empty"


def reverify_report(report, inst_file):
    """Re-check a report's witnesses by plain multiplication only.

    Rebuilds the words from their run-length encoding against the
    instance file and multiplies; no trust is placed in the producing
    run.  True when the products match the report's claim.
    """
    if report.get("schema") != SCHEMA:
        raise ValueError("unknown report schema")
    if "witnesses" not in report:
        return True
    built = inst_file.build()
    by_set = {w["set"]: w["word"] for w in report["witnesses"]}
    if isinstance(built, IntersectionInstance):
        words = []
        for set_name, sys in zip(inst_file.problem[1], built.systems):
            runs = by_set[set_name]
            idx = {name: i for i, name in enumerate(sys.names)}
            words.append(Word(sys.K, [(idx[g], c) for g, c in runs]))
        return verify_witness(built, words)
    g_name, h_name = inst_file.problem[3], inst_file.problem[4]
    gi = {name: i for i, name in enumerate(built.G.names)}
    hi = {name: i for i, name in enumerate(built.H.names)}
    v = Word(built.G.K, [(gi[g], c) for g, c in by_set[g_name]])
    w = Word(built.H.K, [(hi[g], c) for g, c in by_set[h_name]])
    return verify_orbit_witness(built, v, w)


def test_run_witness_and_reverify():
    inst_file = load_instance_file(SAMPLES / "commutator.txt")
    report = run("witness", inst_file)
    assert report.verdict == "nonempty"
    payload = json.loads(json.dumps(report.to_jsonable()))
    # a fresh parse re-verifies the witnesses by multiplication alone
    fresh = load_instance_file(SAMPLES / "commutator.txt")
    assert reverify_report(payload, fresh)


def test_run_orbit_witness_and_reverify():
    inst_file = parse_instance_text(ORBIT)
    report = run("orbit", inst_file)
    assert report.verdict == "nonempty"
    payload = json.loads(json.dumps(report.to_jsonable()))
    assert reverify_report(payload, parse_instance_text(ORBIT))


def test_reverify_detects_tampering():
    inst_file = parse_instance_text(ORBIT)
    payload = run("orbit", inst_file).to_jsonable()
    payload = json.loads(json.dumps(payload))
    payload["witnesses"][0]["word"][0][1] += 1
    assert not reverify_report(payload, parse_instance_text(ORBIT))


def test_run_oracle():
    inst_file = load_instance_file(SAMPLES / "commutator.txt")
    report = run("oracle", inst_file, depth=4)
    assert report.verdict == "collision"
    report = run("oracle", inst_file, depth=3)
    assert report.verdict == "none"


def test_main_exit_codes(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text(UT3)
    assert main(["intersect", str(empty)]) == 0

    assert main(["intersect", str(SAMPLES / "commutator.txt")]) == 1
    assert main(["witness", str(SAMPLES / "commutator.txt"), "--json"]) == 1
    assert main(["orbit", str(SAMPLES / "orbit-central.txt")]) == 1

    bad = tmp_path / "bad.txt"
    bad.write_text("version 1\ngroup ut-q 3\nmatrix m\n9 9 9\n")
    assert main(["intersect", str(bad)]) == 3
    assert main(["intersect", str(tmp_path / "missing.txt")]) == 3
    # a file that is not UTF-8 text is an input error too
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"version 1\n\xff\xfe\x00")
    assert main(["intersect", str(binary)]) == 3


def test_usage_errors_exit_as_input_errors(capsys):
    # argparse's own usage exit is 2, which means Unsupported here
    orbit_file = str(SAMPLES / "orbit-central.txt")
    for argv in (
        [],
        ["orbit", orbit_file, "--bogus"],
        ["orbit", orbit_file, "--witness"],
        ["solve", orbit_file],
        ["log", orbit_file],
        # only the orbit easy case reads the interleaving budget, and
        # intersect refuses orbit instances
        ["intersect", str(SAMPLES / "commutator.txt"), "--budget", "5"],
    ):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 3, argv
        assert "usage: decide" in capsys.readouterr().err
    # witness takes --budget, but only an orbit problem has a budget to set
    assert main(["witness", str(SAMPLES / "commutator.txt"), "--budget", "1"]) == 3
    assert "input error: --budget applies to orbit problems only" in capsys.readouterr().err
    for argv in (["--help"], ["orbit", "--help"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert "usage: decide" in capsys.readouterr().out
    out = run_module("orbit", orbit_file, "--bogus")
    assert out.returncode == 3 and "unrecognized arguments: --bogus" in out.stderr


def test_malformed_headers_are_input_errors(tmp_path, capsys):
    # a bare group line, and non-integer dimensions or versions, are
    # parse errors naming their line, never internal errors
    cases = (
        ("version 1\ngroup\n", 2, "usage: group"),
        ("version 1\n\ngroup ut-q x\n", 3, "dimension must be an integer"),
        ("version x\n", 1, "version must be an integer"),
        ("version 1\ngroup heisenberg-k y minpoly 1 0 -2\n", 2, "dimension must be an integer"),
        ("version 1\ngroup product\nfactor heisenberg-k 3.0 minpoly 1 0 -2\n", 3,
         "dimension must be an integer"),
        ("version 1\ngroup ut-q 2\nmatrix m\n1 1/0\n0 1\n", 4, "Fraction(1, 0)"),
        ("version 1\ngroup ut-q 2\nmatrix m\n1 " + "9" * 5000 + "\n0 1\n", 4, "bad rational"),
    )
    for text, line_no, message in cases:
        with pytest.raises(ParseError) as err:
            parse_instance_text(text)
        assert err.value.line_no == line_no, text
        assert f"line {line_no}: " in str(err.value) and message in str(err.value)
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["intersect", str(path)]) == 3
        err_text = capsys.readouterr().err
        assert f"input error: line {line_no}: " in err_text
        assert "Traceback" not in err_text


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    def broken(inst):
        raise AssertionError("defect planted by the test")

    monkeypatch.setattr("nilsect.cli.decide_intersection", broken)
    path = tmp_path / "empty.txt"
    path.write_text(UT3)
    assert main(["intersect", str(path)]) == EXIT_INTERNAL_ERROR == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "defect planted by the test" in err

    # a ValueError raised while deciding is a defect too, not an input
    # error: only reading the flags and the file makes input errors
    def broken_orbit(inst):
        raise ValueError("value defect planted by the test")

    monkeypatch.setattr("nilsect.cli.decide_orbit", broken_orbit)
    orbit_file = str(SAMPLES / "orbit-central.txt")
    assert main(["orbit", orbit_file, "--budget", "7"]) == EXIT_INTERNAL_ERROR
    err = capsys.readouterr().err
    assert "Traceback" in err and "value defect planted by the test" in err
    assert "input error" not in err


def test_witness_longer_than_index_sized_exits_nonempty(capsys):
    path = Path(__file__).resolve().parent / "data" / "h5q-k6-long-witness.txt"
    assert main(["witness", str(path)]) == EXIT_NONEMPTY
    out, err = capsys.readouterr()
    assert "witness A:" in out and "witness B:" in out
    assert "Traceback" not in err


def test_console_script_installed():
    out = run_module("oracle", SAMPLES / "commutator.txt", "--depth", "4", "--json")
    assert out.returncode == 1
    payload = json.loads(out.stdout)
    assert payload["verdict"] == "collision"


def test_check_oracle_flag():
    inst_file = parse_instance_text(UT3)
    report = run("intersect", inst_file, check_oracle=True)
    assert report.oracle["consistent"]


def test_wide_entry_orbit_witness_exits_nonempty(capsys):
    # draw 9 of OW(1000, 100): its witness search passes a scale of 2^64,
    # where a cap once raised AssertionError and the command exited 4
    path = Path(__file__).resolve().parent / "data" / "ow-1000-100-draw9.txt"
    assert main(["witness", str(path), "--json"]) == EXIT_NONEMPTY
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    payload = json.loads(out)
    assert payload["verdict"] == "nonempty"
    assert reverify_report(payload, load_instance_file(path))


DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
GOLDEN_RUNS = [
    ("witness", path, ("--json", "--trace"))
    for path in sorted(SAMPLES.glob("*.txt")) + sorted(DATA.glob("*.txt"))
] + [("oracle", path, ("--json",)) for path in sorted(SAMPLES.glob("*.txt"))]


@pytest.mark.parametrize(
    "command, path, flags", GOLDEN_RUNS, ids=[f"{c}-{p.stem}" for c, p, _ in GOLDEN_RUNS]
)
def test_reports_match_the_golden_files(command, path, flags, capsys):
    # the printed report, rationals as "p/q" strings included, is
    # byte-identical to the recorded one apart from its timing
    main([command, str(path), *flags])
    report = json.loads(capsys.readouterr().out)
    assert type(report.pop("timing_s")) is float
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / f"{command}-{path.stem}.json").read_text()


def test_golden_files_cover_every_sample_and_data_file():
    assert len(GOLDEN_RUNS) == 11
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(
        f"{c}-{p.stem}.json" for c, p, _ in GOLDEN_RUNS
    )
