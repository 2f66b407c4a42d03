"""Known-answer benchmark for the `decide` pipeline.

    python3 bench/run.py --workload orbit-hard --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from `src/` of
that checkout and receives only the generated instance-file text.  One
run:

1. generates the seeded corpus of the workload (`corpus.py`);
2. makes round-robin passes over the corpus until `--seconds` have gone
   (at least MIN_PASSES).  Every instance of every pass is parsed and
   built afresh (`parse_instance_text`, `InstanceFile.build`), then
   answered as `decide witness` answers it: `decide_intersection` plus
   `extract_witness`, or `decide_orbit`;
3. reads the peak resident memory, then checks every answer against the
   planted one and every witness by the exact product of `exact.py`;
4. prints one JSON line: the end-to-end metrics with `--trace 0`, the
   per-layer metrics with `--trace 1` (spans go to bench/out/).

Times are calibrated seconds; see REF_CAL_S below.

An instance run fails when it raises, returns the wrong verdict or a
witness that does not multiply out; a wrong answer also makes `correct`
false.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 3

sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import exact  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "instance_p50_s": "s",
    "peak_rss_mb": "MB",
    "witness_runs": "count",
    "witness_bits": "bits",
}
COUNTS = (
    "intersect.support_rounds",
    "intersect.witness_scale_bits",
    "intersect.bch_verifications",
    "orbit.parity_branches",
    "orbit.interleavings_tried",
)


def import_program():
    """The checkout's own `nilsect`, never an installed copy."""
    if not (SRC / "nilsect" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'nilsect'}")
    sys.path.insert(0, str(SRC))
    import nilsect

    if Path(nilsect.__file__).resolve().parent != (SRC / "nilsect").resolve():
        sys.exit(f"bench: imported nilsect from {nilsect.__file__}, not {SRC}")
    return nilsect


def answer(nilsect, built):
    """The sequence `decide witness` runs on a built instance."""
    if isinstance(built, nilsect.IntersectionInstance):
        decision = nilsect.decide_intersection(built)
        if decision.verdict is nilsect.Verdict.NONEMPTY:
            decision = nilsect.extract_witness(built, decision)
        return decision
    return nilsect.decide_orbit(built)


def counts_of(decision):
    """The five per-layer counts carried by a Decision."""
    details = decision.details
    step = decision.trace[0] if decision.trace else {}
    return {
        "intersect.support_rounds": details.get("iterations", 0),
        "intersect.witness_scale_bits": int(details.get("scale", 0)).bit_length(),
        "intersect.bch_verifications": int(details.get("verification") == "bch"),
        "orbit.parity_branches": step.get("branches_tried", 0),
        "orbit.interleavings_tried": step.get("pairs_tried", 0),
    }


# Processor speed on a shared machine can move by 2x within a minute, and
# CPU time moves with it.  A fixed exact-arithmetic computation of the
# benchmark's own is therefore timed before every instance and after the
# last one of a pass, and each instance's times are reported in reference
# seconds: multiplied by REF_CAL_S / (mean of the calibrations just before
# and just after it).  A scale per pass instead of per instance left twice
# to four times the run-to-run spread on repeated runs of one seed, since
# the speed moves within seconds.  REF_CAL_S fixes the unit: a reference
# second is a second of a processor that runs the calibration in 2.5 ms;
# the 2-core machine the benchmark was built on took 1.2 to 2.5 ms.
REF_CAL_S = 0.0025
_CAL = [
    [Fraction((i * 7 + j * 3) % 5 - 2, 1 + (i + j) % 3) if j > i else int(i == j)
     for j in range(6)]
    for i in range(6)
]


def calibrate():
    """Seconds taken by the fixed calibration computation."""
    start = time.perf_counter()
    for _ in range(8):
        exact.mul(_CAL, _CAL)
    return time.perf_counter() - start


@dataclass
class Timings:
    """Per instance, one entry per pass: raw seconds and the speed scale."""

    passes: int = 0
    setup: list = field(default_factory=list)  # parse + build seconds
    solve: list = field(default_factory=list)  # answer seconds
    scale: list = field(default_factory=list)  # REF_CAL_S / local calibration
    outcomes: list = field(default_factory=list)
    counts: list = field(default_factory=list)  # counts_of(first decision)

    def scaled(self, table, idx):
        return [t * k for t, k in zip(table[idx], self.scale[idx])]


def run_passes(nilsect, planted, seconds, tracer):
    """Timed round-robin passes; outcomes are kept, not checked, here."""
    clock = time.perf_counter
    deadline = clock() + seconds
    out = Timings(counts=[None] * len(planted))
    for table in (out.setup, out.solve, out.scale, out.outcomes):
        table.extend([] for _ in planted)
    while out.passes < MIN_PASSES or clock() < deadline:
        if tracer:
            tracer.pass_no = out.passes
        before = calibrate()
        for idx, item in enumerate(planted):
            if tracer:
                tracer.instance = item.ident
            t0 = clock()
            try:
                built = nilsect.parse_instance_text(item.text).build()
                t1 = clock()
                decision = answer(nilsect, built)
                t2 = clock()
            except Exception as exc:  # recorded as a failed run of this instance
                t1 = t2 = clock()
                outcome = ("raised", f"{type(exc).__name__}: {exc}")
            else:
                words = tuple(w.runs for w in decision.witnesses or ())
                outcome = (decision.verdict.value, words)
                if out.counts[idx] is None:
                    out.counts[idx] = counts_of(decision)
            after = calibrate()
            out.setup[idx].append(t1 - t0)
            out.solve[idx].append(t2 - t1)
            out.scale[idx].append(2 * REF_CAL_S / (before + after))
            out.outcomes[idx].append(outcome)
            before = after
        out.passes += 1
    return out


def check(item, outcome):
    """None when the outcome is the planted answer with a valid witness,
    else the reason it is not."""
    verdict, payload = outcome
    if verdict == "raised":
        return payload
    if verdict != item.answer:
        return f"verdict {verdict}, planted {item.answer}"
    if verdict == corpus.EMPTY:
        return None
    words = dict(zip(item.problem, payload))
    if len(words) != len(item.problem):
        return "missing witness words"
    for name, runs in words.items():
        k = len(item.sets[name])
        if not runs or any(not 0 <= a < k or c < 1 for a, c in runs):
            return f"witness over {name} is empty or out of range"
    if item.T is None:
        products = [exact.word_product(item.sets[n], words[n]) for n in item.problem]
        if any(p != products[0] for p in products[1:]):
            return "witness products differ"
        return None
    g, h = item.problem
    left = exact.mul(item.T, exact.word_product(item.sets[g], words[g]))
    right = exact.mul(item.S, exact.word_product(item.sets[h], words[h]))
    return None if left == right else "T prod(v) != S prod(w)"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nilsect = import_program()
    planted = corpus.generate(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    timed = run_passes(nilsect, planted, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = failed = 0
    correct = True
    problems = []
    for item, runs in zip(planted, timed.outcomes):
        checked = {}
        for outcome in runs:
            key = repr(outcome)
            if key not in checked:
                checked[key] = check(item, outcome)
            attempted += 1
            if checked[key] is not None:
                failed += 1
                if outcome[0] != "raised":
                    correct = False
        problems.append([p for p in checked.values() if p is not None])

    def summary(scaled):
        """Per-instance median solve times and the three timing metrics."""
        per_instance = [statistics.median(scaled(timed.solve, i)) for i in range(len(planted))]
        setup_by_pass = zip(*(scaled(timed.setup, i) for i in range(len(planted))))
        return per_instance, {
            "setup_s": statistics.median(sum(col) for col in setup_by_pass),
            "solve_s": sum(per_instance),
            "instance_p50_s": statistics.median(per_instance),
        }

    medians, calibrated = summary(timed.scaled)
    _, raw = summary(lambda table, idx: table[idx])

    witness_words = [
        runs
        for verdict, words in (runs[0] for runs in timed.outcomes)
        if verdict != "raised"
        for runs in words
    ]
    values = dict(
        calibrated,
        peak_rss_mb=peak_rss_mb,
        witness_runs=sum(len(runs) for runs in witness_words),
        witness_bits=sum(int(c).bit_length() for runs in witness_words for _, c in runs),
    )

    for item, bad, median in zip(planted, problems, medians):
        status = "ok" if not bad else "FAILED: " + "; ".join(bad)
        print(
            f"{item.ident} {item.path:8s} planted {item.answer:8s} "
            f"median {median:.5f} s  {status}"
        )
    print(
        f"workload {args.workload} seed {args.seed}{' traced' if tracer else ''}: "
        f"{len(planted)} instances, {timed.passes} passes, {attempted} attempted, "
        f"{failed} failed; solve_s {values['solve_s']:.4f}, "
        f"setup_s {values['setup_s']:.4f} (raw {raw['solve_s']:.4f}, "
        f"{raw['setup_s']:.4f})"
    )

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        scale_of = {
            (p, item.ident): k
            for item, scales in zip(planted, timed.scale)
            for p, k in enumerate(scales)
        }
        metrics = {
            name: {"value": value, "unit": "count" if name.endswith(".calls") else "s"}
            for name, value in tracer.metrics(timed.passes, scale_of).items()
        }
        for name in COUNTS:
            total = sum(c[name] for c in timed.counts if c is not None)
            metrics[name] = {"value": total, "unit": "count"}
        tracer.write(OUT / f"spans-{stem}.jsonl")
    else:
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = dict(
        result,
        values=values,
        raw=raw,
        passes=timed.passes,
        instances={
            item.ident: {"solve_raw_s": solve, "scale": scale, "problems": bad}
            for item, solve, scale, bad in zip(planted, timed.solve, timed.scale, problems)
        },
    )
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
