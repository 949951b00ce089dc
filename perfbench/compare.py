"""Compare two sets of benchmark runs, or check the spread of one set.

    python3 perfbench/compare.py RUNS_A [RUNS_B]

A set of runs is a directory with one subdirectory per workload, holding one
file per run with that run's standard output; the last line is the run's
JSON result. README.md shows the loop that makes one.

For each workload and each end-to-end metric of BENCHMARK.json it prints each
set's median and quartiles (statistics.quantiles, n=4) and the spread, the
quartile distance as a share of the median. With two sets it also prints how
far B's median is worse than A's, as a share of A's, against the metric's
bound. It exits 1 when a spread other than setup_s's exceeds its bound, a
median worsens by more than its bound, the share of failed operations
differs between any two runs of a workload, or a run reported incorrect output.
"""

from __future__ import annotations

import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(set_dir: Path) -> dict[str, list[dict]]:
    runs = {}
    for workload_dir in sorted(p for p in set_dir.iterdir() if p.is_dir()):
        results = []
        for path in sorted(workload_dir.iterdir()):
            lines = path.read_text().strip().splitlines()
            results.append(json.loads(lines[-1]) if lines else None)
        runs[workload_dir.name] = results
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, spread)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return q1, median, q3, (q3 - q1) / median


def _row(label, q1, median, q3, spread, bound):
    return f"    {label:<2} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.2%} (bound {bound:.0%})"


def compare(spec: dict, sets: list[dict[str, list[dict]]]) -> bool:
    ok = True
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        per_set = [s.get(workload, []) for s in sets]
        print(f"{workload}: {' / '.join(str(len(r)) for r in per_set)} runs")
        results = [r for runs in per_set for r in runs]
        if any(r is None for r in results) or len(results) < 2 * len(sets):
            print("    missing or empty run output")
            ok = False
            continue
        if not all(r["correct"] for r in results):
            print("    a run reported incorrect output")
            ok = False
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        print(f"    failed share: {', '.join(str(s) for s in sorted(shares))}")
        if len(shares) != 1:
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            print(f"  {name} ({metric['unit']}, {metric['better']} is better)")
            medians = []
            for label, runs in zip("AB", per_set):
                q1, median, q3, spread = quartiles([r["metrics"][name]["value"] for r in runs])
                medians.append(median)
                steady = name == "setup_s" or spread <= bound
                ok &= steady
                print(_row(label, q1, median, q3, spread, bound) + ("" if steady else "  TOO WIDE"))
            if len(medians) == 2:
                a, b = medians
                worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                within = worse <= bound
                ok &= within
                print(f"    B is {worse:+.2%} worse than A: {'within' if within else 'OUTSIDE'} the bound")
    return ok


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    return 0 if compare(spec, [load(Path(arg)) for arg in argv]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
