"""simulate --reproducible output, byte for byte, against committed records.

tests/data/simulate/cases.json lists the configs: every mode, m in {3, 5},
target 0+ and one other GHZ index with both signs, plus the photon counts
the benchmark solves: phase flip at m = 8 (targets 0+ and 0-), bit flip and
deterministic-demo at m = 16, and general at m = 8 with three components
per degree of freedom; and phase flip at its photon cap, m = 10 (target
0-). <name>.json and <name>.csv hold the bytes
``ghzpurify simulate <config> --reproducible --format json|csv --out FILE``
wrote for each case: the m in {3, 5} cases at commit d582a73, when basis
labels were still tuples of per-photon bit tuples, phaseflip-m10-0- at
commit 571261f, before the dense step took its Hadamard layers in closed
form, the others at commit 86f03bd, before the gate was routed through its
affine masks.

Five cases were rewritten at commit b2ced4f, which deleted
protocol.merged_fidelity and made every reduction that feeds a printed
figure math.fsum. deterministic-demo-m16-0+, phaseflip-m5-0+,
phaseflip-m8-0+ and phaseflip-m8-0- moved in deviation.fidelity (JSON and
CSV), which is now the difference of the two printed fidelities.
general-m8-0+ moved in its success probabilities and two closed-form
components (JSON only): its three-component noise lists had been added with
plain sums, which depend on their order. Every JSON record must also print
each deviation as the exact difference of its engine and closed-form fields.

tests/data/simulate/regenerate.py rewrites them all; CI reruns it and fails
on any diff. The engine uses Python arithmetic and elementwise numpy ufuncs
only, never BLAS, so the bytes do not depend on the machine's BLAS.
"""

import json
from pathlib import Path

import pytest

from ghzpurify.cli import main
from helpers import assert_deviation_is_difference

DATA = Path(__file__).parent / "data" / "simulate"
CASES = json.loads((DATA / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_simulate_matches_golden_record(case, fmt, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(case["config"]), encoding="utf-8")
    out = tmp_path / f"record.{fmt}"
    assert main(["simulate", str(config), "--reproducible", "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{case['name']}.{fmt}").read_bytes()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_deviation_is_difference_of_printed_fields(case):
    assert_deviation_is_difference(json.loads((DATA / f"{case['name']}.json").read_text(encoding="utf-8")))
