"""simulate --reproducible output, byte for byte, against committed records.

tests/data/simulate/cases.json lists the configs: every mode, m in {3, 5},
target 0+ and one other GHZ index with both signs. <name>.json and
<name>.csv hold the bytes ``ghzpurify simulate <config> --reproducible
--format json|csv --out FILE`` wrote for each case at commit d582a73, when
basis labels were still tuples of per-photon bit tuples. The engine is pure
Python arithmetic, so the bytes do not depend on the machine's BLAS.
"""

import json
from pathlib import Path

import pytest

from ghzpurify.cli import main

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
