"""Rewrite every golden record that cases.json lists.

For each case, writes <name>.json and <name>.csv beside this script with
``ghzpurify simulate <config> --reproducible --format json|csv --out FILE``,
the bytes tests/test_golden.py compares against. Run it from the repository
root, on the commit whose output the records should pin:

    PYTHONPATH=src python tests/data/simulate/regenerate.py
"""

import json
import sys
import tempfile
from pathlib import Path

from ghzpurify.cli import main

DATA = Path(__file__).parent


def regenerate() -> None:
    cases = json.loads((DATA / "cases.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        for case in cases:
            config.write_text(json.dumps(case["config"]), encoding="utf-8")
            for fmt in ("json", "csv"):
                out = DATA / f"{case['name']}.{fmt}"
                if main(["simulate", str(config), "--reproducible", "--format", fmt, "--out", str(out)]) != 0:
                    sys.exit(f"simulate failed on case {case['name']}")


if __name__ == "__main__":
    regenerate()
