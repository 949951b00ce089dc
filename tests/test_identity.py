"""tests/identity.py tells a changed tree from its copy, and a copy from itself."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tree(tmp_path, name, old=None, new=None):
    tree = tmp_path / name
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    if old is not None:
        noise = tree / "src" / "ghzpurify" / "noise.py"
        text = noise.read_text(encoding="utf-8")
        assert text.count(old) == 1
        noise.write_text(text.replace(old, new), encoding="utf-8")
    return tree


def _identity(parent, change, *flags):
    return subprocess.run(
        [sys.executable, str(ROOT / "tests" / "identity.py"), str(parent), str(change), "--smoke", *flags],
        capture_output=True, text=True, timeout=300,
    )


def test_identity_passes_two_copies_and_fails_a_mutant(tmp_path):
    parent, copy = _tree(tmp_path, "parent"), _tree(tmp_path, "copy")
    mutant = _tree(tmp_path, "mutant", "dof == POL", "dof != POL")
    same = _identity(parent, copy)
    assert same.returncode == 0, same.stdout + same.stderr
    changed = _identity(parent, mutant)
    assert changed.returncode == 1, changed.stdout + changed.stderr
    assert "simulate: case" in changed.stdout
    assert re.search(r"^simulate: \d+ of \d+ cases differ: \d+", changed.stdout, re.MULTILINE)


def test_identity_under_another_interpreter_skips_the_verify_set(tmp_path):
    """--python runs the change tree's child under the named interpreter; the verify set is reported skipped, not identical."""
    parent, mutant = _tree(tmp_path, "parent"), _tree(tmp_path, "mutant", "dof == POL", "dof != POL")
    same = _identity(parent, parent, "--python", sys.executable)
    assert same.returncode == 0, same.stdout + same.stderr
    assert re.search(r"^verify: \d+ cases skipped: they need numpy", same.stdout, re.MULTILINE)
    assert not re.search(r"^verify: .*identical", same.stdout, re.MULTILINE)
    assert re.search(r"^ghz: \d+ cases identical", same.stdout, re.MULTILINE)
    changed = _identity(parent, mutant, "--python", sys.executable)
    assert changed.returncode == 1, changed.stdout + changed.stderr
    assert re.search(r"^simulate: \d+ of \d+ cases differ: \d+", changed.stdout, re.MULTILINE)
