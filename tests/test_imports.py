"""What importing the package loads and binds: each test runs a fresh interpreter.

Of the engine's paths none builds an array: a phase-flip run takes the
scalar frame trace on GHZ x GHZ members, every member a config or the CLI
builds, and the sparse off-frame step on any other member (a complex one,
or one that is not a product of two GHZ states), so no mode on any member
loads numpy. Only the dense oracle imports it, in its own function bodies,
so a verify loads it; optics' per-state route runs term by term and loads
nothing. A stray module-level import would put numpy back into every
simulate and every sweep, about half of a short ghzpurify process. The
package itself binds its modules, its version and the names of the README
quick start, nothing else.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_readme import quick_start

ROOT = Path(__file__).resolve().parent.parent
CASES = json.loads((ROOT / "tests" / "data" / "simulate" / "cases.json").read_text())

# Runs each argv (a JSON list, first argument) through cli.main in one
# process, output to stdout, then prints whether numpy is loaded, before and
# after, as the last line.
_RUN_CLI = """
import contextlib, io, json, sys
from ghzpurify import cli
before = "numpy" in sys.modules
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
print(json.dumps([before, "numpy" in sys.modules]))
"""

# Phase-flip runs of the pair input at m = 2..10, on the gate and on the
# table with its two rail-1 rows swapped (as verify --inject-gate-fault
# swaps them), under the phase-flip mode and under the accept-all rule; then,
# if the first argument names one, runs on a member off the GHZ frame, on
# both tables: a complex one, or one that is not a GHZ x GHZ product. Prints
# whether numpy is loaded after the pair runs and after the last run.
_PHASEFLIP_RUNS = """
import json, sys
from ghzpurify import optics, protocol
from ghzpurify.states import POL, SPATIAL, Ensemble, PureState, make_state
mode, swapped = protocol.MODES["phaseflip"], dict(optics.GATE_TABLE)
swapped[(0, 0)], swapped[(1, 0)] = swapped[(1, 0)], swapped[(0, 0)]
for m in range(2, 11):
    pair = mode.verify_input(m, 0.8, 0.7)
    for table in (None, swapped):
        for rule in (mode.rule, protocol.AcceptanceRule("general")):
            try:
                protocol._execute(pair, rule, mode.plan(pair), None, True, table)
            except ValueError as exc:  # nothing accepted
                assert "no accepted" in str(exc)
after_pairs = "numpy" in sys.modules
member = mode.verify_input(3, 0.8, 0.7).members[0][1]
if sys.argv[1] == "complex":
    member = PureState(3, member.dofs, {lab: 1j * a for lab, a in member.terms.items()})
elif sys.argv[1] == "off-product":
    member = make_state(3, (POL, SPATIAL), [((0, 0), 0.9**0.5), ((7, 7), 0.1**0.5)])
for table in (None, swapped):
    try:
        mode.run(Ensemble(((1.0, member),)), gate_table=table)
    except ValueError as exc:  # nothing accepted
        assert "no accepted" in str(exc)
print(json.dumps([after_pairs, "numpy" in sys.modules]))
"""

# The contract perfbench/spans.py relies on: every module its LAYER_SPANS
# names is imported with the package, and Tracer.installed wraps and
# restores their functions. Tracer.installed raises if a function it wraps
# by name is renamed or deleted, so this run also pins those names.
_TRACER = """
import json, sys
sys.path.insert(0, sys.argv[1])
import ghzpurify
from spans import LAYER_SPANS, Tracer
missing = [mod for _, mod, _, _ in LAYER_SPANS if f"ghzpurify.{mod}" not in sys.modules]
protocol = ghzpurify.protocol
before = "numpy" in sys.modules
original = protocol.run_bitflip
tracer = Tracer()
with tracer.installed():
    wrapped = protocol.run_bitflip is not original
    protocol.run_bitflip(protocol.MODES["bitflip"].verify_input(3, 0.8, 0.7))
print(json.dumps({
    "missing": missing,
    "numpy_before": before,
    "numpy_after": "numpy" in sys.modules,
    "wrapped": wrapped,
    "restored": protocol.run_bitflip is original,
    "spans": sorted({span[0] for span in tracer.spans}),
}))
"""


# The package's bindings other than dunder names, split into modules and other
# names, and the ghzpurify modules that importing the package loaded.
_SURFACE = """
import json, sys, types
import ghzpurify
public = {n: v for n, v in vars(ghzpurify).items() if not n.startswith("__")}
print(json.dumps({
    "names": sorted(n for n, v in public.items() if not isinstance(v, types.ModuleType)),
    "modules": sorted(n for n, v in public.items() if isinstance(v, types.ModuleType)),
    "loaded": sorted(n for n in sys.modules if n.startswith("ghzpurify.")),
    "version": ghzpurify.__version__,
}))
"""


# optics' per-state route, each function on GHZ states at m = 3; prints whether numpy is loaded.
_PER_STATE = """
import json, sys
from ghzpurify.optics import apply_network, bit_flip_pol, hadamard_pol, hadamard_spatial
from ghzpurify.states import make_ghz_pol, make_ghz_spatial, tensor_hyper
apply_network(hadamard_spatial(hadamard_pol(tensor_hyper(make_ghz_pol(3, 1, -1), make_ghz_spatial(3, 2)))))
hadamard_pol(bit_flip_pol(make_ghz_pol(3, 1, -1), 5))
print(json.dumps("numpy" in sys.modules))
"""


def _fresh_python(script: str, *args: str):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _simulate_argv(tmp_path, mode: str) -> list[str]:
    case = next(c for c in CASES if c["config"]["mode"] == mode)
    path = tmp_path / f"{mode}.json"
    path.write_text(json.dumps(case["config"]))
    return ["simulate", str(path), "--reproducible"]


def test_sparse_simulates_and_sweeps_leave_numpy_unloaded(tmp_path):
    argvs = [_simulate_argv(tmp_path, mode) for mode in ("bitflip", "phaseflip", "general", "deterministic-demo")]
    argvs += [
        ["sweep", "--axis", "L", "--from", "20", "--to", "30"],
        ["sweep", "--axis", "N", "--from", "2", "--to", "6"],
        ["sweep", "--axis", "F", "--grid", "0.1:0.9:0.2"],
    ]
    assert _fresh_python(_RUN_CLI, json.dumps(argvs)) == [False, False]


def test_phaseflip_frame_runs_leave_numpy_unloaded():
    assert _fresh_python(_PHASEFLIP_RUNS, "frame") == [False, False]


@pytest.mark.parametrize("command", ["phaseflip", "verify"])
def test_dense_paths_load_numpy(command):
    """Of the two paths that built arrays, only verify's oracle still does and loads numpy.

    A phase-flip member off the GHZ frame (complex, or not a product), on
    the gate and on the faulted table, takes the sparse step and leaves
    numpy unloaded.
    """
    if command == "phaseflip":
        for member in ("complex", "off-product"):
            assert _fresh_python(_PHASEFLIP_RUNS, member) == [False, False]
    else:
        assert _fresh_python(_RUN_CLI, json.dumps([["verify", "--m", "2"]])) == [False, True]


def test_only_the_oracle_imports_numpy():
    """No module of the package but oracle names numpy in an import, and optics' per-state route leaves it unloaded."""
    importers = [
        path.name
        for path in sorted((ROOT / "src" / "ghzpurify").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
    ]
    assert set(importers) == {"oracle.py"}
    assert _fresh_python(_PER_STATE) is False


def test_tracer_finds_every_module_without_numpy():
    out = _fresh_python(_TRACER, str(ROOT / "perfbench"))
    assert out["missing"] == []
    assert not out["numpy_before"]
    assert out["wrapped"] and out["restored"]
    assert "protocol.run" in out["spans"]
    assert not out["numpy_after"]


def test_package_exports_only_the_quick_start():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(quick_start()))
        if isinstance(node, ast.ImportFrom) and node.module == "ghzpurify"
        for alias in node.names
    ]
    out = _fresh_python(_SURFACE)
    assert imported and out["names"] == sorted(imported)
    assert out["version"]
    modules = ["efficiency", "noise", "optics", "oracle", "protocol", "records", "states"]
    assert out["modules"] == modules
    assert out["loaded"] == [f"ghzpurify.{name}" for name in modules]
