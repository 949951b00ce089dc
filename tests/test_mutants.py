"""Mutation analysis by hand: each mutant must fail at least one cheap detector.

A mutant is one textual change to one function of the package: the function
is recompiled from its source with the change and installed, for the length
of one test, in every module that binds it. The detectors are a subset of the
golden records (tests/test_golden.py), the closed forms every simulate record
is scored against, and the engine against the dense oracle at m = 3
(`verify --m 3`). A mutant is caught when a detector's check fails or raises.

The first mutants are the faults that the per-state checks caught before the
engine built its derived states unchecked: a port state scaled off its norm
(sparse and dense step), a register pushed out of range by tensor_hyper, and
a conditional weight left undivided by its port's probability. The dense
step must refuse an out-of-range register on its closed-form path too: it
takes that path only for registers below 2^m, so such a member falls through
to walsh_hadamard's arrays, which raise. The last mutants break the closed
form itself: one scaling by c too few, and the sum and difference swapped.
"""

import __future__

import contextlib
import inspect
import io
import json
import textwrap
from pathlib import Path

import pytest

import ghzpurify
from ghzpurify import cli, noise, optics, protocol, states
from ghzpurify.records import ProtocolConfig

DATA = Path(__file__).parent / "data" / "simulate"
CASES = {c["name"]: c["config"] for c in json.loads((DATA / "cases.json").read_text(encoding="utf-8"))}
# one golden case per mode; phase flip at m = 5 runs the dense step past its smallest size
GOLDEN = ["bitflip-m3-1+", "phaseflip-m5-0+", "general-m3-0+", "deterministic-demo-m3-1-"]
TOL = 1e-12

# (name, module, function, source text, mutated text)
MUTANTS = [
    ("sparse-scale", protocol, "_split_by_pattern", "scale = prob**-0.5", "scale = prob**-0.5 * (1 + 1e-9)"),
    ("dense-scale", protocol, "_dense_split", "p**-0.5 if p > 0.0", "p**-0.5 * (1 + 1e-9) if p > 0.0"),
    ("tensor-register", states, "tensor_hyper", "(plab[0], slab[0])", "(plab[0] ^ (1 << pol.m), slab[0])"),
    ("weight-undivided", protocol, "_execute", "(w / pattern_prob, s)", "(w, s)"),
    ("pair-scalings", optics, "pair_hadamard", "for _ in range(m):", "for _ in range(m - 1):"),
    ("pair-swapped", optics, "pair_hadamard", "[total + 0.0, diff + 0.0,", "[diff + 0.0, total + 0.0,"),
]


def closed_forms(tmp_path):
    for name in GOLDEN:
        _, _, deviation = cli.execute(ProtocolConfig.from_dict(CASES[name]))
        assert max(deviation.values()) <= TOL, (name, deviation)


def golden_records(tmp_path):
    for name in GOLDEN:
        config, out = tmp_path / f"{name}.config.json", tmp_path / f"{name}.json"
        config.write_text(json.dumps(CASES[name]), encoding="utf-8")
        assert cli.main(["simulate", str(config), "--reproducible", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"{name}.json").read_bytes(), name


def oracle_m3(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--m", "3"]) == 0


DETECTORS = [closed_forms, golden_records, oracle_m3]  # cheapest first


def fails(detector, tmp_path) -> bool:
    # any exception counts: a mutant may crash where it does not mislead, and
    # test_detectors_pass_on_the_package shows that no detector fails unmutated
    try:
        detector(tmp_path)
    except Exception:
        return True
    return False


def mutate(monkeypatch, module, name, old, new):
    """Recompile module.name with ``old`` replaced by ``new``; bind it wherever the original is bound."""
    original = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, f"mutation site {old!r} not found once in {name}"
    code = compile(
        source.replace(old, new), inspect.getsourcefile(original), "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace = {}
    exec(code, vars(module), namespace)
    for holder in (ghzpurify, states, noise, optics, protocol, cli):
        if getattr(holder, name, None) is original:
            monkeypatch.setattr(holder, name, namespace[name])


def test_detectors_pass_on_the_package(tmp_path):
    for detector in DETECTORS:
        detector(tmp_path)


@pytest.mark.parametrize("name, module, function, old, new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_is_caught(monkeypatch, tmp_path, name, module, function, old, new):
    mutate(monkeypatch, module, function, old, new)
    assert any(fails(d, tmp_path) for d in DETECTORS), f"mutant {name} survives every detector"
