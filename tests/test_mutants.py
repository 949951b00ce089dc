"""Mutation analysis by hand: each mutant must fail at least one cheap detector.

A mutant is one textual change to one function of the package: the function
is recompiled from its source with the change and installed, for the length
of one test, in every module that binds it. The detectors are a subset of the
golden records (tests/test_golden.py), the closed forms every simulate record
is scored against, the engine against the dense oracle at m = 3
(`verify --m 3`), the same comparison on two phase-flip members that are
not GHZ x GHZ products, scored against a target that is not a GHZ state,
the repr of a phase-flip run on GHZ x GHZ members against the same run
with every member through its own dense step, and the efficiency ratio
against its formula and criterion 7 (R P2 = P1). A mutant is caught when a
detector's check fails or raises. A mutant target is a module function or a
``Class.method``, which is installed on the class.

The first mutants are the faults that the per-state checks caught before the
engine built its derived states unchecked: a port state scaled off its norm
(sparse and dense step), a register pushed out of range by tensor_hyper, and
a conditional weight left undivided by its port's probability. The dense
step refuses an out-of-range pol register where it writes the member into
the pol layer's array, and takes the spatial closed form only for registers
below 2^m. The last mutants break the closed form: one scaling by c too few,
the sum and difference swapped, and the two columns the dense step hands it
swapped, which flips the sign of the difference on odd-parity rows. That
sign is Z on every spatial photon after the layer, which the gate and the
correction turn into X on every output photon. Every GHZ state is an
eigenstate of that X, so no fidelity against a GHZ target moves, and a
GHZ-diagonal output does not move at all: only the off-product detector,
with its |000> target, catches this mutant.

Then come the butterfly sign in walsh_hadamard, the closing Hadamard of the
phase-flip correction skipped, a wrong phaseflip_plan flip mask and the GHZ
maker of the two noise lists swapped. The last three reach past the engine:
states.bits read least significant bit first, which the oracle and the
result tables share; the pol-to-pol mask of optics.check_table read off
row (1, 0) without the constant of row (0, 0); and cli.execute scoring the
closed form against 0+ whatever the configured target.

The last three: optics.prune raised from PRUNE_TOL to 1e-9, which only the
second off-product member sees (its accepted ports carry amplitudes of
about 5e-10, and dropping them moves the fidelity against |000> by 1e-9);
and two faults of the phase-flip relabelling, the port shift xq dropped
from the group key and the zq.q sign term dropped. The second flips the
sign of whole port states, which no fidelity sees: only the repr detector
catches it.

The last three reach the two figures that no engine detector reads, and
the oracle. AcceptanceRule.accepts keeping odd-parity ports in phase-flip
mode is shared by the oracle, so verify passes and only the records and
closed forms catch it. Two rows of the oracle's merge (displacer) matrix
swapped, still a permutation, send V on rail 0 to (H, keep) and H on rail 3
to (V, keep); verify catches it. The exponent N + 1 in efficiency.ratio_R is
caught by the efficiency detector, computed in the test from the formula.

Two mutants survive every detector and are not listed. ``sum`` in place
of ``math.fsum`` in noise.ghz_weights changes no figure these detectors
print; tests/test_order.py catches it. Reversing infer_flip_plan's
tie-break, so that a flip and its complement of equal weight swap, is
equivalent on every input that function accepts: the two corrections differ
by X on every photon, and every GHZ state is an eigenstate of that X.
"""

import __future__

import contextlib
import inspect
import io
import json
import math
import sys
import textwrap
from pathlib import Path

import pytest

from ghzpurify import cli, efficiency, noise, optics, oracle, protocol, states
from ghzpurify.oracle import densify, oracle_run
from ghzpurify.records import ProtocolConfig
from ghzpurify.states import POL, SPATIAL, Ensemble, make_ghz_pol, make_ghz_spatial, make_state, tensor_hyper
from helpers import assert_same_text

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
    ("pair-columns", protocol, "_dense_split", "layer[:, 0], layer[:, 1]", "layer[:, 1], layer[:, 0]"),
    ("walsh-sign", optics, "walsh_hadamard", "np.subtract(halves[:, 0], halves[:, 1]",
     "np.subtract(halves[:, 1], halves[:, 0]"),
    ("closing-hadamard", protocol, "_dense_split", "walsh_hadamard(block, m)", "None"),
    ("plan-mask", protocol, "phaseflip_plan", "(1 << m) - 1", "(1 << m) - 2"),
    ("maker-swapped", noise, "ensemble_from_specs", "dof == POL", "dof != POL"),
    ("bits-order", states, "bits", "(register >> (m - 1 - k)) & 1", "(register >> k) & 1"),
    ("table-mask", optics, "check_table", "(p1 ^ c1, s1 ^ c1, c1,", "(p1, s1 ^ c1, c1,"),
    ("record-target", cli, "execute", "weights.get((index, sign), 0.0)", "weights.get((0, 1), 0.0)"),
    ("prune-bound", optics, "prune", "<= PRUNE_TOL", "<= 1e-9"),
    ("relabel-key", protocol, "_relabelled_dense_split", "key = (zp & a2 ^ zs & b2, a)", "key = (0, a)"),
    ("relabel-port-sign", protocol, "_relabelled_dense_split", "e & pol_q ^ f & sp_q, zo, xo)", "0, zo, xo)"),
    ("accept-parity", protocol, "AcceptanceRule.accepts", "count % 2 == 0", "count % 2 == 1"),
    ("merge-rows", oracle, "_single_photon_network", "merge[2 * 1 + 0, 2 * 0 + 1] = 1.0  # V on rail 0 -> (V, keep)\n"
     "    merge[2 * 0 + 0, 2 * 3 + 0]", "merge[2 * 0 + 0, 2 * 0 + 1] = 1.0\n    merge[2 * 1 + 0, 2 * 3 + 0]"),
    ("ratio-exponent", efficiency, "ratio_R", "** params.N", "** (params.N + 1)"),
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


def _against_oracle(pol, spatial):
    """Engine against oracle on the phase-flip member pol x spatial at m = 3, scored against |000>."""
    member = make_state(3, (POL, SPATIAL), [((p, s), a * b) for p, a in pol for s, b in spatial])
    ensemble, mode = Ensemble([(1.0, member)]), protocol.MODES["phaseflip"]
    target = make_state(3, (POL,), [((0,), 1.0)])
    engine = mode.run(ensemble, target)
    dense = oracle_run(densify(ensemble), 3, mode, mode.plan(ensemble), target)
    assert abs(engine.success_probability - dense.success_probability) <= cli.VERIFY_TOL
    assert abs(engine.output_fidelity - dense.output_fidelity) <= cli.VERIFY_TOL


def oracle_off_product(tmp_path):
    # unequal amplitudes on registers 0 and 7 of both degrees of freedom
    _against_oracle(((0, 0.9**0.5), (7, 0.1**0.5)), ((0, 0.96**0.5), (7, 0.04**0.5)))
    # GHZ(0,+) with a GHZ(0,-) part of weight 1e-9 on both: each accepted port carries
    # amplitudes of about 5e-10, between PRUNE_TOL and 1e-9, on its odd-parity registers
    small = 1e-9**0.5
    factor = ((0, ((1.0 - 1e-9) ** 0.5 + small) * 0.5**0.5), (7, ((1.0 - 1e-9) ** 0.5 - small) * 0.5**0.5))
    _against_oracle(factor, factor)


def relabelled_repr(tmp_path):
    # two sign classes (port shifts), each with two members whose pol indices differ
    m, mode = 4, protocol.MODES["phaseflip"]
    members = [(0, 1, 0, 1), (3, -1, 5, -1), (0, 1, 0, -1), (6, -1, 1, 1)]
    ensemble = Ensemble(tuple(
        (0.25, tensor_hyper(make_ghz_pol(m, e, s), make_ghz_spatial(m, f, t))) for e, s, f, t in members
    ))
    framed = repr(mode.run(ensemble))
    with pytest.MonkeyPatch.context() as refuse:
        refuse.setattr(protocol, "_ghz_frame", lambda member: None)
        assert_same_text(repr(mode.run(ensemble)), framed)


def efficiency_ratio(tmp_path):
    for eta_d, eta_c, L, N in ((0.9, 0.95, 25.0, 3), (0.8, 1.0, 60.0, 8), (1.0, 0.7, 0.0, 2)):
        params = efficiency.EfficiencyParams(eta_d=eta_d, eta_c=eta_c, L=L, L0=25.0, N=N, p1=0.6)
        ratio = efficiency.ratio_R(params)
        assert math.isclose(ratio, 4.0 / (math.exp(-L / 25.0) * eta_d * eta_c) ** N, rel_tol=TOL)
        assert math.isclose(ratio * efficiency.p_two(params), efficiency.p_one(params), rel_tol=TOL)


DETECTORS = [efficiency_ratio, relabelled_repr, oracle_off_product, closed_forms, golden_records, oracle_m3]  # cheapest first


def fails(detector, tmp_path) -> bool:
    # any exception counts: a mutant may crash where it does not mislead, and
    # test_detectors_pass_on_the_package shows that no detector fails unmutated
    try:
        detector(tmp_path)
    except Exception:
        return True
    return False


def mutate(monkeypatch, module, name, old, new):
    """Recompile module.name with ``old`` replaced by ``new``; bind it wherever the original is bound.

    A ``Class.method`` name is recompiled the same way and set on the class.
    """
    owner, _, attr = name.rpartition(".")
    original = getattr(getattr(module, owner) if owner else module, attr)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, f"mutation site {old!r} not found once in {name}"
    code = compile(
        source.replace(old, new), inspect.getsourcefile(original), "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace = {}
    exec(code, vars(module), namespace)
    if owner:
        monkeypatch.setattr(getattr(module, owner), attr, namespace[attr])
        return
    for holder in [mod for key, mod in list(sys.modules.items()) if key.split(".")[0] == "ghzpurify"]:
        if getattr(holder, attr, None) is original:
            monkeypatch.setattr(holder, attr, namespace[attr])


def test_detectors_pass_on_the_package(tmp_path):
    for detector in DETECTORS:
        detector(tmp_path)


@pytest.mark.parametrize("name, module, function, old, new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_is_caught(monkeypatch, tmp_path, name, module, function, old, new):
    mutate(monkeypatch, module, function, old, new)
    assert any(fails(d, tmp_path) for d in DETECTORS), f"mutant {name} survives every detector"
