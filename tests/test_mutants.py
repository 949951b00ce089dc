"""Mutation analysis by hand: each mutant must fail at least one cheap detector.

A mutant is one textual change to one function of the package: the function
is recompiled from its source with the change and installed, for the length
of one test, in every module that binds it. The detectors are a subset of the
golden records (tests/test_golden.py), the closed forms every simulate record
is scored against, the engine against the dense oracle at m = 3
(`verify --m 3`), the same comparison on two phase-flip members that are
not GHZ x GHZ products, scored against a target that is not a GHZ state,
the repr of Hadamard runs on GHZ x GHZ members against the same runs
with every member through its own dense step, the same comparison on
runs in one process whose column memo keys differ in one part only, the
repr of a run whose step shares port states against tests/helpers.py's
per-port loop, and the efficiency ratio against its formula and
criterion 7 (R P2 = P1). A mutant is caught when a detector's check fails
or raises. A mutant target is a module function or a ``Class.method``,
which is installed on the class. protocol's process-lifetime caches (the
port tables and the column memo) are emptied before a mutant is
installed and after it is removed: a warm memo would hand a mutant of the
column step the package's columns, and one the mutant filled would
outlive it.

The first mutants are the faults that the per-state checks caught before the
engine built its derived states unchecked: a port state scaled off its norm
(sparse and dense step), a register pushed out of range by tensor_hyper, and
a conditional weight left undivided by its port's probability. The dense
step refuses an out-of-range pol register where it writes the member into
the pol layer's array. The last two break the spatial closed form of
optics.pair_rows: one scaling by c too few, and the sum and difference
swapped.

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
and two faults of the phase-flip relabelling: every magnitude served by
the column of the first, and zq read as 0. The first negates every port
state of a member at the negated amplitude, the second flips the sign of
whole port states; no fidelity sees either, and only the repr detector,
whose members include such a member, catches them.

The last three reach the two figures that no engine detector reads, and
the oracle. AcceptanceRule.ports listing the odd-parity ports in phase-flip
mode is shared by the oracle, so verify passes and only the records and
closed forms catch it. Two rows of the oracle's merge (displacer) matrix
swapped, still a permutation, send V on rail 0 to (H, keep) and H on rail 3
to (V, keep); verify catches it. The exponent N + 1 in efficiency.ratio_R is
caught by the efficiency detector, computed in the test from the formula.

The last three break a correction or a port read as a register XOR. The
dense step's one gather without the flip XOR leaves every port uncorrected;
the closed forms, the golden records and verify catch it. The oracle's
corrected target read at grid instead of grid ^ mask does the same on the
oracle side, which only verify sees. The port register XOR 1 in
oracle._port_blocks' gather scores each accepted port from its neighbour's
block; the off-product detector and verify catch it.

The next two break the skip of a member whose port class the rule
rejects. Dropping c2 from the parity test changes nothing on the gate
table, where c2 is 0, or at even m: only the faulted-table run at odd m
catches it. Skipping the live class in place of the rejected one leaves
the phase-flip run no accepted port, and sends a rejected member to the
column step with no ports, which raises.

The last seven break the column step, which the first GHZ x GHZ member of
each magnitude takes, and the sign rule that gives every member's ports
from its column. Frame inputs no longer reach the dense step, so its
three mutants above (dense-scale, closing-hadamard, dense-flips) are
caught by the repr detector, whose refused runs take the dense step for
every member, and all but dense-flips by the off-product detector too.
Their column-step counterparts are column-scale, column-closing-hadamard
and column-flips; the repr detector, the closed forms, the golden records
and verify catch all three. column-pair-columns swaps the two columns
the column step hands pair_rows, which flips the sign of the difference
on odd-parity rows. That sign is Z on every spatial photon after the
layer, which the gate and the correction turn into X on every output
photon. Every GHZ state is an eigenstate of that X, so no fidelity
against a GHZ target moves: only the repr detector catches it. Dropping
the zq.q sign flips whole port states, which only the repr detector
sees. Gathering at port 0 whatever the member's class changes nothing
where the first member is of the class of port 0: the repr detector's
first member is of the other class, which its accept-all runs keep.
Dropping the (xo ^ xo0 ^ F(q0) ^ F(q)).o sign moves every fidelity.

The next two break the key under which _execute builds one outcome for
every port with the same entries, the identities of the (weight, state)
objects it makes one per step group. The engine's steps share a state only
between ports of one group, which all carry one probability, so keying on
the states alone changes no run of theirs: only the shared-states
detector, a patched step that puts one state on two ports at two
probabilities, catches it. Keying on the first entry alone gives a port
the outcome of another whose later entries differ; the shared-states and
repr detectors catch it.

The last three break the port groups. A group that drops its last port
loses that port's probability, which every detector but the cheapest
sees. Reading the flip mask of the class's first port for every port
changes nothing where every port has one flip mask, as in every mode's
plan: a fourth repr run, an accept-all Hadamard run that flips the last
photon on the ports where it left by SWAP, catches it. A byte-table
slice in states.bits one photon short spells every pattern out wrong;
the records, verify and the shared-states detector catch it.

The last four drop one term each of the sign rule,
out_M[q](o) = (-1)^(c ^ c0 ^ (xo0 ^ F(q0)).d ^ zq0.q0 ^ zq.q
^ (xo ^ xo0 ^ F(q0) ^ F(q)).o) B(o ^ d) with d = zo ^ zo0: zq0.q0,
(xo0 ^ F(q0)).d, the shift d itself, and F(q) from the port groups and
their masks. zq0.q0 is 0 where q0 is port 0, so only the repr detector's
first member, of the odd class at odd e, shows it. The golden inputs are
all GHZ(0) x GHZ(0), where d is 0, so only the repr detector catches the
next two; the last moves the phase-flip fidelities.

The last four break the caches that live for the process. The column
memo keyed without the gate hands a run on the faulted table the gate's
column where the two differ, as they do for GHZ(1,-) x GHZ(0,-) at
m = 3; keyed without the magnitude it hands the negated member the
column of the first, with the wrong signs; keyed without the flip mask
of the first port it hands the accept-all run whose plan flips the last
photon the column of the empty plan. The first two only the warm-column
detector sees, the third the repr detector. Partitioning a class's ports
once per class, not once per (zq, class), gives a member the sign
groups of another with a different zq; the repr detector catches it.

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
from ghzpurify.states import POL, SPATIAL, Ensemble, PureState, make_ghz_pol, make_ghz_spatial, make_state, tensor_hyper
from helpers import assert_same_text, clear_caches, per_port_execute

DATA = Path(__file__).parent / "data" / "simulate"
CASES = {c["name"]: c["config"] for c in json.loads((DATA / "cases.json").read_text(encoding="utf-8"))}
# one golden case per mode; phase flip at m = 5 runs the dense step past its smallest size
GOLDEN = ["bitflip-m3-1+", "phaseflip-m5-0+", "general-m3-0+", "deterministic-demo-m3-1-"]
TOL = 1e-12
# the gate with rows (H, mode 0) and (V, mode 0) swapped: its port constant c2 is 2^m - 1
FAULTED = {**optics.GATE_TABLE, (0, 0): optics.GATE_TABLE[(1, 0)], (1, 0): optics.GATE_TABLE[(0, 0)]}

# (name, module, function, source text, mutated text)
MUTANTS = [
    ("sparse-scale", protocol, "_split_by_pattern", "scale = prob**-0.5", "scale = prob**-0.5 * (1 + 1e-9)"),
    ("dense-scale", protocol, "_dense_split", "p**-0.5 if p > 0.0", "p**-0.5 * (1 + 1e-9) if p > 0.0"),
    ("tensor-register", states, "tensor_hyper", "(plab[0], slab[0])", "(plab[0] ^ (1 << pol.m), slab[0])"),
    ("weight-undivided", protocol, "_execute", "(w / pattern_prob, s)", "(w, s)"),
    ("pair-scalings", optics, "pair_rows", "for _ in range(m):", "for _ in range(m - 1):"),
    ("pair-swapped", optics, "pair_rows", "[total + 0.0, diff + 0.0,", "[diff + 0.0, total + 0.0,"),
    ("walsh-sign", optics, "walsh_hadamard", "np.subtract(halves[:, 0], halves[:, 1]",
     "np.subtract(halves[:, 1], halves[:, 0]"),
    ("closing-hadamard", protocol, "_dense_split", "walsh_hadamard(block, m)", "None"),
    ("plan-mask", protocol, "phaseflip_plan", "(1 << m) - 1", "(1 << m) - 2"),
    ("maker-swapped", noise, "ensemble_from_specs", "dof == POL", "dof != POL"),
    ("bits-order", states, "bits", "out[8 * size - m :]", "out[::-1][:m]"),
    ("table-mask", optics, "check_table", "(p1 ^ c1, s1 ^ c1, c1,", "(p1, s1 ^ c1, c1,"),
    ("record-target", cli, "execute", "weights.get((index, sign), 0.0)", "weights.get((0, 1), 0.0)"),
    ("prune-bound", optics, "prune", "<= PRUNE_TOL", "<= 1e-9"),
    ("relabel-key", protocol, "_relabelled_dense_split", "bases.get(a)", "next(iter(bases.values()), None)"),
    ("relabel-port-sign", protocol, "_relabelled_dense_split", "e & pol_q ^ f & sp_q", "0"),
    ("accept-parity", protocol, "AcceptanceRule.ports", "r << 1 | r.bit_count() & 1", "r << 1 | ~r.bit_count() & 1"),
    ("merge-rows", oracle, "_single_photon_network", "merge[2 * 1 + 0, 2 * 0 + 1] = 1.0  # V on rail 0 -> (V, keep)\n"
     "    merge[2 * 0 + 0, 2 * 3 + 0]", "merge[2 * 0 + 0, 2 * 0 + 1] = 1.0\n    merge[2 * 1 + 0, 2 * 3 + 0]"),
    ("ratio-exponent", efficiency, "ratio_R", "** params.N", "** (params.N + 1)"),
    ("dense-flips", protocol, "_dense_split", "grid[:, None] ^ flips[cols]", "grid[:, None]"),
    ("oracle-flips", oracle, "oracle_run", "scored[grid ^ corrections.get(port, 0)]", "scored[grid]"),
    ("port-offset", oracle, "_port_blocks", "dtype=np.intp)[:, None])", "dtype=np.intp)[:, None] ^ 1)"),
    ("parity-offset", protocol, "_relabelled_dense_split", "(xq ^ c2)", "xq"),
    ("parity-flipped", protocol, "_relabelled_dense_split", "if not (ports :=", "if (ports :="),
    ("column-sign", protocol, "_relabelled_dense_split", "((zq & q).bit_count() & 1, plan", "(0, plan"),
    ("column-first-port", protocol, "_relabelled_dense_split", "q0 = ports[0]", "q0 = 0"),
    ("column-flip-sign", protocol, "_relabelled_dense_split", "s ^ (x & o).bit_count() & 1", "s"),
    ("column-scale", protocol, "_column_split", "column *= prob**-0.5", "column *= prob**-0.5 * (1 + 1e-9)"),
    ("column-pair-columns", protocol, "_column_split", "layer[:, 0], layer[:, 1]", "layer[:, 1], layer[:, 0]"),
    ("column-closing-hadamard", protocol, "_column_split", "walsh_hadamard(closed, m)", "None"),
    ("column-flips", protocol, "_column_split", "column[grid ^ plan.get(q0, 0)]", "column[grid]"),
    ("signature-weight", protocol, "_execute", "tuple(map(id, entries))", "tuple(id(s) for _, s in entries)"),
    ("signature-first", protocol, "_execute", "tuple(map(id, entries))", "tuple(map(id, entries[:1]))"),
    ("group-last-port", protocol, "_relabelled_dense_split", "tuple(qs))", "tuple(qs[:-1]))"),
    ("relabel-first-flip", protocol, "_relabelled_dense_split", "plan.get(q, 0)", "plan.get(ports[0], 0)"),
    ("bits-slice", states, "bits", "out[8 * size - m :]", "out[8 * size - m + 1 :]"),
    ("base-port-sign", protocol, "_relabelled_dense_split", "c ^ (zq & q0).bit_count() & 1, zo", "c, zo"),
    ("base-shift-sign", protocol, "_relabelled_dense_split", "c ^ c0 ^ (x0 & d).bit_count() & 1", "c ^ c0"),
    ("base-shift", protocol, "_relabelled_dense_split", "d = zo ^ zo0\n", "d = 0\n"),
    ("group-flip", protocol, "_relabelled_dense_split", ", plan.get(q, 0)), [])", ", 0), [])"),
    ("memo-gate", protocol, "_relabelled_dense_split", "(m, gate, q0, plan.get(q0, 0), parts)",
     "(m, q0, plan.get(q0, 0), parts)"),
    ("memo-flip", protocol, "_relabelled_dense_split", "(m, gate, q0, plan.get(q0, 0), parts)", "(m, gate, q0, parts)"),
    ("memo-magnitude", protocol, "_relabelled_dense_split", "plan.get(q0, 0), parts)", "plan.get(q0, 0), parts[1:])"),
    ("partition-zq", protocol, "_relabelled_dense_split", "zq_class := (zq, parity)", "zq_class := parity"),
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
    # two sign classes (port shifts), each with members whose pol indices differ: the first is of the odd
    # class at odd e, so that the accept-all runs derive the even class from its column, and the last is
    # the third at the negated amplitude, another magnitude
    members = [
        (3, -1, 0, 1, 1), (0, 1, 0, 1, 1), (3, -1, 5, -1, 1), (0, 1, 0, -1, 1), (6, -1, 1, 1, 1), (3, -1, 5, -1, -1),
    ]
    runs = [
        (4, lambda ensemble: protocol.MODES["phaseflip"].run(ensemble)),
        # every port accepted, so both classes are live
        (4, lambda ensemble: protocol._execute(ensemble, protocol.AcceptanceRule("general"), {}, None, True, None)),
        # the last photon flipped where it left by SWAP: the ports of one member close flips of either parity
        (4, lambda ensemble: protocol._execute(
            ensemble, protocol.AcceptanceRule("general"), {q: q & 1 for q in range(16)}, None, True, None
        )),
        # the faulted table's port constant c2 is 2^m - 1, of odd parity at odd m
        (5, lambda ensemble: protocol.MODES["phaseflip"].run(ensemble, gate_table=FAULTED)),
    ]
    for m, run in runs:
        products = [(k, tensor_hyper(make_ghz_pol(m, e, s), make_ghz_spatial(m, f, t))) for e, s, f, t, k in members]
        ensemble = Ensemble(tuple(
            (1 / len(members), PureState(m, p.dofs, {lab: k * a for lab, a in p.terms.items()})) for k, p in products
        ))
        framed = repr(run(ensemble))
        with pytest.MonkeyPatch.context() as refuse:
            refuse.setattr(protocol, "_ghz_frame", lambda member: None)
            assert_same_text(repr(run(ensemble)), framed)


def warm_columns(tmp_path):
    # runs in one process whose column memo keys differ in one part only, each against its per-member dense
    # steps: GHZ(1,-) x GHZ(0,-) at m = 3 takes port 0 and flip 7 on the gate and on the faulted table, where
    # its column differs, and the same member negated differs only in magnitude
    m = 3
    member = tensor_hyper(make_ghz_pol(m, 1, -1), make_ghz_spatial(m, 0, -1))
    single, negated = (Ensemble(((1.0, PureState(m, member.dofs, {lab: k * a for lab, a in member.terms.items()})),))
                       for k in (1, -1))
    for ensemble, table in ((single, None), (single, FAULTED), (negated, None)):
        framed = repr(protocol.MODES["phaseflip"].run(ensemble, gate_table=table))
        with pytest.MonkeyPatch.context() as refuse:
            refuse.setattr(protocol, "_ghz_frame", lambda member: None)
            assert_same_text(repr(protocol.MODES["phaseflip"].run(ensemble, gate_table=table)), framed)


def shared_port_states(tmp_path):
    # the engine's steps share a state only between ports of one member, at one probability: this step
    # shares one between ports 0 and 3 at two, and gives ports 5 and 6 the same first entry and different second
    m = 3
    first, second = (tensor_hyper(make_ghz_pol(m, i), make_ghz_spatial(m, i)) for i in (0, 1))
    shared, a, b, c = (make_ghz_pol(m, i) for i in range(4))
    splits = {
        id(first): [(0.2, shared, (0,)), (0.3, shared, (3,)), (0.25, c, (5, 6))],
        id(second): [(0.5, a, (5,)), (0.5, b, (6,))],
    }
    ensemble, rule = Ensemble(((0.5, first), (0.5, second))), protocol.AcceptanceRule("general")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_split_by_pattern", lambda *args: lambda member: splits[id(member)])
        expected = repr(per_port_execute(ensemble, rule, {}))
        assert_same_text(repr(protocol._execute(ensemble, rule, {}, None, False, None)), expected)


def efficiency_ratio(tmp_path):
    for eta_d, eta_c, L, N in ((0.9, 0.95, 25.0, 3), (0.8, 1.0, 60.0, 8), (1.0, 0.7, 0.0, 2)):
        params = efficiency.EfficiencyParams(eta_d=eta_d, eta_c=eta_c, L=L, L0=25.0, N=N, p1=0.6)
        ratio = efficiency.ratio_R(params)
        assert math.isclose(ratio, 4.0 / (math.exp(-L / 25.0) * eta_d * eta_c) ** N, rel_tol=TOL)
        assert math.isclose(ratio * efficiency.p_two(params), efficiency.p_one(params), rel_tol=TOL)


DETECTORS = [  # cheapest first
    efficiency_ratio, shared_port_states, relabelled_repr, warm_columns, oracle_off_product, closed_forms,
    golden_records, oracle_m3,
]


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
    A cached function is recompiled with its decorator, so the mutant starts
    with a cache of its own.
    """
    owner, _, attr = name.rpartition(".")
    original = getattr(getattr(module, owner) if owner else module, attr)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, f"mutation site {old!r} not found once in {name}"
    code = compile(
        source.replace(old, new), inspect.getsourcefile(inspect.unwrap(original)), "exec",
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


@pytest.fixture
def cold_caches():
    """Empty protocol's caches before a mutant is installed and after it is removed.

    A warm column memo or port table would hand the mutant results the
    package computed, and one the mutant filled would outlive it.
    """
    clear_caches()
    yield
    clear_caches()


# cold_caches comes first, so that its teardown runs after monkeypatch has removed the mutant
@pytest.mark.parametrize("name, module, function, old, new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_is_caught(cold_caches, monkeypatch, tmp_path, name, module, function, old, new):
    mutate(monkeypatch, module, function, old, new)
    assert any(fails(d, tmp_path) for d in DETECTORS), f"mutant {name} survives every detector"
