"""Mutation analysis by hand: each mutant must fail at least one cheap detector.

A mutant is one textual change to one function of the package: the function
is recompiled from its source with the change and installed, for the length
of one test, in every module that binds it. The detectors are a subset of the
golden records (tests/test_golden.py), the closed forms every simulate record
is scored against, the engine against the dense oracle at m = 3
(`verify --m 3`), the same comparison on three phase-flip members that
are not GHZ x GHZ products, scored against targets that are not GHZ
states, the repr of Hadamard runs on GHZ x GHZ members against the same
runs with every member through its own dense step (tests/helpers.py's
dense_split, the reference the frame step matches bit for bit), the repr
of a run whose step shares port states against tests/helpers.py's
per-port loop, the efficiency ratio against its formula and criterion 7
(R P2 = P1), the oracle's Hadamard layer, read entry by entry, against
the Kronecker product of a complex, non-symmetric factor, the repr of
runs on factored products against the same runs on an Ensemble of all
their members, and the registers of tensor_hyper's products against 2^m.
A mutant is caught when a detector's check fails or raises. A mutant
target is a module function or a ``Class.method``, which is installed on
the class; a function is installed in tests/helpers.py too where that
binds it, so a mutant of optics.walsh_hadamard reaches the dense
reference. protocol's process-lifetime caches (the port tables, the
partitions, the frame traces, the pattern tuples and the gate's masks) are
emptied before a mutant is installed and after it is removed: a warm
partition would hand a mutant of the partition the package's groups, and
one the mutant filled would outlive it.

The first mutants are the faults that the per-state checks caught before the
engine built its derived states unchecked: a port state scaled off its norm
(the pattern step), a register pushed out of range by tensor_hyper, and
a conditional weight left undivided by its port's probability. The label
detector reads tensor_hyper's products directly; the engine detectors see
the out-of-range register too, since protocol._ghz_product_parts refuses a
register of 2^m or more: infer_flip_plan refuses the member, and a
phase-flip member leaves the frame for the sparse step. The last one drops
one scaling by c from the spatial layer of the frame trace
(protocol._frame_column), one of the 2m.

Then come the butterfly sign in walsh_hadamard, which no engine step runs
any more: the repr detector catches it through the dense reference. Then a
wrong phaseflip_plan flip mask and the GHZ maker of the two noise lists
swapped. The last three reach past the engine:
states.bits read least significant bit first, which the oracle and the
result tables share; the pol-to-pol mask of optics.check_table read off
row (1, 0) without the constant of row (0, 0); and cli.execute scoring the
closed form against 0+ whatever the configured target.

The last two: the sparse step's drop of a sum at or below PRUNE_TOL
raised to 1e-9, which only the third off-product member sees (each
accepted port holds a sum of about 7e-10 on register 1, which its target
reads linearly, and dropping it moves the fidelity by 2e-9); and a fault
of the phase-flip relabelling, zq read as 0. It flips the sign of whole
port states; no fidelity sees it, and only the repr detector catches it.

The last three reach the two figures that no engine detector reads, and
the oracle. AcceptanceRule.ports listing the odd-parity ports in phase-flip
mode is shared by the oracle, so verify passes and only the records and
closed forms catch it. Two rows of the oracle's merge (displacer) matrix
swapped, still a permutation, send V on rail 0 to (H, keep) and H on rail 3
to (V, keep); verify catches it. The exponent N + 1 in efficiency.ratio_R is
caught by the efficiency detector, computed in the test from the formula.

The last two break a correction or a port read as a register XOR. The
oracle's corrected target read at grid instead of grid ^ mask leaves
every oracle port uncorrected, which only verify sees. The port register
XOR 1 in oracle._blocks' gather scores each accepted port from its
neighbour's block; the off-product detector and verify catch it.

The next two break the skip of a member whose port class the rule
rejects. Dropping c2 from the parity test changes nothing on the gate
table, where c2 is 0, or at even m: only the faulted-table run at odd m
catches it. Skipping the live class in place of the rejected one leaves
the phase-flip run no accepted port.

The last seven break the sign rule that gives every member's ports from
the frame trace, and the trace. Dropping the zq.q sign flips whole port
states, which only the repr detector sees. Reading the parity t0 of the
reference column at
port 0, whatever the class of R0, changes nothing where c2 & pol_q is 0,
as on the gate and the faulted table: only the repr detector's fifth run,
on a table whose port constant and inverse pol masks are all 2^m - 1, at
odd m, catches it. Dropping the flip's sign x.(2^m - 1) on the complement
register, the trace's scaling p**-0.5 off by 1e-9, the trace's closing
2^(m-1) P^m dropped, and F(q) dropped from x each move the phase-flip
figures. Exchanging the pair's two amplitudes is X on every output
photon; every GHZ state is an eigenstate of that X, so no fidelity against
a GHZ target moves: only the repr detector catches it.

The last three break the port groups, which _partition builds once per
class, zq and flip masks. A group that drops its last port
loses that port's probability, which every detector but the cheapest
sees. Reading the flip mask of the class's first port for every port
changes nothing where every port has one flip mask, as in every mode's
plan: a fourth repr run, an accept-all Hadamard run that flips the last
photon on the ports where it left by SWAP, catches it. A byte-table
slice in states.bits one photon short spells every pattern out wrong;
the records, verify and the shared-states detector catch it.

The last three drop one term each of the sign rule,
out_M[q](o) = (-1)^(c ^ zq.q ^ (xo ^ F(q)).o) C'(o ^ zo): x.zo from the
sign on zo (x = xo ^ F(q)), the shift zo itself, which puts every pair on
{0, 2^m - 1}, and F(q) from the port groups and their masks. The golden
inputs are all GHZ(0) x GHZ(0), where zo is 0, so only the repr detector
catches the first two; the last moves the phase-flip fidelities.

The last two break the frame step's lookups in the process caches. The
trace looked up at |a| hands a member at a negative amplitude the trace
of its magnitude, with the wrong signs, which only the repr detector,
whose last member is the third at the negated amplitude, sees. The
partition looked up with the class's parity in place of zq gives every
member of a class one split, as a table keyed on the class alone would,
and so a member the sign groups of another zq; the repr detector catches
it.

The last five break _execute's cells. A port's cell keyed on the first
tuple that holds it merges ports whose later tuples differ; entries of a
cell of two tuples left in tuple order, not member order, reorder its
conditional ensemble; and every tuple taken as its own cell, overlap or
not, spells a port out twice. The shared-states detector, whose third
member interleaves one tuple's entries with another's, and the repr
detector, whose members reach overlapping port groups, catch all three.
A cell's weights added once, not once per port, to the accepted mass,
and its probability x fidelity once to the output fidelity, move every
phase-flip figure.

The last two break the oracle's layer entries, each a product of one
factor entry per photon digit. Every digit read one bit off moves every
oracle run, Hadamard or not; verify and the layer detector catch it.
factor[s, r] in place of factor[r, s] is the transposed layer: the
oracle's own factors, H x H and the identity, are symmetric, so no run
sees it, and only the layer detector, with its non-symmetric factor, does.

The last three break the frame trace's other factors, and each moves the
phase-flip figures: one square too few in the sum p; the term t0 dropped
from the sign on the complement register (on the gate, t0 is m mod 2);
and a complement register that is not zo ^ (2^m - 1).

The last four break the sparse step's sign,
(-1)^(u.F(q) ^ p.(q&pol_q ^ pol_c) ^ s.(q&sp_q ^ sp_c)), or its register
u = p&pol_o ^ s&sp_o: each term of the sign dropped in turn, and s&sp_o
dropped from u. Only the off-product detector runs members off the frame,
and it catches all four. Dropping u.F(q) only moves signs, which no
fidelity against |000> sees: its third member, whose terms (0, 0) and
(0, 1) that term sets against each other on registers 0 and 1, under a
target that reads both, catches it.

The last one breaks density_on_support's scatter onto the support: each
term's row and column placed in the order the members first reach its
index, not at its place in the ascending support S that oracle_run reads
them on.
A single GHZ x GHZ member lists its terms in ascending order, and the
phase-flip members all hold the same four, so only an ensemble whose later
members reach indices below the earlier ones' sees it: the bit-flip,
general and deterministic runs of the verify detector.

The last three break the choice of the pairs a run on a product
(noise.ProductEnsemble) builds, which the factored detector reads: a run
on the product against a run on an Ensemble of all its members, in every
mode, on the gate and on the faulted table. Each is a live pair dropped,
since a pair built in vain gives no group. The frame step's class read
without the port constant c2 changes nothing on the gate, where c2 is 0:
on the faulted table at odd m it looks up the other parity. The sparse
step's lookup of e&a2 ^ c2 itself, not the lower of it and its
complement, finds nothing on the faulted table, whose c2 is 2^m - 1.
Dropping the first spatial member a pol member wants moves every figure
that the unanimous rule or the phase-flip rule gives.

Two mutants survive every detector and are not listed.
``sum`` in place of ``math.fsum`` in noise.ghz_weights changes
no figure these detectors print; tests/test_order.py catches it.
Reversing infer_flip_plan's tie-break, so that a flip and its complement
of equal weight swap, is equivalent on every input that function
accepts: the two corrections differ by X on every photon, and every GHZ
state is an eigenstate of that X.
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
from ghzpurify.oracle import density_on_support, oracle_run
from ghzpurify.records import ProtocolConfig
from ghzpurify.states import POL, SPATIAL, Ensemble, PureState, make_ghz_pol, make_ghz_spatial, make_state, tensor_hyper
import helpers
from helpers import assert_same_text, clear_caches, dense_split, per_port_execute

DATA = Path(__file__).parent / "data" / "simulate"
CASES = {c["name"]: c["config"] for c in json.loads((DATA / "cases.json").read_text(encoding="utf-8"))}
# one golden case per mode; phase flip at m = 5 runs the frame step past its smallest size
GOLDEN = ["bitflip-m3-1+", "phaseflip-m5-0+", "general-m3-0+", "deterministic-demo-m3-1-"]
TOL = 1e-12
# the gate with rows (H, mode 0) and (V, mode 0) swapped: its port constant c2 is 2^m - 1
FAULTED = {**optics.GATE_TABLE, (0, 0): optics.GATE_TABLE[(1, 0)], (1, 0): optics.GATE_TABLE[(0, 0)]}
# a bijection whose port constant c2 and whose inverse's pol masks on out pol and on port are all 2^m - 1,
# so that the parity of the registers the frame's reference column holds depends on c2 at odd m
CONSTANT_PORT = {(0, 0): (0, 1), (0, 1): (1, 0), (1, 0): (0, 0), (1, 1): (1, 1)}

# (name, module, function, source text, mutated text)
MUTANTS = [
    ("sparse-scale", protocol, "_split_by_pattern", "scale = prob**-0.5", "scale = prob**-0.5 * (1 + 1e-9)"),
    ("tensor-register", states, "tensor_hyper", "terms[(p, s)]", "terms[(p ^ (1 << pol.m), s)]"),
    ("weight-undivided", protocol, "_execute", "(w / pattern_prob, s)", "(w, s)"),
    ("pair-scalings", protocol, "_frame_column", "_scaled(pol, m)", "_scaled(pol, m - 1)"),
    ("walsh-sign", optics, "walsh_hadamard", "np.subtract(halves[:, 0], halves[:, 1]",
     "np.subtract(halves[:, 1], halves[:, 0]"),
    ("plan-mask", protocol, "phaseflip_plan", "(1 << m) - 1", "(1 << m) - 2"),
    ("maker-swapped", noise, "ensemble_from_specs", "dof == POL", "dof != POL"),
    ("bits-order", states, "bits", "out[8 * size - m :]", "out[::-1][:m]"),
    ("table-mask", optics, "check_table", "(p1 ^ c1, s1 ^ c1, c1,", "(p1, s1 ^ c1, c1,"),
    ("record-target", cli, "execute", "weights.get((index, sign), 0.0)", "weights.get((0, 1), 0.0)"),
    ("prune-bound", protocol, "_sparse_split", "if abs(a) > PRUNE_TOL)", "if abs(a) > 1e-9)"),
    ("relabel-port-sign", protocol, "_hadamard_split", "e & pol_q ^ f & sp_q", "0"),
    ("accept-parity", protocol, "AcceptanceRule.ports", "r << 1 | r.bit_count() & 1", "r << 1 | ~r.bit_count() & 1"),
    ("merge-rows", oracle, "_single_photon_network", "merge[2 * 1 + 0, 2 * 0 + 1] = 1.0  # V on rail 0 -> (V, keep)\n"
     "    merge[2 * 0 + 0, 2 * 3 + 0]", "merge[2 * 0 + 0, 2 * 0 + 1] = 1.0\n    merge[2 * 1 + 0, 2 * 3 + 0]"),
    ("ratio-exponent", efficiency, "ratio_R", "** params.N", "** (params.N + 1)"),
    ("oracle-flips", oracle, "oracle_run", "scored[grid ^ corrections.get(port, 0)]", "scored[grid]"),
    ("port-offset", oracle, "_blocks", "dtype=np.intp)[:, None])", "dtype=np.intp)[:, None] ^ 1)"),
    ("parity-offset", protocol, "_hadamard_split", "(xq ^ c2)", "xq"),
    ("parity-flipped", protocol, "_hadamard_split", "if not classes[parity", "if classes[parity"),
    ("column-sign", protocol, "_partition", "((zq & q).bit_count() & 1, flip)", "(0, flip)"),
    ("column-first-port", protocol, "_hadamard_split", "(c2 & pol_q ^ pol_c)", "(pol_c)"),
    ("column-flip-sign", protocol, "_hadamard_split", "t0 ^ x.bit_count() & 1", "t0"),
    ("column-scale", protocol, "_frame_column", "w = V * p**-0.5", "w = V * p**-0.5 * (1 + 1e-9)"),
    ("column-pair-columns", protocol, "_hadamard_split",
     "complex(-v if s else v), (zo ^ full,): complex(-v if t else v)",
     "complex(-v if t else v), (zo ^ full,): complex(-v if s else v)"),
    ("column-closing-hadamard", protocol, "_frame_column", "top * _scaled(w, m)", "w"),
    ("column-flips", protocol, "_hadamard_split", "x = xo ^ flip", "x = xo"),
    ("group-last-port", protocol, "_partition", "tuple(qs))", "tuple(qs[:-1]))"),
    ("relabel-first-flip", protocol, "_hadamard_split", "tuple(map(plan.get, ports, repeat(0)))",
     "tuple(map(plan.get, ports[:1] * len(ports), repeat(0)))"),
    ("bits-slice", states, "bits", "out[8 * size - m :]", "out[8 * size - m + 1 :]"),
    ("base-shift-sign", protocol, "_hadamard_split", "s = c ^ odd ^ (x & zo).bit_count() & 1", "s = c ^ odd"),
    ("base-shift", protocol, "_hadamard_split", "{(zo,): complex(-v if s else v), (zo ^ full,)",
     "{(0,): complex(-v if s else v), (full,)"),
    ("group-flip", protocol, "_partition", ", flip), [])", ", 0), [])"),
    ("memo-magnitude", protocol, "_hadamard_split", "_frame_column(m, a)", "_frame_column(m, abs(a))"),
    ("partition-zq", protocol, "_hadamard_split", "_partition(rule, m, parity, zq,",
     "_partition(rule, m, parity, parity,"),
    ("cell-first-group", protocol, "_cells", "map(add, map(held_by.get, ports, repeat(())), repeat((i,)))",
     "map(held_by.get, ports, repeat((i,)))"),
    ("cell-order", protocol, "_cells", "sorted(chain.from_iterable(", "list(chain.from_iterable("),
    ("cell-overlap", protocol, "_cells", "if len(groups) == 1 or", "if True or"),
    ("mass-once", protocol, "_execute", "mass += weights * len(ports)", "mass += weights"),
    ("fidelity-once", protocol, "_execute", "[pattern_prob * outcome.fidelity] * len(ports)",
     "[pattern_prob * outcome.fidelity]"),
    ("layer-digit", oracle, "_layer_entries", "range(0, 2 * m, 2)", "range(1, 2 * m, 2)"),
    ("layer-transposed", oracle, "_layer_entries", "factor[rows >> shift & 3, cols >> shift & 3]",
     "factor[cols >> shift & 3, rows >> shift & 3]"),
    ("trace-squares", protocol, "_frame_column", "repeat(V * V, top)", "repeat(V * V, top - 1)"),
    ("trace-sign-m", protocol, "_hadamard_split", "t = s ^ t0 ^", "t = s ^"),
    ("trace-support", protocol, "_hadamard_split", "(zo ^ full,)", "(zo ^ full - 1,)"),
    ("sparse-flip-sign", protocol, "_sparse_split", "(u & flip ^ p & pq ^ s & sq)", "(p & pq ^ s & sq)"),
    ("sparse-pol-sign", protocol, "_sparse_split", "(u & flip ^ p & pq ^ s & sq)", "(u & flip ^ s & sq)"),
    ("sparse-spatial-sign", protocol, "_sparse_split", "(u & flip ^ p & pq ^ s & sq)", "(u & flip ^ p & pq)"),
    ("sparse-register", protocol, "_sparse_split", "p & pol_o ^ s & sp_o", "p & pol_o"),
    ("pair-class", protocol, "_run_members", "& a2 ^ c2).bit_count()", "& a2).bit_count()"),
    ("pair-complement", protocol, "_run_members", "min(x := e & a2 ^ c2, x ^ full)", "e & a2 ^ c2"),
    ("pair-dropped", protocol, "_run_members", "holders.get(want, ())", "holders.get(want, ())[1:]"),
    ("scatter-term-order", oracle, "density_on_support", "support, pos = np.unique(idx, return_inverse=True)",
     "support, first, pos = np.unique(idx, return_index=True, return_inverse=True)\n"
     "    pos = first.argsort().argsort()[pos]"),
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


def _against_oracle(terms, target=((0, 1.0),)):
    """Engine against oracle on the phase-flip member of these (pol, spatial) terms at m = 3, against a target."""
    member = make_state(3, (POL, SPATIAL), terms)
    ensemble, mode = Ensemble([(1.0, member)]), protocol.MODES["phaseflip"]
    target = make_state(3, (POL,), [((register,), a) for register, a in target])
    engine = mode.run(ensemble, target)
    dense = oracle_run(*density_on_support(ensemble), 3, mode, mode.plan(ensemble), target)
    assert abs(engine.success_probability - dense.success_probability) <= cli.VERIFY_TOL
    assert abs(engine.output_fidelity - dense.output_fidelity) <= cli.VERIFY_TOL


def _product(pol, spatial):
    return [((p, s), a * b) for p, a in pol for s, b in spatial]


def oracle_off_product(tmp_path):
    # unequal amplitudes on registers 0 and 7 of both degrees of freedom, scored against |000>
    _against_oracle(_product(((0, 0.9**0.5), (7, 0.1**0.5)), ((0, 0.96**0.5), (7, 0.04**0.5))))
    # GHZ(0,+) with a GHZ(0,-) part of weight 1e-9 on both, scored against |000>
    small = 1e-9**0.5
    factor = ((0, ((1.0 - 1e-9) ** 0.5 + small) * 0.5**0.5), (7, ((1.0 - 1e-9) ** 0.5 - small) * 0.5**0.5))
    _against_oracle(_product(factor, factor))
    # a term of amplitude 2e-9 beside (0, 0): on the gate every accepted port holds it on register 1, as a sum of
    # about 7e-10 before normalization, between PRUNE_TOL and 1e-9, of the sign of register 0, and the target
    # (|000> + |001>) / sqrt(2) reads it linearly: its fidelity moves by 2e-9 where that sum is dropped, and by
    # 4e-9 where its sign flips
    tiny = 2e-9
    _against_oracle([((0, 0), (1.0 - tiny * tiny) ** 0.5), ((0, 1), tiny)], ((0, 0.5**0.5), (1, 0.5**0.5)))


def relabelled_repr(tmp_path):
    # two sign classes (port shifts), each with members whose pol indices differ, so that zo and zq vary:
    # the first is of the odd class at odd e, and the last is the third at the negated amplitude, another
    # magnitude
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
        (5, lambda ensemble: protocol._execute(
            ensemble, protocol.AcceptanceRule("general"), {}, None, True, CONSTANT_PORT
        )),
    ]
    for m, run in runs:
        products = [(k, tensor_hyper(make_ghz_pol(m, e, s), make_ghz_spatial(m, f, t))) for e, s, f, t, k in members]
        ensemble = Ensemble(tuple(
            (1 / len(members), PureState(m, p.dofs, {lab: k * a for lab, a in p.terms.items()})) for k, p in products
        ))
        framed = repr(run(ensemble))
        with pytest.MonkeyPatch.context() as own:
            own.setattr(protocol, "_hadamard_split", dense_split)
            assert_same_text(repr(run(ensemble)), framed)


def shared_port_states(tmp_path):
    # the engine's steps share a state only between ports of one member, at one probability: this step
    # shares one between ports 0 and 3 at two, and gives ports 5 and 6 the same first entry and different
    # second; the third member puts a later entry on the tuple (5, 6), so the cells of ports 5 and 6 each
    # merge two tuples whose entries interleave in member order
    m = 3
    first, second, third = (tensor_hyper(make_ghz_pol(m, i), make_ghz_spatial(m, i)) for i in (0, 1, 2))
    shared, a, b, c = (make_ghz_pol(m, i) for i in range(4))
    splits = {
        id(first): [(0.2, shared, (0,)), (0.3, shared, (3,)), (0.25, c, (5, 6))],
        id(second): [(0.5, a, (5,)), (0.5, b, (6,))],
        id(third): [(0.4, b, (5, 6))],
    }
    ensemble, rule = Ensemble(((0.4, first), (0.4, second), (0.2, third))), protocol.AcceptanceRule("general")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_split_by_pattern", lambda *args: lambda member: splits[id(member)])
        expected = repr(per_port_execute(ensemble, rule, {}))
        assert_same_text(repr(protocol._execute(ensemble, rule, {}, None, False, None)), expected)


def factored_products(tmp_path):
    # signs and indices of every class on both degrees of freedom, at odd and even m, so that under each rule some
    # pairs are live and some are skipped; the faulted table's port constant is 2^m - 1
    for m in (3, 4):
        pol = noise.mix_general([make_ghz_pol(m, i, s) for i, s in ((0, 1), (0, -1), (1, 1), (3, -1))], [0.4, 0.3, 0.2, 0.1])
        spatial = noise.mix_general(
            [make_ghz_spatial(m, i, s) for i, s in ((0, 1), (1, -1), (3, 1), (0, -1))], [0.5, 0.2, 0.2, 0.1]
        )
        for mode in protocol.MODES.values():
            for table in (None, FAULTED):
                factored = repr(mode.run(noise.product_ensemble(pol, spatial), gate_table=table))
                whole = Ensemble(noise.product_ensemble(pol, spatial).members)
                assert_same_text(factored, repr(mode.run(whole, gate_table=table)))


def tensor_labels(tmp_path):
    # every register of a product is an m-bit register, on both degrees of freedom
    for m in (2, 3, 5):
        for e, f in ((0, 0), (1, 2 ** (m - 1) - 1)):
            joint = states.tensor_hyper(make_ghz_pol(m, e, -1), make_ghz_spatial(m, f))
            assert all(0 <= register < 1 << m for label in joint.terms for register in label)


def efficiency_ratio(tmp_path):
    for eta_d, eta_c, L, N in ((0.9, 0.95, 25.0, 3), (0.8, 1.0, 60.0, 8), (1.0, 0.7, 0.0, 2)):
        params = efficiency.EfficiencyParams(eta_d=eta_d, eta_c=eta_c, L=L, L0=25.0, N=N, p1=0.6)
        ratio = efficiency.ratio_R(params)
        assert math.isclose(ratio, 4.0 / (math.exp(-L / 25.0) * eta_d * eta_c) ** N, rel_tol=TOL)
        assert math.isclose(ratio * efficiency.p_two(params), efficiency.p_one(params), rel_tol=TOL)


def oracle_layer(tmp_path):
    # the oracle's own factors, H x H and the identity, are symmetric; this one is not, and is complex
    import numpy as np

    m, factor = 2, np.arange(16.0).reshape(4, 4) + 1j * np.eye(4)[::-1]
    grid = np.arange(4**m)
    assert np.allclose(oracle._layer_entries(factor, m, grid[None], grid)[0], np.kron(factor, factor), rtol=0, atol=TOL)


DETECTORS = [  # cheapest first
    tensor_labels, efficiency_ratio, oracle_layer, shared_port_states, factored_products, relabelled_repr,
    oracle_off_product, closed_forms, golden_records, oracle_m3,
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
    for holder in [mod for key, mod in list(sys.modules.items()) if key.split(".")[0] == "ghzpurify"] + [helpers]:
        if getattr(holder, attr, None) is original:
            monkeypatch.setattr(holder, attr, namespace[attr])


def test_an_engine_detector_catches_the_out_of_range_register(cold_caches, monkeypatch, tmp_path):
    """tensor-register is caught by a detector that runs the engine, not only by the label detector."""
    mutate(monkeypatch, *next(mutant[1:] for mutant in MUTANTS if mutant[0] == "tensor-register"))
    assert any(fails(d, tmp_path) for d in DETECTORS if d is not tensor_labels)


def test_detectors_pass_on_the_package(tmp_path):
    for detector in DETECTORS:
        detector(tmp_path)


@pytest.fixture
def cold_caches():
    """Empty protocol's caches before a mutant is installed and after it is removed.

    A warm port table or partition would hand the mutant results the
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
