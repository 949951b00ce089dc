"""Refusals at the package's boundaries, and the call forms of its entry points.

Each CLI case exits 2 with its message on one stderr line; each API case
raises ValueError with its message. The entry-point cases call the forms the
benchmark's workloads use and compare each result's repr with the mode's own
``run`` on the same input.
"""

import json
import random

import pytest

from ghzpurify import protocol
from ghzpurify.cli import main
from ghzpurify.noise import mix_general, mix_two, product_ensemble
from ghzpurify.optics import GATE_TABLE, bit_flip_pol
from ghzpurify.protocol import MODES, AcceptanceRule, infer_flip_plan, run_bitflip, run_general, run_phaseflip
from ghzpurify.states import POL, SPATIAL, Ensemble, make_ghz_pol, make_ghz_spatial, make_state, tensor_hyper
from helpers import dense_split

BIT = {"kind": "bit-flip", "target_index": 1, "weight": 0.2}


def config(**overrides):
    return {"m": 3, "mode": "bitflip", "pol_noise": [BIT], "spatial_noise": [BIT], **overrides}


@pytest.mark.parametrize(
    "raw, message",
    [
        (config(mode="other"), "mode must be one of ('bitflip', 'phaseflip', 'general', 'deterministic-demo'), "
                               "got 'other'"),
        (config(pol_noise=[BIT, {**BIT, "target_index": 2}]),
         "mode 'bitflip' admits at most one error component per degree of freedom"),
        (config(mode="deterministic-demo", spatial_noise=[]),
         "deterministic-demo needs one error component per degree of freedom"),
        (config(mode="deterministic-demo"),
         "deterministic-demo needs distinct error indices on the two degrees of freedom"),
        (config(spatial_noise=[3]), "spatial_noise[0] must be an object"),
    ],
    ids=["unknown-mode", "paired-two-components", "distinct-one-sided", "distinct-equal-indices", "entry-not-object"],
)
def test_config_refusals_exit_2(tmp_path, capsys, raw, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["simulate", str(path), "--reproducible"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


def test_unreadable_config_exits_2(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert main(["simulate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot read config {str(path)!r}: ")
    assert captured.err.count("\n") == 1


def test_fidelity_sweep_above_photon_cap_exits_2(capsys):
    assert main(["sweep", "--axis", "F", "--m", "1001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sweep error: --m must be <= 1000, got 1001\n"


def test_verify_m4_runs_its_own_grid(capsys):
    assert main(["verify", "--m", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 5 and all(" ok  worst deviation " in line for line in out[:4])
    assert out[4] == "verify m=4: passed (tolerance 1e-10)"


def pol_only(m):
    return Ensemble(((1.0, make_ghz_pol(m, 0)),))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MODES["bitflip"].run(pol_only(3)), "protocol input must carry (pol, spatial) labels, got ('pol',)"),
        (lambda: MODES["phaseflip"].run(pol_only(3)), "protocol input must carry (pol, spatial) labels, got ('pol',)"),
        (lambda: run_general(pol_only(3)), "expected a joint (pol, spatial) state"),
        (lambda: infer_flip_plan(pol_only(3)), "expected a joint (pol, spatial) state"),
        (lambda: run_bitflip(MODES["bitflip"].verify_input(3, 0.8, 0.7), target=make_ghz_pol(4, 0)),
         "target must be a bare polarization state on the same photons"),
        (lambda: run_bitflip(MODES["bitflip"].verify_input(3, 0.8, 0.7),
                             target=tensor_hyper(make_ghz_pol(3, 0), make_ghz_spatial(3, 0))),
         "target must be a bare polarization state on the same photons"),
        (lambda: mix_general([make_ghz_pol(3, 0), make_ghz_pol(3, 1)], [1.0]), "2 states but 1 weights"),
        (lambda: bit_flip_pol(make_ghz_spatial(3, 0), 1), "state carries no polarization labels"),
    ],
    ids=["dofs-sparse", "dofs-dense", "dofs-general", "dofs-infer-plan", "target-photons", "target-dofs", "mix-lengths", "flip-no-pol"],
)
def test_api_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_phaseflip_member_off_ghz_product_takes_its_own_dense_step(monkeypatch):
    """A member off the GHZ frame beside frame members takes its own off-frame step.

    With tests/helpers.py's dense_split as that step, a run prints what
    every member through its own dense step prints, bit for bit; the
    package's sparse step lands within 1e-12 of it.
    """
    # real amplitudes on a support that _ghz_product_parts refuses, beside two GHZ x GHZ members
    m, rng = 4, random.Random(4)
    amps = [rng.uniform(0.1, 1.0) for _ in range(4)]
    norm = sum(a * a for a in amps) ** 0.5
    off = make_state(m, (POL, SPATIAL), [(lab, a / norm) for lab, a in zip([(0, 0), (3, 5), (9, 12), (15, 1)], amps)])
    assert protocol._ghz_frame(off) is None
    products = [tensor_hyper(make_ghz_pol(m, e, s), make_ghz_spatial(m, f, t)) for e, s, f, t in
                [(0, 1, 0, 1), (3, -1, 5, -1)]]
    for members in ([off], [products[0], off, products[1]]):
        ensemble = Ensemble(tuple((1.0 / len(members), member) for member in members))
        sparse = MODES["phaseflip"].run(ensemble)
        with monkeypatch.context() as own:
            own.setattr(protocol, "_sparse_split", dense_split)
            framed = repr(MODES["phaseflip"].run(ensemble))
            own.setattr(protocol, "_hadamard_split", dense_split)
            dense = MODES["phaseflip"].run(ensemble)
        assert repr(dense) == framed
        assert sparse.accepted.keys() == dense.accepted.keys()
        assert abs(sparse.success_probability - dense.success_probability) <= 1e-12
        assert abs(sparse.output_fidelity - dense.output_fidelity) <= 1e-12
        for pattern, outcome in sparse.accepted.items():
            assert abs(outcome.probability - dense.accepted[pattern].probability) <= 1e-12
            assert abs(outcome.fidelity - dense.accepted[pattern].fidelity) <= 1e-12


FAULTED_TABLE = {**GATE_TABLE, (0, 0): GATE_TABLE[(1, 0)], (1, 0): GATE_TABLE[(0, 0)]}


def outcome(call):
    try:
        return repr(call())
    except ValueError as exc:  # nothing accepted
        return f"ValueError: {exc}"


def pair(m, pol_index, spatial_index, f_pol, f_spatial, sign=+1):
    pol = mix_two(make_ghz_pol(m, 0), make_ghz_pol(m, pol_index, sign), f_pol)
    spatial = mix_two(make_ghz_spatial(m, 0), make_ghz_spatial(m, spatial_index, sign), f_spatial)
    return product_ensemble(pol, spatial)


@pytest.mark.parametrize("table", [GATE_TABLE, FAULTED_TABLE], ids=["gate", "faulted"])
def test_entry_point_call_forms_are_the_modes_runs(table):
    m = 4
    target = make_ghz_pol(m, 1, -1)
    phase, distinct, matched = pair(m, 0, 0, 0.8, 0.7, sign=-1), pair(m, 1, 2, 0.8, 0.7), pair(m, 3, 3, 0.8, 0.7)
    general = product_ensemble(
        mix_general([make_ghz_pol(m, i) for i in (0, 1, 5)], [0.5, 0.3, 0.2]),
        mix_general([make_ghz_spatial(m, i) for i in (0, 1, 5)], [0.6, 0.1, 0.3]),
    )
    cases = [
        (lambda: run_phaseflip(phase, gate_table=table), lambda: MODES["phaseflip"].run(phase, gate_table=table)),
        (lambda: run_general(distinct, gate_table=table),
         lambda: MODES["deterministic-demo"].run(distinct, gate_table=table)),
        (lambda: run_bitflip(matched, target=target, gate_table=table),
         lambda: MODES["bitflip"].run(matched, target=target, gate_table=table)),
        (lambda: run_general(general, corrections={}, acceptance=AcceptanceRule("bitflip"), target=target,
                             gate_table=table),
         lambda: MODES["general"].run(general, target=target, gate_table=table)),
    ]
    for entry, mode_run in cases:
        assert outcome(entry) == outcome(mode_run)
    assert run_bitflip == MODES["bitflip"].run and run_phaseflip == MODES["phaseflip"].run


@pytest.mark.parametrize("name", list(MODES))
def test_every_mode_refuses_a_table_that_is_not_a_bijection(name):
    rows = list(GATE_TABLE.items())
    tables = [
        {**GATE_TABLE, (0, 0): GATE_TABLE[(1, 1)]},  # a duplicate image
        {**GATE_TABLE, (0, 0): (2, 0)},  # an image outside the four pairs
        dict(rows[1:]),  # a missing row
        {(2, 0): rows[0][1], **GATE_TABLE},  # an extra row, overwritten when the table is inverted
        {**GATE_TABLE, (2, 0): rows[0][1]},  # an extra row that replaces a row when inverted
    ]
    for table in tables:
        with pytest.raises(ValueError, match="gate table must be a bijection on the four"):
            MODES[name].run(MODES[name].verify_input(3, 0.8, 0.7), gate_table=table)
