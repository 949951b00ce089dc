"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py`).

Tolerances are pinned here and nowhere else: engine-vs-closed-form at
1e-12, engine-vs-oracle at 1e-10.
"""

import json
import time

import numpy as np
import pytest

from ghzpurify.cli import main
from ghzpurify.efficiency import EfficiencyParams, p_one, p_two, ratio_R, sweep
from ghzpurify.noise import mix_general, mix_two, product_ensemble
from ghzpurify.optics import hadamard_pol, hadamard_spatial
from ghzpurify.oracle import density_on_support, oracle_run
from ghzpurify.protocol import (
    MODES,
    AcceptanceRule,
    closed_form_general,
    infer_flip_plan,
    phaseflip_plan,
    run_bitflip,
    run_general,
    run_phaseflip,
)
from ghzpurify.states import make_ghz_pol, make_ghz_spatial
from helpers import MINUS_GLOBAL_SIGN, PAIRING, pair_closed_form, reference_hadamard_state, scaled, states_close

GRID = [round(0.1 * k, 12) for k in range(1, 10)]
CLOSED_FORM_TOL = 1e-12
ORACLE_TOL = 1e-10


def bitflip_pair(m, f1, f2, pol_index=1, spatial_index=1):
    pol = mix_two(make_ghz_pol(m, 0), make_ghz_pol(m, pol_index), f1)
    spatial = mix_two(make_ghz_spatial(m, 0), make_ghz_spatial(m, spatial_index), f2)
    return product_ensemble(pol, spatial)


def phaseflip_pair(m, f3, f4):
    pol = mix_two(make_ghz_pol(m, 0, +1), make_ghz_pol(m, 0, -1), f3)
    spatial = mix_two(make_ghz_spatial(m, 0, +1), make_ghz_spatial(m, 0, -1), f4)
    return product_ensemble(pol, spatial)


def four_term_pair(m, pol_weights, spatial_weights):
    pol = mix_general([make_ghz_pol(m, i) for i in range(4)], pol_weights)
    spatial = mix_general([make_ghz_spatial(m, i) for i in range(4)], spatial_weights)
    return product_ensemble(pol, spatial)


def test_criterion_1_bitflip_closed_form():
    started = time.perf_counter()
    worst = 0.0
    for f1 in GRID:
        for f2 in GRID:
            result = run_bitflip(bitflip_pair(3, f1, f2))
            fc, sc = pair_closed_form(f1, f2)
            worst = max(worst, abs(result.output_fidelity - fc), abs(result.success_probability - sc))
    elapsed = time.perf_counter() - started
    assert worst < CLOSED_FORM_TOL
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1: PASS - bit-flip closed-form equivalence on the 9x9 grid "
        f"(max deviation {worst:.2e}, {elapsed:.2f}s)"
    )


def test_criterion_2_phaseflip_closed_form():
    worst = 0.0
    for f3 in GRID:
        for f4 in GRID:
            result = run_phaseflip(phaseflip_pair(3, f3, f4))
            fc, sc = pair_closed_form(f3, f4)
            worst = max(worst, abs(result.output_fidelity - fc), abs(result.success_probability - sc))
    assert worst < CLOSED_FORM_TOL
    print(
        f"\nACCEPTANCE 2: PASS - phase-flip closed-form equivalence on the 9x9 grid "
        f"(max deviation {worst:.2e})"
    )


def test_criterion_3_deterministic_mixed_errors():
    # distinct error locations in the two degrees of freedom; the inferred
    # per-pattern corrections must recover the reference state every time
    worst = 0.0
    for f1 in GRID:
        for f3 in GRID:
            result = run_general(bitflip_pair(3, f1, f3, pol_index=1, spatial_index=2))
            worst = max(
                worst,
                abs(result.output_fidelity - 1.0),
                abs(result.success_probability - 1.0),
            )
    # literal first-qubit / second-qubit error variant (flip classes 3 and 2)
    for f1 in (0.2, 0.5, 0.8):
        for f3 in (0.3, 0.7, 0.9):
            result = run_general(bitflip_pair(3, f1, f3, pol_index=3, spatial_index=2))
            worst = max(
                worst,
                abs(result.output_fidelity - 1.0),
                abs(result.success_probability - 1.0),
            )
    assert worst < CLOSED_FORM_TOL
    print(
        f"\nACCEPTANCE 3: PASS - deterministic mixed-error case purifies with "
        f"certainty (max deviation {worst:.2e})"
    )


def test_criterion_4_general_four_term():
    rng = np.random.default_rng(20240801)
    worst = 0.0
    gain_checked = 0
    for trial in range(20):
        raw_p = rng.uniform(0.05, 1.0, 4)
        raw_s = rng.uniform(0.05, 1.0, 4)
        if trial % 2 == 0:
            raw_p[0] += 2.0
            raw_s[0] += 2.0
        pol_w = list(raw_p / raw_p.sum())
        spatial_w = list(raw_s / raw_s.sum())
        ens = four_term_pair(3, pol_w, spatial_w)
        components, success = closed_form_general(pol_w, spatial_w)
        # one run per target GHZ component, each scored by its own output fidelity
        for i, expected in enumerate(components):
            result = run_general(
                ens, corrections={}, acceptance=AcceptanceRule("bitflip"), target=make_ghz_pol(3, i)
            )
            worst = max(
                worst,
                abs(result.output_fidelity - expected),
                abs(result.success_probability - success),
            )
        if pol_w[0] > 0.5 and spatial_w[0] > 0.5:
            gain_checked += 1
            assert components[0] > max(pol_w[0], spatial_w[0])
    assert worst < CLOSED_FORM_TOL
    assert gain_checked >= 5
    print(
        f"\nACCEPTANCE 4: PASS - four-term purification matches the matched-pattern "
        f"closed form on 20 random mixtures (max deviation {worst:.2e}; "
        f"purification gain verified on {gain_checked})"
    )


def test_criterion_5_m_independence():
    fidelities = []
    for m in (2, 3, 4, 5):
        fidelities.append(run_bitflip(bitflip_pair(m, 0.8, 0.7)).output_fidelity)
    spread = max(fidelities) - min(fidelities)
    assert spread < CLOSED_FORM_TOL
    print(
        f"\nACCEPTANCE 5: PASS - bit-flip fidelity is photon-count independent for "
        f"m in 2..5 at (0.8, 0.7) (spread {spread:.2e})"
    )


def test_criterion_5_phaseflip_m_independence():
    started = time.perf_counter()
    worst = 0.0
    fidelities = []
    for m in range(2, 11):
        result = run_phaseflip(phaseflip_pair(m, 0.8, 0.7))
        fidelities.append(result.output_fidelity)
        fc, sc = pair_closed_form(0.8, 0.7)
        worst = max(worst, abs(result.output_fidelity - fc), abs(result.success_probability - sc))
    spread = max(fidelities) - min(fidelities)
    elapsed = time.perf_counter() - started
    assert worst < CLOSED_FORM_TOL
    assert spread < CLOSED_FORM_TOL
    print(
        f"\nACCEPTANCE 5b: PASS - phase-flip closed form holds and fidelity is photon-count "
        f"independent for m in 2..10 at (0.8, 0.7) (max deviation {worst:.2e}, spread "
        f"{spread:.2e}, {elapsed:.2f}s)"
    )


def test_criterion_6_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0

    def compare(engine, dense):
        return max(
            abs(engine.output_fidelity - dense.output_fidelity),
            abs(engine.success_probability - dense.success_probability),
        )

    for m in (2, 3, 4):
        for f1 in GRID:
            for f2 in GRID:
                ens = bitflip_pair(m, f1, f2)
                worst = max(
                    worst,
                    compare(
                        run_bitflip(ens),
                        oracle_run(*density_on_support(ens), m, MODES["bitflip"], {}),
                    ),
                )
                ens = phaseflip_pair(m, f1, f2)
                worst = max(
                    worst,
                    compare(
                        run_phaseflip(ens),
                        oracle_run(*density_on_support(ens), m, MODES["phaseflip"], phaseflip_plan(m)),
                    ),
                )
                count = min(4, 2 ** (m - 1))
                pol_w = [f1] + [(1 - f1) / (count - 1)] * (count - 1)
                spatial_w = [f2] + [(1 - f2) / (count - 1)] * (count - 1)
                pol = mix_general([make_ghz_pol(m, i) for i in range(count)], pol_w)
                spatial = mix_general([make_ghz_spatial(m, i) for i in range(count)], spatial_w)
                ens = product_ensemble(pol, spatial)
                worst = max(
                    worst,
                    compare(
                        run_general(ens, corrections={}, acceptance=AcceptanceRule("bitflip")),
                        oracle_run(*density_on_support(ens), m, MODES["general"], {}),
                    ),
                )
                if m >= 3:  # distinct error locations need at least two flip classes
                    ens = bitflip_pair(m, f1, f2, pol_index=1, spatial_index=2)
                    plan = infer_flip_plan(ens)
                    worst = max(
                        worst,
                        compare(
                            run_general(ens, corrections=plan),
                            oracle_run(*density_on_support(ens), m, MODES["deterministic-demo"], plan),
                        ),
                    )
    elapsed = time.perf_counter() - started
    assert worst < ORACLE_TOL
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 6: PASS - dense oracle matches the engine for all modes, "
        f"m in 2..4 (worst deviation {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_7_efficiency_figures():
    reference = EfficiencyParams(eta_d=0.9, eta_c=0.95, L=100.0, L0=25.0, N=6)
    big_r = ratio_R(reference)
    assert big_r > 1e10
    assert big_r == pytest.approx(2.71e11, rel=5e-3)

    distance_rows = sweep(reference, "L", 20.0, 100.0, 1.0)
    distance_values = [r for _, r in distance_rows]
    assert all(b > a for a, b in zip(distance_values, distance_values[1:]))

    photon_rows = sweep(
        EfficiencyParams(eta_d=0.9, eta_c=0.95, L=25.0, L0=25.0, N=2), "N", 2, 12, 1
    )
    photon_values = [r for _, r in photon_rows]
    assert all(b > a for a, b in zip(photon_values, photon_values[1:]))

    worst_rel = 0.0
    for L, _ in distance_rows:
        point = EfficiencyParams(eta_d=0.9, eta_c=0.95, L=L, L0=25.0, N=6, p1=0.62)
        worst_rel = max(
            worst_rel, abs(ratio_R(point) * p_two(point) - p_one(point)) / p_one(point)
        )
    assert worst_rel < 1e-12
    print(
        f"\nACCEPTANCE 7: PASS - efficiency ratio exceeds 1e10 at N=6, L=100km "
        f"(R={big_r:.3e}); sweeps strictly increasing; R*p_two=p_one to "
        f"{worst_rel:.1e} relative"
    )


def test_criterion_8_hadamard_state_tables():
    worst = 0.0
    for index in range(4):
        row = PAIRING[index]
        for sign in (+1, -1):
            phase = 1 if sign == +1 else MINUS_GLOBAL_SIGN[index]
            pol_image = hadamard_pol(make_ghz_pol(3, index, sign))
            pol_ref = scaled(reference_hadamard_state(row, sign, "pol"), phase)
            spatial_image = hadamard_spatial(make_ghz_spatial(3, index, sign))
            spatial_ref = scaled(reference_hadamard_state(row, sign, "spatial"), phase)
            assert states_close(pol_image, pol_ref, tol=1e-12)
            assert states_close(spatial_image, spatial_ref, tol=1e-12)
            for image, ref in ((pol_image, pol_ref), (spatial_image, spatial_ref)):
                for label in set(image.terms) | set(ref.terms):
                    worst = max(worst, abs(image.terms.get(label, 0.0j) - ref.terms.get(label, 0.0j)))
    # the pairing covers each reference row exactly once
    assert sorted(PAIRING.values()) == [0, 1, 2, 3]
    print(
        f"\nACCEPTANCE 8: PASS - Hadamard layers map all eight GHZ states onto the "
        f"reference tables term-by-term (max amplitude deviation {worst:.2e})"
    )


def test_criterion_9_cli_determinism_and_mutation(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "m": 3,
                "mode": "bitflip",
                "pol_noise": [{"kind": "bit-flip", "target_index": 1, "weight": 0.2}],
                "spatial_noise": [{"kind": "bit-flip", "target_index": 1, "weight": 0.3}],
                "target": "0+",
            }
        )
    )
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["simulate", str(config), "--reproducible", "--out", str(out1)]) == 0
    assert main(["simulate", str(config), "--reproducible", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    assert main(["verify", "--m", "3"]) == 0
    assert main(["verify", "--m", "3", "--inject-gate-fault"]) == 1
    capsys.readouterr()
    print(
        "\nACCEPTANCE 9: PASS - reproducible runs are byte-identical; verify "
        "passes clean and catches an injected gate fault"
    )
