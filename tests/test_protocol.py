import math
import random

import numpy as np
import pytest

from ghzpurify import (
    GATE_TABLE,
    POL,
    AcceptanceRule,
    Ensemble,
    PureState,
    apply_network,
    bit_flip_pol,
    bits,
    closed_form_fidelity_general,
    closed_form_fidelity_pair,
    closed_form_success_general,
    closed_form_success_pair,
    fidelity,
    hadamard_pol,
    hadamard_spatial,
    infer_flip_plan,
    make_ghz_pol,
    make_ghz_spatial,
    merged_fidelity,
    mix_general,
    mix_two,
    phaseflip_plan,
    product_ensemble,
    run_bitflip,
    run_general,
    run_phaseflip,
    tensor_hyper,
)


def bitflip_input(m, f1, f2, pol_index=1, spatial_index=1):
    pol = mix_two(make_ghz_pol(m, 0), make_ghz_pol(m, pol_index), f1)
    spatial = mix_two(make_ghz_spatial(m, 0), make_ghz_spatial(m, spatial_index), f2)
    return product_ensemble(pol, spatial)


def phaseflip_input(m, f3, f4):
    pol = mix_two(make_ghz_pol(m, 0, +1), make_ghz_pol(m, 0, -1), f3)
    spatial = mix_two(make_ghz_spatial(m, 0, +1), make_ghz_spatial(m, 0, -1), f4)
    return product_ensemble(pol, spatial)


def test_bitflip_reference_point():
    result = run_bitflip(bitflip_input(3, 0.8, 0.7))
    assert result.success_probability == pytest.approx(0.62, abs=1e-12)
    assert result.output_fidelity == pytest.approx(0.56 / 0.62, abs=1e-12)
    assert result.success_probability + result.rejected_probability == pytest.approx(1.0, abs=1e-12)


def test_bitflip_noiseless():
    result = run_bitflip(bitflip_input(3, 1.0, 1.0))
    assert result.output_fidelity == pytest.approx(1.0, abs=1e-12)
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)
    probs = sorted(o.probability for o in result.accepted.values())
    assert probs == pytest.approx([0.5, 0.5], abs=1e-12)


def test_bitflip_symmetric_fixed_point():
    result = run_bitflip(bitflip_input(3, 0.5, 0.5))
    assert result.output_fidelity == pytest.approx(0.5, abs=1e-12)
    assert result.success_probability == pytest.approx(0.5, abs=1e-12)


def test_bitflip_degenerate_rejects_everything():
    with pytest.raises(ValueError, match="no accepted"):
        run_bitflip(bitflip_input(3, 1.0, 0.0))


def test_phaseflip_reference_point():
    result = run_phaseflip(phaseflip_input(3, 0.8, 0.8))
    assert result.success_probability == pytest.approx(0.68, abs=1e-12)
    assert result.output_fidelity == pytest.approx(0.64 / 0.68, abs=1e-12)


def test_phaseflip_noiseless():
    result = run_phaseflip(phaseflip_input(3, 1.0, 1.0))
    assert result.output_fidelity == pytest.approx(1.0, abs=1e-12)


def test_phaseflip_accepted_patterns():
    result = run_phaseflip(phaseflip_input(3, 0.8, 0.8))
    assert set(result.accepted) == {
        (0, 0, 0),
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 0),
    }


def test_pattern_parity_enumeration():
    # matched-index branches exit on unanimous ports; cross branches land on
    # the complementary two-pattern pairs
    matched = run_general(
        bitflip_input(3, 0.8, 0.8), corrections={}, acceptance=AcceptanceRule("general")
    )
    crossed_pol = product_ensemble(
        Ensemble.pure(make_ghz_pol(3, 1)), Ensemble.pure(make_ghz_spatial(3, 0))
    )
    crossed = run_general(crossed_pol, corrections={}, acceptance=AcceptanceRule("general"))
    assert set(crossed.accepted) == {(0, 0, 1), (1, 1, 0)}
    for pattern, outcome in crossed.accepted.items():
        assert outcome.fidelity == pytest.approx(1.0, abs=1e-12)
    matched_heavy = {p for p, o in matched.accepted.items() if o.probability > 0.3}
    assert matched_heavy == {(0, 0, 0), (1, 1, 1)}


def test_probability_conservation_over_all_patterns():
    for ens in (
        bitflip_input(3, 0.8, 0.7),
        bitflip_input(4, 0.6, 0.9),
        phaseflip_input(3, 0.7, 0.6),
    ):
        result = run_general(ens, corrections={}, acceptance=AcceptanceRule("general"))
        total = sum(o.probability for o in result.accepted.values())
        assert total == pytest.approx(1.0, abs=1e-12)


def test_bitflip_fidelity_independent_of_m():
    reference = run_bitflip(bitflip_input(3, 0.8, 0.7)).output_fidelity
    for m in (2, 4, 5):
        result = run_bitflip(bitflip_input(m, 0.8, 0.7))
        assert result.output_fidelity == pytest.approx(reference, abs=1e-12)


def test_general_deterministic_case():
    for f1, f3 in ((0.3, 0.6), (0.9, 0.1), (0.5, 0.5)):
        ens = bitflip_input(3, f1, f3, pol_index=1, spatial_index=2)
        result = run_general(ens)
        assert result.success_probability == pytest.approx(1.0, abs=1e-12)
        assert result.output_fidelity == pytest.approx(1.0, abs=1e-12)


def test_general_four_term_matched_patterns():
    pol = mix_general([make_ghz_pol(3, i) for i in range(4)], [0.7, 0.1, 0.1, 0.1])
    spatial = mix_general([make_ghz_spatial(3, i) for i in range(4)], [0.7, 0.1, 0.1, 0.1])
    result = run_general(
        product_ensemble(pol, spatial), corrections={}, acceptance=AcceptanceRule("bitflip")
    )
    assert result.success_probability == pytest.approx(0.52, abs=1e-12)
    assert result.output_fidelity == pytest.approx(0.49 / 0.52, abs=1e-12)
    for i, expected in enumerate(closed_form_fidelity_general([0.7, 0.1, 0.1, 0.1], [0.7, 0.1, 0.1, 0.1])):
        assert merged_fidelity(result, make_ghz_pol(3, i)) == pytest.approx(expected, abs=1e-12)


def test_general_pure_input():
    ens = product_ensemble(
        Ensemble.pure(make_ghz_pol(3, 0)), Ensemble.pure(make_ghz_spatial(3, 0))
    )
    result = run_general(ens)
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)
    assert result.output_fidelity == pytest.approx(1.0, abs=1e-12)


def test_closed_form_pair_values():
    assert closed_form_fidelity_pair(0.8, 0.8) == pytest.approx(16 / 17, abs=1e-15)
    assert closed_form_fidelity_pair(1.0, 1.0) == 1.0
    # a maximally mixed factor passes the other factor's fidelity through
    for x in (0.1, 0.4, 0.5, 0.9):
        assert closed_form_fidelity_pair(0.5, x) == pytest.approx(x, abs=1e-15)
        assert closed_form_fidelity_pair(x, 0.5) == pytest.approx(x, abs=1e-15)
    assert closed_form_success_pair(0.8, 0.7) == pytest.approx(0.62, abs=1e-15)


def test_closed_form_pair_errors():
    with pytest.raises(ValueError, match="accepted"):
        closed_form_fidelity_pair(1.0, 0.0)
    with pytest.raises(ValueError, match="outside"):
        closed_form_fidelity_pair(1.2, 0.5)


def test_closed_form_general_values():
    out = closed_form_fidelity_general([0.7, 0.1, 0.1, 0.1], [0.7, 0.1, 0.1, 0.1])
    assert out[0] == pytest.approx(0.49 / 0.52, abs=1e-15)
    assert out[1] == pytest.approx(0.01 / 0.52, abs=1e-15)
    assert closed_form_fidelity_general([1, 0, 0, 0], [1, 0, 0, 0]) == (1.0, 0.0, 0.0, 0.0)
    assert closed_form_fidelity_general([0.25] * 4, [0.25] * 4) == pytest.approx((0.25,) * 4)
    assert closed_form_success_general([0.7, 0.1, 0.1, 0.1], [0.7, 0.1, 0.1, 0.1]) == pytest.approx(0.52)


def test_closed_form_general_errors():
    with pytest.raises(ValueError, match="length"):
        closed_form_fidelity_general([1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="sum"):
        closed_form_fidelity_general([0.5, 0.4], [0.5, 0.5])
    with pytest.raises(ValueError, match="vanish"):
        closed_form_fidelity_general([1.0, 0.0], [0.0, 1.0])


def test_engine_matches_closed_forms_spotgrid():
    for f1 in (0.2, 0.5, 0.8):
        for f2 in (0.3, 0.6, 0.9):
            bit = run_bitflip(bitflip_input(3, f1, f2))
            assert bit.output_fidelity == pytest.approx(closed_form_fidelity_pair(f1, f2), abs=1e-12)
            assert bit.success_probability == pytest.approx(closed_form_success_pair(f1, f2), abs=1e-12)
            phase = run_phaseflip(phaseflip_input(3, f1, f2))
            assert phase.output_fidelity == pytest.approx(closed_form_fidelity_pair(f1, f2), abs=1e-12)
            assert phase.success_probability == pytest.approx(closed_form_success_pair(f1, f2), abs=1e-12)


def test_purification_gain():
    for f1 in (0.6, 0.7, 0.8, 0.9):
        for f2 in (0.55, 0.75, 0.95):
            assert closed_form_fidelity_pair(f1, f2) > max(f1, f2)


def test_result_order_independent():
    ens = bitflip_input(3, 0.8, 0.7)
    reversed_ens = Ensemble(tuple(reversed(ens.members)))
    a = run_bitflip(ens)
    b = run_bitflip(reversed_ens)
    assert a.success_probability == b.success_probability
    assert a.output_fidelity == b.output_fidelity
    assert set(a.accepted) == set(b.accepted)


def test_custom_target():
    ens = bitflip_input(3, 0.8, 0.7)
    result = run_bitflip(ens, target=make_ghz_pol(3, 1))
    assert result.output_fidelity == pytest.approx(0.06 / 0.62, abs=1e-12)


def test_acceptance_rules():
    with pytest.raises(ValueError, match="mode"):
        AcceptanceRule("other")
    bit = AcceptanceRule("bitflip")
    phase = AcceptanceRule("phaseflip")
    everything = AcceptanceRule("general")
    for m in range(2, 7):
        for port in range(2**m):
            count = sum(bits(m, port))
            assert bit.accepts(port, m) == (count in (0, m))
            assert phase.accepts(port, m) == (count % 2 == 0)
            assert everything.accepts(port, m)


def test_infer_plan_requires_ghz_products():
    from ghzpurify import hadamard_pol

    warped = Ensemble.pure(
        hadamard_pol(tensor_hyper(make_ghz_pol(3, 0), make_ghz_spatial(3, 0)))
    )
    with pytest.raises(ValueError, match="explicit plan"):
        infer_flip_plan(warped)


def test_infer_plan_leaves_ambiguous_patterns_alone():
    # matched-index noise makes every reachable pattern ambiguous
    plan = infer_flip_plan(bitflip_input(3, 0.8, 0.7))
    assert plan == {}


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_phaseflip_plan_flips_every_photon_on_even_ports(m):
    full = 2**m - 1
    assert phaseflip_plan(m) == {p: full for p in range(2**m) if bin(p).count("1") % 2 == 0}


def test_infer_plan_values_are_flip_masks():
    m = 4
    plan = infer_flip_plan(bitflip_input(m, 0.8, 0.7, pol_index=1, spatial_index=2))
    assert plan
    assert all(type(flips) is int and 0 < flips < 2**m for flips in plan.values())


def phaseflip_term_by_term(ensemble, table):
    """Phase-flip mode through the public per-state functions, one member at a time.

    Returns, per accepted pattern, the (member weight x pattern probability,
    corrected state) entries in member order.
    """
    m = ensemble.m
    rule, plan = AcceptanceRule("phaseflip"), phaseflip_plan(m)
    buckets = {}
    for weight, member in ensemble.members:
        routed = apply_network(hadamard_spatial(hadamard_pol(member)), table)
        by_port = {}
        for (pol, port), amp in routed.terms.items():
            by_port.setdefault(port, {})[(pol,)] = amp
        for port, terms in by_port.items():
            if rule.accepts(port, m):
                prob = sum(abs(a) ** 2 for a in terms.values())
                cond = PureState(m, (POL,), {label: a * prob**-0.5 for label, a in terms.items()})
                corrected = hadamard_pol(bit_flip_pol(cond, plan[port]))
                buckets.setdefault(bits(m, port), []).append((weight * prob, corrected))
    return buckets


FAULTED_TABLE = {**GATE_TABLE, (0, 0): GATE_TABLE[(1, 0)], (1, 0): GATE_TABLE[(0, 0)]}


@pytest.mark.parametrize("table", [GATE_TABLE, FAULTED_TABLE], ids=["gate", "faulted"])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_dense_phaseflip_path_matches_term_by_term(m, table):
    rng = random.Random(m)

    def mixture(maker):
        index, sign = rng.randrange(2 ** (m - 1)), rng.choice((1, -1))
        return mix_two(maker(m, 0), maker(m, index, -1 if index == 0 else sign), rng.uniform(0.05, 0.95))

    for _ in range(4):
        ensemble = product_ensemble(mixture(make_ghz_pol), mixture(make_ghz_spatial))
        expected = phaseflip_term_by_term(ensemble, table)
        if not expected:
            with pytest.raises(ValueError, match="no accepted"):
                run_phaseflip(ensemble, gate_table=table)
            continue
        result = run_phaseflip(ensemble, gate_table=table)
        assert result.success_probability == math.fsum(w for entries in expected.values() for w, _ in entries)
        assert set(result.accepted) == set(expected)
        for pattern, entries in expected.items():
            outcome = result.accepted[pattern]
            total = math.fsum(w for w, _ in entries)
            assert outcome.probability == total
            members = [(w, dict(s.terms)) for w, s in outcome.ensemble.members]
            assert members == [(w / total, dict(s.terms)) for w, s in entries]
