import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzpurify import cli, noise, protocol
from ghzpurify.noise import mix_general, mix_two, product_ensemble
from ghzpurify.optics import (
    GATE_TABLE,
    apply_network,
    bit_flip_pol,
    hadamard_pol,
    hadamard_spatial,
)
from ghzpurify.protocol import (
    MAX_MEMBERS,
    MODES,
    AcceptanceRule,
    _hadamard_split,
    _sparse_split,
    closed_form_general,
    infer_flip_plan,
    phaseflip_plan,
    run_bitflip,
    run_general,
    run_phaseflip,
)
from ghzpurify.states import (
    POL,
    PRUNE_TOL,
    SPATIAL,
    Ensemble,
    PureState,
    bits,
    fidelity,
    make_ghz_pol,
    make_ghz_spatial,
    make_state,
    tensor_hyper,
)
from ghzpurify.records import ProtocolConfig
from helpers import (
    assert_same_text,
    by_port,
    clear_caches,
    dense_split,
    gate_masks,
    pair_closed_form,
    per_port_execute,
    route,
    walsh_hadamard,
)


def bitflip_input(m, f1, f2, pol_index=1, spatial_index=1):
    pol = mix_two(make_ghz_pol(m, 0), make_ghz_pol(m, pol_index), f1)
    spatial = mix_two(make_ghz_spatial(m, 0), make_ghz_spatial(m, spatial_index), f2)
    return product_ensemble(pol, spatial)


def phaseflip_input(m, f3, f4):
    pol = mix_two(make_ghz_pol(m, 0, +1), make_ghz_pol(m, 0, -1), f3)
    spatial = mix_two(make_ghz_spatial(m, 0, +1), make_ghz_spatial(m, 0, -1), f4)
    return product_ensemble(pol, spatial)


def random_member_on(m, rng, labels):
    """A (pol, spatial) state with real amplitudes of unequal magnitude on the given labels."""
    amps = [rng.choice((-1, 1)) * rng.uniform(0.1, 1.0) for _ in labels]
    norm = math.sqrt(math.fsum(a * a for a in amps))
    return make_state(m, (POL, SPATIAL), [(lab, a / norm) for lab, a in zip(labels, amps)])


def random_real_member(m, rng):
    """Real amplitudes of unequal magnitude on a random support."""
    return random_member_on(m, rng, rng.sample([(p, s) for p in range(1 << m) for s in range(1 << m)], 3 * m))


def ghz_products(m, rng):
    """GHZ x GHZ members at random nonzero indices, one per pair of signs, and the reference product."""
    products = [tensor_hyper(make_ghz_pol(m, 0, -1), make_ghz_spatial(m, 0, -1))]
    for pol_sign in (1, -1):
        for spatial_sign in (1, -1):
            e, f = rng.randrange(1, 2 ** (m - 1)), rng.randrange(1, 2 ** (m - 1))
            products.append(tensor_hyper(make_ghz_pol(m, e, pol_sign), make_ghz_spatial(m, f, spatial_sign)))
    return products


def random_pair_member(m, rng):
    """Real amplitudes of unequal magnitude on one register pair per degree of freedom, not a product."""
    full = (1 << m) - 1
    e, f = rng.randrange(2 ** (m - 1)), rng.randrange(2 ** (m - 1))
    return random_member_on(m, rng, [(p, s) for p in (e, e ^ full) for s in (f, f ^ full)])


def off_pair_members(m, rng):
    """Three random pol registers on each spatial register: of one complementary pair, then of a single one."""
    f = rng.randrange(2 ** (m - 1))
    return [
        random_member_on(m, rng, [(p, s) for s in spatial for p in rng.sample(range(1 << m), 3)])
        for spatial in ((f, f ^ (1 << m) - 1), (rng.randrange(1 << m),))
    ]


@pytest.mark.parametrize("m", [2, 3, 5])
def test_dense_step_real_and_complex_members_agree_bit_for_bit(m):
    """A real member and the same member times 1j agree bit for bit, in the dense reference and in the sparse step.

    tests/helpers.py's dense_split runs the first on float64 arrays, the
    second on complex128 ones; _sparse_split runs both on Python complex.
    Each gives both the same port probabilities, the second's amplitudes
    are exactly 1j times the first's, and every emitted amplitude is a
    Python complex.
    """
    args = (m, AcceptanceRule("phaseflip"), phaseflip_plan(m), gate_masks(GATE_TABLE, m))
    rng = random.Random(m)
    members = [*ghz_products(m, rng), random_pair_member(m, rng), *off_pair_members(m, rng), random_real_member(m, rng)]
    members += [PureState(m, member.dofs, {lab: 1j * a for lab, a in member.terms.items()}) for member in members]
    pairs = zip(members[: len(members) // 2], members[len(members) // 2 :])
    for step, (member, turned) in itertools.product((dense_split(*args), _sparse_split(*args)), list(pairs)):
        real, cplx = by_port(step(member)), by_port(step(turned))
        assert real.keys() == cplx.keys()
        for port, (probability, state) in real.items():
            other_probability, rotated = cplx[port]
            assert other_probability == probability
            assert state.terms.keys() == rotated.terms.keys()
            for label, amp in state.terms.items():
                assert type(amp) is complex and type(rotated.terms[label]) is complex
                assert rotated.terms[label] == 1j * amp


@pytest.mark.parametrize("m", [6, 7, 8, 9])
def test_dense_port_probability_is_a_sequential_sum(m):
    """Every port probability of the dense reference and the frame trace is a left-to-right sum of |amp|**2 in register order.

    The reference amplitudes come from walsh_hadamard on both registers and
    check_table's masks on index grids, and the reference adds their squares one by one
    in Python. The members are random, on one register pair per degree of
    freedom, GHZ x GHZ products at nonzero indices with both signs, a
    spatial-pair member whose pol registers are not one pair and a member on
    a single spatial register. At these sizes numpy's pairwise np.sum along
    a contiguous axis gives other bits on some port of the random members,
    which the test checks too. The dense reference is tests/helpers.py's
    dense_split. Each GHZ x GHZ product also runs through a fresh
    _hadamard_split, where it takes the frame trace.
    """
    rng = random.Random(m)
    size = 1 << m
    grid = np.arange(size)
    real, pair = random_real_member(m, rng), random_pair_member(m, rng)
    turned, turned_pair = (
        make_state(m, (POL, SPATIAL), [(lab, a * complex(math.cos(k), math.sin(k)))
                                       for k, (lab, a) in enumerate(member.terms.items())])
        for member in (real, pair)
    )
    rule, plan, gate = AcceptanceRule("phaseflip"), phaseflip_plan(m), gate_masks(GATE_TABLE, m)
    step = dense_split(m, rule, plan, gate)
    for member in (real, turned, pair, turned_pair, *ghz_products(m, rng), *off_pair_members(m, rng)):
        amps = np.zeros((size, size), dtype=complex)  # [pol, spatial]
        for (pol, spatial), a in member.terms.items():
            amps[pol, spatial] = a
        walsh_hadamard(amps, m)
        amps = amps.T.copy()  # [spatial, pol]
        walsh_hadamard(amps, m)
        out_pol, port = route(grid[None, :], grid[:, None], m, GATE_TABLE)
        squares = np.zeros((size, size))  # [port, out_pol]
        squares[port, out_pol] = np.abs(amps) ** 2
        got = by_port(step(member))
        framed = protocol._ghz_frame(member) is not None
        by_column = by_port(_hadamard_split(m, rule, plan, gate)(member)) if framed else got
        assert by_column.keys() == got.keys()
        pairwise_differs = False
        for p in range(size):
            if bin(p).count("1") % 2:
                assert p not in got
                continue
            total = 0.0
            for sq in squares[p].tolist():
                total += sq
            assert got[p][0] == total if p in got else total == 0.0
            assert p not in by_column or by_column[p][0] == total
            pairwise_differs |= float(np.sum(squares[p])) != total
        # only the random members are sure to have a port where the pairwise sum differs
        assert pairwise_differs or member not in (real, turned)


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
        Ensemble(((1.0, make_ghz_pol(3, 1)),)), Ensemble(((1.0, make_ghz_spatial(3, 0)),))
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
    ens = product_ensemble(pol, spatial)
    shares, success = closed_form_general([0.7, 0.1, 0.1, 0.1], [0.7, 0.1, 0.1, 0.1])
    # one run per target: each reads its own output fidelity
    for i, expected in enumerate(shares):
        result = run_general(
            ens, corrections={}, acceptance=AcceptanceRule("bitflip"), target=make_ghz_pol(3, i)
        )
        assert result.success_probability == pytest.approx(0.52, abs=1e-12)
        assert result.success_probability == pytest.approx(success, abs=1e-12)
        assert result.output_fidelity == pytest.approx(expected, abs=1e-12)
        if i == 0:
            assert result.output_fidelity == pytest.approx(0.49 / 0.52, abs=1e-12)


def test_general_pure_input():
    ens = product_ensemble(
        Ensemble(((1.0, make_ghz_pol(3, 0)),)), Ensemble(((1.0, make_ghz_spatial(3, 0)),))
    )
    result = run_general(ens)
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)
    assert result.output_fidelity == pytest.approx(1.0, abs=1e-12)
    # a dead term alone on its port is dropped before any state is built, as make_state drops it
    member = PureState(2, (POL, SPATIAL), {(0, 0): 1.0, (0, 3): 0.0})
    result = run_general(Ensemble(((1.0, member),)), corrections={}, acceptance=AcceptanceRule("general"))
    assert list(result.accepted) == [(0, 0)] and result.success_probability == 1.0


def test_closed_form_pair_values():
    assert pair_closed_form(0.8, 0.8)[0] == pytest.approx(16 / 17, abs=1e-15)
    assert pair_closed_form(1.0, 1.0)[0] == 1.0
    # a maximally mixed factor passes the other factor's fidelity through
    for x in (0.1, 0.4, 0.5, 0.9):
        assert pair_closed_form(0.5, x)[0] == pytest.approx(x, abs=1e-15)
        assert pair_closed_form(x, 0.5)[0] == pytest.approx(x, abs=1e-15)
    assert pair_closed_form(0.8, 0.7)[1] == pytest.approx(0.62, abs=1e-15)
    # two products: the exactly rounded sum is the plain a + b, so the pair figures keep their bits
    for fa, fb in ((0.8, 0.7), (0.3, 0.9), (0.123, 0.456)):
        success = fa * fb + (1.0 - fa) * (1.0 - fb)
        assert pair_closed_form(fa, fb) == (fa * fb / success, success)


def test_closed_form_pair_errors():
    with pytest.raises(ValueError, match="accepted"):
        pair_closed_form(1.0, 0.0)
    with pytest.raises(ValueError, match="outside"):
        pair_closed_form(1.2, 0.5)


def test_closed_form_general_values():
    out, success = closed_form_general([0.7, 0.1, 0.1, 0.1], [0.7, 0.1, 0.1, 0.1])
    assert out[0] == pytest.approx(0.49 / 0.52, abs=1e-15)
    assert out[1] == pytest.approx(0.01 / 0.52, abs=1e-15)
    assert success == pytest.approx(0.52)
    assert closed_form_general([1, 0, 0, 0], [1, 0, 0, 0]) == ((1.0, 0.0, 0.0, 0.0), 1.0)
    assert closed_form_general([0.25] * 4, [0.25] * 4)[0] == pytest.approx((0.25,) * 4)


def test_closed_form_general_order_independent():
    # math.fsum is exactly rounded: permuting the paired components moves no bit of the figures
    w = [0.1, 0.2, 0.3, 0.15, 0.25]
    u = [0.3, 0.05, 0.35, 0.2, 0.1]
    shares, success = closed_form_general(w, u)
    rng = random.Random(7)
    for _ in range(20):
        order = list(range(len(w)))
        rng.shuffle(order)
        moved, moved_success = closed_form_general([w[i] for i in order], [u[i] for i in order])
        assert moved_success == success
        assert list(moved) == [shares[i] for i in order]


def test_closed_form_general_errors():
    with pytest.raises(ValueError, match="length"):
        closed_form_general([1.0], [0.5, 0.5])
    for pol, spatial in (
        ([0.5, 0.4], [0.5, 0.5]),
        ([math.nan, 0.5], [0.5, 0.5]),
        ([0.5, 0.5], [0.5, math.nan]),
        ([0.9, 0.9], [0.9, 0.9]),  # a success probability above 1 is refused, not returned
    ):
        with pytest.raises(ValueError, match="sum"):
            closed_form_general(pol, spatial)
    with pytest.raises(ValueError, match="vanish"):
        closed_form_general([1.0, 0.0], [0.0, 1.0])
    # weights that sum to 1 but leave [0, 1]; test_closed_form_pair_errors has the pair case
    with pytest.raises(ValueError, match="outside"):
        closed_form_general([1.5, -0.5], [0.5, 0.5])
    # the sums are held to NORM_TOL, 1e-12
    closed_form_general([0.5, 0.5 + 0.9e-12], [0.5, 0.5])
    with pytest.raises(ValueError, match="sum"):
        closed_form_general([0.5, 0.5 + 1.1e-12], [0.5, 0.5])


def test_engine_matches_closed_forms_spotgrid():
    for f1 in (0.2, 0.5, 0.8):
        for f2 in (0.3, 0.6, 0.9):
            fc, sc = pair_closed_form(f1, f2)
            bit = run_bitflip(bitflip_input(3, f1, f2))
            assert bit.output_fidelity == pytest.approx(fc, abs=1e-12)
            assert bit.success_probability == pytest.approx(sc, abs=1e-12)
            phase = run_phaseflip(phaseflip_input(3, f1, f2))
            assert phase.output_fidelity == pytest.approx(fc, abs=1e-12)
            assert phase.success_probability == pytest.approx(sc, abs=1e-12)


def test_purification_gain():
    for f1 in (0.6, 0.7, 0.8, 0.9):
        for f2 in (0.55, 0.75, 0.95):
            assert pair_closed_form(f1, f2)[0] > max(f1, f2)


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
    # ports builds, ascending, exactly the registers accepts admits
    for rule in (bit, phase, everything):
        for m in range(1, 13):
            assert rule.ports(m) == tuple(port for port in range(1 << m) if rule.accepts(port, m))


def test_sparse_port_probability_is_a_left_to_right_sum():
    """A sparse port's probability adds its squares left to right in term order, not exactly rounded.

    The member puts all its terms on port 0 under the accept-all rule, with
    squares whose left-to-right sum differs from math.fsum's (the sum that
    the builtin sum of Python 3.12 and later approaches by compensation).
    The step and the run's success probability both give the left-to-right
    sum, the same float on every Python version.
    """
    m, squares = 3, [0.1, 0.2, 0.3, 0.15, 0.25]
    amps = [x**0.5 for x in squares]
    total = 0.0
    for a in amps:
        total += abs(a) ** 2
    assert total != math.fsum(abs(a) ** 2 for a in amps)
    # port = pol ^ spatial under the gate: every (r, r) pair leaves on port 0
    member = PureState(m, (POL, SPATIAL), {(r, r): a for r, a in enumerate(amps)})
    rule = AcceptanceRule("general")
    (group,) = protocol._split_by_pattern(m, rule, {}, gate_masks(GATE_TABLE, m))(member)
    assert group[0] == total and group[2] == (0,)
    assert run_general(Ensemble(((1.0, member),)), corrections={}, acceptance=rule).success_probability == total


def test_infer_plan_requires_ghz_products():
    from ghzpurify.optics import hadamard_pol

    warped = Ensemble(
        ((1.0, hadamard_pol(tensor_hyper(make_ghz_pol(3, 0), make_ghz_spatial(3, 0)))),)
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


def test_explicit_plan_masks_are_m_bit_registers():
    ens = bitflip_input(3, 0.8, 0.7)
    for mask in (8, -1, 1.0, np.int64(1)):
        with pytest.raises(ValueError, match="not an m-bit register"):
            run_general(ens, corrections={0: mask})
    assert run_general(ens, corrections={0: 7}).success_probability == pytest.approx(1.0)


def test_underflowed_weights_carry_nothing():
    """A weight that underflows to 0 drops out; product_ensemble used to refuse it and _execute to divide by 0."""
    tiny = 5e-324  # the smallest subnormal: half of it rounds to 0
    spatial = mix_general([make_ghz_spatial(3, 0), make_ghz_spatial(3, 2)], [1.0, tiny])
    for pol_weights in ([0.5, 0.5], [1.0, 0.0]):
        pol = mix_general([make_ghz_pol(3, 0), make_ghz_pol(3, 1)], pol_weights)
        result = run_general(product_ensemble(pol, spatial))
        assert result.output_fidelity == pytest.approx(1.0, abs=1e-12)
        assert result.success_probability == pytest.approx(1.0, abs=1e-12)


def term_by_term(ensemble, mode, table):
    """A mode through the public per-state functions, one member at a time.

    The Hadamard layers and the closing hadamard_pol run only when
    ``mode.hadamard`` is set. Returns, per accepted pattern, the (member
    weight x pattern probability, corrected state) entries in member order.
    """
    m = ensemble.m
    plan = mode.plan(ensemble)
    buckets = {}
    for weight, member in ensemble.members:
        if mode.hadamard:
            member = hadamard_spatial(hadamard_pol(member))
        routed = apply_network(member, table)
        by_port = {}
        for (pol, port), amp in routed.terms.items():
            by_port.setdefault(port, {})[(pol,)] = amp
        for port, terms in by_port.items():
            if mode.rule.accepts(port, m):
                prob = sum(abs(a) ** 2 for a in terms.values())
                cond = PureState(m, (POL,), {label: a * prob**-0.5 for label, a in terms.items()})
                corrected = bit_flip_pol(cond, plan.get(port, 0))
                if mode.hadamard:
                    corrected = hadamard_pol(corrected)
                buckets.setdefault(bits(m, port), []).append((weight * prob, corrected))
    return buckets


FAULTED_TABLE = {**GATE_TABLE, (0, 0): GATE_TABLE[(1, 0)], (1, 0): GATE_TABLE[(0, 0)]}


# phase-flip cases are named <m>-<table>, the other modes <mode>-<m>-<table>
MODE_CASES = [
    pytest.param(name, m, id=str(m) if name == "phaseflip" else f"{name}-{m}") for name in MODES for m in range(2, 7)
]


@pytest.mark.parametrize("table", [GATE_TABLE, FAULTED_TABLE], ids=["gate", "faulted"])
@pytest.mark.parametrize("name, m", MODE_CASES)
def test_dense_phaseflip_path_matches_term_by_term(name, m, table):
    """Each mode's engine step gives the per-state route's results bit for bit.

    Hadamard modes draw two-component mixtures with any GHZ index and sign;
    the sparse modes draw bit-flip mixtures of the reference with up to
    three error components. Each port's fidelity is that of the checked
    Ensemble of its reference entries against GHZ 0+, and the output
    fidelity the fsum of probability x fidelity over the ports, divided by
    the success probability.
    """
    mode = MODES[name]
    rng = random.Random(m)

    def mixture(maker):
        if not mode.hadamard:
            errors = rng.sample(range(1, 2 ** (m - 1)), rng.randint(1, min(3, 2 ** (m - 1) - 1)))
            weights = [rng.uniform(0.05, 1.0) for _ in range(len(errors) + 1)]
            states = [maker(m, 0)] + [maker(m, index) for index in errors]
            return mix_general(states, [w / math.fsum(weights) for w in weights])
        index, sign = rng.randrange(2 ** (m - 1)), rng.choice((1, -1))
        return mix_two(maker(m, 0), maker(m, index, -1 if index == 0 else sign), rng.uniform(0.05, 0.95))

    for _ in range(4):
        ensemble = product_ensemble(mixture(make_ghz_pol), mixture(make_ghz_spatial))
        expected = term_by_term(ensemble, mode, table)
        if not expected:
            with pytest.raises(ValueError, match="no accepted"):
                mode.run(ensemble, gate_table=table)
            continue
        result = mode.run(ensemble, gate_table=table)
        success = math.fsum(w for entries in expected.values() for w, _ in entries)
        assert result.success_probability == success
        assert set(result.accepted) == set(expected)
        fidelity_terms = []
        for pattern, entries in expected.items():
            outcome = result.accepted[pattern]
            total = math.fsum(w for w, _ in entries)
            assert outcome.probability == total
            members = [(w, dict(s.terms)) for w, s in outcome.ensemble.members]
            assert members == [(w / total, dict(s.terms)) for w, s in entries]
            reference = fidelity(Ensemble(tuple((w / total, s) for w, s in entries)), make_ghz_pol(m, 0, +1))
            assert outcome.fidelity == reference
            fidelity_terms.append(total * reference)
        assert result.output_fidelity == math.fsum(fidelity_terms) / success


def ghz_product_ensemble(m, rng):
    """GHZ x GHZ members at random indices in random sign pairs, some of them repeated, at random weights."""
    members = []
    for _ in range(rng.randint(1, 3 if m >= 9 else 6)):
        if members and rng.random() < 0.3:
            members.append(rng.choice(members))
            continue
        e, f = rng.randrange(2 ** (m - 1)), rng.randrange(2 ** (m - 1))
        signs = rng.choice((1, -1)), rng.choice((1, -1))
        members.append(tensor_hyper(make_ghz_pol(m, e, signs[0]), make_ghz_spatial(m, f, signs[1])))
    raw = [rng.uniform(0.05, 1.0) for _ in members]
    return Ensemble(tuple((w / math.fsum(raw), s) for w, s in zip(raw, members)))


def phaseflip_repr(ensemble, table, target=None):
    try:
        return repr(MODES["phaseflip"].run(ensemble, target, gate_table=table))
    except ValueError as exc:  # nothing accepted
        return f"ValueError: {exc}"


@pytest.fixture
def cold():
    """Empty protocol's process-lifetime caches before and after the test, so that a counted run starts cold."""
    clear_caches()
    yield
    clear_caches()


def counting_steps(monkeypatch, name):
    """Install a protocol step factory whose steps record every member they run on; returns that list."""
    factory, stepped = getattr(protocol, name), []

    def counted(*args):
        step = factory(*args)

        def split(member, *rest):
            stepped.append(member)
            return step(member, *rest)

        return split

    monkeypatch.setattr(protocol, name, counted)
    return stepped


def counting_off_frame_steps(monkeypatch):
    """Install a _sparse_split whose steps record every member they run on; returns that list."""
    return counting_steps(monkeypatch, "_sparse_split")


def counting_dense_steps(monkeypatch):
    """Make tests/helpers.py's dense_split the Hadamard step, its steps recording every member they run on; returns that list.

    Every member then takes its own dense step, the reference the frame step
    is checked against bit for bit.
    """
    monkeypatch.setattr(protocol, "_hadamard_split", dense_split)
    return counting_steps(monkeypatch, "_hadamard_split")


def counting_traces(monkeypatch):
    """Install a cold _frame_column cache that records the magnitude of every trace it computes; returns that list.

    The cache has the package's bound around the package's trace, so a
    lookup it answers records nothing, and the list holds the traces this
    process computed since the install, in order.
    """
    original, traced = protocol._frame_column, []

    def counted(m, a):
        traced.append(a)
        return original.__wrapped__(m, a)

    monkeypatch.setattr(protocol, "_frame_column", functools.lru_cache(original.cache_info().maxsize)(counted))
    return traced


@pytest.mark.parametrize("table", [GATE_TABLE, FAULTED_TABLE], ids=["gate", "faulted"])
@pytest.mark.parametrize("m", range(2, 11))
def test_relabelled_members_match_their_dense_steps(m, table, monkeypatch):
    """A phase-flip run on GHZ x GHZ members, every one through the frame trace, prints the repr of each member's dense step.

    The reference is tests/helpers.py's dense_split, put in place of the
    Hadamard step, so every member takes its own. The repr spells out
    every accepted port's probability and every amplitude of its
    conditional states, signed zeros and -0j included, so a wrong port
    shift, output shift or sign of the frame step shows even where no
    fidelity moves. A non-GHZ target makes X on every output photon move
    the fidelity too.
    """
    rng = random.Random(100 + m)
    off_frame = counting_off_frame_steps(monkeypatch)
    for _ in range(2 if m >= 9 else 4):
        ensemble = ghz_product_ensemble(m, rng)
        target = make_state(m, (POL,), [((rng.randrange(1 << m),), 1.0)]) if rng.random() < 0.5 else None
        framed = phaseflip_repr(ensemble, table, target)
        with monkeypatch.context() as own:
            stepped = counting_dense_steps(own)
            assert_same_text(phaseflip_repr(ensemble, table, target), framed)
            assert len(stepped) == len(ensemble.members)
    assert not off_frame


@pytest.mark.parametrize("table", [GATE_TABLE, FAULTED_TABLE], ids=["gate", "faulted"])
@pytest.mark.parametrize("m", range(2, 8))
def test_ghz_product_ports_have_the_parity_of_their_port_shift(m, table):
    """Every port a real GHZ x GHZ member reaches has the parity of xq ^ c2, so a rejected parity needs no step.

    Under the accept-all rule with an empty plan, the dense step on each
    GHZ(e, s) x GHZ(f, t), e, f < 4, in all four sign pairs, returns
    exactly 2^(m-1) ports. xq is the port shift of the sign masks (2^(m-1)
    where a sign is -), through the port masks a2, b2 of the gate, and c2
    is its port constant.
    """
    gate = gate_masks(table, m)
    (_, _, _, a2, b2, c2), _ = gate
    step, top = dense_split(m, AcceptanceRule("general"), {}, gate), 1 << (m - 1)
    for e, f, s, t in itertools.product(range(min(4, top)), range(min(4, top)), (1, -1), (1, -1)):
        ports = by_port(step(tensor_hyper(make_ghz_pol(m, e, s), make_ghz_spatial(m, f, t))))
        xq = (top if s < 0 else 0) & a2 ^ (top if t < 0 else 0) & b2
        assert len(ports) == top
        assert {q.bit_count() & 1 for q in ports} == {(xq ^ c2).bit_count() & 1}


def mixed_members():
    """Seven m = 4 members: the all-plus GHZ x GHZ product, rescaled, turned, crossed, off the product, and two repeats.

    The rescaled member has the product's signs at another magnitude, the
    turned one is the product times 1j, and the crossed one has signs no
    product of two GHZ states has; the first two come again at the end.
    """
    m, full = 4, 15
    reference = tensor_hyper(make_ghz_pol(m, 0), make_ghz_spatial(m, 0))
    # the same signs on another magnitude: make_ghz_* use 1 / sqrt(2), this factor 2**-0.5, one ulp above
    scaled = tensor_hyper(PureState(m, (POL,), {(0,): 2**-0.5, (full,): 2**-0.5}), make_ghz_spatial(m, 0))
    assert scaled.terms[(0, 0)] != reference.terms[(0, 0)]
    turned = PureState(m, reference.dofs, {lab: 1j * a for lab, a in reference.terms.items()})
    # +-a on the product support, with signs no product of two GHZ states has
    crossed = PureState(m, reference.dofs, {lab: -a if lab == (full, full) else a for lab, a in reference.terms.items()})
    off_product = random_pair_member(m, random.Random(1))
    return [reference, scaled, turned, crossed, off_product, reference, scaled]


def test_dense_step_runs_once_per_group(cold, monkeypatch):
    """From a cold cache the pair input computes 1 frame trace per process, and no off-frame step; a member off the frame takes its own.

    The pair input holds GHZ(0) x GHZ(0) in all four sign pairs, at one
    magnitude. The port shift is the XOR of the two sign masks, so (+,-)
    and (-,+) shift every port to odd parity, which the phase-flip rule
    rejects, and they take no step at all. (+,+) computes the trace of its
    magnitude, and (-,-) reads it from the cache. A second run, at other
    fidelities, computes none. Of the mixed members, at another m, the
    reference and the rescaled one each compute a trace, their repeats
    read it, and the other three take the sparse step; a second run
    computes no trace, and its off-frame members take their sparse steps
    again. With tests/helpers.py's dense_split as the off-frame step, the
    run prints what every member through its own dense step prints.
    """
    traced, stepped = counting_traces(monkeypatch), counting_off_frame_steps(monkeypatch)
    ensemble = phaseflip_input(8, 0.8, 0.7)
    MODES["phaseflip"].run(ensemble)
    a = ensemble.members[0][1].terms[(0, 0)].real
    assert len(ensemble.members) == 4 and traced == [a] and not stepped
    MODES["phaseflip"].run(phaseflip_input(8, 0.6, 0.9))
    assert traced == [a] and not stepped

    members = mixed_members()
    ensemble = Ensemble(tuple((1 / len(members), s) for s in members))
    magnitudes = [member.terms[(0, 0)].real for member in members[:2]]
    assert magnitudes[0] != magnitudes[1]
    traced.clear()
    framed = phaseflip_repr(ensemble, GATE_TABLE)
    # the repeated reference and the repeated scaled member take no trace: each reuses its first's
    assert traced == magnitudes
    assert len(stepped) == 3 and all(a is b for a, b in zip(stepped, members[2:]))
    traced.clear()
    stepped.clear()
    assert_same_text(phaseflip_repr(ensemble, GATE_TABLE), framed)
    assert not traced and len(stepped) == 3
    monkeypatch.setattr(protocol, "_sparse_split", dense_split)
    with_dense = phaseflip_repr(ensemble, GATE_TABLE)
    counting_dense_steps(monkeypatch)
    assert_same_text(phaseflip_repr(ensemble, GATE_TABLE), with_dense)


def test_accept_all_pair_input_shares_one_column_across_port_classes(cold, monkeypatch):
    """Under accept-all the pair input's 4 members compute 1 frame trace from cold, and print what per-member dense steps print.

    (+,-) and (-,+) reach the odd ports, which this rule keeps, and the
    phase-flip plan flips every photon on the even ports only, so the one
    trace of the common magnitude serves ports of both classes under two
    flip masks. The reference is tests/helpers.py's dense_split for every
    member.
    """
    traced, off_frame = counting_traces(monkeypatch), counting_off_frame_steps(monkeypatch)
    ensemble = phaseflip_input(8, 0.8, 0.7)

    def accept_all():
        return repr(protocol._execute(ensemble, AcceptanceRule("general"), phaseflip_plan(8), None, True, None))

    framed = accept_all()
    assert traced == [ensemble.members[0][1].terms[(0, 0)].real] and not off_frame
    stepped = counting_dense_steps(monkeypatch)
    assert_same_text(accept_all(), framed)
    assert len(stepped) == 4 and len(traced) == 1


def test_port_outcomes_are_built_once_per_distinct_port(monkeypatch):
    """A run builds one conditional ensemble and fidelity per cell of ports, and the per-port loop's repr.

    On the benchmark's pair input every one of the 128 accepted ports at
    m = 8 holds the same (weight, state) entries, so protocol.fidelity runs
    once and every port gets the one outcome. On the mixed members of
    test_dense_step_runs_once_per_group (turned, crossed and off the
    product, each on its own sparse step) and on the pair input, the result
    prints what tests/helpers.py's per_port_execute, one outcome built per
    port, prints.
    """
    original, scored = protocol.fidelity, []

    def counted(ensemble, target):
        scored.append(ensemble)
        return original(ensemble, target)

    monkeypatch.setattr(protocol, "fidelity", counted)
    mode, pair = MODES["phaseflip"], MODES["phaseflip"].verify_input(8, 0.8, 0.7)
    result = mode.run(pair)
    assert len(result.accepted) == 128 and len(scored) == 1
    assert len({id(outcome) for outcome in result.accepted.values()}) == 1
    members = mixed_members()
    mixed = Ensemble(tuple((1 / len(members), s) for s in members))
    for ensemble in (mixed, pair):
        expected = per_port_execute(ensemble, mode.rule, mode.plan(ensemble), None, True)
        assert_same_text(repr(mode.run(ensemble)), repr(expected))


def port_tuples_overlap(ensemble, rule, plan, table):
    """Whether two distinct port tuples of a Hadamard run's live groups share a port, so that its cells differ from its tuples."""
    m = ensemble.m
    step = _hadamard_split(m, rule, plan, gate_masks(table, m))
    tuples = {ports for weight, member in ensemble.members for prob, _, ports in step(member) if weight * prob > 0.0}
    return sum(map(len, tuples)) > len(set().union(*tuples))


@pytest.mark.parametrize("table", [GATE_TABLE, FAULTED_TABLE], ids=["gate", "faulted"])
def test_cells_print_what_the_per_port_loop_prints(table):
    """Every Hadamard run prints the repr of tests/helpers.py's per_port_execute, one outcome built per port.

    The runs: the pair input at m = 2..10; GHZ x GHZ ensembles at random
    indices and signs, so that members of different zq split a class's
    ports differently and cells differ from port tuples, under the
    phase-flip rule and plan, and under accept-all with an empty plan and
    with a plan that flips the last photon on odd ports; members at
    weights 5e-324 (times a port probability of 1/2 or less, it rounds
    to 0 and the group drops out) and 1e-300; and a
    complex and an off-product member in one run with frame members, so
    that one-port groups of the sparse step meet the frame step's groups.
    """
    rng, runs = random.Random(31), []
    phaseflip, accept_all = AcceptanceRule("phaseflip"), AcceptanceRule("general")
    for m in range(2, 11):
        runs.append((MODES["phaseflip"].verify_input(m, 0.8, 0.7), phaseflip, phaseflip_plan(m)))
    for m in range(2, 8):
        for _ in range(3):
            ensemble = ghz_product_ensemble(m, rng)
            runs.append((ensemble, phaseflip, phaseflip_plan(m)))
            runs.append((ensemble, accept_all, {}))
            runs.append((ensemble, accept_all, {q: q & 1 for q in range(1 << m)}))
    m = 4
    frame = [s for _, s in ghz_product_ensemble(m, rng).members]
    members = mixed_members()
    for weights in ((1.0, 5e-324, 1e-300), (1e-300, 1.0, 5e-324)):
        tiny = Ensemble(tuple(zip(weights, (members[0], frame[0], members[3]))))
        runs.append((tiny, phaseflip, phaseflip_plan(m)))
        runs.append((tiny, accept_all, {}))
    meeting = Ensemble(tuple((1 / (len(frame) + 2), s) for s in [*frame, members[2], members[4]]))
    runs.append((meeting, phaseflip, phaseflip_plan(m)))
    runs.append((meeting, accept_all, {q: q & 1 for q in range(1 << m)}))
    overlapping = 0
    for ensemble, rule, plan in runs:
        try:
            printed = repr(protocol._execute(ensemble, rule, plan, None, True, table))
        except ValueError as exc:  # nothing accepted, which the per-port loop does not check
            assert "no accepted" in str(exc)
            continue
        assert_same_text(printed, repr(per_port_execute(ensemble, rule, plan, None, True, table)))
        overlapping += port_tuples_overlap(ensemble, rule, plan, table)
    assert overlapping >= 10


@pytest.mark.parametrize("m", range(2, 11))
def test_warm_pair_solve_builds_one_outcome_per_cell(m, monkeypatch):
    """A warm phase-flip solve of the pair input builds its one cell's outcome once and spells out no pattern.

    Its two live members share one port tuple, every accepted port, so the
    run has one cell: protocol.fidelity runs once, every port holds the
    one outcome, and the Pattern tuples come from the first run's
    _patterns, with no states.bits call.
    """
    mode, pair = MODES["phaseflip"], MODES["phaseflip"].verify_input(m, 0.8, 0.7)
    cold = repr(mode.run(pair))
    calls = {"fidelity": 0, "bits": 0}
    for name in calls:
        original = getattr(protocol, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(protocol, name, counted)
    result = mode.run(pair)
    assert calls == {"fidelity": 1, "bits": 0}
    assert len(result.accepted) == 1 << (m - 1) and len({id(o) for o in result.accepted.values()}) == 1
    assert_same_text(repr(result), cold)


def test_warm_runs_print_what_cold_runs_print():
    """Shuffled phase-flip runs at m = 2..8 in one process print, each, what the same run prints with every cache empty.

    The port tables, partitions, frame traces and pattern tuples live for the process.
    The runs cover the gate and the faulted table, the phase-flip rule and
    plan and the accept-all rule with an empty plan, the pair input and the
    pair input negated, GHZ x GHZ members at random indices and signs, and
    the mixed members (rescaled, turned, crossed and off the product), so
    warm keys of one run meet runs that differ from it in the gate, the
    rule, the flip mask or the magnitude.
    """
    rng, runs = random.Random(30), []
    members = mixed_members()
    mixed = Ensemble(tuple((1 / len(members), s) for s in members))
    for m in range(2, 9):
        pair = phaseflip_input(m, rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0))
        negated = Ensemble(tuple(
            (w, PureState(m, s.dofs, {lab: -a for lab, a in s.terms.items()})) for w, s in pair.members
        ))
        for ensemble in [pair, negated, ghz_product_ensemble(m, rng)] + ([mixed] if m == 4 else []):
            for table in (GATE_TABLE, FAULTED_TABLE):
                runs.append((ensemble, AcceptanceRule("phaseflip"), phaseflip_plan(m), table))
                runs.append((ensemble, AcceptanceRule("general"), {}, table))
    rng.shuffle(runs)

    def printed(ensemble, rule, plan, table):
        try:
            return repr(protocol._execute(ensemble, rule, plan, None, True, table))
        except ValueError as exc:  # nothing accepted
            return f"ValueError: {exc}"

    clear_caches()
    warm = [printed(*run) for run in runs]
    for run, text in zip(runs, warm):
        clear_caches()
        assert_same_text(printed(*run), text)


def test_column_memo_stays_bounded():
    """512 runs, one new (gate, magnitude, index, sign) key each, leave protocol's tables within their bounds.

    512 accept-all runs at m = 4, one GHZ x GHZ member each at every index
    pair and sign pair, on the gate and the faulted table. Every table
    protocol keeps for the process, the frame traces among them, is an lru
    cache of at most 32 entries, and no module-level dict holds anything a
    run put there.
    """
    clear_caches()
    m = 4
    tables = {name: obj for name, obj in vars(protocol).items() if type(obj) in (dict, list, set) and name[:2] != "__"}
    sizes = {name: len(obj) for name, obj in tables.items()}
    cached = [protocol.AcceptanceRule.ports, protocol.phaseflip_plan, protocol._port_classes, protocol._partition,
              protocol._frame_column, protocol._patterns]
    for e, f, s, t in itertools.product(range(8), range(8), (1, -1), (1, -1)):
        member = Ensemble(((1.0, tensor_hyper(make_ghz_pol(m, e, s), make_ghz_spatial(m, f, t))),))
        for table in (GATE_TABLE, FAULTED_TABLE):
            protocol._execute(member, AcceptanceRule("general"), {}, None, True, table)
            assert all(fn.cache_info().currsize <= fn.cache_info().maxsize == 32 for fn in cached)
    assert {name: len(obj) for name, obj in tables.items()} == sizes
    clear_caches()


def test_shared_port_tables_are_read_only():
    """The plan, port tuples, partition and patterns a run shares with later runs refuse every write, and a later run is unchanged."""
    m, rule = 4, AcceptanceRule("phaseflip")
    ensemble = phaseflip_input(m, 0.8, 0.7)
    clear_caches()
    before = repr(MODES["phaseflip"].run(ensemble))
    plan, ports, classes = phaseflip_plan(m), rule.ports(m), protocol._port_classes(rule, m)
    # the pair input's two live members have zq = 0 and reach the even class, every port with one flip mask:
    # the process computed their partition once, and this lookup is answered from the cache
    partition = protocol._partition(rule, m, 0, 0, (15,) * len(classes[0]))
    info = protocol._partition.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and partition == ((0, 15, classes[0]),)
    patterns = protocol._patterns(m, classes[0])
    assert protocol._patterns.cache_info().hits == 1 and patterns == tuple(bits(m, q) for q in classes[0])
    with pytest.raises(TypeError):
        plan[0] = 0
    with pytest.raises(TypeError):
        ports[0] = 1
    with pytest.raises(TypeError):
        classes[0][0] = 1
    with pytest.raises(TypeError):
        partition[0] = partition[0]
    with pytest.raises(TypeError):
        partition[0][2][0] = 1
    with pytest.raises(TypeError):
        patterns[0] = patterns[1]
    with pytest.raises(TypeError):
        patterns[0][0] = 1
    assert phaseflip_plan(m) is plan and rule.ports(m) is ports and AcceptanceRule("phaseflip").ports(m) is ports
    assert_same_text(repr(MODES["phaseflip"].run(ensemble)), before)


def test_partition_and_pattern_tables_stay_bounded():
    """The partitions and pattern tuples hold at most their lru bound, and runs past it still print their cold repr.

    Accept-all runs at m = 5 and 6, one GHZ x GHZ member each at every
    pol index e and spatial index 7e, on the gate and the faulted table,
    meet more (m, zq, class) keys, and more distinct port tuples, than
    either cache holds.
    """
    clear_caches()
    rule, runs, warm, sizes = AcceptanceRule("general"), [], [], []
    for m in (5, 6):
        top = 1 << (m - 1)
        for e, table in itertools.product(range(top), (GATE_TABLE, FAULTED_TABLE)):
            member = tensor_hyper(make_ghz_pol(m, e), make_ghz_spatial(m, 7 * e % top, -1))
            runs.append((Ensemble(((1.0, member),)), table))
    for ensemble, table in runs:
        warm.append(repr(protocol._execute(ensemble, rule, {}, None, True, table)))
        sizes.append(max(protocol._partition.cache_info().currsize, protocol._patterns.cache_info().currsize))
    for cached in (protocol._partition, protocol._patterns):
        info = cached.cache_info()
        assert info.misses > info.maxsize == info.currsize == 32
    assert max(sizes) == 32
    for (ensemble, table), text in list(zip(runs, warm))[::7]:
        clear_caches()
        assert_same_text(repr(protocol._execute(ensemble, rule, {}, None, True, table)), text)
    clear_caches()


def test_clear_caches_empties_every_process_table():
    """tests/helpers.py's clear_caches empties every lru cache and every _UPPER dict table of protocol.

    Each table is found by looking, not by name: every lru-cached function
    or method that protocol defines, and every dict bound to a private
    upper-case module name (there is none today). A cold pair-input run at
    m = 4, once under the phase-flip rule and once under accept-all, fills
    each of them, so a table that clear_caches misses stays non-empty here.
    """
    defined = [obj for obj in vars(protocol).values() if getattr(obj, "__module__", None) == protocol.__name__]
    cached = [obj for obj in defined if hasattr(obj, "cache_clear")]
    for cls in [obj for obj in defined if isinstance(obj, type)]:
        cached += [obj for obj in vars(cls).values() if hasattr(obj, "cache_clear")]
    tables = [obj for name, obj in vars(protocol).items() if name[:1] == "_" and name.isupper() and type(obj) is dict]
    assert len(cached) >= 5
    clear_caches()
    pair = phaseflip_input(4, 0.8, 0.7)
    MODES["phaseflip"].run(pair)
    protocol._execute(pair, AcceptanceRule("general"), {}, None, True, None)
    assert all(f.cache_info().currsize for f in cached) and all(tables)
    clear_caches()
    assert [f for f in cached if f.cache_info().currsize] == [] and not any(tables)


def sparse_per_port(member, m, rule, plan, table):
    """The sparse step's per-port form, term by term through route: port -> (left-to-right probability, state)."""
    groups = {}
    for (pol, spatial), amp in member.terms.items():
        out_pol, port = route(pol, spatial, m, table)
        if rule.accepts(port, m) and abs(amp) > PRUNE_TOL:
            groups.setdefault(port, {})[(out_pol ^ plan.get(port, 0),)] = amp
    out = {}
    for port, terms in sorted(groups.items()):
        prob = 0.0
        for a in terms.values():
            prob += abs(a) ** 2
        out[port] = (prob, PureState._derived(m, (POL,), {lab: a * prob**-0.5 for lab, a in terms.items()}))
    return out


@pytest.mark.parametrize("table", [GATE_TABLE, FAULTED_TABLE], ids=["gate", "faulted"])
@pytest.mark.parametrize("name, m", [(name, m) for name, mode in MODES.items() for m in range(mode.min_m, 9)])
def test_step_groups_cover_each_accepted_port_once(name, m, table):
    """Each step's port groups hold accepted ports, ascending in a group and none twice; per port they are the per-port form.

    A mode's verify input runs through the step its runs take. Spelled out
    per port (by_port), a Hadamard mode's groups print each member's dense
    step, one port per group; the phase-flip mode also runs GHZ x GHZ
    members, and an accept-all rule whose plan flips the last photon on
    odd ports, so that one member's ports fall into several groups. The
    other modes' groups print the term-by-term route of sparse_per_port.
    """
    mode = MODES[name]
    rng, gate = random.Random(300 + m), gate_masks(table, m)
    inputs = [mode.verify_input(m, 0.8, 0.7)] + ([ghz_product_ensemble(m, rng)] if mode.hadamard else [])
    runs = [(mode.rule, mode.plan(ensemble), ensemble) for ensemble in inputs]
    if mode.hadamard:
        runs.append((AcceptanceRule("general"), {q: q & 1 for q in range(1 << m)}, ghz_product_ensemble(m, rng)))
    for rule, plan, ensemble in runs:
        step = (protocol._hadamard_split if mode.hadamard else protocol._split_by_pattern)(m, rule, plan, gate)
        dense = dense_split(m, rule, plan, gate)
        for _, member in ensemble.members:
            groups = step(member)
            ports = [q for _, _, group in groups for q in group]
            assert len(ports) == len(set(ports)) and set(ports) <= set(rule.ports(m))
            assert all(type(group) is tuple and list(group) == sorted(set(group)) for _, _, group in groups)
            expected = by_port(dense(member)) if mode.hadamard else sparse_per_port(member, m, rule, plan, table)
            assert_same_text(repr(by_port(groups)), repr(expected))


@pytest.mark.parametrize("table", [GATE_TABLE, FAULTED_TABLE], ids=["gate", "faulted"])
@pytest.mark.parametrize("m", range(2, 12))
def test_column_step_matches_the_dense_step(m, table):
    """A fresh relabelling step on a real GHZ x GHZ member, through the frame trace, prints the repr of the dense step on it.

    Members are a Z^(zp, zs) X^(e, f) image of GHZ(0,+) x GHZ(0,+) at
    amplitude +-a: random e and f, all four sign pairs, and a of 1, 0.3 and
    1e-3. The phase-flip rule and plan run every member whose class it
    accepts; the accept-all rule, where both classes are live, runs a plan
    of random flip masks, so that ports of one member close different
    flips. From m = 10 on, where the dense side takes about 0.2 s a member,
    each sign pair takes one of the three magnitudes, and only the
    phase-flip run.
    """
    rng, gate, size = random.Random(200 + m), gate_masks(table, m), 1 << m
    full, top = size - 1, size >> 1
    runs = [(AcceptanceRule("phaseflip"), phaseflip_plan(m))]
    if m < 10:
        runs.append((AcceptanceRule("general"), {q: rng.randrange(size) for q in range(size) if rng.random() < 0.7}))
    members = []
    for k, (zp, zs) in enumerate(itertools.product((0, top), repeat=2)):
        for a in (1.0, 0.3, 1e-3)[k % 3 : k % 3 + 1] if m >= 10 else (1.0, 0.3, 1e-3):
            e, f = rng.randrange(top), rng.randrange(top)
            terms = {(p, s): -a if (p & zp ^ s & zs).bit_count() & 1 else a for p in (e, e ^ full) for s in (f, f ^ full)}
            members.append(PureState._derived(m, (POL, SPATIAL), terms))
    compared = 0
    for rule, plan in runs:
        dense = dense_split(m, rule, plan, gate)
        for member in members:
            assert protocol._ghz_frame(member) is not None
            framed = by_port(_hadamard_split(m, rule, plan, gate)(member))
            assert_same_text(repr(framed), repr(by_port(dense(member))))
            compared += bool(framed)
    assert compared >= 2


def test_frame_trace_that_prunes_every_port_accepts_nothing():
    """At m = 48 the frame trace's V is at or below PRUNE_TOL: every group carries probability 0 and _execute drops it.

    Below m = 48 the trace adds 2^(m-1) squares, far too many to run here.
    """
    with pytest.raises(ValueError, match="no accepted port pattern carries probability"):
        protocol._execute(phaseflip_input(48, 0.8, 0.7), AcceptanceRule("bitflip"), {}, None, True, None)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_frame_trace_matches_walsh_bit_for_bit(data):
    """Each factor of the frame trace is walsh_hadamard's on the registers it stands for, and the trace is R0's dense step.

    With P^k = protocol._scaled and top = 2^(m-1): a on registers 0 and
    2^m - 1 leaves one layer as 2 P^m(a) on every even register and 0 on
    every odd one; w on the registers of one parity t closes to
    top P^m(w) on register 0, (-1)^t top P^m(w) on 2^m - 1 and 0
    elsewhere. R0 at amplitude a (all four terms a) through dense_split
    under accept-all with an empty plan gives every port it reaches the
    trace's probability and the state v |0> + (-1)^m v |2^m - 1>, or no
    port where the trace is (0, 0). The magnitudes include both signs and
    values whose layer or V falls within a few percent of PRUNE_TOL.
    """
    m = data.draw(st.integers(2, 7), label="m")
    size, top = 1 << m, 1 << (m - 1)
    near = data.draw(st.sampled_from([2.0 ** (m / 2 - 1), 2.0 ** (m - 2)]), label="layer or V at the prune bound")
    a = data.draw(st.one_of(
        st.sampled_from([0.5, 2.0**-0.5, 1.0, 0.3, 1e-3]),
        st.floats(0.97, 1.03).map(lambda k: k * near * PRUNE_TOL),
        st.floats(1e-6, 10.0),
    ), label="a") * data.draw(st.sampled_from([1.0, -1.0]), label="sign")
    even = np.array([not q.bit_count() & 1 for q in range(size)])
    layer = np.zeros(size)
    layer[0] = layer[-1] = a
    walsh_hadamard(layer, m)
    pol = 2.0 * protocol._scaled(a, m)
    assert layer.tobytes() == np.where(even, pol if abs(pol) > PRUNE_TOL else 0.0, 0.0).tobytes()
    w, t = data.draw(st.floats(1e-3, 1.0), label="w"), data.draw(st.integers(0, 1), label="t")
    closing = np.where(even ^ bool(t), w, 0.0)
    walsh_hadamard(closing, m)
    want = np.zeros(size)
    want[0], want[-1] = top * protocol._scaled(w, m), (-1) ** t * top * protocol._scaled(w, m)
    assert closing.tobytes() == want.tobytes()

    full = size - 1
    r0 = PureState._derived(m, (POL, SPATIAL), {(p, s): a for p in (0, full) for s in (0, full)})
    prob, v = protocol._frame_column(m, a)
    got = by_port(dense_split(m, AcceptanceRule("general"), {}, gate_masks(GATE_TABLE, m))(r0))
    assert len(got) == (top if prob else 0)
    for p, state in got.values():
        assert p == prob and state.terms == {(0,): complex(v), (full,): complex((-1) ** m * v)}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_frame_step_matches_the_dense_step_on_every_gate_table(m):
    """On each of the 24 bijections of (pol, spatial), the frame step prints the repr of the dense step.

    The gate and the faulted table read the parity t0 of the reference
    column with c2 & pol_q (or c2 & sp_q) = 0; six of the other tables
    have it 2^m - 1, so t0 depends on c2 at odd m. Members are every sign
    pair at random indices and a magnitude of either sign, under the
    phase-flip rule and plan and under accept-all with random flip masks.
    """
    rng, size = random.Random(400 + m), 1 << m
    full, top = size - 1, size >> 1
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    compared = 0
    for outputs in itertools.permutations(pairs):
        gate = gate_masks(dict(zip(pairs, outputs)), m)
        runs = [(AcceptanceRule("phaseflip"), phaseflip_plan(m)),
                (AcceptanceRule("general"), {q: rng.randrange(size) for q in range(size)})]
        for rule, plan in runs:
            dense = dense_split(m, rule, plan, gate)
            for zp, zs in itertools.product((0, top), repeat=2):
                e, f, a = rng.randrange(top), rng.randrange(top), rng.choice((0.5, -0.3))
                terms = {(p, s): -a if (p & zp ^ s & zs).bit_count() & 1 else a for p in (e, e ^ full) for s in (f, f ^ full)}
                member = PureState._derived(m, (POL, SPATIAL), terms)
                framed = by_port(_hadamard_split(m, rule, plan, gate)(member))
                assert_same_text(repr(framed), repr(by_port(dense(member))))
                compared += bool(framed)
    assert compared >= 24 * 4


def test_sparse_step_matches_the_dense_step_within_tolerance():
    """The off-frame step gives the ports, term supports and register order of the dense step, each figure within 1e-12.

    600 random members of 1 to 12 terms, real and complex, at m = 2..7, on
    all 24 bijections of (pol, spatial) in turn, under the phase-flip rule
    and plan or under accept-all with a random plan, run through
    _sparse_split and through tests/helpers.py's dense_split. The two sum
    the same terms in other orders, so their last bits may differ.
    """
    rng, pairs = random.Random(34), [(0, 0), (0, 1), (1, 0), (1, 1)]
    tables = [dict(zip(pairs, outputs)) for outputs in itertools.permutations(pairs)]
    compared = 0
    for k in range(600):
        m = rng.randrange(2, 8)
        size, gate = 1 << m, gate_masks(tables[k % 24], m)
        if rng.random() < 0.5:
            rule, plan = AcceptanceRule("phaseflip"), phaseflip_plan(m)
        else:
            rule, plan = AcceptanceRule("general"), {q: rng.randrange(size) for q in range(size) if rng.random() < 0.7}
        imag = rng.random() < 0.5
        terms = {}
        for _ in range(rng.randint(1, 12)):
            terms[(rng.randrange(size), rng.randrange(size))] = complex(rng.gauss(0, 1), rng.gauss(0, 1) if imag else 0.0)
        norm = math.sqrt(math.fsum(abs(a) ** 2 for a in terms.values()))
        member = make_state(m, (POL, SPATIAL), [(lab, a / norm) for lab, a in terms.items()])
        sparse = by_port(_sparse_split(m, rule, plan, gate)(member))
        dense = by_port(dense_split(m, rule, plan, gate)(member))
        assert sparse.keys() == dense.keys()
        for port, (probability, state) in sparse.items():
            want_probability, want = dense[port]
            assert abs(probability - want_probability) <= 1e-12
            assert list(state.terms) == list(want.terms)
            assert all(abs(a - want.terms[label]) <= 1e-12 for label, a in state.terms.items())
            compared += 1
    assert compared > 10_000


def counting_products(monkeypatch):
    """Install a tensor_hyper in noise that records every product member it builds; returns that list."""
    original, built = noise.tensor_hyper, []

    def counted(pol, spatial):
        built.append((pol, spatial))
        return original(pol, spatial)

    monkeypatch.setattr(noise, "tensor_hyper", counted)
    return built


def test_member_cap_config_builds_only_its_accepted_members(monkeypatch):
    """The largest admitted general config, 401^2 product members at m = 16, builds the 401 that its rule accepts.

    Under the unanimous rule GHZ(e) x GHZ(f) reaches ports e ^ f and its
    complement, so only the pairs with e = f are accepted; the run matches
    the closed form. The traced peak was 133 MB when every member was built.
    """
    entries = [{"kind": "bit-flip", "target_index": i, "weight": 1e-3} for i in range(1, 401)]
    config = ProtocolConfig.from_dict({"m": 16, "mode": "general", "pol_noise": entries, "spatial_noise": entries})
    assert (len(entries) + 1) ** 2 == MAX_MEMBERS
    built = counting_products(monkeypatch)
    tracemalloc.start()
    try:
        _, _, deviation = cli.execute(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(built) == 401 and all(pol.terms.keys() == spatial.terms.keys() for pol, spatial in built)
    assert max(deviation.values()) <= 1e-12
    assert peak < 16 * 2**20


def test_product_builds_every_pair_where_a_run_cannot_skip_one(monkeypatch):
    """A run on a product builds every member under accept-all and past a factor member off the GHZ frame.

    A factor member is off the frame where it is not a real two-term GHZ
    state: amplitudes of two magnitudes, a complex one, one term or four.

    Each run prints what a run on an Ensemble of the same members prints,
    and so does a run on a product whose members were read before it.
    The general verify input at m = 4 has 4 components per degree of
    freedom: its unanimous run builds the 4 pairs with equal indices.
    """
    built = counting_products(monkeypatch)
    mode, accept_all = MODES["general"], AcceptanceRule("general")

    def same_as_members(run, factors):
        got = repr(run(product_ensemble(*factors)))
        assert got == repr(run(Ensemble(product_ensemble(*factors).members)))

    four = mode.verify_input(4, 0.8, 0.7)
    same_as_members(mode.run, four.factors)
    assert len(built) == 4 + 16
    built.clear()
    same_as_members(lambda ensemble: protocol._execute(ensemble, accept_all, {}, None, False, None), four.factors)
    assert len(built) == 16 + 16
    built.clear()
    read = product_ensemble(*four.factors)
    assert len(read.members) == 16
    assert repr(mode.run(read)) == repr(mode.run(Ensemble(read.members)))
    built.clear()
    # a pol member whose two amplitudes differ in magnitude, a complex one, one of one term and one of four: every
    # pair is taken; GHZ(1, -) written complement first is read as GHZ(1, -), and its pairs are filtered
    pol, spatial = four.factors
    c = 0.5**0.5
    reversed_minus = PureState(4, (POL,), {(14,): -c, (1,): c})
    assert protocol._ghz_factor(reversed_minus) == (1, -1)
    factors_built = [
        (PureState(4, (POL,), {(1,): 0.6, (14,): 0.8}), {}),
        (PureState(4, (POL,), {(1,): c, (14,): c * 1j}), {}),
        (PureState(4, (POL,), {(2,): 1.0}), {}),
        (PureState(4, (POL,), {(0,): 0.5, (3,): 0.5, (12,): -0.5, (15,): 0.5}), {}),
        (reversed_minus, {"bitflip": 4, "phaseflip": 12, "general": 4}),
    ]
    for off, live in factors_built:
        factors = (Ensemble(pol.members[:3] + ((pol.members[3][0], off),)), spatial)
        for name in ("bitflip", "phaseflip", "general"):
            same_as_members(MODES[name].run, factors)
            assert len(built) == live.get(name, 16) + 16
            built.clear()
