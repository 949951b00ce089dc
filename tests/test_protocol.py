import math
import random

import numpy as np
import pytest

from ghzpurify import protocol
from ghzpurify.noise import mix_general, mix_two, product_ensemble
from ghzpurify.optics import (
    GATE_TABLE,
    apply_network,
    bit_flip_pol,
    hadamard_pol,
    hadamard_spatial,
    walsh_hadamard,
)
from ghzpurify.protocol import (
    MODES,
    AcceptanceRule,
    _dense_split,
    closed_form_general,
    infer_flip_plan,
    phaseflip_plan,
    run_bitflip,
    run_general,
    run_phaseflip,
)
from ghzpurify.states import (
    POL,
    SPATIAL,
    Ensemble,
    PureState,
    bits,
    make_ghz_pol,
    make_ghz_spatial,
    make_state,
    tensor_hyper,
)
from helpers import assert_same_text, pair_closed_form, route, walsh_pair_reference


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
def test_dense_step_real_and_complex_members_agree_bit_for_bit(m, monkeypatch):
    """A real member runs on float64 arrays, the same member times 1j on complex128 ones.

    Both give the same port probabilities, the second's amplitudes are exactly
    1j times the first's, and every emitted amplitude is a Python complex.
    A member whose spatial registers are one complementary pair takes its
    spatial layer in closed form (optics.pair_hadamard), whatever its pol
    registers; with walsh_hadamard on the embedded arrays in its place, every
    member and its turned twin give the same bits, signed zeros included, and
    the closed form was called once per such member.
    """
    step = _dense_split(m, AcceptanceRule("phaseflip"), phaseflip_plan(m), GATE_TABLE)
    rng = random.Random(m)
    members = [*ghz_products(m, rng), random_pair_member(m, rng), *off_pair_members(m, rng), random_real_member(m, rng)]
    members += [PureState(m, member.dofs, {lab: 1j * a for lab, a in member.terms.items()}) for member in members]
    for member, turned in zip(members[: len(members) // 2], members[len(members) // 2 :]):
        real, cplx = step(member), step(turned)
        assert real.keys() == cplx.keys()
        for port, (probability, state) in real.items():
            other_probability, rotated = cplx[port]
            assert other_probability == probability
            assert state.terms.keys() == rotated.terms.keys()
            for label, amp in state.terms.items():
                assert type(amp) is complex and type(rotated.terms[label]) is complex
                assert rotated.terms[label] == 1j * amp

    def spelled_out(member):  # repr tells signed zeros apart
        return repr(sorted((port, p, sorted(state.terms.items())) for port, (p, state) in step(member).items()))

    def butterfly(*args):
        layers.append(args)
        return walsh_pair_reference(*args)

    fast, layers = [spelled_out(member) for member in members], []
    monkeypatch.setattr(protocol, "pair_hadamard", butterfly)
    assert [spelled_out(member) for member in members] == fast
    # one spatial layer per member but the single-register one, the random one and their twins
    assert len(layers) == len(members) - 4


@pytest.mark.parametrize("m", [6, 7, 8, 9])
def test_dense_port_probability_is_a_sequential_sum(m):
    """Every port probability of the dense step is a left-to-right sum of |amp|**2 in register order.

    The reference amplitudes come from walsh_hadamard on both registers and
    check_table's masks on index grids, and the reference adds their squares one by one
    in Python; members on one register pair per degree of freedom (GHZ x GHZ
    products at nonzero indices with both signs, and a random pair member)
    take the closed-form spatial layer in the step and are held to it too,
    as are a spatial-pair member whose pol registers are not one pair and a
    member on a single spatial register. At these
    sizes numpy's pairwise np.sum along a contiguous axis gives other bits
    on some port of the random members, which the test checks too.
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
    step = _dense_split(m, AcceptanceRule("phaseflip"), phaseflip_plan(m), GATE_TABLE)
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
        got = step(member)
        pairwise_differs = False
        for p in range(size):
            if bin(p).count("1") % 2:
                assert p not in got
                continue
            total = 0.0
            for sq in squares[p].tolist():
                total += sq
            assert got[p][0] == total if p in got else total == 0.0
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
    three error components.
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
        assert result.success_probability == math.fsum(w for entries in expected.values() for w, _ in entries)
        assert set(result.accepted) == set(expected)
        for pattern, entries in expected.items():
            outcome = result.accepted[pattern]
            total = math.fsum(w for w, _ in entries)
            assert outcome.probability == total
            members = [(w, dict(s.terms)) for w, s in outcome.ensemble.members]
            assert members == [(w / total, dict(s.terms)) for w, s in entries]


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


def counting_dense_steps(monkeypatch):
    """Install a _dense_split whose steps record every member they run on; returns that list."""
    factory, stepped = protocol._dense_split, []

    def counted(*args):
        step = factory(*args)

        def split(member):
            stepped.append(member)
            return step(member)

        return split

    monkeypatch.setattr(protocol, "_dense_split", counted)
    return stepped


@pytest.mark.parametrize("table", [GATE_TABLE, FAULTED_TABLE], ids=["gate", "faulted"])
@pytest.mark.parametrize("m", range(2, 11))
def test_relabelled_members_match_their_dense_steps(m, table, monkeypatch):
    """A phase-flip run that relabels GHZ x GHZ members prints the repr of one that runs each member's dense step.

    The repr spells out every accepted port's probability and every
    amplitude of its conditional states, signed zeros and -0j included, so
    a wrong port shift, output shift or sign of the relabelling shows even
    where no fidelity moves. A non-GHZ target makes X on every output
    photon move the fidelity too.
    """
    rng = random.Random(100 + m)
    stepped, relabelled = counting_dense_steps(monkeypatch), 0
    for _ in range(2 if m >= 9 else 4):
        ensemble = ghz_product_ensemble(m, rng)
        target = make_state(m, (POL,), [((rng.randrange(1 << m),), 1.0)]) if rng.random() < 0.5 else None
        stepped.clear()
        framed = phaseflip_repr(ensemble, table, target)
        relabelled += len(ensemble.members) - len(stepped)
        with monkeypatch.context() as refuse:
            refuse.setattr(protocol, "_ghz_frame", lambda member: None)
            stepped.clear()
            assert_same_text(phaseflip_repr(ensemble, table, target), framed)
            assert len(stepped) == len(ensemble.members)
    assert relabelled > 0


def test_dense_step_runs_once_per_group(monkeypatch):
    """The benchmark's pair input runs 2 dense steps for its 4 members; a member off the frame always takes its own.

    The pair input holds GHZ(0) x GHZ(0) in all four sign pairs. The port
    shift is the XOR of the two sign masks, so (+,+) and (-,-) form one
    group and (+,-) and (-,+) another, which is rejected whole.
    """
    stepped = counting_dense_steps(monkeypatch)
    ensemble = phaseflip_input(8, 0.8, 0.7)
    MODES["phaseflip"].run(ensemble)
    members = [s for _, s in ensemble.members]
    assert len(members) == 4 and len(stepped) == 2 and all(a is b for a, b in zip(stepped, members))

    m, full = 4, 15
    reference = tensor_hyper(make_ghz_pol(m, 0), make_ghz_spatial(m, 0))
    # the same signs on another magnitude: make_ghz_* use 1 / sqrt(2), this factor 2**-0.5, one ulp above
    scaled = tensor_hyper(PureState(m, (POL,), {(0,): 2**-0.5, (full,): 2**-0.5}), make_ghz_spatial(m, 0))
    assert scaled.terms[(0, 0)] != reference.terms[(0, 0)]
    turned = PureState(m, reference.dofs, {lab: 1j * a for lab, a in reference.terms.items()})
    # +-a on the product support, with signs no product of two GHZ states has
    crossed = PureState(m, reference.dofs, {lab: -a if lab == (full, full) else a for lab, a in reference.terms.items()})
    off_product = random_pair_member(m, random.Random(1))
    members = [reference, scaled, turned, crossed, off_product, reference, scaled]
    ensemble = Ensemble(tuple((1 / len(members), s) for s in members))
    stepped.clear()
    framed = phaseflip_repr(ensemble, GATE_TABLE)
    # the repeated reference and the repeated scaled member are relabelled, each from its first
    assert len(stepped) == 5 and all(a is b for a, b in zip(stepped, members))
    monkeypatch.setattr(protocol, "_ghz_frame", lambda member: None)
    assert_same_text(phaseflip_repr(ensemble, GATE_TABLE), framed)
