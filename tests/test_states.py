import itertools
import math
import random

import numpy as np
import pytest

from ghzpurify.noise import product_ensemble
from ghzpurify.states import (
    POL,
    SPATIAL,
    Ensemble,
    PureState,
    bits,
    fidelity,
    make_ghz_pol,
    make_ghz_spatial,
    make_state,
    overlap,
    tensor_hyper,
)
from helpers import brute_vector, interleave_factors, pack, pol_state_from_string, states_close, unpack

INV_SQRT2 = 1 / math.sqrt(2)


def pol_label(ket):
    return pack([({"H": 0, "V": 1}[c],) for c in ket])


def spatial_label(ket):
    return pack([(int(c) - 1,) for c in ket])


def test_ghz_pol_reference_and_flipped():
    s = make_ghz_pol(3, 0, +1)
    assert s.terms == pytest.approx(
        {pol_label("HHH"): INV_SQRT2, pol_label("VVV"): INV_SQRT2}
    )
    s1 = make_ghz_pol(3, 1, +1)
    assert s1.terms == pytest.approx(
        {pol_label("HHV"): INV_SQRT2, pol_label("VVH"): INV_SQRT2}
    )


def test_ghz_two_photon_minus():
    s = make_ghz_pol(2, 0, -1)
    assert s.terms == pytest.approx(
        {pol_label("HH"): INV_SQRT2, pol_label("VV"): -INV_SQRT2}
    )


def test_ghz_spatial_examples():
    s = make_ghz_spatial(3, 0, +1)
    assert s.terms == pytest.approx(
        {spatial_label("111"): INV_SQRT2, spatial_label("222"): INV_SQRT2}
    )
    s2 = make_ghz_spatial(3, 2, +1)
    assert s2.terms == pytest.approx(
        {spatial_label("121"): INV_SQRT2, spatial_label("212"): INV_SQRT2}
    )
    s4 = make_ghz_spatial(4, 0, +1)
    assert s4.terms == pytest.approx(
        {spatial_label("1111"): INV_SQRT2, spatial_label("2222"): INV_SQRT2}
    )


def test_ghz_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        make_ghz_pol(3, 4)
    with pytest.raises(ValueError, match="out of range"):
        make_ghz_pol(3, -1)
    with pytest.raises(ValueError):
        make_ghz_pol(1, 0)
    with pytest.raises(ValueError, match="sign"):
        make_ghz_pol(3, 0, 2)


def test_bits_match_the_shift_definition():
    """bits reads a byte table; it spells out every register as the photon-by-photon shifts do."""

    def shifted(m, register):
        return tuple((register >> (m - 1 - k)) & 1 for k in range(m))

    for m in range(1, 13):
        assert all(bits(m, r) == shifted(m, r) for r in range(1 << m))
    rng = random.Random(5)
    for m in (13, 16, 17, 64, 1000):
        for r in [0, (1 << m) - 1, 1 << (m - 1), *(rng.getrandbits(m) for _ in range(200))]:
            assert bits(m, r) == shifted(m, r)


def test_bits_indexing():
    assert bits(3, 0) == (0, 0, 0)
    assert bits(3, 1) == (0, 0, 1)  # last photon
    assert bits(3, 2) == (0, 1, 0)
    assert bits(3, 3) == (0, 1, 1)
    assert bits(3, 3 ^ 0b111) == (1, 0, 0)  # the complement is an XOR with all photons
    # a GHZ index is the register of its first ket
    assert list(make_ghz_pol(3, 3).terms) == [(3,), (4,)]
    assert all(unpack(4, (r,)) == tuple((b,) for b in bits(4, r)) for r in range(16))


def test_tensor_hyper_reference_product():
    joint = tensor_hyper(make_ghz_pol(3, 0), make_ghz_spatial(3, 0))
    assert len(joint.terms) == 4
    all_h_rail1 = pack([(0, 0)] * 3)
    assert joint.terms[all_h_rail1] == pytest.approx(0.5)


def test_tensor_hyper_single_terms():
    pol = PureState(2, (POL,), {pol_label("HV"): 1.0})
    spatial = PureState(2, (SPATIAL,), {spatial_label("21"): 1.0})
    joint = tensor_hyper(pol, spatial)
    assert joint.terms == pytest.approx({pack([(0, 1), (1, 0)]): 1.0})


def test_tensor_hyper_matches_dense_tensor():
    # independent check: amplitudes of the joint state equal the dense
    # tensor product of the factor vectors, photon-interleaved
    pol = make_ghz_pol(3, 0)
    spatial = make_ghz_spatial(3, 1)
    joint = tensor_hyper(pol, spatial)
    expected = interleave_factors(brute_vector(pol), brute_vector(spatial), 3)
    assert np.allclose(brute_vector(joint), expected, atol=1e-14)
    mixed_rail = pack(tuple(zip((0, 0, 0), (0, 0, 1))))
    assert joint.terms[mixed_rail] == pytest.approx(0.5)


def test_tensor_hyper_accepts_product_of_checked_factors():
    # each factor passes the norm check; their product misses 1 by about twice as much
    amp = math.sqrt((1 - 9e-13) / 2)
    pol = PureState(3, (POL,), {(0,): amp, (7,): amp})
    spatial = PureState(3, (SPATIAL,), {(0,): amp, (7,): amp})
    joint = tensor_hyper(pol, spatial)
    assert abs(math.fsum(abs(a) ** 2 for a in joint.terms.values()) - 1.0) > 1e-12
    assert joint.terms == pytest.approx({(0, 0): amp**2, (0, 7): amp**2, (7, 0): amp**2, (7, 7): amp**2})
    (weight, member), = product_ensemble(Ensemble(((1.0, pol),)), Ensemble(((1.0, spatial),))).members
    assert (weight, member) == (1.0, joint)


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_tensor_hyper_labels_stay_below_two_to_the_m(m):
    """Every label of a product pairs two m-bit registers: nothing downstream checks them, and the frame step masks them."""
    rng = random.Random(m)
    top = 2 ** (m - 1)
    factors = [(make_ghz_pol(m, e, s), make_ghz_spatial(m, f, t))
               for e, f, s, t in [(0, 0, 1, 1), (top - 1, top - 1, -1, -1)]
               + [(rng.randrange(top), rng.randrange(top), rng.choice((1, -1)), rng.choice((1, -1))) for _ in range(4)]]
    factors.append((PureState(m, (POL,), {(2**m - 1,): 1.0}), PureState(m, (SPATIAL,), {(0,): 0.6, (1,): 0.8})))
    for pol, spatial in factors:
        joint = tensor_hyper(pol, spatial)
        assert joint.terms
        assert all(0 <= p < 2**m and 0 <= s < 2**m for p, s in joint.terms)
        assert {p for p, _ in joint.terms} == {p for (p,) in pol.terms}
        assert {s for _, s in joint.terms} == {s for (s,) in spatial.terms}


def test_tensor_hyper_mismatched_m():
    with pytest.raises(ValueError, match="photon counts"):
        tensor_hyper(make_ghz_pol(3, 0), make_ghz_spatial(4, 0))


def test_fidelity_identity_and_orthogonal_mixture():
    target = make_ghz_pol(3, 0)
    assert fidelity(Ensemble(((1.0, target),)), target) == pytest.approx(1.0)
    mixed = Ensemble(((0.8, make_ghz_pol(3, 0)), (0.2, make_ghz_pol(3, 1))))
    assert fidelity(mixed, target) == pytest.approx(0.8, abs=1e-15)


def test_fidelity_partial_overlap():
    # <target|state> = 1/2 by direct expansion, so fidelity is 1/4
    state = pol_state_from_string({"HHH": INV_SQRT2, "VVH": INV_SQRT2})
    assert fidelity(Ensemble(((1.0, state),)), make_ghz_pol(3, 0)) == pytest.approx(0.25, abs=1e-15)


def test_fidelity_stage_mismatch():
    joint = tensor_hyper(make_ghz_pol(3, 0), make_ghz_spatial(3, 0))
    with pytest.raises(ValueError, match="different labels"):
        fidelity(Ensemble(((1.0, joint),)), make_ghz_pol(3, 0))


def test_ghz_family_orthonormal():
    for m in (2, 3, 4):
        family = [
            make_ghz_pol(m, i, s)
            for i in range(2 ** (m - 1))
            for s in (+1, -1)
        ]
        for a, b in itertools.product(family, repeat=2):
            expected = 1.0 if a is b else 0.0
            assert abs(overlap(a, b) - expected) < 1e-12


def test_overlap_sums_left_to_right():
    """<a|b> adds its terms in a's order with no compensation: 1/2 + 1e-18 rounds to 1/2, so the 1e-18 is lost.

    A compensated sum, as the builtin sum of floats is from Python 3.12 on,
    would keep it.
    """
    r = 2**-0.5
    a = PureState(2, (POL,), {(0,): r, (1,): 1e-9, (2,): r})
    b = PureState(2, (POL,), {(0,): r, (1,): 1e-9, (2,): -r})
    assert r * r + 1e-18 == r * r
    got = overlap(a, b)
    assert (got.real, got.imag) == (0.0, 0.0) and math.copysign(1.0, got.real) == 1.0


def test_complement_symmetry():
    for i in range(4):
        for sign in (+1, -1):
            state = make_ghz_pol(3, i, sign)
            flipped = PureState(
                3,
                (POL,),
                {
                    pack([(1 - b,) for (b,) in unpack(3, label)]): amp
                    for label, amp in state.terms.items()
                },
            )
            if sign == +1:
                assert states_close(state, flipped)
            else:
                assert states_close(state, flipped, global_phase=True)
                assert not states_close(state, flipped)
            assert fidelity(Ensemble(((1.0, flipped),)), state) == pytest.approx(1.0)


def test_tensor_marginals_reproduce_factors():
    pol = make_ghz_pol(3, 2)
    spatial = make_ghz_spatial(3, 1, -1)
    joint = tensor_hyper(pol, spatial)
    pol_marg, spatial_marg = {}, {}
    for label, amp in joint.terms.items():
        pk, sk = label[:1], label[1:]
        pol_marg[pk] = pol_marg.get(pk, 0.0) + abs(amp) ** 2
        spatial_marg[sk] = spatial_marg.get(sk, 0.0) + abs(amp) ** 2
    for label, amp in pol.terms.items():
        assert pol_marg[label] == pytest.approx(abs(amp) ** 2, abs=1e-14)
    for label, amp in spatial.terms.items():
        assert spatial_marg[label] == pytest.approx(abs(amp) ** 2, abs=1e-14)


def test_duplicate_labels_merge_and_cancel():
    a = pol_label("HH")
    b = pol_label("VV")
    c = pol_label("HV")
    state = make_state(
        2, (POL,), [(a, INV_SQRT2), (b, INV_SQRT2), (c, 0.3), (c, -0.3)]
    )
    assert set(state.terms) == {a, b}


def test_unnormalized_state_rejected():
    with pytest.raises(ValueError, match="not normalized"):
        PureState(2, (POL,), {pol_label("HH"): 1.0, pol_label("VV"): 0.5})
    for amp in (math.nan, complex(math.nan, 0.0), complex(1.0, math.nan)):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(2, (POL,), {(0,): amp})


def test_malformed_labels_rejected():
    for label in ((0, 0), (4,), (-1,), (1.0,), (True,), ((0, 0),), ((0,), (0,))):
        with pytest.raises(ValueError, match="malformed label"):
            PureState(2, (POL,), {label: 1.0})
    with pytest.raises(ValueError, match="cannot coexist"):
        PureState(2, ("pol", "port", "spatial"), {})
    with pytest.raises(ValueError, match="photon count must be >= 2, got 1"):
        PureState(1, (POL,), {(0,): 1.0})
    for dofs in (("pol", "colour"), ()):
        with pytest.raises(ValueError, match="unknown degrees of freedom"):
            PureState(2, dofs, {(0, 0): 1.0})
    with pytest.raises(ValueError, match="cannot coexist"):
        PureState(2, (SPATIAL, "port"), {(0, 0): 1.0})
    # a label is checked before any amplitude: the norm message never hides it
    with pytest.raises(ValueError, match="malformed label"):
        PureState(2, (POL,), {(0,): 0.5, (4,): 0.5})


def test_ensemble_validation():
    s = make_ghz_pol(3, 0)
    with pytest.raises(ValueError, match="sum"):
        Ensemble(((0.5, s),))
    with pytest.raises(ValueError, match="positive"):
        Ensemble(((1.2, s), (-0.2, make_ghz_pol(3, 1))))
    with pytest.raises(ValueError, match="positive"):
        Ensemble(((math.nan, s),))
    with pytest.raises(ValueError, match="positive"):
        Ensemble(((0.5, s), (math.nan, make_ghz_pol(3, 1)), (0.5, make_ghz_pol(3, 2))))
    with pytest.raises(ValueError, match="disagree"):
        Ensemble(((0.5, s), (0.5, make_ghz_pol(4, 0))))
    with pytest.raises(ValueError, match="no members"):
        Ensemble(())


def test_ensemble_sum_check_holds_for_many_members():
    # a general config with 400 components per degree of freedom: added
    # naively, these 401 x 401 product weights sum to 1 + 8.3e-12
    weights = [0.5] + [0.5 / 400] * 400
    s = make_ghz_pol(3, 0)
    ensemble = Ensemble(tuple((a * b, s) for a in weights for b in weights))
    assert len(ensemble.members) == 401**2
