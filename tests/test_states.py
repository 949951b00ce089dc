import itertools
import math

import numpy as np
import pytest

from ghzpurify import (
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
    states_close,
    tensor_hyper,
)
from helpers import brute_vector, interleave_factors, pack, pol_state_from_string, unpack

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


def test_tensor_hyper_mismatched_m():
    with pytest.raises(ValueError, match="photon counts"):
        tensor_hyper(make_ghz_pol(3, 0), make_ghz_spatial(4, 0))


def test_fidelity_identity_and_orthogonal_mixture():
    target = make_ghz_pol(3, 0)
    assert fidelity(Ensemble.pure(target), target) == pytest.approx(1.0)
    mixed = Ensemble(((0.8, make_ghz_pol(3, 0)), (0.2, make_ghz_pol(3, 1))))
    assert fidelity(mixed, target) == pytest.approx(0.8, abs=1e-15)


def test_fidelity_partial_overlap():
    # <target|state> = 1/2 by direct expansion, so fidelity is 1/4
    state = pol_state_from_string({"HHH": INV_SQRT2, "VVH": INV_SQRT2})
    assert fidelity(Ensemble.pure(state), make_ghz_pol(3, 0)) == pytest.approx(0.25, abs=1e-15)


def test_fidelity_stage_mismatch():
    joint = tensor_hyper(make_ghz_pol(3, 0), make_ghz_spatial(3, 0))
    with pytest.raises(ValueError, match="different labels"):
        fidelity(Ensemble.pure(joint), make_ghz_pol(3, 0))


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
            assert fidelity(Ensemble.pure(flipped), state) == pytest.approx(1.0)


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


def test_malformed_labels_rejected():
    for label in ((0, 0), (4,), (-1,), (1.0,), ((0, 0),), ((0,), (0,))):
        with pytest.raises(ValueError, match="malformed label"):
            PureState(2, (POL,), {label: 1.0})
    with pytest.raises(ValueError):
        PureState(2, ("pol", "port", "spatial"), {})


def test_ensemble_validation():
    s = make_ghz_pol(3, 0)
    with pytest.raises(ValueError, match="sum"):
        Ensemble(((0.5, s),))
    with pytest.raises(ValueError, match="positive"):
        Ensemble(((1.2, s), (-0.2, make_ghz_pol(3, 1))))
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
