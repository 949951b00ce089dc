import math

import numpy as np
import pytest

from ghzpurify.noise import (
    BIT_FLIP,
    PHASE_FLIP,
    NoiseSpec,
    ensemble_from_specs,
    ghz_weights,
    mix_general,
    mix_two,
    product_ensemble,
)
from ghzpurify.oracle import density_on_support
from ghzpurify.states import (
    NORM_TOL,
    POL,
    PORT,
    PRUNE_TOL,
    SPATIAL,
    Ensemble,
    PureState,
    fidelity,
    make_ghz_pol,
    make_ghz_spatial,
    tensor_hyper,
)
from helpers import brute_density, brute_vector, interleave_factors


def test_mix_two_weights():
    ens = mix_two(make_ghz_pol(3, 0), make_ghz_pol(3, 1), 0.8)
    probs = sorted(p for p, _ in ens.members)
    assert probs == pytest.approx([0.2, 0.8])


def test_mix_two_degenerate_collapses():
    ens = mix_two(make_ghz_spatial(3, 0), make_ghz_spatial(3, 1), 1.0)
    assert len(ens.members) == 1
    assert ens.members[0][0] == 1.0


def test_mix_two_sign_pair():
    ens = mix_two(make_ghz_pol(3, 0, +1), make_ghz_pol(3, 0, -1), 0.6)
    assert sorted(p for p, _ in ens.members) == pytest.approx([0.4, 0.6])


def test_mix_two_nonorthogonal_warns():
    tilted = make_ghz_pol(3, 0, +1)
    with pytest.warns(UserWarning, match="non-orthogonal"):
        mix_two(tilted, tilted, 0.5)


def test_mix_general_four_terms():
    states = [make_ghz_pol(3, i) for i in range(4)]
    ens = mix_general(states, [0.7, 0.1, 0.1, 0.1])
    assert len(ens.members) == 4
    uniform = mix_general([make_ghz_spatial(3, i) for i in range(4)], [0.25] * 4)
    assert all(p == 0.25 for p, _ in uniform.members)
    pure = mix_general([make_ghz_pol(3, 0)], [1.0])
    assert len(pure.members) == 1


def test_mix_general_weight_sum_violation():
    with pytest.raises(ValueError, match="sum"):
        mix_general([make_ghz_pol(3, 0), make_ghz_pol(3, 1)], [0.7, 0.2])
    # a NaN weight makes the sum NaN; it must not pass and then drop out of the mixture
    with pytest.raises(ValueError, match="sum"):
        mix_general([make_ghz_pol(3, i) for i in range(3)], [0.5, math.nan, 0.5])


def test_product_ensemble_weights():
    pol = mix_two(make_ghz_pol(3, 0), make_ghz_pol(3, 1), 0.8)
    spatial = mix_two(make_ghz_spatial(3, 0), make_ghz_spatial(3, 1), 0.7)
    joint = product_ensemble(pol, spatial)
    assert len(joint.members) == len(pol.members) * len(spatial.members)
    assert sorted(p for p, _ in joint.members) == pytest.approx([0.06, 0.14, 0.24, 0.56])
    assert sum(p for p, _ in joint.members) == pytest.approx(1.0, abs=1e-15)


def test_product_ensemble_matches_dense_tensor():
    # independent check: the joint mixture's operator equals the interleaved
    # tensor product of the factor density matrices, and density_on_support gives its block on the terms
    pol = mix_two(make_ghz_pol(3, 0), make_ghz_pol(3, 1), 0.8)
    spatial = mix_two(make_ghz_spatial(3, 0), make_ghz_spatial(3, 1), 0.7)
    joint = product_ensemble(pol, spatial)
    expected = np.zeros((4**3, 4**3), dtype=complex)
    for pw, ps in pol.members:
        for sw, ss in spatial.members:
            vec = interleave_factors(brute_vector(ps), brute_vector(ss), 3)
            expected += pw * sw * np.outer(vec, vec.conj())
    assert np.allclose(brute_density(joint), expected, atol=1e-14)
    joint_rho, support = density_on_support(joint)
    assert joint_rho.dtype == np.float64  # every amplitude is real
    assert np.allclose(joint_rho, expected[np.ix_(support, support)], atol=1e-14)


def test_product_pure_times_pure():
    joint = product_ensemble(
        Ensemble(((1.0, make_ghz_pol(3, 0)),)), Ensemble(((1.0, make_ghz_spatial(3, 0)),))
    )
    assert len(joint.members) == 1
    assert joint.members[0][0] == pytest.approx(1.0)


def test_product_ensemble_accepts_product_of_checked_mixtures():
    # each mixture passes the weight check; the product's weights miss 1 by about twice as much
    pol = mix_general([make_ghz_pol(3, 0), make_ghz_pol(3, 1)], [0.5, 0.5 - 9e-13])
    spatial = mix_general([make_ghz_spatial(3, 0), make_ghz_spatial(3, 1)], [0.5, 0.5 - 9e-13])
    joint = product_ensemble(pol, spatial)
    assert abs(math.fsum(w for w, _ in joint.members) - 1.0) > NORM_TOL
    assert joint.members == tuple(
        (pw * sw, tensor_hyper(ps, ss)) for pw, ps in pol.members for sw, ss in spatial.members
    )


def test_product_ensemble_rejects_mismatched_factors():
    # product_ensemble makes tensor_hyper's checks up front, before it builds any member
    pol, spatial = Ensemble(((1.0, make_ghz_pol(3, 0)),)), Ensemble(((1.0, make_ghz_spatial(3, 0)),))
    with pytest.raises(ValueError, match="photon counts differ: 3 vs 4"):
        product_ensemble(pol, Ensemble(((1.0, make_ghz_spatial(4, 0)),)))
    with pytest.raises(ValueError, match="^product_ensemble expects a polarization mixture and a spatial mixture$"):
        product_ensemble(spatial, pol)


def test_tensor_hyper_prunes_dead_products():
    big, small = math.sqrt(1.0 - 1e-16), 1e-8
    assert small * small <= PRUNE_TOL < big * small
    joint = tensor_hyper(
        PureState(2, (POL,), {(0,): big, (3,): small}), PureState(2, (SPATIAL,), {(0,): big, (3,): small})
    )
    # the small x small product is dropped; the amplitudes kept are complex
    assert set(joint.terms) == {(0, 0), (0, 3), (3, 0)}
    assert all(type(amp) is complex for amp in joint.terms.values())


def test_fidelity_linearity_over_products():
    pol = mix_two(make_ghz_pol(3, 0), make_ghz_pol(3, 1), 0.8)
    spatial = mix_two(make_ghz_spatial(3, 0), make_ghz_spatial(3, 2), 0.7)
    joint = product_ensemble(pol, spatial)
    target = tensor_hyper(make_ghz_pol(3, 0), make_ghz_spatial(3, 0))
    f_pol = fidelity(pol, make_ghz_pol(3, 0))
    f_spatial = fidelity(spatial, make_ghz_spatial(3, 0))
    assert fidelity(joint, target) == pytest.approx(f_pol * f_spatial, abs=1e-14)


def test_mix_two_fidelity_returns_weight():
    good = make_ghz_pol(3, 0)
    ens = mix_two(good, make_ghz_pol(3, 3), 0.37)
    assert fidelity(ens, good) == pytest.approx(0.37, abs=1e-15)


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        NoiseSpec(kind="depolarize", weight=0.1)
    with pytest.raises(ValueError, match="weight"):
        NoiseSpec(kind=BIT_FLIP, weight=1.5)
    with pytest.raises(ValueError, match="sign companion"):
        NoiseSpec(kind=PHASE_FLIP, weight=0.1, target_index=1)


def test_ensemble_from_specs():
    specs = (NoiseSpec(kind=BIT_FLIP, weight=0.2, target_index=1),)
    ens = ensemble_from_specs(3, POL, specs)
    assert sorted(p for p, _ in ens.members) == pytest.approx([0.2, 0.8])
    noiseless = ensemble_from_specs(3, SPATIAL, ())
    assert len(noiseless.members) == 1

    def bit(index, weight):
        return NoiseSpec(kind=BIT_FLIP, weight=weight, target_index=index)

    def phase(weight):
        return NoiseSpec(kind=PHASE_FLIP, weight=weight)

    # a component listed twice is an error in both derivations, not a merged or doubled member
    for repeated in ((bit(1, 0.1), bit(1, 0.2)), (phase(0.1), phase(0.2))):
        with pytest.raises(ValueError, match="more than once"):
            ensemble_from_specs(3, POL, repeated)
        with pytest.raises(ValueError, match="more than once"):
            ghz_weights(3, repeated)
    # the engine input carries exactly the nonzero ghz_weights, in order
    valid = [(), (bit(1, 0.2),), (phase(0.3),), (bit(3, 0.1), bit(1, 0.25), bit(2, 0.05)),
             (bit(1, 0.6), bit(2, 0.4)), (bit(2, 0.7), bit(3, 0.3000000000001))]
    for specs in valid:
        weights = ghz_weights(3, specs)
        members = ensemble_from_specs(3, POL, specs).members
        assert [w for w, _ in members] == [w for w in weights.values() if w > 0.0]
        assert [s.terms for _, s in members] == [
            make_ghz_pol(3, i, sign).terms for (i, sign), w in weights.items() if w > 0.0
        ]
    # error weights within tolerance above 1 leave the reference component at 0, not below
    assert ghz_weights(3, valid[-1])[(0, 1)] == 0.0
    # weights that sum to 1 but leave [0, 1] are refused, not dropped
    a, b = make_ghz_pol(3, 0), make_ghz_pol(3, 1)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        mix_two(a, b, 1.5)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        mix_general([a, b], [1.2, -0.2])


def test_ensemble_from_specs_index_range():
    bad = (NoiseSpec(kind=BIT_FLIP, weight=0.2, target_index=4),)
    with pytest.raises(ValueError, match="target_index"):
        ensemble_from_specs(3, POL, bad)


def test_ensemble_from_specs_names_its_dof():
    # the list's degree of freedom labels the mixture; no other name is read as spatial
    for dof in (POL, SPATIAL):
        assert ensemble_from_specs(3, dof, ()).dofs == (dof,)
    for dof in ("polarization", "temporal", PORT):
        with pytest.raises(ValueError, match="degree of freedom"):
            ensemble_from_specs(3, dof, ())
