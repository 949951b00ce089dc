import numpy as np
import pytest

from ghzpurify import (
    GATE_TABLE,
    H,
    KEEP,
    MODE1,
    MODE2,
    POL,
    SPATIAL,
    SWAP,
    V,
    PureState,
    apply_network,
    bit_flip_pol,
    hadamard_pol,
    hadamard_spatial,
    make_ghz_pol,
    make_ghz_spatial,
    states_close,
    tensor_hyper,
)
from ghzpurify.oracle import _single_photon_network
from helpers import (
    MINUS_GLOBAL_SIGN,
    PAIRING,
    pack,
    pol_state_from_string,
    random_joint_state,
    reference_hadamard_state,
    scaled,
    unpack,
)


def test_gate_rows():
    assert GATE_TABLE[(H, MODE1)] == (V, KEEP)
    assert GATE_TABLE[(V, MODE2)] == (H, KEEP)
    assert GATE_TABLE[(V, MODE1)] == (V, SWAP)
    assert GATE_TABLE[(H, MODE2)] == (H, SWAP)


def test_gate_row_shortcuts():
    # port is KEEP exactly when pol == spatial; outgoing pol complements spatial
    for pol in (H, V):
        for mode in (MODE1, MODE2):
            out_pol, port = GATE_TABLE[(pol, mode)]
            assert port == (KEEP if pol == mode else SWAP)
            assert out_pol == 1 - mode


def test_element_chain_reproduces_table():
    # the oracle chains splitter, wave plates and displacers as matrices on
    # (pol, bit) pairs indexed 2 * pol + bit; read the routing rows off it
    net = _single_photon_network()
    table = {}
    for pol in (H, V):
        for mode in (MODE1, MODE2):
            (row,) = np.flatnonzero(net[:, 2 * pol + mode])
            table[(pol, mode)] = divmod(int(row), 2)
    assert table == GATE_TABLE


def test_table_is_invertible():
    outputs = set(GATE_TABLE.values())
    assert len(outputs) == 4
    assert outputs == {(p, r) for p in (0, 1) for r in (0, 1)}


def test_apply_network_reference_case():
    joint = tensor_hyper(make_ghz_pol(3, 0), make_ghz_spatial(3, 0))
    routed = apply_network(joint)
    expect = {
        pack(((V, KEEP),) * 3): 0.5,
        pack(((H, SWAP),) * 3): 0.5,
        pack(((V, SWAP),) * 3): 0.5,
        pack(((H, KEEP),) * 3): 0.5,
    }
    assert routed.terms == pytest.approx(expect)


def test_apply_network_flipped_case():
    # flipped-index inputs exit on the unanimous ports with flipped pol on
    # the last photon
    joint = tensor_hyper(make_ghz_pol(3, 1), make_ghz_spatial(3, 1))
    routed = apply_network(joint)
    expect = {
        pack(((V, KEEP), (V, KEEP), (H, KEEP))): 0.5,
        pack(((H, SWAP), (H, SWAP), (V, SWAP))): 0.5,
        pack(((V, SWAP), (V, SWAP), (H, SWAP))): 0.5,
        pack(((H, KEEP), (H, KEEP), (V, KEEP))): 0.5,
    }
    assert routed.terms == pytest.approx(expect)


def test_apply_network_single_term():
    state = PureState(2, (POL, SPATIAL), {pack(((H, MODE1), (H, MODE1))): 1.0})
    routed = apply_network(state)
    assert routed.terms == pytest.approx({pack(((V, KEEP), (V, KEEP))): 1.0})


def test_apply_network_wrong_stage():
    with pytest.raises(ValueError, match="network input"):
        apply_network(make_ghz_pol(3, 0))


def test_network_permutes_labels():
    rng = np.random.default_rng(7)
    state = random_joint_state(rng)
    routed = apply_network(state)
    images = {
        label: pack([GATE_TABLE[photon] for photon in unpack(state.m, label)]) for label in state.terms
    }
    assert len(set(images.values())) == len(images)
    assert routed.terms == {images[label]: amp for label, amp in state.terms.items()}


def test_hadamard_pol_reference_images():
    assert states_close(
        hadamard_pol(make_ghz_pol(3, 0, +1)), reference_hadamard_state(0, +1, POL)
    )
    assert states_close(
        hadamard_pol(make_ghz_pol(3, 0, -1)), reference_hadamard_state(0, -1, POL)
    )


def test_hadamard_full_families():
    for index in range(4):
        for sign in (+1, -1):
            pol_img = hadamard_pol(make_ghz_pol(3, index, sign))
            spatial_img = hadamard_spatial(make_ghz_spatial(3, index, sign))
            row = PAIRING[index]
            phase = 1 if sign == +1 else MINUS_GLOBAL_SIGN[index]
            assert states_close(pol_img, scaled(reference_hadamard_state(row, sign, POL), phase))
            assert states_close(
                spatial_img, scaled(reference_hadamard_state(row, sign, SPATIAL), phase)
            )


def test_hadamard_involutive():
    assert states_close(hadamard_pol(hadamard_pol(make_ghz_pol(3, 1))), make_ghz_pol(3, 1))
    assert states_close(
        hadamard_spatial(hadamard_spatial(make_ghz_spatial(3, 2))), make_ghz_spatial(3, 2)
    )
    rng = np.random.default_rng(21)
    state = random_joint_state(rng)
    assert states_close(hadamard_pol(hadamard_pol(state)), state, tol=1e-12)
    assert states_close(hadamard_spatial(hadamard_spatial(state)), state, tol=1e-12)


def test_hadamard_requires_matching_dof():
    with pytest.raises(ValueError, match="polarization"):
        hadamard_pol(make_ghz_spatial(3, 0))
    with pytest.raises(ValueError, match="spatial"):
        hadamard_spatial(make_ghz_pol(3, 0))


def test_bit_flip_all_photons_reaches_even_parity_state():
    # the all-complemented even-parity state flips onto the reference
    # Hadamard image of the index-0 plus state
    before = pol_state_from_string({"VVV": 0.5, "VHH": 0.5, "HVH": 0.5, "HHV": 0.5})
    flipped = bit_flip_pol(before, range(3))
    assert states_close(flipped, hadamard_pol(make_ghz_pol(3, 0, +1)))


def test_bit_flip_single_photon():
    flipped = bit_flip_pol(make_ghz_pol(3, 1), [2])
    assert states_close(flipped, make_ghz_pol(3, 0))
    # dense cross-check: X on the last photon's polarization
    from helpers import brute_vector

    x_last = np.kron(np.eye(4), np.array([[0, 1], [1, 0]]))
    assert np.allclose(x_last @ brute_vector(make_ghz_pol(3, 1)), brute_vector(flipped))


def test_bit_flip_empty_subset_is_identity():
    state = make_ghz_pol(3, 2, -1)
    assert bit_flip_pol(state, []) is state


def test_bit_flip_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        bit_flip_pol(make_ghz_pol(3, 0), [3])


def test_corrupted_table_rejected():
    bad = dict(GATE_TABLE)
    bad[(H, MODE1)] = bad[(V, MODE1)]
    with pytest.raises(ValueError, match="bijection"):
        apply_network(tensor_hyper(make_ghz_pol(2, 0), make_ghz_spatial(2, 0)), table=bad)
