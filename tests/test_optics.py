import itertools
import random

import numpy as np
import pytest

from ghzpurify.optics import (
    GATE_TABLE,
    apply_network,
    bit_flip_pol,
    hadamard_pol,
    hadamard_spatial,
    check_table,
    walsh_hadamard,
)
from ghzpurify.oracle import _single_photon_network
from ghzpurify.states import (
    H,
    KEEP,
    MODE1,
    MODE2,
    POL,
    SPATIAL,
    SWAP,
    V,
    PureState,
    make_ghz_pol,
    make_ghz_spatial,
    tensor_hyper,
)
from helpers import (
    MINUS_GLOBAL_SIGN,
    PAIRING,
    loop_hadamard,
    pack,
    pol_state_from_string,
    random_joint_state,
    reference_hadamard_state,
    route,
    scaled,
    states_close,
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


def faulted_table():
    table = dict(GATE_TABLE)
    table[(H, MODE1)], table[(V, MODE1)] = table[(V, MODE1)], table[(H, MODE1)]
    return table


PAIRS = [(p, s) for p in (0, 1) for s in (0, 1)]
# every bijective table; ids name the images of rows 00, 01, 10, 11, except the two the engine runs
TABLES = [dict(zip(PAIRS, images)) for images in itertools.permutations(PAIRS)]
TABLE_IDS = [
    "gate" if t == GATE_TABLE else "faulted" if t == faulted_table() else "".join(f"{p}{q}" for p, q in t.values())
    for t in TABLES
]


@pytest.mark.parametrize("table", TABLES, ids=TABLE_IDS)
def test_route_rule_on_ints_and_grids(table):
    # the affine masks against the table applied photon by photon
    m = 3
    grid = np.arange(2**m)
    out_pol, port = route(grid[:, None], grid[None, :], m, table)
    for pol in range(2**m):
        for spatial in range(2**m):
            per_photon = pack([table[photon] for photon in unpack(m, (pol, spatial))])
            assert route(pol, spatial, m, table) == per_photon
            assert (out_pol[pol, spatial], port[pol, spatial]) == per_photon
    rng = random.Random(str(table))
    m = 64
    for _ in range(50):
        pol, spatial = rng.getrandbits(m), rng.getrandbits(m)
        assert route(pol, spatial, m, table) == pack([table[photon] for photon in unpack(m, (pol, spatial))])


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_hadamard_matches_loop_reference(m):
    # same sums of two products in the same order, so equal to the last bit
    rng = np.random.default_rng(40 + m)
    joint = random_joint_state(rng, m)
    product = tensor_hyper(make_ghz_pol(m, 1, -1), make_ghz_spatial(m, 2 ** (m - 1) - 1))
    # half the outputs cancel to about 1e-16, below PRUNE_TOL, so both sides must prune them
    c = 2.0**-0.5
    near = PureState(m, (POL,), {(0,): c, (1,): c * (1 + 1e-15)})
    assert len(loop_hadamard(near, POL).terms) == 2 ** (m - 1)
    for state in (joint, product, near, make_ghz_pol(m, 1, -1), hadamard_pol(make_ghz_pol(m, 0))):
        assert hadamard_pol(state).terms == loop_hadamard(state, POL).terms
    for state in (joint, product, make_ghz_spatial(m, 1)):
        assert hadamard_spatial(state).terms == loop_hadamard(state, SPATIAL).terms


def test_walsh_hadamard_prunes_and_checks_its_array():
    c = 2.0**-0.5
    amps = np.array([[c, 0.6], [c * (1 + 1e-15), 0.8]], dtype=complex)
    real = amps.real.copy()
    walsh_hadamard(amps, 1)
    assert amps[1, 0] == 0.0  # about -3e-16 before the prune
    assert amps[:, 1].tolist() == [0.6 * c + 0.8 * c, 0.6 * c - 0.8 * c]
    walsh_hadamard(real, 1)  # a float64 array gets the same values
    assert real.dtype == np.float64 and real.tolist() == amps.real.tolist()
    with pytest.raises(ValueError, match="C-contiguous float64 or complex128"):
        walsh_hadamard(np.zeros((2, 4), dtype=complex)[:, ::2], 1)
    with pytest.raises(ValueError, match="float64 or complex128 array with 2 rows"):
        walsh_hadamard(np.zeros((2, 2), dtype=np.float32), 1)
    with pytest.raises(ValueError, match="4 rows"):
        walsh_hadamard(np.zeros((2, 2), dtype=complex), 2)


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
    flipped = bit_flip_pol(before, 0b111)
    assert states_close(flipped, hadamard_pol(make_ghz_pol(3, 0, +1)))


def test_bit_flip_single_photon():
    flipped = bit_flip_pol(make_ghz_pol(3, 1), 0b001)
    assert states_close(flipped, make_ghz_pol(3, 0))
    # dense cross-check: X on the last photon's polarization
    from helpers import brute_vector

    x_last = np.kron(np.eye(4), np.array([[0, 1], [1, 0]]))
    assert np.allclose(x_last @ brute_vector(make_ghz_pol(3, 1)), brute_vector(flipped))


def test_bit_flip_empty_subset_is_identity():
    state = make_ghz_pol(3, 2, -1)
    assert bit_flip_pol(state, 0) is state


def test_bit_flip_index_out_of_range():
    for mask in (-1, 2**3, 2**4):
        with pytest.raises(ValueError, match="out of range"):
            bit_flip_pol(make_ghz_pol(3, 0), mask)


def test_corrupted_table_rejected():
    bad = dict(GATE_TABLE)
    bad[(H, MODE1)] = bad[(V, MODE1)]
    with pytest.raises(ValueError, match="bijection"):
        apply_network(tensor_hyper(make_ghz_pol(2, 0), make_ghz_spatial(2, 0)), table=bad)
    # check_table refuses it too, and a table whose images leave the four pairs
    outside = {**GATE_TABLE, (H, MODE1): (2, KEEP)}
    for table in (bad, outside, {k: v for k, v in GATE_TABLE.items() if k != (H, MODE1)}):
        with pytest.raises(ValueError, match="bijection"):
            check_table(table, 2)
