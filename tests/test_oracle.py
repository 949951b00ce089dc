import functools

import numpy as np
import pytest

from ghzpurify.noise import mix_two, product_ensemble
from ghzpurify.oracle import (
    _blocks,
    _indices,
    _layer_entries,
    _network_source,
    densify,
    hadamard_both_unitary,
    network_unitary,
    oracle_run,
    state_vector,
    term_indices,
)
from ghzpurify.protocol import MODES, infer_flip_plan, phaseflip_plan, run_bitflip, run_general, run_phaseflip
from ghzpurify.states import (
    POL,
    PORT,
    SPATIAL,
    Ensemble,
    PureState,
    make_ghz_pol,
    make_ghz_spatial,
    make_state,
    tensor_hyper,
)
from helpers import brute_vector, full_gather_oracle_run, tensordot_contract


def joint_pair(m, f1, f2, pol_index=1, spatial_index=1):
    pol = mix_two(make_ghz_pol(m, 0), make_ghz_pol(m, pol_index), f1)
    spatial = mix_two(make_ghz_spatial(m, 0), make_ghz_spatial(m, spatial_index), f2)
    return product_ensemble(pol, spatial)


def test_densify_pure_projector():
    ens = Ensemble(((1.0, tensor_hyper(make_ghz_pol(3, 0), make_ghz_spatial(3, 0))),))
    rho = densify(ens)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.allclose(rho, rho.conj().T)
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 1


def test_densify_two_member_spectrum():
    ens = Ensemble(
        (
            (0.5, tensor_hyper(make_ghz_pol(3, 0), make_ghz_spatial(3, 0))),
            (0.5, tensor_hyper(make_ghz_pol(3, 1), make_ghz_spatial(3, 1))),
        )
    )
    eigenvalues = np.linalg.eigvalsh(densify(ens))
    top = sorted(eigenvalues)[-2:]
    assert top == pytest.approx([0.5, 0.5], abs=1e-12)


def test_densify_product_mixture_spectrum():
    rho = densify(joint_pair(3, 0.8, 0.7))
    eigenvalues = np.linalg.eigvalsh(rho)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert eigenvalues.min() > -1e-10
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 4
    expected = sorted([0.56, 0.24, 0.14, 0.06])
    assert sorted(eigenvalues)[-4:] == pytest.approx(expected, abs=1e-12)


def test_densify_capacity():
    ens = Ensemble(((1.0, tensor_hyper(make_ghz_pol(7, 0), make_ghz_spatial(7, 0))),))
    with pytest.raises(ValueError, match="capacity"):
        densify(ens)


def test_network_unitary_is_permutation():
    for m in (2, 3):
        mat = network_unitary(m)
        assert mat.shape == (4**m, 4**m)
        assert ((mat == 0) | (mat == 1)).all()
        assert (mat.sum(axis=0) == 1).all()
        assert (mat.sum(axis=1) == 1).all()


def test_network_unitary_preserves_trace_and_patterns():
    ens = joint_pair(3, 0.6, 0.9)
    rho = densify(ens)
    U = network_unitary(3)
    evolved = U @ rho @ U.conj().T
    assert np.trace(evolved).real == pytest.approx(1.0, abs=1e-12)
    res = oracle_run(rho, 3, MODES["deterministic-demo"], {})
    total = sum(p for p, _ in res.pattern_table.values())
    assert total == pytest.approx(1.0, abs=1e-12)


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def complex_factor(seed):
    """A complex, non-symmetric 4x4 unitary: checks the ket/bra conjugation and the axis order."""
    return np.linalg.qr(random_hermitian(4, np.random.default_rng(seed)) + 1j * np.eye(4))[0]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_network_source_reads_the_unitary(m):
    assert np.array_equal(_network_source(m), network_unitary(m).argmax(axis=1))


def network_blocks(full, m, ports):
    """Each port's block of the already conjugated operator full, gathered through the network index."""
    src = _network_source(m)
    return [full[np.ix_(src[idx], src[idx])] for idx in (_indices(m, np.arange(1 << m), port) for port in ports)]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_gather_matches_dense_conjugation(m):
    # with the identity factor, every port's block read through the network index is that block of U rho U^dagger
    rho = random_hermitian(4**m, np.random.default_rng(m))
    assert rho.dtype == np.complex128  # the complex path
    U = network_unitary(m)
    full = U @ rho @ U.conj().T
    ports = list(range(1 << m))
    blocks = _blocks(rho, m, np.eye(4), ports)
    assert blocks.shape == (1 << m, 1 << m, 1 << m)
    for port, block in zip(ports, blocks):
        idx = _indices(m, np.arange(1 << m), port)
        assert np.allclose(block, full[np.ix_(idx, idx)], rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_per_photon_contraction_matches_dense_layer(m):
    """The layer read as a product of per-photon factor entries is the dense layer's, on any rows and columns."""
    rng = np.random.default_rng(10 + m)
    rows, cols = rng.integers(0, 4**m, size=(3, 2 * m)), rng.choice(4**m, size=min(4**m, 17), replace=False)
    for factor in (hadamard_both_unitary(1), complex_factor(20 + m)):
        full = functools.reduce(np.kron, [factor] * m)
        got = _layer_entries(factor, m, rows, cols)
        assert got.shape == (3, 2 * m, len(cols))
        for r, entries in zip(rows, got):
            assert np.allclose(entries, full[np.ix_(r, cols)], rtol=0, atol=1e-12)
    if m <= 4:
        # and the block read on a full-support operator is the block of the dense layer's conjugation
        rho = random_hermitian(4**m, rng)
        layer = hadamard_both_unitary(m)
        ports = list(range(1 << m))
        want = network_blocks(layer @ rho @ layer.conj().T, m, ports)
        assert np.allclose(_blocks(rho, m, hadamard_both_unitary(1), ports), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_contraction_matches_tensordot_reference(m):
    """The block read matches the blocks of tests/helpers.py's photon-by-photon tensordot conjugation."""
    rng = np.random.default_rng(30 + m)
    rho = random_hermitian(4**m, rng)
    assert rho.dtype == np.complex128  # the complex path
    # three ports at m = 5: the full-support read costs ports x 2^m x 16^m
    ports = sorted(rng.choice(1 << m, size=3, replace=False).tolist()) if m == 5 else list(range(1 << m))
    for factor in (hadamard_both_unitary(1), complex_factor(40 + m)):
        want = network_blocks(tensordot_contract(rho, factor, m), m, ports)
        assert np.allclose(_blocks(rho, m, factor, ports), want, rtol=0, atol=1e-12)


def test_block_read_ignores_rows_and_columns_outside_the_support():
    """Only the support enters: zeroing rho outside it, or not, gives one block, and a zero operator zero blocks."""
    m, rng = 3, np.random.default_rng(4)
    support = np.sort(rng.choice(4**m, size=9, replace=False))
    rho = np.zeros((4**m, 4**m), dtype=complex)
    rho[np.ix_(support, support)] = random_hermitian(9, rng)
    layer = hadamard_both_unitary(m)
    want = network_blocks(layer @ rho @ layer.conj().T, m, range(1 << m))
    assert np.allclose(_blocks(rho, m, hadamard_both_unitary(1), list(range(1 << m))), want, rtol=0, atol=1e-12)
    assert not _blocks(np.zeros((4**m, 4**m)), m, hadamard_both_unitary(1), [0, 5]).any()


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_term_indices_hold_every_nonzero_row_and_column(m):
    """term_indices is the scan's support on verify's inputs, so oracle_run prints the same with it; an underflowed member adds only zero rows and columns.

    The member at weight 5e-324 has every weight x |amp|**2 round to 0, so
    its indices are among term_indices but hold an all-zero row and column
    of the operator, and the oracle's figures stay within 1e-15.
    """
    for name, mode in sorted(MODES.items()):
        if m < mode.min_m:
            continue
        ens = mode.verify_input(m, 0.3, 0.8)
        rho = densify(ens)
        scanned = np.flatnonzero(rho.any(axis=0) | rho.any(axis=1))
        assert term_indices(ens).tolist() == scanned.tolist()
        args = (rho, m, mode, mode.plan(ens), None)
        assert oracle_run(*args, term_indices(ens)) == oracle_run(*args)
    top = 1 << (m - 1)
    members = [tensor_hyper(make_ghz_pol(m, 0), make_ghz_spatial(m, 0)),
               tensor_hyper(make_ghz_pol(m, top - 1, -1), make_ghz_spatial(m, top // 2))]
    ens = Ensemble(((1.0, members[0]), (5e-324, members[1])))
    rho, support = densify(ens), term_indices(ens)
    extra = sorted(set(support.tolist()) - set(np.flatnonzero(rho.any(axis=0) | rho.any(axis=1)).tolist()))
    assert len(extra) == 4 and not rho[extra].any() and not rho[:, extra].any()
    for mode in MODES.values():
        args = (rho, m, mode, mode.plan(ens), None)
        got, want = oracle_run(*args, support), oracle_run(*args)
        assert got.pattern_table.keys() == want.pattern_table.keys()
        for key, (prob, fid) in want.pattern_table.items():
            assert got.pattern_table[key] == pytest.approx((prob, fid), rel=0, abs=1e-15)
        assert got.output_fidelity == pytest.approx(want.output_fidelity, rel=0, abs=1e-15)


@pytest.mark.parametrize(
    "name, m", [(name, m) for name in sorted(MODES) for m in (2, 3, 4, 5) if m >= MODES[name].min_m]
)
def test_oracle_matches_full_gather_reference(name, m):
    mode = MODES[name]
    for f1, f2, target in ((0.7, 0.4, None), (0.3, 0.85, make_ghz_pol(m, 1, -1))):
        ens = mode.verify_input(m, f1, f2)
        args = (densify(ens), m, mode, mode.plan(ens), target)
        got, want = oracle_run(*args), full_gather_oracle_run(*args)
        assert got.pattern_table.keys() == want.pattern_table.keys()
        for key, (prob, fid) in want.pattern_table.items():
            assert got.pattern_table[key] == pytest.approx((prob, fid), rel=0, abs=1e-12)
        for field in ("success_probability", "rejected_probability", "output_fidelity"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=0, abs=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(MODES))
def test_full_support_operator_matches_full_gather_reference(name, m):
    """A random complex density operator with full support, a random flip plan and a complex target."""
    mode, rng = MODES[name], np.random.default_rng(50 + m)
    a = rng.normal(size=(4**m, 4**m)) + 1j * rng.normal(size=(4**m, 4**m))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    assert np.flatnonzero(rho.any(axis=0)).size == 4**m
    plan = {q: int(rng.integers(0, 1 << m)) for q in range(1 << m)}
    amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    target = make_state(m, (POL,), [((r,), amp) for r, amp in enumerate((amps / np.linalg.norm(amps)).tolist())])
    for args in ((rho, m, mode, plan, target), (rho, m, mode, {}, None)):
        got, want = oracle_run(*args), full_gather_oracle_run(*args)
        assert got.pattern_table.keys() == want.pattern_table.keys()
        for key, (prob, fid) in want.pattern_table.items():
            assert got.pattern_table[key] == pytest.approx((prob, fid), rel=0, abs=1e-12)
        for field in ("success_probability", "rejected_probability", "output_fidelity"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=0, abs=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_densify_is_real_on_real_amplitudes(m):
    for name, mode in sorted(MODES.items()):
        if m >= mode.min_m:
            assert densify(mode.verify_input(m, 0.7, 0.4)).dtype == np.float64, name
    (w, first), *rest = joint_pair(m, 0.7, 0.4).members
    label = next(iter(first.terms))
    turned = PureState(m, first.dofs, {**first.terms, label: 1j * first.terms[label]})
    assert densify(Ensemble(((w, turned), *rest))).dtype == np.complex128


@pytest.mark.parametrize(
    "name, m", [(name, m) for name in sorted(MODES) for m in (2, 3, 4, 5) if m >= MODES[name].min_m]
)
def test_oracle_real_and_complex_operators_agree(name, m):
    """The float64 run of a real operator and the complex128 run of its copy agree to 1e-14."""
    mode = MODES[name]
    ens = mode.verify_input(m, 0.7, 0.4)
    rho = densify(ens)
    real, cplx = (oracle_run(op, m, mode, mode.plan(ens)) for op in (rho, rho.astype(complex)))
    assert real.pattern_table.keys() == cplx.pattern_table.keys()
    for key, entry in cplx.pattern_table.items():
        assert real.pattern_table[key] == pytest.approx(entry, rel=0, abs=1e-14)
    for field in ("success_probability", "rejected_probability", "output_fidelity"):
        assert getattr(real, field) == pytest.approx(getattr(cplx, field), rel=0, abs=1e-14)


def test_hadamard_layer_unitary():
    mat = hadamard_both_unitary(2)
    assert np.allclose(mat @ mat.conj().T, np.eye(16))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("dofs", [(POL,), (POL, SPATIAL), (POL, PORT)])
def test_state_vector_matches_brute_embedding(m, dofs):
    # _indices interleaves every label's bits at once; brute_vector walks photon by photon
    rng = np.random.default_rng(m)
    labels = {tuple(int(r) for r in rng.integers(0, 1 << m, len(dofs))) for _ in range(3 * m)}
    amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    amps /= np.linalg.norm(amps)
    state = PureState(m, dofs, dict(zip(labels, amps.tolist())))
    assert np.array_equal(state_vector(state), brute_vector(state))
    # ints and index arrays take the same interleave
    pol = np.arange(1 << m)
    assert _indices(m, pol, 3 % (1 << m)).tolist() == [_indices(m, p, 3 % (1 << m)) for p in range(1 << m)]


def test_state_vector_norm():
    vec = state_vector(tensor_hyper(make_ghz_pol(3, 1), make_ghz_spatial(3, 2)))
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_oracle_matches_engine_bitflip():
    ens = joint_pair(3, 0.8, 0.7)
    engine = run_bitflip(ens)
    dense = oracle_run(densify(ens), 3, MODES["bitflip"], {})
    assert abs(engine.output_fidelity - dense.output_fidelity) < 1e-10
    assert abs(engine.success_probability - dense.success_probability) < 1e-10


def test_oracle_matches_engine_phaseflip():
    pol = mix_two(make_ghz_pol(3, 0, +1), make_ghz_pol(3, 0, -1), 0.8)
    spatial = mix_two(make_ghz_spatial(3, 0, +1), make_ghz_spatial(3, 0, -1), 0.8)
    ens = product_ensemble(pol, spatial)
    engine = run_phaseflip(ens)
    dense = oracle_run(densify(ens), 3, MODES["phaseflip"], phaseflip_plan(3))
    assert abs(engine.output_fidelity - dense.output_fidelity) < 1e-10
    assert abs(engine.success_probability - dense.success_probability) < 1e-10


def test_oracle_matches_engine_deterministic():
    ens = joint_pair(3, 0.45, 0.7, pol_index=1, spatial_index=2)
    plan = infer_flip_plan(ens)
    engine = run_general(ens, corrections=plan)
    dense = oracle_run(densify(ens), 3, MODES["deterministic-demo"], plan)
    assert abs(engine.output_fidelity - dense.output_fidelity) < 1e-10
    assert abs(engine.success_probability - dense.success_probability) < 1e-10
    assert dense.output_fidelity == pytest.approx(1.0, abs=1e-10)


def test_oracle_agreement_at_capacity_limit():
    # the unanimous / even-swap acceptance generalizations hold at m=5 too
    ens = joint_pair(5, 0.8, 0.7)
    engine = run_bitflip(ens)
    dense = oracle_run(densify(ens), 5, MODES["bitflip"], {})
    assert abs(engine.output_fidelity - dense.output_fidelity) < 1e-10
    assert abs(engine.success_probability - dense.success_probability) < 1e-10
    pol = mix_two(make_ghz_pol(5, 0, +1), make_ghz_pol(5, 0, -1), 0.6)
    spatial = mix_two(make_ghz_spatial(5, 0, +1), make_ghz_spatial(5, 0, -1), 0.85)
    ens = product_ensemble(pol, spatial)
    engine = run_phaseflip(ens)
    dense = oracle_run(densify(ens), 5, MODES["phaseflip"], phaseflip_plan(5))
    assert abs(engine.output_fidelity - dense.output_fidelity) < 1e-10
    assert abs(engine.success_probability - dense.success_probability) < 1e-10


def test_oracle_noiseless_agreement():
    ens = joint_pair(2, 1.0, 1.0)
    engine = run_bitflip(ens)
    dense = oracle_run(densify(ens), 2, MODES["bitflip"], {})
    assert engine.output_fidelity == pytest.approx(1.0, abs=1e-12)
    assert dense.output_fidelity == pytest.approx(1.0, abs=1e-12)


def test_oracle_shape_validation():
    with pytest.raises(ValueError, match="expected"):
        oracle_run(np.eye(16) / 16.0, 3, MODES["bitflip"], {})
    # the capacity check comes before the shape check, so no 4^7-square operator is needed
    with pytest.raises(ValueError, match="capacity"):
        oracle_run(np.eye(16) / 16.0, 7, MODES["bitflip"], {})


@pytest.mark.parametrize("mask", [8, -1, 1.5, True])
def test_oracle_refuses_the_correction_masks_the_engine_refuses(mask):
    """A flip mask that is not an m-bit int register is refused by both, with one message."""
    ens, plan = joint_pair(3, 0.8, 0.7), {0: mask}
    with pytest.raises(ValueError, match="is not an m-bit register") as engine:
        run_general(ens, corrections=plan)
    with pytest.raises(ValueError, match="is not an m-bit register") as dense:
        oracle_run(densify(ens), 3, MODES["bitflip"], plan)
    assert str(dense.value) == str(engine.value)
