import functools

import numpy as np
import pytest

from ghzpurify import (
    AcceptanceRule,
    Ensemble,
    densify,
    infer_flip_plan,
    make_ghz_pol,
    make_ghz_spatial,
    mix_two,
    network_unitary,
    oracle_run,
    product_ensemble,
    run_bitflip,
    run_general,
    run_phaseflip,
    tensor_hyper,
)
from ghzpurify.oracle import _contract_per_photon, _gather, hadamard_both_unitary, state_vector


def joint_pair(m, f1, f2, pol_index=1, spatial_index=1):
    pol = mix_two(make_ghz_pol(m, 0), make_ghz_pol(m, pol_index), f1)
    spatial = mix_two(make_ghz_spatial(m, 0), make_ghz_spatial(m, spatial_index), f2)
    return product_ensemble(pol, spatial)


def test_densify_pure_projector():
    ens = Ensemble.pure(tensor_hyper(make_ghz_pol(3, 0), make_ghz_spatial(3, 0)))
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
    ens = Ensemble.pure(tensor_hyper(make_ghz_pol(6, 0), make_ghz_spatial(6, 0)))
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
    res = oracle_run(rho, 3, AcceptanceRule("general"))
    total = sum(p for p, _ in res.pattern_table.values())
    assert total == pytest.approx(1.0, abs=1e-12)


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_gather_matches_dense_conjugation(m):
    rho = random_hermitian(4**m, np.random.default_rng(m))
    U = network_unitary(m)
    assert np.allclose(_gather(rho, U), U @ rho @ U.conj().T, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_per_photon_contraction_matches_dense_layer(m):
    rho = random_hermitian(4**m, np.random.default_rng(10 + m))
    layer = hadamard_both_unitary(m)
    got = _contract_per_photon(rho, hadamard_both_unitary(1), m)
    assert np.allclose(got, layer @ rho @ layer.conj().T, rtol=0, atol=1e-12)
    # a complex, non-symmetric factor checks the ket/bra conjugation and axis order
    factor = np.linalg.qr(random_hermitian(4, np.random.default_rng(20 + m)) + 1j * np.eye(4))[0]
    full = functools.reduce(np.kron, [factor] * m)
    got = _contract_per_photon(rho, factor, m)
    assert np.allclose(got, full @ rho @ full.conj().T, rtol=0, atol=1e-12)


def test_hadamard_layer_unitary():
    mat = hadamard_both_unitary(2)
    assert np.allclose(mat @ mat.conj().T, np.eye(16))


def test_state_vector_norm():
    vec = state_vector(tensor_hyper(make_ghz_pol(3, 1), make_ghz_spatial(3, 2)))
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_oracle_matches_engine_bitflip():
    ens = joint_pair(3, 0.8, 0.7)
    engine = run_bitflip(ens)
    dense = oracle_run(densify(ens), 3, AcceptanceRule("bitflip"))
    assert abs(engine.output_fidelity - dense.output_fidelity) < 1e-10
    assert abs(engine.success_probability - dense.success_probability) < 1e-10


def test_oracle_matches_engine_phaseflip():
    pol = mix_two(make_ghz_pol(3, 0, +1), make_ghz_pol(3, 0, -1), 0.8)
    spatial = mix_two(make_ghz_spatial(3, 0, +1), make_ghz_spatial(3, 0, -1), 0.8)
    ens = product_ensemble(pol, spatial)
    engine = run_phaseflip(ens)
    dense = oracle_run(densify(ens), 3, AcceptanceRule("phaseflip"))
    assert abs(engine.output_fidelity - dense.output_fidelity) < 1e-10
    assert abs(engine.success_probability - dense.success_probability) < 1e-10


def test_oracle_matches_engine_deterministic():
    ens = joint_pair(3, 0.45, 0.7, pol_index=1, spatial_index=2)
    plan = infer_flip_plan(ens)
    engine = run_general(ens, corrections=plan)
    dense = oracle_run(densify(ens), 3, AcceptanceRule("general"), corrections=plan)
    assert abs(engine.output_fidelity - dense.output_fidelity) < 1e-10
    assert abs(engine.success_probability - dense.success_probability) < 1e-10
    assert dense.output_fidelity == pytest.approx(1.0, abs=1e-10)


def test_oracle_agreement_at_capacity_limit():
    # the unanimous / even-swap acceptance generalizations hold at m=5 too
    ens = joint_pair(5, 0.8, 0.7)
    engine = run_bitflip(ens)
    dense = oracle_run(densify(ens), 5, AcceptanceRule("bitflip"))
    assert abs(engine.output_fidelity - dense.output_fidelity) < 1e-10
    assert abs(engine.success_probability - dense.success_probability) < 1e-10
    pol = mix_two(make_ghz_pol(5, 0, +1), make_ghz_pol(5, 0, -1), 0.6)
    spatial = mix_two(make_ghz_spatial(5, 0, +1), make_ghz_spatial(5, 0, -1), 0.85)
    ens = product_ensemble(pol, spatial)
    engine = run_phaseflip(ens)
    dense = oracle_run(densify(ens), 5, AcceptanceRule("phaseflip"))
    assert abs(engine.output_fidelity - dense.output_fidelity) < 1e-10
    assert abs(engine.success_probability - dense.success_probability) < 1e-10


def test_oracle_noiseless_agreement():
    ens = joint_pair(2, 1.0, 1.0)
    engine = run_bitflip(ens)
    dense = oracle_run(densify(ens), 2, AcceptanceRule("bitflip"))
    assert engine.output_fidelity == pytest.approx(1.0, abs=1e-12)
    assert dense.output_fidelity == pytest.approx(1.0, abs=1e-12)


def test_oracle_shape_validation():
    with pytest.raises(ValueError, match="expected"):
        oracle_run(np.eye(16) / 16.0, 3, AcceptanceRule("bitflip"))
    with pytest.raises(ValueError, match="capacity"):
        oracle_run(np.eye(4**6) / 4**6, 6, AcceptanceRule("bitflip"))
