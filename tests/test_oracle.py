import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ghzpurify.noise import mix_two, product_ensemble
from ghzpurify.oracle import (
    _blocks,
    _indices,
    _layer_entries,
    _network_source,
    densify,
    density_on_support,
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
from helpers import brute_density, brute_vector, full_gather_oracle_run, tensordot_contract

ROOT = Path(__file__).resolve().parent.parent


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


def underflow_pair(m):
    """GHZ(0) x GHZ(0) and a member at weight 5e-324, every weight x |amp|**2 of which rounds to 0."""
    top = 1 << (m - 1)
    members = [tensor_hyper(make_ghz_pol(m, 0), make_ghz_spatial(m, 0)),
               tensor_hyper(make_ghz_pol(m, top - 1, -1), make_ghz_spatial(m, top // 2))]
    return Ensemble(((1.0, members[0]), (5e-324, members[1])))


def complex_pair(m):
    """joint_pair with one amplitude of its first member turned by i."""
    (w, first), *rest = joint_pair(m, 0.7, 0.4).members
    label = next(iter(first.terms))
    return Ensemble(((w, PureState(m, first.dofs, {**first.terms, label: 1j * first.terms[label]})), *rest))


def overlapping(m):
    """GHZ(0, +-) x GHZ(0, +-) mixed: every member on the same four terms."""
    pol = mix_two(make_ghz_pol(m, 0, +1), make_ghz_pol(m, 0, -1), 0.8)
    spatial = mix_two(make_ghz_spatial(m, 0, +1), make_ghz_spatial(m, 0, -1), 0.6)
    return product_ensemble(pol, spatial)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("build", [lambda m: joint_pair(m, 0.8, 0.7), complex_pair, overlapping, underflow_pair],
                         ids=["real", "complex", "overlapping", "underflow"])
def test_densify_is_the_support_block_of_the_brute_operator(build, m):
    """densify is the brute operator's [S, S] block, S = term_indices ascending, and the brute one is zero off S.

    density_on_support returns the same operator and S from one pass.
    """
    ens = build(m)
    full, support, rho = brute_density(ens), term_indices(ens), densify(ens)
    one_pass = density_on_support(ens)
    assert np.array_equal(one_pass[0], rho) and np.array_equal(one_pass[1], support)
    assert support.tolist() == sorted(set(support.tolist()))
    assert rho.shape == (len(support), len(support))
    assert np.allclose(rho, full[np.ix_(support, support)], rtol=0, atol=1e-15)
    outside = np.ones(len(full), dtype=bool)
    outside[support] = False
    assert not full[outside].any() and not full[:, outside].any()
    if build is underflow_pair:
        # the underflowed member's four terms hold rows and columns of S that are all zero
        tiny = np.searchsorted(support, [_indices(m, *label) for label in ens.members[1][1].terms])
        assert len(tiny) == 4 and not rho[tiny].any() and not rho[:, tiny].any()


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_verify_inputs_densify_to_their_support(m):
    """No verify input at any oracle size densifies to more than its support: |S| x |S|, at most 64 indices."""
    for mode in MODES.values():
        if m >= mode.min_m:
            for f1, f2 in ((0.3, 0.8), (0.9, 0.1)):
                ens = mode.verify_input(m, f1, f2)
                size = len(term_indices(ens))
                assert size <= 64 and densify(ens).shape == (size, size)


def test_verify_never_builds_the_joint_operator():
    """The traced peak of a verify --m 6, in a fresh interpreter, stays far below one 4^6 x 4^6 operator (128 MB).

    numpy is imported before tracing starts, so the peak counts what verify allocates, not numpy's import.
    """
    script = (
        "import contextlib, io, tracemalloc\n"
        "import numpy\n"
        "from ghzpurify import cli\n"
        "tracemalloc.start()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--m', '6']) == 0\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 16 * 2**20


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
    U = network_unitary(3)
    evolved = U @ brute_density(ens) @ U.conj().T
    assert np.trace(evolved).real == pytest.approx(1.0, abs=1e-12)
    res = oracle_run(densify(ens), 3, MODES["deterministic-demo"], {}, None, term_indices(ens))
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
    """rho[S, S] read on S gives the blocks of rho, zero outside S, read on the full basis; a zero operator zero blocks."""
    m, rng = 3, np.random.default_rng(4)
    support = np.sort(rng.choice(4**m, size=9, replace=False))
    rho = np.zeros((4**m, 4**m), dtype=complex)
    rho[np.ix_(support, support)] = random_hermitian(9, rng)
    layer, factor, ports = hadamard_both_unitary(m), hadamard_both_unitary(1), list(range(1 << m))
    want = network_blocks(layer @ rho @ layer.conj().T, m, ports)
    assert np.allclose(_blocks(rho[np.ix_(support, support)], m, factor, ports, support), want, rtol=0, atol=1e-12)
    assert np.allclose(_blocks(rho, m, factor, ports), want, rtol=0, atol=1e-12)
    assert not _blocks(np.zeros((9, 9)), m, factor, [0, 5], support).any()


def assert_runs_agree(got, want, tol):
    assert got.pattern_table.keys() == want.pattern_table.keys()
    for key, (prob, fid) in want.pattern_table.items():
        assert got.pattern_table[key] == pytest.approx((prob, fid), rel=0, abs=tol)
    for field in ("success_probability", "rejected_probability", "output_fidelity"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=0, abs=tol)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_term_indices_hold_every_nonzero_row_and_column(m):
    """oracle_run on (densify, term_indices) agrees with oracle_run on the brute full operator within 1e-15.

    So no nonzero row or column of the operator lies off term_indices, on
    verify's inputs and on a member at weight 5e-324, whose indices are
    among term_indices but hold all-zero rows and columns.
    """
    cases = [(mode, mode.verify_input(m, 0.3, 0.8)) for mode in MODES.values() if m >= mode.min_m]
    cases += [(mode, underflow_pair(m)) for mode in MODES.values()]
    for mode, ens in cases:
        plan = mode.plan(ens)
        got = oracle_run(densify(ens), m, mode, plan, None, term_indices(ens))
        assert_runs_agree(got, oracle_run(brute_density(ens), m, mode, plan), 1e-15)


@pytest.mark.parametrize(
    "name, m", [(name, m) for name in sorted(MODES) for m in (2, 3, 4, 5) if m >= MODES[name].min_m]
)
def test_oracle_matches_full_gather_reference(name, m):
    mode = MODES[name]
    for f1, f2, target in ((0.7, 0.4, None), (0.3, 0.85, make_ghz_pol(m, 1, -1))):
        ens = mode.verify_input(m, f1, f2)
        args = (m, mode, mode.plan(ens), target)
        got = oracle_run(densify(ens), *args, term_indices(ens))
        assert_runs_agree(got, full_gather_oracle_run(brute_density(ens), *args), 1e-12)


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
        assert_runs_agree(oracle_run(*args), full_gather_oracle_run(*args), 1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_densify_is_real_on_real_amplitudes(m):
    for name, mode in sorted(MODES.items()):
        if m >= mode.min_m:
            assert densify(mode.verify_input(m, 0.7, 0.4)).dtype == np.float64, name
    assert densify(complex_pair(m)).dtype == np.complex128


@pytest.mark.parametrize(
    "name, m", [(name, m) for name in sorted(MODES) for m in (2, 3, 4, 5) if m >= MODES[name].min_m]
)
def test_oracle_real_and_complex_operators_agree(name, m):
    """The float64 run of a real operator and the complex128 run of its copy agree to 1e-14."""
    mode = MODES[name]
    ens = mode.verify_input(m, 0.7, 0.4)
    rho, support = densify(ens), term_indices(ens)
    real, cplx = (oracle_run(op, m, mode, mode.plan(ens), None, support) for op in (rho, rho.astype(complex)))
    assert_runs_agree(real, cplx, 1e-14)


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
    dense = oracle_run(densify(ens), 3, MODES["bitflip"], {}, None, term_indices(ens))
    assert abs(engine.output_fidelity - dense.output_fidelity) < 1e-10
    assert abs(engine.success_probability - dense.success_probability) < 1e-10


def test_oracle_matches_engine_phaseflip():
    pol = mix_two(make_ghz_pol(3, 0, +1), make_ghz_pol(3, 0, -1), 0.8)
    spatial = mix_two(make_ghz_spatial(3, 0, +1), make_ghz_spatial(3, 0, -1), 0.8)
    ens = product_ensemble(pol, spatial)
    engine = run_phaseflip(ens)
    dense = oracle_run(densify(ens), 3, MODES["phaseflip"], phaseflip_plan(3), None, term_indices(ens))
    assert abs(engine.output_fidelity - dense.output_fidelity) < 1e-10
    assert abs(engine.success_probability - dense.success_probability) < 1e-10


def test_oracle_matches_engine_deterministic():
    ens = joint_pair(3, 0.45, 0.7, pol_index=1, spatial_index=2)
    plan = infer_flip_plan(ens)
    engine = run_general(ens, corrections=plan)
    dense = oracle_run(densify(ens), 3, MODES["deterministic-demo"], plan, None, term_indices(ens))
    assert abs(engine.output_fidelity - dense.output_fidelity) < 1e-10
    assert abs(engine.success_probability - dense.success_probability) < 1e-10
    assert dense.output_fidelity == pytest.approx(1.0, abs=1e-10)


def test_oracle_agreement_at_capacity_limit():
    # the unanimous / even-swap acceptance generalizations hold at m=5 too
    ens = joint_pair(5, 0.8, 0.7)
    engine = run_bitflip(ens)
    dense = oracle_run(densify(ens), 5, MODES["bitflip"], {}, None, term_indices(ens))
    assert abs(engine.output_fidelity - dense.output_fidelity) < 1e-10
    assert abs(engine.success_probability - dense.success_probability) < 1e-10
    pol = mix_two(make_ghz_pol(5, 0, +1), make_ghz_pol(5, 0, -1), 0.6)
    spatial = mix_two(make_ghz_spatial(5, 0, +1), make_ghz_spatial(5, 0, -1), 0.85)
    ens = product_ensemble(pol, spatial)
    engine = run_phaseflip(ens)
    dense = oracle_run(densify(ens), 5, MODES["phaseflip"], phaseflip_plan(5), None, term_indices(ens))
    assert abs(engine.output_fidelity - dense.output_fidelity) < 1e-10
    assert abs(engine.success_probability - dense.success_probability) < 1e-10


def test_oracle_noiseless_agreement():
    ens = joint_pair(2, 1.0, 1.0)
    engine = run_bitflip(ens)
    dense = oracle_run(densify(ens), 2, MODES["bitflip"], {}, None, term_indices(ens))
    assert engine.output_fidelity == pytest.approx(1.0, abs=1e-12)
    assert dense.output_fidelity == pytest.approx(1.0, abs=1e-12)


def test_oracle_shape_validation():
    with pytest.raises(ValueError, match="expected"):
        oracle_run(np.eye(16) / 16.0, 3, MODES["bitflip"], {})
    # the operator's rows and columns are checked against the support it is given on
    ens = joint_pair(3, 0.8, 0.7)
    with pytest.raises(ValueError, match="expected a 15x15"):
        oracle_run(densify(ens), 3, MODES["bitflip"], {}, None, term_indices(ens)[:-1])
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
        oracle_run(densify(ens), 3, MODES["bitflip"], plan, None, term_indices(ens))
    assert str(dense.value) == str(engine.value)
