"""Brute-force density-matrix verifier for the ensemble engine.

Everything here works on a dense density operator over the full joint
space, one 4-dimensional factor per photon (2 polarization x 2 spatial/port
labels), basis ordered lexicographically photon by photon. The network
unitary is assembled from the individual optical elements (splitter, wave
plates, displacers) as matrix stages, deliberately not from the routing
table the engine uses, so the two implementations share no construction
path.

No operator on the whole joint space is ever multiplied. The network
unitary is a permutation, so conjugating by it is an index gather on rho,
with the permutation read off the element-chain matrix. A Hadamard layer is
a product of identical 4x4 per-photon factors, so conjugating by it is one
contraction per photon axis of rho reshaped to (4,)*2m, ket and bra.

Capacity is capped at 5 photons (dimension 1024); this module exists for
cross-validation, not performance.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .protocol import (
    AcceptanceRule,
    Correction,
    CorrectionPlan,
    IDENTITY_CORRECTION,
    Pattern,
    all_patterns,
    phaseflip_plan,
)
from .states import Ensemble, PureState, make_ghz_pol

ORACLE_MAX_PHOTONS = 5

_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_X2 = np.array([[0.0, 1.0], [1.0, 0.0]])
_I2 = np.eye(2)


def _check_capacity(m: int) -> None:
    if m > ORACLE_MAX_PHOTONS:
        raise ValueError(f"oracle capacity is m <= {ORACLE_MAX_PHOTONS} photons, got m={m}")


def _support(state: PureState) -> tuple[np.ndarray, np.ndarray]:
    """Dense-basis indices (photon-major, bits big-endian) and amplitudes of a PureState."""
    m = state.m
    indices = []
    for label in state.terms:
        idx = 0
        for k in range(m):
            for register in label:
                idx = 2 * idx + ((register >> (m - 1 - k)) & 1)
        indices.append(idx)
    return np.array(indices), np.array(list(state.terms.values()), dtype=complex)


def state_vector(state: PureState) -> np.ndarray:
    """Embed a PureState in the dense basis."""
    vec = np.zeros(2 ** (len(state.dofs) * state.m), dtype=complex)
    idx, amp = _support(state)
    vec[idx] = amp
    return vec


def densify(ensemble: Ensemble) -> np.ndarray:
    """Density operator sum_k p_k |k><k| of an ensemble, written on each member's support."""
    _check_capacity(ensemble.m)
    first = ensemble.members[0][1]
    dim = 2 ** (len(first.dofs) * first.m)
    rho = np.zeros((dim, dim), dtype=complex)
    for p, s in ensemble.members:
        idx, amp = _support(s)
        rho[np.ix_(idx, idx)] += p * np.outer(amp, amp.conj())
    return rho


def _single_photon_network() -> np.ndarray:
    """One party's gate as chained element matrices on (pol, rail) spaces.

    Rails 0..3 hold, in order: transmitted-from-rail-1, reflected-from-rail-1,
    transmitted-from-rail-2, reflected-from-rail-2.
    """
    # splitter: H transmits, V reflects; isometry from 4 inputs to 8 rail slots
    splitter = np.zeros((8, 4))
    rail_of = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    for pol in (0, 1):
        for mode in (0, 1):
            rail = rail_of[(pol, mode)]
            splitter[2 * rail + pol, 2 * pol + mode] = 1.0
    # half-wave plates at 45deg on the rails feeding the keep-side displacer
    plates = np.eye(8)
    for rail in (0, 3):
        plates[2 * rail : 2 * rail + 2, 2 * rail : 2 * rail + 2] = _X2
    # displacers: each admits one V rail and one H rail into one port
    merge = np.zeros((4, 8))
    merge[2 * 1 + 0, 2 * 0 + 1] = 1.0  # V on rail 0 -> (V, keep)
    merge[2 * 0 + 0, 2 * 3 + 0] = 1.0  # H on rail 3 -> (H, keep)
    merge[2 * 1 + 1, 2 * 1 + 1] = 1.0  # V on rail 1 -> (V, swap)
    merge[2 * 0 + 1, 2 * 2 + 0] = 1.0  # H on rail 2 -> (H, swap)
    net = merge @ plates @ splitter
    if not _is_permutation(net):
        raise AssertionError("element chain did not compose to a permutation")
    return net


def _is_permutation(mat: np.ndarray) -> bool:
    binary = np.isclose(mat, 0.0) | np.isclose(mat, 1.0)
    return bool(
        binary.all()
        and (np.abs(mat).sum(axis=0) == 1).all()
        and (np.abs(mat).sum(axis=1) == 1).all()
    )


def _kron_all(factors: list[np.ndarray]) -> np.ndarray:
    """Tensor product of per-photon factors, first photon most significant."""
    return functools.reduce(np.kron, factors)


def network_unitary(m: int) -> np.ndarray:
    """Full-network permutation unitary on the 4^m joint space."""
    _check_capacity(m)
    return _kron_all([_single_photon_network()] * m)


def hadamard_both_unitary(m: int) -> np.ndarray:
    """Hadamard on every photon's polarization and spatial bits."""
    _check_capacity(m)
    return _kron_all([np.kron(_H2, _H2)] * m)


def _gather(rho: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    """U rho U^dagger for a permutation matrix U: row i of U has its 1 in column src[i]."""
    src = unitary.argmax(axis=1)
    return rho[np.ix_(src, src)]


def _contract_per_photon(rho: np.ndarray, factor: np.ndarray, m: int) -> np.ndarray:
    """L rho L^dagger for L = factor^(x m): photon by photon, a tensordot on its ket then its bra axis."""
    t = rho.reshape((4,) * (2 * m))
    for k in range(m):
        for f, axis in ((factor, k), (factor.conj(), m + k)):
            t = np.moveaxis(np.tensordot(f, t, axes=(1, axis)), 0, axis)
    return t.reshape(rho.shape)


def _pattern_indices(m: int, pattern: Pattern) -> np.ndarray:
    """Joint-basis indices whose port bits equal the pattern, ordered by pol bits."""
    idx = []
    for pol_bits in itertools.product((0, 1), repeat=m):
        g = 0
        for p, r in zip(pol_bits, pattern):
            g = 4 * g + 2 * p + r
        idx.append(g)
    return np.array(idx)


def _correction_unitary(m: int, corr: Correction) -> np.ndarray:
    mat = _kron_all([_X2 if k in corr.flips else _I2 for k in range(m)])
    if corr.hadamard:
        mat = _kron_all([_H2] * m) @ mat
    return mat


@dataclass(frozen=True)
class OracleResult:
    """Same success/fidelity semantics as ProtocolResult, computed densely."""

    success_probability: float
    rejected_probability: float
    output_fidelity: float
    pattern_table: dict[Pattern, tuple[float, float]]


def oracle_run(
    dense: np.ndarray,
    m: int,
    rule: AcceptanceRule,
    corrections: CorrectionPlan | None = None,
    target: PureState | None = None,
) -> OracleResult:
    """Run a protocol mode on a dense joint-state density operator.

    Conjugates by the Hadamard layers (phase-flip mode, per-photon
    contractions) and the network unitary (an index gather), projects onto
    each port pattern, applies the pattern's correction, and scores fidelity
    against the polarization target.
    """
    _check_capacity(m)
    dim = 4**m
    if dense.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} operator for m={m}, got {dense.shape}")
    if target is None:
        target = make_ghz_pol(m, 0, +1)
    tvec = state_vector(target)

    rho = dense
    if rule.mode == "phaseflip":
        rho = _contract_per_photon(rho, hadamard_both_unitary(1), m)
        if corrections is None:
            corrections = phaseflip_plan(m)
    if corrections is None:
        corrections = {}

    rho = _gather(rho, network_unitary(m))

    table: dict[Pattern, tuple[float, float]] = {}
    success = 0.0
    fidelity_mass = 0.0
    for pattern in all_patterns(m):
        if not rule.accepts(pattern):
            continue
        idx = _pattern_indices(m, pattern)
        block = rho[np.ix_(idx, idx)]
        prob = max(float(np.trace(block).real), 0.0)
        if prob < 1e-15:
            continue
        cmat = _correction_unitary(m, corrections.get(pattern, IDENTITY_CORRECTION))
        corrected = cmat @ block @ cmat.conj().T
        fid = float(np.real(tvec.conj() @ corrected @ tvec)) / prob
        table[pattern] = (prob, fid)
        success += prob
        fidelity_mass += prob * fid

    if success <= 0.0:
        raise ValueError("no accepted port pattern carries probability; fidelity undefined")
    return OracleResult(
        success_probability=success,
        rejected_probability=1.0 - success,
        output_fidelity=fidelity_mass / success,
        pattern_table=table,
    )
