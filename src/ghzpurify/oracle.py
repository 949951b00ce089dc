"""Brute-force density-matrix verifier for the ensemble engine.

Everything here works on a dense density operator over the full joint
space, one 4-dimensional factor per photon (2 polarization x 2 spatial/port
labels), basis ordered lexicographically photon by photon. The network
unitary is assembled from the individual optical elements (splitter, wave
plates, displacers) as matrix stages, deliberately not from the routing
table the engine uses, so the two implementations share no construction
path.

No operator on the whole joint space is ever multiplied, nor built for a
run. A Hadamard layer is a product of identical 4x4 per-photon factors, so
conjugating by it is 2m matmuls on rho reshaped to (4,)*2m, one per ket
and bra axis. The network unitary is a permutation, read off the
single-photon element chain and combined photon by photon, so each
accepted port's block of the conjugated operator is read straight from
rho through that gather index; no full permuted copy is made.

oracle_run takes the protocol Mode: its Hadamard flag picks the layers
and the closing Hadamard of each correction, its acceptance rule the
ports. The caller passes the correction plan, a photon flip mask per port
register like the engine's.

Capacity is capped at 5 photons (dimension 1024); this module exists for
cross-validation, not performance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .protocol import CorrectionPlan, Mode, Pattern
from .states import Ensemble, Label, PureState, bits, make_ghz_pol

ORACLE_MAX_PHOTONS = 5

_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_X2 = np.array([[0.0, 1.0], [1.0, 0.0]])
_I2 = np.eye(2)


def _check_capacity(m: int) -> None:
    if m > ORACLE_MAX_PHOTONS:
        raise ValueError(f"oracle capacity is m <= {ORACLE_MAX_PHOTONS} photons, got m={m}")


def _index(m: int, label: Label) -> int:
    """Dense-basis index of a label: photon-major, each photon's bits in register order, big-endian."""
    idx = 0
    for k in range(m):
        for register in label:
            idx = 2 * idx + ((register >> (m - 1 - k)) & 1)
    return idx


def _support(state: PureState) -> tuple[np.ndarray, np.ndarray]:
    """Dense-basis indices and amplitudes of a PureState."""
    indices = [_index(state.m, label) for label in state.terms]
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


def _network_source(m: int) -> np.ndarray:
    """Column of the 1 in each row of network_unitary(m), without building the matrix.

    Row i of the Kronecker product has its 1 where every photon's row of
    the single-photon network has its own, so the column is the per-photon
    permutation combined photon by photon in mixed radix 4, first photon
    most significant. Read off the element chain on every call.
    """
    _check_capacity(m)
    perm = _single_photon_network().argmax(axis=1)
    src = np.zeros(1, dtype=np.intp)
    for _ in range(m):
        src = (4 * src[:, None] + perm).ravel()
    return src


def _contract_per_photon(rho: np.ndarray, factor: np.ndarray, m: int) -> np.ndarray:
    """L rho L^dagger for L = factor^(x m): one matmul per axis of rho reshaped to (4,)*2m.

    Each step applies the factor (conjugated on bra axes) to the leading
    axis and appends the result as the last axis, ket axes first. After 2m
    steps every axis has been transformed once and the axes are back in
    order.
    """
    t = rho
    for f in [factor] * m + [factor.conj()] * m:
        t = t.reshape(4, -1).T @ f.T
    return t.reshape(rho.shape)


def _port_blocks(rho: np.ndarray, m: int, ports: list[int]):
    """Yield (port, (U rho U^dagger)[idx, idx]) for each port register, U the network permutation.

    idx lists the port's 2^m basis states, one per polarization register:
    a per-call polarization part plus the port's own offset. Row i of U
    has its 1 in column src[i], so the block is rho[src[idx], src[idx]],
    read without a permuted copy of rho.
    """
    src = _network_source(m)
    pol_part = np.array([_index(m, (pol, 0)) for pol in range(1 << m)])
    for port in ports:
        rows = src[pol_part + _index(m, (0, port))]
        yield port, rho[np.ix_(rows, rows)]


def _correction_unitary(m: int, flips: int, hadamard: bool) -> np.ndarray:
    """X on the photons set in the m-bit mask, then H on every photon for a Hadamard mode."""
    mat = _kron_all([_X2 if b else _I2 for b in bits(m, flips)])
    return _kron_all([_H2] * m) @ mat if hadamard else mat


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
    mode: Mode,
    corrections: CorrectionPlan,
    target: PureState | None = None,
) -> OracleResult:
    """Run a protocol mode on a dense joint-state density operator.

    Conjugates by the Hadamard layers where ``mode.hadamard`` is set (2m
    per-photon matmuls), then, for each port accepted by ``mode.rule``,
    reads that port's block of the network-conjugated operator through the
    network gather index (``_port_blocks``), with no permuted copy of rho.
    The port's correction is C = H^(x m) X^mask in a Hadamard mode, else
    X^mask, with the port's flip mask from ``corrections`` (0 if absent).
    It enters the fidelity as v = C^dagger t, computed once per distinct
    mask, scored as v^dagger block v / prob against the polarization target t.
    """
    _check_capacity(m)
    dim = 4**m
    if dense.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} operator for m={m}, got {dense.shape}")
    if target is None:
        target = make_ghz_pol(m, 0, +1)
    tvec = state_vector(target)

    rho = dense
    if mode.hadamard:
        rho = _contract_per_photon(rho, hadamard_both_unitary(1), m)
    accepted = [port for port in range(1 << m) if mode.rule.accepts(port, m)]
    scored: dict[int, np.ndarray] = {}  # flip mask -> C^dagger t

    table: dict[Pattern, tuple[float, float]] = {}
    success = 0.0
    fidelity_mass = 0.0
    for port, block in _port_blocks(rho, m, accepted):
        prob = max(float(np.trace(block).real), 0.0)
        if prob < 1e-15:
            continue
        flips = corrections.get(port, 0)
        if flips not in scored:
            scored[flips] = _correction_unitary(m, flips, mode.hadamard).conj().T @ tvec
        v = scored[flips]
        fid = float(np.real(v.conj() @ block @ v)) / prob
        table[bits(m, port)] = (prob, fid)
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
