"""Brute-force density-matrix verifier for the ensemble engine.

Everything here works on a density operator in the dense joint basis, one
4-dimensional factor per photon (2 polarization x 2 spatial/port labels),
basis ordered lexicographically photon by photon. The network unitary is
assembled from the individual optical elements (splitter, wave plates,
displacers) as matrix stages, deliberately not from the routing table the
engine uses, so the two implementations share no construction path.

density_on_support writes an ensemble's operator on its support S alone,
the dense-basis indices its members' terms hold (at most 64 on verify's
GHZ-product inputs), and returns S with it: the |S| x |S| block rho[S, S],
rows and columns in ascending basis order; the operator is zero outside
it. densify returns the block alone. No operator on the whole joint space
is built or multiplied. The network unitary is a permutation read off the
single-photon element chain, so a port's block sits on rows of the
Hadamard-conjugated operator, and a Hadamard layer's entry is a product of
one 4x4 factor entry per photon digit. So each block is read from
rho[S, S] through the layer's entries on those rows and on S; a mode
without Hadamard layers takes the identity factor.

oracle_run takes rho[S, S] with S, and the protocol Mode: its Hadamard
flag picks the layers and the closing Hadamard of each correction, its
acceptance rule the ports. The caller passes the correction plan, a photon
flip mask per port register like the engine's, applied as an XOR of the
target's index.

The operator is float64 when every member amplitude is real (every GHZ
mixture with +-1 signs), complex128 otherwise; with a real operator and
target, every step of oracle_run stays in float64.

Capacity is capped at 6 photons (joint dimension 4096); this module exists
for cross-validation, not performance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .protocol import CorrectionPlan, Mode, Pattern, check_plan
from .states import Ensemble, PureState, bits, make_ghz_pol

if TYPE_CHECKING:
    import numpy as np

ORACLE_MAX_PHOTONS = 6


def _check_capacity(m: int) -> None:
    if m > ORACLE_MAX_PHOTONS:
        raise ValueError(f"oracle capacity is m <= {ORACLE_MAX_PHOTONS} photons, got m={m}")


def _indices(m: int, *registers):
    """Dense-basis index of labels given register by register: photon-major, each photon's bits in register order, big-endian.

    The registers are ints or numpy integer arrays that broadcast together,
    so one bit-interleave of m x width whole-array steps indexes every label.
    """
    idx = 0
    for k in range(m - 1, -1, -1):
        for register in registers:
            idx = 2 * idx + (register >> k & 1)
    return idx


def _support(states: Sequence[PureState]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every term's dense-basis index and amplitude, state after state, and each state's term count."""
    import numpy as np

    registers = np.array([label for s in states for label in s.terms], dtype=np.intp).T
    amps = np.array([a for s in states for a in s.terms.values()], dtype=complex)
    return _indices(states[0].m, *registers), amps, np.array([len(s.terms) for s in states])


def state_vector(state: PureState) -> np.ndarray:
    """Embed a PureState in the dense basis."""
    import numpy as np

    vec = np.zeros(2 ** (len(state.dofs) * state.m), dtype=complex)
    idx, amp, _ = _support([state])
    vec[idx] = amp
    return vec


def densify(ensemble: Ensemble) -> np.ndarray:
    """Density operator sum_k p_k |k><k| of an ensemble on its support S: rho[S, S] of density_on_support."""
    return density_on_support(ensemble)[0]


def density_on_support(ensemble: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """(rho[S, S], S): the density operator on its support S, the union of the members' term indices, in one pass.

    Rows and columns follow S, ascending; rho is zero outside S. Each pair of a member's terms is one flat
    index pos[row] |S| + pos[col], pos a term's place in S, members in order, written in one scatter;
    np.add.at adds in index order, so an entry that members share sums member by member. float64 when every
    amplitude is real, else complex128.
    """
    import numpy as np

    _check_capacity(ensemble.m)
    idx, amp, counts = _support([s for _, s in ensemble.members])
    support, pos = np.unique(idx, return_inverse=True)  # S, and each term's place in S
    if not amp.imag.any():
        amp = amp.real
    sizes = counts * counts
    start, n = (np.repeat(a, sizes) for a in (np.cumsum(counts) - counts, counts))
    k = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # pair number within its member
    row, col = start + k // n, start + k % n
    weights = np.repeat([p for p, _ in ensemble.members], sizes)
    size = len(support)
    rho = np.zeros((size, size), dtype=amp.dtype)
    np.add.at(rho.reshape(-1), pos[row] * size + pos[col], weights * (amp[row] * amp[col].conj()))
    return rho, support


@functools.cache
def _single_photon_network() -> np.ndarray:
    """One party's gate as chained element matrices on (pol, rail) spaces.

    Rails 0..3 hold, in order: transmitted-from-rail-1, reflected-from-rail-1,
    transmitted-from-rail-2, reflected-from-rail-2.
    """
    import numpy as np

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
        plates[2 * rail : 2 * rail + 2, 2 * rail : 2 * rail + 2] = [[0.0, 1.0], [1.0, 0.0]]
    # displacers: each admits one V rail and one H rail into one port
    merge = np.zeros((4, 8))
    merge[2 * 1 + 0, 2 * 0 + 1] = 1.0  # V on rail 0 -> (V, keep)
    merge[2 * 0 + 0, 2 * 3 + 0] = 1.0  # H on rail 3 -> (H, keep)
    merge[2 * 1 + 1, 2 * 1 + 1] = 1.0  # V on rail 1 -> (V, swap)
    merge[2 * 0 + 1, 2 * 2 + 0] = 1.0  # H on rail 2 -> (H, swap)
    net = merge @ plates @ splitter
    if not _is_permutation(net):
        raise AssertionError("element chain did not compose to a permutation")
    net.flags.writeable = False  # one array for the life of the process
    return net


def _is_permutation(mat: np.ndarray) -> bool:
    import numpy as np

    binary = np.isclose(mat, 0.0) | np.isclose(mat, 1.0)
    return bool(
        binary.all()
        and (np.abs(mat).sum(axis=0) == 1).all()
        and (np.abs(mat).sum(axis=1) == 1).all()
    )


def _kron_all(factors: list[np.ndarray]) -> np.ndarray:
    """Tensor product of per-photon factors, first photon most significant."""
    import numpy as np

    return functools.reduce(np.kron, factors)


def network_unitary(m: int) -> np.ndarray:
    """Full-network permutation unitary on the 4^m joint space."""
    _check_capacity(m)
    return _kron_all([_single_photon_network()] * m)


def _hadamard_2x2() -> np.ndarray:
    import numpy as np

    return np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def hadamard_both_unitary(m: int) -> np.ndarray:
    """Hadamard on every photon's polarization and spatial bits."""
    import numpy as np

    _check_capacity(m)
    h2 = _hadamard_2x2()
    return _kron_all([np.kron(h2, h2)] * m)


def _network_source(m: int) -> np.ndarray:
    """Column of the 1 in each row of network_unitary(m), without building the matrix.

    Row i of the Kronecker product has its 1 where every photon's row of
    the single-photon network has its own, so the column is the per-photon
    permutation combined photon by photon in mixed radix 4, first photon
    most significant. Read off the element chain; oracle_run checks m.
    """
    import numpy as np

    perm = _single_photon_network().argmax(axis=1)
    src = np.zeros(1, dtype=np.intp)
    for _ in range(m):
        src = (4 * src[:, None] + perm).ravel()
    return src


def _layer_entries(factor: np.ndarray, m: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """L[rows, cols] for L = factor^(x m), without building L; rows and cols broadcast as rows[..., None] and cols.

    L[r, s] is the product over photons k of factor[r_k, s_k], r_k and s_k the radix-4 photon digits
    (photon 0 most significant); every photon has the same factor, so they are read low digit first.
    """
    rows = rows[..., None]
    out = 1.0
    for shift in range(0, 2 * m, 2):
        out = out * factor[rows >> shift & 3, cols >> shift & 3]
    return out


def _blocks(dense: np.ndarray, support: np.ndarray, m: int, factor: np.ndarray, ports: list[int]) -> np.ndarray:
    """Each port's block [port, pol, pol] of U L rho L^dagger U^dagger, U the network permutation, L = factor^(x m).

    dense is rho[S, S] on S = ``support``, the basis index of each of its rows and columns, and rho is
    zero outside S. Row i of U has its 1 in column src[i], so a port's block is rows R = src[idx] of
    L rho L^dagger, idx its 2^m basis states, read as L[R, S] dense L[R, S]^dagger: one batched product
    for all ports.
    """
    import numpy as np

    rows = _network_source(m)[_indices(m, np.arange(1 << m), np.array(ports, dtype=np.intp)[:, None])]
    layer = _layer_entries(factor, m, rows, support)  # [port, pol, S]
    return layer @ dense @ layer.conj().swapaxes(1, 2)


@dataclass(frozen=True)
class OracleResult:
    """Same success/fidelity semantics as ProtocolResult, computed densely."""

    success_probability: float
    rejected_probability: float
    output_fidelity: float
    pattern_table: dict[Pattern, tuple[float, float]]


def oracle_run(
    dense: np.ndarray,
    support: np.ndarray,
    m: int,
    mode: Mode,
    corrections: CorrectionPlan,
    target: PureState | None = None,
) -> OracleResult:
    """Run a protocol mode on a joint-state density operator given on the basis indices ``support``.

    Each port accepted by ``mode.rule`` gets its block of U W rho W^dagger
    U^dagger from ``_blocks``, U the network permutation and W the
    Hadamard layer where ``mode.hadamard`` is set, the identity otherwise.
    The port's correction is C = H^(x m) X^mask in a Hadamard mode, else
    X^mask, with the port's flip mask from ``corrections`` (0 if absent),
    which must be an m-bit register as run_general requires.
    v = C^dagger t = X^mask (H^(x m))^dagger t, one vector per call read at
    i ^ mask, is scored as v^dagger block v / prob against the pol target t.
    A float64 operator with a real target runs every step in real arithmetic.
    dense is rho[S, S], rho zero outside S: ``support`` holds the basis
    index S of each of its rows and columns, as density_on_support returns
    them with the operator; np.arange(4**m) gives the full basis.
    """
    import numpy as np

    _check_capacity(m)
    check_plan(corrections, m)
    dim = len(support)
    if dense.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} operator for m={m}, got {dense.shape}")
    if target is None:
        target = make_ghz_pol(m, 0, +1)
    tvec = state_vector(target)
    if dense.dtype == np.float64 and not tvec.imag.any():
        tvec = tvec.real  # a real operator and target: every product below stays real

    accepted = mode.rule.ports(m)
    blocks = _blocks(dense, support, m, hadamard_both_unitary(1) if mode.hadamard else np.eye(4), accepted)
    scored = _kron_all([_hadamard_2x2()] * m).conj().T @ tvec if mode.hadamard else tvec
    grid = np.arange(1 << m)

    table: dict[Pattern, tuple[float, float]] = {}
    success = fidelity_mass = 0.0
    for port, block in zip(accepted, blocks):
        prob = max(float(np.trace(block).real), 0.0)
        if prob < 1e-15:
            continue
        v = scored[grid ^ corrections.get(port, 0)]  # C^dagger t = X^mask (H^(x m))^dagger t
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
