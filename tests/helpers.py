"""Shared test data and independent brute-force utilities.

`brute_vector` re-embeds labeled states into dense vectors with its own
arithmetic so tests that cross-check the package against dense linear
algebra do not reuse the code path under test. Label literals are written
photon by photon, one tuple of bits per photon, and turned into the
package's register labels by `pack`; `unpack` undoes it.
"""

from __future__ import annotations

import numpy as np

from ghzpurify import POL, SPATIAL, PureState

def pack(photons) -> tuple[int, ...]:
    """Register label of a per-photon literal: photon 0 becomes the most significant bit."""
    registers = [0] * len(photons[0])
    for photon in photons:
        for d, bit in enumerate(photon):
            registers[d] = 2 * registers[d] + bit
    return tuple(registers)


def unpack(m: int, label) -> tuple[tuple[int, ...], ...]:
    """Per-photon bit tuples of a register label, photon 0 first."""
    return tuple(tuple((reg >> (m - 1 - k)) & 1 for reg in label) for k in range(m))


# Reference three-photon Hadamard images. Each family below lists four
# sign rows over a fixed ket order; the even-parity kets carry the
# plus-sign GHZ images, the odd-parity kets the minus-sign images.
EVEN_BITS = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
ODD_BITS = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
SIGN_ROWS = [
    (1, 1, 1, 1),
    (1, 1, -1, -1),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
]
# GHZ index i lands on reference row PAIRING[i]; the minus family lands
# there up to the recorded global sign.
PAIRING = {0: 0, 1: 3, 2: 2, 3: 1}
MINUS_GLOBAL_SIGN = {0: 1, 1: -1, 2: 1, 3: -1}


def reference_hadamard_state(row: int, sign: int, dof: str) -> PureState:
    """Row `row` of the reference table for the given GHZ sign family."""
    bits = EVEN_BITS if sign == 1 else ODD_BITS
    terms = {
        pack([(b,) for b in ket]): 0.5 * s
        for ket, s in zip(bits, SIGN_ROWS[row])
    }
    return PureState(3, (dof,), terms)


def scaled(state: PureState, factor: complex) -> PureState:
    if abs(abs(factor) - 1.0) > 1e-12:
        raise ValueError("only phase factors keep the state normalized")
    return PureState(state.m, state.dofs, {k: factor * v for k, v in state.terms.items()})


def brute_vector(state: PureState) -> np.ndarray:
    """Dense embedding of a labeled state, photon-major, bits big-endian."""
    width = len(state.dofs)
    local_dim = 2**width
    vec = np.zeros(local_dim**state.m, dtype=complex)
    for label, amp in state.terms.items():
        index = 0
        for photon in unpack(state.m, label):
            local = 0
            for bit in photon:
                local = 2 * local + bit
            index = index * local_dim + local
        vec[index] += amp
    return vec


def interleave_factors(pol_vec: np.ndarray, spatial_vec: np.ndarray, m: int) -> np.ndarray:
    """Tensor two single-DOF vectors into the photon-interleaved joint basis."""
    out = np.zeros(4**m, dtype=complex)
    for pi in range(2**m):
        if pol_vec[pi] == 0:
            continue
        for si in range(2**m):
            if spatial_vec[si] == 0:
                continue
            joint = 0
            for k in range(m):
                pb = (pi >> (m - 1 - k)) & 1
                sb = (si >> (m - 1 - k)) & 1
                joint = 4 * joint + 2 * pb + sb
            out[joint] = pol_vec[pi] * spatial_vec[si]
    return out


def pol_state_from_string(kets: dict[str, complex]) -> PureState:
    """Build a polarization state from ket strings like 'HVH'."""
    terms = {
        pack([({"H": 0, "V": 1}[c],) for c in ket]): amp for ket, amp in kets.items()
    }
    m = len(next(iter(kets)))
    return PureState(m, (POL,), terms)


def random_joint_state(rng: np.random.Generator, m: int = 3) -> PureState:
    """Haar-ish random state over the joint (pol, spatial) basis."""
    import itertools

    labels = [
        pack(tuple(zip(pol, sp)))
        for pol in itertools.product((0, 1), repeat=m)
        for sp in itertools.product((0, 1), repeat=m)
    ]
    amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    amps /= np.linalg.norm(amps)
    return PureState(m, (POL, SPATIAL), dict(zip(labels, map(complex, amps))))
