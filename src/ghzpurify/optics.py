"""Linear-optical elements and the party-local purification gate.

Each party routes its photon through a polarizing beam splitter, two 45deg
half-wave plates, and a pair of beam displacers. The composite action on one
photon is a four-row bijection from (polarization, spatial mode) to
(polarization, detector-port group): the photon exits in the KEEP group
exactly when its polarization bit equals its spatial bit, and its outgoing
polarization is the complement of the spatial bit.

Every bijection of GF(2)^2 is affine over GF(2): each of its two output bits
is 1 on exactly two of the four inputs, and the six such functions of two
bits are p, s, p^s and their complements. So three rows fix the table's
form, out_pol = p a1 ^ s b1 ^ c1 and port = p a2 ^ s b2 ^ c2, and on whole
m-bit registers it is two XOR/AND expressions with masks that are all-zero
or all-one (check_table). The gate itself is out_pol = ~s, port = p ^ s.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .states import (
    H,
    KEEP,
    MODE1,
    MODE2,
    POL,
    PORT,
    PRUNE_TOL,
    SPATIAL,
    SWAP,
    V,
    Label,
    PureState,
    make_state,
)

if TYPE_CHECKING:
    import numpy as np

# The Hadamard coefficient. It rounds one ulp above 1.0 / math.sqrt(2.0), the
# GHZ amplitude in states; the golden records depend on each staying as it is.
_HADAMARD_C = 2.0**-0.5

GateTable = dict[tuple[int, int], tuple[int, int]]

# The oracle derives the same rows from the element matrices
# (oracle._single_photon_network); the tests hold the two together.
GATE_TABLE: GateTable = {
    (H, MODE1): (V, KEEP),
    (V, MODE2): (H, KEEP),
    (V, MODE1): (V, SWAP),
    (H, MODE2): (H, SWAP),
}


_PAIRS = {(p, s) for p in (0, 1) for s in (0, 1)}


def check_table(table: GateTable, m: int) -> tuple[int, int, int, int, int, int]:
    """Refuse a table that is not a bijection; return its affine form as m-bit register masks.

    The masks (a1, b1, c1, a2, b2, c2) give out_pol = pol&a1 ^ spatial&b1 ^ c1
    and port = pol&a2 ^ spatial&b2 ^ c2. They are read off the rows (0, 0),
    (1, 0) and (0, 1); the fourth row follows, since the table is affine.
    """
    if set(table) != _PAIRS or set(table.values()) != _PAIRS:
        raise ValueError("gate table must be a bijection on the four (pol, spatial) pairs")
    (c1, c2), (p1, p2), (s1, s2) = table[(0, 0)], table[(1, 0)], table[(0, 1)]
    full = (1 << m) - 1
    return tuple(full * bit for bit in (p1 ^ c1, s1 ^ c1, c1, p2 ^ c2, s2 ^ c2, c2))


def apply_network(state: PureState, table: GateTable | None = None) -> PureState:
    """Send every photon through the purification gate.

    Amplitudes are untouched, so the map is a permutation of the basis and
    exactly unitary.
    """
    if state.dofs != (POL, SPATIAL):
        raise ValueError(f"network input must carry (pol, spatial) labels, got {state.dofs}")
    a1, b1, c1, a2, b2, c2 = check_table(GATE_TABLE if table is None else table, state.m)
    items = [
        ((pol & a1 ^ spatial & b1 ^ c1, pol & a2 ^ spatial & b2 ^ c2), amp)
        for (pol, spatial), amp in state.terms.items()
    ]
    return make_state(state.m, (POL, PORT), items)


def walsh_hadamard(amps: np.ndarray, m: int) -> None:
    """Hadamard on every photon of the m-bit register that indexes axis 0, in place.

    Photon 0 (the most significant bit) goes first; each step maps the
    amplitude pair (a0, a1) of one photon to (a0 c + a1 c, a0 c - a1 c),
    c = 2**-0.5, so every output is one sum of two products and does not
    depend on the order of the terms. The register is the leading axis so
    that every step works on contiguous runs of at least the row length.
    The array is float64 or complex128: every step works on its float64
    view, so a real array gets the operations a complex one's real parts
    get. The layer ends with ``prune``, as make_state does.
    """
    import numpy as np

    if amps.shape[0] != 1 << m or amps.dtype not in (np.float64, np.complex128) or not amps.flags.c_contiguous:
        raise ValueError(f"expected a C-contiguous float64 or complex128 array with {1 << m} rows")
    scaled = np.empty_like(amps)
    for k in range(m):
        np.multiply(amps.view(np.float64), _HADAMARD_C, out=scaled.view(np.float64))
        halves, out = scaled.reshape(1 << k, 2, -1), amps.reshape(1 << k, 2, -1)
        np.add(halves[:, 0], halves[:, 1], out=out[:, 0])
        np.subtract(halves[:, 0], halves[:, 1], out=out[:, 1])
    prune(amps)


def pair_hadamard(low: np.ndarray, high: np.ndarray, r: int, parity: np.ndarray) -> np.ndarray:
    """walsh_hadamard, in closed form, of an array whose only nonzero rows are r and r ^ (2^m - 1).

    ``low`` and ``high`` are those two rows, r < 2^(m-1), and ``parity[q]``
    is popcount(q) & 1 for every m-bit q. The two rows meet only at the last
    butterfly step, and sign flips commute exactly with the scalings by c,
    so with P the m-fold scaling of walsh_hadamard, row q of its output is
    (-1)^popcount(q & r) (P low + (-1)^popcount(q) P high), bit for bit,
    pruned the same way. Signed zeros follow the butterfly too: it leaves
    every zero part +0.0, except in row 2^m - 1 when r = 0, whose last step
    is P low - (+-P high) with a +0.0 for a zero part of high. Costs
    O(m n + 2^m n) for n columns, not m passes over 2^m n.
    """
    import numpy as np

    size = len(parity)
    m = size.bit_length() - 1
    parts = np.stack((low, high)).view(np.float64)  # as walsh_hadamard, on the float64 view
    for _ in range(m):
        np.multiply(parts, _HADAMARD_C, out=parts)
    x, y = parts
    total, diff = x + y, x - y
    rows = [total + 0.0, diff + 0.0, 0.0 - total, 0.0 - diff]  # each zero part +0.0, as the butterfly leaves it
    kind = parity + 2 * parity[np.arange(size) & r]
    if r == 0:
        rows.append(x - (y + 0.0 if m % 2 else 0.0 - y))
        kind[-1] = 4
    table = np.stack(rows).view(low.dtype)
    prune(table)
    return table[kind]


def prune(amps: np.ndarray) -> None:
    """Zero every amplitude of magnitude at or below PRUNE_TOL, in place, as make_state drops them."""
    import numpy as np

    amps[np.abs(amps) <= PRUNE_TOL] = 0.0


def _hadamard_dof(state: PureState, dof: str) -> PureState:
    """One dense column per value of the other registers, through walsh_hadamard."""
    import numpy as np

    axis = state.dofs.index(dof)
    rests: dict[Label, int] = {}
    regs, cols = [], []
    for label in state.terms:
        regs.append(label[axis])
        cols.append(rests.setdefault(label[:axis] + label[axis + 1 :], len(rests)))
    amps = np.zeros((1 << state.m, len(rests)), dtype=complex)
    amps[regs, cols] = list(state.terms.values())
    walsh_hadamard(amps, state.m)
    reg_of, col_of = np.nonzero(amps)
    rest_of = list(rests)
    items = [
        (rest_of[c][:axis] + (reg,) + rest_of[c][axis:], amp)
        for reg, c, amp in zip(reg_of.tolist(), col_of.tolist(), amps[reg_of, col_of].tolist())
    ]
    return make_state(state.m, state.dofs, items)


def hadamard_pol(state: PureState) -> PureState:
    """Half-wave plate at 22.5deg on every photon: H -> (H+V)/sqrt2, V -> (H-V)/sqrt2."""
    if POL not in state.dofs:
        raise ValueError("state carries no polarization labels")
    return _hadamard_dof(state, POL)


def hadamard_spatial(state: PureState) -> PureState:
    """50:50 beam splitter on every photon's two rails; involutive like hadamard_pol."""
    if SPATIAL not in state.dofs:
        raise ValueError("state carries no spatial-mode labels")
    return _hadamard_dof(state, SPATIAL)


def bit_flip_pol(state: PureState, mask: int) -> PureState:
    """Flip the polarization bit of the photons set in an m-bit mask (photon 0 the most significant bit)."""
    if POL not in state.dofs:
        raise ValueError("state carries no polarization labels")
    if not 0 <= mask < 1 << state.m:
        raise ValueError(f"flip mask {mask} out of range for m={state.m}")
    if not mask:
        return state
    axis = state.dofs.index(POL)
    items = [
        (label[:axis] + (label[axis] ^ mask,) + label[axis + 1 :], amp)
        for label, amp in state.terms.items()
    ]
    return make_state(state.m, state.dofs, items)
