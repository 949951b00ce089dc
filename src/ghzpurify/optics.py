"""Linear-optical elements and the party-local purification gate.

Each party routes its photon through a polarizing beam splitter, two 45deg
half-wave plates, and a pair of beam displacers. The composite action on one
photon is a four-row bijection from (polarization, spatial mode) to
(polarization, detector-port group): the photon exits in the KEEP group
exactly when its polarization bit equals its spatial bit, and its outgoing
polarization is the complement of the spatial bit.
"""

from __future__ import annotations

from .states import (
    H,
    KEEP,
    MODE1,
    MODE2,
    POL,
    PORT,
    SPATIAL,
    SWAP,
    V,
    Label,
    PureState,
    make_state,
)

GateTable = dict[tuple[int, int], tuple[int, int]]

# The oracle derives the same rows from the element matrices
# (oracle._single_photon_network); the tests hold the two together.
GATE_TABLE: GateTable = {
    (H, MODE1): (V, KEEP),
    (V, MODE2): (H, KEEP),
    (V, MODE1): (V, SWAP),
    (H, MODE2): (H, SWAP),
}


def _check_table(table: GateTable) -> None:
    if set(table) != {(p, s) for p in (0, 1) for s in (0, 1)} or len(set(table.values())) != 4:
        raise ValueError("gate table must be a bijection on the four (pol, spatial) pairs")


def apply_network(state: PureState, table: GateTable | None = None) -> PureState:
    """Send every photon through the purification gate.

    Basis labels are rewritten row by row; amplitudes are untouched, so the
    map is a permutation of the basis and exactly unitary.
    """
    if state.dofs != (POL, SPATIAL):
        raise ValueError(f"network input must carry (pol, spatial) labels, got {state.dofs}")
    rows = GATE_TABLE if table is None else table
    _check_table(rows)
    items = [
        (tuple(rows[photon] for photon in label), amp)
        for label, amp in state.terms.items()
    ]
    return make_state(state.m, (POL, PORT), items)


def _hadamard_dof(state: PureState, dof: str) -> PureState:
    axis = state.dofs.index(dof)
    inv_sqrt2 = 2.0 ** -0.5
    terms: dict[Label, complex] = dict(state.terms)
    for k in range(state.m):
        split: dict[Label, complex] = {}
        for label, amp in terms.items():
            photon = label[k]
            b = photon[axis]
            for nb in (0, 1):
                coeff = -inv_sqrt2 if (b == 1 and nb == 1) else inv_sqrt2
                new_photon = photon[:axis] + (nb,) + photon[axis + 1 :]
                new_label = label[:k] + (new_photon,) + label[k + 1 :]
                split[new_label] = split.get(new_label, 0.0j) + amp * coeff
        terms = split
    return make_state(state.m, state.dofs, terms.items())


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


def bit_flip_pol(state: PureState, photons) -> PureState:
    """Flip the polarization bit of the selected photons (0-based indices)."""
    if POL not in state.dofs:
        raise ValueError("state carries no polarization labels")
    chosen = frozenset(photons)
    for k in chosen:
        if not 0 <= k < state.m:
            raise ValueError(f"photon index {k} out of range for m={state.m}")
    if not chosen:
        return state
    axis = state.dofs.index(POL)
    items = []
    for label, amp in state.terms.items():
        new_label = tuple(
            photon[:axis] + (1 - photon[axis],) + photon[axis + 1 :] if k in chosen else photon
            for k, photon in enumerate(label)
        )
        items.append((new_label, amp))
    return make_state(state.m, state.dofs, items)
