"""Noise channels as explicit mixtures over GHZ components.

Transmission noise is modeled at the state level: a bit-flip error moves
probability weight from the reference GHZ component onto the component with
the flipped photons, and a phase-flip error onto the opposite-sign partner.
The polarization and spatial degrees of freedom degrade independently and
are combined with a tensor-product mixture.

ghz_weights is the one derivation and the one check of a noise list: its
mixture keyed by GHZ (index, sign). The engine input, the closed forms and
the config checks all read it. mix_two is the n = 2 case of mix_general.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

from .states import (
    NORM_TOL,
    SPATIAL,
    Ensemble,
    PureState,
    make_ghz_pol,
    make_ghz_spatial,
    overlap,
    tensor_hyper,
)

POLARIZATION = "polarization"
BIT_FLIP = "bit-flip"
PHASE_FLIP = "phase-flip"

_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class NoiseSpec:
    """One error component: which DOF, which kind, where it lands, how likely.

    ``weight`` is the probability of the error component (1 - F in the usual
    fidelity bookkeeping). For bit-flip errors ``target_index`` is the GHZ
    index the error produces; phase-flip errors land on the sign companion
    of the reference state, so their target_index must stay 0.
    """

    dof: str
    kind: str
    weight: float
    target_index: int = 0

    def __post_init__(self):
        if self.dof not in (POLARIZATION, SPATIAL):
            raise ValueError(f"unknown degree of freedom {self.dof!r}")
        if self.kind not in (BIT_FLIP, PHASE_FLIP):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {self.weight!r}")
        if self.kind == PHASE_FLIP and self.target_index != 0:
            raise ValueError("phase-flip error targets the sign companion; target_index must be 0")


def mix_two(good: PureState, bad: PureState, F: float) -> Ensemble:
    """Two-component mixture {F: good, 1-F: bad}; weights 0/1 collapse to one member."""
    return mix_general((good, bad), (F, 1.0 - F))


def mix_general(states: Sequence[PureState], weights: Sequence[float]) -> Ensemble:
    """Mixture over any number of pairwise-orthogonal states; weights in [0, 1] summing to 1, zeros dropped.

    Its orthogonality check is quadratic in the state count and serves
    direct callers; config inputs (ensemble_from_specs) skip it.
    """
    if len(states) != len(weights):
        raise ValueError(f"{len(states)} states but {len(weights)} weights")
    total = math.fsum(weights)
    if not abs(total - 1.0) <= NORM_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1")
    members = []
    for w, s in zip(weights, states):
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {w!r}")
        if w > 0.0:
            members.append((w, s))
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if abs(overlap(states[i], states[j])) > _ORTHO_TOL:
                warnings.warn("mixing non-orthogonal states; fidelity bookkeeping assumes orthogonality")
    return Ensemble(tuple(members))


def product_ensemble(pol: Ensemble, spatial: Ensemble) -> Ensemble:
    """Independent polarization and spatial mixtures combined into joint states."""
    members = tuple(
        (pw * sw, tensor_hyper(ps, ss))
        for pw, ps in pol.members
        for sw, ss in spatial.members
    )
    return Ensemble(members)


def ghz_weights(m: int, specs: Sequence[NoiseSpec]) -> dict[tuple[int, int], float]:
    """A noise list's mixture keyed by GHZ (index, sign); the reference (0, +) keeps what the errors leave."""
    err_weight = sum(s.weight for s in specs)
    weights = {(0, 1): max(0.0, 1.0 - err_weight)}
    for s in specs:
        if s.kind == BIT_FLIP and not 1 <= s.target_index < 2 ** (m - 1):
            raise ValueError(f"bit-flip target_index {s.target_index} out of range [1, {2 ** (m - 1)}) for m={m}")
        key = (s.target_index, 1) if s.kind == BIT_FLIP else (0, -1)
        if key in weights:
            raise ValueError(f"lists target_index {s.target_index} more than once")
        weights[key] = s.weight
    if err_weight > 1.0 + NORM_TOL:
        raise ValueError(f"error weights sum to {err_weight!r} > 1")
    return weights


def ensemble_from_specs(m: int, dof: str, specs: Sequence[NoiseSpec]) -> Ensemble:
    """Mixture of the reference GHZ state with the listed error components."""
    for spec in specs:
        if spec.dof != dof:
            raise ValueError(f"spec for {spec.dof!r} in the {dof!r} channel")
    maker = make_ghz_pol if dof == POLARIZATION else make_ghz_spatial
    weights = ghz_weights(m, specs)
    return Ensemble(tuple((w, maker(m, i, s)) for (i, s), w in weights.items() if w > 0.0))
