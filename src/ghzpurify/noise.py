"""Noise channels as explicit mixtures over GHZ components.

Transmission noise is modeled at the state level: a bit-flip error moves
probability weight from the reference GHZ component onto the component with
the flipped photons, and a phase-flip error onto the opposite-sign partner.
The polarization and spatial degrees of freedom degrade independently and
are combined with a tensor-product mixture, which stays factored: a
ProductEnsemble keeps its two checked mixtures and builds the joint members
only when something reads them, and protocol's run builds only the pairs
whose port class its rule can accept.

ghz_weights is the one derivation and the one check of a noise list: its
mixture keyed by GHZ (index, sign). The engine input, the closed forms and
the config checks all read it. mix_two is the n = 2 case of mix_general.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .states import (
    NORM_TOL,
    POL,
    SPATIAL,
    Ensemble,
    PureState,
    make_ghz_pol,
    make_ghz_spatial,
    overlap,
    tensor_hyper,
)

BIT_FLIP = "bit-flip"
PHASE_FLIP = "phase-flip"

_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class NoiseSpec:
    """One error component: which kind, where it lands, how likely.

    The noise list that holds it names its degree of freedom. ``weight`` is
    the probability of the error component (1 - F in the usual fidelity
    bookkeeping). For bit-flip errors ``target_index`` is the GHZ
    index the error produces; phase-flip errors land on the sign companion
    of the reference state, so their target_index must stay 0.
    """

    kind: str
    weight: float
    target_index: int = 0

    def __post_init__(self):
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
    for i, a in enumerate(states):
        for b in states[i + 1 :]:
            # states on the same labels with no label in common have overlap exactly 0
            if a.m == b.m and a.dofs == b.dofs and a.terms.keys().isdisjoint(b.terms):
                continue
            if abs(overlap(a, b)) > _ORTHO_TOL:
                warnings.warn("mixing non-orthogonal states; fidelity bookkeeping assumes orthogonality")
    return Ensemble(tuple(members))


class ProductEnsemble(Ensemble):
    """The mixture of a polarization and a spatial mixture that degrade independently: pol x spatial.

    It refuses factors on other photon counts or labels, as tensor_hyper
    does, keeps them, and builds ``members`` on first read: pair (i, j) of
    pol member i and spatial member j is (w_i u_j, tensor_hyper(pol_i,
    spatial_j)), pol-major. ``select`` builds the members of chosen pairs
    alone, in that order; protocol's run takes it on every product. The
    product is not checked again, as tensor_hyper's is not: each mixture
    passed its own check, so the product weights are positive and sum to 1
    within about twice NORM_TOL.
    """

    dofs = (POL, SPATIAL)

    def __init__(self, pol: Ensemble, spatial: Ensemble):
        if pol.m != spatial.m:
            raise ValueError(f"photon counts differ: {pol.m} vs {spatial.m}")
        if pol.dofs != (POL,) or spatial.dofs != (SPATIAL,):
            raise ValueError("tensor_hyper expects a bare polarization state and a bare spatial state")
        object.__setattr__(self, "factors", (pol, spatial))

    @property
    def m(self) -> int:
        return self.factors[0].m

    @cached_property
    def members(self) -> tuple[tuple[float, PureState], ...]:
        pol, spatial = self.factors
        return self.select([spatial.members] * len(pol.members))

    def select(self, spatial_of) -> tuple[tuple[float, PureState], ...]:
        """The members of the pairs of each pol member i with the spatial members spatial_of[i], in member order.

        spatial_of[i] lists spatial members, (weight, state), in their order.
        A product weight that underflows to 0 drops its pair, as mix_general
        drops a zero weight.
        """
        return tuple(
            (w, tensor_hyper(ps, ss))
            for (pw, ps), chosen in zip(self.factors[0].members, spatial_of)
            for sw, ss in chosen
            if (w := pw * sw) > 0.0
        )


def product_ensemble(pol: Ensemble, spatial: Ensemble) -> ProductEnsemble:
    """Independent polarization and spatial mixtures combined into joint states, built when read (ProductEnsemble)."""
    return ProductEnsemble(pol, spatial)


def ghz_weights(m: int, specs: Sequence[NoiseSpec]) -> dict[tuple[int, int], float]:
    """A noise list's mixture keyed by GHZ (index, sign); the reference (0, +) keeps what the errors leave."""
    err_weight = math.fsum(s.weight for s in specs)
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
    """Mixture of the reference GHZ state with the listed error components on ``dof`` (POL or SPATIAL)."""
    if dof not in (POL, SPATIAL):
        raise ValueError(f"unknown degree of freedom {dof!r}")
    maker = make_ghz_pol if dof == POL else make_ghz_spatial
    weights = ghz_weights(m, specs)
    return Ensemble(tuple((w, maker(m, i, s)) for (i, s), w in weights.items() if w > 0.0))
