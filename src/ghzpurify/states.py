"""Labeled photonic basis states, GHZ-family constructors, ensembles, fidelity.

Each photon carries one bit per degree of freedom:

- polarization: H = 0, V = 1
- spatial mode: the photon's two input rails, MODE1 = 0, MODE2 = 1
- detector port group (after the purification gate): KEEP = 0, SWAP = 1

A basis label is a tuple with one m-bit integer register per entry of the
state's ``dofs``; bit m-1-k of a register is photon k's bit, so photon 0 is
the most significant bit. ``bits`` spells a register out photon by photon.
Amplitudes are complex, states are kept normalized, and every value is
immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

H, V = 0, 1
MODE1, MODE2 = 0, 1
KEEP, SWAP = 0, 1

POL = "pol"
SPATIAL = "spatial"
PORT = "port"

NORM_TOL = 1e-12
PRUNE_TOL = 1e-14

Label = tuple[int, ...]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def bits(m: int, register: int) -> tuple[int, ...]:
    """Photon-by-photon bits of an m-bit register, photon 0 first."""
    return tuple((register >> (m - 1 - k)) & 1 for k in range(m))


@dataclass(frozen=True)
class PureState:
    """Normalized superposition of labeled basis terms over m photons.

    ``dofs`` names the degree of freedom held by each register of a label,
    e.g. ``("pol",)`` for a bare polarization state, ``("pol", "spatial")``
    before the purification gate, ``("pol", "port")`` after it.
    """

    m: int
    dofs: tuple[str, ...]
    terms: Mapping[Label, complex]

    def __post_init__(self):
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))
        if self.m < 2:
            raise ValueError(f"photon count must be >= 2, got {self.m}")
        if not self.dofs or any(d not in (POL, SPATIAL, PORT) for d in self.dofs):
            raise ValueError(f"unknown degrees of freedom {self.dofs!r}")
        if SPATIAL in self.dofs and PORT in self.dofs:
            raise ValueError("spatial-mode and port labels cannot coexist")
        width, size = len(self.dofs), 1 << self.m
        for label in self.terms:
            if len(label) != width or any(type(r) is not int or not 0 <= r < size for r in label):
                raise ValueError(f"malformed label {label} for {self.m} photons and dofs {self.dofs}")
        norm = sum(abs(a) ** 2 for a in self.terms.values())
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm!r}")

    def amplitude(self, label: Label) -> complex:
        return self.terms.get(label, 0.0j)


def make_state(m: int, dofs: Iterable[str], items: Iterable[tuple[Label, complex]]) -> PureState:
    """Build a PureState, merging duplicate labels and pruning dead terms.

    Amplitudes on duplicate labels add, so exactly cancelling interference
    drops out; anything below PRUNE_TOL in magnitude is removed.
    """
    merged: dict[Label, complex] = {}
    for label, amp in items:
        merged[label] = merged.get(label, 0.0j) + complex(amp)
    pruned = {lab: amp for lab, amp in merged.items() if abs(amp) > PRUNE_TOL}
    return PureState(m, tuple(dofs), pruned)


def _ghz(m: int, index: int, sign: int, dof: str) -> PureState:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if m < 2:
        raise ValueError(f"photon count must be >= 2, got {m}")
    if not 0 <= index < 2 ** (m - 1):
        raise ValueError(f"GHZ index {index} out of range [0, {2 ** (m - 1)}) for m={m}")
    terms = {(index,): complex(_INV_SQRT2), (index ^ ((1 << m) - 1),): complex(sign * _INV_SQRT2)}
    return PureState(m, (dof,), terms)


def make_ghz_pol(m: int, index: int, sign: int = 1) -> PureState:
    """m-photon polarization GHZ state (|e> + sign |ebar>)/sqrt(2).

    ``e`` is the register equal to ``index`` (its set bits are the V
    photons, least significant bit = last photon) and ``ebar`` its
    complement.
    """
    return _ghz(m, index, sign, POL)


def make_ghz_spatial(m: int, index: int, sign: int = 1) -> PureState:
    """m-photon spatial-mode GHZ state; same indexing as make_ghz_pol."""
    return _ghz(m, index, sign, SPATIAL)


def tensor_hyper(pol: PureState, spatial: PureState) -> PureState:
    """Joint state of a polarization factor and a spatial-mode factor; product labels are unique, so nothing merges."""
    if pol.m != spatial.m:
        raise ValueError(f"photon counts differ: {pol.m} vs {spatial.m}")
    if pol.dofs != (POL,) or spatial.dofs != (SPATIAL,):
        raise ValueError("tensor_hyper expects a bare polarization state and a bare spatial state")
    terms = {
        (plab[0], slab[0]): amp
        for plab, pa in pol.terms.items()
        for slab, sa in spatial.terms.items()
        if abs(amp := complex(pa * sa)) > PRUNE_TOL
    }
    return PureState(pol.m, (POL, SPATIAL), terms)


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>."""
    if a.m != b.m or a.dofs != b.dofs:
        raise ValueError(f"states live on different labels: {a.dofs}/{a.m} vs {b.dofs}/{b.m}")
    if len(a.terms) <= len(b.terms):
        return sum(
            (amp.conjugate() * b.terms[lab] for lab, amp in a.terms.items() if lab in b.terms),
            start=0.0j,
        )
    return sum(
        (a.terms[lab].conjugate() * amp for lab, amp in b.terms.items() if lab in a.terms),
        start=0.0j,
    )


def states_close(a: PureState, b: PureState, tol: float = NORM_TOL, global_phase: bool = False) -> bool:
    """Term-by-term amplitude equality; optionally modulo a global phase."""
    if a.m != b.m or a.dofs != b.dofs:
        return False
    if global_phase:
        return abs(abs(overlap(a, b)) - 1.0) <= tol
    labels = set(a.terms) | set(b.terms)
    return all(abs(a.amplitude(l) - b.amplitude(l)) <= tol for l in labels)


@dataclass(frozen=True)
class Ensemble:
    """Probability-weighted mixture of pure states (all same m and dofs)."""

    members: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("ensemble has no members")
        m, dofs = self.members[0][1].m, self.members[0][1].dofs
        for prob, state in self.members:
            if not prob > 0.0:
                raise ValueError(f"member probability must be positive, got {prob!r}")
            if state.m != m or state.dofs != dofs:
                raise ValueError("ensemble members disagree on photon count or labels")
        # fsum: a naive sum of 160 000 product weights drifts past NORM_TOL
        total = math.fsum(prob for prob, _ in self.members)
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValueError(f"member probabilities sum to {total!r}, not 1")

    @property
    def m(self) -> int:
        return self.members[0][1].m

    @property
    def dofs(self) -> tuple[str, ...]:
        return self.members[0][1].dofs

    @classmethod
    def pure(cls, state: PureState) -> "Ensemble":
        return cls(((1.0, state),))


def fidelity(ensemble: Ensemble, target: PureState) -> float:
    """Overlap probability of a mixture with a pure target: sum_k p_k |<t|k>|^2."""
    # fsum: exactly rounded, so the result ignores member order
    return math.fsum(p * abs(overlap(target, s)) ** 2 for p, s in ensemble.members)
