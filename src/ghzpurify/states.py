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

States are checked where they enter, not where the engine derives them.
``PureState(...)`` and ``make_state`` check the photon count, the degrees
of freedom, every label and the norm; ``Ensemble(...)`` checks the member
weights and labels. The engine builds what it derives from checked inputs
through the private ``PureState._derived`` and ``Ensemble._derived``, which
neither copy nor check: ``make_ghz_*`` (after their own sign, photon-count
and index checks), ``tensor_hyper`` and ``noise.product_ensemble``, each
accepted port's corrected state and each port's conditional ensemble
(protocol). The invariants hold without the checks. The gate, the photon
flips and the Hadamard layers map m-bit registers to m-bit registers, and
run_general checks that every flip mask of its correction plan is an m-bit
register. A product of normalized factors, or of checked mixtures, is
normalized to within the factors' own error, and each port state is
divided by the square root of its own probability.
"""

from __future__ import annotations

import itertools
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
_BYTE_BITS = tuple(itertools.product((0, 1), repeat=8))  # byte -> its 8 bits, most significant first


def bits(m: int, register: int) -> tuple[int, ...]:
    """Photon-by-photon bits of an m-bit register, photon 0 first: one table lookup per 8 photons."""
    size = (m + 7) >> 3
    out = ()
    for byte in register.to_bytes(size, "big"):
        out += _BYTE_BITS[byte]
    return out[8 * size - m :]


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
        terms = dict(self.terms)
        object.__setattr__(self, "terms", MappingProxyType(terms))
        m, dofs = self.m, self.dofs
        if m < 2:
            raise ValueError(f"photon count must be >= 2, got {m}")
        if not dofs or not all(d in (POL, SPATIAL, PORT) for d in dofs):
            raise ValueError(f"unknown degrees of freedom {dofs!r}")
        if SPATIAL in dofs and PORT in dofs:
            raise ValueError("spatial-mode and port labels cannot coexist")
        # plain loops: a generator per label costs more than the check it runs
        width, size = len(dofs), 1 << m
        for label in terms:
            if len(label) != width:
                raise ValueError(f"malformed label {label} for {m} photons and dofs {dofs}")
            for r in label:
                if type(r) is not int or not 0 <= r < size:
                    raise ValueError(f"malformed label {label} for {m} photons and dofs {dofs}")
        norm = 0
        for amp in terms.values():
            norm += abs(amp) ** 2
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm!r}")

    @classmethod
    def _derived(cls, m: int, dofs: tuple[str, ...], terms: dict[Label, complex]) -> "PureState":
        """A state the engine derived from checked inputs: wraps ``terms`` without copying or checking it."""
        state = object.__new__(cls)
        # attribute by attribute, as the dataclass __init__ sets them: an
        # instance __dict__ touched directly takes about 140 B more per state
        object.__setattr__(state, "m", m)
        object.__setattr__(state, "dofs", dofs)
        object.__setattr__(state, "terms", MappingProxyType(terms))
        return state


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
    return PureState._derived(m, (dof,), terms)


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
    """Joint state of a polarization factor and a spatial-mode factor; product labels are unique, so nothing merges.

    The product is not checked again: its labels pair the factors' in-range
    registers, and its norm is the product of theirs, which can miss 1 by
    up to twice NORM_TOL.
    """
    if pol.m != spatial.m:
        raise ValueError(f"photon counts differ: {pol.m} vs {spatial.m}")
    if pol.dofs != (POL,) or spatial.dofs != (SPATIAL,):
        raise ValueError("tensor_hyper expects a bare polarization state and a bare spatial state")
    # plain loops, each label unpacked in the loop header: cheaper than a comprehension that indexes them
    terms = {}
    for (p,), pa in pol.terms.items():
        for (s,), sa in spatial.terms.items():
            if abs(amp := complex(pa * sa)) > PRUNE_TOL:
                terms[(p, s)] = amp
    return PureState._derived(pol.m, (POL, SPATIAL), terms)


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>, summed left to right over a's terms; fidelity passes the target as a."""
    if a.m != b.m or a.dofs != b.dofs:
        raise ValueError(f"states live on different labels: {a.dofs}/{a.m} vs {b.dofs}/{b.m}")
    return sum((amp.conjugate() * b.terms[lab] for lab, amp in a.terms.items() if lab in b.terms), start=0.0j)


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

    @classmethod
    def _derived(cls, members: tuple[tuple[float, PureState], ...]) -> "Ensemble":
        """A mixture the engine derived from checked inputs: wraps ``members`` without checking it."""
        ensemble = object.__new__(cls)
        object.__setattr__(ensemble, "members", members)
        return ensemble

    @property
    def m(self) -> int:
        return self.members[0][1].m

    @property
    def dofs(self) -> tuple[str, ...]:
        return self.members[0][1].dofs


def fidelity(ensemble: Ensemble, target: PureState) -> float:
    """Overlap probability of a mixture with a pure target: sum_k p_k |<t|k>|^2."""
    # fsum: exactly rounded, so the result ignores member order
    return math.fsum(p * abs(overlap(target, s)) ** 2 for p, s in ensemble.members)
