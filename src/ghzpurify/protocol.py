"""Purification protocol runs: post-selection on detector ports, corrections, fidelity.

Pipeline for every mode: (optional Hadamard layers) -> purification gate on
each photon -> group the outgoing amplitudes by detector-port pattern ->
keep the accepted patterns -> apply the pattern's correction -> report the
polarization mixture, its fidelity against the target GHZ state, and the
total accepted probability.

Port patterns are tuples with one bit per photon, 0 = KEEP group, 1 = SWAP
group. Bit-flip mode accepts the two unanimous patterns; phase-flip mode
accepts every pattern with an even number of SWAP photons; general mode
accepts everything and relies on per-pattern corrections.

MODES is the one table of the configured modes: the pipeline's per-mode
choices, the noise a config may list, the closed form and the verify input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .noise import BIT_FLIP, PHASE_FLIP, mix_general, mix_two, product_ensemble
from .optics import GateTable, apply_network, bit_flip_pol, hadamard_pol, hadamard_spatial
from .states import (
    POL,
    SPATIAL,
    Ensemble,
    Label,
    PureState,
    bits,
    fidelity,
    make_ghz_pol,
    make_ghz_spatial,
)

Pattern = tuple[int, ...]


def all_patterns(m: int) -> list[Pattern]:
    return [bits(m, register) for register in range(2**m)]


def swap_count(pattern: Pattern) -> int:
    return sum(pattern)


@dataclass(frozen=True)
class AcceptanceRule:
    """Which port patterns count as success for a protocol mode."""

    mode: str

    _MODES = ("bitflip", "phaseflip", "general")

    def __post_init__(self):
        if self.mode not in self._MODES:
            raise ValueError(f"unknown acceptance mode {self.mode!r}")

    def accepts(self, pattern: Pattern) -> bool:
        count = swap_count(pattern)
        if self.mode == "bitflip":
            return count == 0 or count == len(pattern)
        if self.mode == "phaseflip":
            return count % 2 == 0
        return True


@dataclass(frozen=True)
class Correction:
    """Deterministic fix-up applied to a pattern's polarization state.

    Bit flips come first (0-based photon indices), then an optional
    Hadamard on every photon.
    """

    flips: frozenset[int] = frozenset()
    hadamard: bool = False

    def apply(self, state: PureState) -> PureState:
        out = bit_flip_pol(state, self.flips) if self.flips else state
        return hadamard_pol(out) if self.hadamard else out


IDENTITY_CORRECTION = Correction()

CorrectionPlan = Mapping[Pattern, Correction]


def phaseflip_plan(m: int) -> dict[Pattern, Correction]:
    """Flip every photon, then Hadamard every photon, on each accepted pattern."""
    everything = frozenset(range(m))
    return {
        pat: Correction(flips=everything, hadamard=True)
        for pat in all_patterns(m)
        if swap_count(pat) % 2 == 0
    }


def _ghz_product_parts(state: PureState) -> tuple[int, int]:
    """Recover (pol flip register, spatial flip register) of a GHZ x GHZ product."""
    if state.dofs != (POL, SPATIAL):
        raise ValueError("expected a joint (pol, spatial) state")
    full = (1 << state.m) - 1
    e = min(pol for pol, _ in state.terms)
    f = min(sp for _, sp in state.terms)
    if set(state.terms) != {(a, b) for a in (e, e ^ full) for b in (f, f ^ full)}:
        raise ValueError("member is not a product of two GHZ components; pass an explicit plan")
    return e, f


def infer_flip_plan(ensemble: Ensemble) -> dict[Pattern, Correction]:
    """Derive the correction each port pattern needs from the noise support.

    The pattern produced by a (pol error e, spatial error f) branch is the
    photon-wise XOR of the two flip patterns (or its complement), and the
    surviving polarization state is the GHZ component of f alone. Whenever a
    pattern identifies f unambiguously among the branches present in the
    input, flipping f's photons restores the reference GHZ state; ambiguous
    patterns are left uncorrected (they carry a genuine mixture that no
    unitary can unmix).
    """
    m = ensemble.m
    full = (1 << m) - 1
    f_classes: dict[int, set[int]] = {}  # port register -> lower of f and its complement
    for _, member in ensemble.members:
        e, f = _ghz_product_parts(member)
        for pat in (e ^ f, e ^ f ^ full):
            f_classes.setdefault(pat, set()).add(f)
    plan: dict[Pattern, Correction] = {}
    for pat, classes in f_classes.items():
        if len(classes) != 1:
            continue
        (f,) = classes
        rep = min(f, f ^ full, key=lambda r: (r.bit_count(), r))
        if rep:
            plan[bits(m, pat)] = Correction(flips=frozenset(k for k, b in enumerate(bits(m, rep)) if b))
    return plan


@dataclass(frozen=True)
class PatternOutcome:
    probability: float
    ensemble: Ensemble
    fidelity: float


@dataclass(frozen=True)
class ProtocolResult:
    """Accepted-pattern table plus the merged success/fidelity figures."""

    accepted: Mapping[Pattern, PatternOutcome]
    success_probability: float
    rejected_probability: float
    output_fidelity: float
    target: PureState

    def __post_init__(self):
        object.__setattr__(self, "accepted", MappingProxyType(dict(self.accepted)))


def merged_fidelity(result: ProtocolResult, target: PureState) -> float:
    """Fidelity of the pattern-merged output mixture against any pol target."""
    mass = sum(
        outcome.probability * fidelity(outcome.ensemble, target)
        for outcome in result.accepted.values()
    )
    return mass / result.success_probability


def _split_by_pattern(state: PureState) -> dict[Pattern, tuple[float, PureState]]:
    """Marginalize a (pol, port) state over port patterns.

    Returns, per pattern with nonzero probability, the probability and the
    renormalized conditional polarization state.
    """
    groups: dict[int, dict[Label, complex]] = {}
    for (pol, port), amp in state.terms.items():
        groups.setdefault(port, {})[(pol,)] = amp
    out = {}
    for port, terms in groups.items():
        prob = sum(abs(a) ** 2 for a in terms.values())
        scale = prob**-0.5
        cond = PureState(state.m, (POL,), {lab: a * scale for lab, a in terms.items()})
        out[bits(state.m, port)] = (prob, cond)
    return out


def _execute(
    ensemble: Ensemble,
    rule: AcceptanceRule,
    plan: CorrectionPlan,
    target: PureState | None,
    hadamard_first: bool,
    gate_table: GateTable | None,
) -> ProtocolResult:
    if ensemble.dofs != (POL, SPATIAL):
        raise ValueError(f"protocol input must carry (pol, spatial) labels, got {ensemble.dofs}")
    m = ensemble.m
    if target is None:
        target = make_ghz_pol(m, 0, +1)
    if target.m != m or target.dofs != (POL,):
        raise ValueError("target must be a bare polarization state on the same photons")

    buckets: dict[Pattern, list[tuple[float, PureState]]] = {}
    for weight, member in ensemble.members:
        state = member
        if hadamard_first:
            state = hadamard_spatial(hadamard_pol(state))
        routed = apply_network(state, gate_table)
        for pattern, (cond_prob, cond_state) in _split_by_pattern(routed).items():
            if not rule.accepts(pattern):
                continue
            buckets.setdefault(pattern, []).append((weight * cond_prob, cond_state))

    # fsum reductions keep results independent of member order
    accepted_mass = math.fsum(w for entries in buckets.values() for w, _ in entries)
    if accepted_mass <= 0.0:
        raise ValueError("no accepted port pattern carries probability; fidelity undefined")

    accepted: dict[Pattern, PatternOutcome] = {}
    fidelity_terms = []
    for pattern in sorted(buckets):
        entries = buckets[pattern]
        pattern_prob = math.fsum(w for w, _ in entries)
        correction = plan.get(pattern, IDENTITY_CORRECTION)
        members = tuple((w / pattern_prob, correction.apply(s)) for w, s in entries)
        cond_ensemble = Ensemble(members)
        cond_fidelity = fidelity(cond_ensemble, target)
        accepted[pattern] = PatternOutcome(pattern_prob, cond_ensemble, cond_fidelity)
        fidelity_terms.append(pattern_prob * cond_fidelity)

    return ProtocolResult(
        accepted=accepted,
        success_probability=accepted_mass,
        rejected_probability=1.0 - accepted_mass,
        output_fidelity=math.fsum(fidelity_terms) / accepted_mass,
        target=target,
    )


def run_bitflip(
    ensemble: Ensemble,
    target: PureState | None = None,
    gate_table: GateTable | None = None,
) -> ProtocolResult:
    """Bit-flip purification: keep the unanimous port patterns, no corrections."""
    return MODES["bitflip"].run(ensemble, target, gate_table)


def run_phaseflip(
    ensemble: Ensemble,
    target: PureState | None = None,
    gate_table: GateTable | None = None,
) -> ProtocolResult:
    """Phase-flip purification via Hadamard layers on both degrees of freedom.

    Even-swap patterns are kept; each is corrected by flipping every photon
    and applying one more polarization Hadamard, which lands the surviving
    branches back on the reference GHZ state and its sign companion.
    """
    return MODES["phaseflip"].run(ensemble, target, gate_table)


def run_general(
    ensemble: Ensemble,
    corrections: CorrectionPlan | None = None,
    acceptance: AcceptanceRule | None = None,
    target: PureState | None = None,
    gate_table: GateTable | None = None,
) -> ProtocolResult:
    """General mode: accept everything (by default) and correct per pattern.

    With ``corrections=None`` the plan is inferred from the input's noise
    support (see infer_flip_plan); pass an explicit mapping, possibly empty,
    to override.
    """
    mode = MODES["deterministic-demo"]
    plan = mode.plan(ensemble) if corrections is None else corrections
    return _execute(ensemble, acceptance or mode.rule, plan, target, mode.hadamard, gate_table)


def closed_form_success_pair(fa: float, fb: float) -> float:
    """Accepted-probability formula for two-component mixtures: FaFb + (1-Fa)(1-Fb)."""
    _check_unit_interval(fa, fb)
    return fa * fb + (1.0 - fa) * (1.0 - fb)


def closed_form_fidelity_pair(fa: float, fb: float) -> float:
    """Post-selected fidelity for two-component mixtures: FaFb / (FaFb + (1-Fa)(1-Fb))."""
    _check_unit_interval(fa, fb)
    denom = closed_form_success_pair(fa, fb)
    if denom == 0.0:
        raise ValueError(f"degenerate pair ({fa}, {fb}): nothing is accepted")
    return fa * fb / denom


def closed_form_fidelity_general(
    pol_weights: Sequence[float], spatial_weights: Sequence[float]
) -> tuple[float, ...]:
    """Matched-pattern output weights for paired multi-component mixtures.

    Component i of the output carries weight w_i u_i / sum_j w_j u_j, where
    w and u are the polarization and spatial input weight vectors.
    """
    if len(pol_weights) != len(spatial_weights):
        raise ValueError("weight vectors differ in length")
    for vec in (pol_weights, spatial_weights):
        total = sum(vec)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")
    products = [w * u for w, u in zip(pol_weights, spatial_weights)]
    denom = sum(products)
    if denom == 0.0:
        raise ValueError("all matched products vanish; nothing is accepted")
    return tuple(p / denom for p in products)


def closed_form_success_general(
    pol_weights: Sequence[float], spatial_weights: Sequence[float]
) -> float:
    """Accepted probability on the unanimous patterns for paired mixtures."""
    if len(pol_weights) != len(spatial_weights):
        raise ValueError("weight vectors differ in length")
    return sum(w * u for w, u in zip(pol_weights, spatial_weights))


def _check_unit_interval(*values: float) -> None:
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"fidelity weight {v!r} outside [0, 1]")


# ------------------------------------------------------------------ mode table

GhzWeights = Mapping[tuple[int, int], float]  # GHZ (index, sign) -> weight
EQUAL, DISTINCT = "equal", "distinct"


@dataclass(frozen=True)
class Mode:
    """One configured protocol mode: how it runs, what noise it admits, what it predicts.

    ``pairing``: None admits any number of error components per degree of
    freedom, EQUAL at most one each on one GHZ index, DISTINCT one each on
    different indices. ``closed_form(m, pol, spatial)`` maps GHZ-diagonal
    input weights to output weights and the success probability.
    """

    rule: AcceptanceRule
    hadamard: bool
    plan: Callable[[Ensemble], CorrectionPlan]
    noise_kind: str
    pairing: str | None
    closed_form: Callable[[int, GhzWeights, GhzWeights], tuple[dict[tuple[int, int], float], float]]
    verify_input: Callable[[int, float, float], Ensemble]
    label: str = ""  # name on verify's report, where it differs from the config name
    lists_components: bool = False  # records list every closed-form (index, +) weight
    min_m: int = 2  # smallest photon count verify_input can build

    def run(
        self, ensemble: Ensemble, target: PureState | None = None, gate_table: GateTable | None = None
    ) -> ProtocolResult:
        return _execute(ensemble, self.rule, self.plan(ensemble), target, self.hadamard, gate_table)


def _pair_closed_form(m: int, pol: GhzWeights, spatial: GhzWeights):
    """One error component per degree of freedom, on the same GHZ component."""
    fa, fb = pol[(0, 1)], spatial[(0, 1)]
    success = closed_form_success_pair(fa, fb)
    weights = {(0, 1): closed_form_fidelity_pair(fa, fb)}
    for key in (pol.keys() | spatial.keys()) - {(0, 1)}:
        weights[key] = (1.0 - fa) * (1.0 - fb) / success
    return weights, success


def _matched_closed_form(m: int, pol: GhzWeights, spatial: GhzWeights):
    w, u = ([x.get((i, 1), 0.0) for i in range(2 ** (m - 1))] for x in (pol, spatial))
    components = closed_form_fidelity_general(w, u)
    return {(i, 1): c for i, c in enumerate(components)}, closed_form_success_general(w, u)


def _pair_input(m: int, pol_error: tuple[int, int], spatial_error: tuple[int, int], f1: float, f2: float):
    """Reference GHZ state mixed with one error component (index, sign) per degree of freedom."""
    pol = mix_two(make_ghz_pol(m, 0), make_ghz_pol(m, *pol_error), f1)
    spatial = mix_two(make_ghz_spatial(m, 0), make_ghz_spatial(m, *spatial_error), f2)
    return product_ensemble(pol, spatial)


def _four_component_input(m: int, f1: float, f2: float) -> Ensemble:
    """Up to four GHZ components per degree of freedom; the errors share 1 - F evenly."""
    count = min(4, 2 ** (m - 1))

    def mixture(maker, f):
        return mix_general([maker(m, i) for i in range(count)], [f] + [(1.0 - f) / (count - 1)] * (count - 1))

    return product_ensemble(mixture(make_ghz_pol, f1), mixture(make_ghz_spatial, f2))


# Plans are looked up by name at call time, so wrappers installed on the
# module (tracing) see every call.
MODES: Mapping[str, Mode] = MappingProxyType({
    "bitflip": Mode(
        AcceptanceRule("bitflip"), hadamard=False, plan=lambda ensemble: {},
        noise_kind=BIT_FLIP, pairing=EQUAL, closed_form=_pair_closed_form,
        verify_input=lambda m, f1, f2: _pair_input(m, (1, 1), (1, 1), f1, f2),
    ),
    "phaseflip": Mode(
        AcceptanceRule("phaseflip"), hadamard=True, plan=lambda ensemble: phaseflip_plan(ensemble.m),
        noise_kind=PHASE_FLIP, pairing=EQUAL, closed_form=_pair_closed_form,
        verify_input=lambda m, f1, f2: _pair_input(m, (0, -1), (0, -1), f1, f2),
    ),
    "general": Mode(
        AcceptanceRule("bitflip"), hadamard=False, plan=lambda ensemble: {},
        noise_kind=BIT_FLIP, pairing=None, closed_form=_matched_closed_form,
        verify_input=_four_component_input, lists_components=True,
    ),
    "deterministic-demo": Mode(
        AcceptanceRule("general"), hadamard=False, plan=lambda ensemble: infer_flip_plan(ensemble),
        noise_kind=BIT_FLIP, pairing=DISTINCT, closed_form=lambda m, pol, spatial: ({(0, 1): 1.0}, 1.0),
        verify_input=lambda m, f1, f2: _pair_input(m, (1, 1), (2, 1), f1, f2), label="deterministic", min_m=3,
    ),
})
