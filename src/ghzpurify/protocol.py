"""Purification protocol runs: post-selection on detector ports, corrections, fidelity.

Pipeline for every mode: (optional Hadamard layers) -> purification gate on
each photon -> group the outgoing amplitudes by detector-port pattern ->
keep the accepted patterns -> flip the photons set in the pattern's mask,
then, in a Hadamard mode, apply one more polarization Hadamard -> report
the polarization mixture, its fidelity against the target GHZ state, and
the total accepted probability. Members of modes without Hadamard layers
stay sparse labeled states of 4 terms, and their step (_split_by_pattern)
routes each (pol, spatial) register pair straight to its (pol, port) pair:
the gate is a bijection, so no routed state is built. After the layers a
member holds 4^(m-1) terms, so Hadamard modes run every stage on dense
register arrays (_dense_split). Both steps return only the accepted ports.
The gate table is checked once per run, before either step is built.

A port pattern is the port register: one bit per photon, photon 0 the
most significant, 0 = KEEP group, 1 = SWAP group. Acceptance rules,
correction plans and the per-pattern buckets all key on it; only
ProtocolResult.accepted spells each accepted register out as a Pattern
tuple (states.bits). Bit-flip mode accepts the two unanimous patterns;
phase-flip mode accepts every pattern with an even number of SWAP photons;
general mode accepts everything and relies on per-pattern corrections.

MODES is the one table of the configured modes: the pipeline's per-mode
choices, the noise a config may list, the closed form and the verify input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .noise import BIT_FLIP, PHASE_FLIP, mix_general, mix_two, product_ensemble
from .optics import (
    GATE_TABLE,
    GateTable,
    check_table,
    prune,
    route,
    walsh_hadamard,
)
from .states import (
    POL,
    PRUNE_TOL,
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


@dataclass(frozen=True)
class AcceptanceRule:
    """Which port patterns count as success for a protocol mode."""

    mode: str

    _MODES = ("bitflip", "phaseflip", "general")

    def __post_init__(self):
        if self.mode not in self._MODES:
            raise ValueError(f"unknown acceptance mode {self.mode!r}")

    def accepts(self, port: int, m: int) -> bool:
        """Whether the m-bit port register is a success pattern; its popcount is the SWAP count."""
        count = port.bit_count()
        if self.mode == "bitflip":
            return count == 0 or count == m
        if self.mode == "phaseflip":
            return count % 2 == 0
        return True


CorrectionPlan = Mapping[int, int]  # port register -> m-bit photon flip mask
Split = dict[int, tuple[float, PureState]]  # accepted port register -> (probability, corrected state)


def phaseflip_plan(m: int) -> dict[int, int]:
    """Flip every photon on each accepted (even-parity) port; the mode's Hadamard closes the correction."""
    rule = AcceptanceRule("phaseflip")
    return {port: (1 << m) - 1 for port in range(1 << m) if rule.accepts(port, m)}


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


def infer_flip_plan(ensemble: Ensemble) -> dict[int, int]:
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
    plan: dict[int, int] = {}
    for pat, classes in f_classes.items():
        if len(classes) != 1:
            continue
        (f,) = classes
        rep = min(f, f ^ full, key=lambda r: (r.bit_count(), r))
        if rep:
            plan[pat] = rep
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

    def __post_init__(self):
        object.__setattr__(self, "accepted", MappingProxyType(dict(self.accepted)))


def merged_fidelity(result: ProtocolResult, target: PureState) -> float:
    """Fidelity of the pattern-merged output mixture against any pol target."""
    mass = sum(
        outcome.probability * fidelity(outcome.ensemble, target)
        for outcome in result.accepted.values()
    )
    return mass / result.success_probability


def _split_by_pattern(
    m: int, rule: AcceptanceRule, plan: CorrectionPlan, table: GateTable
) -> Callable[[PureState], Split]:
    """The sparse step for one member: relabel its register pairs, drop the rejected ports.

    The gate is a bijection on each photon's bits, so every term keeps its
    amplitude under route's registers; dead terms go as make_state prunes
    them. Returns, per accepted port, the probability and the renormalized
    polarization state with the port's photon flips applied.
    """

    def split(member: PureState) -> Split:
        groups: dict[int, dict[Label, complex]] = {}
        for (pol, spatial), amp in member.terms.items():
            out_pol, port = route(pol, spatial, m, table)
            if rule.accepts(port, m) and abs(amp) > PRUNE_TOL:
                groups.setdefault(port, {})[(out_pol ^ plan.get(port, 0),)] = amp
        out = {}
        for port, terms in groups.items():
            prob = sum(abs(a) ** 2 for a in terms.values())
            scale = prob**-0.5
            out[port] = (prob, PureState(m, (POL,), {lab: a * scale for lab, a in terms.items()}))
        return out

    return split


# A Hadamard-mode member holds 4^m amplitudes after its layers; at m = 10 a
# phase-flip simulate takes about 1.5 s and 85 MB peak on a 2-CPU machine.
# Configs above this are refused.
PHASEFLIP_MAX_PHOTONS = 10

# A mode with ``lists_components`` (general) builds and prints all 2^(m-1)
# closed-form weights: at m = 16 a simulate writes about 0.36 MB, and each
# photon doubles it. 16 is the largest general solve the benchmark runs.
COMPONENTS_MAX_PHOTONS = 16

# The cap on every config. Bit-flip and deterministic simulates take a few
# ms at m = 1000 and grow faster than linearly: a bit-flip config at
# m = 3 000 000 did not finish in 50 s.
MAX_PHOTONS = 1000

# The cap on a config's product members, (pol components + 1) x (spatial
# components + 1): 401^2, the largest config measured to finish. That general
# config at m = 16 simulates in about 6 s with 160 MB peak on a 2-CPU machine,
# and time and memory grow with the member count; m = 16 alone admits 32 767
# components per degree of freedom, about 10^9 members.
MAX_MEMBERS = 160_801


def _dense_split(
    m: int, rule: AcceptanceRule, plan: CorrectionPlan, table: GateTable
) -> Callable[[PureState], Split]:
    """The Hadamard-mode step for one member, on dense arrays indexed by the registers.

    Same contract as _split_by_pattern: per accepted port, the probability
    and the corrected state, here the photon flips of the port's mask
    followed by the mode's closing polarization Hadamard. It runs the
    per-state route (hadamard_pol, hadamard_spatial, apply_network, the
    grouping by port, bit_flip_pol, hadamard_pol) with the same float
    operations for every amplitude. A port's probability is a sequential
    sum of |amp|**2 in register order (never numpy's pairwise np.sum),
    where the sparse path sums in term order and squares with pow: on
    GHZ-product members every amplitude of a port has the same magnitude,
    and there the two agree bit for bit.
    """
    import numpy as np

    size = 1 << m
    grid = np.arange(size)
    out_pol, port = route(grid[None, :], grid[:, None], m, table)  # indexed [spatial, pol]
    ports = [p for p in range(size) if rule.accepts(p, m)]
    # the gate is a bijection, so routing is a gather: source of each (port, pol) amplitude
    source = np.empty(size * size, dtype=np.intp)
    source[(port * size + out_pol).ravel()] = np.arange(size * size)
    accepted_source = source.reshape(size, size)[ports]
    groups: dict[int, list[int]] = {}  # flip mask -> rows of the ports it corrects
    for row, p in enumerate(ports):
        groups.setdefault(plan.get(p, 0), []).append(row)

    def split(member: PureState) -> Split:
        # pol layer on the spatial registers present only: the other columns stay zero
        pol, spatial = zip(*member.terms)
        present = sorted(set(spatial))
        column = {reg: c for c, reg in enumerate(present)}
        layer = np.zeros((size, len(present)), dtype=complex)
        layer[pol, [column[reg] for reg in spatial]] = list(member.terms.values())
        walsh_hadamard(layer, m)
        amps = np.zeros((size, size), dtype=complex)  # [spatial, pol]
        amps[present] = layer.T
        walsh_hadamard(amps, m)
        accepted = amps.ravel().take(accepted_source)  # [accepted port, pol]
        probs = np.cumsum(np.abs(accepted) ** 2, axis=1)[:, -1].tolist()
        accepted *= np.array([p**-0.5 if p > 0.0 else 0.0 for p in probs])[:, None]
        prune(accepted)
        out = {}
        for flips, rows in groups.items():
            rows = [r for r in rows if probs[r] > 0.0]
            if not rows:
                continue
            block = accepted[rows].T.take(grid ^ flips, axis=0)  # [pol, row]
            walsh_hadamard(block, m)
            terms: list[dict[Label, complex]] = [{} for _ in rows]
            cols, regs = np.nonzero(block.T)
            for c, reg, amp in zip(cols.tolist(), regs.tolist(), block[regs, cols].tolist()):
                terms[c][(reg,)] = amp
            for r, t in zip(rows, terms):
                out[ports[r]] = (probs[r], PureState(m, (POL,), t))
        return out

    return split


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

    table = GATE_TABLE if gate_table is None else gate_table
    check_table(table)
    step = (_dense_split if hadamard_first else _split_by_pattern)(m, rule, plan, table)
    buckets: dict[int, list[tuple[float, PureState]]] = {}  # port register -> entries
    for weight, member in ensemble.members:
        for port, (cond_prob, cond_state) in step(member).items():
            buckets.setdefault(port, []).append((weight * cond_prob, cond_state))

    # fsum reductions keep results independent of member order
    accepted_mass = math.fsum(w for entries in buckets.values() for w, _ in entries)
    if accepted_mass <= 0.0:
        raise ValueError("no accepted port pattern carries probability; fidelity undefined")

    accepted: dict[Pattern, PatternOutcome] = {}
    fidelity_terms = []
    # numeric order of m-bit registers is the order of their MSB-first bit tuples
    for port in sorted(buckets):
        entries = buckets[port]
        pattern_prob = math.fsum(w for w, _ in entries)
        cond_ensemble = Ensemble(tuple((w / pattern_prob, s) for w, s in entries))
        cond_fidelity = fidelity(cond_ensemble, target)
        accepted[bits(m, port)] = PatternOutcome(pattern_prob, cond_ensemble, cond_fidelity)
        fidelity_terms.append(pattern_prob * cond_fidelity)

    return ProtocolResult(
        accepted=accepted,
        success_probability=accepted_mass,
        rejected_probability=1.0 - accepted_mass,
        output_fidelity=math.fsum(fidelity_terms) / accepted_mass,
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


def _matched_products(pol_weights: Sequence[float], spatial_weights: Sequence[float]) -> tuple[list[float], float]:
    """The matched products w_i u_i of two GHZ-diagonal weight vectors, and their sum."""
    if len(pol_weights) != len(spatial_weights):
        raise ValueError("weight vectors differ in length")
    for vec in (pol_weights, spatial_weights):
        total = math.fsum(vec)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")
    for v in (*pol_weights, *spatial_weights):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"fidelity weight {v!r} outside [0, 1]")
    products = [w * u for w, u in zip(pol_weights, spatial_weights)]
    return products, sum(products)


def _shares(products: list[float], success: float) -> list[float]:
    """The output weights w_i u_i / sum_j w_j u_j; undefined when nothing is accepted."""
    if success == 0.0:
        raise ValueError("all matched products vanish; nothing is accepted")
    return [p / success for p in products]


def closed_form_fidelity_general(
    pol_weights: Sequence[float], spatial_weights: Sequence[float]
) -> tuple[float, ...]:
    """Matched-pattern output weights for paired multi-component mixtures.

    Component i of the output carries weight w_i u_i / sum_j w_j u_j, where
    w and u are the polarization and spatial input weight vectors.
    """
    return tuple(_shares(*_matched_products(pol_weights, spatial_weights)))


def closed_form_success_general(
    pol_weights: Sequence[float], spatial_weights: Sequence[float]
) -> float:
    """Accepted probability on the unanimous patterns for paired mixtures: sum_j w_j u_j."""
    return _matched_products(pol_weights, spatial_weights)[1]


def closed_form_success_pair(fa: float, fb: float) -> float:
    """Accepted probability for two-component mixtures, FaFb + (1-Fa)(1-Fb): the n = 2 general case."""
    return closed_form_success_general((fa, 1.0 - fa), (fb, 1.0 - fb))


def closed_form_fidelity_pair(fa: float, fb: float) -> float:
    """Post-selected fidelity for two-component mixtures, FaFb / (FaFb + (1-Fa)(1-Fb)): the n = 2 general case."""
    return closed_form_fidelity_general((fa, 1.0 - fa), (fb, 1.0 - fb))[0]


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
    ``hadamard`` puts Hadamard layers on both degrees of freedom before the
    gate and closes every port's photon flips with a polarization Hadamard.
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
    products, success = _matched_products((fa, 1.0 - fa), (fb, 1.0 - fb))
    good, bad = _shares(products, success)
    weights = dict.fromkeys(pol.keys() | spatial.keys(), bad)
    weights[(0, 1)] = good
    return weights, success


def _matched_closed_form(m: int, pol: GhzWeights, spatial: GhzWeights):
    w, u = ([x.get((i, 1), 0.0) for i in range(2 ** (m - 1))] for x in (pol, spatial))
    products, success = _matched_products(w, u)
    return {(i, 1): c for i, c in enumerate(_shares(products, success))}, success


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
