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
register arrays (_dense_split).
A Hadamard run takes one column step (_column_split) per magnitude of its
real GHZ x GHZ members, which are Pauli images of one another: the first
such member's closed [pol] column at one port, gathered from the spatial
layer's distinct rows (optics.pair_rows) with no 4^m array. Every such
member, the first included, gives each of its ports a signed XOR shift of
that column, one port group per distinct state, bit for bit what its dense
step gives; a member whose port class the rule rejects is skipped, and
_relabelled_dense_split states why that is exact. Any other member takes
the dense step. Every step returns port groups (Split): one probability
and corrected state per group, held by each of its accepted ports.
A run reads the gate once: _execute takes the affine register masks of the
table and of its inverse (optics.check_table, which refuses a table that is
not a bijection), and every step routes with two XOR/AND expressions.
Each port group gives one (weight, state) entry, shared by its ports'
buckets, and ports with the same entries share one outcome, built once.

What a run derives from its shape alone lives for the process, so that
repeated solves (an F scan, verify's grid, the benchmark) build it once:
the accepted ports (AcceptanceRule.ports, keyed on the rule's mode and m),
phaseflip_plan(m), the ports of each parity class (_port_classes) and the
parity vector (_parity), each shared read-only, in bounded lru caches; and
each closed column (_COLUMNS), keyed on every input the column step reads,
as _relabelled_dense_split states. Only the branch weights depend on F, and
they enter after the step, so no cached value depends on F.

A port pattern is the port register: one bit per photon, photon 0 the
most significant, 0 = KEEP group, 1 = SWAP group. Acceptance rules,
correction plans and the per-pattern buckets all key on it; only
ProtocolResult.accepted spells each accepted register out as a Pattern
tuple (states.bits). Bit-flip mode accepts the two unanimous patterns;
phase-flip mode accepts every pattern with an even number of SWAP photons;
general mode accepts everything and relies on per-pattern corrections.

MODES is the one table of the configured modes: the pipeline's per-mode
choices, the noise a config may list, the closed form and the verify input.
Every reduction over members, ports or weights that feeds a printed figure
is math.fsum, which is exactly rounded, so no figure depends on the order
of the noise lists. Only the sums over one state's own terms (a port's
probability) run left to right, in an order that no input list sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .noise import BIT_FLIP, PHASE_FLIP, mix_general, mix_two, product_ensemble
from .optics import (
    GATE_TABLE,
    GateTable,
    check_table,
    pair_rows,
    prune,
    walsh_hadamard,
)
from .states import (
    NORM_TOL,
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

    # a rule is a hashable value, so equal rules share one table; bounded, so that
    # accept-all tables at large m do not stay for the life of the process
    @lru_cache(maxsize=32)
    def ports(self, m: int) -> tuple[int, ...]:
        """The accepted m-bit port registers, ascending, built once per (mode, m) without testing each register."""
        if self.mode == "phaseflip":  # each (m-1)-bit register followed by its parity bit
            return tuple(r << 1 | r.bit_count() & 1 for r in range(1 << (m - 1)))
        return (0, (1 << m) - 1) if self.mode == "bitflip" else tuple(range(1 << m))


CorrectionPlan = Mapping[int, int]  # port register -> m-bit photon flip mask
Split = list[tuple[float, PureState, tuple[int, ...]]]  # (probability, corrected state, its accepted ports ascending)
Gate = tuple[tuple[int, ...], tuple[int, ...]]  # check_table of the gate table and of its inverse


def check_plan(plan: CorrectionPlan, m: int) -> None:
    """Refuse a plan whose flip masks are not m-bit registers: they go into labels the engine does not check."""
    for mask in plan.values():
        if type(mask) is not int or not 0 <= mask < 1 << m:
            raise ValueError(f"correction mask {mask!r} is not an m-bit register for m={m}")


@lru_cache(maxsize=32)
def phaseflip_plan(m: int) -> CorrectionPlan:
    """Flip every photon on each accepted (even-parity) port; the mode's Hadamard closes the correction.

    Built once per m and shared, so it is read-only.
    """
    return MappingProxyType(dict.fromkeys(AcceptanceRule("phaseflip").ports(m), (1 << m) - 1))


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


def _split_by_pattern(
    m: int, rule: AcceptanceRule, plan: CorrectionPlan, gate: Gate
) -> Callable[[PureState], Split]:
    """The sparse step for one member: relabel its register pairs, drop the rejected ports.

    The gate is a bijection on each photon's bits, so every term keeps its
    amplitude under the run's forward masks; dead terms go as make_state
    prunes them. One group per accepted port holds its probability, summed
    left to right in term order, and its flipped, renormalized pol state.
    """
    (a1, b1, c1, a2, b2, c2), _ = gate

    def split(member: PureState) -> Split:
        groups: dict[int, dict[Label, complex]] = {}
        for (pol, spatial), amp in member.terms.items():
            port = pol & a2 ^ spatial & b2 ^ c2
            if rule.accepts(port, m) and abs(amp) > PRUNE_TOL:
                groups.setdefault(port, {})[(pol & a1 ^ spatial & b1 ^ c1 ^ plan.get(port, 0),)] = amp
        out = []
        for port, terms in groups.items():
            prob = 0.0
            for a in terms.values():  # not the builtin sum, which Python 3.12 compensates
                prob += abs(a) ** 2
            scale = prob**-0.5
            out.append((prob, PureState._derived(m, (POL,), {lab: a * scale for lab, a in terms.items()}), (port,)))
        return out

    return split


# A Hadamard-mode member holds 4^(m-1) terms after its layers. A config's
# members are GHZ x GHZ products, so each group of them takes one column
# step; at m = 10 a phase-flip simulate takes 0.19-0.24 s and 30 MB peak on
# a shared 2-CPU machine (three medians of 7), one column step for its four
# members, and its record lists 512 patterns. Configs above this are refused.
PHASEFLIP_MAX_PHOTONS = 10

# A mode that ``lists_components`` (general) builds and prints all 2^(m-1)
# closed-form weights: at m = 16 a simulate writes about 0.36 MB, and each
# photon doubles it. 16 is the largest general solve the benchmark runs.
COMPONENTS_MAX_PHOTONS = 16

# The cap on every config. Bit-flip and deterministic simulates take a few
# ms at m = 1000 and grow faster than linearly: a bit-flip config at
# m = 3 000 000 did not finish in 50 s.
MAX_PHOTONS = 1000

# The cap on a config's product members, (pol components + 1) x (spatial
# components + 1): 401^2, the largest config measured to finish. That general
# config at m = 16 simulates in about 2.1 s with 161 MB peak on a 2-CPU
# machine (median of 5 simulate processes), and time and memory grow with the
# member count; m = 16 alone admits 32 767 components per degree of freedom,
# about 10^9 members.
MAX_MEMBERS = 160_801


def _dense_split(
    m: int, rule: AcceptanceRule, plan: CorrectionPlan, gate: Gate
) -> Callable[[PureState], Split]:
    """The Hadamard-mode step for one member, on dense arrays indexed by the registers.

    Same contract as _split_by_pattern, one group per accepted port; its
    state is corrected by the photon flips of the port's mask
    followed by the mode's closing polarization Hadamard. It runs the
    per-state route (hadamard_pol, hadamard_spatial, apply_network, the
    grouping by port, bit_flip_pol, hadamard_pol) with the same float
    operations for every amplitude: walsh_hadamard on both registers. The
    gate is a bijection, so routing is a gather: the run's inverse masks,
    over the accepted ports only, give the source of each amplitude of a
    [pol, accepted port] array. A port's probability is the sum of
    |amp|**2 down axis 0 of that array, which numpy adds row after row, in
    register order (never the pairwise sum it runs along a contiguous axis),
    where the sparse path sums in term order and squares with pow: on
    GHZ-product members every amplitude of a port has the same magnitude,
    and there the two agree bit for bit. A member whose amplitudes all have
    a zero imaginary part runs on float64 arrays, any other on complex128:
    the real parts see the same float operations either way, and the
    emitted amplitudes are complex in both. A port's flips XOR the pol
    register, so one gather applies every port's mask and one column-wise
    walsh_hadamard closes every port with nonzero probability.
    """
    import numpy as np

    size = 1 << m
    grid = np.arange(size)
    ports = rule.ports(m)
    _, (pol_o, pol_q, pol_c, sp_o, sp_q, sp_c) = gate
    # [pol, accepted port] -> flat index of amps [spatial, pol], by the inverse masks
    o, q = grid[:, None], np.array(ports)[None, :]
    source = (o & sp_o ^ q & sp_q ^ sp_c) * size + (o & pol_o ^ q & pol_q ^ pol_c)
    flips = np.array([plan.get(p, 0) for p in ports])  # column -> its port's flip mask

    def split(member: PureState) -> Split:
        present, layer = _pol_layer(member)
        amps = np.zeros((size, size), dtype=layer.dtype)  # [spatial, pol]
        amps[present] = layer.T
        walsh_hadamard(amps, m)
        accepted = amps.ravel().take(source)  # [pol, accepted port]
        del amps  # the 4^m array is not read again; kept alive, it sets the step's peak memory
        probs = (np.abs(accepted) ** 2).sum(axis=0).tolist()
        accepted *= np.array([p**-0.5 if p > 0.0 else 0.0 for p in probs])
        prune(accepted)
        if not (cols := [c for c, p in enumerate(probs) if p > 0.0]):
            return []
        block = accepted[grid[:, None] ^ flips[cols], cols]  # [pol, port], each column's X^mask applied
        walsh_hadamard(block, m)
        terms: list[dict[Label, complex]] = [{} for _ in cols]
        js, regs = np.nonzero(block.T)
        for j, reg, amp in zip(js.tolist(), regs.tolist(), block[regs, js].astype(complex).tolist()):
            terms[j][(reg,)] = amp
        return [(probs[c], PureState._derived(m, (POL,), t), (ports[c],)) for c, t in zip(cols, terms)]

    return split


@lru_cache(maxsize=32)
def _parity(m: int):
    """Popcount parity of every m-bit register, by doubling: parity[2^k + q] = 1 - parity[q] for q < 2^k.

    Built once per m and shared, so it is read-only.
    """
    import numpy as np

    parity = np.zeros(1, dtype=np.int64)
    for _ in range(m):
        parity = np.concatenate((parity, 1 - parity))
    parity.flags.writeable = False
    return parity


def _pol_layer(member: PureState):
    """The pol Hadamard layer on a [pol, spatial register present] array, columns ascending; returns (present, array).

    The array is float64 when every imaginary part is zero, complex128 otherwise (see _dense_split).
    """
    import numpy as np

    pol, spatial = zip(*member.terms)
    values = np.array(list(member.terms.values()), dtype=complex)
    if not values.imag.any():
        values = values.real  # every imaginary part is +-0: run the real parts alone
    present = sorted(set(spatial))
    column = {reg: c for c, reg in enumerate(present)}
    layer = np.zeros((1 << member.m, len(present)), dtype=values.dtype)
    layer[pol, [column[reg] for reg in spatial]] = values
    walsh_hadamard(layer, member.m)
    return present, layer


def _column_split(
    m: int, plan: CorrectionPlan, gate: Gate
) -> Callable[[PureState, int], tuple[float, tuple[tuple[int, float], ...]]]:
    """One port of a real GHZ x GHZ member (_ghz_frame), with no 4^m array: (probability, ((register, amplitude), ...)).

    The result is port q0 of _dense_split's, bit for bit, with its nonzero
    amplitudes as floats in ascending register order. Its [pol] column is
    gathered from pair_rows, the spatial layer's distinct rows, by the run's
    inverse masks, and its squares are summed left to right in register
    order, as _dense_split does down its axis 0 (np.cumsum: np.sum is
    pairwise, and the builtin sum of Python 3.12 compensates). The column is
    scaled, pruned, flipped by q0's mask and closed by a one-column
    walsh_hadamard.
    """
    import numpy as np

    size = 1 << m
    grid = np.arange(size)
    parity = _parity(m)
    _, (pol_o, pol_q, pol_c, sp_o, sp_q, sp_c) = gate

    def split(member: PureState, q0: int) -> tuple[float, tuple[tuple[int, float], ...]]:
        present, layer = _pol_layer(member)
        rows, kind = pair_rows(layer[:, 0], layer[:, 1], present[0], parity)
        column = rows[kind[grid & sp_o ^ q0 & sp_q ^ sp_c], grid & pol_o ^ q0 & pol_q ^ pol_c]
        prob = float(np.cumsum(np.abs(column) ** 2)[-1])
        column *= prob**-0.5
        prune(column)
        closed = column[grid ^ plan.get(q0, 0)]
        walsh_hadamard(closed, m)
        (regs,) = np.nonzero(closed)
        return prob, tuple(zip(regs.tolist(), closed[regs].tolist()))

    return split


def _ghz_frame(member: PureState) -> tuple[float, int, int, int, int] | None:
    """(a, e, f, zp, zs) of a real GHZ x GHZ product member; None for any other member.

    Such a member is a Pauli image of R0 = GHZ_pol(0,+) x GHZ_sp(0,+) scaled
    by a: amp(p, s) = (-1)^(zp.p ^ zs.s) a R0(p ^ e, s ^ f), with x.y the
    parity of x & y, (e, f) the registers _ghz_product_parts recovers and
    zp (zs) 2^(m-1) where the pol (spatial) sign is -, else 0. The (e, f)
    term is a, and every term must be exactly +-a as that formula gives it.
    """
    try:
        e, f = _ghz_product_parts(member)
    except ValueError:
        return None
    terms = member.terms
    if any(amp.imag for amp in terms.values()):
        return None
    full, top = (1 << member.m) - 1, 1 << (member.m - 1)
    a = terms[(e, f)].real
    zp = top if terms[(e ^ full, f)].real == -a else 0
    zs = top if terms[(e, f ^ full)].real == -a else 0
    for (p, s), amp in terms.items():
        if amp.real != (-a if (p & zp ^ s & zs).bit_count() & 1 else a):
            return None
    return a, e, f, zp, zs


@lru_cache(maxsize=32)
def _port_classes(rule: AcceptanceRule, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rule's accepted ports split by parity: (even ports, odd ports), each ascending."""
    accepted = rule.ports(m)
    return tuple(q for q in accepted if not q.bit_count() & 1), tuple(q for q in accepted if q.bit_count() & 1)


# (m, gate, q0, F(q0), _ghz_frame(M0)) -> _column_split(...)(M0, q0), for the
# life of the process; emptied when it holds 256 columns, so that it stays bounded
_COLUMNS: dict[tuple, tuple[float, tuple[tuple[int, float], ...]]] = {}


def _relabelled_dense_split(
    m: int, rule: AcceptanceRule, plan: CorrectionPlan, gate: Gate
) -> Callable[[PureState], Split]:
    """One column step per magnitude: every GHZ x GHZ member's ports are signed XOR shifts of its column.

    Every element of the Hadamard path is Clifford, so a member
    a Z^(zp, zs) X^(e, f) R0 (_ghz_frame) leaves as a Pauli image of R0's
    output. Both Hadamard layers swap x and z; the sign (-1)^(z.x) is +1,
    as e, f < 2^(m-1). The gate carries x through its forward masks
    (check_table) and z through those of its inverse,
    p = o&pol_o ^ q&pol_q ^ pol_c and s = o&sp_o ^ q&sp_q ^ sp_c:
    xo = zp&a1 ^ zs&b1, xq = zp&a2 ^ zs&b2, zo = e&pol_o ^ f&sp_o and
    zq = e&pol_q ^ f&sp_q, with the sign e.pol_c ^ f.sp_c. After both
    layers R0 sits on even pol and spatial registers, and a2, b2 are 0 or
    2^m - 1, so every port a member reaches has the parity of xq ^ c2:
    where no accepted port has it, the member takes no step. R0 holds the
    same column C on every port it reaches (a coset of the even registers,
    at one amplitude). Port q's flip mask F(q) is X^F(q) before the closing
    Hadamard and Z^F(q) after it, so
    out_M[q](o) = (-1)^(c ^ zq.q ^ (xo ^ F(q)).o) C'(o ^ zo), with
    c = e.pol_c ^ f.sp_c ^ zo.xo and C' the closed C, on every port.

    So one column per magnitude a serves every port of every member. The
    first live member M0 of that magnitude gives the column step its first
    class port q0, and B = out_M0[q0]. B lives for the process in
    _COLUMNS, keyed on (m, gate, q0, F(q0), _ghz_frame(M0)): the column
    step reads M0, the gate's inverse masks, q0 and q0's flip mask, and
    nothing else, and _ghz_frame fixes every term of M0 exactly, so a key
    that matches gives B bit for bit. Every normalized GHZ x GHZ member
    has the same a whatever its weight, so an F scan takes one column step
    per (m, gate, flip). The base terms (c0, zo0, xo0 ^ F(q0)) come from
    M0 in each run. Every member M, M0 included, gets
    out_M[q](o) = (-1)^(c ^ c0 ^ (xo0 ^ F(q0)).d ^ zq0.q0 ^ zq.q
    ^ (xo ^ xo0 ^ F(q0) ^ F(q)).o) B(o ^ d), with d = zo ^ zo0, at B's
    probability. Its ports fall into one group, and one state, per
    (zq.q, F(q)). The run partitions a class's ports by that key once
    for each zq it meets, since the plan is the run's own.

    This is exact. A butterfly on a Pauli image of its input gives the same
    floats, moved or negated, since c x + c y = c y + c x and
    c x - c y = -(c y - c x) bit for bit; a zero whose sign may differ is
    pruned to +0.0. Every nonzero amplitude of one port of a GHZ x GHZ
    product has the same magnitude, so the port's probability, a
    left-to-right sum in register order, is the same in any order. The
    amplitudes are B's floats, each negated or not and then made complex, in
    ascending register order as np.nonzero gives them. Any other member
    takes the dense step, built for the first such member of the run.
    """
    (a1, b1, _, a2, b2, c2), (pol_o, pol_q, pol_c, sp_o, sp_q, sp_c) = gate
    classes = _port_classes(rule, m)  # port parity -> its ports
    dense: Callable[[PureState], Split] | None = None  # built for the first member off the frame
    # magnitude a -> (c0 ^ zq0.q0, zo0, xo0 ^ F(q0), probability, B) of its first live member M0
    bases: dict[float, tuple[int, int, int, float, dict[int, float]]] = {}
    # (zq, port parity) -> [(zq.q, F(q), its ports ascending)] of that class
    partitions: dict[tuple[int, int], list[tuple[int, int, tuple[int, ...]]]] = {}

    def split(member: PureState) -> Split:
        nonlocal dense
        parts = _ghz_frame(member)
        if parts is None:
            dense = dense or _dense_split(m, rule, plan, gate)
            return dense(member)
        a, e, f, zp, zs = parts
        xq = zp & a2 ^ zs & b2
        if not (ports := classes[parity := (xq ^ c2).bit_count() & 1]):
            return []
        xo, zo, zq = zp & a1 ^ zs & b1, e & pol_o ^ f & sp_o, e & pol_q ^ f & sp_q
        c = (e & pol_c ^ f & sp_c ^ zo & xo).bit_count() & 1
        if (base := bases.get(a)) is None:
            q0 = ports[0]
            if (column := _COLUMNS.get(key := (m, gate, q0, plan.get(q0, 0), parts))) is None:
                if len(_COLUMNS) >= 256:
                    _COLUMNS.clear()
                column = _COLUMNS[key] = _column_split(m, plan, gate)(member, q0)
            prob, amps = column
            base = bases[a] = c ^ (zq & q0).bit_count() & 1, zo, xo ^ plan.get(q0, 0), prob, dict(amps)
        c0, zo0, x0, prob, closed = base
        d = zo ^ zo0
        sign = c ^ c0 ^ (x0 & d).bit_count() & 1
        shifted = [(o, closed[o ^ d]) for o in sorted(o ^ d for o in closed)]  # (o, B(o ^ d)), o ascending
        if (groups := partitions.get(zq_class := (zq, parity))) is None:
            grouped: dict[tuple[int, int], list[int]] = {}  # (zq.q, F(q)) -> its ports, ascending
            for q in ports:
                grouped.setdefault(((zq & q).bit_count() & 1, plan.get(q, 0)), []).append(q)
            groups = partitions[zq_class] = [(odd, flip, tuple(qs)) for (odd, flip), qs in grouped.items()]
        out: Split = []
        for odd, flip, qs in groups:
            s, x = sign ^ odd, xo ^ x0 ^ flip
            terms = {(o,): complex(-v if s ^ (x & o).bit_count() & 1 else v) for o, v in shifted}
            out.append((prob, PureState._derived(m, (POL,), terms), qs))
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
    """One run: each member's step, then per distinct accepted outcome its conditional ensemble and fidelity.

    A Hadamard run steps through _relabelled_dense_split, whose columns
    live for the process and whose result is, bit for bit, the one
    per-member dense steps give; the other modes step through
    _split_by_pattern. Each step takes the masks of the table and its
    inverse, read here once. A port group gives one (weight, state) entry,
    the same object in each of its ports' buckets; a port's signature is
    its entries' identities, which stay alive, and so unique, for the run.
    Ports with one signature share the PatternOutcome the first builds, and
    each still adds its own probability x fidelity to the output fidelity.
    """
    if ensemble.dofs != (POL, SPATIAL):
        raise ValueError(f"protocol input must carry (pol, spatial) labels, got {ensemble.dofs}")
    m = ensemble.m
    if target is None:
        target = make_ghz_pol(m, 0, +1)
    if target.m != m or target.dofs != (POL,):
        raise ValueError("target must be a bare polarization state on the same photons")

    table = GATE_TABLE if gate_table is None else gate_table
    gate = (check_table(table, m), check_table({out: row for row, out in table.items()}, m))
    step = (_relabelled_dense_split if hadamard_first else _split_by_pattern)(m, rule, plan, gate)
    buckets: dict[int, list[tuple[float, PureState]]] = {}  # port register -> entries
    for weight, member in ensemble.members:
        for cond_prob, cond_state, ports in step(member):
            if (w := weight * cond_prob) > 0.0:  # an underflowed product carries nothing
                entry = (w, cond_state)
                for port in ports:
                    buckets.setdefault(port, []).append(entry)

    accepted_mass = math.fsum(w for entries in buckets.values() for w, _ in entries)
    if accepted_mass <= 0.0:
        raise ValueError("no accepted port pattern carries probability; fidelity undefined")

    accepted: dict[Pattern, PatternOutcome] = {}
    outcomes: dict[tuple[int, ...], PatternOutcome] = {}  # port signature -> its outcome
    # numeric order of m-bit registers is the order of their MSB-first bit tuples
    for port, entries in sorted(buckets.items()):
        if (outcome := outcomes.get(signature := tuple(map(id, entries)))) is None:
            pattern_prob = math.fsum(w for w, _ in entries)
            cond_ensemble = Ensemble._derived(tuple((w / pattern_prob, s) for w, s in entries))
            outcome = outcomes[signature] = PatternOutcome(pattern_prob, cond_ensemble, fidelity(cond_ensemble, target))
        accepted[bits(m, port)] = outcome

    return ProtocolResult(
        accepted=accepted,
        success_probability=accepted_mass,
        rejected_probability=1.0 - accepted_mass,
        output_fidelity=math.fsum(o.probability * o.fidelity for o in accepted.values()) / accepted_mass,
    )


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
    to override. The plan is checked here, where it enters: its flip masks
    go into the labels of port states that the engine does not check.
    """
    mode = MODES["deterministic-demo"]
    plan = mode.plan(ensemble) if corrections is None else corrections
    check_plan(plan, ensemble.m)
    return _execute(ensemble, acceptance or mode.rule, plan, target, mode.hadamard, gate_table)


def closed_form_general(
    pol_weights: Sequence[float], spatial_weights: Sequence[float]
) -> tuple[tuple[float, ...], float]:
    """Matched-pattern closed form for paired GHZ-diagonal mixtures: (output weights, success).

    Component i of the output carries weight w_i u_i / sum_j w_j u_j, where
    w and u are the polarization and spatial input weight vectors, and the
    accepted probability is sum_j w_j u_j. The two-component case (F, 1 - F)
    gives FaFb / (FaFb + (1-Fa)(1-Fb)) and FaFb + (1-Fa)(1-Fb).
    """
    if len(pol_weights) != len(spatial_weights):
        raise ValueError("weight vectors differ in length")
    for vec in (pol_weights, spatial_weights):
        total = math.fsum(vec)
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
    for v in (*pol_weights, *spatial_weights):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"fidelity weight {v!r} outside [0, 1]")
    products = [w * u for w, u in zip(pol_weights, spatial_weights)]
    success = math.fsum(products)
    if success == 0.0:
        raise ValueError("all matched products vanish; nothing is accepted")
    return tuple(p / success for p in products), success


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
    pairing: str | None
    closed_form: Callable[[int, GhzWeights, GhzWeights], tuple[dict[tuple[int, int], float], float]]
    verify_input: Callable[[int, float, float], Ensemble]
    label: str = ""  # name on verify's report, where it differs from the config name

    @property
    def noise_kind(self) -> str:
        """The noise a config may list: the Hadamard layers turn phase flips into bit flips."""
        return PHASE_FLIP if self.hadamard else BIT_FLIP

    @property
    def lists_components(self) -> bool:
        """Whether records list every closed-form (index, +) weight: any number of components."""
        return self.pairing is None

    @property
    def min_m(self) -> int:
        """Smallest photon count verify_input can build: two distinct error indices need m >= 3."""
        return 3 if self.pairing == DISTINCT else 2

    def run(
        self, ensemble: Ensemble, target: PureState | None = None, gate_table: GateTable | None = None
    ) -> ProtocolResult:
        """Purify the ensemble; the target defaults to GHZ 0+, and ``gate_table`` replaces the gate."""
        return _execute(ensemble, self.rule, self.plan(ensemble), target, self.hadamard, gate_table)


def _pair_closed_form(m: int, pol: GhzWeights, spatial: GhzWeights):
    """One error component per degree of freedom, on the same GHZ component."""
    fa, fb = pol[(0, 1)], spatial[(0, 1)]
    (good, bad), success = closed_form_general((fa, 1.0 - fa), (fb, 1.0 - fb))
    weights = dict.fromkeys(pol.keys() | spatial.keys(), bad)
    weights[(0, 1)] = good
    return weights, success


def _matched_closed_form(m: int, pol: GhzWeights, spatial: GhzWeights):
    w, u = ([x.get((i, 1), 0.0) for i in range(2 ** (m - 1))] for x in (pol, spatial))
    shares, success = closed_form_general(w, u)
    return {(i, 1): c for i, c in enumerate(shares)}, success


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
        pairing=EQUAL, closed_form=_pair_closed_form,
        verify_input=lambda m, f1, f2: _pair_input(m, (1, 1), (1, 1), f1, f2),
    ),
    "phaseflip": Mode(
        AcceptanceRule("phaseflip"), hadamard=True, plan=lambda ensemble: phaseflip_plan(ensemble.m),
        pairing=EQUAL, closed_form=_pair_closed_form,
        verify_input=lambda m, f1, f2: _pair_input(m, (0, -1), (0, -1), f1, f2),
    ),
    "general": Mode(
        AcceptanceRule("bitflip"), hadamard=False, plan=lambda ensemble: {},
        pairing=None, closed_form=_matched_closed_form, verify_input=_four_component_input,
    ),
    "deterministic-demo": Mode(
        AcceptanceRule("general"), hadamard=False, plan=lambda ensemble: infer_flip_plan(ensemble),
        pairing=DISTINCT, closed_form=lambda m, pol, spatial: ({(0, 1): 1.0}, 1.0),
        verify_input=lambda m, f1, f2: _pair_input(m, (1, 1), (2, 1), f1, f2), label="deterministic",
    ),
})

# the paper's two modes under their entry-point names: one bound object each,
# so a wrapper that finds a name by identity (tracing) replaces every binding
run_bitflip = MODES["bitflip"].run
run_phaseflip = MODES["phaseflip"].run
