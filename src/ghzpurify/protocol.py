"""Purification protocol runs: post-selection on detector ports, corrections, fidelity.

Pipeline for every mode: (optional Hadamard layers) -> purification gate on
each photon -> group the outgoing amplitudes by detector-port pattern ->
keep the accepted patterns -> flip the photons set in the pattern's mask,
then, in a Hadamard mode, apply one more polarization Hadamard -> report
the polarization mixture, its fidelity against the target GHZ state, and
the total accepted probability. Members of modes without Hadamard layers
stay sparse labeled states of 4 terms, and their step (_split_by_pattern)
routes each (pol, spatial) register pair straight to its (pol, port) pair:
the gate is a bijection, so no routed state is built. A Hadamard run
gives each real GHZ x GHZ member (_ghz_frame), a Pauli image of one
reference member, its ports from a scalar trace of its magnitude
(_frame_column): every live port holds the same probability and a scaled
GHZ state +-v(|r> +- |r^(2^m-1)>), its register pair and signs read off
the member and the gate's masks, one port group per distinct state, bit
for bit what walsh_hadamard's butterflies on register arrays give (the
tests keep that dense step as their reference). A member whose port
class the rule rejects is skipped, and _hadamard_split states why that
is exact. Any other member, complex or not a product of two GHZ states,
which only an API caller passes, takes the sparse Hadamard step
(_sparse_split): the path is Clifford, so each of its terms reaches each
accepted port at one register, with a sign. No step builds an array, and
no mode loads numpy. Every step returns port groups (Split): one
probability and corrected state per group, held by each of its accepted
ports.
A run reads the gate once: _execute takes the affine register masks of the
table and of its inverse (optics.check_table, which refuses a table that is
not a bijection; the gate's own masks once per m), and every step routes
with two XOR/AND expressions.
A config's input is the factored product of its pol and spatial mixtures
(noise.ProductEnsemble). A GHZ(e) x GHZ(f) member reaches one port class,
so a run on a product builds only the members whose class its rule can
accept (_run_members): under the unanimous rule, the pairs with e = f. A
member skipped would give no port group, so the run is the same, bit for
bit.
_execute keeps its books per port tuple, not per port: each distinct
tuple holds its groups' (weight, state) entries once, and a port's cell
is the set of tuples that hold it. Each cell builds one conditional
ensemble, fidelity and outcome for all its ports; the accepted mass and
the output fidelity are fsum over the same multiset of floats as a
per-port loop, each cell's terms once per port, so no bit moves.

What a run derives from its shape alone lives for the process, so that
repeated solves (an F scan, verify's grid, the benchmark) build it once:
the accepted ports (AcceptanceRule.ports, keyed on the rule's mode and m),
phaseflip_plan(m), the ports of each parity class (_port_classes), a
class's ports grouped by sign and flip mask (_partition) and the Pattern
tuples of a multi-port cell (_patterns), each keyed on every input it
reads and shared read-only in a bounded lru cache. The frame trace costs
O(m) and a sum of 2^(m-1) floats, so each run takes its own, once per
magnitude. Only the branch weights depend on F, and they enter after the
step, so no cached value depends on F.

A port pattern is the port register: one bit per photon, photon 0 the
most significant, 0 = KEEP group, 1 = SWAP group. Acceptance rules,
correction plans and the port groups all key on it; only
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
from functools import lru_cache, reduce
from itertools import chain, groupby, repeat
from operator import add, itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .noise import BIT_FLIP, PHASE_FLIP, ProductEnsemble, mix_general, mix_two, product_ensemble
from .optics import _HADAMARD_C, GATE_TABLE, GateTable, check_table
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
    """Recover (pol flip register, spatial flip register) of a GHZ x GHZ product.

    Each register of the four terms must be an m-bit register: so the lower
    of each complementary pair, e or f, is below 2^(m-1).
    """
    if state.dofs != (POL, SPATIAL):
        raise ValueError("expected a joint (pol, spatial) state")
    full = (1 << state.m) - 1
    e = min(pol for pol, _ in state.terms)
    f = min(sp for _, sp in state.terms)
    if (e | f) > full >> 1 or set(state.terms) != {(a, b) for a in (e, e ^ full) for b in (f, f ^ full)}:
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


# A config's members are GHZ x GHZ products, so each takes the frame trace,
# with no array and no numpy: at m = 10 a phase-flip simulate takes 0.08 s
# and 17.5 MB peak on a shared 2-CPU machine (median of 7 processes), and its
# record lists 512 patterns, about 70 KB. Each photon doubles the patterns,
# the record and the per-port work. Configs above this are refused.
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
# components + 1): 401^2. That general config at m = 16 builds the 401 members
# its rule accepts and simulates in about 0.2 s with 24 MB peak on a shared
# 2-CPU machine (0.14-0.29 s over 10 simulate processes; 1.9-2.8 s and 161 MB
# when every member was built). Modes whose rule accepts every port build every
# member, so time and memory grow with the member count; m = 16 alone admits
# 32 767 components per degree of freedom, about 10^9 members.
MAX_MEMBERS = 160_801


def _sparse_split(
    m: int, rule: AcceptanceRule, plan: CorrectionPlan, gate: Gate
) -> Callable[[PureState], Split]:
    """The Hadamard-mode step for a member off the GHZ frame: each term sent straight to each accepted port.

    Same contract as _split_by_pattern, one group per accepted port; its
    state is corrected by the photon flips of the port's mask followed by
    the mode's closing polarization Hadamard. Every element of that path is
    Clifford, so with the run's inverse masks a term (p, s) of amplitude A
    reaches port q at the one register u = p&pol_o ^ s&sp_o, as
    A P^m(1) (-1)^(u.F(q) ^ p.(q&pol_q ^ pol_c) ^ s.(q&sp_q ^ sp_c)), x.y
    the parity of x & y, F(q) the port's flip mask and P^m(1) = 2^(-m/2):
    each of the three Hadamard layers gives 2^(-m/2) and a sign, and the
    sum over the 2^m registers the gate sends to the port keeps u alone,
    2^m times over. A port sums its contributions per register in term order, drops a sum
    at or below PRUNE_TOL, as walsh_hadamard prunes a layer, and takes as
    its probability the left-to-right sum of |amp|**2 in ascending register
    order. Its state is scaled by probability**-0.5, which is at least 1
    up to rounding, so no kept amplitude needs a second prune. The step
    costs O(terms x accepted ports) and builds no array; it agrees with the
    dense step within rounding, not bit for bit, as it adds in another order.
    """
    _, (pol_o, pol_q, pol_c, sp_o, sp_q, sp_c) = gate

    def split(member: PureState) -> Split:  # reads its tables per member, so a run of frame members pays nothing here
        unit = _scaled(1.0, m)
        terms = [(p & pol_o ^ s & sp_o, p, s, amp * unit) for (p, s), amp in member.terms.items()]
        out = []
        for q in rule.ports(m):
            flip, pq, sq = plan.get(q, 0), q & pol_q ^ pol_c, q & sp_q ^ sp_c
            sums: dict[int, complex] = {}
            for u, p, s, a in terms:
                sums[u] = sums.get(u, 0j) + (-a if (u & flip ^ p & pq ^ s & sq).bit_count() & 1 else a)
            live = sorted((u, a) for u, a in sums.items() if abs(a) > PRUNE_TOL)
            if not live:
                continue
            prob = 0.0
            for _, a in live:  # not the builtin sum, which Python 3.12 compensates
                prob += abs(a) ** 2
            scale = prob**-0.5
            out.append((prob, PureState._derived(m, (POL,), {(u,): a * scale for u, a in live}), (q,)))
        return out

    return split


def _scaled(x: float, k: int) -> float:
    """P^k(x): x multiplied by optics._HADAMARD_C k times, as k butterfly steps scale an amplitude that meets only zeros."""
    for _ in range(k):
        x *= _HADAMARD_C
    return x


def _frame_column(m: int, a: float) -> tuple[float, float]:
    """The frame trace of magnitude a: (p, v), each live port's probability and the amplitude of its closed state.

    The trace is the definition, with P^k(x) = _scaled(x, k):
    V = 4 P^(2m)(a), taken as 2 P^m(2 P^m(a)), one doubling per layer;
    p = the left-to-right sum of 2^(m-1) copies of V*V;
    v = 2^(m-1) P^m(V * p**-0.5).

    On R0 at amplitude a (_ghz_frame) it is the dense step the tests keep
    as their reference (tests/helpers.py's dense_split), bit for bit. A
    layer's butterflies scale each amplitude of the complementary pair
    alone until the last step, where the two meet at equal magnitude and
    double exactly or cancel to 0: 2 P^m(a) on the even pol registers, then
    V on every (even pol, even spatial) pair. A port's [pol] column holds V
    on 2^(m-1) registers, a coset of the even ones, and zeros, so its sum
    down the column is p; it is scaled by p**-0.5, and the closing pol
    Hadamard again meets equal magnitudes only: 2^(m-1) P^m(V * p**-0.5)
    on registers 0 and 2^m - 1, zero elsewhere. Doubling is exact and
    commutes with the scaling by c in the normal range. walsh_hadamard
    prunes after each layer, so where 2 P^m(a) or V is at or below
    PRUNE_TOL (V from about m = 48 on, for a normalized member) no port
    carries probability, and the trace is (0.0, 0.0).
    """
    top = 1 << (m - 1)
    pol = 2.0 * _scaled(a, m)
    V = 2.0 * _scaled(pol, m) if abs(pol) > PRUNE_TOL else 0.0
    if abs(V) <= PRUNE_TOL:
        return 0.0, 0.0
    p = reduce(add, repeat(V * V, top))  # left to right: the builtin sum of Python 3.12 compensates
    w = V * p**-0.5
    return p, top * _scaled(w, m)


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


@lru_cache(maxsize=32)
def _partition(
    rule: AcceptanceRule, m: int, parity: int, zq: int, flips: tuple[int, ...]
) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The ports of one parity class grouped by (zq.q, F(q)): ((zq.q, F(q), its ports ascending), ...).

    ``flips`` holds F(q) for each port of the class, in class order. The
    key is every input the split reads: the class's ports, through (rule,
    m, parity), zq and the flips; the gate enters only through zq and the
    parity. So a hit is the split itself, and it lives for the process,
    shared read-only: the frame step hands _execute the same port tuples
    run after run.
    """
    grouped: dict[tuple[int, int], list[int]] = {}
    for q, flip in zip(_port_classes(rule, m)[parity], flips):
        grouped.setdefault(((zq & q).bit_count() & 1, flip), []).append(q)
    return tuple((odd, flip, tuple(qs)) for (odd, flip), qs in grouped.items())


def _hadamard_split(
    m: int, rule: AcceptanceRule, plan: CorrectionPlan, gate: Gate
) -> Callable[[PureState], Split]:
    """The Hadamard-mode step: each real GHZ x GHZ member's ports from the frame trace, any other member's sparse step.

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

    C' is the frame trace (_frame_column): C'(0) = v, C'(2^m - 1) =
    (-1)^t0 v, zero elsewhere, at probability p, where t0 is the parity of
    the registers C holds. At a port of R0's class, of the parity of c2, C
    holds the registers o whose p and s above are even; pol_o or sp_o is
    2^m - 1, as the inverse is a bijection, and q&mask has the parity of
    c2&mask, so t0 is read off the masks once per run. So every port of M
    holds a scaled GHZ state on the complementary pair {zo, zo ^ (2^m - 1)},
    zo < 2^(m-1): with x = xo ^ F(q) and s = c ^ zq.q ^ x.zo, the sign is
    s on zo and s ^ t0 ^ x.(2^m - 1) on its complement. A member's ports
    fall into one group, and one state, per (zq.q, F(q)): _partition, keyed
    on the class, zq and the class's flip masks, which a run reads off its
    plan once per (zq, class). Each magnitude's trace is taken once per run.

    This is exact: it gives what a member's own dense step (walsh_hadamard
    on both registers, routing, the closing layer) gives, bit for bit. A
    butterfly on a Pauli image of its input gives the same floats, moved
    or negated, since c x + c y = c y + c x and c x - c y = -(c y - c x)
    bit for bit; a zero whose sign may differ is pruned to +0.0. Every
    nonzero amplitude of one port of a GHZ x GHZ product has the same
    magnitude, so the port's probability, a left-to-right sum in register
    order, is the same in any order. The amplitudes are +-v made complex,
    in ascending register order. Any other member takes _sparse_split.
    """
    (a1, b1, _, a2, b2, c2), (pol_o, pol_q, pol_c, sp_o, sp_q, sp_c) = gate
    full = (1 << m) - 1
    classes = _port_classes(rule, m)  # port parity -> its ports
    t0 = ((c2 & pol_q ^ pol_c) if pol_o else (c2 & sp_q ^ sp_c)).bit_count() & 1
    off_frame = _sparse_split(m, rule, plan, gate)
    traces: dict[float, tuple[float, float]] = {}  # magnitude a -> _frame_column(m, a)
    partitions: dict[tuple[int, int], tuple[tuple[int, int, tuple[int, ...]], ...]] = {}  # (zq, parity) -> _partition

    def split(member: PureState) -> Split:
        parts = _ghz_frame(member)
        if parts is None:
            return off_frame(member)
        a, e, f, zp, zs = parts
        xq = zp & a2 ^ zs & b2
        if not (ports := classes[parity := (xq ^ c2).bit_count() & 1]):
            return []
        if (trace := traces.get(a)) is None:
            trace = traces[a] = _frame_column(m, a)
        prob, v = trace
        if not prob:
            return []
        xo, zo, zq = zp & a1 ^ zs & b1, e & pol_o ^ f & sp_o, e & pol_q ^ f & sp_q
        c = (e & pol_c ^ f & sp_c ^ zo & xo).bit_count() & 1
        if (groups := partitions.get(zq_class := (zq, parity))) is None:
            flips = tuple(map(plan.get, ports, repeat(0)))
            groups = partitions[zq_class] = _partition(rule, m, parity, zq, flips)
        out: Split = []
        for odd, flip, qs in groups:
            x = xo ^ flip
            s = c ^ odd ^ (x & zo).bit_count() & 1
            t = s ^ t0 ^ x.bit_count() & 1
            terms = {(zo,): complex(-v if s else v), (zo ^ full,): complex(-v if t else v)}
            out.append((prob, PureState._derived(m, (POL,), terms), qs))
        return out

    return split


@lru_cache(maxsize=32)
def _patterns(m: int, ports: tuple[int, ...]) -> tuple[Pattern, ...]:
    """Each port's Pattern (states.bits) for a cell of several ports: built once per process, shared read-only.

    Only the frame step gives a group, and so a cell, more than one port;
    the other steps' one-port cells are spelled out per run,
    so that no cache holds their ports.
    """
    return tuple(map(bits, repeat(m), ports))


Cell = list[tuple[int, float, PureState]]  # (member index, weight, state) entries, in member order
_WEIGHT, _PATTERN_OUTCOME = itemgetter(1), itemgetter(1, 2)


def _cells(groups: dict[tuple[int, ...], Cell]) -> Iterable[tuple[tuple[int, ...], Cell]]:
    """(its ports, its entries) for each cell: the ports held by one set of port tuples.

    Where no port is in two tuples, each tuple is a cell: so with one
    tuple, or with the distinct one-port tuples of the two sparse
    steps, which the first two tests take without a set. Else each port
    gets, at C level, the positions of the tuples that hold it, and ports
    with the same positions form one cell, whose entries are those of its
    tuples put back in member order: a member's groups hold disjoint ports,
    so no two entries of one cell share a member index.
    """
    if len(groups) == 1 or max(map(len, groups)) == 1 or sum(map(len, groups)) == len(set().union(*groups)):
        return groups.items()
    held_by: dict[int, tuple[int, ...]] = {}  # port -> positions of the tuples that hold it, ascending
    for i, ports in enumerate(groups):
        held_by.update(zip(ports, map(add, map(held_by.get, ports, repeat(())), repeat((i,)))))
    lists = list(groups.values())
    return [
        (tuple(ports), sorted(chain.from_iterable(map(lists.__getitem__, cell))))
        for cell, ports in groupby(sorted(held_by, key=held_by.__getitem__), held_by.__getitem__)
    ]


def _gate(table: GateTable, m: int) -> Gate:
    """check_table of the table and of its inverse: the masks every step routes with."""
    return check_table(table, m), check_table({out: row for row, out in table.items()}, m)


@lru_cache(maxsize=32)
def _default_gate(m: int) -> Gate:
    """_gate of GATE_TABLE, derived once per m and shared read-only; a table passed in is checked on every run."""
    return _gate(GATE_TABLE, m)


def _ghz_factor(state: PureState) -> tuple[int, int] | None:
    """(r, sign) of a factor member a(|r> + sign |r ^ (2^m - 1)>), a real, r < 2^(m-1); None for any other member.

    As in _ghz_product_parts, both registers must be m-bit registers.
    """
    if len(state.terms) != 2:
        return None
    ((r,), a), ((high,), b) = state.terms.items()
    if r > high:
        r, a, high, b = high, b, r, a
    full = (1 << state.m) - 1
    if r ^ high != full or high > full or a.imag or b.imag or abs(a.real) != abs(b.real):
        return None
    return r, 1 if a.real == b.real else -1


def _run_members(
    ensemble: Ensemble, rule: AcceptanceRule, gate: Gate, hadamard_first: bool
) -> tuple[tuple[float, PureState], ...]:
    """The members a run steps through: of a product, those of the pairs its rule can accept.

    A pair of real GHZ factor members (_ghz_factor), GHZ(e, sign) x
    GHZ(f, sign'), reaches one port class, which decides whether its step
    gives any group. The sparse step sends it to ports x = e&a2 ^ f&b2 ^ c2
    and x ^ (2^m - 1), as a2 and b2 are 0 or 2^m - 1. The unanimous rule
    accepts one of them where f&b2, which is below 2^(m-1), is the lower of
    e&a2 ^ c2 and its complement. The frame step gives the pair ports of
    the parity of zp&a2 ^ zs&b2 ^ c2 alone, zp (zs) 2^(m-1) where the pol
    (spatial) sign is -, else 0 (_hadamard_split): where the rule accepts
    ports of one parity only, the pair is live where that parity is its
    class. Either way a pol member wants one spatial key, looked up among
    the spatial members' keys. A pair skipped would give no group, so the
    live pairs, in member order, leave every fsum of the run the same
    multiset. Every pair is taken where the rule can accept every pair
    (accept-all, or ports of both parities in a Hadamard run), where it is
    another rule in the sparse step (only an API caller runs the phase-flip
    rule there), and where a factor member is not a real two-term GHZ state.
    A product whose members were read already (infer_flip_plan, densify)
    is filtered all the same: select builds the live pairs anew.
    """
    if type(ensemble) is not ProductEnsemble:
        return ensemble.members
    m = ensemble.m
    if hadamard_first:
        live = [parity for parity, ports in enumerate(_port_classes(rule, m)) if ports]
        if len(live) != 1:
            return ensemble.members
    elif rule.mode != "bitflip":
        return ensemble.members
    pol, spatial = ([_ghz_factor(s) for _, s in factor.members] for factor in ensemble.factors)
    if None in pol or None in spatial:
        return ensemble.members
    full, top = (1 << m) - 1, 1 << (m - 1)
    (_, _, _, a2, b2, c2), _ = gate
    if hadamard_first:  # keys are parities
        wants = [((top if sign < 0 else 0) & a2 ^ c2).bit_count() & 1 ^ live[0] for _, sign in pol]
        keys = [((top if sign < 0 else 0) & b2).bit_count() & 1 for _, sign in spatial]
    else:
        wants = [min(x := e & a2 ^ c2, x ^ full) for e, _ in pol]
        keys = [f & b2 for f, _ in spatial]
    holders: dict[int, list[tuple[float, PureState]]] = {}  # spatial key -> its spatial members, in member order
    for key, member in zip(keys, ensemble.factors[1].members):
        holders.setdefault(key, []).append(member)
    return ensemble.select([holders.get(want, ()) for want in wants])


def _execute(
    ensemble: Ensemble,
    rule: AcceptanceRule,
    plan: CorrectionPlan,
    target: PureState | None,
    hadamard_first: bool,
    gate_table: GateTable | None,
) -> ProtocolResult:
    """One run: each member's step, then per cell of accepted ports one conditional ensemble and fidelity.

    A Hadamard run steps through _hadamard_split, the other modes through
    _split_by_pattern; neither builds an array. It steps through the
    members _run_members gives: of a product, only those whose port class
    the rule can accept. Each step takes the masks
    of the table and its inverse, read here once, and returns port groups.
    Each distinct ports tuple holds the entries of its groups once, in
    member order, and a port's cell is the set of tuples that hold it
    (_cells). A cell's
    entries are, in order, the bucket each of its ports had in the former
    per-port loop (tests/helpers.py's per_port_execute), so the cell builds
    that loop's PatternOutcome once for all its ports. Both sums are fsum
    over the multiset that loop summed: each port's bucket weights for the
    accepted mass, and each port's probability x fidelity for the output
    fidelity, so each cell adds its weights and its product once per port.
    fsum is exactly rounded, so neither the grouping nor the order moves a
    bit.
    """
    if ensemble.dofs != (POL, SPATIAL):
        raise ValueError(f"protocol input must carry (pol, spatial) labels, got {ensemble.dofs}")
    m = ensemble.m
    if target is None:
        target = make_ghz_pol(m, 0, +1)
    if target.m != m or target.dofs != (POL,):
        raise ValueError("target must be a bare polarization state on the same photons")

    gate = _default_gate(m) if gate_table is None else _gate(gate_table, m)
    step = (_hadamard_split if hadamard_first else _split_by_pattern)(m, rule, plan, gate)
    groups: dict[tuple[int, ...], Cell] = {}  # ports tuple -> the entries of the groups that hold it
    for k, (weight, member) in enumerate(_run_members(ensemble, rule, gate, hadamard_first)):
        for cond_prob, cond_state, ports in step(member):
            if (w := weight * cond_prob) > 0.0:  # an underflowed product carries nothing
                groups.setdefault(ports, []).append((k, w, cond_state))
    if not groups:  # else the accepted mass is a sum of positive weights
        raise ValueError("no accepted port pattern carries probability; fidelity undefined")

    accepted: list[tuple[int, Pattern, PatternOutcome]] = []  # (port, its Pattern, its cell's outcome)
    mass: list[float] = []  # each cell's weights, once for each of its ports
    weighted: list[float] = []  # each cell's probability x fidelity, once for each of its ports
    for ports, cell in _cells(groups):
        weights = list(map(_WEIGHT, cell))
        pattern_prob = math.fsum(weights)
        cond_ensemble = Ensemble._derived(tuple((w / pattern_prob, s) for _, w, s in cell))
        outcome = PatternOutcome(pattern_prob, cond_ensemble, fidelity(cond_ensemble, target))
        if len(ports) == 1:  # the sparse steps' cells, spelled out here and cached nowhere
            accepted.append((ports[0], bits(m, ports[0]), outcome))
            mass += weights
            weighted.append(pattern_prob * outcome.fidelity)
        else:
            accepted += zip(ports, _patterns(m, ports), repeat(outcome))
            mass += weights * len(ports)
            weighted += [pattern_prob * outcome.fidelity] * len(ports)
    accepted.sort()  # numeric order of m-bit registers is the order of their MSB-first bit tuples
    accepted_mass = math.fsum(mass)

    return ProtocolResult(
        accepted=dict(map(_PATTERN_OUTCOME, accepted)),
        success_probability=accepted_mass,
        rejected_probability=1.0 - accepted_mass,
        output_fidelity=math.fsum(weighted) / accepted_mass,
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
