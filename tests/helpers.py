"""Shared test data and independent brute-force utilities.

`brute_vector` re-embeds labeled states into dense vectors with its own
arithmetic so tests that cross-check the package against dense linear
algebra do not reuse the code path under test; `brute_density` sums an
ensemble's projectors from it into the full 4^m x 4^m operator, the
reference for `oracle.densify`, which writes only its support's block.
`tensordot_contract` and
`full_gather_oracle_run` (with `correction_unitary`, the 2^m x 2^m matrix
of a port's correction) keep the oracle's former forms as references for
its faster ones, `route` applies `optics.check_table`'s masks to
registers or index grids, `gate_masks` builds the masks a run hands its
step, and `per_port_execute` keeps `protocol._execute`'s former per-port
loop as the reference for the outcomes it now builds once per cell of
ports. `walsh_hadamard` (with `prune`) is the dense Walsh-Hadamard layer
on register arrays, kept here so that no edit to the package moves it:
`walsh_state` runs it on one labeled state, the reference for
`optics.hadamard_pol`/`hadamard_spatial`, and `dense_split` keeps
`protocol`'s former Hadamard-mode dense step on it: the frame step
matches it bit for bit, and the sparse step that replaced it within
1e-12. `clear_caches` empties what `protocol` keeps for the life of the
process, so that a test can run cold. Label literals are written photon
by photon, one tuple of bits per photon, and turned into the package's
register labels by `pack`; `unpack` undoes it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ghzpurify import protocol
from ghzpurify.optics import check_table
from ghzpurify.oracle import (
    OracleResult,
    _hadamard_2x2,
    _indices,
    _kron_all,
    hadamard_both_unitary,
    network_unitary,
    state_vector,
)
from ghzpurify.protocol import (
    AcceptanceRule,
    CorrectionPlan,
    Gate,
    PatternOutcome,
    ProtocolResult,
    Split,
    closed_form_general,
)
from ghzpurify.states import (
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
    make_state,
    overlap,
)

# The Hadamard coefficient, optics._HADAMARD_C's value written out, so that no edit to the package moves the dense reference
HADAMARD_C = 2.0**-0.5


def pair_closed_form(fa: float, fb: float) -> tuple[float, float]:
    """(fidelity, success probability) of the two-component closed form: closed_form_general on (F, 1 - F)."""
    (fidelity, _), success = closed_form_general((fa, 1.0 - fa), (fb, 1.0 - fb))
    return fidelity, success


def assert_deviation_is_difference(record: dict) -> None:
    """A JSON run record prints each deviation as the exact |engine - closed form| of its printed fields."""
    result, closed, deviation = record["result"], record["closed_form"], record["deviation"]
    assert deviation["fidelity"] == abs(result["output_fidelity"] - closed["fidelity"])
    assert deviation["success_probability"] == abs(result["success_probability"] - closed["success_probability"])


def assert_same_text(a: str, b: str) -> None:
    """Fail where two texts first differ; pytest's own diff of two long reprs can take minutes."""
    if a != b:
        at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        raise AssertionError(f"texts differ at {at}: {a[max(0, at - 80):at + 80]!r} against {b[max(0, at - 80):at + 80]!r}")


def route(pol, spatial, m: int, table):
    """Outgoing (pol, port) registers under a gate table, by check_table's masks; ints or numpy index grids."""
    a1, b1, c1, a2, b2, c2 = check_table(table, m)
    return pol & a1 ^ spatial & b1 ^ c1, pol & a2 ^ spatial & b2 ^ c2


def gate_masks(table, m: int):
    """What protocol._execute hands a step factory: check_table of the table and of its inverse."""
    return check_table(table, m), check_table({out: row for row, out in table.items()}, m)


def per_port_execute(ensemble, rule, plan, target=None, hadamard_first=False, gate_table=None) -> ProtocolResult:
    """protocol._execute with a conditional ensemble and a fidelity built for every accepted port, none shared.

    The step factories are looked up on protocol at call time, so a step
    patched there runs here too. Every port's bucket holds its entries in
    member order, and every fsum visits each port's own terms.
    """
    m = ensemble.m
    target = make_ghz_pol(m, 0, +1) if target is None else target
    gate = gate_masks(protocol.GATE_TABLE if gate_table is None else gate_table, m)
    step = (protocol._hadamard_split if hadamard_first else protocol._split_by_pattern)(m, rule, plan, gate)
    buckets = {}
    for weight, member in ensemble.members:
        for prob, state, ports in step(member):
            if (w := weight * prob) > 0.0:
                for port in ports:
                    buckets.setdefault(port, []).append((w, state))
    accepted = {}
    for port in sorted(buckets):
        total = math.fsum(w for w, _ in buckets[port])
        cond = Ensemble(tuple((w / total, s) for w, s in buckets[port]))
        accepted[bits(m, port)] = PatternOutcome(total, cond, fidelity(cond, target))
    success = math.fsum(w for entries in buckets.values() for w, _ in entries)
    fidelity_mass = math.fsum(o.probability * o.fidelity for o in accepted.values())
    return ProtocolResult(accepted, success, 1.0 - success, fidelity_mass / success)


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
    if amps.shape[0] != 1 << m or amps.dtype not in (np.float64, np.complex128) or not amps.flags.c_contiguous:
        raise ValueError(f"expected a C-contiguous float64 or complex128 array with {1 << m} rows")
    scaled = np.empty_like(amps)
    for k in range(m):
        np.multiply(amps.view(np.float64), HADAMARD_C, out=scaled.view(np.float64))
        halves, out = scaled.reshape(1 << k, 2, -1), amps.reshape(1 << k, 2, -1)
        np.add(halves[:, 0], halves[:, 1], out=out[:, 0])
        np.subtract(halves[:, 0], halves[:, 1], out=out[:, 1])
    prune(amps)


def prune(amps: np.ndarray) -> None:
    """Zero every amplitude of magnitude at or below PRUNE_TOL, in place, as make_state drops them."""
    amps[np.abs(amps) <= PRUNE_TOL] = 0.0


def walsh_state(state: PureState, dof: str) -> PureState:
    """The reference for optics.hadamard_pol and hadamard_spatial: walsh_hadamard on one column per value of the other registers."""
    axis = state.dofs.index(dof)
    column: dict[Label, int] = {}
    for label in state.terms:
        column.setdefault(label[:axis] + label[axis + 1 :], len(column))
    amps = np.zeros((1 << state.m, len(column)), dtype=complex)
    for label, amp in state.terms.items():
        amps[label[axis], column[label[:axis] + label[axis + 1 :]]] = amp
    walsh_hadamard(amps, state.m)
    rests = list(column)
    return make_state(state.m, state.dofs, (
        (rests[c][:axis] + (reg,) + rests[c][axis:], amps[reg, c]) for reg, c in np.argwhere(amps).tolist()
    ))


def dense_split(
    m: int, rule: AcceptanceRule, plan: CorrectionPlan, gate: Gate
) -> Callable[[PureState], Split]:
    """The Hadamard-mode step for one member, on dense arrays indexed by the registers.

    Same contract as _split_by_pattern, one group per accepted port; its
    state is corrected by the photon flips of the port's mask
    followed by the mode's closing polarization Hadamard. It runs the
    per-state route (hadamard_pol, hadamard_spatial, apply_network, the
    grouping by port, bit_flip_pol, hadamard_pol) with the same float
    operations for every amplitude: walsh_hadamard on both registers, the
    pol layer on the columns of the spatial registers present only. The
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
    size = 1 << m
    grid = np.arange(size)
    ports = rule.ports(m)
    _, (pol_o, pol_q, pol_c, sp_o, sp_q, sp_c) = gate
    # [pol, accepted port] -> flat index of amps [spatial, pol], by the inverse masks
    o, q = grid[:, None], np.array(ports)[None, :]
    source = (o & sp_o ^ q & sp_q ^ sp_c) * size + (o & pol_o ^ q & pol_q ^ pol_c)
    flips = np.array([plan.get(p, 0) for p in ports])  # column -> its port's flip mask

    def split(member: PureState) -> Split:
        pol, spatial = zip(*member.terms)
        values = np.array(list(member.terms.values()), dtype=complex)
        if not values.imag.any():
            values = values.real  # every imaginary part is +-0: run the real parts alone
        present = sorted(set(spatial))
        column = {reg: c for c, reg in enumerate(present)}
        layer = np.zeros((size, len(present)), dtype=values.dtype)  # [pol, spatial register present]
        layer[pol, [column[reg] for reg in spatial]] = values
        walsh_hadamard(layer, m)
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


def clear_caches() -> None:
    """Empty protocol's process-lifetime caches: port tables, partitions, frame traces, pattern tuples, gate masks."""
    for cached in (
        protocol.AcceptanceRule.ports, protocol.phaseflip_plan, protocol._port_classes, protocol._partition,
        protocol._frame_column, protocol._patterns, protocol._default_gate,
    ):
        cached.cache_clear()


def by_port(split) -> dict:
    """A protocol step's groups spelled out per port, ports ascending: port -> (probability, state)."""
    return dict(sorted(((q, (p, s)) for p, s, ports in split for q in ports), key=lambda item: item[0]))


def states_close(a: PureState, b: PureState, tol: float = NORM_TOL, global_phase: bool = False) -> bool:
    """Term-by-term amplitude equality; optionally modulo a global phase."""
    if a.m != b.m or a.dofs != b.dofs:
        return False
    if global_phase:
        return abs(abs(overlap(a, b)) - 1.0) <= tol
    labels = set(a.terms) | set(b.terms)
    return all(abs(a.terms.get(l, 0.0j) - b.terms.get(l, 0.0j)) <= tol for l in labels)


def pack(photons) -> tuple[int, ...]:
    """Register label of a per-photon literal: photon 0 becomes the most significant bit."""
    registers = [0] * len(photons[0])
    for photon in photons:
        for d, bit in enumerate(photon):
            registers[d] = 2 * registers[d] + bit
    return tuple(registers)


def unpack(m: int, label) -> tuple[tuple[int, ...], ...]:
    """Per-photon bit tuples of a register label, photon 0 first."""
    return tuple(tuple((reg >> (m - 1 - k)) & 1 for reg in label) for k in range(m))


# Reference three-photon Hadamard images. Each family below lists four
# sign rows over a fixed ket order; the even-parity kets carry the
# plus-sign GHZ images, the odd-parity kets the minus-sign images.
EVEN_BITS = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
ODD_BITS = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
SIGN_ROWS = [
    (1, 1, 1, 1),
    (1, 1, -1, -1),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
]
# GHZ index i lands on reference row PAIRING[i]; the minus family lands
# there up to the recorded global sign.
PAIRING = {0: 0, 1: 3, 2: 2, 3: 1}
MINUS_GLOBAL_SIGN = {0: 1, 1: -1, 2: 1, 3: -1}


def reference_hadamard_state(row: int, sign: int, dof: str) -> PureState:
    """Row `row` of the reference table for the given GHZ sign family."""
    bits = EVEN_BITS if sign == 1 else ODD_BITS
    terms = {
        pack([(b,) for b in ket]): 0.5 * s
        for ket, s in zip(bits, SIGN_ROWS[row])
    }
    return PureState(3, (dof,), terms)


def scaled(state: PureState, factor: complex) -> PureState:
    if abs(abs(factor) - 1.0) > 1e-12:
        raise ValueError("only phase factors keep the state normalized")
    return PureState(state.m, state.dofs, {k: factor * v for k, v in state.terms.items()})


def brute_vector(state: PureState) -> np.ndarray:
    """Dense embedding of a labeled state, photon-major, bits big-endian."""
    width = len(state.dofs)
    local_dim = 2**width
    vec = np.zeros(local_dim**state.m, dtype=complex)
    for label, amp in state.terms.items():
        index = 0
        for photon in unpack(state.m, label):
            local = 0
            for bit in photon:
                local = 2 * local + bit
            index = index * local_dim + local
        vec[index] += amp
    return vec


def brute_density(ensemble: Ensemble) -> np.ndarray:
    """sum_k p_k |k><k| on the full joint space, member by member, from brute_vector."""
    first = ensemble.members[0][1]
    dim = (2 ** len(first.dofs)) ** first.m
    rho = np.zeros((dim, dim), dtype=complex)
    for weight, state in ensemble.members:
        vec = brute_vector(state)
        rho += weight * np.outer(vec, vec.conj())
    return rho


def interleave_factors(pol_vec: np.ndarray, spatial_vec: np.ndarray, m: int) -> np.ndarray:
    """Tensor two single-DOF vectors into the photon-interleaved joint basis."""
    out = np.zeros(4**m, dtype=complex)
    for pi in range(2**m):
        if pol_vec[pi] == 0:
            continue
        for si in range(2**m):
            if spatial_vec[si] == 0:
                continue
            joint = 0
            for k in range(m):
                pb = (pi >> (m - 1 - k)) & 1
                sb = (si >> (m - 1 - k)) & 1
                joint = 4 * joint + 2 * pb + sb
            out[joint] = pol_vec[pi] * spatial_vec[si]
    return out


def pol_state_from_string(kets: dict[str, complex]) -> PureState:
    """Build a polarization state from ket strings like 'HVH'."""
    terms = {
        pack([({"H": 0, "V": 1}[c],) for c in ket]): amp for ket, amp in kets.items()
    }
    m = len(next(iter(kets)))
    return PureState(m, (POL,), terms)


def random_joint_state(rng: np.random.Generator, m: int = 3) -> PureState:
    """Haar-ish random state over the joint (pol, spatial) basis."""
    import itertools

    labels = [
        pack(tuple(zip(pol, sp)))
        for pol in itertools.product((0, 1), repeat=m)
        for sp in itertools.product((0, 1), repeat=m)
    ]
    amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    amps /= np.linalg.norm(amps)
    return PureState(m, (POL, SPATIAL), dict(zip(labels, map(complex, amps))))


def tensordot_contract(rho: np.ndarray, factor: np.ndarray, m: int) -> np.ndarray:
    """L rho L^dagger for L = factor^(x m): photon by photon, a tensordot on its ket then its bra axis.

    The reference for the conjugation whose port blocks oracle._blocks reads.
    """
    t = rho.reshape((4,) * (2 * m))
    for k in range(m):
        for f, axis in ((factor, k), (factor.conj(), m + k)):
            t = np.moveaxis(np.tensordot(f, t, axes=(1, axis)), 0, axis)
    return t.reshape(rho.shape)


def correction_unitary(m: int, flips: int, hadamard: bool) -> np.ndarray:
    """X on the photons set in the m-bit mask, then H on every photon for a Hadamard mode."""
    x2, i2 = np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
    mat = _kron_all([x2 if b else i2 for b in bits(m, flips)])
    return _kron_all([_hadamard_2x2()] * m) @ mat if hadamard else mat


def full_gather_oracle_run(dense, m, mode, corrections, target=None) -> OracleResult:
    """The reference for oracle.oracle_run: the whole network-permuted copy of rho, then each port's
    block conjugated by its 2^m x 2^m correction matrix and scored against the target vector."""
    tvec = state_vector(target if target is not None else make_ghz_pol(m, 0, +1))
    rho = dense
    if mode.hadamard:
        rho = tensordot_contract(rho, hadamard_both_unitary(1), m)
    src = network_unitary(m).argmax(axis=1)  # the network permutation's index, row by row
    rho = rho[np.ix_(src, src)]
    table = {}
    success = fidelity_mass = 0.0
    for port in range(1 << m):
        if not mode.rule.accepts(port, m):
            continue
        idx = _indices(m, np.arange(1 << m), port)
        block = rho[np.ix_(idx, idx)]
        prob = max(float(np.trace(block).real), 0.0)
        if prob < 1e-15:
            continue
        cmat = correction_unitary(m, corrections.get(port, 0), mode.hadamard)
        corrected = cmat @ block @ cmat.conj().T
        fid = float(np.real(tvec.conj() @ corrected @ tvec)) / prob
        table[bits(m, port)] = (prob, fid)
        success += prob
        fidelity_mass += prob * fid
    return OracleResult(success, 1.0 - success, fidelity_mass / success, table)
