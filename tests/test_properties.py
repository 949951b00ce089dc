"""Property tests over every entry of the mode table.

Examples draw either the F values of a mode's verify input or an arbitrary
GHZ-diagonal mixture per degree of freedom, a photon count and a target GHZ
state, then check the engine against the dense oracle and the invariants
every result must keep, among them that every state and ensemble the
engine derives unchecked passes the public checks. Examples are
derandomized, so every run draws the same inputs.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzpurify.noise import mix_general, product_ensemble
from ghzpurify.optics import GATE_TABLE
from ghzpurify.oracle import density_on_support, oracle_run
from ghzpurify.protocol import MODES, AcceptanceRule, run_general
from ghzpurify.states import Ensemble, PureState, make_ghz_pol, make_ghz_spatial
from helpers import pack, unpack

TOL = 1e-12
ORACLE_TOL = 1e-10
NO_PATTERN = "no accepted port pattern"
# the gate with its two rail-1 rows swapped, as verify --inject-gate-fault swaps them: its port constant is 2^m - 1
FAULTED = {**GATE_TABLE, (0, 0): GATE_TABLE[(1, 0)], (1, 0): GATE_TABLE[(0, 0)]}


@st.composite
def cases(draw, mode):
    m = draw(st.integers(mode.min_m, 4))
    f1, f2 = draw(st.floats(0.05, 0.95)), draw(st.floats(0.05, 0.95))
    index = draw(st.integers(0, 2 ** (m - 1) - 1))
    sign = draw(st.sampled_from((1, -1)))
    return mode.verify_input(m, f1, f2), make_ghz_pol(m, index, sign)


def assert_rebuilds(ensemble):
    """Every member equals its rebuild through the public, checked constructor."""
    for _, s in ensemble.members:
        assert PureState(s.m, s.dofs, dict(s.terms)) == s


@pytest.mark.parametrize("name", list(MODES))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_mode_properties(name, data):
    mode = MODES[name]
    ensemble, target = data.draw(cases(mode))
    m = ensemble.m
    result = mode.run(ensemble, target=target)

    dense = oracle_run(*density_on_support(ensemble), m, mode, mode.plan(ensemble), target)
    assert result.output_fidelity == pytest.approx(dense.output_fidelity, abs=ORACLE_TOL)
    assert result.success_probability == pytest.approx(dense.success_probability, abs=ORACLE_TOL)

    assert result.success_probability + result.rejected_probability == pytest.approx(1.0, abs=TOL)
    # the one place a port register becomes a Pattern: m bits, in ascending order
    patterns = list(result.accepted)
    assert all(len(p) == m and set(p) <= {0, 1} for p in patterns)
    assert patterns == sorted(patterns)
    for fid in [result.output_fidelity] + [o.fidelity for o in result.accepted.values()]:
        assert -TOL <= fid <= 1.0 + TOL

    # the engine builds these unchecked: each must pass the public checks unchanged
    for outcome in result.accepted.values():
        assert Ensemble(outcome.ensemble.members) == outcome.ensemble
        assert_rebuilds(outcome.ensemble)
    assert_rebuilds(ensemble)

    reversed_result = mode.run(Ensemble(tuple(reversed(ensemble.members))), target=target)
    assert reversed_result.success_probability == result.success_probability
    assert reversed_result.output_fidelity == result.output_fidelity
    assert set(reversed_result.accepted) == set(result.accepted)


@st.composite
def ghz_mixture(draw, maker, m):
    """One to four distinct GHZ (index, sign) components with random weights."""
    keys = draw(st.lists(
        st.tuples(st.integers(0, 2 ** (m - 1) - 1), st.sampled_from((1, -1))), min_size=1, max_size=4, unique=True
    ))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(keys), max_size=len(keys)))
    return mix_general([maker(m, i, s) for i, s in keys], [w / sum(raw) for w in raw])


@st.composite
def ghz_diagonal_inputs(draw):
    m = draw(st.integers(2, 4))
    return product_ensemble(draw(ghz_mixture(make_ghz_pol, m)), draw(ghz_mixture(make_ghz_spatial, m)))


def random_target(data, m):
    return make_ghz_pol(m, data.draw(st.integers(0, 2 ** (m - 1) - 1)), data.draw(st.sampled_from((1, -1))))


def run_or_none(run):
    """The result, or None where no accepted pattern carries probability."""
    try:
        return run()
    except ValueError as exc:
        assert NO_PATTERN in str(exc)
        return None


@pytest.mark.parametrize("name", ["bitflip", "phaseflip"])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_ghz_diagonal_mixtures_match_oracle(name, data):
    mode = MODES[name]
    ensemble = data.draw(ghz_diagonal_inputs())
    m, target = ensemble.m, random_target(data, ensemble.m)
    result = run_or_none(lambda: mode.run(ensemble, target=target))
    dense = run_or_none(
        lambda: oracle_run(*density_on_support(ensemble), m, mode, mode.plan(ensemble), target)
    )
    assert (result is None) == (dense is None)
    if result is None:
        return
    assert result.output_fidelity == pytest.approx(dense.output_fidelity, abs=ORACLE_TOL)
    assert result.success_probability == pytest.approx(dense.success_probability, abs=ORACLE_TOL)
    for pattern, outcome in result.accepted.items():
        assert outcome.probability == pytest.approx(dense.pattern_table.get(pattern, (0.0,))[0], abs=ORACLE_TOL)


def repr_or_refusal(run) -> str:
    """The repr of a run's result, or its refusal where no accepted pattern carries probability."""
    try:
        return repr(run())
    except ValueError as exc:
        assert NO_PATTERN in str(exc)
        return str(exc)


@pytest.mark.parametrize("table", [GATE_TABLE, FAULTED], ids=["gate", "faulted"])
@pytest.mark.parametrize("name", list(MODES))
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_factored_product_runs_as_its_members(name, table, data):
    """A run on product_ensemble(pol, spatial), which builds only the pairs its rule can accept, is bit for bit
    the run on an Ensemble of all the product's members."""
    mode, m = MODES[name], data.draw(st.integers(2, 5))
    pol, spatial = data.draw(ghz_mixture(make_ghz_pol, m)), data.draw(ghz_mixture(make_ghz_spatial, m))
    target = random_target(data, m)
    factored = repr_or_refusal(lambda: mode.run(product_ensemble(pol, spatial), target, table))
    assert factored == repr_or_refusal(lambda: mode.run(Ensemble(product_ensemble(pol, spatial).members), target, table))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(ensemble=ghz_diagonal_inputs())
def test_trace_preserved(ensemble):
    result = run_general(ensemble, corrections={}, acceptance=AcceptanceRule("general"))
    assert result.success_probability == pytest.approx(1.0, abs=TOL)
    assert math.fsum(o.probability for o in result.accepted.values()) == pytest.approx(1.0, abs=TOL)


def move_photons(photons, perm):
    """Photon k's entry moves to position perm[k]."""
    moved = [None] * len(photons)
    for k, entry in enumerate(photons):
        moved[perm[k]] = entry
    return tuple(moved)


def permuted(state: PureState, perm) -> PureState:
    terms = {pack(move_photons(unpack(state.m, label), perm)): amp for label, amp in state.terms.items()}
    return PureState(state.m, state.dofs, terms)


@pytest.mark.parametrize("name", list(MODES))
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_photon_reordering(name, data):
    mode = MODES[name]
    ensemble = data.draw(ghz_diagonal_inputs())
    m, target = ensemble.m, random_target(data, ensemble.m)
    perm = data.draw(st.permutations(range(m)))
    moved = Ensemble(tuple((w, permuted(s, perm)) for w, s in ensemble.members))
    result = run_or_none(lambda: mode.run(ensemble, target=target))
    moved_result = run_or_none(lambda: mode.run(moved, target=permuted(target, perm)))
    assert (result is None) == (moved_result is None)
    if result is None:
        return
    assert moved_result.success_probability == pytest.approx(result.success_probability, abs=TOL)
    assert moved_result.output_fidelity == pytest.approx(result.output_fidelity, abs=TOL)
    expected = {move_photons(p, perm): o.probability for p, o in result.accepted.items()}
    assert set(moved_result.accepted) == set(expected)
    for pattern, outcome in moved_result.accepted.items():
        assert outcome.probability == pytest.approx(expected[pattern], abs=TOL)
