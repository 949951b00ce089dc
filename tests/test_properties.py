"""Property tests over every entry of the mode table.

Each example draws the F values of the mode's verify input, a photon count
and a target GHZ state, then checks the engine against the dense oracle and
the invariants every result must keep. Examples are derandomized, so every
run draws the same inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzpurify import MODES, Ensemble, make_ghz_pol
from ghzpurify.oracle import densify, oracle_run

TOL = 1e-12
ORACLE_TOL = 1e-10


@st.composite
def cases(draw, mode):
    m = draw(st.integers(mode.min_m, 4))
    f1, f2 = draw(st.floats(0.05, 0.95)), draw(st.floats(0.05, 0.95))
    index = draw(st.integers(0, 2 ** (m - 1) - 1))
    sign = draw(st.sampled_from((1, -1)))
    return mode.verify_input(m, f1, f2), make_ghz_pol(m, index, sign)


@pytest.mark.parametrize("name", list(MODES))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_mode_properties(name, data):
    mode = MODES[name]
    ensemble, target = data.draw(cases(mode))
    m = ensemble.m
    result = mode.run(ensemble, target=target)

    dense = oracle_run(densify(ensemble), m, mode.rule, corrections=mode.plan(ensemble), target=target)
    assert result.output_fidelity == pytest.approx(dense.output_fidelity, abs=ORACLE_TOL)
    assert result.success_probability == pytest.approx(dense.success_probability, abs=ORACLE_TOL)

    assert result.success_probability + result.rejected_probability == pytest.approx(1.0, abs=TOL)
    for fid in [result.output_fidelity] + [o.fidelity for o in result.accepted.values()]:
        assert -TOL <= fid <= 1.0 + TOL

    reversed_result = mode.run(Ensemble(tuple(reversed(ensemble.members))), target=target)
    assert reversed_result.success_probability == result.success_probability
    assert reversed_result.output_fidelity == result.output_fidelity
    assert set(reversed_result.accepted) == set(result.accepted)
