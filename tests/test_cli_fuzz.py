"""Fuzz the command-line boundary: bad input exits 0-3 with at most one stderr line.

Examples drive `cli.main` in-process with configs (wrong types, NaN and
inf, huge photon counts, extra keys, non-objects, text that is not JSON)
and with `sweep` and `verify` arguments (NaN, inf, zero and negative
steps, huge ranges, text that is not a number). Examples are
derandomized, so every run draws the same inputs.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzpurify import MODES
from ghzpurify.cli import main
from ghzpurify.noise import BIT_FLIP, POLARIZATION, NoiseSpec
from ghzpurify.records import ConfigError, ProtocolConfig
from ghzpurify.states import SPATIAL


def fuzz(examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples)


NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-9, 1e308, -1e308]),
    st.floats(-1e3, 1e3),
)
# photon counts either side of every cap, and far beyond them
INTEGERS = st.one_of(
    st.integers(-3, 8),
    st.sampled_from([10, 11, 16, 17, 1000, 1001, 100_000, 3_000_000, 2**63, 10**30]),
)
JUNK = st.one_of(
    st.none(), st.booleans(), NUMBERS, st.text(max_size=8), st.lists(st.integers(), max_size=2), st.just({})
)
# one valid config per mode at m = 3; the fuzz replaces m and breaks a few fields
VALID_NOISE = {
    "bitflip": ([("bit-flip", 1, 0.2)], [("bit-flip", 1, 0.3)]),
    "phaseflip": ([("phase-flip", 0, 0.2)], [("phase-flip", 0, 0.3)]),
    "general": ([("bit-flip", 1, 0.2), ("bit-flip", 2, 0.1)], [("bit-flip", 1, 0.1), ("bit-flip", 3, 0.25)]),
    "deterministic-demo": ([("bit-flip", 1, 0.2)], [("bit-flip", 2, 0.3)]),
}


def run(argv):
    """(exit code, stderr) of one in-process CLI call; argparse exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_clean(code, err):
    assert code in (0, 1, 2, 3)
    assert len(err.splitlines()) <= 1


def broken(draw, obj, values):
    """obj with one or two of its fields replaced by a drawn value or removed, or with an extra key."""
    obj = dict(obj)
    for key in draw(st.sets(st.sampled_from(sorted(obj)), min_size=1, max_size=2)):
        if draw(st.booleans()):
            obj[key] = draw(values)
        else:
            del obj[key]
    if draw(st.integers(0, 3)) == 0:
        obj[draw(st.text(max_size=5))] = draw(JUNK)
    return obj


@st.composite
def configs(draw):
    """A valid config at a drawn photon count, then perhaps broken at the top level or in one noise entry."""
    mode = draw(st.sampled_from(sorted(VALID_NOISE)))
    pol, spatial = ([{"kind": k, "target_index": i, "weight": w} for k, i, w in dof] for dof in VALID_NOISE[mode])
    target = draw(st.sampled_from(["0+", "1-", "3+", "9" * 5000 + "+"]))
    raw = {"m": draw(INTEGERS), "mode": mode, "pol_noise": pol, "spatial_noise": spatial, "target": target, "seed": 0}
    where = draw(st.sampled_from(["nowhere", "top", "noise"]))
    if where == "top":
        raw = broken(draw, raw, JUNK)
    elif where == "noise":
        entries = draw(st.sampled_from([pol, spatial]))
        pos = draw(st.integers(0, len(entries) - 1))
        entries[pos] = broken(draw, entries[pos], st.one_of(INTEGERS, JUNK))
    return json.dumps(raw)


NOT_CONFIGS = st.one_of(
    JUNK.map(json.dumps),
    st.sampled_from([
        "",
        "{",
        "[" * 100_000,
        '{"m": ' + "9" * 5000 + ', "mode": "bitflip"}',
        '{"m": NaN, "mode": "bitflip"}',
        '{"m": 3, "mode": "bitflip", "pol_noise": [{"kind": "bit-flip", "target_index": 1, "weight": Infinity}]}',
    ]),
)


def simulate(tmp_path_factory, text, fmt):
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    path.write_text(text, encoding="utf-8")
    return run(["simulate", str(path), "--reproducible", "--format", fmt])


@fuzz(120)
@given(text=configs(), fmt=st.sampled_from(["json", "csv"]))
def test_simulate_config_boundary(tmp_path_factory, text, fmt):
    assert_clean(*simulate(tmp_path_factory, text, fmt))


@fuzz(30)
@given(text=NOT_CONFIGS)
def test_simulate_non_config_boundary(tmp_path_factory, text):
    code, err = simulate(tmp_path_factory, text, "json")
    assert code == 2
    assert_clean(code, err)


def test_simulate_above_member_cap(tmp_path_factory, monkeypatch):
    """Every distinct bit-flip index m = 16 admits, about 10^9 product members: exit 2 at once."""

    def build_input(config):
        raise AssertionError("member cap not applied")

    # a lost cap fails here at once instead of building the members
    monkeypatch.setattr("ghzpurify.cli.build_input", build_input)
    entries = [{"kind": "bit-flip", "target_index": i, "weight": 1e-5} for i in range(1, 2**15)]
    raw = {"m": 16, "mode": "general", "pol_noise": entries, "spatial_noise": entries}
    code, err = simulate(tmp_path_factory, json.dumps(raw), "json")
    assert code == 2
    assert len(err.splitlines()) == 1 and "product members" in err

    # the cap itself, 401^2 members, passes validation; one more component does not
    def specs(dof, n):
        return tuple(NoiseSpec(dof, BIT_FLIP, 1e-3, i) for i in range(1, n + 1))

    ProtocolConfig(16, "general", specs(POLARIZATION, 400), specs(SPATIAL, 400))
    with pytest.raises(ConfigError, match="product members"):
        ProtocolConfig(16, "general", specs(POLARIZATION, 401), specs(SPATIAL, 400))


def test_simulate_one_sided_general_without_pairwise_scan(tmp_path_factory, monkeypatch):
    """All 32 767 bit-flip indices m = 16 admits on one degree of freedom: exit 0 in seconds."""

    def overlap(a, b):
        raise AssertionError("pairwise scan on the config path")

    # config components are distinct GHZ states, so no O(n^2) orthogonality scan may run
    monkeypatch.setattr("ghzpurify.noise.overlap", overlap)
    entries = [{"kind": "bit-flip", "target_index": i, "weight": 1e-5} for i in range(1, 2**15)]
    raw = {"m": 16, "mode": "general", "pol_noise": [], "spatial_noise": entries}
    assert simulate(tmp_path_factory, json.dumps(raw), "json") == (0, "")


ARG_TEXTS = st.one_of(
    NUMBERS.map(repr),
    INTEGERS.map(str),
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "x", "", "1e400"]),
)


@st.composite
def sweep_argv(draw):
    argv = ["sweep", "--axis", draw(st.sampled_from(["L", "N", "F"]))]
    for flag in draw(st.sets(st.sampled_from(["--from", "--to", "--step", "--N", "--L", "--L0", "--eta-d", "--m"]))):
        argv.append(f"{flag}={draw(ARG_TEXTS)}")
    if draw(st.booleans()):
        parts = draw(st.lists(ARG_TEXTS, min_size=2, max_size=4))
        argv.append("--grid=" + ":".join(parts))
    argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    return argv


@fuzz(150)
@given(argv=sweep_argv())
def test_sweep_argument_boundary(argv):
    assert_clean(*run(argv))


@fuzz(30)
@given(m=st.one_of(ARG_TEXTS, st.just("2")), fault=st.booleans())
def test_verify_argument_boundary(m, fault):
    assert_clean(*run(["verify", f"--m={m}", *(["--inject-gate-fault"] if fault else [])]))
