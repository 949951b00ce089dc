import csv
import dataclasses
import io
import json
import math
import re
from pathlib import Path

import pytest

from ghzpurify import __version__, cli, oracle
from ghzpurify.cli import execute, main
from ghzpurify.efficiency import MAX_SWEEP_ROWS
from ghzpurify.noise import NoiseSpec
from ghzpurify.protocol import COMPONENTS_MAX_PHOTONS, MAX_PHOTONS, MODES, PHASEFLIP_MAX_PHOTONS, run_bitflip
from ghzpurify.records import ProtocolConfig, RunRecord
from helpers import pair_closed_form


def write_config(tmp_path, name="config.json", **overrides):
    payload = {
        "m": 3,
        "mode": "bitflip",
        "pol_noise": [{"kind": "bit-flip", "target_index": 1, "weight": 0.2}],
        "spatial_noise": [{"kind": "bit-flip", "target_index": 1, "weight": 0.3}],
        "target": "0+",
        "seed": 7,
    }
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_version_matches_pyproject():
    # records print __version__ as tool_version; an installed package reports pyproject's
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "([^"]+)"$', pyproject, re.M) == [__version__]


def test_simulate_bitflip_record(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["simulate", config, "--reproducible"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["result"]["output_fidelity"] == pytest.approx(0.56 / 0.62, abs=1e-12)
    assert record["result"]["success_probability"] == pytest.approx(0.62, abs=1e-12)
    assert record["deviation"]["fidelity"] < 1e-12
    assert record["deviation"]["success_probability"] < 1e-12
    assert record["config"]["seed"] == 7
    assert "timestamp" not in record


def test_simulate_includes_timestamp_by_default(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["simulate", config]) == 0
    record = json.loads(capsys.readouterr().out)
    assert "timestamp" in record


def test_simulate_deterministic_demo(tmp_path, capsys):
    config = write_config(
        tmp_path,
        mode="deterministic-demo",
        pol_noise=[{"kind": "bit-flip", "target_index": 1, "weight": 0.45}],
        spatial_noise=[{"kind": "bit-flip", "target_index": 2, "weight": 0.35}],
    )
    assert main(["simulate", config, "--reproducible"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["result"]["output_fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert record["result"]["success_probability"] == pytest.approx(1.0, abs=1e-12)


def test_simulate_phaseflip(tmp_path, capsys):
    config = write_config(
        tmp_path,
        mode="phaseflip",
        pol_noise=[{"kind": "phase-flip", "weight": 0.2}],
        spatial_noise=[{"kind": "phase-flip", "weight": 0.2}],
    )
    assert main(["simulate", config, "--reproducible"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["result"]["output_fidelity"] == pytest.approx(16 / 17, abs=1e-12)
    assert record["closed_form"]["success_probability"] == pytest.approx(0.68, abs=1e-12)


def test_simulate_general_mode(tmp_path, capsys):
    config = write_config(
        tmp_path,
        mode="general",
        pol_noise=[
            {"kind": "bit-flip", "target_index": 1, "weight": 0.1},
            {"kind": "bit-flip", "target_index": 2, "weight": 0.1},
            {"kind": "bit-flip", "target_index": 3, "weight": 0.1},
        ],
        spatial_noise=[
            {"kind": "bit-flip", "target_index": 1, "weight": 0.1},
            {"kind": "bit-flip", "target_index": 2, "weight": 0.1},
            {"kind": "bit-flip", "target_index": 3, "weight": 0.1},
        ],
    )
    assert main(["simulate", config, "--reproducible"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["result"]["output_fidelity"] == pytest.approx(0.49 / 0.52, abs=1e-12)
    assert record["deviation"]["fidelity"] < 1e-12
    assert record["closed_form"]["fidelity_components"][0] == pytest.approx(0.49 / 0.52)


def test_simulate_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"m": 3,, "mode": "bitflip"}')
    out = tmp_path / "record.json"
    assert main(["simulate", str(path), "--out", str(out)]) == 2
    assert "line" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_unknown_field_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, extra_field=1)
    assert main(["simulate", config]) == 2
    assert "unknown config fields" in capsys.readouterr().err


def test_simulate_mode_incompatible_noise_exits_2(tmp_path, capsys):
    config = write_config(
        tmp_path,
        mode="phaseflip",
        pol_noise=[{"kind": "bit-flip", "target_index": 1, "weight": 0.2}],
        spatial_noise=[],
    )
    assert main(["simulate", config]) == 2


def test_simulate_mismatched_bitflip_indices_exit_2(tmp_path):
    config = write_config(
        tmp_path,
        pol_noise=[{"kind": "bit-flip", "target_index": 1, "weight": 0.2}],
        spatial_noise=[{"kind": "bit-flip", "target_index": 2, "weight": 0.3}],
    )
    assert main(["simulate", config]) == 2


def test_simulate_domain_error_exits_3(tmp_path, capsys):
    config = write_config(
        tmp_path,
        pol_noise=[{"kind": "bit-flip", "target_index": 1, "weight": 1.0}],
        spatial_noise=[],
    )
    assert main(["simulate", config]) == 3
    assert "simulation error" in capsys.readouterr().err


def test_simulate_reproducible_is_byte_identical(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["simulate", config, "--reproducible", "--out", str(out1)]) == 0
    assert main(["simulate", config, "--reproducible", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_csv_agrees_with_json(tmp_path):
    config = write_config(tmp_path)
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    assert main(["simulate", config, "--reproducible", "--out", str(jpath)]) == 0
    assert main(["simulate", config, "--reproducible", "--format", "csv", "--out", str(cpath)]) == 0
    raw = json.loads(jpath.read_text())
    record = RunRecord(raw["config"], raw["result"], raw["closed_form"], raw["deviation"], raw["tool_version"])
    rows = list(csv.DictReader(io.StringIO(cpath.read_text())))
    assert len(rows) == 1
    for key, value in record.scalar_fields().items():
        cell = rows[0][key]
        if isinstance(value, float):
            assert float(cell) == float(format(value, ".12g"))
        else:
            assert cell == str(value)


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_path_exits_2(command, where, tmp_path, capsys):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "x.csv"
    if command == "simulate":
        argv = ["simulate", write_config(tmp_path), "--reproducible", "--out", str(out)]
    else:
        argv = ["sweep", "--axis", "L", "--from", "20", "--to", "30", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("output error: ")
    assert captured.err.count("\n") == 1


def test_sweep_distance_axis(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--axis", "L", "--from", "20", "--to", "100", "--N", "6", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 81
    assert float(rows[-1]["L_km"]) == 100.0
    assert float(rows[-1]["R"]) == pytest.approx(2.71e11, rel=5e-3)
    values = [float(r["R"]) for r in rows]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sweep_fidelity_axis(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--axis", "F", "--grid", "0.1:0.9:0.1", "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 81
    assert max(float(r["deviation"]) for r in rows) < 1e-12


def test_sweep_json_format(tmp_path, capsys):
    assert main(["sweep", "--axis", "N", "--from", "2", "--to", "6", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 5
    assert rows[0]["N"] == 2.0
    assert all(b["R"] > a["R"] for a, b in zip(rows, rows[1:]))


def test_sweep_fidelity_axis_degenerate_points(capsys):
    # nothing is accepted at (F1, F2) = (0, 1) and (1, 0); the other seven rows stay
    assert main(["sweep", "--axis", "F", "--grid", "0:1:0.5", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["F1"], r["F2"]) for r in rows] == [(a, b) for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)]
    for row in rows:
        f1, f2 = row["F1"], row["F2"]
        if {f1, f2} == {0.0, 1.0}:
            assert row == {
                "F1": f1, "F2": f2, "fidelity_sim": None, "fidelity_closed": None,
                "success_sim": 0.0, "success_closed": 0.0, "deviation": None,
            }
            continue
        res = run_bitflip(MODES["bitflip"].verify_input(3, f1, f2))
        fc, sc = pair_closed_form(f1, f2)
        assert row == {
            "F1": f1, "F2": f2, "fidelity_sim": res.output_fidelity, "fidelity_closed": fc,
            "success_sim": res.success_probability, "success_closed": sc,
            "deviation": max(abs(res.output_fidelity - fc), abs(res.success_probability - sc)),
        }
    assert main(["sweep", "--axis", "F", "--grid", "0:1:0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert lines[3] == "0,1,,,0,0,"
    assert lines[7] == "1,0,,,0,0,"


def test_sweep_empty_range_exits_2(tmp_path, capsys):
    assert main(["sweep", "--axis", "L", "--from", "50", "--to", "20"]) == 2
    assert main(["sweep", "--axis", "F", "--grid", "0.9:0.1:0.1"]) == 2


def test_verify_small_passes(capsys):
    assert main(["verify", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "passed" in out
    assert "worst deviation" in out


def test_verify_gate_fault_fails(capsys):
    assert main(["verify", "--m", "3", "--inject-gate-fault"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_verify_nan_deviation_fails(monkeypatch, capsys):
    real = cli.oracle_run

    def nan_fidelity(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), output_fidelity=math.nan)

    monkeypatch.setattr(cli, "oracle_run", nan_fidelity)
    assert main(["verify", "--m", "2"]) == 1
    out = capsys.readouterr().out
    assert "bitflip: MISMATCH  worst deviation nan at F=(0.1, 0.1), m=2" in out
    assert "verify m=2: FAILED" in out


@pytest.mark.parametrize("m", [3, 5, 6])
def test_verify_oracle_network_fault_fails(m, monkeypatch, capsys):
    # two output rows of one party's element chain swapped: still a permutation, wrong physics
    real = oracle._single_photon_network

    def faulted():
        net = real().copy()
        net[[0, 1]] = net[[1, 0]]
        assert oracle._is_permutation(net)
        return net

    monkeypatch.setattr(oracle, "_single_photon_network", faulted)
    assert main(["verify", "--m", str(m)]) == 1
    out = capsys.readouterr().out
    assert out.count("MISMATCH") == 4
    assert f"verify m={m}: FAILED" in out


def test_verify_capacity_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--m", "7"])
    assert info.value.code == 2


def test_invalid_target_exits_2(tmp_path):
    config = write_config(tmp_path, target="ghz0")
    assert main(["simulate", config]) == 2


def test_out_of_range_indices_exit_2(tmp_path):
    assert main(["simulate", write_config(tmp_path, target="4+")]) == 2
    config = write_config(
        tmp_path,
        "c2.json",
        pol_noise=[{"kind": "bit-flip", "target_index": 4, "weight": 0.2}],
        spatial_noise=[{"kind": "bit-flip", "target_index": 4, "weight": 0.2}],
    )
    assert main(["simulate", config]) == 2


MODE_NOISE = {
    "bitflip": ([("bit-flip", 1, 0.2)], [("bit-flip", 1, 0.3)]),
    "phaseflip": ([("phase-flip", 0, 0.2)], [("phase-flip", 0, 0.3)]),
    "general": ([("bit-flip", 1, 0.2), ("bit-flip", 2, 0.1)], [("bit-flip", 1, 0.1), ("bit-flip", 3, 0.25)]),
    "deterministic-demo": ([("bit-flip", 1, 0.2)], [("bit-flip", 2, 0.3)]),
}


@pytest.mark.parametrize("target", [f"{i}{s}" for i in range(4) for s in "+-"])
@pytest.mark.parametrize("mode", sorted(MODE_NOISE))
def test_record_scored_against_target(mode, target):
    def specs(entries):
        return tuple(NoiseSpec(kind=k, target_index=i, weight=w) for k, i, w in entries)

    pol, spatial = MODE_NOISE[mode]
    config = ProtocolConfig(m=3, mode=mode, pol_noise=specs(pol), spatial_noise=specs(spatial), target=target)
    result, closed, deviation = execute(config)
    assert closed["fidelity"] == pytest.approx(result.output_fidelity, abs=1e-12)
    assert closed["success_probability"] == pytest.approx(result.success_probability, abs=1e-12)
    expected = abs(result.output_fidelity - closed["fidelity"])
    assert deviation["fidelity"] == pytest.approx(expected, abs=1e-12)


def test_sweep_axis_values_do_not_drift(capsys):
    argv = ["sweep", "--axis", "L", "--from", "20", "--to", "30", "--step", "0.1", "--format", "json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    rows = json.loads(out)
    assert len(rows) == 101
    assert rows[2]["L_km"] == 20.2
    assert '"L_km": 20.2,' in out
    assert rows[-1]["L_km"] == 30.0


def test_repeated_noise_index_exits_2(tmp_path, capsys):
    config = write_config(
        tmp_path,
        mode="general",
        pol_noise=[
            {"kind": "bit-flip", "target_index": 3, "weight": 0.1},
            {"kind": "bit-flip", "target_index": 3, "weight": 0.2},
        ],
        spatial_noise=[],
    )
    assert main(["simulate", config, "--reproducible"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: pol_noise lists target_index 3 more than once\n"


def test_error_weights_above_one_exit_2(tmp_path, capsys):
    config = write_config(
        tmp_path,
        mode="general",
        pol_noise=[
            {"kind": "bit-flip", "target_index": 1, "weight": 0.7},
            {"kind": "bit-flip", "target_index": 2, "weight": 0.6},
        ],
        spatial_noise=[],
    )
    assert main(["simulate", config, "--reproducible"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: pol_noise error weights sum to 1.2999999999999998 > 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--axis", "N", "--from", "2", "--to", "3", "--eta-d", "0"],
        ["sweep", "--axis", "L", "--from", "8880", "--to", "8890", "--step", "2", "--N", "2", "--format", "json"],
    ],
    ids=["zero-efficiency", "underflow"],
)
def test_sweep_without_finite_ratio_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sweep error: R is not finite")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--axis", "N", "--from", "2.5", "--to", "4"],
        ["sweep", "--axis", "N", "--from", "2", "--to", "4", "--step", "0.5", "--format", "json"],
    ],
    ids=["fractional-start", "fractional-step"],
)
def test_sweep_fractional_photon_count_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sweep error: N axis values must be integers, got 2.5\n"


def test_phaseflip_config_above_capacity_exits_2(tmp_path, capsys):
    noise = [{"kind": "phase-flip", "target_index": 0, "weight": 0.2}]
    m = PHASEFLIP_MAX_PHOTONS + 1
    config = write_config(tmp_path, m=m, mode="phaseflip", pol_noise=noise, spatial_noise=noise)
    assert main(["simulate", config, "--reproducible"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: mode 'phaseflip' holds 4^m amplitudes per member; "
        f"m must be <= {PHASEFLIP_MAX_PHOTONS}, got {m}\n"
    )
    # the other modes keep no such cap
    assert main(["simulate", write_config(tmp_path, "b.json", m=m), "--reproducible"]) == 0


@pytest.mark.parametrize(
    "overrides, cap, reason",
    [
        ({"mode": "general"}, COMPONENTS_MAX_PHOTONS, "mode 'general' lists all 2^(m-1) closed-form components; "),
        ({"mode": "bitflip"}, MAX_PHOTONS, ""),
        ({"mode": "deterministic-demo", "spatial_noise": [{"kind": "bit-flip", "target_index": 2, "weight": 0.3}]},
         MAX_PHOTONS, ""),
    ],
    ids=["general", "bitflip", "deterministic-demo"],
)
def test_config_above_photon_cap_exits_2(tmp_path, capsys, overrides, cap, reason):
    assert main(["simulate", write_config(tmp_path, "at.json", m=cap, **overrides), "--reproducible"]) == 0
    record = json.loads(capsys.readouterr().out)
    if overrides["mode"] == "general":
        assert len(record["closed_form"]["fidelity_components"]) == 2 ** (cap - 1)
    assert main(["simulate", write_config(tmp_path, "above.json", m=cap + 1, **overrides), "--reproducible"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {reason}m must be <= {cap}, got {cap + 1}\n"


def noise_entry(**fields):
    return [{"kind": "bit-flip", "target_index": 1, "weight": 0.2, **fields}]


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"target": 5}, "field 'target' must be a string, got 5"),
        ({"mode": ["bitflip"]}, "field 'mode' must be a string, got ['bitflip']"),
        ({"pol_noise": noise_entry(target_index=1.7)}, "pol_noise[0] field 'target_index' must be an integer, got 1.7"),
        ({"pol_noise": noise_entry(target_index="1")}, "pol_noise[0] field 'target_index' must be an integer, got '1'"),
        ({"spatial_noise": noise_entry(target_index=True)},
         "spatial_noise[0] field 'target_index' must be an integer, got True"),
        ({"pol_noise": noise_entry(weight="0.2")}, "pol_noise[0] field 'weight' must be a number, got '0.2'"),
        ({"pol_noise": noise_entry(weight=True)}, "pol_noise[0] field 'weight' must be a number, got True"),
    ],
    ids=["target-int", "mode-list", "index-float", "index-str", "index-bool", "weight-str", "weight-bool"],
)
def test_config_field_types_exit_2(tmp_path, capsys, overrides, message):
    assert main(["simulate", write_config(tmp_path, **overrides), "--reproducible"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--axis", "L", "--from", "20", "--to", "inf"], "sweep bounds and step must be finite"),
        (["--axis", "N", "--to", "inf"], "sweep bounds and step must be finite"),
        (["--axis", "L", "--from", "nan"], "sweep bounds and step must be finite"),
        (["--axis", "L", "--step", "inf"], "sweep bounds and step must be finite"),
        (["--axis", "F", "--grid", "0.1:inf:0.1"], "sweep bounds and step must be finite"),
        (["--axis", "F", "--grid", "0.1:0.9:nan"], "sweep bounds and step must be finite"),
        (["--axis", "L", "--from", "20", "--to", "1e12"], "sweep has more than 10000 points"),
        (["--axis", "L", "--from=-1e308", "--to", "1e308"], "sweep has more than 10000 points"),
        (["--axis", "F", "--grid", "0:1:1e-9"], "sweep has more than 10000 points"),
        (["--axis", "F", "--grid", "0:1:0.01"], "grid '0:1:0.01' has 101 points, so 10201 rows; a sweep prints at most 10000"),
    ],
    ids=["L-to-inf", "N-to-inf", "from-nan", "step-inf", "grid-inf", "grid-nan", "L-huge", "L-overflow", "grid-fine", "grid-rows"],
)
def test_sweep_unbounded_axis_exits_2(argv, message, capsys):
    assert main(["sweep", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"sweep error: {message}")
    assert captured.err.count("\n") == 1


def test_sweep_row_cap_is_inclusive(capsys):
    argv = ["sweep", "--axis", "L", "--from", "0", "--L0", "1e9", "--to"]
    assert main([*argv, str(MAX_SWEEP_ROWS - 1)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + MAX_SWEEP_ROWS
    assert main([*argv, str(MAX_SWEEP_ROWS)]) == 2
