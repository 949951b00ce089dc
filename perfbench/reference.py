"""Reference figures and output checks, computed apart from the program.

Nothing here imports ghzpurify or calls into it. The checks read the
program's outputs (result attributes, printed records, sweep tables and
verify reports) and compare them with closed forms written out below:

- pair closed forms: F = FaFb / (FaFb + (1-Fa)(1-Fb)), success = FaFb + (1-Fa)(1-Fb);
- matched multi-component weights w_i u_i / sum_j w_j u_j, where the fidelity
  against target (i, +) is component i's weight and against (i, -) is 0;
- deterministic demo: fidelity = success = 1 against the reference target;
- efficiency ratio R = 4 / (exp(-L/L0) eta_d eta_c)^N.

Every check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

TOL = 1e-12
VERIFY_TOL = 1e-10
# CSV cells carry 12 significant digits: half a unit in the 12th digit.
CSV_REL = 5e-12


def pair_success(fa: float, fb: float) -> float:
    return fa * fb + (1.0 - fa) * (1.0 - fb)


def pair_fidelity(fa: float, fb: float) -> float:
    return fa * fb / pair_success(fa, fb)


def matched_weights(w: dict[int, float], u: dict[int, float]) -> tuple[dict[int, float], float]:
    """Output component weights and success of paired mixtures {index: weight}."""
    products = {i: w[i] * u[i] for i in w if i in u}
    success = sum(products.values())
    return {i: p / success for i, p in products.items()}, success


def target_fidelity(components: dict[tuple[int, int], float], index: int, sign: int) -> float:
    """Fidelity of a GHZ-diagonal mixture {(index, sign): weight} with one GHZ state."""
    return components.get((index, sign), 0.0)


def ratio_r(L: float, L0: float, eta_d: float, eta_c: float, N: int) -> float:
    return 4.0 / (math.exp(-L / L0) * eta_d * eta_c) ** N


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------- expectations


@dataclass(frozen=True)
class Expected:
    """What one protocol run must produce.

    ``components`` maps (GHZ index, sign) to the output weight; ``acceptance``
    is "phaseflip" (even-swap patterns, exactly 2^(m-1) of them),
    "unanimous" or "all"; ``target`` is the (index, sign) fidelity is scored on.
    """

    m: int
    components: dict[tuple[int, int], float]
    success: float
    acceptance: str
    target: tuple[int, int]

    @property
    def fidelity(self) -> float:
        return target_fidelity(self.components, *self.target)


def expect_bitflip(m, f1, f2, error_index, target):
    comps, success = matched_weights({0: f1, error_index: 1 - f1}, {0: f2, error_index: 1 - f2})
    return Expected(m, {(i, 1): x for i, x in comps.items()}, success, "unanimous", target)


def expect_phaseflip(m, f3, f4, target):
    success = pair_success(f3, f4)
    comps = {(0, 1): f3 * f4 / success, (0, -1): (1 - f3) * (1 - f4) / success}
    return Expected(m, comps, success, "phaseflip", target)


def expect_general(m, pol_weights, spatial_weights, target):
    comps, success = matched_weights(pol_weights, spatial_weights)
    return Expected(m, {(i, 1): x for i, x in comps.items()}, success, "unanimous", target)


def expect_deterministic(m, target):
    return Expected(m, {(0, 1): 1.0}, 1.0, "all", target)


def _pattern_problems(patterns, exp: Expected) -> list[str]:
    problems = []
    for pat in patterns:
        if len(pat) != exp.m or any(b not in (0, 1) for b in pat):
            problems.append(f"malformed pattern {pat!r}")
        elif exp.acceptance == "phaseflip" and sum(pat) % 2:
            problems.append(f"odd-swap pattern {pat!r} accepted in phase-flip mode")
        elif exp.acceptance == "unanimous" and 0 < sum(pat) < exp.m:
            problems.append(f"non-unanimous pattern {pat!r} accepted")
    if exp.acceptance == "phaseflip" and len(patterns) != 2 ** (exp.m - 1):
        problems.append(f"{len(patterns)} accepted patterns, expected {2 ** (exp.m - 1)}")
    return problems


def _figure_problems(fidelity, success, rejected, exp: Expected) -> list[str]:
    problems = []
    if not -TOL <= fidelity <= 1 + TOL:
        problems.append(f"fidelity {fidelity!r} outside [0, 1]")
    if not close(success + rejected, 1.0):
        problems.append(f"success + rejected = {success + rejected!r}")
    if not close(fidelity, exp.fidelity):
        problems.append(f"fidelity {fidelity!r}, reference {exp.fidelity!r}")
    if not close(success, exp.success):
        problems.append(f"success {success!r}, reference {exp.success!r}")
    return problems


def check_result(result, exp: Expected) -> list[str]:
    """Check an engine ProtocolResult against the reference figures."""
    problems = _figure_problems(
        result.output_fidelity, result.success_probability, result.rejected_probability, exp
    )
    problems += _pattern_problems(list(result.accepted), exp)
    pattern_mass = sum(o.probability for o in result.accepted.values())
    if not close(pattern_mass, result.success_probability):
        problems.append(f"pattern probabilities sum to {pattern_mass!r}")
    return problems


# ------------------------------------------------------------- simulate records


def _closed_form_problems(closed, deviation, out_fidelity, out_success, exp, mode) -> list[str]:
    problems = []
    if not close(closed["fidelity"], exp.fidelity):
        problems.append(
            f"closed_form.fidelity {closed['fidelity']!r}, reference for target {exp.target} {exp.fidelity!r}"
        )
    if not close(closed["success_probability"], exp.success):
        problems.append(f"closed_form.success_probability {closed['success_probability']!r}")
    if not close(deviation["fidelity"], abs(out_fidelity - closed["fidelity"])):
        problems.append(
            f"deviation.fidelity {deviation['fidelity']!r} != |{out_fidelity!r} - {closed['fidelity']!r}|"
        )
    if not close(deviation["success_probability"], abs(out_success - closed["success_probability"])):
        problems.append(f"deviation.success_probability {deviation['success_probability']!r}")
    if mode == "general" and "fidelity_components" in closed:
        for i, value in enumerate(closed["fidelity_components"]):
            if not close(value, exp.components.get((i, 1), 0.0)):
                problems.append(f"fidelity_components[{i}] {value!r}")
    return problems


def check_record_json(text: str, config: dict, exp: Expected) -> list[str]:
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"record is not JSON: {exc}"]
    if record.get("config") != config:
        return [f"config echo {record.get('config')!r} differs from {config!r}"]
    res = record["result"]
    patterns = [tuple("ks".index(c) for c in p["pattern"]) for p in res["accepted_patterns"]]
    problems = _figure_problems(
        res["output_fidelity"], res["success_probability"], res["rejected_probability"], exp
    )
    problems += _pattern_problems(patterns, exp)
    problems += _closed_form_problems(
        record["closed_form"], record["deviation"], res["output_fidelity"],
        res["success_probability"], exp, config["mode"],
    )
    return problems


def _csv_close(text: str, ref: float) -> bool:
    return abs(float(text) - ref) <= TOL * max(1.0, abs(ref)) + CSV_REL * abs(ref)


def check_record_csv(text: str, config: dict, exp: Expected) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1:
        return [f"{len(rows)} CSV rows, expected 1"]
    row = rows[0]
    if (row["mode"], int(row["m"]), row["target"]) != (config["mode"], config["m"], config["target"]):
        return [f"CSV config columns {row!r}"]
    problems = []
    checks = {
        "output_fidelity": exp.fidelity,
        "success_probability": exp.success,
        "closed_form_fidelity": exp.fidelity,
        "closed_form_success_probability": exp.success,
        # both columns match the reference, so their printed distance is ~0
        "deviation_fidelity": 0.0,
        "deviation_success_probability": 0.0,
    }
    for key, ref in checks.items():
        if not _csv_close(row[key], ref):
            problems.append(f"{key} {row[key]}, reference {ref!r}")
    return problems


# ---------------------------------------------------------------------- sweeps


def _axis_value(start: float, step: float, i: int) -> float:
    return start + i * step


def _parse_table(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def check_sweep(text: str, sweep: dict) -> list[str]:
    """``sweep`` holds the arguments: axis, format and the axis parameters."""
    fmt = sweep["format"]
    try:
        rows = _parse_table(text, fmt)
    except (json.JSONDecodeError, csv.Error) as exc:
        return [f"unparseable sweep output: {exc}"]
    if sweep["axis"] == "F":
        return _check_f_sweep(rows, sweep, fmt)
    start, stop, step = sweep["from"], sweep["to"], sweep["step"]
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    if len(rows) != count:
        return [f"{len(rows)} rows, expected {count}"]
    key = "L_km" if sweep["axis"] == "L" else "N"
    problems = []
    for i, row in enumerate(rows):
        x = _axis_value(start, step, i)
        if sweep["axis"] == "N":
            x = float(round(x))
        printed = float(row[key])
        # JSON prints the full double, so the axis value must be exact;
        # CSV prints 12 significant digits of it.
        wanted = x if fmt == "json" else float(format(x, ".12g"))
        if printed != wanted:
            problems.append(f"row {i}: {key} = {row[key]!r}, expected {wanted!r}")
        if sweep["axis"] == "L":
            ref = ratio_r(x, sweep["L0"], sweep["eta_d"], sweep["eta_c"], sweep["N"])
        else:
            ref = ratio_r(sweep["L"], sweep["L0"], sweep["eta_d"], sweep["eta_c"], int(x))
        ok = close(float(row["R"]), ref) if fmt == "json" else _csv_close(row["R"], ref)
        if not ok:
            problems.append(f"row {i}: R = {row['R']!r}, reference {ref!r}")
    return problems


def _check_f_sweep(rows, sweep, fmt) -> list[str]:
    start, stop, step = sweep["grid"]
    grid = [start + k * step for k in range(int(math.floor((stop - start) / step + 1e-9)) + 1)]
    if len(rows) != len(grid) ** 2:
        return [f"{len(rows)} rows, expected {len(grid) ** 2}"]
    num = float if fmt == "csv" else (lambda v: v)
    near = _csv_close if fmt == "csv" else (lambda v, ref: close(v, ref))
    problems = []
    for row, (f1, f2) in zip(rows, ((a, b) for a in grid for b in grid)):
        if not (close(num(row["F1"]), f1) and close(num(row["F2"]), f2)):
            problems.append(f"grid point ({row['F1']}, {row['F2']}), expected ({f1}, {f2})")
            continue
        fid, suc = pair_fidelity(f1, f2), pair_success(f1, f2)
        for key, ref in (("fidelity_sim", fid), ("fidelity_closed", fid),
                         ("success_sim", suc), ("success_closed", suc)):
            if not near(row[key], ref):
                problems.append(f"F=({f1}, {f2}): {key} {row[key]!r}, reference {ref!r}")
        if not 0.0 <= num(row["deviation"]) <= TOL:
            problems.append(f"F=({f1}, {f2}): deviation {row['deviation']!r}")
    return problems


# ---------------------------------------------------------------------- verify

_MODES = ("bitflip", "phaseflip", "general", "deterministic")


def check_verify(stdout: str, exit_code: int, m: int, fault: bool) -> list[str]:
    """A clean verify passes every mode within 1e-10; a faulted one must exit 1."""
    lines = [ln.strip() for ln in stdout.strip().splitlines()]
    if fault:
        problems = [] if exit_code == 1 else [f"exit code {exit_code}, expected 1"]
        if not lines or not lines[-1].startswith(f"verify m={m}: FAILED"):
            problems.append(f"last line {lines[-1:]!r}, expected a FAILED verdict")
        return problems
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    problems = []
    for mode in _MODES:
        line = next((ln for ln in lines if ln.startswith(f"{mode}:")), None)
        if line is None:
            problems.append(f"no line for mode {mode}")
        elif mode == "deterministic" and m == 2:
            if "skipped" not in line:
                problems.append(f"m=2 deterministic line {line!r}")
        else:
            worst = float(line.split("worst deviation")[1].split()[0])
            if not line.split(":")[1].strip().startswith("ok") or worst >= VERIFY_TOL:
                problems.append(f"mode line {line!r}")
    if not lines or lines[-1] != f"verify m={m}: passed (tolerance {VERIFY_TOL:g})":
        problems.append(f"verdict {lines[-1:]!r}")
    return problems
