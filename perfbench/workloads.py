"""The three workloads: the operations of one round and their checks.

Every round of a workload runs the same operations in the same order, so a
run's share of failed operations is the same whatever its length or seed.
In-process operations build their input and solve it; only that is timed.
``known_fault`` names the documented program fault that makes an operation
fail on every seed (see README.md); any other failure makes the run incorrect.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from ghzpurify import cli, noise, optics, protocol, states

import reference as ref

TARGET_FAULT = "simulate-target"  # closed form and deviation scored against 0+
SWEEP_FAULT = "sweep-axis-drift"  # efficiency.sweep accumulates value += step


@dataclass
class Op:
    kind: str  # the figure this operation's time belongs to
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    known_fault: str | None = None


def _fidelity(rng) -> float:
    return rng.uniform(0.05, 0.95)


def _target(m: int, index: int, sign: int):
    return states.make_ghz_pol(m, index, sign)


def _pair(m, pol_index, spatial_index, f_pol, f_spatial, sign=+1):
    """Product of two-component mixtures: reference GHZ plus one error component."""
    pol = noise.mix_two(states.make_ghz_pol(m, 0, +1), states.make_ghz_pol(m, pol_index, sign), f_pol)
    spatial = noise.mix_two(
        states.make_ghz_spatial(m, 0, +1), states.make_ghz_spatial(m, spatial_index, sign), f_spatial
    )
    return noise.product_ensemble(pol, spatial)


def _general_input(m, indices, w, u):
    pol = noise.mix_general([states.make_ghz_pol(m, i) for i in indices], w)
    spatial = noise.mix_general([states.make_ghz_spatial(m, i) for i in indices], u)
    return noise.product_ensemble(pol, spatial)


def _distinct_errors(rng, m):
    a = rng.randrange(1, 2 ** (m - 1))
    b = rng.randrange(1, 2 ** (m - 1) - 1)
    return a, b + (b >= a)


def _weights(rng, n):
    raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
    total = sum(raw)
    return [x / total for x in raw]


# ------------------------------------------------------------- engine solves


def phaseflip_op(m, f3, f4, gate_table=None):
    return Op(
        f"phaseflip_m{m}",
        lambda: protocol.run_phaseflip(_pair(m, 0, 0, f3, f4, sign=-1), gate_table=gate_table),
        lambda r: ref.check_result(r, ref.expect_phaseflip(m, f3, f4, (0, 1))),
    )


def deterministic_op(m, f1, f2, a, b, gate_table=None):
    return Op(
        f"deterministic_m{m}",
        lambda: protocol.run_general(_pair(m, a, b, f1, f2), gate_table=gate_table),
        lambda r: ref.check_result(r, ref.expect_deterministic(m, (0, 1))),
    )


def bitflip_op(m, f1, f2, a, target, gate_table=None):
    return Op(
        "bitflip",
        lambda: protocol.run_bitflip(_pair(m, a, a, f1, f2), target=_target(m, *target),
                                     gate_table=gate_table),
        lambda r: ref.check_result(r, ref.expect_bitflip(m, f1, f2, a, target)),
    )


def general_op(m, indices, w, u, target, gate_table=None):
    return Op(
        "general",
        lambda: protocol.run_general(
            _general_input(m, indices, w, u), corrections={},
            acceptance=protocol.AcceptanceRule("bitflip"), target=_target(m, *target),
            gate_table=gate_table,
        ),
        lambda r: ref.check_result(
            r, ref.expect_general(m, dict(zip(indices, w)), dict(zip(indices, u)), target)
        ),
    )


def exact_scaling_round(rng) -> list[Op]:
    """One phase-flip solve per m = 2..8, one deterministic solve per m = 8..16."""
    ops = [phaseflip_op(m, _fidelity(rng), _fidelity(rng)) for m in range(2, 9)]
    for m in range(8, 17):
        a, b = _distinct_errors(rng, m)
        ops.append(deterministic_op(m, _fidelity(rng), _fidelity(rng), a, b))
    return ops


def _random_target(rng, m, candidates):
    index = rng.choice(list(candidates) + [rng.randrange(2 ** (m - 1))])
    return index, rng.choice((1, -1))


def small_instances_round(rng) -> list[Op]:
    """One bit-flip and one 4-component general solve for each m = 3..16."""
    ops = []
    for m in range(3, 17):
        a = rng.randrange(1, 2 ** (m - 1))
        ops.append(bitflip_op(m, _fidelity(rng), _fidelity(rng), a, _random_target(rng, m, (0, a))))
        indices = rng.sample(range(2 ** (m - 1)), 4)
        ops.append(general_op(m, indices, _weights(rng, 4), _weights(rng, 4),
                              _random_target(rng, m, indices)))
    return ops


def warm_up() -> None:
    """One small solve per engine path, so the first timed solve pays no first-call cost."""
    for op in (phaseflip_op(3, 0.8, 0.7), deterministic_op(3, 0.8, 0.7, 1, 2),
               bitflip_op(3, 0.8, 0.7, 1, (0, 1)), general_op(3, [0, 1, 2, 3], [0.4, 0.3, 0.2, 0.1],
                                                             [0.4, 0.3, 0.2, 0.1], (0, 1))):
        op.run()


def faulty_gate_table():
    """The routing table with the two rail-1 rows swapped, as verify --inject-gate-fault does."""
    table = dict(optics.GATE_TABLE)
    table[(0, 0)], table[(1, 0)] = table[(1, 0)], table[(0, 0)]
    return table


def checker_self_test() -> list[str]:
    """Engine results made with the faulted gate must be rejected by the checks."""
    table = faulty_gate_table()
    ops = [
        bitflip_op(3, 0.8, 0.7, 1, (0, 1), table),
        bitflip_op(4, 0.9, 0.6, 3, (3, 1), table),
        phaseflip_op(3, 0.8, 0.7, table),
        phaseflip_op(4, 0.9, 0.6, table),
        general_op(4, [0, 2, 5, 7], [0.4, 0.3, 0.2, 0.1], [0.5, 0.1, 0.3, 0.1], (0, 1), table),
        deterministic_op(3, 0.8, 0.7, 1, 2, table),
        deterministic_op(5, 0.9, 0.6, 3, 12, table),
    ]
    accepted = []
    for op in ops:
        try:
            result = op.run()
        except ValueError:  # the program refusing the faulted run also rejects it
            continue
        if not op.check(result):
            accepted.append(f"checks accepted a faulted-gate {op.kind} result")
    return accepted


# ---------------------------------------------------------------- cli session


@dataclass
class CliCall:
    kind: str
    argv: list[str]
    check: Callable[[str, int], list[str]]
    known_fault: str | None = None


def _spec(kind, index, weight):
    return {"kind": kind, "target_index": index, "weight": weight}


def _config(m, mode, pol, spatial, target, seed):
    return {"m": m, "mode": mode, "pol_noise": pol, "spatial_noise": spatial,
            "target": target, "seed": seed}


def _parse_target(label: str) -> tuple[int, int]:
    return int(label[:-1]), 1 if label[-1] == "+" else -1


def _simulate_expectation(config) -> ref.Expected:
    m, mode = config["m"], config["mode"]
    target = _parse_target(config["target"])
    w = {s["target_index"]: s["weight"] for s in config["pol_noise"]}
    u = {s["target_index"]: s["weight"] for s in config["spatial_noise"]}
    w[0] = 1.0 - sum(w.values())
    u[0] = 1.0 - sum(u.values())
    if mode == "phaseflip":
        return ref.expect_phaseflip(m, w[0], u[0], target)
    if mode == "deterministic-demo":
        return ref.expect_deterministic(m, target)
    return ref.expect_general(m, w, u, target)


def simulate_configs(rng, seed) -> list[tuple[dict, str, str | None]]:
    """(config, output format, known fault). Targets other than 0+ use fixed inputs."""

    def error_weight():
        return round(1.0 - _fidelity(rng), 6)

    def pair(m, mode, kind, pol_index, spatial_index):
        return _config(m, mode, [_spec(kind, pol_index, error_weight())],
                       [_spec(kind, spatial_index, error_weight())], "0+", seed)

    def three_errors():
        return [_spec("bit-flip", i, round(w / 2, 6)) for i, w in zip((1, 3, 6), _weights(rng, 3))]

    index = rng.randrange(1, 128)
    a, b = _distinct_errors(rng, 5)
    seeded = [
        (pair(3, "bitflip", "bit-flip", 1, 1), "json"),
        (pair(8, "bitflip", "bit-flip", index, index), "csv"),
        (pair(3, "phaseflip", "phase-flip", 0, 0), "json"),
        (_config(4, "general", three_errors(), three_errors(), "0+", seed), "json"),
        (pair(5, "deterministic-demo", "bit-flip", a, b), "json"),
    ]
    fixed = [
        _config(6, "bitflip", [_spec("bit-flip", 1, 0.2)], [_spec("bit-flip", 1, 0.3)], "1+", 0),
        _config(5, "phaseflip", [_spec("phase-flip", 0, 0.2)], [_spec("phase-flip", 0, 0.3)], "0-", 0),
        _config(5, "general", [_spec("bit-flip", i, w) for i, w in ((1, 0.2), (2, 0.1), (5, 0.05))],
                [_spec("bit-flip", i, w) for i, w in ((1, 0.1), (2, 0.3), (5, 0.1))], "2+", 0),
        _config(4, "deterministic-demo", [_spec("bit-flip", 1, 0.2)], [_spec("bit-flip", 2, 0.3)], "1-", 0),
    ]
    return [(c, fmt, None) for c, fmt in seeded] + [(c, "json", TARGET_FAULT) for c in fixed]


def _simulate_check(config, fmt):
    exp = _simulate_expectation(config)

    def check(stdout, code):
        if code != 0:
            return [f"exit code {code}"]
        if fmt == "csv":
            return ref.check_record_csv(stdout, config, exp)
        return ref.check_record_json(stdout, config, exp)

    return check


def _sweep_argv(sweep):
    if sweep["axis"] == "F":
        axis = ["--grid", ":".join(str(x) for x in sweep["grid"]), "--m", "3"]
    else:
        axis = ["--from", str(sweep["from"]), "--to", str(sweep["to"]), "--step", str(sweep["step"]),
                "--N", str(sweep["N"]), "--L", str(sweep["L"])]
    return ["sweep", "--axis", sweep["axis"], *axis, "--L0", str(sweep["L0"]),
            "--eta-d", str(sweep["eta_d"]), "--eta-c", str(sweep["eta_c"]), "--format", sweep["format"]]


def sweeps(rng) -> list[tuple[dict, str | None]]:
    """(sweep arguments, known fault): L, N and F axes in JSON and CSV."""
    eta = {"L0": 25.0, "eta_d": round(rng.uniform(0.8, 0.99), 4), "eta_c": round(rng.uniform(0.8, 0.99), 4)}
    out = []
    for fmt in ("json", "csv"):
        # a 0.1 km step: JSON prints the drifting axis value in full, CSV rounds it away
        out.append(({"axis": "L", "from": 20.0, "to": 30.0, "step": 0.1, "N": 6, "L": 25.0,
                     "format": fmt, **eta}, SWEEP_FAULT if fmt == "json" else None))
        out.append(({"axis": "N", "from": 2.0, "to": 12.0, "step": 1.0, "N": 3, "L": 25.0,
                     "format": fmt, **eta}, None))
        out.append(({"axis": "F", "grid": (0.1, 0.9, 0.1), "format": fmt, **eta}, None))
    return out


def cli_session(rng, seed, config_dir) -> list[CliCall]:
    """Write the simulate configs and return the fixed call sequence of one round."""
    calls = []
    for n, (config, fmt, fault) in enumerate(simulate_configs(rng, seed)):
        path = os.path.join(config_dir, f"config{n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        calls.append(CliCall("simulate", ["simulate", path, "--reproducible", "--format", fmt],
                             _simulate_check(config, fmt), fault))
    for sweep, fault in sweeps(rng):
        calls.append(CliCall("sweep", _sweep_argv(sweep),
                             lambda out, code, s=sweep: [f"exit code {code}"] if code else ref.check_sweep(out, s),
                             fault))
    for m in (2, 3, 4, 5):
        calls.append(CliCall(f"verify_m{m}", ["verify", "--m", str(m)],
                             lambda out, code, m=m: ref.check_verify(out, code, m, False)))
    calls.append(CliCall("verify_m3_fault", ["verify", "--m", "3", "--inject-gate-fault"],
                         lambda out, code: ref.check_verify(out, code, 3, True)))
    return calls


def child_op(call: CliCall, env, cwd) -> Op:
    """The call as a real ghzpurify child process."""

    def run():
        proc = subprocess.run([sys.executable, "-m", "ghzpurify.cli", *call.argv], env=env, cwd=cwd,
                              capture_output=True, text=True)
        return proc.stdout, proc.returncode

    return Op(call.kind, run, lambda r: call.check(*r), call.known_fault)


def inprocess_op(call: CliCall, tracer=None) -> Op:
    """The same argument list replayed through cli.main in this process."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                code = cli.main(call.argv)
            else:
                with tracer.span("cli.command"):
                    code = cli.main(call.argv)
        return out.getvalue(), code

    return Op(call.kind, run, lambda r: call.check(*r), call.known_fault)
