"""Command-line front end: simulate, sweep, verify.

Exit codes: 0 success, 1 verification mismatch, 2 usage/config error,
3 simulation-domain error.
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone

from . import __version__
from .efficiency import MAX_SWEEP_ROWS, EfficiencyParams, axis_values, sweep as efficiency_sweep
from .noise import ensemble_from_specs, ghz_weights, product_ensemble
from .optics import GATE_TABLE, GateTable
from .oracle import ORACLE_MAX_PHOTONS, density_on_support, oracle_run
from .protocol import (
    MAX_PHOTONS,
    MODES,
    ProtocolResult,
    closed_form_general,
    run_bitflip,
)
from .records import (
    ConfigError,
    ProtocolConfig,
    RunRecord,
    load_config,
    parse_target,
    rows_to_csv,
    rows_to_json,
)
from .states import POL, SPATIAL, Ensemble, make_ghz_pol

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

VERIFY_TOL = 1e-10


def build_input(config: ProtocolConfig) -> Ensemble:
    """Joint input mixture described by a config's noise lists."""
    pol = ensemble_from_specs(config.m, POL, config.pol_noise)
    spatial = ensemble_from_specs(config.m, SPATIAL, config.spatial_noise)
    return product_ensemble(pol, spatial)


def execute(config: ProtocolConfig) -> tuple[ProtocolResult, dict, dict]:
    """Run the configured protocol; returns (result, closed_form, deviation), all against its target."""
    mode = MODES[config.mode]
    index, sign = parse_target(config.target)
    target = make_ghz_pol(config.m, index, sign)
    result = mode.run(build_input(config), target=target)
    weights, success = mode.closed_form(
        config.m, ghz_weights(config.m, config.pol_noise), ghz_weights(config.m, config.spatial_noise)
    )
    closed = {"fidelity": weights.get((index, sign), 0.0), "success_probability": success}
    if mode.lists_components:
        closed["fidelity_components"] = [weights[(i, 1)] for i in range(2 ** (config.m - 1))]
    deviation = {
        "fidelity": abs(result.output_fidelity - closed["fidelity"]),
        "success_probability": abs(result.success_probability - closed["success_probability"]),
    }
    return result, closed, deviation


def pattern_name(pattern: tuple[int, ...]) -> str:
    return "".join("ks"[b] for b in pattern)


def result_dict(result: ProtocolResult) -> dict:
    return {
        "success_probability": result.success_probability,
        "rejected_probability": result.rejected_probability,
        "output_fidelity": result.output_fidelity,
        "accepted_patterns": [
            {
                "pattern": pattern_name(pattern),
                "probability": outcome.probability,
                "fidelity": outcome.fidelity,
            }
            for pattern, outcome in sorted(result.accepted.items())
        ],
    }


def _cmd_simulate(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result, closed, deviation = execute(config)
    except ValueError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    timestamp = None if args.reproducible else datetime.now(timezone.utc).isoformat(timespec="seconds")
    record = RunRecord(
        config=config.to_dict(),
        result=result_dict(result),
        closed_form=closed,
        deviation=deviation,
        tool_version=__version__,
        timestamp=timestamp,
    )
    payload = record.to_csv() if args.format == "csv" else record.to_json()
    return _emit(payload, args.out)


def _emit(payload: str, out: str | None) -> int:
    """Write the payload to the --out path, or to stdout; a path that cannot be written is exit 2."""
    if not out:
        sys.stdout.write(payload)
        return EXIT_OK
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _fidelity_grid(spec: str) -> list[float]:
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"grid must look like 0.1:0.9:0.1, got {spec!r}") from exc
    if step <= 0 or stop < start:
        raise ConfigError(f"empty or descending grid {spec!r}")
    values = [round(v, 12) for v in axis_values(start, stop, step)]
    if len(values) ** 2 > MAX_SWEEP_ROWS:
        raise ConfigError(
            f"grid {spec!r} has {len(values)} points, so {len(values) ** 2} rows; "
            f"a sweep prints at most {MAX_SWEEP_ROWS}"
        )
    return values


def _cmd_sweep(args) -> int:
    try:
        if args.axis in ("L", "N"):
            params = EfficiencyParams(
                eta_d=args.eta_d, eta_c=args.eta_c, L=args.L, L0=args.L0, N=args.N
            )
            rows = efficiency_sweep(params, args.axis, args.start, args.stop, args.step)
            header = ["L_km" if args.axis == "L" else "N", "R"]
            table = [[x, r] for x, r in rows]
        else:
            if args.m > MAX_PHOTONS:
                raise ConfigError(f"--m must be <= {MAX_PHOTONS}, got {args.m}")
            values = _fidelity_grid(args.grid)
            header = [
                "F1",
                "F2",
                "fidelity_sim",
                "fidelity_closed",
                "success_sim",
                "success_closed",
                "deviation",
            ]
            table = []
            for f1 in values:
                for f2 in values:
                    ens = MODES["bitflip"].verify_input(args.m, f1, f2)
                    try:
                        res = run_bitflip(ens)
                        (fc, _), sc = closed_form_general((f1, 1.0 - f1), (f2, 1.0 - f2))
                    except ValueError:
                        # nothing is accepted at this point, so no fidelity is defined
                        table.append([f1, f2, None, None, 0.0, 0.0, None])
                        continue
                    dev = max(abs(res.output_fidelity - fc), abs(res.success_probability - sc))
                    table.append([f1, f2, res.output_fidelity, fc, res.success_probability, sc, dev])
    except (ConfigError, ValueError) as exc:
        print(f"sweep error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = rows_to_json(header, table) if args.format == "json" else rows_to_csv(header, table)
    return _emit(payload, args.out)


def _verify_grid(m: int) -> list[float]:
    if m <= 3:
        return [round(0.1 * k, 12) for k in range(1, 10)]
    if m == 4:
        return [0.1, 0.3, 0.5, 0.7, 0.9]
    return [0.3, 0.7]


def _cmd_verify(args) -> int:
    m = args.m
    table: GateTable | None = None
    if args.inject_gate_fault:
        # swap the outputs of the two rail-1 rows: still a bijection, wrong physics
        table = dict(GATE_TABLE)
        table[(0, 0)], table[(1, 0)] = table[(1, 0)], table[(0, 0)]
        print("note: gate fault injected into the engine routing table", file=sys.stderr)

    grid = _verify_grid(m)
    target = make_ghz_pol(m, 0, +1)
    failed = False
    for name, mode in MODES.items():
        label = mode.label or name
        if m < mode.min_m:
            print(f"{label:>13}: skipped (needs distinct error indices, m >= {mode.min_m})")
            continue
        worst = 0.0
        worst_at = None
        for f1 in grid:
            for f2 in grid:
                ens = mode.verify_input(m, f1, f2)
                engine = mode.run(ens, target=target, gate_table=table)
                dense = oracle_run(*density_on_support(ens), m, mode, mode.plan(ens), target)
                devs = (
                    abs(engine.output_fidelity - dense.output_fidelity),
                    abs(engine.success_probability - dense.success_probability),
                )
                # max() and > both pass a NaN over; the first NaN is the worst point
                dev = math.nan if any(map(math.isnan, devs)) else max(devs)
                if not math.isnan(worst) and (math.isnan(dev) or dev > worst):
                    worst, worst_at = dev, (f1, f2)
        ok = worst < VERIFY_TOL
        failed = failed or not ok
        where = "" if ok else f" at F=({worst_at[0]}, {worst_at[1]}), m={m}"
        print(f"{label:>13}: {'ok' if ok else 'MISMATCH'}  worst deviation {worst:.3e}{where}")
    print(f"verify m={m}: {'FAILED' if failed else 'passed'} (tolerance {VERIFY_TOL:g})")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line with exit 2, like every other input error."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message} (see --help)\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghzpurify",
        description="Exact simulator for single-copy GHZ purification with hyperentangled inputs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured protocol and emit a run record")
    sim.add_argument("config", help="path to a JSON config file")
    sim.add_argument("--out", help="output path (default: stdout)")
    sim.add_argument("--format", choices=("json", "csv"), default="json")
    sim.add_argument(
        "--reproducible", action="store_true", help="omit the timestamp for byte-identical output"
    )
    sim.set_defaults(func=_cmd_simulate)

    swp = sub.add_parser("sweep", help="tabulate efficiency ratios or fidelity grids")
    swp.add_argument("--axis", choices=("L", "N", "F"), required=True)
    swp.add_argument("--from", dest="start", type=float, default=20.0, help="axis start (L/N)")
    swp.add_argument("--to", dest="stop", type=float, default=100.0, help="axis end (L/N)")
    swp.add_argument("--step", type=float, default=1.0)
    swp.add_argument("--N", type=int, default=3, help="photon count (fixed for the L axis)")
    swp.add_argument("--L", type=float, default=25.0, help="distance in km (fixed for the N axis)")
    swp.add_argument("--L0", type=float, default=25.0, help="attenuation length, km")
    swp.add_argument("--eta-d", dest="eta_d", type=float, default=0.9)
    swp.add_argument("--eta-c", dest="eta_c", type=float, default=0.95)
    swp.add_argument("--grid", default="0.1:0.9:0.1", help="F axis grid start:stop:step")
    swp.add_argument("--m", type=int, default=3, help="photon count for the F axis")
    swp.add_argument("--out")
    swp.add_argument("--format", choices=("csv", "json"), default="csv")
    swp.set_defaults(func=_cmd_sweep)

    ver = sub.add_parser("verify", help="cross-check the engine against the dense oracle")
    ver.add_argument("--m", type=int, choices=range(2, ORACLE_MAX_PHOTONS + 1), required=True)
    ver.add_argument(
        "--inject-gate-fault",
        action="store_true",
        help="corrupt one routing-table row first (self-test: verification must fail)",
    )
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
