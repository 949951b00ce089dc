"""ghzpurify benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload exact-scaling --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src/`` and ``ghzpurify`` child processes get the same path.
A run sets itself up SETUP_REPEATS times (median reported as setup_s), then
runs whole rounds of the workload's operations until ``--seconds`` is about
used, checking every output against perfbench/reference.py. One process, no
worker threads; child processes run one at a time.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates plain
and traced rounds, reports per-layer figures per traced round plus the
tracing overhead, and writes the spans to .bench_out/. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("exact-scaling", "small-instances", "cli-session")
SETUP_REPEATS = 5
# Child processes get no subprocess timeout: waiting with one polls in steps of
# up to 50 ms, which would quantize their times. A whole-run alarm stands in.
WATCHDOG_S = 170
# The machine is shared and its speed switches between a fast and a slow
# state, about 1.6 times slower, for seconds to minutes at a time. A speed
# probe (a fixed integer loop, median of PROBE_BURST passes) runs around the
# operations, and end-to-end times are scaled by PROBE_REF_S over the probes'
# mean, to read as times at the speed where one pass takes PROBE_REF_S:
# about this machine's fast state.
PROBE_LOOPS = 50_000
PROBE_BURST = 5
PROBE_REF_S = 0.002
PROBE_SPACING_S = 0.05
START_PROBES = 3  # interpreter starts timed for cli.interpreter_s and cli.import_s
# operation classes behind op_a_ms and op_b_ms on each workload
OP_CLASSES = {
    "exact-scaling": ("phaseflip_m8", "deterministic_m16"),
    "small-instances": ("bitflip", "general"),
    "cli-session": ("simulate", "verify_m5"),
}
# per-operation figures printed for each workload: name -> operation class
FIGURES = {
    "exact-scaling": {f"{k}_s": k for k in ("phaseflip_m4", "phaseflip_m6", "phaseflip_m8",
                                            "deterministic_m8", "deterministic_m16")},
    "small-instances": {"bitflip_per_s": "bitflip", "general_per_s": "general"},
    "cli-session": {f"{k}_s": k for k in ("simulate", "sweep", "verify_m3", "verify_m5")},
}
PER_LAYER_EXTRA_UNITS = {
    "oracle.bytes_computed": "B",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Overrun(BaseException):
    """The run outlived WATCHDOG_S; not an Exception, so no operation absorbs it."""


def _overrun(signum, frame):
    raise Overrun(f"run exceeded {WATCHDOG_S} s")


def start_time(env, code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return perf_counter() - start


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def speed_probe() -> float:
    """Median time of PROBE_BURST passes of a fixed integer loop. The loop
    allocates nothing, so its time follows the host's speed and not the
    state of the interpreter's heap."""
    times = []
    for _ in range(PROBE_BURST):
        start = perf_counter()
        x = 0
        for _ in itertools.repeat(None, PROBE_LOOPS):
            x = (x ^ 0x5A) & 0xFF
        times.append(perf_counter() - start)
    return statistics.median(times)


def host_scale(before: float, after: float) -> float:
    """Factor from times measured between two probes to times at the reference speed."""
    return 2 * PROBE_REF_S / (before + after)


class Tally:
    """Operation samples and outcomes of one run.

    ``samples`` and ``rounds`` hold times scaled to the reference host speed,
    ``raw`` the measured operation times.
    """

    def __init__(self):
        self.samples = defaultdict(list)
        self.raw = defaultdict(list)
        self.rounds: list[float] = []
        self.raw_rounds: list[float] = []  # plain rounds of a traced run
        self.traced_rounds: list[float] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.faults: dict[str, str] = {}
        self.unexpected: list[str] = []

    def run_ops(self, ops, tracer=None) -> tuple[float, float]:
        """Run and check ops in order; returns the round's raw and scaled time.

        A speed probe runs before the first operation, after the last, and
        between operations once PROBE_SPACING_S of operation time has passed
        since the last probe. Each operation is scaled by the probes around it.
        """
        raw_total = scaled_total = 0.0
        pending: list[tuple[str, float]] = []
        before = speed_probe()

        def settle():
            nonlocal before, pending, raw_total, scaled_total
            after = speed_probe()
            self.probes += [before, after]
            scale = host_scale(before, after)
            for kind, elapsed in pending:
                if tracer is None:
                    self.raw[kind].append(elapsed)
                    self.samples[kind].append(elapsed * scale)
                raw_total += elapsed
                scaled_total += elapsed * scale
            before, pending = after, []

        for op in ops:
            if sum(elapsed for _, elapsed in pending) >= PROBE_SPACING_S:
                settle()
            op_id = self.attempted
            self.attempted += 1
            start = perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.span(f"op.{op.kind}", op=op_id):
                        out = op.run()
            except Exception:  # a crash is a failed operation; record it and go on
                elapsed = perf_counter() - start
                problems = ["raised: " + traceback.format_exc().strip().splitlines()[-1]]
                traceback.print_exc()
            else:
                elapsed = perf_counter() - start
                problems = op.check(out)
            pending.append((op.kind, elapsed))
            if problems:
                self.failed += 1
                if op.known_fault is None:
                    self.unexpected.append(f"{op.kind}: {'; '.join(problems[:3])}")
                else:
                    self.faults.setdefault(op.known_fault, f"{op.kind}: {problems[0]}")
        settle()
        return raw_total, scaled_total


def prepare(name, rng, seed, env, trace, tracer, config_dir):
    """Set a workload up; returns next_round() -> (plain ops, ops to trace or None)."""
    import workloads

    if name == "cli-session":
        calls = workloads.cli_session(rng, seed, config_dir)
        if not trace:
            ops = [workloads.child_op(c, env, ROOT) for c in calls]
            return lambda: (ops, None)
        plain = [workloads.inprocess_op(c) for c in calls]
        traced = [workloads.inprocess_op(c, tracer) for c in calls]
        return lambda: (plain, traced)
    make_round = (workloads.exact_scaling_round if name == "exact-scaling"
                  else workloads.small_instances_round)
    workloads.warm_up()

    def next_round():
        ops = make_round(rng)
        return ops, ops if trace else None

    return next_round


def measure(next_round, seconds, tally, tracer):
    """Whole rounds until another would end more than half a round past ``seconds``."""
    start = perf_counter()
    previous = start
    while True:
        plain, traced = next_round()
        gc.collect()  # garbage left by the previous round is not this round's cost
        raw, scaled = tally.run_ops(plain)
        tally.rounds.append(scaled)
        if traced is not None:
            tally.raw_rounds.append(raw)
            with tracer.installed():
                tally.traced_rounds.append(tally.run_ops(traced, tracer)[0])
        now = perf_counter()
        if now - start + (now - previous) / 2 >= seconds:
            return
        previous = now


def end_to_end(name, tally, setup_times) -> dict:
    a, b = OP_CLASSES[name]
    usage = resource.RUSAGE_CHILDREN if name == "cli-session" else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
        "round_s": (statistics.median(tally.rounds), "s"),
        "op_a_ms": (1000 * statistics.median(tally.samples[a]), "ms"),
        "op_b_ms": (1000 * statistics.median(tally.samples[b]), "ms"),
    }


def figures(name, tally) -> dict:
    out = {}
    for figure, kind in FIGURES[name].items():
        times = tally.raw[kind]
        out[figure] = len(times) / sum(times) if figure.endswith("_per_s") else statistics.median(times)
    return out


def per_layer(tally, tracer, env) -> dict:
    from spans import PER_LAYER, layer_metrics

    values = layer_metrics(tracer.spans, len(tally.traced_rounds))
    bare = statistics.median(start_time(env, "pass") for _ in range(START_PROBES))
    imported = statistics.median(start_time(env, "import ghzpurify.cli") for _ in range(START_PROBES))
    values["cli.interpreter_s"] = bare
    values["cli.import_s"] = imported - bare
    values["trace.overhead_s"] = statistics.median(tally.traced_rounds) - statistics.median(tally.raw_rounds)
    units = {metric: unit for metric, (_, _, unit) in PER_LAYER.items()} | PER_LAYER_EXTRA_UNITS
    return {metric: (values[metric], units[metric]) for metric in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ghzpurify" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(WATCHDOG_S)
    env = child_env()
    tracer = Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    config_dir = tempfile.mkdtemp(prefix="configs-", dir=OUT_DIR)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            before = speed_probe()
            start = perf_counter()
            start_time(env, "import ghzpurify.cli")
            next_round = prepare(args.workload, random.Random(args.seed), args.seed, env,
                                 args.trace, tracer, config_dir)
            setup_times.append((perf_counter() - start) * host_scale(before, speed_probe()))
        tally = Tally()
        measure(next_round, args.seconds, tally, tracer)
        self_test = workloads.checker_self_test()
        if args.trace:
            metrics = per_layer(tally, tracer, env)
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
            tracer.write(trace_path)
        else:
            metrics = end_to_end(args.workload, tally, setup_times)
    finally:
        shutil.rmtree(config_dir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(tally.rounds)}  BLAS threads {blas_threads()}  nproc {os.cpu_count()}")
    if args.trace:
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        speed = PROBE_REF_S / statistics.median(tally.probes)
        print(f"  host speed {speed:.4f} of the reference ({len(tally.probes)} probes); unscaled medians:")
        for figure, value in figures(args.workload, tally).items():
            print(f"  {figure:<28} {value:.6g}")
        print("  scaled to the reference speed:")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<28} {value:.6g} {unit}")
    print(f"  attempted {tally.attempted}  failed {tally.failed}")
    for fault, example in sorted(tally.faults.items()):
        print(f"  known fault {fault}: {example}")
    for problem in tally.unexpected[:10] + self_test:
        print(f"  INCORRECT {problem}", file=sys.stderr)
    result = {
        "correct": not tally.unexpected and not self_test,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
