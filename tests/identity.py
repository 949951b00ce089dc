"""Byte-identity check of two ghzpurify source trees on the same inputs.

    python tests/identity.py PARENT_TREE CHANGE_TREE [--seed N] [--smoke] [--python EXE]

A tree is a directory holding ``src/ghzpurify``, such as a checkout of the
parent commit and the working tree. Each tree runs in one child process with
``PYTHONPATH=<tree>/src``, and both children run the same seeded cases.
``--python EXE`` runs the change tree's child under the interpreter EXE,
the parent's under this one, so that outputs are compared across
interpreters; the verify set needs numpy, which EXE may lack, so it is then
skipped and reported as skipped, not as identical. The sets:

- simulate: random configs over all four modes within each mode's caps,
  through ``simulate --reproducible`` as JSON and as CSV. Weights include
  0, 5e-324, 1e-300, 1 - 1e-15 and 1, noise lists may be empty, and some
  configs are refused (exit 2) or accept nothing (exit 3);
- sweep: ``sweep --axis L|N|F`` in both formats, the defaults plus seeded
  ranges;
- verify: ``verify --m 2..5`` and ``verify --m 3 --inject-gate-fault``;
- repr: the ``repr`` of ``MODES[mode].run`` on seeded ensembles whose
  members are not GHZ products, or carry complex amplitudes (an exception is
  compared by its type and message);
- ghz: the same ``repr`` of phase-flip runs on GHZ x GHZ products built by
  ``tensor_hyper(make_ghz_pol(...), make_ghz_spatial(...))`` at m = 2..10:
  random indices, all four sign pairs, repeated members, the gate and the
  faulted table. Each ensemble runs again under the accept-all rule with
  the Hadamard layers and an empty plan, where members of both port
  classes are live and share one column. The repr spells out every port
  state, so a fault that only a non-GHZ target or a port's global sign
  shows is seen here.

The exit code, stdout and stderr of every case are compared. For each set
the script prints how many cases differ and the index of each, then the
first differing case and its first differing byte; it exits 0 when every
case matches, 1 when one differs and 2 when a tree cannot run. The default size takes about half a minute on a
2-CPU machine, ``--smoke`` a few seconds. The children import names from
the modules, never from the package, so trees from before and after the
package's exports changed both run. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

MODES = ("bitflip", "phaseflip", "general", "deterministic-demo")
EDGE_WEIGHTS = (0.0, 5e-324, 1e-300, 1.0 - 1e-15, 1.0)
# photon counts per mode: most lie within the caps, the last of each list past them
PHOTONS = {
    "bitflip": (2, 3, 4, 5, 6, 8, 16, 64, 1000, 1001),
    "phaseflip": (2, 3, 4, 5, 6, 7, 8, 2, 3, 4, 9, 10, 11),
    "general": (2, 3, 4, 5, 6, 8, 2, 3, 4, 5, 12, 16, 17),
    "deterministic-demo": (2, 3, 4, 5, 6, 8, 16, 64, 1000),
}
SIZES = {  # cases per seeded set: (simulate configs, sweeps per axis, repr ensembles, GHZ-product ensembles)
    "default": (2000, 10, 1000, 150),
    "smoke": (12, 1, 8, 4),
}


def _weight(rng: random.Random, budget: float = 1.0) -> float:
    return rng.choice(EDGE_WEIGHTS) if rng.random() < 0.3 else rng.random() * budget


def _index(rng: random.Random, m: int) -> int:
    """A bit-flip target index, in range [1, 2^(m-1)) unless m = 2 leaves only 1."""
    return 1 + rng.getrandbits(m - 1) % max(1, 2 ** (m - 1) - 1)


def simulate_config(rng: random.Random) -> dict:
    mode = rng.choice(MODES)
    m = rng.choice(PHOTONS[mode])
    kind = "phase-flip" if mode == "phaseflip" else "bit-flip"
    if rng.random() < 0.05:
        kind = "bit-flip" if kind == "phase-flip" else "phase-flip"
    lists = []
    for _ in range(2):
        if mode == "general":
            count = rng.randrange(min(6, 2 ** (m - 1)))
            indices = rng.sample(range(1, 2 ** (m - 1)), count)
            if indices and rng.random() < 0.05:
                indices[-1] = indices[0]
            share = 1.0 / max(1, count)
            lists.append([{"kind": kind, "target_index": i, "weight": _weight(rng, share)} for i in indices])
        elif mode == "deterministic-demo" or rng.random() < 0.8:
            index = 0 if kind == "phase-flip" else _index(rng, m)
            lists.append([{"kind": kind, "target_index": index, "weight": _weight(rng)}])
        else:
            lists.append([])
    pol, spatial = lists
    if mode in ("bitflip", "phaseflip") and pol and spatial and rng.random() < 0.9:
        spatial[0]["target_index"] = pol[0]["target_index"]
    if mode == "deterministic-demo" and rng.random() < 0.9 and m > 2:
        while spatial[0]["target_index"] == pol[0]["target_index"]:
            spatial[0]["target_index"] = _index(rng, m)
    index = rng.getrandbits(m - 1) if rng.random() < 0.95 else 2 ** (m - 1)
    config = {"m": m, "mode": mode, "pol_noise": pol, "spatial_noise": spatial}
    config["target"] = f"{index}{rng.choice('+-')}"
    config["seed"] = rng.choice((None, 0, rng.randrange(1000)))
    return config


def sweep_argvs(rng: random.Random, per_axis: int) -> list[list[str]]:
    argvs = [["sweep", "--axis", "L"], ["sweep", "--axis", "N", "--from", "2", "--to", "12"], ["sweep", "--axis", "F"]]
    for _ in range(per_axis - 1):
        start = rng.choice((0.0, 1.0, 20.0, rng.uniform(0, 200)))
        argvs.append(["sweep", "--axis", "L", "--from", repr(start), "--to", repr(start + rng.uniform(-5, 300)),
                      "--step", repr(rng.choice((1.0, 0.5, rng.uniform(0.1, 20)))),
                      "--N", str(rng.randrange(2, 30)), "--L0", repr(rng.uniform(1, 50))])
        argvs.append(["sweep", "--axis", "N", "--from", str(rng.randrange(1, 5)), "--to", str(rng.randrange(2, 40)),
                      "--L", repr(rng.uniform(0, 120)), "--eta-d", repr(rng.random()), "--eta-c", repr(rng.random())])
        step = rng.choice((0.1, 0.2, 0.25, 0.05))
        argvs.append(["sweep", "--axis", "F", "--grid", f"0.1:{rng.choice((0.5, 0.9, 1.0))}:{step}",
                      "--m", str(rng.choice((2, 3, 5, 8, 16)))])
    return [argv + ["--format", fmt] for argv in argvs for fmt in ("csv", "json")]


def _normalized(rng: random.Random, labels: list, complex_amps: bool) -> list:
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1) if complex_amps else 0.0) for _ in labels]
    norm = math.sqrt(math.fsum(abs(a) ** 2 for a in amps))
    return [[*label, a.real / norm, a.imag / norm] for label, a in zip(labels, amps)]


def repr_case(rng: random.Random) -> dict:
    """An ensemble as plain data: (weight, [pol, spatial, re, im] terms) members, a target, a gate fault."""
    mode = rng.choice(MODES)
    m = rng.randrange(2, 7 if mode == "phaseflip" else 9)
    full = (1 << m) - 1
    complex_amps = rng.random() < 0.5
    members = []
    for _ in range(rng.randrange(1, 4)):
        e = rng.getrandbits(m - 1)
        f = e if rng.random() < 0.5 else rng.getrandbits(m - 1)  # matched pairs pass every rule
        ghz = [(e, f), (e, f ^ full), (e ^ full, f), (e ^ full, f ^ full)]
        shape = rng.choice(("random", "ghz", "ghz"))
        if shape == "random":
            pol = [rng.getrandbits(m) for _ in range(rng.randrange(1, 17))]
            if rng.random() < 0.5:  # unanimous ports only
                labels = list({(p, p ^ rng.choice((0, full))) for p in pol})
            else:
                labels = list({(p, rng.getrandbits(m)) for p in pol})
            members.append(_normalized(rng, labels, complex_amps))
        elif rng.random() < 0.5:  # the support of a GHZ product, amplitudes off the product
            members.append(_normalized(rng, ghz, complex_amps))
        else:
            signs = rng.choice((1, -1)), rng.choice((1, -1))
            phase = complex(math.cos(t := rng.uniform(0, 2 * math.pi)), math.sin(t)) if complex_amps else 1
            amps = [0.5 * phase, 0.5 * signs[1] * phase, 0.5 * signs[0] * phase, 0.5 * signs[0] * signs[1] * phase]
            members.append([[p, s, complex(a).real, complex(a).imag] for (p, s), a in zip(ghz, amps)])
    raw = [rng.random() + 0.01 for _ in members]
    if len(members) > 1 and rng.random() < 0.2:
        raw[-1] = rng.choice((5e-324, 1e-300))
    total = math.fsum(raw)
    weights = [w / total for w in raw]
    choice = rng.random()
    if choice < 0.3:
        target = None
    elif choice < 0.7:
        target = [rng.getrandbits(m - 1), rng.choice((1, -1))]
    else:
        target = _normalized(rng, [(r,) for r in {rng.getrandbits(m) for _ in range(rng.randrange(1, 5))}], complex_amps)
    return {"mode": mode, "m": m, "members": list(zip(weights, members)), "target": target,
            "fault": rng.random() < 0.1}


def ghz_case(rng: random.Random) -> dict:
    """A phase-flip ensemble of GHZ x GHZ products as (weight, [e, pol sign, f, spatial sign]) members."""
    m = rng.randrange(2, 11)
    members = []
    for _ in range(rng.randrange(1, 4 if m >= 9 else 7)):
        if members and rng.random() < 0.3:
            members.append(rng.choice(members))  # the same product again
        else:
            members.append([rng.getrandbits(m - 1), rng.choice((1, -1)), rng.getrandbits(m - 1), rng.choice((1, -1))])
    raw = [rng.random() + 0.01 for _ in members]
    total = math.fsum(raw)
    choice = rng.random()
    if choice < 0.3:
        target = None
    elif choice < 0.6:
        target = [rng.getrandbits(m - 1), rng.choice((1, -1))]
    else:
        target = _normalized(rng, [(r,) for r in {rng.getrandbits(m) for _ in range(rng.randrange(1, 5))}], False)
    return {"m": m, "members": [[w / total, member] for w, member in zip(raw, members)], "target": target,
            "fault": rng.random() < 0.5}


def build_sets(seed: int, smoke: bool, config_dir: Path) -> dict[str, list]:
    """Cases by set; a simulate case is the argv with its config written under config_dir."""
    n_sim, per_axis, n_repr, n_ghz = SIZES["smoke" if smoke else "default"]
    rng = random.Random(seed)
    simulate = []
    for k in range(n_sim):
        path = config_dir / f"config-{k}.json"
        path.write_text(json.dumps(simulate_config(rng)), encoding="utf-8")
        simulate += [["simulate", str(path), "--reproducible", "--format", fmt] for fmt in ("json", "csv")]
    verify = [["verify", "--m", str(m)] for m in ((2,) if smoke else (2, 3, 4, 5))]
    verify.append(["verify", "--m", "3", "--inject-gate-fault"])
    return {
        "simulate": simulate,
        "sweep": sweep_argvs(rng, per_axis),
        "verify": verify,
        "repr": [repr_case(rng) for _ in range(n_repr)],
        "ghz": [ghz_case(rng) for _ in range(n_ghz)],
    }


def _captured(fn) -> list:
    """[exit code, stdout, stderr] of fn(); warnings and exceptions are written into stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            code = fn()
        except SystemExit as exc:  # argparse refusing an argument
            code = exc.code
        except Exception as exc:
            code = "raised"
            err.write(f"{type(exc).__name__}: {exc}\n")
    for w in seen:
        err.write(f"warning {w.category.__name__}: {w.message}\n")
    return [code, out.getvalue(), err.getvalue()]


def child() -> None:
    """Run the cases read from stdin against the ghzpurify on PYTHONPATH; write the results to stdout."""
    from ghzpurify.cli import main
    from ghzpurify.optics import GATE_TABLE
    from ghzpurify.protocol import MODES as MODE_TABLE
    from ghzpurify.protocol import AcceptanceRule, _execute
    from ghzpurify.states import POL, SPATIAL, Ensemble, PureState, make_ghz_pol, make_ghz_spatial, tensor_hyper

    def plain_members(case):
        return tuple(
            (w, PureState(case["m"], (POL, SPATIAL), {(p, s): complex(re, im) for p, s, re, im in terms}))
            for w, terms in case["members"]
        )

    def ghz_members(case):
        m = case["m"]
        return tuple(
            (w, tensor_hyper(make_ghz_pol(m, e, sign), make_ghz_spatial(m, f, other)))
            for w, (e, sign, f, other) in case["members"]
        )

    def run_repr(case, members, run):
        m = case["m"]
        target = case["target"]
        if target is not None and isinstance(target[0], int):
            target = make_ghz_pol(m, *target)
        elif target is not None:
            target = PureState(m, (POL,), {(r,): complex(re, im) for r, re, im in target})
        table = None
        if case["fault"]:
            table = dict(GATE_TABLE)
            table[(0, 0)], table[(1, 0)] = table[(1, 0)], table[(0, 0)]
        print(repr(run(Ensemble(members), target, table)))
        return 0

    def accept_all(ensemble, target, table):  # every port accepted, so both port classes are live
        return _execute(ensemble, AcceptanceRule("general"), {}, target, True, table)

    def ghz(case):
        members = ghz_members(case)
        for run in (MODE_TABLE["phaseflip"].run, accept_all):
            try:
                run_repr(case, members, run)
            except ValueError as exc:  # nothing accepted
                print(f"ValueError: {exc}")
        return 0

    runners = {
        "repr": lambda case: run_repr(case, plain_members(case), MODE_TABLE[case["mode"]].run),
        "ghz": ghz,
    }
    sets = json.loads(sys.stdin.read())
    results = {
        name: [_captured(lambda: runners.get(name, main)(case)) for case in cases]
        for name, cases in sets.items()
    }
    json.dump({"origin": sys.modules["ghzpurify.states"].__file__, "results": results}, sys.stdout)


def start_child(tree: Path, cwd: Path, python: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen(
        [python, str(Path(__file__).resolve()), "--child"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd, text=True,
    )


def fail(message: str):
    """A tree that cannot run: exit 2, so that it is not read as a difference."""
    print(message, file=sys.stderr)
    sys.exit(2)


def collect(tree: Path, proc: subprocess.Popen, payload: str) -> dict:
    out, err = proc.communicate(payload, timeout=1800)
    if proc.returncode != 0:
        fail(f"{tree}: the child process failed with exit {proc.returncode}:\n{err}")
    data = json.loads(out)
    expected = (tree / "src" / "ghzpurify" / "states.py").resolve()
    if Path(data["origin"]).resolve() != expected:
        fail(f"{tree}: the child imported {data['origin']}, not {expected}")
    return data["results"]


def first_difference(a: str, b: str) -> int:
    x, y = a.encode(), b.encode()
    return next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))


def report(name: str, index: int, case, left: list, right: list) -> None:
    print(f"{name}: case {index} differs: {json.dumps(case)[:2000]}")
    if name == "simulate":
        print(f"  config: {Path(case[1]).read_text(encoding='utf-8')[:2000]}")
    for field, a, b in zip(("exit", "stdout", "stderr"), left, right):
        if a == b:
            continue
        if field == "exit":
            print(f"  exit code: {a!r} against {b!r}")
            continue
        at = first_difference(a, b)
        print(f"  {field}, first differing byte {at}:")
        print(f"    parent: {a.encode()[max(0, at - 60):at + 60]!r}")
        print(f"    change: {b.encode()[max(0, at - 60):at + 60]!r}")


def compare(parent: Path, change: Path, seed: int, smoke: bool, python: str | None = None) -> int:
    for tree in (parent, change):
        if not (tree / "src" / "ghzpurify" / "__init__.py").is_file():
            fail(f"{tree} holds no src/ghzpurify")
    with tempfile.TemporaryDirectory(prefix="ghzpurify-identity-") as tmp:
        sets = build_sets(seed, smoke, Path(tmp))
        if python is not None:
            print(f"verify: {len(sets.pop('verify'))} cases skipped: they need numpy, and the change runs under {python}")
        payload = json.dumps(sets)
        pythons = (sys.executable, python or sys.executable)
        procs = [(tree, start_child(tree, Path(tmp), exe)) for tree, exe in zip((parent, change), pythons)]
        try:
            left, right = (collect(tree, proc, payload) for tree, proc in procs)
        finally:
            for _, proc in procs:
                proc.kill()  # does nothing to a child that has exited
        differs = False
        for name, cases in sets.items():
            bad = [i for i, (a, b) in enumerate(zip(left[name], right[name])) if a != b]
            if not bad:
                print(f"{name}: {len(cases)} cases identical")
            else:
                differs = True
                print(f"{name}: {len(bad)} of {len(cases)} cases differ: {' '.join(map(str, bad))}")
                report(name, bad[0], cases[bad[0]], left[name][bad[0]], right[name][bad[0]])
    return 1 if differs else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="tree whose outputs are the reference")
    parser.add_argument("change", type=Path, help="tree compared against it")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true", help="a few cases per set, for a quick check")
    parser.add_argument("--python", metavar="EXE", help="interpreter for the change tree's child; skips the verify set")
    args = parser.parse_args(argv)
    return compare(args.parent.resolve(), args.change.resolve(), args.seed, args.smoke, args.python)


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        sys.exit(main())
