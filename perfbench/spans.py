"""Spans around the calls into each ghzpurify module, recorded from outside.

The program has no hooks of its own, so the traced run replaces the public
functions of each module with timing wrappers, in every module namespace
that holds them (intra-module calls such as ``run_general`` ->
``infer_flip_plan`` go through module globals and are caught too), and puts
the originals back afterwards. Spans stay in memory; ``write`` stores them
when the run ends, and ``layer_metrics`` derives the per-layer figures.

A span is (name, start, end, parent span index, operation id, size); the
size is a count taken at the same boundary (terms out, members out, bytes).
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
from contextlib import contextmanager
from time import perf_counter


def _terms_out(args, out):
    return len(out.terms)


def _terms_in(args, out):
    return len(args[0].terms)


def _members_out(args, out):
    return len(out.members)


def _patterns(args, out):
    return len(out.accepted)


def _nbytes_out(args, out):
    return out.nbytes


def _nbytes_in(args, out):
    return args[0].nbytes


def _text_out(args, out):
    return len(out) if isinstance(out, str) else 0


def _rows(args, out):
    return len(out)


# span name, module, public callables ("Class.method" for methods), size
LAYER_SPANS = (
    ("states.pure_state", "states", ("PureState.__post_init__",), _terms_in),
    ("states.make_state", "states", ("make_state",), _terms_out),
    ("states.build", "states", ("make_ghz_pol", "make_ghz_spatial", "tensor_hyper"), None),
    ("states.fidelity", "states", ("fidelity",), None),
    ("noise", "noise", ("mix_two", "mix_general", "product_ensemble", "ensemble_from_specs"), _members_out),
    ("optics.hadamard", "optics", ("hadamard_pol", "hadamard_spatial"), _terms_out),
    ("optics.network", "optics", ("apply_network",), _terms_in),
    ("optics.flip", "optics", ("bit_flip_pol",), None),
    ("protocol.plan", "protocol", ("infer_flip_plan", "phaseflip_plan"), None),
    ("protocol.run", "protocol", ("run_bitflip", "run_phaseflip", "run_general"), _patterns),
    ("oracle.densify", "oracle", ("densify",), _nbytes_out),
    ("oracle.unitary", "oracle", ("network_unitary", "hadamard_both_unitary"), _nbytes_out),
    ("oracle.run", "oracle", ("oracle_run",), _nbytes_in),
    ("efficiency.sweep", "efficiency", ("sweep",), _rows),
    ("records", "records", ("load_config", "rows_to_csv", "rows_to_json",
                            "RunRecord.to_json", "RunRecord.to_csv"), _text_out),
)

# per-layer metric -> (span name, field, unit); fields: calls, busy_s, self_s, size
PER_LAYER = {
    "optics.hadamard.calls": ("optics.hadamard", "calls", "count"),
    "optics.hadamard.busy_s": ("optics.hadamard", "busy_s", "s"),
    "optics.hadamard.terms_out": ("optics.hadamard", "size", "count"),
    "states.pure_state.calls": ("states.pure_state", "calls", "count"),
    "states.terms_built": ("states.pure_state", "size", "count"),
    "states.make_state.calls": ("states.make_state", "calls", "count"),
    "states.make_state.busy_s": ("states.make_state", "busy_s", "s"),
    "states.fidelity.calls": ("states.fidelity", "calls", "count"),
    "states.fidelity.busy_s": ("states.fidelity", "busy_s", "s"),
    "optics.network.calls": ("optics.network", "calls", "count"),
    "optics.network.busy_s": ("optics.network", "busy_s", "s"),
    "optics.network.terms_in": ("optics.network", "size", "count"),
    "optics.flip.calls": ("optics.flip", "calls", "count"),
    "optics.flip.busy_s": ("optics.flip", "busy_s", "s"),
    "protocol.plan.busy_s": ("protocol.plan", "busy_s", "s"),
    "protocol.run.calls": ("protocol.run", "calls", "count"),
    "protocol.run.self_s": ("protocol.run", "self_s", "s"),
    "protocol.patterns_accepted": ("protocol.run", "size", "count"),
    "noise.calls": ("noise", "calls", "count"),
    "noise.busy_s": ("noise", "busy_s", "s"),
    "noise.members_out": ("noise", "size", "count"),
    "oracle.densify.busy_s": ("oracle.densify", "busy_s", "s"),
    "oracle.unitary.busy_s": ("oracle.unitary", "busy_s", "s"),
    "oracle.run.calls": ("oracle.run", "calls", "count"),
    "oracle.run.self_s": ("oracle.run", "self_s", "s"),
    "cli.command.self_s": ("cli.command", "self_s", "s"),
    "efficiency.sweep.busy_s": ("efficiency.sweep", "busy_s", "s"),
    "efficiency.rows": ("efficiency.sweep", "size", "count"),
    "records.busy_s": ("records", "busy_s", "s"),
    "records.bytes_out": ("records", "size", "B"),
}
# Dense operand bytes at the oracle's function boundaries: densify and unitary
# outputs plus the density operator handed to oracle_run. Computed from array
# sizes, not measured memory traffic.
ORACLE_BYTES = ("oracle.densify", "oracle.unitary", "oracle.run")


class Tracer:
    """Spans of one traced run, in the order they were opened."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op = -1

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def wrap(self, name, fn, size=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open(name)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[index] = (name, start, perf_counter(), parent, self.op, 0)
                raise
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, self.op, size(args, out) if size else 0)
            return out

        return traced

    @contextmanager
    def span(self, name, op=None):
        """A span opened by the benchmark itself, e.g. one workload operation."""
        if op is not None:
            self.op = op
        index, parent = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, start, perf_counter(), parent, self.op, 0)

    @contextmanager
    def installed(self):
        """Wrap every public callable of LAYER_SPANS for the duration of the block.

        Callers outside the package must reach the program through its
        modules (``protocol.run_bitflip``), not through names imported from them.
        """
        modules = [m for n, m in sys.modules.items() if n == "ghzpurify" or n.startswith("ghzpurify.")]
        patches = []
        for name, modname, attrs, size in LAYER_SPANS:
            mod = sys.modules[f"ghzpurify.{modname}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(mod, cls_name)
                    original = owner.__dict__[meth]
                    patches.append((owner, meth, original))
                    setattr(owner, meth, self.wrap(name, original, size))
                    continue
                original = getattr(mod, attr)
                wrapper = self.wrap(name, original, size)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            patches.append((holder, key, original))
                            setattr(holder, key, wrapper)
        try:
            yield
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def write(self, path):
        """Spans as gzip-compressed tab-separated rows, one per span, in index order."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1, newline="") as fh:
            writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
            writer.writerow(("name", "start", "end", "parent", "op", "size"))
            writer.writerows(self.spans)


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """calls, busy_s, self_s and size per span name.

    A call counts once however deep the layer recurses into itself: calls and
    busy time come from the outermost span of each name. Self time is a
    span's duration minus that of its direct children, summed over all spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _, size) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "size": 0})
        t["self_s"] += end - start - child_time[i]
        t["size"] += size
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            t["calls"] += 1
            t["busy_s"] += end - start
    return totals


def layer_metrics(spans, rounds: int) -> dict[str, float]:
    """Per-layer figures per traced round."""
    totals = layer_totals(spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "size": 0}
    out = {
        metric: totals.get(name, empty)[field] / rounds
        for metric, (name, field, _) in PER_LAYER.items()
    }
    out["oracle.bytes_computed"] = sum(totals.get(n, empty)["size"] for n in ORACLE_BYTES) / rounds
    out["trace.spans"] = len(spans) / rounds
    return out
