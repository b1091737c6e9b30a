"""Spans around the calls into each sogl layer, for the traced run.

The wrappers live here, not in the package: they replace module
attributes of ``sogl`` -- the names the callers look up at call time, such
as ``sogl.admm.x_step`` or ``sogl.cli.solve_admm`` -- and ``uninstall``
puts the originals back. A name that a later refactor removes is skipped
and reported as absent rather than failing the run.

Spans are kept in memory as ``(name, start, end, parent, op, attrs)`` and
written out once the run ends. ``attrs`` carries the counts taken at the
same boundary, such as the iterations of one solve.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name). The span name is the layer the time is
# charged to: model helpers looked up by admm are charged to admm, and the
# solvers looked up by cli to the module that defines them.
WRAPS = (
    ("sogl.cli", "run_cli", "cli.run_cli"),
    ("sogl.cli", "parse_instance", "instances.parse_instance"),
    ("sogl.cli", "solve_admm", "admm.solve_admm"),
    ("sogl.cli", "solve_dual", "dual.solve_dual"),
    ("sogl.cli", "sandwich", "bounds.sandwich"),
    ("sogl.cli", "stationarity_check", "oracle.stationarity_check"),
    ("sogl.cli", "oracle_prox_l0_ogl", "oracle.oracle_prox_l0_ogl"),
    ("sogl.cli", "objective_value", "cli.objective_value"),
    ("sogl.cli", "dumps_canonical", "instances.dumps_canonical"),
    ("sogl.cli", "write_atomic", "instances.write_atomic"),
    ("sogl.instances", "instance_from_dict", "instances.instance_from_dict"),
    ("sogl.instances", "InstanceFile.build", "instances.InstanceFile.build"),
    ("sogl.admm", "x_step", "admm.x_step"),
    ("sogl.admm", "z_step", "admm.z_step"),
    ("sogl.admm", "y_step", "admm.y_step"),
    ("sogl.admm", "residual_norms", "admm.residual_norms"),
    ("sogl.admm", "gather", "admm.gather"),
    ("sogl.admm", "scatter_add", "admm.scatter_add"),
    ("sogl.admm", "objective_value", "admm.objective_value"),
    ("sogl.dual", "dual_z_step", "dual.dual_z_step"),
    ("sogl.dual", "dual_y_step", "dual.dual_y_step"),
    ("sogl.dual", "objective_value", "dual.objective_value"),
    ("sogl.bounds", "lower_diag", "bounds.lower_diag"),
    ("sogl.bounds", "upper_diag", "bounds.upper_diag"),
    ("sogl.bounds", "lower_bound_l0", "bounds.lower_bound_l0"),
    ("sogl.bounds", "upper_bound_l0", "bounds.upper_bound_l0"),
    ("sogl.bounds", "scaled_l2_prox", "bounds.scaled_l2_prox"),
)

# Counts read off a call's arguments and result, keyed by span name.
ATTRS = {
    "admm.solve_admm": lambda args, r: {
        "iters": r.iters, "entry_iters": r.iters * args[1].total_size},
    "dual.solve_dual": lambda args, r: {"iters": r.iters},
    "oracle.stationarity_check": lambda args, r: {"passed": int(bool(r[0]))},
    "bounds.scaled_l2_prox": lambda args, r: {
        "fp_iters": r[2].iterations, "bisections": int(r[2].used_bisection)},
    "instances.dumps_canonical": lambda args, r: {"bytes": len(r.encode())},
}

OBJECTIVE_SITES = ("admm.objective_value", "dual.objective_value",
                   "cli.objective_value")


class Tracer:
    """Installs the wrappers and collects their spans."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self.op_kinds = {}  # op id -> command kind, or "setup"
        self.absent = []  # span names whose attribute no longer exists
        self.attrs_missing = set()  # span names whose counts could not be read
        self._installed = []
        self._stack = []  # indices of the open spans, innermost last

    def install(self):
        for module, path, name in WRAPS:
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, name, start, parent, {"raised": type(exc).__name__})
                raise
            self._close(idx, name, start, parent,
                        self._attrs(name, attrs_of, args, result))
            return result

        return traced

    def _close(self, idx, name, start, parent, attrs):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.op, attrs)

    def _attrs(self, name, attrs_of, args, result):
        if attrs_of is None:
            return None
        try:
            return attrs_of(args, result)
        except (AttributeError, IndexError, TypeError):
            self.attrs_missing.add(name)
            return None

    def write(self, path):
        """One JSON array per span, then one line mapping op ids to kinds."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"op_kinds": self.op_kinds}) + "\n")


def _covered(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class Aggregate:
    """Per-name sums over the spans of the traced loop; set-up spans only
    add to ``setup_seconds``."""

    def __init__(self, tracer: Tracer, instances: int, setups: int):
        self.instances = max(1, instances)
        self.setups = max(1, setups)
        children = defaultdict(list)
        for name, start, end, parent, op, attrs in tracer.spans:
            if parent >= 0:
                children[parent].append((start, end))
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.setup_seconds = defaultdict(float)
        for idx, (name, start, end, parent, op, attrs) in enumerate(tracer.spans):
            kind = tracer.op_kinds.get(op)
            if kind == "setup":
                self.setup_seconds[name] += end - start
                continue
            self.seconds[name] += end - start
            self.self_seconds[name] += end - start - _covered(children[idx], start, end)
            self.calls[name] += 1
            for key, value in (attrs or {}).items():
                if key == "raised":
                    self.counts[f"{name}.raised.{value}"] += 1
                else:
                    self.counts[f"{name}.{key}"] += value

    def ms(self, *names):
        return sum(self.seconds[n] for n in names) * 1e3 / self.instances

    def self_ms(self, name):
        return self.self_seconds[name] * 1e3 / self.instances

    def per_instance(self, key):
        return self.counts[key] / self.instances

    def calls_per_instance(self, *names):
        return sum(self.calls[n] for n in names) / self.instances

    def setup_ms(self, name):
        return self.setup_seconds[name] * 1e3 / self.setups


def _ns_per_entry_iter(a: Aggregate) -> float:
    entry_iters = a.counts["admm.solve_admm.entry_iters"]
    return a.seconds["admm.solve_admm"] * 1e9 / entry_iters if entry_iters else 0.0


def _ms(span):
    return (f"{span}.ms", "ms/inst", "lower", (span,),
            lambda a: a.ms(span))


def _self_ms(span):
    return (f"{span}.self_ms", "ms/inst", "lower", (span,),
            lambda a: a.self_ms(span))


def _count(span, key, metric, unit, better="lower"):
    return (metric, unit, better, (span,),
            lambda a: a.per_instance(f"{span}.{key}"))


def _calls(metric, *spans):
    return (metric, "calls/inst", "lower", spans,
            lambda a: a.calls_per_instance(*spans))


# (metric, unit, better, span names it is read from, value). Values are per
# instance, i.e. per pipeline of the traced loop, except oracle_prox_l0_ogl:
# it runs only in set-up, so it is per set-up.
PER_LAYER = (
    _ms("admm.solve_admm"),
    _self_ms("admm.solve_admm"),
    _ms("admm.x_step"),
    _ms("admm.z_step"),
    _ms("admm.y_step"),
    _ms("admm.residual_norms"),
    _ms("admm.gather"),
    _ms("admm.scatter_add"),
    _ms("admm.objective_value"),
    _count("admm.solve_admm", "iters", "admm.iters", "iters/inst"),
    _count("admm.solve_admm", "entry_iters", "admm.entry_iters", "1/inst"),
    ("admm.ns_per_entry_iter", "ns", "lower", ("admm.solve_admm",),
     _ns_per_entry_iter),
    _ms("oracle.stationarity_check"),
    _calls("oracle.stationarity_check.calls", "oracle.stationarity_check"),
    _count("oracle.stationarity_check", "passed",
           "oracle.stationarity_check.passed", "1/inst", "higher"),
    ("oracle.oracle_prox_l0_ogl.ms", "ms/setup", "lower",
     ("oracle.oracle_prox_l0_ogl",),
     lambda a: a.setup_ms("oracle.oracle_prox_l0_ogl")),
    _ms("dual.solve_dual"),
    _ms("dual.dual_z_step"),
    _ms("dual.dual_y_step"),
    _count("dual.solve_dual", "iters", "dual.iters", "iters/inst"),
    _count("dual.solve_dual", "raised.CycleDetectedError",
           "dual.cycle_fallbacks", "1/inst"),
    _calls("dual.attempts", "dual.solve_dual"),
    _ms("bounds.sandwich"),
    _ms("bounds.lower_diag"),
    _ms("bounds.upper_diag"),
    _ms("bounds.lower_bound_l0"),
    _ms("bounds.upper_bound_l0"),
    _ms("bounds.scaled_l2_prox"),
    _count("bounds.scaled_l2_prox", "fp_iters", "bounds.scaled_l2_prox.fp_iters",
           "iters/inst"),
    _count("bounds.scaled_l2_prox", "bisections",
           "bounds.scaled_l2_prox.bisections", "1/inst"),
    _calls("bounds.scaled_l2_prox.calls", "bounds.scaled_l2_prox"),
    _ms("instances.parse_instance"),
    _ms("instances.instance_from_dict"),
    _ms("instances.InstanceFile.build"),
    _ms("instances.dumps_canonical"),
    _count("instances.dumps_canonical", "bytes", "instances.dumps_canonical.bytes",
           "bytes/inst"),
    _ms("instances.write_atomic"),
    _calls("model.objective_value.calls", *OBJECTIVE_SITES),
    ("model.objective_value.ms", "ms/inst", "lower", OBJECTIVE_SITES,
     lambda a: a.ms(*OBJECTIVE_SITES)),
    _ms("cli.run_cli"),
    _self_ms("cli.run_cli"),
)


def layer_metrics(tracer: Tracer, instances: int, setups: int):
    """Per-layer values by metric name, and the metrics that are absent.

    An absent metric (every span it reads was removed from the package)
    reads 0.
    """
    agg = Aggregate(tracer, instances, setups)
    values, absent = {}, []
    for metric, unit, _, sources, value in PER_LAYER:
        if all(s in tracer.absent for s in sources):
            absent.append(metric)
            values[metric] = (0.0, unit)
        else:
            values[metric] = (float(value(agg)), unit)
    return values, absent
