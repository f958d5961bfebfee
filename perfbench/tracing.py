"""Spans around the calls into kgring's layers, recorded from outside.

`Tracer.install` wraps every public function of the layer modules at every
module attribute that binds it: the package re-exports with
`from .x import f`, so patching only the defining module would miss callers
(the oracle's kernel probes go through `oracle.count_below_affine`, the count
inside `eigenvalue_indexed` through `kernels.count_below`).

A span is (id, function, start, end, parent, command, error). Spans live in
memory until `write_spans` runs at the end. A span that starts on one of the
CLI's pool threads with nothing open on that thread takes as parent the
innermost span open on the main thread, which is the `cmd_*` call waiting
for the pool. Times are wall clock and are summed over threads, so while the
pool's threads share the interpreter lock a span includes its wait for it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import sys
import threading
import time
import types
from collections import defaultdict

LAYERS = ("cli", "bound_states", "nu", "polynomials", "special", "oracle", "kernels")
KERNEL_COUNTS = ("kernels.count_below", "kernels.count_below_affine")
ORACLE_CALLS = ("oracle.radial_numeric_energy", "oracle.angular_numeric_lambda")
SOLVE = "bound_states.solve_bound_state"


def _solve_key(args, kwargs):
    numbers = args[1] if len(args) > 1 else kwargs["numbers"]
    return (args[0], numbers.N + numbers.n, numbers.m * numbers.m)


def _call_key(args, kwargs):
    return (args, tuple(sorted(kwargs.items())))


# arguments kept per call, for the distinct-work ratios
_KEYS = {SOLVE: _solve_key, **{name: _call_key for name in ORACLE_CALLS}}


def layer_functions() -> dict:
    """{function object: "layer.name"} for the public functions of each layer.

    A function belongs to the layer that defines it. One defined in a private
    module (the kernel backends) belongs to the layer holding that module as
    an attribute, which is `kernels` for both Sturm backends.
    """
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"kgring.{layer}")
        except ImportError:
            continue
    found: dict = {}
    for layer, mod in modules.items():
        holds = {v.__name__ for v in vars(mod).values() if isinstance(v, types.ModuleType)}
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            home = getattr(obj, "__module__", None) or ""
            if home == mod.__name__ or (home.startswith("kgring._") and home in holds):
                found.setdefault(obj, f"{layer}.{attr}")
    return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.sizes: dict[int, int] = {}
        self.keys: list[tuple] = []
        self.command = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._local.stack = []
        self._main_stack = self._local.stack

    def install(self) -> None:
        """Wrap every layer function at every binding."""
        wrappers = {id(fn): self._wrap(fn, name) for fn, name in layer_functions().items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "kgring" and not modname.startswith("kgring."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap(self, fn, name):
        idx = len(self.names)
        self.names.append(name)
        spans, sizes, keys, ids = self.spans, self.sizes, self.keys, self._ids
        local, main_stack = self._local, self._main_stack
        sized = name in KERNEL_COUNTS
        keyer = _KEYS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            try:
                parent = stack[-1] if stack else main_stack[-1]
            except IndexError:
                parent = 0
            sid = next(ids)
            command = tracer.command
            if sized:
                sizes[sid] = len(args[0])
            if keyer is not None:
                keys.append((idx, command, keyer(args, kwargs)))
            stack.append(sid)
            error = ""
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, idx, start, end, parent, command, error))

        return traced

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("id,function,start,end,parent,command,error\n")
            for sid, idx, start, end, parent, command, error in self.spans:
                fh.write(f"{sid},{self.names[idx]},{start!r},{end!r},{parent},{command},{error}\n")


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """{id: duration minus the part of it that its child spans cover}.

    `spans` holds (id, start, end, parent) tuples; children may overlap (pool
    threads), so their union is subtracted, not their sum.
    """
    children = defaultdict(list)
    for sid, start, end, parent in spans:
        children[parent].append((start, end))
    return {sid: (end - start) - covered(children.get(sid, ()), start, end)
            for sid, start, end, parent in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(tracer: Tracer, expected, verify_rows: int) -> tuple[dict, dict]:
    """Per-layer metrics named in `expected`, plus the bases of every ratio.

    A function in `expected` that the program no longer has is reported with
    zero calls and time and listed under `absent` in the returned notes.
    """
    names = tracer.names
    spans = tracer.spans
    selfs = self_times([(s[0], s[2], s[3], s[4]) for s in spans])
    by_id = {s[0]: s for s in spans}
    per_fn = defaultdict(lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0, "errors": defaultdict(int)})
    per_layer_self = defaultdict(float)
    for sid, idx, start, end, parent, command, error in spans:
        agg = per_fn[names[idx]]
        agg["calls"] += 1
        agg["time_s"] += end - start
        agg["self_s"] += selfs[sid]
        per_layer_self[names[idx].split(".")[0]] += selfs[sid]
        if error:
            agg["errors"][error] += 1

    def ancestor(sid, wanted):
        parent = by_id[sid][4]
        while parent in by_id:
            if names[by_id[parent][1]] in wanted:
                return names[by_id[parent][1]]
            parent = by_id[parent][4]
        return None

    elements = {name: 0 for name in KERNEL_COUNTS}
    probes = defaultdict(int)
    for sid, size in tracer.sizes.items():
        name = names[by_id[sid][1]]
        elements[name] += size
        probes[ancestor(sid, ORACLE_CALLS)] += 1
    # one fixed-point evaluation = one radial_energy call inside a solve
    evals = sum(1 for s in spans if names[s[1]] == "bound_states.radial_energy"
                and ancestor(s[0], (SOLVE,)) == SOLVE)
    distinct = defaultdict(set)
    calls = defaultdict(int)
    for idx, command, key in tracer.keys:
        group = "solve" if names[idx] == SOLVE else "oracle"
        distinct[group].add((command, idx, key))
        calls[group] += 1

    kernel_calls = sum(per_fn[n]["calls"] for n in KERNEL_COUNTS)
    kernel_time = sum(per_fn[n]["time_s"] for n in KERNEL_COUNTS)
    kernel_elements = sum(elements.values())
    radial_calls = per_fn[ORACLE_CALLS[0]]["calls"]
    angular_calls = per_fn[ORACLE_CALLS[1]]["calls"]
    solves = per_fn[SOLVE]["calls"]
    derived = {
        # computed from array sizes: count_below reads diag and off_sq,
        # count_below_affine reads diag_base, diag_lin and off_sq (8 bytes each)
        "kernels.bytes_computed": 16 * elements["kernels.count_below"]
        + 24 * elements["kernels.count_below_affine"],
        "kernels.ns_per_element": 1e9 * _ratio(kernel_time, kernel_elements),
        "kernels.probes_per_radial_call": _ratio(probes[ORACLE_CALLS[0]], radial_calls),
        "kernels.probes_per_angular_call": _ratio(probes[ORACLE_CALLS[1]], angular_calls),
        "oracle.grid_too_coarse": sum(per_fn[n]["errors"]["GridTooCoarse"] for n in ORACLE_CALLS),
        "oracle.distinct_call_frac": _ratio(len(distinct["oracle"]), calls["oracle"]),
        "oracle.calls_per_verify_row": _ratio(radial_calls + angular_calls, verify_rows),
        "bound_states.evals_per_state": _ratio(evals, solves),
        "bound_states.distinct_level_frac": _ratio(len(distinct["solve"]), calls["solve"]),
    }
    notes = {
        "absent": [],
        "bases": {
            "kernels.ns_per_element": f"{kernel_elements} elements in {kernel_calls} probes",
            "kernels.probes_per_radial_call": f"{probes[ORACLE_CALLS[0]]} probes / {radial_calls} calls",
            "kernels.probes_per_angular_call": f"{probes[ORACLE_CALLS[1]]} probes / {angular_calls} calls",
            "oracle.distinct_call_frac": f"{len(distinct['oracle'])} distinct / {calls['oracle']} calls",
            "oracle.calls_per_verify_row": f"{radial_calls + angular_calls} calls / {verify_rows} rows",
            "bound_states.evals_per_state": f"{evals} evaluations / {solves} solves",
            "bound_states.distinct_level_frac": f"{len(distinct['solve'])} distinct / {calls['solve']} solves",
        },
        "top_self_s": sorted(((round(v["self_s"], 6), k) for k, v in per_fn.items()), reverse=True)[:12],
    }
    known = set(names)
    metrics = {}
    for name in expected:
        if name in derived:
            metrics[name] = derived[name]
            continue
        layer, _, rest = name.partition(".")
        if rest == "self_s":
            metrics[name] = per_layer_self[layer]
            continue
        fn, _, measure = rest.rpartition(".")
        qualified = f"{layer}.{fn}"
        if measure == "elements" and qualified in elements:
            metrics[name] = elements[qualified]
        elif measure in ("calls", "time_s", "self_s") and fn:
            if qualified not in known and qualified not in notes["absent"]:
                notes["absent"].append(qualified)
            metrics[name] = per_fn[qualified][measure] if qualified in per_fn else 0
    return metrics, notes
