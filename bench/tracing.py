"""Span recording around calls into cornerlab, from outside the package.

The tracer replaces public functions where they are looked up (every
module global of the cornerlab package bound to the function) and public
methods on their classes, records one span per call in memory, and puts
everything back on exit.  Spans nest through a per-thread stack; the
benchmark traces single-threaded runs only.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable

from stats import self_times

# Span names; a "<name>_s" metric is the inclusive time of the outermost
# spans of that name, a "<name>_calls" metric their number.
TIMED = (
    "corners.profile",
    "corners.zscan",
    "corners.views",
    "corners.weighted",
    "corners.io",
    "groups.translate_perm",
    "fourier.dft",
    "fourier.convolve",
    "bohr.part_ids",
    "bohr.mask",
    "bohr.verify",
    "regularity.cut_exact",
    "regularity.cut_alt",
    "regularity.bohr_regularize",
    "regularity.weak_regularity",
    "variational.minimize",
    "variational.sweep",
    "variational.box_model",
    "parallel.map",
)
CALLS = (
    "groups.translate_perm",
    "fourier.dft",
    "bohr.part_ids",
    "regularity.cut_exact",
    "regularity.cut_alt",
    "variational.minimize",
)
# metric -> (span name, counter recorded on that span)
COUNTERS = {
    "corners.profile_triples": ("corners.profile", "triples"),
    "fourier.large_spectrum_hits": ("fourier.large_spectrum", "hits"),
    "regularity.bohr_rounds": ("regularity.bohr_regularize", "rounds"),
    "regularity.weak_rounds": ("regularity.weak_regularity", "rounds"),
    "regularity.double_rounds": ("regularity.double_regularity", "rounds"),
    "variational.restarts_run": ("variational.minimize", "restarts"),
}
# metric -> span name whose self time it sums
SELF = {
    "cli.self_s": "cli",
    "variational.pipeline_self_s": "variational.pipeline",
}


def metric_units() -> dict[str, str]:
    units = {f"{n}_s": "s" for n in TIMED}
    units.update({f"{n}_calls": "count" for n in CALLS})
    units.update({m: "count" for m in COUNTERS})
    units.update({m: "s" for m in SELF})
    return units


class Tracer:
    """In-memory span log: name, start, end, parent, op id and counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0  # id of the op in progress; the caller advances it
        self._ids = itertools.count()
        self._local = threading.local()
        self._t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name, note: Callable | None = None) -> Callable:
        """fn with a span around each call; name may be a function of the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {
                "id": next(self._ids),
                "name": name(args, kwargs) if callable(name) else name,
                "parent": stack[-1] if stack else None,
                "op": self.op,
            }
            stack.append(span["id"])
            span["start"] = time.perf_counter() - self._t0
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - self._t0
                stack.pop()
                self.spans.append(span)
            if note is not None:
                span["counts"] = note(args, kwargs, result)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _cut_norm_name(exact_cap: int):
    def name(args, kwargs):
        mode = kwargs.get("mode", args[1] if len(args) > 1 else "auto")
        n = len(_first(args, kwargs, "M"))
        exact = mode == "exact" or (mode == "auto" and n <= exact_cap)
        return "regularity.cut_exact" if exact else "regularity.cut_alt"

    return name


def _rounds(args, kwargs, result):
    return {"rounds": int(result.rounds)}


def _targets():
    """(owner class or None, function or attribute name, span name, note)."""
    from cornerlab import bohr, corners, fourier, groups, parallel, regularity, variational

    exact_cap = getattr(regularity, "_CUT_AUTO_EXACT", 16)
    return [
        (None, corners.corner_count_by_difference, "corners.profile",
         lambda a, k, r: {"triples": int(_first(a, k, "A").group.order) ** 3}),
        (None, corners.integer_corner_scan, "corners.zscan", None),
        (None, corners.hyperplane_views, "corners.views", None),
        (None, corners.weighted_corner_count, "corners.weighted", None),
        (corners.PlaneSet, "random", "corners.io", None),
        (corners.PlaneSet, "load", "corners.io", None),
        (corners.PlaneSet, "save", "corners.io", None),
        (groups.GroupSpec, "translate_permutation", "groups.translate_perm", None),
        (None, fourier.dft, "fourier.dft", None),
        (None, fourier.convolve, "fourier.convolve", None),
        (None, fourier.large_spectrum, "fourier.large_spectrum",
         lambda a, k, r: {"hits": len(r)}),
        (bohr.BohrPartition, "part_ids", "bohr.part_ids", None),
        (bohr.BohrSet, "mask", "bohr.mask", None),
        (None, bohr.verify_translate_containment, "bohr.verify", None),
        (None, bohr.verify_part_absorption, "bohr.verify", None),
        (None, bohr.box_approximation, "bohr.verify", None),
        (None, regularity.cut_norm_witness, _cut_norm_name(exact_cap), None),
        (None, regularity.bohr_regularize, "regularity.bohr_regularize", _rounds),
        (None, regularity.weak_regularity, "regularity.weak_regularity", _rounds),
        (None, regularity.double_regularity, "regularity.double_regularity", _rounds),
        (None, variational.minimize_T, "variational.minimize",
         lambda a, k, r: {"restarts": len(r.restart_values)}),
        (None, variational.sweep_and_envelope, "variational.sweep", None),
        (None, variational.T_of_box, "variational.box_model", None),
        (None, variational.evaluate_T, "variational.box_model", None),
        (None, variational.pipeline_lower_bound, "variational.pipeline", None),
        (None, parallel.deterministic_map, "parallel.map", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Route the traced names through the tracer; restore them on exit."""
    restore: list[tuple[object, str, object]] = []
    modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "cornerlab"]
    try:
        for owner, target, name, note in _targets():
            if owner is None:
                wrapped = tracer.wrap(target, name, note)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is target:
                            restore.append((module, key, value))
                            setattr(module, key, wrapped)
            else:
                raw = owner.__dict__[target]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(tracer.wrap(raw.__func__, name, note))
                else:
                    wrapped = tracer.wrap(raw, name, note)
                restore.append((owner, target, raw))
                setattr(owner, target, wrapped)
        yield tracer
    finally:
        for owner, key, value in reversed(restore):
            setattr(owner, key, value)


def _outermost(spans: list[dict], by_id: dict[int, dict], name: str) -> list[dict]:
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] != name:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans: list[dict], rounds: int) -> dict[str, float]:
    """Per-layer totals from the spans, averaged over `rounds` traced rounds."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}_s"] = sum(s["end"] - s["start"] for s in _outermost(spans, by_id, name))
    for name in CALLS:
        out[f"{name}_calls"] = sum(1 for s in spans if s["name"] == name)
    for metric, (name, key) in COUNTERS.items():
        out[metric] = sum(s.get("counts", {}).get(key, 0) for s in spans if s["name"] == name)
    for metric, name in SELF.items():
        out[metric] = sum(selfs[s["id"]] for s in spans if s["name"] == name)
    return {k: (v // rounds if isinstance(v, int) and v % rounds == 0 else v / rounds)
            for k, v in out.items()}


def self_time_table(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name; where the time went."""
    selfs = self_times(spans)
    table: dict[str, float] = {}
    for s in spans:
        table[s["name"]] = table.get(s["name"], 0.0) + selfs[s["id"]]
    return dict(sorted(table.items(), key=lambda kv: -kv[1]))
