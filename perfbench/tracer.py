"""Spans around calls into rangegeom's public functions, installed from outside.

``Tracer.install`` wraps every public function of every ``rangegeom``
submodule (plus ``SensorConfig.distances``) at *each* module attribute bound
to it: the defining module, the package re-exports the scripts call
(``rg.classify_tau``), the copies other modules imported (``tdoa`` looks up
``tdoa_coeffs``, ``p2_membership`` and ``q3_membership`` in its own globals;
``cli`` imported its commands), and loaded script modules.  Lookups made at
call time (``toa3.classify3``'s ``from .kummer import ...``) read the
patched defining module.  ``remove`` puts every original back.

Spans nest on a stack and are kept in flat arrays (name id, parent index,
start, end); self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _label_group(result, args) -> str:
    """classify_tau calls grouped by the returned region."""
    if args and getattr(args[0], "is_collinear", False):
        return "Collinear"
    label = result.label
    if label.startswith("U_"):
        return "U"
    if label in ("EMinus", "OutsideIm"):
        return label
    return "Boundary"


def _empty(result, args) -> str:
    return "empty" if not result.points else "nonempty"


# Spans kept for the span file; aggregates keep counting past it.
MAX_SPANS = 2_000_000

# Result groupings some per-layer metrics need, by span name.
GROUPERS = {
    "tdoa.classify_tau": _label_group,
    "tdoa.invert_tdoa": _empty,
    "toa3.invert3": _empty,
}


def program_modules(package) -> list:
    """The loaded modules whose attributes may hold program functions."""
    prefix = package.__name__ + "."
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(prefix))]
    return mods + [m for m in (sys.modules.get("fiber_census"),) if m is not None]


def targets(package) -> dict:
    """span name -> original function, for every public function of the package."""
    out = {}
    prefix = package.__name__ + "."
    for mod in program_modules(package):
        if not mod.__name__.startswith(prefix):
            continue
        short = mod.__name__[len(prefix):]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                out[f"{short}.{name}"] = obj
    out["config.distances"] = package.config.SensorConfig.distances
    return out


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.stack = []  # [span index, name id, start, child time]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.groups = defaultdict(int)
        self.group_time = defaultdict(float)
        self.top_level = 0.0
        self.coeffs_under_classify = 0
        self.classify_depth = 0
        self.saved = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        grouper = GROUPERS.get(name)
        is_classify = name == "tdoa.classify_tau"
        is_coeffs = name == "tdoa.tdoa_coeffs"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_coeffs and self.classify_depth:
                self.coeffs_under_classify += 1
            if is_classify:
                self.classify_depth += 1
            entry = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if is_classify:
                    self.classify_depth -= 1
                self._close(entry, end)
            if grouper is not None:
                key = f"{name}.{grouper(result, args)}"
                self.groups[key] += 1
                self.group_time[key] += end - entry[2]
            return result

        return wrapper

    def _open(self, nid: int) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        start = time.perf_counter()
        if len(self.span_start) < MAX_SPANS:
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(start)
            self.span_end.append(start)
        else:
            idx = -1
            self.dropped += 1
        entry = [idx, nid, start, 0.0]
        self.stack.append(entry)
        return entry

    def _close(self, entry, end: float) -> None:
        self.stack.pop()
        idx, nid, start, child = entry
        dur = end - start
        name = self.names[nid]
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self.stack:
            self.stack[-1][3] += dur
        else:
            self.top_level += dur
        if idx >= 0:
            self.span_end[idx] = end

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        originals = targets(self.package)
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for mod in program_modules(self.package):
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None and value is w.__wrapped__:
                    self.saved.append((mod, attr, value))
                    setattr(mod, attr, w)
        cls = self.package.config.SensorConfig
        self.saved.append((cls, "distances", cls.__dict__["distances"]))
        cls.distances = wrappers[id(originals["config.distances"])]

    def remove(self) -> None:
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """All spans as arrays: names, name id, parent index, start, end (s)."""
        np.savez(path, names=np.array(self.names), name=np.asarray(self.span_name),
                 parent=np.asarray(self.span_parent), start=np.asarray(self.span_start),
                 end=np.asarray(self.span_end), dropped=np.array(self.dropped))
