"""Spans and counters around the package's public functions.

``Tracer.install`` wraps each public function named in ``SPANS`` in every
``torusforms`` module namespace that holds it, and swaps the ``np`` name of
those modules for a copy of numpy whose ``fft`` transforms are wrapped, so
every transform the package makes is counted with its points.  Spans are
kept in memory (name, start, end, parent, operation id) and written out
when the run ends; ``restore`` puts every original object back.

A span is recorded only while ``Tracer.op`` is not None: -1 marks set-up,
a round index marks the timed operations, and None (the default) leaves
the benchmark's own checks out of the trace.
"""

from __future__ import annotations

import os
import sys
import time
import types
from collections import defaultdict

import numpy

# (span name, public name in the torusforms package).  Names follow the
# layer that owns the work, so lp_norm (defined in spectral) reports under
# norms.
SPANS = (
    ("spectral.to_physical", "to_physical"),
    ("spectral.resample", "resample"),
    ("spectral.random_form", "random_form"),
    ("norms.lp_norm", "lp_norm"),
    ("norms.gagliardo_nirenberg_check", "gagliardo_nirenberg_check"),
    ("nonlinear.nonlinear_term", "nonlinear_term"),
    ("nonlinear.bilinear_term", "bilinear_term"),
    ("hodge.helmholtz_project", "helmholtz_project"),
    ("hodge.recover_pressure", "recover_pressure"),
    ("solver.project_state", "project_state"),
    ("solver.solve_nonlinear", "solve_nonlinear"),
    ("solver.save_solution", "save_solution"),
    ("solver.load_solution", "load_solution"),
    ("solver.build_basis", "build_basis"),
    ("solver.assemble_linearized", "assemble_linearized"),
    ("solver.apply_inverse", "apply_inverse"),
    ("solver.newton_local_inverse", "newton_local_inverse"),
)

FFT_SPAN = "spectral.fft"
FFT_TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                  "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
FFT_POINTS = "spectral.fft.points"
SNAPSHOT_BYTES = "spectral.snapshot.bytes"
NEWTON_ITERATIONS = "solver.newton.iterations"


def package_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "torusforms" or name.startswith("torusforms."))]


class Patches:
    """Replacements of module or class attributes that can be undone."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement) -> int:
        """Replace ``original`` in every package namespace holding it."""
        hits = 0
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)
                    hits += 1
        return hits

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(starts, ends, parents) -> list[int]:
    """Span duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[i], ends[i]))
    out = []
    for i in range(len(starts)):
        covered, reach = 0, starts[i]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, ends[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(ends[i] - starts[i] - covered)
    return out


class Tracer:
    def __init__(self):
        self.op: int | None = None
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches = Patches()

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float) -> None:
        if self.op is not None and self.op >= 0:
            self.counts[name] += amount

    def wrap(self, name: str, fn, after=None):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.ends.append(0)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def record(self, name: str, start: int, end: int, parent: int = -1, op: int = 0) -> int:
        """Append a finished span; used to build synthetic traces."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.ops.append(op)
        return len(self.names) - 1

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        import torusforms

        for span, public in SPANS:
            original = getattr(torusforms, public, None)
            if original is None:
                continue
            after = None
            if public == "newton_local_inverse":
                after = lambda args, res: self.count(NEWTON_ITERATIONS, res.iterations)
            self._patches.everywhere(original, self.wrap(span, original, after))
        self._wrap_from_physical(torusforms.FormField)
        for public in ("save_field", "load_field"):
            original = getattr(torusforms, public)
            self._patches.everywhere(original, self._snapshot_counter(original))
        proxy = self._numpy_proxy()
        for mod in package_modules():
            if vars(mod).get("np") is numpy:
                self._patches.set(mod, "np", proxy)

    def restore(self) -> None:
        self._patches.undo()

    def _wrap_from_physical(self, cls) -> None:
        # FormField.from_physical is the constructor every forward transform
        # of the package goes through, and the module-level from_physical
        # calls it, so one wrap covers both.
        raw = cls.__dict__["from_physical"]
        kind = type(raw)
        if kind in (staticmethod, classmethod):
            self._patches.set(cls, "from_physical",
                              kind(self.wrap("spectral.from_physical", raw.__func__)))

    def _snapshot_counter(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            path = args[1] if fn.__name__ == "save_field" else args[0]
            self.count(SNAPSHOT_BYTES, os.path.getsize(path))
            return result

        counted.__wrapped__ = fn
        return counted

    def _numpy_proxy(self) -> types.ModuleType:
        fft = types.ModuleType("numpy.fft")
        fft.__dict__.update(vars(numpy.fft))

        def points(args, out):
            # The real-space size: the input of a forward transform, the
            # output of an inverse one.
            self.count(FFT_POINTS, max(numpy.size(args[0]), out.size))

        for name in FFT_TRANSFORMS:
            setattr(fft, name, self.wrap(FFT_SPAN, getattr(numpy.fft, name), points))
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update(vars(numpy))
        proxy.fft = fft
        return proxy

    # -- reduction -------------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation totals of the spans recorded during operations."""
        own = self_times(self.starts, self.ends, self.parents)
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        setup_ns: dict[str, int] = defaultdict(int)
        setup_calls: dict[str, int] = defaultdict(int)
        fft_under_nonlinear = 0
        for i, name in enumerate(self.names):
            if self.ops[i] < 0:
                setup_ns[name] += self.ends[i] - self.starts[i]
                setup_calls[name] += 1
                continue
            calls[name] += 1
            self_ns[name] += own[i]
            total_ns[name] += self.ends[i] - self.starts[i]
            if name == FFT_SPAN and self._has_ancestor(i, "nonlinear.nonlinear_term"):
                fft_under_nonlinear += 1

        def per_op(x):
            return x / ops

        out = {
            f"{FFT_SPAN}.calls_per_op": per_op(calls[FFT_SPAN]),
            f"{FFT_SPAN}.points_per_op": per_op(self.counts[FFT_POINTS]),
            f"{FFT_SPAN}.ms_per_op": per_op(total_ns[FFT_SPAN]) / 1e6,
            "nonlinear.fft_calls_per_eval": (
                fft_under_nonlinear / calls["nonlinear.nonlinear_term"]
                if calls["nonlinear.nonlinear_term"] else 0.0),
            "spectral.snapshot.bytes_per_op": per_op(self.counts[SNAPSHOT_BYTES]),
            "solver.newton.iterations_per_op": per_op(self.counts[NEWTON_ITERATIONS]),
            "solver.build_basis.ms": (
                setup_ns["solver.build_basis"] / setup_calls["solver.build_basis"] / 1e6
                if setup_calls["solver.build_basis"] else 0.0),
        }
        for span in ["spectral.from_physical"] + [s for s, _ in SPANS]:
            out[f"{span}.calls_per_op"] = per_op(calls[span])
            out[f"{span}.self_ms_per_op"] = per_op(self_ns[span]) / 1e6
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.parents[i]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def write(self, path) -> None:
        """One tab-separated line per span: op, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("op\tname\tstart_ns\tend_ns\tparent\n")
            for row in zip(self.ops, self.names, self.starts, self.ends, self.parents):
                fh.write("\t".join(map(str, row)) + "\n")
