"""Span recorder that wraps mtdirac's public functions from outside.

Nothing here is imported or installed during untraced runs.  `Tracer.install`
replaces each traced function in every `mtdirac.*` namespace that holds it
(modules import each other with `from .x import y`, so patching the defining
module alone would miss most call sites), wraps `Component2D.__call__` and
`Profile1D.__call__` on their classes, and wraps the closures returned by
`boundary_maps`.  `uninstall` puts every original back.

A span is (name, start, end, parent, child seconds, points, extra): points is
the work count of the call (configurations, spinors, rows), extra a second
count where one exists (all-zero field points, excluded pairs).  Self time is
the span's duration minus its children's, where the children include the
tracer's own bookkeeping after a child returned.  The stack is per thread, so
spans opened in worker threads have no parent.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# span name -> (module, attribute); each is patched wherever it is bound
FUNCTIONS = {
    "geometry.classify": ("mtdirac.geometry", "classify"),
    "solver.evaluate_fields": ("mtdirac.solver", "evaluate_fields"),
    "solver.boundary_trace_fields": ("mtdirac.solver", "boundary_trace_fields"),
    "solver.pde_residual": ("mtdirac.solver", "pde_residual"),
    "solver.seam_mismatch": ("mtdirac.solver", "seam_mismatch"),
    "current.tensor_current": ("mtdirac.current", "tensor_current"),
    "current.continuity_residual": ("mtdirac.current", "continuity_residual"),
    "conservation.normalization_report": ("mtdirac.conservation", "normalization_report"),
    "interaction.single_time_slice": ("mtdirac.interaction", "single_time_slice"),
    "interaction.schmidt_spectrum": ("mtdirac.interaction", "schmidt_spectrum"),
    "lorentz.covariance_report": ("mtdirac.lorentz", "covariance_report"),
    "lorentz.current_covariance_defect": ("mtdirac.lorentz", "current_covariance_defect"),
}


def _fields_counts(args, out):
    flat = out.reshape(4, -1)
    return flat.shape[1], int(np.count_nonzero(~flat.any(axis=0)))


# span name -> counts(args, result) -> (points, extra)
COUNTS = {
    "geometry.classify": lambda args, out: (1, 0),
    "solver.evaluate_fields": _fields_counts,
    "solver.boundary_trace_fields": lambda args, out: (out.values[0].size, 0),
    "current.tensor_current": lambda args, out: (np.size(out.j00), 0),
    "conservation.normalization_report": lambda args, out: (0, out.excluded_pairs),
    "interaction.schmidt_spectrum": lambda args, out: (args[0].matrix.shape[0], 0),
    "scenario.component": lambda args, out: (out.size, 0),
    "scenario.boundary_map": lambda args, out: (np.size(out), 0),
    "profiles.eval": lambda args, out: (out.size, 0),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counts = COUNTS.get(name)
        spans = self.spans
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            rec = [name, 0.0, 0.0, parent, 0.0, 0, 0]
            stack.append(rec)
            rec[1] = t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[2] = perf_counter()
                stack.pop()
                spans.append(rec)
                if parent is not None:
                    parent[4] += rec[2] - t0
                raise
            rec[2] = perf_counter()
            stack.pop()
            spans.append(rec)
            if counts is not None:
                rec[5], rec[6] = counts(args, out)
            if parent is not None:
                parent[4] += perf_counter() - t0
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import mtdirac
        from mtdirac.profiles import Profile1D
        from mtdirac.scenario import Component2D

        for info in pkgutil.iter_modules(mtdirac.__path__):
            importlib.import_module(f"mtdirac.{info.name}")
        namespaces = [m for k, m in sys.modules.items() if k.split(".")[0] == "mtdirac"]

        def patch_everywhere(original, wrapper) -> None:
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            patch_everywhere(original, self.wrap(name, original))

        maps_original = sys.modules["mtdirac.scenario"].boundary_maps
        wrap = self.wrap

        def boundary_maps(s):
            maps = maps_original(s)
            return dataclasses.replace(
                maps,
                **{
                    f.name: wrap("scenario.boundary_map", getattr(maps, f.name))
                    for f in dataclasses.fields(maps)
                },
            )

        patch_everywhere(maps_original, boundary_maps)
        self._patch(Component2D, "__call__", self.wrap("scenario.component", Component2D.__call__))
        self._patch(Profile1D, "__call__", self.wrap("profiles.eval", Profile1D.__call__))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def drain(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        out = self.spans[:]
        del self.spans[:]
        return out


def write_spans(spans: list[list], fh, first_id: int = 0) -> int:
    """Write spans as CSV rows id,parent,name,start,end,points,extra."""
    ids = {id(rec): first_id + k for k, rec in enumerate(spans)}
    for k, (name, t0, t1, parent, _, points, extra) in enumerate(spans):
        pid = ids.get(id(parent), -1) if parent is not None else -1
        fh.write(f"{first_id + k},{pid},{name},{t0!r},{t1!r},{points},{extra}\n")
    return first_id + len(spans)


class LayerTotals:
    """Per-name sums over the spans of several command calls."""


    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.points = defaultdict(int)
        self.extra = defaultdict(int)
        self.under_fields = defaultdict(int)  # points inside evaluate_fields spans
        self.conservation_nodes = 0

    def add(self, spans: list[list]) -> None:
        for rec in spans:
            name, t0, t1, parent, child, points, extra = rec
            self.calls[name] += 1
            self.seconds[name] += t1 - t0
            self.self_seconds[name] += t1 - t0 - child
            self.points[name] += points
            self.extra[name] += extra
            ancestors = set()
            p = parent
            while p is not None:
                ancestors.add(p[0])
                p = p[3]
            if "solver.evaluate_fields" in ancestors:
                self.under_fields[name] += points
            if name in ("solver.evaluate_fields", "solver.boundary_trace_fields") and (
                "conservation.normalization_report" in ancestors
            ):
                self.conservation_nodes += points

    def metrics(
        self, ops: int, threads: int, bytes_written: int
    ) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per command call, as name -> (value, unit)."""
        n = max(ops, 1)
        c, s, ss, pts, ex = self.calls, self.seconds, self.self_seconds, self.points, self.extra
        field_pts = pts["solver.evaluate_fields"]

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        m = {
            "cli.self_s": (ss["cli"] / n, "s"),
            "cli.bytes_written": (bytes_written / n, "bytes"),
            "geometry.classify.calls": (c["geometry.classify"] / n, "count"),
            "geometry.classify.s": (s["geometry.classify"] / n, "s"),
            "scenario.component.calls": (c["scenario.component"] / n, "count"),
            "scenario.component.points": (pts["scenario.component"] / n, "count"),
            "scenario.component.s": (s["scenario.component"] / n, "s"),
            "scenario.boundary_map.points": (pts["scenario.boundary_map"] / n, "count"),
            "scenario.boundary_map.s": (s["scenario.boundary_map"] / n, "s"),
            "scenario.evals_per_field_point": (
                ratio(self.under_fields["scenario.component"], field_pts), "ratio"),
            "profiles.eval.calls": (c["profiles.eval"] / n, "count"),
            "profiles.eval.points": (pts["profiles.eval"] / n, "count"),
            "profiles.eval.s": (s["profiles.eval"] / n, "s"),
            "profiles.evals_per_field_point": (
                ratio(self.under_fields["profiles.eval"], field_pts), "ratio"),
            "solver.evaluate_fields.calls": (c["solver.evaluate_fields"] / n, "count"),
            "solver.evaluate_fields.points": (field_pts / n, "count"),
            "solver.evaluate_fields.s": (s["solver.evaluate_fields"] / n, "s"),
            "solver.evaluate_fields.self_s": (ss["solver.evaluate_fields"] / n, "s"),
            "solver.evaluate_fields.points_per_s": (
                ratio(field_pts, s["solver.evaluate_fields"]), "1/s"),
            "solver.zero_share": (ratio(ex["solver.evaluate_fields"], field_pts), "share"),
            "solver.boundary_trace_fields.points": (
                pts["solver.boundary_trace_fields"] / n, "count"),
            "solver.boundary_trace_fields.s": (s["solver.boundary_trace_fields"] / n, "s"),
            "solver.pde_residual.s": (s["solver.pde_residual"] / n, "s"),
            "solver.seam_mismatch.s": (s["solver.seam_mismatch"] / n, "s"),
            "current.tensor_current.calls": (c["current.tensor_current"] / n, "count"),
            "current.tensor_current.spinors": (pts["current.tensor_current"] / n, "count"),
            "current.tensor_current.s": (s["current.tensor_current"] / n, "s"),
            "current.continuity_residual.s": (s["current.continuity_residual"] / n, "s"),
        }
        report = "conservation.normalization_report"
        m.update({
            f"{report}.calls": (c[report] / n, "count"),
            f"{report}.s": (s[report] / n, "s"),
            f"{report}.self_s": (ss[report] / n, "s"),
            "conservation.nodes": (self.conservation_nodes / n, "count"),
            "conservation.nodes_per_s": (ratio(self.conservation_nodes, s[report]), "1/s"),
            "conservation.excluded_pairs": (ex[report] / n, "count"),
            "conservation.threads": (float(threads), "count"),
            "interaction.single_time_slice.s": (s["interaction.single_time_slice"] / n, "s"),
            "interaction.schmidt_spectrum.calls": (c["interaction.schmidt_spectrum"] / n, "count"),
            "interaction.schmidt_spectrum.s": (s["interaction.schmidt_spectrum"] / n, "s"),
            "interaction.schmidt_spectrum.matrix_rows": (
                pts["interaction.schmidt_spectrum"] / n, "count"),
            "lorentz.covariance_report.s": (s["lorentz.covariance_report"] / n, "s"),
            "lorentz.current_covariance_defect.s": (
                s["lorentz.current_covariance_defect"] / n, "s"),
        })
        return m
