"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the public functions of each layer at every site
that calls them (modules import by name, so each importing module gets the
wrapper too) and ``Tracer.uninstall`` puts the originals back.  A wrapper
records a span (name, start, end, parent) and the counts taken at the same
boundary.  Self time is a span's duration minus the time its direct child
spans cover.  ``coeffs`` gets no wrapper: it is called once per scalar, so a
wrapper there would mostly time itself; its time shows in its callers.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# span name -> the (module, attribute) sites that call a function under that
# attribute name; among the sites of one attribute, the first holds the
# original.
SPAN_SITES = {
    "lp": [("lp", "feasible_point"), ("newton", "feasible_point"),
           ("grading", "feasible_point")],
    "newton": [("newton", "build_from_support")],
    "poly.mul": [("poly", "SparsePoly.mul")],
    "weier.normalize": [("weier", "weierstrass_normalize")],
    "weier.divide": [("weier", "poly_divide")],
    "weier.padic": [("weier", "padic_newton_factor")],
    "lift.restriction": [("lift", "edge_restriction"), ("weier", "edge_restriction")],
    "lift.solve_cofactor": [("lift", "solve_cofactor"), ("weier", "solve_cofactor")],
    "lift.lift": [("lift", "lift_factorization"), ("weier", "lift_monic")],
    "grading.basis": [("grading", "orthogonal_basis"), ("cli", "orthogonal_basis"),
                      ("lift", "orthogonal_basis"), ("weier", "orthogonal_basis")],
    "grading.slice": [("grading", "WeightSystem.slice")],
    "linalg.solve_integer": [("linalg", "solve_integer"), ("grading", "solve_integer")],
    "linalg.solve_field": [("linalg", "solve_field"), ("lift", "solve_field")],
    "unifactor.factor": [("unifactor", "factor_univariate"), ("lift", "factor_univariate")],
    "unifactor.pmul": [("unifactor", "pmul"), ("weier", "pmul")],
    "expr.parse": [("expr", "parse")],
    "expr.render": [("expr", "render")],
}
# Counted but not timed: one call per simplex pivot.
COUNT_SITES = {"lp.pivots": ("lp", "_pivot")}

PER_LAYER = (
    ("lp.calls", "count"), ("lp.pivots", "count"), ("lp.feasible_frac", "ratio"),
    ("lp.self_s", "s"),
    ("newton.builds", "count"), ("newton.support_pts", "count"),
    ("newton.vertex_yield", "ratio"), ("newton.edge_yield", "ratio"), ("newton.self_s", "s"),
    ("poly.mul.calls", "count"), ("poly.mul.term_pairs", "count"),
    ("poly.mul.kept_frac", "ratio"), ("poly.mul.self_s", "s"),
    ("weier.normalize.self_s", "s"), ("weier.divide.self_s", "s"), ("weier.padic.self_s", "s"),
    ("lift.restriction.calls", "count"), ("lift.restriction.self_s", "s"),
    ("lift.solve_cofactor.calls", "count"), ("lift.solve_cofactor.unsolvable", "count"),
    ("lift.solve_cofactor.self_s", "s"), ("lift.lift.self_s", "s"), ("lift.steps", "count"),
    ("grading.basis.calls", "count"), ("grading.slice.calls", "count"),
    ("grading.slice.reuse_frac", "ratio"), ("grading.slice.self_s", "s"),
    ("linalg.solve_integer.calls", "count"), ("linalg.solve_integer.self_s", "s"),
    ("linalg.solve_field.calls", "count"), ("linalg.solve_field.cells", "count"),
    ("linalg.solve_field.self_s", "s"),
    ("unifactor.factor.calls", "count"), ("unifactor.factor.self_s", "s"),
    ("unifactor.pmul.calls", "count"), ("unifactor.pmul.self_s", "s"),
    ("expr.parse.self_s", "s"), ("expr.render.self_s", "s"), ("expr.render.chars", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead", "ratio"),
)
# Counts that depend only on the inputs; two traced runs of one seed must
# agree on them exactly.
EXACT_COUNTS = ("lp.calls", "lp.pivots", "poly.mul.term_pairs", "grading.slice.calls",
                "lift.solve_cofactor.unsolvable", "lift.steps")


def _resolve(module, attr):
    mod = importlib.import_module(f"edgelift.{module}")
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(mod, owner_name) if owner_name else mod
    return owner, name


class Tracer:
    """Spans and counts for one traced pass."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index)
        self.stack = []
        self.counts = Counter()
        self.slice_keys = set()
        self._saved = []

    # -- wrappers -----------------------------------------------------------

    def _record(self, name, fn, *args, **kwargs):
        """Run fn inside a span and return its result."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrapper(self, name, fn):
        counts = self.counts
        record = self._record
        if name == "lp":
            def wrapped(*args, **kwargs):
                result = record(name, fn, *args, **kwargs)
                counts["lp.calls"] += 1
                counts["lp.feasible"] += result is not None
                return result
        elif name == "newton":
            def wrapped(*args, **kwargs):
                result = record(name, fn, *args, **kwargs)
                nv = len(result.vertices)
                counts["newton.builds"] += 1
                counts["newton.support_pts"] += len(set(map(tuple, args[0])))
                counts["newton.vertices"] += nv
                counts["newton.pairs"] += nv * (nv - 1) // 2
                counts["newton.edges"] += len(result.edges)
                return result
        elif name == "poly.mul":
            def wrapped(self_, other, *args, **kwargs):
                counts["poly.mul.calls"] += 1
                counts["poly.mul.term_pairs"] += len(self_.terms) * len(other.terms)
                result = record(name, fn, self_, other, *args, **kwargs)
                counts["poly.mul.kept"] += len(result.terms)
                return result
        elif name == "grading.slice":
            slice_keys = self.slice_keys

            def wrapped(self_, w, *args, **kwargs):
                counts["grading.slice.calls"] += 1
                slice_keys.add((self_.basis, tuple(w)))
                return record(name, fn, self_, w, *args, **kwargs)
        elif name == "lift.solve_cofactor":
            unsolvable = importlib.import_module("edgelift.lift").Unsolvable

            def wrapped(*args, **kwargs):
                counts["lift.solve_cofactor.calls"] += 1
                try:
                    return record(name, fn, *args, **kwargs)
                except unsolvable:
                    counts["lift.solve_cofactor.unsolvable"] += 1
                    raise
        elif name == "linalg.solve_field":
            def wrapped(ring, rows, *args, **kwargs):
                counts["linalg.solve_field.calls"] += 1
                counts["linalg.solve_field.cells"] += len(rows) * (len(rows[0]) if rows else 0)
                return record(name, fn, ring, rows, *args, **kwargs)
        elif name == "expr.render":
            def wrapped(*args, **kwargs):
                result = record(name, fn, *args, **kwargs)
                counts["expr.render.chars"] += len(result)
                return result
        else:
            calls = f"{name}.calls"

            def wrapped(*args, **kwargs):
                counts[calls] += 1
                return record(name, fn, *args, **kwargs)
        return wrapped

    def _counter(self, name, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    # -- install / uninstall --------------------------------------------------

    def _patch(self, sites, make):
        owner, attr = _resolve(*sites[0])
        original = owner.__dict__[attr]
        wrapped = make(original)
        for site in sites:
            owner, attr = _resolve(*site)
            if owner.__dict__.get(attr) is not original:
                raise RuntimeError(f"{site} does not hold the function of {sites[0]}")
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def install(self):
        for name, sites in SPAN_SITES.items():
            by_attr = {}
            for site in sites:
                by_attr.setdefault(site[1], []).append(site)
            for group in by_attr.values():
                self._patch(group, lambda fn, name=name: self._wrapper(name, fn))
        for name, site in COUNT_SITES.items():
            self._patch([site], lambda fn, name=name: self._counter(name, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def request(self, main, argv):
        """Run one CLI request as the root span ``cli``."""
        return self._record("cli", main, argv)

    # -- results ----------------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, parent), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def metrics(self, lift_steps, overhead):
        """Per-layer metric values (see PER_LAYER for names and units)."""
        c = self.counts
        selfs = self.self_times()

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "lp.calls": c["lp.calls"], "lp.pivots": c["lp.pivots"],
            "lp.feasible_frac": ratio(c["lp.feasible"], c["lp.calls"]),
            "newton.builds": c["newton.builds"], "newton.support_pts": c["newton.support_pts"],
            "newton.vertex_yield": ratio(c["newton.vertices"], c["newton.support_pts"]),
            "newton.edge_yield": ratio(c["newton.edges"], c["newton.pairs"]),
            "poly.mul.calls": c["poly.mul.calls"], "poly.mul.term_pairs": c["poly.mul.term_pairs"],
            "poly.mul.kept_frac": ratio(c["poly.mul.kept"], c["poly.mul.term_pairs"]),
            "lift.restriction.calls": c["lift.restriction.calls"],
            "lift.solve_cofactor.calls": c["lift.solve_cofactor.calls"],
            "lift.solve_cofactor.unsolvable": c["lift.solve_cofactor.unsolvable"],
            "lift.steps": lift_steps,
            "grading.basis.calls": c["grading.basis.calls"],
            "grading.slice.calls": c["grading.slice.calls"],
            "grading.slice.reuse_frac": 1 - ratio(len(self.slice_keys), c["grading.slice.calls"])
            if c["grading.slice.calls"] else 0.0,
            "linalg.solve_integer.calls": c["linalg.solve_integer.calls"],
            "linalg.solve_field.calls": c["linalg.solve_field.calls"],
            "linalg.solve_field.cells": c["linalg.solve_field.cells"],
            "unifactor.factor.calls": c["unifactor.factor.calls"],
            "unifactor.pmul.calls": c["unifactor.pmul.calls"],
            "expr.render.chars": c["expr.render.chars"],
            "trace.overhead": overhead,
        }
        for metric, _unit in PER_LAYER:
            if metric.endswith(".self_s"):
                values[metric] = selfs[metric[:-len(".self_s")]]
        return values
