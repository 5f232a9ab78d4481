"""Spans around calls into the library's public functions, from outside it.

``Tracer.install`` replaces each traced function at the name its callers
look it up by, and ``uninstall`` puts the originals back.  ``stability``
binds ``includes`` and ``minkowski_combine`` by ``from .polytope import``,
so those are wrapped in ``stability``'s namespace; ``lp.solve`` is looked up
through the module, so one wrapper also sees the inner solves of
``solve_min_l1``.  Private helpers are not wrapped.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, op, attrs]``
and written out once, after the run.  ``numeric.slope_along`` runs hundreds
of thousands of times per run, so it is counted per parent span (calls and
nanoseconds) instead of getting a span per call.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _result_bits(result) -> int:
    values = [result.value] if result.value is not None else []
    values += list(result.point or ()) + list(result.ray or ())
    return max((_bits(x) for x in values), default=0)


def _lp_attrs(args, result):
    prog = args[0]
    return {"cells": len(prog.constraints) * prog.num_vars, "bits": _result_bits(result)}


def _min_l1_attrs(args, result):
    return {"bits": _result_bits(result)}


def _hull_attrs(args, result):
    return {"points": len(args[0]), "vertices": len(result)}


def _minkowski_attrs(args, result):
    return {"points": len(args[0].vertices) * len(args[1].vertices)}


def _grid_attrs(args, result):
    return {"rows": len(result)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[tuple[int, str], list[int]] = {}
        self.stack: list[int] = []
        self.op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter_ns()
        return rec

    def _close(self, rec: list):
        rec[END] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attrs is not None:
                rec[ATTRS] = attrs(args, result)
            return result
        return traced

    def count(self, name: str, fn):
        def counted(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                key = (self.stack[-1] if self.stack else -1, name)
                agg = self.leaves.get(key)
                if agg is None:
                    self.leaves[key] = [1, dt]
                else:
                    agg[0] += 1
                    agg[1] += dt
        return counted

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark operation inside an ``op`` span."""
        self.op = op_id
        rec = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(rec)
            self.op = -1

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        import workloads
        from stablepairs import cli, lp, numeric, oracle, polytope, stability

        rp = polytope.RationalPolytope
        for owner, attr, name, attrs in (
            (lp, "solve", "lp.solve", _lp_attrs),
            (lp, "solve_min_l1", "lp.solve_min_l1", _min_l1_attrs),
            (polytope, "hull_vertices", "polytope.hull", _hull_attrs),
            (rp, "contains_point", "polytope.contains", None),
            (rp, "scaled", "polytope.scaled", None),
            (stability, "minkowski_combine", "polytope.minkowski", _minkowski_attrs),
            (stability, "includes", "polytope.includes", None),
            (stability, "is_semistable", "stability.is_semistable", None),
            (stability, "verdict", "stability.verdict", None),
            (workloads, "build_family", "stability.construct", None),
            (oracle, "brute_stable", "oracle.brute_stable", None),
            (oracle, "enumerate_directions", "oracle.grid", _grid_attrs),
            (cli, "find_degeneration", "degeneration.find", None),
            (cli, "load_instance", "cli.parse", None),
        ):
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), attrs))
        self._patch(numeric, "slope_along", self.count("numeric.slope", numeric.slope_along))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
            for (parent, name), (calls, ns) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "parent": parent, "calls": calls,
                                     "ns": ns}, separators=(",", ":")) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer totals over the traced ops; see README.md for each."""
        spans = self.spans
        n = len(spans)
        dur = [rec[END] - rec[START] for rec in spans]
        children = [0] * n
        for i, rec in enumerate(spans):
            if rec[PARENT] >= 0:
                children[rec[PARENT]] += dur[i]
        for (parent, _), (_, ns) in self.leaves.items():
            if parent >= 0:
                children[parent] += ns
        # Parents are recorded before their children.
        in_verdict = [False] * n
        for i, rec in enumerate(spans):
            p = rec[PARENT]
            in_verdict[i] = p >= 0 and (spans[p][NAME] == "stability.verdict" or in_verdict[p])

        calls: dict[str, int] = {}
        total: dict[str, int] = {}
        own: dict[str, int] = {}
        attr_sum: dict[str, int] = {}
        max_bits = 0
        semi_in_verdict = min_m_ns = probes = lp_in_verdict = directions = 0
        for i, rec in enumerate(spans):
            name = rec[NAME]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + dur[i]
            own[name] = own.get(name, 0) + dur[i] - children[i]
            attrs = rec[ATTRS]
            if attrs:
                for key, value in attrs.items():
                    if key == "bits":
                        max_bits = max(max_bits, value)
                    else:
                        attr_sum[f"{name}.{key}"] = attr_sum.get(f"{name}.{key}", 0) + value
            if in_verdict[i]:
                if name == "stability.is_semistable":
                    semi_in_verdict += dur[i]
                elif name in ("polytope.minkowski", "polytope.includes"):
                    min_m_ns += dur[i]
                    probes += name == "polytope.minkowski"
                elif name == "lp.solve":
                    lp_in_verdict += 1
            if name == "oracle.grid" and rec[PARENT] >= 0 and \
                    spans[rec[PARENT]][NAME] == "oracle.brute_stable":
                directions += attrs["rows"]
        slope_calls = sum(c for c, _ in self.leaves.values())
        slope_ns = sum(ns for _, ns in self.leaves.values())

        def ms(ns: int) -> float:
            return ns / 1e6

        def per_call_us(ns: int, count: int) -> float:
            return ns / 1e3 / count if count else 0.0

        hull_points = attr_sum.get("polytope.hull.points", 0)
        return {
            "lp.solve.calls": calls.get("lp.solve", 0),
            "lp.solve.self_ms": ms(own.get("lp.solve", 0)),
            "lp.solve.us_per_call": per_call_us(total.get("lp.solve", 0), calls.get("lp.solve", 0)),
            "lp.solve.cells": attr_sum.get("lp.solve.cells", 0),
            "lp.solve_min_l1.calls": calls.get("lp.solve_min_l1", 0),
            "lp.solve_min_l1.self_ms": ms(own.get("lp.solve_min_l1", 0)),
            "lp.result.max_bits": max_bits,
            "polytope.hull.calls": calls.get("polytope.hull", 0),
            "polytope.hull.points": hull_points,
            "polytope.hull.vertex_ratio": (attr_sum.get("polytope.hull.vertices", 0) / hull_points
                                           if hull_points else 0.0),
            "polytope.hull.self_ms": ms(own.get("polytope.hull", 0)),
            "polytope.contains.calls": calls.get("polytope.contains", 0),
            "polytope.contains.self_ms": ms(own.get("polytope.contains", 0)),
            "polytope.minkowski.calls": calls.get("polytope.minkowski", 0),
            "polytope.minkowski.points": attr_sum.get("polytope.minkowski.points", 0),
            "polytope.scaled.calls": calls.get("polytope.scaled", 0),
            "stability.construct_ms": ms(total.get("stability.construct", 0)),
            "stability.semistable_ms": ms(total.get("stability.is_semistable", 0)),
            "stability.stable_ms": ms(total.get("stability.verdict", 0) - semi_in_verdict - min_m_ns),
            "stability.min_m_ms": ms(min_m_ns),
            "stability.min_m.probes": probes,
            "stability.lp_per_op": lp_in_verdict / ops if ops else 0.0,
            "degeneration.find.calls": calls.get("degeneration.find", 0),
            "degeneration.find_ms": ms(total.get("degeneration.find", 0)),
            "numeric.slope.calls": slope_calls,
            "numeric.slope_ms": ms(slope_ns),
            "numeric.slope.us_per_call": per_call_us(slope_ns, slope_calls),
            "oracle.directions": directions,
            "oracle.grid_ms": ms(total.get("oracle.grid", 0)),
            "oracle.brute_ms": ms(own.get("oracle.brute_stable", 0)),
            "cli.parse_ms": (ms(total.get("cli.parse", 0)) / calls["cli.parse"]
                             if calls.get("cli.parse") else 0.0),
        }
