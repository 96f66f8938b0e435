"""Traced run: spans and counters recorded around calls into each layer.

Wrappers are installed from outside the library.  A module-level function is
replaced on every module of the package that binds it (modules import each
other's functions with ``from .x import f``), and a method is replaced on its
class.  Nothing under ``src/`` is edited; ``uninstall`` puts every original
back.

Two kinds of wrapper exist:

* span: records (name, start, end, parent) and keeps it in memory; the spans
  are written out at the end of the run;
* count: increments a counter only.  Used for per-number and per-product
  arithmetic, which is called far too often to keep a span per call; its
  time is part of the self time of the enclosing span.

Self time of a span is its duration minus the durations of its direct
children (the run is single-threaded, so children nest inside the parent).
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "gradedseries"
MODULES = ("algebras", "cli", "cyclofield", "cyclotomic", "exact", "groups",
           "hilbert", "reports", "scenario")

# (module, attribute path, mode); an attribute path with a dot is a method.
WRAPPED = (
    ("cli", "main", "span"),
    ("scenario", "parse_scenario", "span"),
    ("scenario", "parse_series_literal", "span"),
    ("scenario", "run_scenario", "span"),
    ("scenario", "_Runner.run_closure", "span"),
    ("scenario", "_Runner.run_subgroups", "span"),
    ("scenario", "_Runner.run_molien", "span"),
    ("scenario", "_Runner.run_classify", "span"),
    ("scenario", "_Runner.run_veronese", "span"),
    ("scenario", "_Runner.run_trace", "span"),
    ("scenario", "_Runner.run_betti", "span"),
    ("scenario", "_Runner.run_cyc", "span"),
    ("reports", "classify_series", "span"),
    ("reports", "classify_group", "span"),
    ("groups", "closure", "span"),
    ("groups", "subgroups", "span"),
    ("groups", "assign_charpoly_traces", "span"),
    ("groups", "reciprocal_charpoly_trace", "span"),
    ("groups", "molien", "span"),
    ("groups", "generated_by_quasi_bireflections", "span"),
    ("groups", "classify_pole", "span"),
    ("groups", "hdet", "span"),
    ("groups", "MatrixGroup.multiplication_table", "span"),
    ("groups", "MatrixGroup.subset_closure", "count"),
    ("cyclofield", "CyclotomicMatrix.__mul__", "span"),
    ("cyclofield", "CyclotomicMatrix.inverse", "span"),
    ("cyclofield", "CyclotomicMatrix.reciprocal_charpoly", "span"),
    ("cyclofield", "FieldFraction.__add__", "span"),
    ("cyclofield", "FieldFraction.__radd__", "span"),
    ("cyclofield", "FieldFraction.__mul__", "span"),
    ("cyclofield", "FieldFraction.to_rational_function", "span"),
    ("cyclofield", "FieldFraction.pole_order_at_one", "span"),
    ("cyclofield", "CyclotomicNumber.__mul__", "count"),
    ("cyclofield", "CyclotomicNumber.__rmul__", "count"),
    ("cyclofield", "CyclotomicNumber.inverse", "count"),
    ("cyclotomic", "is_cyclotomic", "span"),
    ("cyclotomic", "cyc_number", "span"),
    ("cyclotomic", "gorenstein_symmetry", "span"),
    ("hilbert", "veronese_section", "span"),
    ("algebras", "build_truncation", "span"),
    ("algebras", "brute_force_trace", "span"),
    ("algebras", "betti_numbers", "span"),
    ("algebras", "euler_check", "span"),
    ("algebras", "Truncation.mul", "count"),
    ("exact", "reconstruct", "span"),
    ("exact", "normalize", "span"),
    ("exact", "expand", "span"),
    ("exact", "poly_gcd", "count"),
)

JOB = "bench.job"

# Inclusive time of the spans a task kind starts from: the scenario runner's
# task methods, and the library calls the invariants and resolutions jobs
# make directly.
TASK_SPANS = {
    "scenario._Runner.run_trace": "trace",
    "scenario._Runner.run_closure": "closure",
    "scenario._Runner.run_subgroups": "subgroups",
    "scenario._Runner.run_molien": "molien",
    "scenario._Runner.run_classify": "classify",
    "scenario._Runner.run_veronese": "veronese",
    "scenario._Runner.run_betti": "betti",
    "scenario._Runner.run_cyc": "cyc",
    "groups.closure": "closure",
    "groups.subgroups": "subgroups",
    "groups.assign_charpoly_traces": "charpoly",
    "groups.molien": "molien",
    "reports.classify_group": "classify",
    "algebras.build_truncation": "truncation",
    "algebras.betti_numbers": "betti",
    "algebras.euler_check": "euler",
}
TASK_KINDS = tuple(dict.fromkeys(TASK_SPANS.values()))

LAYERS = ("bench",) + MODULES

# Per-layer metric -> (unit, end-to-end metric it should move, workload).
PER_LAYER = {
    "algebras.brute_force_trace_s": ("s", "jobs_per_s_vs_ref", "scenarios"),
    "algebras.brute_force_trace_calls": ("count", "jobs_per_s_vs_ref", "scenarios"),
    "algebras.truncation_mul_calls": ("count", "jobs_per_s_vs_ref", "scenarios"),
    "algebras.build_truncation_s": ("s", "jobs_per_s_vs_ref", "scenarios"),
    "algebras.build_truncation_calls": ("count", "jobs_per_s_vs_ref", "scenarios"),
    "algebras.truncation_reuse_ratio": ("ratio", "jobs_per_s_vs_ref", "scenarios"),
    "exact.reconstruct_s": ("s", "jobs_per_s_vs_ref", "scenarios"),
    "exact.reconstruct_calls": ("count", "jobs_per_s_vs_ref", "scenarios"),
    "groups.closure_s": ("s", "jobs_per_s_vs_ref", "invariants"),
    "groups.closure_elements": ("count", "jobs_per_s_vs_ref", "invariants"),
    "groups.subgroups_s": ("s", "job_s_tail_vs_ref", "invariants"),
    "groups.subset_closure_calls": ("count", "job_s_tail_vs_ref", "invariants"),
    "groups.subgroup_yield": ("ratio", "job_s_tail_vs_ref", "invariants"),
    "groups.charpoly_traces_s": ("s", "jobs_per_s_vs_ref", "invariants"),
    "groups.molien_s": ("s", "jobs_per_s_vs_ref", "invariants"),
    "groups.molien_calls": ("count", "jobs_per_s_vs_ref", "invariants"),
    "groups.molien_useful_ratio": ("ratio", "jobs_per_s_vs_ref", "invariants"),
    "groups.distinct_trace_ratio": ("ratio", "jobs_per_s_vs_ref", "invariants"),
    "cyclofield.charpoly_s": ("s", "jobs_per_s_vs_ref", "invariants"),
    "cyclofield.matmul_calls": ("count", "jobs_per_s_vs_ref", "invariants"),
    "cyclofield.number_mul_calls": ("count", "jobs_per_s_vs_ref", "invariants"),
    "cyclofield.number_inverse_calls": ("count", "jobs_per_s_vs_ref", "invariants"),
    "cyclotomic.classify_s": ("s", "jobs_per_s_vs_ref", "invariants"),
    "reports.classify_s": ("s", "job_s_tail_vs_ref", "invariants"),
    "algebras.betti_s": ("s", "jobs_per_s_vs_ref", "resolutions"),
    "algebras.euler_check_s": ("s", "jobs_per_s_vs_ref", "resolutions"),
    "exact.normalize_calls": ("count", "jobs_per_s_vs_ref", "all"),
    "exact.poly_gcd_calls": ("count", "jobs_per_s_vs_ref", "all"),
    "hilbert.veronese_s": ("s", "jobs_per_s_vs_ref", "scenarios"),
    "scenario.parse_s": ("s", "flat", "all"),
    "scenario.run_self_s": ("s", "flat", "all"),
    "cli.self_s": ("s", "flat", "all"),
}
PER_LAYER.update({
    "bench.self_s": ("s", "flat", "all"),
    "algebras.self_s": ("s", "jobs_per_s_vs_ref", "scenarios, resolutions"),
    "cyclofield.self_s": ("s", "jobs_per_s_vs_ref", "invariants"),
    "cyclotomic.self_s": ("s", "jobs_per_s_vs_ref", "invariants"),
    "exact.self_s": ("s", "jobs_per_s_vs_ref", "all"),
    "groups.self_s": ("s", "job_s_tail_vs_ref", "invariants"),
    "hilbert.self_s": ("s", "jobs_per_s_vs_ref", "scenarios"),
    "reports.self_s": ("s", "flat", "all"),
    "scenario.self_s": ("s", "flat", "all"),
    "task.trace_s": ("s", "jobs_per_s_vs_ref", "scenarios"),
    "task.closure_s": ("s", "jobs_per_s_vs_ref", "invariants"),
    "task.subgroups_s": ("s", "job_s_tail_vs_ref", "invariants"),
    "task.charpoly_s": ("s", "jobs_per_s_vs_ref", "invariants"),
    "task.molien_s": ("s", "jobs_per_s_vs_ref", "scenarios, invariants"),
    "task.classify_s": ("s", "jobs_per_s_vs_ref", "scenarios, invariants"),
    "task.veronese_s": ("s", "jobs_per_s_vs_ref", "scenarios"),
    "task.betti_s": ("s", "jobs_per_s_vs_ref", "resolutions"),
    "task.cyc_s": ("s", "jobs_per_s_vs_ref", "scenarios"),
    "task.truncation_s": ("s", "jobs_per_s_vs_ref", "resolutions"),
    "task.euler_s": ("s", "jobs_per_s_vs_ref", "resolutions"),
})
assert all(f"{layer}.self_s" in PER_LAYER for layer in LAYERS)
assert all(f"task.{kind}_s" in PER_LAYER for kind in TASK_KINDS)
PER_LAYER.update({
    "trace.untraced_pass_s": ("s", "jobs_per_s_vs_ref", "all"),
    "trace.traced_pass_s": ("s", "jobs_per_s_vs_ref", "all"),
    "trace.overhead_s": ("s", "none", "all"),
    "trace.spans": ("count", "none", "all"),
})


def _layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    """Span and counter recorder; install() wraps the library in place."""

    def __init__(self):
        self.enabled = False
        self.spans = []          # (name, start, end, parent index or -1)
        self.stack = []
        self.counts = Counter()
        self.molien_keys = set()
        self.truncation_keys = set()
        self.molien_distinct = 0
        self.truncation_distinct = 0
        self.distinct_traces = 0
        self.molien_elements = 0
        self.subgroups_found = 0
        self._sites = []

    # ------------------------------------------------------------ recording

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span (used for the job root span)."""
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

    def _span_wrapper(self, name, fn):
        tracer = self
        counts = self.counts
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            counts[name] += 1
            result = tracer.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --------------------------------------------------------- installation

    def _binding_sites(self):
        """(owner, attribute, original, wrapper) for every binding to wrap."""
        modules = [sys.modules[PACKAGE]] + [
            sys.modules[f"{PACKAGE}.{m}"] for m in MODULES]
        for module_name, path, mode in WRAPPED:
            name = f"{module_name}.{path}"
            make = self._span_wrapper if mode == "span" else self._count_wrapper
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                yield cls, attr, original, make(name, original)
                continue
            original = getattr(owner, path)
            wrapper = make(name, original)
            bound = 0
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        yield module, key, original, wrapper
                        bound += 1
            if not bound:
                raise RuntimeError(f"{name} is bound nowhere")

    def install(self):
        if not self._sites:
            self._sites = list(self._binding_sites())
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def end_pass(self):
        """Distinct keys are counted per pass, so repeated passes over the
        same jobs do not dilute the reuse ratios."""
        self.molien_distinct += len(self.molien_keys)
        self.truncation_distinct += len(self.truncation_keys)
        self.molien_keys.clear()
        self.truncation_keys.clear()

    # -------------------------------------------------------------- results

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps([index, name, start, end, parent]))
                handle.write("\n")

    def metrics(self, untraced_pass_s):
        inclusive = Counter()
        self_time = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        task_time = Counter()
        for (name, start, end, parent), children in zip(self.spans, child_time):
            duration = end - start
            inclusive[name] += duration
            self_time[_layer_of(name)] += duration - children
            kind = TASK_SPANS.get(name)
            if kind is not None and self._task_root(parent):
                task_time[kind] += duration
        traced = inclusive[JOB]
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "algebras.brute_force_trace_s": inclusive["algebras.brute_force_trace"],
            "algebras.brute_force_trace_calls": c["algebras.brute_force_trace"],
            "algebras.truncation_mul_calls": c["algebras.Truncation.mul"],
            "algebras.build_truncation_s": inclusive["algebras.build_truncation"],
            "algebras.build_truncation_calls": c["algebras.build_truncation"],
            "algebras.truncation_reuse_ratio": ratio(
                self.truncation_distinct, c["algebras.build_truncation"]),
            "exact.reconstruct_s": inclusive["exact.reconstruct"],
            "exact.reconstruct_calls": c["exact.reconstruct"],
            "groups.closure_s": inclusive["groups.closure"],
            "groups.closure_elements": c["groups.closure_elements"],
            "groups.subgroups_s": inclusive["groups.subgroups"],
            "groups.subset_closure_calls": c["groups.MatrixGroup.subset_closure"],
            "groups.subgroup_yield": ratio(
                self.subgroups_found, c["groups.MatrixGroup.subset_closure"]),
            "groups.charpoly_traces_s": inclusive["groups.assign_charpoly_traces"],
            "groups.molien_s": inclusive["groups.molien"],
            "groups.molien_calls": c["groups.molien"],
            "groups.molien_useful_ratio": ratio(
                self.molien_distinct, c["groups.molien"]),
            "groups.distinct_trace_ratio": ratio(
                self.distinct_traces, self.molien_elements),
            "cyclofield.charpoly_s":
                inclusive["cyclofield.CyclotomicMatrix.reciprocal_charpoly"],
            "cyclofield.matmul_calls": c["cyclofield.CyclotomicMatrix.__mul__"],
            "cyclofield.number_mul_calls":
                c["cyclofield.CyclotomicNumber.__mul__"]
                + c["cyclofield.CyclotomicNumber.__rmul__"],
            "cyclofield.number_inverse_calls":
                c["cyclofield.CyclotomicNumber.inverse"],
            "cyclotomic.classify_s": self._outermost(
                ("cyclotomic.is_cyclotomic", "cyclotomic.cyc_number",
                 "cyclotomic.gorenstein_symmetry")),
            "reports.classify_s": self._outermost(
                ("reports.classify_series", "reports.classify_group")),
            "algebras.betti_s": inclusive["algebras.betti_numbers"],
            "algebras.euler_check_s": inclusive["algebras.euler_check"],
            "exact.normalize_calls": c["exact.normalize"],
            "exact.poly_gcd_calls": c["exact.poly_gcd"],
            "hilbert.veronese_s": inclusive["hilbert.veronese_section"],
            "scenario.parse_s": self._outermost(
                ("scenario.parse_scenario", "scenario.parse_series_literal")),
            "scenario.run_self_s": self._scenario_run_self(child_time),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        for kind in TASK_KINDS:
            out[f"task.{kind}_s"] = task_time[kind]
        out["trace.untraced_pass_s"] = untraced_pass_s
        out["trace.traced_pass_s"] = traced
        out["trace.overhead_s"] = traced - untraced_pass_s
        out["trace.spans"] = len(self.spans)
        return out

    def _task_root(self, parent):
        """A task span is counted where it starts a task: directly under the
        job or under the scenario runner, not nested in another task."""
        while parent >= 0:
            name = self.spans[parent][0]
            if name == JOB or name == "scenario.run_scenario":
                return True
            if name in TASK_SPANS:
                return False
            parent = self.spans[parent][3]
        return True

    def _outermost(self, names):
        """Inclusive time of the named spans, not counting those nested in
        another span of the same set."""
        names = set(names)
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += end - start
        return total

    def _scenario_run_self(self, child_time):
        parse = {"scenario.parse_scenario", "scenario.parse_series_literal"}
        return sum(end - start - child_time[i]
                   for i, (name, start, end, _) in enumerate(self.spans)
                   if _layer_of(name) == "scenario" and name not in parse)


def _observe_closure(tracer, args, kwargs, group):
    tracer.counts["groups.closure_elements"] += group.order


def _observe_subgroups(tracer, args, kwargs, found):
    tracer.subgroups_found += len(found)


def _observe_molien(tracer, args, kwargs, result):
    group, assignment = args[0], args[1]
    tracer.molien_keys.add((group.elements, assignment.traces))
    tracer.distinct_traces += len(set(assignment.traces))
    tracer.molien_elements += group.order


def _observe_truncation(tracer, args, kwargs, result):
    cutoff = args[1] if len(args) > 1 else kwargs["cutoff"]
    tracer.truncation_keys.add((args[0], cutoff))


_OBSERVERS = {
    "groups.closure": _observe_closure,
    "groups.subgroups": _observe_subgroups,
    "groups.molien": _observe_molien,
    "algebras.build_truncation": _observe_truncation,
}
