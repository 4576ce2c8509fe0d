"""Spans around the calls into each hodgekit layer, recorded from outside.

The tracer replaces public functions by timing wrappers at the module
attributes where callers look them up, and puts the originals back when
it is removed.  No file of the package is edited.  Several modules
import a function by name (``dynamics`` imports ``expm_normal``,
``states`` imports ``evolve``), so the same wrapper is installed in
each namespace that holds the name; a call passes through exactly one
of them and records one span.

A span is ``[name, start, end, parent, op]``: the parent is the index
of the enclosing span (-1 at top level) and ``op`` the id of the
benchmark op that caused it.  Spans stay in memory; the worker reduces
them to per-op sums when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
from collections import defaultdict
from time import perf_counter

# (span name, defining module, attribute, modules that hold the name).
# The span name is <module>.<function> of the definition site.
TARGETS = (
    ("linalg.expm_normal", "linalg", "expm_normal", ("linalg", "dynamics")),
    ("dynamics.hodge_generator", "dynamics", "hodge_generator", ("dynamics",)),
    ("dynamics.star_power", "dynamics", "star_power", ("dynamics",)),
    ("dynamics.evolve", "dynamics", "evolve", ("dynamics", "states")),
    ("dynamics.perturbed_star", "dynamics", "perturbed_star", ("dynamics",)),
    ("dynamics.perturbed_power", "dynamics", "perturbed_power", ("dynamics",)),
    ("dynamics.perturbed_evolve", "dynamics", "perturbed_evolve", ("dynamics", "states")),
    ("dynamics.is_fixed_point", "dynamics", "is_fixed_point", ("dynamics",)),
    ("dynamics.energy", "dynamics", "energy", ("dynamics",)),
    ("states.stationarity_derivative", "states", "stationarity_derivative", ("states",)),
    ("states.perturbed_stationarity", "states", "perturbed_stationarity", ("states",)),
    ("states.poincare_dual", "states", "poincare_dual", ("states",)),
    ("states.is_self_dual", "states", "is_self_dual", ("states",)),
    ("einstein.make_refinement", "einstein", "make_refinement", ("einstein", "cli")),
    ("einstein.solve_einstein_vacuum", "einstein", "solve_einstein_vacuum", ("einstein", "cli")),
    ("einstein.check_einstein_vacuum", "einstein", "check_einstein_vacuum", ("einstein", "cli")),
    ("curvature.exemplar", "curvature", "exemplar", ("curvature",)),
    ("curvature.bianchi_residual", "curvature", "bianchi_residual", ("curvature",)),
    ("curvature.ric0_norm", "curvature", "ric0_norm", ("curvature",)),
    ("curvature.tau_operator", "curvature", "tau_operator", ("curvature",)),
    ("clifford.build_generators", "clifford", "build_generators", ("clifford",)),
    ("clifford.relation_residual", "clifford", "relation_residual", ("clifford",)),
    ("clifford.span_dimension", "clifford", "span_dimension", ("clifford",)),
    ("clifford.verify_periodicity", "clifford", "verify_periodicity", ("clifford",)),
    ("clifford.embed_up", "clifford", "embed_up", ("clifford",)),
    ("gns.make_state", "gns", "make_state", ("gns",)),
    ("gns.gns_null_ideal", "gns", "gns_null_ideal", ("gns",)),
    ("gns.gns_representation", "gns", "gns_representation", ("gns",)),
    ("gns.represent", "gns", "GnsRepresentation.represent", ("gns",)),
    ("gns.left_ideal_residual", "gns", "left_ideal_residual", ("gns",)),
    ("cli.main", "cli", "main", ("cli",)),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)


def _module(name):
    return importlib.import_module(f"hodgekit.{name}")


def _holder_and_attr(module_name, dotted):
    """The object holding the attribute: a module, or a class in it."""
    holder = _module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        holder = getattr(holder, part)
    return holder, attr


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore on exit."""
        saved = []
        try:
            for name, module_name, dotted, holders in TARGETS:
                owner, attr = _holder_and_attr(module_name, dotted)
                wrapper = self._wrap(name, getattr(owner, attr))
                for holder_name in holders:
                    holder, _ = _holder_and_attr(holder_name, dotted)
                    saved.append((holder, attr, getattr(holder, attr)))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (an op, a subprocess)."""
        stack = self._stack
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
        stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            stack.pop()

    def per_op(self, first):
        """Per-function sums over the spans recorded since index ``first``,
        which belong to one op: {name: [calls, total_s, self_s]}, plus the
        share of the op's wall time that the layer spans cover.

        The op itself is the top-level span named ``op``; the calls into
        the layers are its children.
        """
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans[first:]:
            if parent >= first:
                child_time[parent] += end - start
        sums = defaultdict(lambda: [0, 0.0, 0.0])
        coverage = 0.0
        for i in range(first, len(spans)):
            name, start, end, _, _ = spans[i]
            if name == "op":
                coverage = child_time[i] / (end - start)
                continue
            entry = sums[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[i]
        return dict(sums), coverage


def median_per_op(tables, name, field):
    """Median over ops of one per-op field; ops that never call ``name``
    are skipped, and a function no op called reads 0."""
    values = [t[name][field] for t in tables if name in t]
    return float(statistics.median(values)) if values else 0.0
