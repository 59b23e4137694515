"""In-process spans around calls into orthofix's public functions.

The program itself carries no tracing.  `Tracer.installed()` replaces each
traced function, in every loaded `orthofix` module that holds a reference to
it, with a wrapper that records a span (name, parent span, start, end) and
the layer's exact work counts, and restores the originals on exit.  Spans
are kept in memory; a layer's time is the self time of its spans, i.e. each
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


def _count_triples(counts, args, kwargs, result):
    n = args[0].n
    counts["space.triples"] += n * (n - 1) * (n - 2)


def _count_related_pairs(counts, args, kwargs, result):
    counts["relational.related_pairs"] += len({frozenset(pair) for pair in args[0].relation})


def _count_pairs_scanned(counts, args, kwargs, result):
    counts["contraction.pairs_scanned"] += result.pairs_scanned


def _count_picard(counts, args, kwargs, result):
    counts["solver.picard_steps"] += result.applications
    if result.certified:
        m = len(result.iterates)
        counts["solver.tail_pairs"] += m * (m - 1) // 2


def _scan_name(kwargs) -> str:
    return "contraction.scan_sym" if kwargs.get("symmetric") else "contraction.scan"


# (module, function, span name or a function of the call's keyword
# arguments, counter or None)
LAYERS = (
    ("orthofix.spacefile", "load_space_file", "spacefile.load", None),
    ("orthofix.space", "validate_metric", "space.validate_metric", _count_triples),
    ("orthofix.relational", "classify_orthogonality", "relational.classify", None),
    ("orthofix.relational", "is_ow_preserving", "relational.preserve", _count_related_pairs),
    ("orthofix.contraction", "check_contraction", _scan_name, _count_pairs_scanned),
    ("orthofix.contraction", "hierarchy_check", "contraction.hierarchy", None),
    ("orthofix.solver", "hypothesis_check", "solver.hypothesis", None),
    ("orthofix.solver", "picard_solve", "solver.picard", _count_picard),
    ("orthofix.oracle", "generate_space", "oracle.generate_space", None),
    ("orthofix.oracle", "generate_map", "oracle.generate_map", None),
    ("orthofix.corpus", "run_all", "corpus.run_all", None),
)

SPAN_NAMES = (
    "spacefile.load",
    "space.validate_metric",
    "relational.classify",
    "relational.preserve",
    "contraction.scan",
    "contraction.scan_sym",
    "contraction.hierarchy",
    "solver.hypothesis",
    "solver.picard",
    "oracle.generate_space",
    "oracle.generate_map",
    "corpus.run_all",
)

COUNT_NAMES = (
    "space.triples",
    "relational.related_pairs",
    "contraction.pairs_scanned",
    "solver.picard_steps",
    "solver.tail_pairs",
)


class Tracer:
    """Records spans and counts while installed; one instance per traced round."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start_ns, end_ns]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name if isinstance(name, str) else name(kwargs), stack[-1] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        wrappers = {}
        for module_name, attr, name, count in LAYERS:
            fn = getattr(importlib.import_module(module_name), attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn, count))
        patched = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "orthofix" or module_name.startswith("orthofix.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, in seconds, over every recorded span."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = dict.fromkeys(SPAN_NAMES, 0)
        for (name, parent, start, end), children in zip(self.spans, child_ns):
            totals[name] += end - start - children
        return {name: ns / 1e9 for name, ns in totals.items()}
