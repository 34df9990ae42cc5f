"""Hooks around mmdot's public functions, seen only from outside.

Each hook replaces a public function in the module namespace where callers
look it up (``mmdot.cli.file_digest``, ``mmdot.experiments.solve_simplified``,
...), so no file of the program changes.  A hook always keeps the call's
arguments and result for the output checks made after each pass.  While
``timing`` is on it also records a span: layer name, start, end, the span
that was open when it started (its parent) and the pass id.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# (module, attribute, layer): every place a layer function is looked up.
HOOKS = [
    ("mmdot.experiments", "gram", "kernels.gram"),
    ("mmdot.cli", "gram", "kernels.gram"),
    ("mmdot.transport_map", "gram", "kernels.gram"),
    ("mmdot.experiments", "squared_euclidean_cost", "embeddings.cost"),
    ("mmdot.cli", "squared_euclidean_cost", "embeddings.cost"),
    ("mmdot.experiments", "solve_simplified", "solvers.fw"),
    ("mmdot.cli", "solve_simplified", "solvers.fw"),
    ("mmdot.experiments", "solve_admm", "solvers.admm"),
    ("mmdot.cli", "solve_admm", "solvers.admm"),
    ("mmdot.experiments", "solve_emd_exact", "solvers.emd"),
    ("mmdot.cli", "solve_emd_exact", "solvers.emd"),
    ("mmdot.experiments", "derive_beta", "experiments.derive_beta"),
    ("mmdot.cli", "derive_beta", "experiments.derive_beta"),
    ("mmdot.experiments", "fit_plan_model", "experiments.fit_plan_model"),
    ("mmdot.experiments", "map_points_closed_form", "transport_map.map_closed"),
    ("mmdot.cli", "map_points_closed_form", "transport_map.map_closed"),
    ("mmdot.cli", "map_point_sgd", "transport_map.sgd"),
    ("mmdot.cli", "read_matrix_csv", "dataio.read"),
    ("mmdot.cli", "read_labeled_csv", "dataio.read"),
    ("mmdot.cli", "write_json", "dataio.write"),
    ("mmdot.cli", "write_matrix_csv", "dataio.write"),
    ("mmdot.cli", "file_digest", "dataio.digest"),
]


@dataclass
class Call:
    """One completed call into a layer: what went in and what came out."""

    layer: str
    args: tuple
    kwargs: dict
    result: object


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int | None
    pass_id: int


class Probe:
    """Installs the hooks and collects calls and spans pass by pass."""

    def __init__(self):
        self.timing = False
        self.pass_id = 0
        self.calls: list[Call] = []
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def install(self):
        for module_name, attr, layer in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def wrap(self, layer, fn):
        """Return ``fn`` with its calls kept and, while timing, spanned."""

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if not self.timing:
                result = fn(*args, **kwargs)
                self.calls.append(Call(layer, args, kwargs, result))
                return result
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(layer, time.perf_counter(), 0.0, parent, self.pass_id)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            self.calls.append(Call(layer, args, kwargs, result))
            return result

        return hooked

    def begin_pass(self, pass_id, timing):
        self.pass_id = pass_id
        self.timing = timing
        self.calls = []

    def end_pass(self):
        """Stop timing and hand back the calls of the pass just run."""
        self.timing = False
        calls, self.calls = self.calls, []
        return calls

    def self_times(self, pass_ids):
        """Sum of each layer's self time over the given passes.

        A span's self time is its duration minus the durations of the spans
        it directly caused; calls are sequential, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span, children in zip(self.spans, child_time):
            if span.pass_id in pass_ids:
                own = (span.end - span.start) - children
                totals[span.layer] = totals.get(span.layer, 0.0) + own
        return totals

    def span_records(self):
        return [
            {
                "layer": s.layer,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "pass": s.pass_id,
            }
            for s in self.spans
        ]
