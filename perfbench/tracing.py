"""Span tracing of nfbeam's layers from outside the program.

The tracer replaces a layer's public entry point, at the module attribute
its caller looks up, with a wrapper that records a span: name, start, end,
parent span and scenario id, plus counts taken from the call's arguments
and result.  Spans stay in memory until the run writes them out.  Nothing
in ``src/`` changes, and untraced passes run the original functions.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "scenario", "parent", "start", "end", "counts")

    def __init__(self, name: str, scenario: str | None, parent: int | None):
        self.name = name
        self.scenario = scenario
        self.parent = parent
        self.start = self.end = 0.0
        self.counts: dict[str, float] = {}

    def as_list(self) -> list:
        return [self.name, self.scenario, self.parent, self.start, self.end, self.counts]


class Tracer:
    """Records nested spans; ``scenario`` is set by the runner before each call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.scenario: str | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, self.scenario, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point in :func:`entry_points`; restore them on exit."""
        saved = []
        try:
            for module, attr, name, count in entry_points():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _field_sum_counts(args, kwargs, result):
    points = len(_arg(args, kwargs, 2, "points"))
    return {"pairs": len(_arg(args, kwargs, 0, "positions")) * points}


def _grid_counts(args, kwargs, result):
    points = _arg(args, kwargs, 2, "grid").num_points
    return {"points": points, "pairs": points * _arg(args, kwargs, 0, "array").num_elements}


def _elements(args, kwargs, result):
    return {"elements": _arg(args, kwargs, 0, "array").num_elements}


def _feet_counts(args, kwargs, result):
    return {
        "elements": len(result.iterations),
        "iters": int(result.iterations.sum()),
        "iters_max": int(result.iterations.max(initial=0)),
        "converged": int(result.converged.sum()),
    }


def _export_counts(rows):
    def count(args, kwargs, result):
        # the CLI passes (object, path) positionally to every exporter
        return {"rows": rows(args[0]), "bytes": os.path.getsize(args[1])}

    return count


def entry_points():
    """(module, attribute, span name, counter) for every traced entry point."""
    from nfbeam import analysis, cli, field, heatmap, kernels, synthesis

    return [
        (cli, "main", "cli.main", None),
        (cli, "synthesize", "synthesis.synthesize", _elements),
        (synthesis, "synthesize", "synthesis.synthesize", _elements),
        (synthesis, "solve_foot", "solver.solve_foot", lambda a, kw, r: {"iters": r.iterations}),
        (synthesis, "oracle_signed_min_distance", "solver.oracle", None),
        (kernels, "nearest_feet", "kernels.nearest_feet", _feet_counts),
        (kernels, "field_sum", "kernels.field_sum", _field_sum_counts),
        (cli, "total_field", "field.total_field", _grid_counts),
        (field, "validate_clearance", "field.validate_clearance", None),
        (analysis, "estimate_direction", "analysis.estimate_direction", None),
        (analysis, "total_field", "analysis.scan", _grid_counts),
        (analysis, "polarization_report", "analysis.polarization_report", None),
        (cli, "export_phase_csv", "export.phase_csv", _export_counts(lambda pd: pd.array.num_elements)),
        (cli, "export_field_csv", "export.field_csv", _export_counts(lambda fg: fg.grid.num_points)),
        (analysis, "export_report_text", "export.report", _export_counts(len)),
        (analysis, "export_report_csv", "export.report", _export_counts(len)),
        (heatmap, "write_pgm16", "heatmap.write_pgm16", None),
    ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list[Span], selves: list[float], scenario_prefix: str) -> dict[str, float]:
    """Per-layer metrics over the spans whose scenario id starts with the prefix.

    Layers the workload does not reach read 0.
    """
    by_name = defaultdict(list)
    self_by_name = defaultdict(float)
    for span, own in zip(spans, selves):
        if span.scenario is not None and span.scenario.startswith(scenario_prefix):
            by_name[span.name].append(span)
            self_by_name[span.name] += own

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    exports = ("export.phase_csv", "export.field_csv", "export.report")
    feet = "kernels.nearest_feet"
    return {
        "analysis.estimate_direction_s": total("analysis.estimate_direction"),
        "analysis.scan_points": count("analysis.scan", "points"),
        "analysis.scan_pairs": count("analysis.scan", "pairs"),
        "analysis.polarization_report_s": total("analysis.polarization_report"),
        "field.total_field_s": total("field.total_field"),
        "field.grid_points": count("field.total_field", "points"),
        "field.validate_clearance_s": total("field.validate_clearance"),
        "kernels.field_sum_s": total("kernels.field_sum"),
        "kernels.field_sum_calls": len(by_name["kernels.field_sum"]),
        "kernels.field_sum_pairs": count("kernels.field_sum", "pairs"),
        "kernels.field_sum_pairs_per_s": ratio(
            count("kernels.field_sum", "pairs"), total("kernels.field_sum")
        ),
        "synthesis.synthesize_s": total("synthesis.synthesize"),
        "synthesis.self_s": self_by_name["synthesis.synthesize"],
        "synthesis.elements": count("synthesis.synthesize", "elements"),
        "solver.solve_foot_calls": len(by_name["solver.solve_foot"]),
        "solver.solve_foot_s": total("solver.solve_foot"),
        "solver.newton_iters_mean": ratio(
            count("solver.solve_foot", "iters"), len(by_name["solver.solve_foot"])
        ),
        "solver.oracle_calls": len(by_name["solver.oracle"]),
        "solver.oracle_s": total("solver.oracle"),
        "kernels.nearest_feet_s": total(feet),
        "kernels.newton_iters_mean": ratio(count(feet, "iters"), count(feet, "elements")),
        "kernels.newton_iters_max": max((s.counts["iters_max"] for s in by_name[feet]), default=0),
        "kernels.feet_converged_frac": ratio(count(feet, "converged"), count(feet, "elements")),
        "export.phase_csv_s": total("export.phase_csv"),
        "export.field_csv_s": total("export.field_csv"),
        "export.report_s": total("export.report"),
        "export.rows": sum(count(name, "rows") for name in exports),
        "export.bytes": sum(count(name, "bytes") for name in exports),
        "heatmap.write_pgm16_s": total("heatmap.write_pgm16"),
        "cli.self_s": self_by_name["cli.main"],
    }
