"""Per-layer tracing of an in-process mobcast run, from outside the package.

A `Tracer` replaces each target function or method with a timing
wrapper. Functions are patched in every ``mobcast.*`` module namespace
that bound them, because the package imports with ``from .x import y``:
patching only ``mobcast.graph.generate_network`` would miss the calls made
through ``mobcast.design`` and ``mobcast.cli``. Methods are patched once,
on their class.

Each call records one span (name, start, end, parent, step); spans stay in
memory until `write_spans`. Some wrappers also add counts read from the
objects the call returned. A span's self time is its duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import os
import sys
import time
from collections import defaultdict


def _count_graph(counts, args, kwargs, result):
    counts["graph.generate_network.edges"] += result.n_edges


def _count_cascade(counts, args, kwargs, result):
    attempts = result.attempts
    counts["diffusion.rounds"] += int(result.rounds_run)
    counts["diffusion.attempts"] += int(attempts.shape[0])
    if attempts.shape[0]:
        counts["diffusion.successes"] += int(attempts[:, 2].sum())


def _count_panel_bytes(counts, args, kwargs, result):
    for path in args[1:3]:
        counts["estimate.write_panel_csv.bytes"] += os.path.getsize(path)


def _count_fit(counts, args, kwargs, result):
    counts["estimate.fit_logistic.iterations"] += int(result.iterations)
    counts["estimate.fit_logistic.rows"] += int(result.n_obs)


def _count_factor(counts, args, kwargs, result):
    counts["estimate.factor_scores.iterations"] += int(result[3])


# (span name, module under mobcast, attribute path, counter or None).
# A method's constructor is traced under the name "compile".
TARGETS = (
    ("scenario.derive_stream", "scenario", "derive_stream", None),
    ("graph.generate_network", "graph", "generate_network", _count_graph),
    ("graph.save_edge_list", "graph", "save_edge_list", None),
    ("diffusion.CascadeEngine.compile", "diffusion", "CascadeEngine.__init__",
     None),
    ("diffusion.CascadeEngine.run", "diffusion", "CascadeEngine.run",
     _count_cascade),
    ("impact.score_cascade", "impact", "score_cascade", None),
    ("affect.measure_items", "affect", "measure_items", None),
    ("design.optimize", "design", "optimize", None),
    ("design.replicate_design", "design", "replicate_design", None),
    ("game.JointCascadeEngine.compile", "game", "JointCascadeEngine.__init__",
     None),
    ("game.JointCascadeEngine.run", "game", "JointCascadeEngine.run", None),
    ("game.payoff", "game", "payoff", None),
    ("estimate.build_panel", "estimate", "build_panel", None),
    ("estimate.write_panel_csv", "estimate", "write_panel_csv",
     _count_panel_bytes),
    ("estimate.read_panel_csv", "estimate", "read_panel_csv", None),
    ("estimate.fit_logistic", "estimate", "fit_logistic", _count_fit),
    ("estimate.factor_scores", "estimate", "factor_scores", _count_factor),
    ("estimate.fit_affect_ols", "estimate", "fit_affect_ols", None),
    ("falsify.run_test", "falsify", "run_test", None),
    ("falsify.calibrate", "falsify", "calibrate", None),
    ("stats.welch_t_test", "stats", "welch_t_test", None),
    ("stats.holm_adjust", "stats", "holm_adjust", None),
    ("stats.slope_test", "stats", "slope_test", None),
    ("stats.wilson_interval", "stats", "wilson_interval", None),
    ("cli.run_generate", "cli", "run_generate", None),
    ("cli.run_simulate", "cli", "run_simulate", None),
    ("cli.run_optimize", "cli", "run_optimize", None),
    ("cli.run_game", "cli", "run_game", None),
    ("cli.run_falsify", "cli", "run_falsify", None),
    ("cli.run_estimate", "cli", "run_estimate", None),
    ("cli.run_calibrate", "cli", "run_calibrate", None),
)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of the
    intervals its direct children cover, clipped to the span."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c_lo, c_hi in sorted(children.get(i, ())):
            c_lo, c_hi = max(c_lo, start), min(c_hi, end)
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span recorder. Spans are [name, start, end, parent index, step]."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._step = ""

    @contextlib.contextmanager
    def span(self, name: str, step: str | None = None):
        if step is not None:
            self._step = step
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self._step]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, func, counter):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        undo = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None
                   and (key == "mobcast" or key.startswith("mobcast."))]
        try:
            for name, module, attr, counter in TARGETS:
                owner = sys.modules[f"mobcast.{module}"]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                if path:
                    original = owner.__dict__[leaf]
                    setattr(owner, leaf, self._wrap(name, original, counter))
                    undo.append((owner, leaf, original))
                    continue
                original = getattr(owner, leaf)
                wrapper = self._wrap(name, original, counter)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def totals(self) -> dict[tuple[str, str], list]:
        """[calls, summed self seconds] per (step, span name)."""
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = out[span[4], span[0]]
            entry[0] += 1
            entry[1] += own
        return dict(out)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "start", "end", "parent",
                             "workload", "step"))
            for i, (name, start, end, parent, step) in enumerate(self.spans):
                writer.writerow((i, name, repr(start), repr(end), parent,
                                 self.workload, step))
