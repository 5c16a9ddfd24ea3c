"""Spans around hetcal's layers, recorded from the benchmark's side.

Each public function is wrapped where the calling module looks it up (for
example ``hetcal.simulate.fit_hetero``, not ``hetcal.hetero.fit_hetero``), so
the program itself is unchanged.  A span records its name, start, end,
parent and the id of the ``cli.main`` call it belongs to.  Calls, total and
self time are accumulated as spans close; self time is a span's duration
minus the part its child spans cover, so the self times of all spans add up
to the time spent in ``cli.main``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

# (span name, [module:attribute, ...]) — the attribute each caller looks up
HOOKS = (
    ("cli.main", ["hetcal.cli:main"]),
    ("io.parse", ["hetcal.io:parse_first_stage", "hetcal.io:parse_second_stage",
                  "hetcal.io:parse_scenarios"]),
    ("io.render", ["hetcal.io:render_text", "hetcal.io:render_csv", "hetcal.io:render_json",
                   "hetcal.io:summary_row", "hetcal.io:format_summary_csv"]),
    ("data.validate", ["hetcal.usual:validate", "hetcal.hetero:validate"]),
    ("usual.fit", ["hetcal.cli:fit_usual", "hetcal.simulate:fit_usual"]),
    ("usual.ci", ["hetcal.usual:confidence_interval", "hetcal.hetero:confidence_interval"]),
    ("hetero.fit", ["hetcal.cli:fit_hetero", "hetcal.simulate:fit_hetero"]),
    ("hetero.search", ["hetcal.hetero:minimize"]),
    ("hetero.variance", ["hetcal.hetero:variance_x0", "hetcal.simulate:variance_x0"]),
    ("simulate.replicates", ["hetcal.simulate:simulate_replicates"]),
    ("simulate.generate", ["hetcal.simulate:generate_dataset"]),
    ("simulate.summarize", ["hetcal.simulate:summarize"]),
)

KEEP_SPANS = 200_000  # spans kept for the span file; statistics use all


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name, _ in HOOKS}  # calls, total, self
        self.spans = []  # (id, root id, parent id, name, start, end)
        self.counts = {"hetero.iterations": 0, "hetero.nonconverged": 0}
        self._stack = []  # [id, start, time covered by children]
        self._next = 0
        self._root = -1
        self._patched = []
        self.missing = []

    def _wrap(self, name, fn):
        stats, stack, spans, clock = self.stats[name], self._stack, self.spans, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            if not stack:
                self._root = sid
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if len(spans) < KEEP_SPANS:
                    spans.append((sid, self._root, stack[-1][0] if stack else None,
                                  name, frame[1], end))
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    def install(self):
        self.missing = []
        for name, targets in HOOKS:
            for target in targets:
                module_name, attr = target.split(":")
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(target)
                    continue
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def remove(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write_spans(self, path: Path):
        with path.open("w") as fh:
            for sid, root, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "request": root, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")

    def table(self) -> dict:
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in self.stats.items()}


def _observe_fit(counts, result):
    counts["hetero.iterations"] += int(result.iterations)
    counts["hetero.nonconverged"] += not result.converged


OBSERVERS = {"hetero.fit": _observe_fit}


def layer_metrics(tracer: Tracer, failed_replicates: int) -> dict:
    """The per-layer metrics named in BENCHMARK.json; failed replicates come
    from the summary CSVs of the traced calls."""
    st = tracer.stats
    fits = st["hetero.fit"][0]
    return {
        "hetero.fit.calls": (fits, "count"),
        "hetero.fit.self_s": (st["hetero.fit"][2], "s"),
        "hetero.search.s": (st["hetero.search"][1], "s"),
        "hetero.variance.s": (st["hetero.variance"][1], "s"),
        "hetero.iterations.mean": (tracer.counts["hetero.iterations"] / fits if fits else 0.0,
                                   "count"),
        "hetero.nonconverged": (tracer.counts["hetero.nonconverged"], "count"),
        "usual.fit.self_s": (st["usual.fit"][2], "s"),
        "usual.ci.calls": (st["usual.ci"][0], "count"),
        "usual.ci.s": (st["usual.ci"][1], "s"),
        "simulate.generate.calls": (st["simulate.generate"][0], "count"),
        "simulate.generate.s": (st["simulate.generate"][1], "s"),
        "simulate.replicates.self_s": (st["simulate.replicates"][2], "s"),
        "simulate.summarize.s": (st["simulate.summarize"][1], "s"),
        "simulate.failed": (failed_replicates, "count"),
        "data.validate.calls": (st["data.validate"][0], "count"),
        "data.validate.s": (st["data.validate"][1], "s"),
        "io.parse.calls": (st["io.parse"][0], "count"),
        "io.parse.s": (st["io.parse"][1], "s"),
        "io.render.s": (st["io.render"][1], "s"),
        "cli.main.self_s": (st["cli.main"][2], "s"),
    }
