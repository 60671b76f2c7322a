"""Spans recorded around the public layer calls a study makes.

A traced study runs through the same entry point as an untraced one.
For its duration every function in LAYERS is replaced, in the module
namespace the program calls it from, by a wrapper that records a span
around the call; the originals are put back when the study ends. A
layer the program no longer calls therefore records no span.

A span has a name, a start, an end, the span that contains it and the
study it belongs to. Each study opens a root span named `study`; the
layer calls are its descendants. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict

# (module, function, span): every public function the three entry points
# call, in the namespace they call it from. `sevrel.cli` imports its
# layers by name, so they are wrapped there as well as at their source.
LAYERS = (
    ("sevrel.cli", "load_config", "config.load_config"),
    ("sevrel.cli", "run", "scenarios.run"),
    ("sevrel.cli", "simulate", "engine.simulate"),
    ("sevrel.cli", "model_moments", "engine.model_moments"),
    ("sevrel.cli", "build_report", "metrics.build_report"),
    ("sevrel.cli", "collect_histograms", "scenarios.collect_histograms"),
    ("sevrel.scenarios", "run", "scenarios.run"),
    ("sevrel.scenarios", "export_result", "scenarios.export_result"),
    ("sevrel.scenarios", "calibrate_shift", "engine.calibrate_shift"),
    ("sevrel.scenarios", "simulate", "engine.simulate"),
    ("sevrel.scenarios", "model_moments", "engine.model_moments"),
    ("sevrel.scenarios", "build_report", "metrics.build_report"),
    ("sevrel.scenarios", "collect_histograms", "scenarios.collect_histograms"),
    ("sevrel.report", "simulation_document", "report.render"),
    ("sevrel.report", "render_json", "report.render"),
    ("sevrel.report", "histogram_csv", "report.histogram_csv"),
    ("sevrel.report", "write_text", "report.write"),
)


def _simulate_counts(arguments: dict, summary) -> dict:
    return {
        "samples": summary.n,
        "chunks": math.ceil(summary.n / arguments["config"].chunk_size),
        "failures": summary.failure_count,
        "stored_deficits": int(summary.failure_deficits.size),
    }


def _write_counts(arguments: dict, _result) -> dict:
    return {"bytes": len(arguments["text"].encode("utf-8"))}


# counts attached to a span, read from the call's arguments and result
COUNTS = {"engine.simulate": _simulate_counts, "report.write": _write_counts}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._study: int | None = None
        # each layer's most recent call arguments, for the direct probes
        self.last_arguments: dict[str, dict] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "study": self._study,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name: str):
        signature = inspect.signature(fn)
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            arguments = signature.bind(*args, **kwargs).arguments
            self.last_arguments[name] = arguments
            if counts is not None:
                record.update(counts(arguments, result))
            return result

        return traced

    @contextlib.contextmanager
    def tracing(self, study: int):
        """Wrap every LAYERS function and open the study's root span."""
        originals = []
        for module_name, attr, name in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        self._study = study
        try:
            with self.span("study"):
                yield
        finally:
            self._study = None
            for module, attr, original in originals:
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Children of one span never overlap, because spans are opened and
        closed by nested calls on one thread.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - covered[s["id"]] for s in self.spans]

    def totals(self, study: int) -> dict[str, float]:
        """Seconds per span name within one study, summed over its calls."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["study"] == study:
                out[s["name"]] += s["end"] - s["start"]
        return dict(out)

    def count(self, study: int, name: str, key: str) -> int:
        """A count summed over one study's spans of one name; 0 if none."""
        return sum(s[key] for s in self.spans if s["study"] == study and s["name"] == name)

    def root_self_time(self, study: int) -> float:
        """Self time of the study's root span: time outside every layer call."""
        own = self.self_times()
        return sum(own[s["id"]] for s in self.spans if s["study"] == study and s["name"] == "study")

    def write(self, path: str, extra: dict) -> None:
        own = self.self_times()
        spans = [dict(s, self_s=own[s["id"]]) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=spans), fh, indent=1)
            fh.write("\n")
