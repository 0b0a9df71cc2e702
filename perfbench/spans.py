"""Spans around the calls into noonchip's modules, and the layer metrics they give.

While a Tracer is active, every public function of the six layer modules (and
the private matcher, so that counting shows its inner walks) is replaced, in
every ``noonchip`` namespace that binds it, by a wrapper that records one span:
name, start, end, parent span and scan number. ``noonchip.detection.fit_fringe``
is also bound as ``noonchip.tagsim.fit_fringe``, so both names are patched and
the fit shows up nested under the fringe estimate.

Spans stay in memory; the harness writes them out when the run ends. Leaving
the ``active`` block puts the original functions back, so untraced scans call
the program unmodified.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass

LAYER_MODULES = ("sources", "circuit", "fock", "detection", "tagsim", "hom")

# Private helpers wrapped when the module still has them.
PRIVATE_FUNCTIONS = {"tagsim": ("_match_sorted",)}

# Called once per matrix entry inside the lift (about 30k times a scan): too
# fine to span, and their time is the lift's.
UNTRACED_FUNCTIONS = frozenset({"fock.permanent", "fock.permanent_naive"})

# Functions whose span name carries their ``fmt`` argument (csv or binary).
FORMAT_LABELLED = ("tagsim.tags_to_bytes", "tagsim.tags_from_bytes")

COUNT_SPANS = frozenset(
    {"tagsim.count_pattern_coincidences", "tagsim.count_coincidences", "tagsim._match_sorted"}
)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans; -1 for a call made by the benchmark itself
    scan: int
    counts: dict | None = None


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _count_counts(args, kwargs, result):
    stream = _arg(args, kwargs, 0, "stream")
    return {
        "records": len(stream),
        "coincidences": sum(result.pair_counts.values()),
        "pairs": sorted([a, b, n] for (a, b), n in result.pair_counts.items()),
    }


# Counts recorded at the same boundaries as the spans, from arguments and results.
COUNTERS = {
    "tagsim.generate_tags": lambda args, kwargs, result: {"records": len(result)},
    "tagsim.count_coincidences": _count_counts,
    "tagsim.count_pattern_coincidences": _count_counts,
    "tagsim.tags_to_bytes": lambda args, kwargs, result: {"bytes": len(result)},
    "tagsim.tags_from_bytes": lambda args, kwargs, result: {
        "bytes": len(_arg(args, kwargs, 0, "data"))
    },
    # Computed, not observed: the lift evaluates one permanent per matrix entry.
    "fock.lift_unitary": lambda args, kwargs, result: {"permanents": result.shape[0] ** 2},
}


def _traced_functions() -> dict[int, tuple[types.FunctionType, str]]:
    """id -> (function, span name) for every function a traced scan wraps."""
    targets = {}
    for short in LAYER_MODULES:
        module = sys.modules[f"noonchip.{short}"]
        names = list(getattr(module, "__all__", ())) + list(PRIVATE_FUNCTIONS.get(short, ()))
        for name in names:
            fn = getattr(module, name, None)
            span_name = f"{short}.{name}"
            if (
                isinstance(fn, types.FunctionType)
                and fn.__module__ == module.__name__
                and span_name not in UNTRACED_FUNCTIONS
            ):
                targets[id(fn)] = (fn, span_name)
    return targets


class Tracer:
    """Records spans for the scans run inside ``active()``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.scans = 0
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = COUNTERS.get(name)
        labelled = name in FORMAT_LABELLED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}[{_arg(args, kwargs, 1, 'fmt', 'binary')}]" if labelled else name
            span = Span(label, clock(), 0, stack[-1] if stack else -1, self.scans)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def active(self):
        """Trace one scan: patch every namespace, yield, then restore them."""
        targets = _traced_functions()
        wrappers = {key: self.wrap(fn, name) for key, (fn, name) in targets.items()}
        patched = []
        namespaces = [
            m for n, m in list(sys.modules.items()) if n == "noonchip" or n.startswith("noonchip.")
        ]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(namespace, attr, wrappers[id(value)])
                    patched.append((namespace, attr, value))
        try:
            yield self
        finally:
            for namespace, attr, value in patched:
                setattr(namespace, attr, value)
            self.scans += 1


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end_ns - s.start_ns
    return out


# Per-layer time metric -> span names whose self time it sums.
TIME_METRICS = {
    "tagsim.count_s": COUNT_SPANS,
    "tagsim.generate_s": {"tagsim.generate_tags"},
    "tagsim.encode_csv_s": {"tagsim.tags_to_bytes[csv]"},
    "tagsim.decode_csv_s": {"tagsim.tags_from_bytes[csv]"},
    "tagsim.encode_binary_s": {"tagsim.tags_to_bytes[binary]"},
    "tagsim.decode_binary_s": {"tagsim.tags_from_bytes[binary]"},
    "tagsim.fringe_self_s": {"tagsim.fringe_from_tags"},
    "detection.fit_s": {"detection.fit_fringe"},
    "detection.loss_s": {"detection.apply_loss"},
    "detection.pattern_s": {"detection.pattern_probs"},
    "fock.lift_s": {"fock.lift_unitary"},
    "fock.evolve_self_s": {"fock.evolve"},
    "circuit.compose_s": {"circuit.compose"},
    "hom.coincidence_s": {"hom.hom_coincidence"},
    "hom.fwhm_s": {"hom.dip_fwhm"},
    "hom.invert_s": {"hom.bandwidth_from_dip"},
    "sources.state_s": {"sources.noon_mixed", "sources.noon_pure"},
    "sources.overlap_s": {"sources.spectral_overlap"},
}

CALL_METRICS = {
    "detection.fit_calls": "detection.fit_fringe",
    "fock.lift_calls": "fock.lift_unitary",
    "circuit.compose_calls": "circuit.compose",
}


def _outermost_count(spans: list[Span], span: Span) -> bool:
    """A count span not nested in another, so each stream is counted once."""
    return span.name in COUNT_SPANS and (span.parent < 0 or spans[span.parent].name not in COUNT_SPANS)


def counted_pairs(spans: list[Span]) -> list[dict[tuple[int, int], int]]:
    """Pair counts of each outermost count call, in call order."""
    return [
        {(a, b): n for a, b, n in s.counts["pairs"]}
        for s in spans
        if _outermost_count(spans, s) and s.counts is not None
    ]


def layer_metrics(spans: list[Span], scans: int) -> dict[str, float]:
    """Per-scan means of the layer metrics over ``scans`` traced scans."""
    selfs = self_times_ns(spans)
    by_name: dict[str, int] = {}
    calls: dict[str, int] = {}
    totals = {"count_records": 0, "coincidences": 0, "generate_records": 0, "io_bytes": 0,
              "permanents": 0}
    for i, s in enumerate(spans):
        by_name[s.name] = by_name.get(s.name, 0) + selfs[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        counts = s.counts or {}
        if _outermost_count(spans, s):
            totals["count_records"] += counts.get("records", 0)
            totals["coincidences"] += counts.get("coincidences", 0)
        elif s.name == "tagsim.generate_tags":
            totals["generate_records"] += counts.get("records", 0)
        totals["io_bytes"] += counts.get("bytes", 0)
        totals["permanents"] += counts.get("permanents", 0)

    n = max(scans, 1)
    out = {
        metric: sum(by_name.get(name, 0) for name in names) / 1e9 / n
        for metric, names in TIME_METRICS.items()
    }
    out.update({metric: calls.get(name, 0) / n for metric, name in CALL_METRICS.items()})
    records, generated = totals["count_records"], totals["generate_records"]
    out["tagsim.count_records"] = records / n
    out["tagsim.count_ns_per_record"] = out["tagsim.count_s"] * 1e9 / (records / n) if records else 0.0
    out["tagsim.count_coinc_per_record"] = totals["coincidences"] / records if records else 0.0
    out["tagsim.generate_records"] = generated / n
    out["tagsim.generate_ns_per_record"] = (
        out["tagsim.generate_s"] * 1e9 / (generated / n) if generated else 0.0
    )
    out["tagsim.io_bytes"] = totals["io_bytes"] / n
    out["fock.permanents"] = totals["permanents"] / n
    return out
