"""Closed-loop timing of one workload, with output checks and the result line.

One client runs scans back to back: each starts when the previous one ends,
so there is no queue and the median scan time is the latency a user waits
for. The program is imported from ``src/`` of the checkout this file sits in.

A run sets up (import plus input building), runs one untimed warm-up scan
that is checked in full, then times scans until ``seconds`` are measured. The
set-up is repeated at even intervals among the scans, and ``setup_s`` is
the median import time plus the median build time. With tracing on, untraced and traced
scans alternate, so that the per-layer numbers and the tracing overhead come
from the same run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

PROGRAM_MODULES = tuple(
    f"noonchip.{m}" for m in ("sources", "circuit", "fock", "detection", "tagsim", "hom")
)

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# name -> unit; BENCHMARK.json lists the same names, units and directions.
END_TO_END = {
    "scan_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "vis_abs_err": "1",
    "hom_fwhm_rel_err": "1",
}

PER_LAYER = {
    "tagsim.count_s": "s",
    "tagsim.count_records": "count",
    "tagsim.count_ns_per_record": "ns/record",
    "tagsim.count_coinc_per_record": "coinc/record",
    "tagsim.generate_s": "s",
    "tagsim.generate_records": "count",
    "tagsim.generate_ns_per_record": "ns/record",
    "tagsim.encode_csv_s": "s",
    "tagsim.decode_csv_s": "s",
    "tagsim.encode_binary_s": "s",
    "tagsim.decode_binary_s": "s",
    "tagsim.io_bytes": "B",
    "tagsim.fringe_self_s": "s",
    "detection.fit_s": "s",
    "detection.fit_calls": "count",
    "detection.loss_s": "s",
    "detection.pattern_s": "s",
    "fock.lift_s": "s",
    "fock.lift_calls": "count",
    "fock.permanents": "count",
    "fock.evolve_self_s": "s",
    "circuit.compose_s": "s",
    "circuit.compose_calls": "count",
    "hom.coincidence_s": "s",
    "hom.fwhm_s": "s",
    "hom.invert_s": "s",
    "sources.state_s": "s",
    "sources.overlap_s": "s",
    "trace.scan_s_p50": "s",
    "trace.harness_s": "s",
    "trace.overhead_frac": "1",
}


class SetupError(RuntimeError):
    """The checkout has no importable program, or the workload is unknown."""


def import_program() -> float:
    """Import the program's modules from src/ and return the seconds it took."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        for name in PROGRAM_MODULES:
            importlib.import_module(name)
    except ImportError as exc:
        raise SetupError(f"cannot import the program from {SRC}: {exc}") from exc
    elapsed = time.perf_counter() - start
    origin = Path(sys.modules["noonchip"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"noonchip was imported from {origin}, not from {SRC}")
    return elapsed


def import_in_fresh_process() -> float:
    """Import time of the program measured in a new interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {', '.join(PROGRAM_MODULES)}; print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run(name: str, seed: int, seconds: float, trace: bool, size=None, out_dir: Path | None = RESULTS):
    """Run one workload and return (result line, full report).

    The report, with the spans of a traced run, is also written to
    ``out_dir`` when one is given.
    """
    import_samples = [import_program()]
    import spans
    import workloads

    if name not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]
    size = size or workloads.FULL

    build_samples = []

    def build():
        start = time.perf_counter()
        inputs = workload.build(seed, size)
        build_samples.append(time.perf_counter() - start)
        return inputs

    def repeat_setup() -> float:
        """Take one more set-up sample; return the wall time it took."""
        start = time.perf_counter()
        import_samples.append(import_in_fresh_process())
        build()
        return time.perf_counter() - start

    inputs = build()
    gc.collect()
    kept, warmup_problems = workloads.warm_up(workload, inputs)
    problems: list[str] = []

    tracer = spans.Tracer() if trace else None
    modes = (False, True) if trace else (False,)
    samples = {False: [], True: []}
    attempted = failed = 0
    setup_spent = 0.0
    while True:
        for traced in modes:
            gc.collect()
            with tracer.active() if traced else contextlib.nullcontext():
                start = time.perf_counter()
                output = workload.scan(inputs)
                elapsed = time.perf_counter() - start
            samples[traced].append(elapsed)
            attempted += 1
            scan_problems = warmup_problems + workload.check(inputs, output, kept)
            if scan_problems:
                failed += 1
                problems += scan_problems[: 20 - len(problems)]
            del output
        # The repeated set-ups are spread evenly over the run, so that they
        # see the same host as the scans; their time counts as measured.
        while True:
            measured = sum(samples[False]) + sum(samples[True]) + setup_spent
            done = min(measured / seconds, 1.0) if seconds > 0 else 1.0
            if len(build_samples) - 1 >= (size.setup_reps - 1) * done:
                break
            setup_spent += repeat_setup()
        if measured >= seconds and len(samples[False]) >= size.min_scans:
            break
    setup_s = statistics.median(import_samples) + statistics.median(build_samples)

    scan_s_p50 = statistics.median(samples[False])
    if trace:
        layers = spans.layer_metrics(tracer.spans, len(samples[True]))
        traced_p50 = statistics.median(samples[True])
        traced_mean = statistics.fmean(samples[True])
        layers["trace.scan_s_p50"] = traced_p50
        layers["trace.harness_s"] = traced_mean - sum(layers[m] for m in spans.TIME_METRICS)
        layers["trace.overhead_frac"] = traced_p50 / scan_s_p50 - 1.0
        metrics = {m: _metric(layers[m], unit) for m, unit in PER_LAYER.items()}
    else:
        values = {
            "scan_s_p50": scan_s_p50,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **workload.accuracy(inputs, kept),
        }
        metrics = {m: _metric(values[m], unit) for m, unit in END_TO_END.items()}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "size": dataclasses.asdict(size),
        "environment": environment(),
        "loop": "closed, one client",
        "scan_samples_s": samples[False],
        "traced_scan_samples_s": samples[True],
        "import_samples_s": import_samples,
        "build_samples_s": build_samples,
        "problems": problems,
        "result": result,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{name}-seed{seed}-trace{int(bool(trace))}.json"
        body = dict(report)
        if trace:
            body["spans"] = [
                [s.name, s.start_ns, s.end_ns, s.parent, s.scan, s.counts] for s in tracer.spans
            ]
        path.write_text(json.dumps(body))
        report["report_file"] = os.path.relpath(path)
    return result, report
