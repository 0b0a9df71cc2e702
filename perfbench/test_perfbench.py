"""Tests of the benchmark itself, at the SMOKE size.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import functools
import json
from pathlib import Path
from unittest import mock

import pytest

import harness

harness.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from noonchip import fock, tagsim  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def smoke_runs():
    return {
        (name, trace): harness.run(name, 3, 0.0, trace, size=workloads.SMOKE, out_dir=None)
        for name in NAMES
        for trace in (False, True)
    }


def test_benchmark_json_names_the_workloads():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_builds_identical_inputs(name):
    w = workloads.WORKLOADS[name]
    first = w.input_bytes(w.build(11, workloads.SMOKE))
    assert first == w.input_bytes(w.build(11, workloads.SMOKE))
    assert first != w.input_bytes(w.build(12, workloads.SMOKE))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_in_benchmark_json_is_emitted(smoke_runs, name, trace):
    result, _ = smoke_runs[(name, trace)]
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == {
        m["name"]: m["unit"] for m in listed
    }
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_its_checks(smoke_runs, name, trace):
    result, report = smoke_runs[(name, trace)]
    assert report["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    reps = workloads.SMOKE.setup_reps
    assert len(report["import_samples_s"]) == len(report["build_samples_s"]) == reps


def _run_fails_every_scan(name, problem):
    result, report = harness.run(name, 3, 0.0, False, size=workloads.SMOKE, out_dir=None)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert problem in report["problems"][0]


@pytest.mark.parametrize("name", ["scan_clean", "replay_noisy"])
def test_wrong_counts_fail_every_scan(monkeypatch, name):
    real = tagsim.count_pattern_coincidences

    @functools.wraps(real)
    def off_by_one(stream, window_ps):
        res = real(stream, window_ps)
        res.pair_counts[(0, 2)] += 1
        return res

    monkeypatch.setattr(tagsim, "count_pattern_coincidences", off_by_one)
    _run_fails_every_scan(name, "greedy reference")


def test_counts_outside_the_public_counters_fail_every_scan(monkeypatch):
    """The fringe counts through a private path, so its counts go unseen."""
    real_fringe, real_count = tagsim.fringe_from_tags, tagsim.count_coincidences

    def private_count(stream, window_ps):
        res = real_count(stream, window_ps, tagsim.STANDARD_PAIRS)
        res.pair_counts[(0, 2)] += 1
        return res

    def fringe_from_tags(scans, window_ps, frequency=2.0):
        with mock.patch.object(tagsim, "count_pattern_coincidences", private_count):
            return real_fringe(scans, window_ps, frequency)

    monkeypatch.setattr(tagsim, "fringe_from_tags", fringe_from_tags)
    _run_fails_every_scan("scan_clean", "cannot be checked")


def _parent_names(tracer):
    return [(s.name, tracer.spans[s.parent].name if s.parent >= 0 else None) for s in tracer.spans]


def test_traced_spans_nest_and_originals_come_back():
    original = (tagsim.generate_tags, tagsim.fit_fringe, fock.lift_unitary)
    tracer = spans.Tracer()
    for name in ("scan_clean", "device_sweep"):
        w = workloads.WORKLOADS[name]
        inputs = w.build(5, workloads.SMOKE)
        with tracer.active():
            w.scan(inputs)
    pairs = set(_parent_names(tracer))
    assert ("tagsim.fringe_from_tags", None) in pairs
    assert ("tagsim.count_pattern_coincidences", "tagsim.fringe_from_tags") in pairs
    assert ("tagsim.count_coincidences", "tagsim.count_pattern_coincidences") in pairs
    if hasattr(tagsim, "_match_sorted"):
        assert ("tagsim._match_sorted", "tagsim.count_coincidences") in pairs
    assert ("detection.fit_fringe", "tagsim.fringe_from_tags") in pairs
    assert ("fock.lift_unitary", "fock.evolve") in pairs
    assert ("hom.dip_fwhm", "hom.bandwidth_from_dip") in pairs
    assert all(s.end_ns >= s.start_ns for s in tracer.spans)
    assert {s.scan for s in tracer.spans} == {0, 1}
    assert (tagsim.generate_tags, tagsim.fit_fringe, fock.lift_unitary) == original


def test_self_time_subtracts_direct_children_only():
    S = spans.Span
    trace = [
        S("tagsim.fringe_from_tags", 0, 100, -1, 0),
        S("tagsim.count_pattern_coincidences", 10, 70, 0, 0, {"records": 50, "coincidences": 20}),
        S("tagsim.count_coincidences", 12, 68, 1, 0, {"records": 50, "coincidences": 20}),
        S("tagsim._match_sorted", 20, 60, 2, 0),
        S("detection.fit_fringe", 80, 90, 0, 0),
    ]
    assert spans.self_times_ns(trace) == [30, 4, 16, 40, 10]
    m = spans.layer_metrics(trace, scans=1)
    assert m["tagsim.count_s"] == pytest.approx(60e-9)
    assert m["tagsim.fringe_self_s"] == pytest.approx(30e-9)
    assert m["tagsim.count_records"] == 50  # counted once, at the outermost count span
    assert m["tagsim.count_coinc_per_record"] == pytest.approx(0.4)
    assert m["detection.fit_calls"] == 1
