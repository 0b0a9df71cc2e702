"""Golden seeded outputs: every seeded stream, archive, count and fit, pinned.

For seeds 1, 7 and 911 this builds small versions of the benchmark's three
workloads from noonchip calls: the clean live scan, the noisy archived scan
(darks and jitter) and the device chain (heater sweep, 4-mode lift, loss).
It compares them with the entries in ``golden.json``:

- the sha256 of each ``generate_tags`` stream and of its binary and CSV bytes;
- the pair counts of the six standard detector pairs at 100 ps, 1 ns and 1 us;
- the fringe estimates, the pattern probabilities and the 4-mode
  probabilities, to 1e-12.

A fast path must leave all of them unchanged.  Only a declared change of the
sampling model rewrites the file, with ``python tests/test_golden.py``, and
says in CHANGES.md which entries moved and why.
"""

import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from noonchip import circuit, detection, fock, sources, tagsim

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (1, 7, 911)
POINTS = 6
DURATION_S = 0.05
WINDOWS_PS = (100.0, 1000.0, 1e6)
TOLERANCE = 1e-12


def stream_sha256(stream) -> str:
    h = hashlib.sha256(repr(float(stream.duration_s)).encode())
    h.update(stream.channels.astype("u1").tobytes())
    h.update(stream.timestamps_ps.astype("<i8").tobytes())
    return h.hexdigest()


def tag_configs(seed, purity, rate_hz, **noise):
    """One TagSimConfig per phase point, seeded from `seed` as the benchmark seeds them."""
    rng = np.random.default_rng(seed)
    phases = 2.0 * math.pi * np.arange(POINTS) / POINTS
    point_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=POINTS)]
    bs = circuit.mzi_unitary(math.pi / 2)
    configs = []
    for phase, point_seed in zip(phases, point_seeds):
        probs = detection.pattern_probs(fock.evolve(sources.noon_mixed(0.5, phase, purity), bs))
        probs = tuple(float(p) for p in probs)
        configs.append(tagsim.TagSimConfig(rate_hz, probs, DURATION_S, point_seed, **noise))
    return phases, configs


def fringe_entry(estimate) -> dict:
    return {
        "fractions": {k: v.tolist() for k, v in estimate.fractions.items()},
        "sigmas": {k: v.tolist() for k, v in estimate.sigmas.items()},
        "fractions_corrected": {k: v.tolist() for k, v in estimate.fractions_corrected.items()},
        "fits": {k: asdict(v) for k, v in estimate.fits.items()},
        "fits_corrected": {k: asdict(v) for k, v in estimate.fits_corrected.items()},
        "visibility_sigma": estimate.visibility_sigma,
        "insufficient": estimate.insufficient,
    }


def tag_entry(seed, purity, rate_hz, window_ps, **noise) -> dict:
    phases, configs = tag_configs(seed, purity, rate_hz, **noise)
    streams = [tagsim.generate_tags(c) for c in configs]
    entries = []
    for stream in streams:
        binary = tagsim.tags_to_bytes(stream, "binary")
        text = tagsim.tags_to_bytes(stream, "csv")
        # Each archive must read back to the stream it was written from.
        for back in (
            tagsim.tags_from_bytes(binary, "binary"),
            tagsim.tags_from_bytes(text, "csv", stream.duration_s),
        ):
            assert stream_sha256(back) == stream_sha256(stream)
        counts = {
            f"{w:g}": [
                tagsim.count_pattern_coincidences(stream, w).pair_counts[p]
                for p in tagsim.STANDARD_PAIRS
            ]
            for w in WINDOWS_PS
        }
        entries.append(
            {
                "records": len(stream),
                "sha256": stream_sha256(stream),
                "binary_sha256": hashlib.sha256(binary).hexdigest(),
                "csv_sha256": hashlib.sha256(text).hexdigest(),
                "pair_counts": counts,
            }
        )
    estimate = tagsim.fringe_from_tags(list(zip(phases, streams)), window_ps)
    return {
        "pattern_probs": [list(c.pattern_probs) for c in configs],
        "streams": entries,
        "fringe": fringe_entry(estimate),
    }


def four_mode_netlist(theta):
    c = circuit
    return c.CircuitSpec(
        4,
        (
            c.Coupler(0, 1), c.PhaseShifter(1, theta), c.Coupler(0, 1),
            c.Coupler(2, 3), c.PhaseShifter(3, theta), c.Coupler(2, 3),
            c.Coupler(1, 2), c.Coupler(0, 3),
        ),
    )


def device_entry(seed, purity=0.9, rad_per_mw=0.25, transmission=10.0 ** (-1.3)) -> dict:
    """The benchmark's device sweep: a seeded heater sweep through a 2-mode MZI with
    13 dB loss per arm, and |1,1,1,1> through a 4-mode netlist at each heater phase."""
    rng = np.random.default_rng(seed)
    period_mw = 2.0 * math.pi / rad_per_mw
    powers = (np.arange(POINTS) + rng.random(POINTS)) / POINTS * period_mw
    basis = tuple(fock.enumerate_basis(4, 4))
    rho4 = np.zeros((len(basis), len(basis)), dtype=complex)
    rho4[basis.index((1, 1, 1, 1)), basis.index((1, 1, 1, 1))] = 1.0
    state4 = fock.DensityMatrix(basis, rho4)
    device = circuit.CircuitSpec(
        2,
        (
            circuit.Coupler(0, 1),
            circuit.PhaseShifter(1, math.pi / 2),
            circuit.Coupler(0, 1),
            circuit.Loss(0, transmission),
            circuit.Loss(1, transmission),
        ),
    )
    calibration = circuit.ThermoOpticCalibration(0.0, rad_per_mw)
    thetas, probs, probs4 = [], [], []
    for power in powers:
        theta = circuit.power_to_phase(calibration, float(power))
        u4, _ = circuit.compose(four_mode_netlist(theta))
        probs4.append(fock.evolve(state4, u4).probabilities())
        u2, eta = circuit.compose(device)
        rho = fock.evolve(sources.noon_mixed(0.5, theta, purity), u2)
        rho = detection.apply_loss(rho, float(eta[0]), float(eta[1]))
        probs.append(detection.pattern_probs(rho))
        thetas.append(theta)
    probs = np.array(probs)
    fit = detection.fit_fringe(np.array(thetas), probs[:, 1] / probs.sum(axis=1), 2.0)
    return {
        "pattern_probs": probs.tolist(),
        "probs4": np.array(probs4).tolist(),
        "fit": asdict(fit),
    }


BUILDERS = {
    "scan_clean": lambda seed: tag_entry(seed, 0.9, 40_000.0, 100.0),
    "replay_noisy": lambda seed: tag_entry(
        seed, 0.8, 20_000.0, 1000.0, dark_rate_hz=(10_000.0,) * 4, jitter_sigma_ps=50.0
    ),
    "device_chain": device_entry,
}


def mismatches(got, want, where="") -> list[str]:
    """Paths at which got differs from want: floats by more than TOLERANCE, all else exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for i, g in enumerate(got) for m in mismatches(g, want[i], f"{where}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if got == want or abs(got - want) <= TOLERANCE:
            return []
        return [f"{where}: {got!r} != {want!r}"]
    return [] if type(got) is type(want) and got == want else [f"{where}: {got!r} != {want!r}"]


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_seeded_outputs_equal_the_golden_entries(workload, seed):
    golden = load_golden()
    want = golden["entries"][f"{workload}/seed{seed}"]
    # A JSON round trip gives the entry the types golden.json holds (tuples become lists).
    got = json.loads(json.dumps(BUILDERS[workload](seed)))
    bad = mismatches(got, want)
    assert not bad, (
        f"{workload}, seed {seed}: {len(bad)} values differ from tests/golden.json, "
        f"whose entries were taken with numpy {golden['numpy']}; this run has numpy "
        f"{np.__version__}.  First differences: {bad[:5]}"
    )


def test_golden_file_covers_every_workload_and_seed():
    entries = load_golden()["entries"]
    assert sorted(entries) == sorted(f"{w}/seed{s}" for w in BUILDERS for s in SEEDS)


def json_lines(obj, indent="") -> str:
    """JSON with one line per value below the fourth level of objects, so that a
    changed stream or fit is one changed line."""
    if not isinstance(obj, dict) or len(indent) >= 3:
        return json.dumps(obj)
    inner = indent + " "
    items = ",\n".join(f"{inner}{json.dumps(k)}: {json_lines(v, inner)}" for k, v in obj.items())
    return "{\n" + items + "\n" + indent + "}"


def write_golden() -> None:
    entries = {f"{w}/seed{s}": build(s) for w, build in sorted(BUILDERS.items()) for s in SEEDS}
    doc = {"numpy": np.__version__, "python": sys.version.split()[0], "entries": entries}
    GOLDEN.write_text(json_lines(doc) + "\n")


if __name__ == "__main__":
    # Rewrites golden.json: only for a declared change of the sampling model.
    write_golden()
