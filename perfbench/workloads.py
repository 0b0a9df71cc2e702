"""The benchmark's three workloads: seeded inputs, one scan, and output checks.

Each workload is one closed-loop operation ("scan") over a fixed number of
settings. ``build`` makes every input from the seed; ``scan`` is the timed
call sequence into the program. ``warm_up`` runs one traced scan and checks
it in full: the coincidence counts that ``fringe_from_tags`` itself obtained
must equal the greedy reference below. ``keep`` reduces that scan's output to
what later scans must reproduce, and ``check`` runs on every timed scan and
requires it to reproduce that exactly, besides the cheap range and
finiteness checks.

All calls go through module attributes (``tagsim.generate_tags``, not a name
imported into this file) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

import spans
from noonchip import circuit, detection, fock, hom, sources, tagsim

# Detector pairs of the splitter tree: same-arm pairs, then the four cross pairs.
PAIRS = ((0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3))

# Accuracy metrics are reported no lower than this, so that an exact result
# reads as a small positive number rather than 0 or roundoff noise.
ACCURACY_FLOOR = 1e-12

# Probabilities computed through several complex matrix products may leave
# [0, 1] by roundoff; anything further out is a failure.
PROB_TOL = 1e-12

SPEED_OF_LIGHT_NM_PER_FS = 299.792458
# Root of (sin x / x)^2 = 1/2.
SINC2_HALF_X = 1.3915573782515103
HOM_CENTER_NM = 1562.0
HOM_FWHM_NM = 50.0
HOM_SHAPES = ("gaussian", "sinc2")


@dataclass(frozen=True)
class Size:
    """Problem size. FULL is the benchmark; SMOKE keeps the tests fast."""

    points: int = 24
    duration_s: float = 1.0  # acquisition time per phase point
    sweep_photons: int = 4  # photons in the 4-mode device_sweep state
    setup_reps: int = 7
    min_scans: int = 3


FULL = Size()
SMOKE = Size(points=6, duration_s=0.02, sweep_photons=2, setup_reps=2, min_scans=1)


# --- reference values ---------------------------------------------------------


def greedy_matches(a: list[int], b: list[int], half_width: float) -> int:
    """Coincidences between two sorted timestamp lists by the greedy walk.

    The benchmark's oracle for the counting rule: a candidate pairing defers
    to the next tag on the other channel when that one is strictly closer,
    and each tag is used at most once.
    """
    i = j = matched = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        dt = a[i] - b[j]
        if dt > half_width:
            j += 1
        elif dt < -half_width:
            i += 1
        elif dt > 0 and j + 1 < lb and abs(b[j + 1] - a[i]) < dt:
            j += 1
        elif dt < 0 and i + 1 < la and abs(a[i + 1] - b[j]) < -dt:
            i += 1
        else:
            matched += 1
            i += 1
            j += 1
    return matched


def reference_counts(stream, window_ps: float) -> dict[tuple[int, int], int]:
    per_channel = {
        c: stream.timestamps_ps[stream.channels == c].tolist() for c in {c for p in PAIRS for c in p}
    }
    return {p: greedy_matches(per_channel[p[0]], per_channel[p[1]], window_ps / 2.0) for p in PAIRS}


def exact_dip_fwhm_fs(shape: str) -> float:
    """Closed-form HOM dip width for the CW-pair kernel g(tau) of ``noonchip.hom``.

    Gaussian intensity: g = exp(-(W tau)^2 / 4 ln 2), width 4 ln 2 / W.
    sinc^2 intensity: g = max(0, 1 - |tau| / a) with a = 2 x_half / W, width a.
    """
    w = 2.0 * math.pi * SPEED_OF_LIGHT_NM_PER_FS * HOM_FWHM_NM / HOM_CENTER_NM**2
    return 4.0 * math.log(2.0) / w if shape == "gaussian" else 2.0 * SINC2_HALF_X / w


def hom_spec(shape: str):
    spectrum = sources.SpectrumSpec(center_nm=HOM_CENTER_NM, fwhm_nm=HOM_FWHM_NM, shape=shape)
    return hom.HomScanSpec(spectrum=spectrum, baseline_visibility=0.9)


def dip_rel_err(widths: dict[str, float]) -> float:
    return max(max(abs(widths[s] / exact_dip_fwhm_fs(s) - 1.0) for s in HOM_SHAPES), ACCURACY_FLOOR)


def probe_dip_widths() -> dict[str, float]:
    """dip_fwhm for both shapes; the scan workloads call it once, untimed."""
    return {s: hom.dip_fwhm(hom_spec(s)) for s in HOM_SHAPES}


# --- output comparison --------------------------------------------------------


def same(a, b) -> bool:
    """Exact structural equality of program outputs (NaN equals NaN)."""
    if is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=a.dtype.kind in "fc")
        )
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def _fits_finite(estimate) -> list[str]:
    bad = []
    for kind in ("fits", "fits_corrected"):
        for label, fit in getattr(estimate, kind).items():
            values = [getattr(fit, f.name) for f in fields(fit)]
            if not all(math.isfinite(v) for v in values if isinstance(v, float)):
                bad.append(f"{kind}[{label}] is not finite: {fit}")
    return bad


def _digest(stream) -> str:
    h = hashlib.sha256(repr(stream.duration_s).encode())
    h.update(stream.channels)
    h.update(stream.timestamps_ps)
    return h.hexdigest()


def _same_stream(a, b) -> bool:
    return (
        np.array_equal(a.channels, b.channels)
        and np.array_equal(a.timestamps_ps, b.timestamps_ps)
        and a.duration_s == b.duration_s
    )


def _phases(points: int) -> np.ndarray:
    return 2.0 * math.pi * np.arange(points) / points


def _point_seeds(rng, points: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=points)]


def _tag_configs(phases, seeds, purity, rate_hz, size, **noise):
    bs = circuit.mzi_unitary(math.pi / 2)
    configs = []
    for phase, seed in zip(phases, seeds):
        probs = detection.pattern_probs(fock.evolve(sources.noon_mixed(0.5, phase, purity), bs))
        configs.append(
            tagsim.TagSimConfig(rate_hz, tuple(float(p) for p in probs), size.duration_s, seed, **noise)
        )
    return configs


# --- workloads ----------------------------------------------------------------


class ScanClean:
    """The live experiment: generate each point's tags, then estimate the fringe.

    No darks and no jitter, so both clicks of a pair share a picosecond and
    the matcher's tie rules run on every scan. Counting dominates.
    """

    name = "scan_clean"
    purity = 0.9
    rate_hz = 40_000.0
    window_ps = 100.0

    def build(self, seed: int, size: Size) -> dict:
        rng = np.random.default_rng(seed)
        phases = _phases(size.points)
        configs = _tag_configs(phases, _point_seeds(rng, size.points), self.purity, self.rate_hz, size)
        return {"phases": phases, "configs": configs}

    def input_bytes(self, inputs) -> bytes:
        return inputs["phases"].tobytes() + repr(inputs["configs"]).encode()

    def scan(self, inputs):
        streams = [tagsim.generate_tags(c) for c in inputs["configs"]]
        estimate = tagsim.fringe_from_tags(list(zip(inputs["phases"], streams)), self.window_ps)
        return streams, estimate

    def verify(self, inputs, output, counted) -> list[str]:
        return _verify_counts(output[0], counted, self.window_ps)

    def keep(self, output):
        streams, estimate = output
        return [_digest(s) for s in streams], estimate

    def check(self, inputs, output, kept) -> list[str]:
        streams, estimate = output
        bad = _fits_finite(estimate)
        if [_digest(s) for s in streams] != kept[0]:
            bad.append("tag streams differ from the warm-up scan for the same configs")
        if not same(estimate, kept[1]):
            bad.append("fringe estimate differs from the warm-up scan for the same streams")
        return bad

    def accuracy(self, inputs, kept) -> dict[str, float]:
        return _tag_accuracy(kept[1].fits["1a1b"], self.purity)


class ReplayNoisy:
    """Offline re-analysis of an archived scan: write, read back, then estimate.

    Half the records are dark counts and every click is jittered, so there
    are no exact ties; tag I/O dominates.
    """

    name = "replay_noisy"
    purity = 0.8
    rate_hz = 20_000.0
    dark_hz = 10_000.0
    jitter_ps = 50.0
    window_ps = 1000.0

    def build(self, seed: int, size: Size) -> dict:
        rng = np.random.default_rng(seed)
        phases = _phases(size.points)
        configs = _tag_configs(
            phases,
            _point_seeds(rng, size.points),
            self.purity,
            self.rate_hz,
            size,
            dark_rate_hz=(self.dark_hz,) * 4,
            jitter_sigma_ps=self.jitter_ps,
        )
        return {"phases": phases, "archive": [tagsim.generate_tags(c) for c in configs]}

    def input_bytes(self, inputs) -> bytes:
        parts = [inputs["phases"].tobytes()]
        for s in inputs["archive"]:
            parts += [s.channels.tobytes(), s.timestamps_ps.tobytes(), repr(s.duration_s).encode()]
        return b"".join(parts)

    def scan(self, inputs):
        from_binary, from_csv = [], []
        for stream in inputs["archive"]:
            binary = tagsim.tags_to_bytes(stream, "binary")
            text = tagsim.tags_to_bytes(stream, "csv")
            from_binary.append(tagsim.tags_from_bytes(binary, "binary"))
            from_csv.append(tagsim.tags_from_bytes(text, "csv", duration_s=stream.duration_s))
        estimate = tagsim.fringe_from_tags(list(zip(inputs["phases"], from_binary)), self.window_ps)
        return from_binary, from_csv, estimate

    def verify(self, inputs, output, counted) -> list[str]:
        return _verify_counts(output[0], counted, self.window_ps)

    def keep(self, output):
        return output[2]

    def check(self, inputs, output, kept) -> list[str]:
        from_binary, from_csv, estimate = output
        bad = _fits_finite(estimate)
        archive = inputs["archive"]
        if not all(map(_same_stream, from_binary, archive)):
            bad.append("binary round trip changed a stream")
        if not all(map(_same_stream, from_csv, archive)):
            bad.append("CSV round trip changed a stream")
        if not same(estimate, kept):
            bad.append("fringe estimate differs from the warm-up scan for the same streams")
        return bad

    def accuracy(self, inputs, kept) -> dict[str, float]:
        return _tag_accuracy(kept.fits_corrected["1a1b"], self.purity)


def _tag_accuracy(fit, purity: float) -> dict[str, float]:
    return {
        "vis_abs_err": max(abs(fit.visibility - purity), ACCURACY_FLOOR),
        "hom_fwhm_rel_err": dip_rel_err(probe_dip_widths()),
    }


def _verify_counts(streams, counted, window_ps: float) -> list[str]:
    """Compare the counts fringe_from_tags obtained, one per stream, to the reference."""
    if len(counted) != len(streams):
        return [
            f"fringe_from_tags made {len(counted)} calls to the public counters for "
            f"{len(streams)} streams, so the counts behind its estimate cannot be checked"
        ]
    bad = []
    for k, (stream, got) in enumerate(zip(streams, counted)):
        want = reference_counts(stream, window_ps)
        if {p: got.get(p) for p in PAIRS} != want:
            bad.append(f"point {k}: counts {got} differ from the greedy reference {want}")
    return bad


class DeviceSweep:
    """The device model with no Monte Carlo: heater sweep, Fock lift, loss, HOM.

    Per point, one heater power drives a 4-mode netlist (two MZIs bridged by
    couplers) acting on |1,1,1,1>, and the 2-mode device state through
    compose, evolve, loss and pattern probabilities. The Fock lift dominates.
    """

    name = "device_sweep"
    purity = 0.9
    rad_per_mw = 0.25
    arm_transmission = 10.0 ** (-1.3)  # 13 dB collection loss per arm

    def build(self, seed: int, size: Size) -> dict:
        rng = np.random.default_rng(seed)
        period_mw = 2.0 * math.pi / self.rad_per_mw
        powers = (np.arange(size.points) + rng.random(size.points)) / size.points * period_mw
        n = size.sweep_photons
        basis = fock.enumerate_basis(4, n)
        start = (1,) * n + (0,) * (4 - n)
        rho = np.zeros((len(basis), len(basis)), dtype=complex)
        rho[basis.index(start), basis.index(start)] = 1.0
        t = self.arm_transmission
        device = circuit.CircuitSpec(
            2,
            (
                circuit.Coupler(0, 1),
                circuit.PhaseShifter(1, math.pi / 2),
                circuit.Coupler(0, 1),
                circuit.Loss(0, t),
                circuit.Loss(1, t),
            ),
        )
        detuning_nm = float(rng.uniform(0.5, 2.0))
        return {
            "powers": powers,
            "calibration": circuit.ThermoOpticCalibration(0.0, self.rad_per_mw),
            "state4": fock.DensityMatrix(tuple(basis), rho),
            "device": device,
            "overlap_specs": (
                sources.SpectrumSpec(center_nm=HOM_CENTER_NM),
                sources.SpectrumSpec(center_nm=HOM_CENTER_NM + detuning_nm),
            ),
        }

    def input_bytes(self, inputs) -> bytes:
        rest = {k: v for k, v in inputs.items() if k not in ("powers", "state4")}
        return inputs["powers"].tobytes() + inputs["state4"].matrix.tobytes() + repr(rest).encode()

    @staticmethod
    def four_mode_netlist(theta: float):
        c = circuit
        return c.CircuitSpec(
            4,
            (
                c.Coupler(0, 1), c.PhaseShifter(1, theta), c.Coupler(0, 1),
                c.Coupler(2, 3), c.PhaseShifter(3, theta), c.Coupler(2, 3),
                c.Coupler(1, 2), c.Coupler(0, 3),
            ),
        )

    def scan(self, inputs) -> dict:
        thetas, probs, probs4 = [], [], []
        for power in inputs["powers"]:
            theta = circuit.power_to_phase(inputs["calibration"], float(power))
            u4, _ = circuit.compose(self.four_mode_netlist(theta))
            probs4.append(fock.evolve(inputs["state4"], u4).probabilities())
            u2, transmission = circuit.compose(inputs["device"])
            rho = fock.evolve(sources.noon_mixed(0.5, theta, self.purity), u2)
            rho = detection.apply_loss(rho, float(transmission[0]), float(transmission[1]))
            probs.append(detection.pattern_probs(rho))
            thetas.append(theta)
        probs = np.array(probs)
        fit = detection.fit_fringe(np.array(thetas), probs[:, 1] / probs.sum(axis=1), 2.0)
        curves, widths, bandwidths = {}, {}, {}
        for shape in HOM_SHAPES:
            spec = hom_spec(shape)
            curves[shape] = hom.hom_coincidence(spec.delays_fs(), spec)
            widths[shape] = hom.dip_fwhm(spec)
            bandwidths[shape] = hom.bandwidth_from_dip(widths[shape], shape, HOM_CENTER_NM)
        overlap = sources.spectral_overlap(*inputs["overlap_specs"])
        return {
            "probs": probs,
            "probs4": np.array(probs4),
            "fit": fit,
            "curves": curves,
            "widths": widths,
            "bandwidths": bandwidths,
            "overlap": overlap,
        }

    def verify(self, inputs, output, counted) -> list[str]:
        return []

    def keep(self, output):
        return output

    def check(self, inputs, output, kept) -> list[str]:
        bad = []
        for key in ("probs", "probs4"):
            p = output[key]
            if not (np.all(p >= -PROB_TOL) and np.all(p <= 1.0 + PROB_TOL)):
                bad.append(f"{key} outside [0, 1]")
        if not np.allclose(output["probs4"].sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
            bad.append("4-mode output probabilities do not sum to 1")
        fit = output["fit"]
        if not all(math.isfinite(getattr(fit, f.name)) for f in fields(fit) if f.name != "flat"):
            bad.append(f"model fringe fit is not finite: {fit}")
        for shape in HOM_SHAPES:
            curve = output["curves"][shape]
            if not (np.all(np.isfinite(curve)) and np.all((curve >= 0.0) & (curve <= 1.0))):
                bad.append(f"{shape} HOM curve outside [0, 1]")
            if abs(output["bandwidths"][shape] / HOM_FWHM_NM - 1.0) > 1e-6:
                bad.append(f"{shape}: bandwidth_from_dip(dip_fwhm) = {output['bandwidths'][shape]} nm")
        if not 0.0 <= output["overlap"] <= 1.0:
            bad.append(f"spectral overlap {output['overlap']} outside [0, 1]")
        if not same(output, kept):
            bad.append("model outputs differ from the warm-up scan for the same inputs")
        return bad

    def accuracy(self, inputs, kept) -> dict[str, float]:
        return {
            "vis_abs_err": max(abs(kept["fit"].visibility - self.purity), ACCURACY_FLOOR),
            "hom_fwhm_rel_err": dip_rel_err(kept["widths"]),
        }


def warm_up(workload, inputs):
    """Run the untimed warm-up scan traced, check it in full, and return
    (what later scans must reproduce, the problems found).

    Tracing records the pair counts of each outermost count call, so the
    counts checked against the reference are the ones the scan's estimate
    was built from.
    """
    tracer = spans.Tracer()
    with tracer.active():
        output = workload.scan(inputs)
    kept = workload.keep(output)
    problems = workload.verify(inputs, output, spans.counted_pairs(tracer.spans))
    return kept, problems + workload.check(inputs, output, kept)


WORKLOADS = {w.name: w for w in (ScanClean(), ReplayNoisy(), DeviceSweep())}
