"""Every public number is checked.

NaN, ±inf, a bool, a string or an out-of-range value raises ValueError from
each public constructor and function that takes a number.
"""

import math

import numpy as np
import pytest

from noonchip import circuit, detection, fock, hom, sources, tagsim

RHO = sources.noon_mixed(0.5, 0.0, 0.9)
PHI = np.linspace(0.0, 2.0 * math.pi, 12)
CAL = circuit.ThermoOpticCalibration()
STREAM = tagsim.TagStream(np.array([0, 2]), np.array([0, 10]), 1.0)
SCANS = [(phi, STREAM) for phi in PHI]
CSV = b"channel,timestamp_ps\n0,5\n"


def tag_config(**kw):
    base = {"pair_rate_hz": 1e3, "pattern_probs": (0.0, 1.0, 0.0), "duration_s": 1.0, "seed": 1}
    return tagsim.TagSimConfig(**(base | kw))


# (probed input, call with the probed value x, a valid x, a finite x out of range or None).
PROBES = [
    ("SpectrumSpec.center_nm", lambda x: sources.SpectrumSpec(center_nm=x), 1550.0, 0.0),
    ("SpectrumSpec.fwhm_nm", lambda x: sources.SpectrumSpec(fwhm_nm=x), 0.5, -1.0),
    ("SourceRateSpec.brightness", lambda x: sources.SourceRateSpec(x, 1.0), 0.5, -1.0),
    ("SourceRateSpec.pump_mw", lambda x: sources.SourceRateSpec(1.0, x), 0.5, -1.0),
    ("noon_pure.balance", lambda x: sources.noon_pure(x, 0.0), 0.5, 1.5),
    ("noon_pure.phase", lambda x: sources.noon_pure(0.5, x), 0.5, None),
    ("noon_mixed.balance", lambda x: sources.noon_mixed(x, 0.0, 1.0), 0.5, -0.5),
    ("noon_mixed.phase", lambda x: sources.noon_mixed(0.5, x, 1.0), 0.5, None),
    ("noon_mixed.purity", lambda x: sources.noon_mixed(0.5, 0.0, x), 0.5, 1.5),
    ("HomScanSpec.delay_min_fs", lambda x: hom.HomScanSpec(delay_min_fs=x), -100.0, 300.0),
    ("HomScanSpec.delay_max_fs", lambda x: hom.HomScanSpec(delay_max_fs=x), 100.0, -400.0),
    ("HomScanSpec.delay_step_fs", lambda x: hom.HomScanSpec(delay_step_fs=x), 0.5, 0.0),
    ("HomScanSpec.baseline_visibility", lambda x: hom.HomScanSpec(baseline_visibility=x), 0.5, 1.5),
    ("bandwidth_from_dip.width_fs", lambda x: hom.bandwidth_from_dip(x), 0.5, 0.0),
    (
        "bandwidth_from_dip.center_nm",
        lambda x: hom.bandwidth_from_dip(70.0, center_nm=x),
        0.5, -1.0,
    ),
    ("PhaseShifter.mode", lambda x: circuit.PhaseShifter(x), 0, -1),
    ("PhaseShifter.theta", lambda x: circuit.PhaseShifter(0, x), 0.5, None),
    ("Coupler.mixing", lambda x: circuit.Coupler(0, 1, x), 0.5, None),
    ("Loss.transmission", lambda x: circuit.Loss(0, x), 0.5, 1.5),
    ("CircuitSpec.mode_count", lambda x: circuit.CircuitSpec(x, ()), 2, 0),
    (
        "ThermoOpticCalibration.theta0",
        lambda x: circuit.ThermoOpticCalibration(theta0=x),
        0.5, None,
    ),
    (
        "ThermoOpticCalibration.rad_per_mw",
        lambda x: circuit.ThermoOpticCalibration(rad_per_mw=x),
        0.5, 0.0,
    ),
    ("power_to_phase", lambda x: circuit.power_to_phase(CAL, x), 0.5, -1.0),
    ("mzi_unitary.theta", lambda x: circuit.mzi_unitary(x), 0.5, None),
    ("LossSpec entry", lambda x: detection.LossSpec({"grating_coupler": x}), 0.5, -1.0),
    ("apply_loss.eta_a", lambda x: detection.apply_loss(RHO, x, 1.0), 0.5, 1.5),
    ("apply_loss.eta_b", lambda x: detection.apply_loss(RHO, 1.0, x), 0.5, -0.5),
    ("fit_fringe.frequency", lambda x: detection.fit_fringe(PHI, np.cos(PHI) ** 2, x), 2.0, 0.0),
    ("loss_budget.rate", lambda x: detection.loss_budget(x, 13.0, 1.0), 0.5, -1.0),
    ("loss_budget.loss", lambda x: detection.loss_budget(1e3, x, 1.0), 0.5, -1.0),
    ("loss_budget.pump", lambda x: detection.loss_budget(1e3, 13.0, x), 0.5, 0.0),
    ("enumerate_basis.mode_count", lambda x: fock.enumerate_basis(x, 2), 2, 0),
    ("enumerate_basis.photon_number", lambda x: fock.enumerate_basis(2, x), 2, -1),
    ("lift_unitary.photon_number", lambda x: fock.lift_unitary(np.eye(2), x), 2, -1),
    ("enumerate_sectors.max_photon_number", lambda x: fock.enumerate_sectors(2, x), 2, -1),
    ("TagSimConfig.pair_rate_hz", lambda x: tag_config(pair_rate_hz=x), 0.5, -1.0),
    ("TagSimConfig.duration_s", lambda x: tag_config(duration_s=x), 0.5, 2e7),
    ("TagSimConfig.seed", lambda x: tag_config(seed=x), 7, -1),
    ("TagSimConfig.jitter_sigma_ps", lambda x: tag_config(jitter_sigma_ps=x), 0.5, -1.0),
    ("TagSimConfig.pattern_probs", lambda x: tag_config(pattern_probs=(x, 0.5, 0.0)), 0.5, 0.6),
    (
        "TagSimConfig.pattern_probs scalar",
        lambda x: tag_config(pattern_probs=x),
        (0.0, 1.0, 0.0), 0.5,
    ),
    (
        "TagSimConfig.detector_efficiency",
        lambda x: tag_config(detector_efficiency=(1, x, 1, 1)),
        0.5, 1.5,
    ),
    ("TagSimConfig.mode_transmission", lambda x: tag_config(mode_transmission=(x, 1.0)), 0.5, -0.5),
    ("TagSimConfig.dark_rate_hz", lambda x: tag_config(dark_rate_hz=(0, 0, 0, x)), 0.5, -1.0),
    ("TagSimConfig.dark_rate_hz scalar", lambda x: tag_config(dark_rate_hz=x), 0.5, -1.0),
    ("TagStream.duration_s", lambda x: tagsim.TagStream(np.array([0]), np.array([0]), x), 0.5, 0.0),
    (
        "count_coincidences.window_ps",
        lambda x: tagsim.count_coincidences(STREAM, x, [(0, 2)]),
        0.5, 0.0,
    ),
    (
        "count_coincidences.channel",
        lambda x: tagsim.count_coincidences(STREAM, 1e3, [(0, x)]),
        2, -1,
    ),
    (
        "count_pattern_coincidences.window_ps",
        lambda x: tagsim.count_pattern_coincidences(STREAM, x),
        0.5, -1.0,
    ),
    ("fringe_from_tags.window_ps", lambda x: tagsim.fringe_from_tags(SCANS, x), 0.5, 0.0),
    ("fringe_from_tags.frequency", lambda x: tagsim.fringe_from_tags(SCANS, 1e3, x), 2.0, 0.0),
    ("tags_from_bytes.duration_s", lambda x: tagsim.tags_from_bytes(CSV, "csv", x), 0.5, 0.0),
]

BAD_VALUES = [math.nan, math.inf, -math.inf, True, "1"]

# The probes that raised TypeError or were accepted as 1 before every number went through one
# check, then those that a numpy cast read as numbers until dtypes were checked.
FORMER_ESCAPES = [
    ("SpectrumSpec(center_nm='x')", lambda: sources.SpectrumSpec(center_nm="x")),
    ("HomScanSpec(delay_step_fs=None)", lambda: hom.HomScanSpec(delay_step_fs=None)),
    ("TagSimConfig(1.0, 0.5, 1.0, 1)", lambda: tagsim.TagSimConfig(1.0, 0.5, 1.0, 1)),
    ("noon_pure('0.5', 0.0)", lambda: sources.noon_pure("0.5", 0.0)),
    ("apply_loss(rho, '1', 1.0)", lambda: detection.apply_loss(RHO, "1", 1.0)),
    ("SpectrumSpec(center_nm=True)", lambda: sources.SpectrumSpec(center_nm=True)),
    ("HomScanSpec(baseline_visibility=True)", lambda: hom.HomScanSpec(baseline_visibility=True)),
    ("noon_pure(True, 0.0)", lambda: sources.noon_pure(True, 0.0)),
    ("noon_mixed(0.5, 0.0, True)", lambda: sources.noon_mixed(0.5, 0.0, True)),
    ("apply_loss(rho, True, 1.0)", lambda: detection.apply_loss(RHO, True, 1.0)),
    ("TagStream(duration_s=True)", lambda: tagsim.TagStream(np.array([0]), np.array([0]), True)),
    ("detector_efficiency bool", lambda: tag_config(detector_efficiency=(True,) * 4)),
    ("pattern_probs bool", lambda: tag_config(pattern_probs=(False, True, False))),
    ("dark_rate_hz bool", lambda: tag_config(dark_rate_hz=(True, 0, 0, 0))),
    ("TagStream string timestamp", lambda: tagsim.TagStream(np.array([0]), np.array(["5"]), 1.0)),
    (
        "TagStream bool channel id",
        lambda: tagsim.TagStream(np.array([0]), np.array([0]), 1.0, channel_ids=(0, True)),
    ),
    ("hom_coincidence('1')", lambda: hom.hom_coincidence("1", hom.HomScanSpec())),
    ("hom_coincidence(True)", lambda: hom.hom_coincidence(True, hom.HomScanSpec())),
    ("hom_coincidence(['1'])", lambda: hom.hom_coincidence(np.array(["1"]), hom.HomScanSpec())),
]

CASES = [
    pytest.param(lambda call=call, x=x: call(x), id=f"{name}={x!r}")
    for name, call, _, out_of_range in PROBES
    for x in BAD_VALUES + ([] if out_of_range is None else [out_of_range])
] + [pytest.param(probe, id=name) for name, probe in FORMER_ESCAPES]


@pytest.mark.parametrize("probe", CASES)
def test_bad_number_raises_value_error(probe):
    with pytest.raises(ValueError):
        probe()


@pytest.mark.parametrize("call, valid", [p[1:3] for p in PROBES], ids=[p[0] for p in PROBES])
def test_probe_accepts_its_valid_number(call, valid):
    # So that each bad value above is what raises, not the rest of the call.
    call(valid)
