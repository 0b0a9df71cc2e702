"""Every public number is checked.

NaN, ±inf, a bool, a string or an out-of-range value raises ValueError from
each public constructor and function that takes a number.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from noonchip import circuit, detection, fock, hom, sources, tagsim

RHO = sources.noon_mixed(0.5, 0.0, 0.9)
RHO3 = fock.DensityMatrix(tuple(fock.enumerate_basis(3, 1)), np.eye(3) / 3)
PHI = np.linspace(0.0, 2.0 * math.pi, 12)
CAL = circuit.ThermoOpticCalibration()
STREAM = tagsim.TagStream(np.array([0, 2]), np.array([0, 10]), 1.0)
SCANS = [(phi, STREAM) for phi in PHI]
CSV = b"channel,timestamp_ps\n0,5\n"


def noon_pure(balance, phase):
    """The pure two-photon path state: noon_mixed at purity 1."""
    return sources.noon_mixed(balance, phase, 1.0)


def tag_config(**kw):
    base = {"pair_rate_hz": 1e3, "pattern_probs": (0.0, 1.0, 0.0), "duration_s": 1.0, "seed": 1}
    return tagsim.TagSimConfig(**(base | kw))


# (probed input, call with the probed value x, a valid x, a finite x out of range or None).
PROBES = [
    ("SpectrumSpec.center_nm", lambda x: sources.SpectrumSpec(center_nm=x), 1550.0, 0.0),
    ("SpectrumSpec.fwhm_nm", lambda x: sources.SpectrumSpec(fwhm_nm=x), 0.5, -1.0),
    ("SourceRateSpec.brightness", lambda x: sources.SourceRateSpec(x, 1.0), 0.5, -1.0),
    ("SourceRateSpec.pump_mw", lambda x: sources.SourceRateSpec(1.0, x), 0.5, -1.0),
    ("noon_pure.balance", lambda x: noon_pure(x, 0.0), 0.5, 1.5),
    ("noon_pure.phase", lambda x: noon_pure(0.5, x), 0.5, None),
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
    ("db_to_transmission", lambda x: detection.db_to_transmission(x), 0.5, -5.0),
    ("apply_loss.eta_a", lambda x: detection.apply_loss(RHO, x, 1.0), 0.5, 1.5),
    ("apply_loss.eta_b", lambda x: detection.apply_loss(RHO, 1.0, x), 0.5, -0.5),
    *[
        (
            f"apply_loss.transmissions[{k}] of 3",
            lambda x, k=k: detection.apply_loss(RHO3, *[1.0] * k, x, *[1.0] * (2 - k)),
            0.5, 1.5,
        )
        for k in range(3)
    ],
    ("fit_fringe.frequency", lambda x: detection.fit_fringe(PHI, np.cos(PHI) ** 2, x), 2.0, 0.0),
    ("loss_budget.rate", lambda x: detection.loss_budget(x, 13.0, 1.0), 0.5, -1.0),
    ("loss_budget.loss", lambda x: detection.loss_budget(1e3, x, 1.0), 0.5, -1.0),
    ("loss_budget.pump", lambda x: detection.loss_budget(1e3, 13.0, x), 0.5, 0.0),
    ("enumerate_basis.mode_count", lambda x: fock.enumerate_basis(x, 2), 2, 0),
    ("enumerate_basis.photon_number", lambda x: fock.enumerate_basis(2, x), 2, -1),
    ("lift_unitary.photon_number", lambda x: fock.lift_unitary(np.eye(2), x), 2, -1),
    ("enumerate_sectors.max_photon_number", lambda x: fock.enumerate_sectors(2, x), 2, -1),
    ("DensityMatrix.sector_weight", lambda x: RHO.sector_weight(x), 2, -1),
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
    ("TagStream.channels", lambda x: tagsim.TagStream(np.array([x]), np.array([0]), 1.0), 3, 4),
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
# check, then those that a numpy cast read as numbers until dtypes were checked, then a delay
# grid with an infinite point count, which delays_fs() met as OverflowError, and one of
# 10^16 points, which it met as MemoryError.  Last, a fractional photon number, whose sector
# weight read 0.0.
FORMER_ESCAPES = [
    ("SpectrumSpec(center_nm='x')", lambda: sources.SpectrumSpec(center_nm="x")),
    ("HomScanSpec(delay_step_fs=None)", lambda: hom.HomScanSpec(delay_step_fs=None)),
    ("TagSimConfig(1.0, 0.5, 1.0, 1)", lambda: tagsim.TagSimConfig(1.0, 0.5, 1.0, 1)),
    ("noon_pure('0.5', 0.0)", lambda: noon_pure("0.5", 0.0)),
    ("apply_loss(rho, '1', 1.0)", lambda: detection.apply_loss(RHO, "1", 1.0)),
    ("SpectrumSpec(center_nm=True)", lambda: sources.SpectrumSpec(center_nm=True)),
    ("HomScanSpec(baseline_visibility=True)", lambda: hom.HomScanSpec(baseline_visibility=True)),
    ("noon_pure(True, 0.0)", lambda: noon_pure(True, 0.0)),
    ("noon_mixed(0.5, 0.0, True)", lambda: sources.noon_mixed(0.5, 0.0, True)),
    ("apply_loss(rho, True, 1.0)", lambda: detection.apply_loss(RHO, True, 1.0)),
    ("TagStream(duration_s=True)", lambda: tagsim.TagStream(np.array([0]), np.array([0]), True)),
    ("detector_efficiency bool", lambda: tag_config(detector_efficiency=(True,) * 4)),
    ("pattern_probs bool", lambda: tag_config(pattern_probs=(False, True, False))),
    ("dark_rate_hz bool", lambda: tag_config(dark_rate_hz=(True, 0, 0, 0))),
    ("TagStream string timestamp", lambda: tagsim.TagStream(np.array([0]), np.array(["5"]), 1.0)),
    (
        "TagStream bool channel id",
        lambda: tagsim.TagStream(np.array([False, True]), np.array([0, 0]), 1.0),
    ),
    ("hom_coincidence('1')", lambda: hom.hom_coincidence("1", hom.HomScanSpec())),
    ("hom_coincidence(True)", lambda: hom.hom_coincidence(True, hom.HomScanSpec())),
    ("hom_coincidence(['1'])", lambda: hom.hom_coincidence(np.array(["1"]), hom.HomScanSpec())),
    ("HomScanSpec(-1e300, 1e300, 1e-300)", lambda: hom.HomScanSpec(-1e300, 1e300, 1e-300)),
    ("HomScanSpec(0.0, 1e12, 1e-4)", lambda: hom.HomScanSpec(0.0, 1e12, 1e-4)),
    ("sector_weight(2.5)", lambda: RHO.sector_weight(2.5)),
]


def binary_with_last_channel(channel):
    """STREAM's binary file with its last record's channel byte replaced."""
    data = tagsim.tags_to_bytes(STREAM, "binary")
    return data[:-9] + bytes([channel]) + data[-8:]


# A channel is one of the four detectors, 0..3, wherever a stream enters: the constructor
# and both readers.  The binary record's one byte cannot hold the 19-digit channel.
OUTSIDE_CHANNELS = [4, 255, 10**19 - 1]
CHANNEL_ENTRIES = [
    ("TagStream", lambda c: tagsim.TagStream(np.array([0, c]), [0, 1], 1.0), OUTSIDE_CHANNELS),
    ("csv", lambda c: tagsim.tags_from_bytes(CSV + b"%d,7\n" % c, "csv"), OUTSIDE_CHANNELS),
    (
        "binary",
        lambda c: tagsim.tags_from_bytes(binary_with_last_channel(c), "binary"),
        OUTSIDE_CHANNELS[:2],
    ),
]
CHANNEL_PROBES = [
    (f"{entry} channel {c}", lambda call=call, c=c: call(c))
    for entry, call, outside in CHANNEL_ENTRIES
    for c in outside
]

CASES = [
    pytest.param(lambda call=call, x=x: call(x), id=f"{name}={x!r}")
    for name, call, _, out_of_range in PROBES
    for x in BAD_VALUES + ([] if out_of_range is None else [out_of_range])
] + [pytest.param(probe, id=name) for name, probe in FORMER_ESCAPES + CHANNEL_PROBES]


@pytest.mark.parametrize("probe", CASES)
def test_bad_number_raises_value_error(probe):
    with pytest.raises(ValueError):
        probe()


@pytest.mark.parametrize("call, valid", [p[1:3] for p in PROBES], ids=[p[0] for p in PROBES])
def test_probe_accepts_its_valid_number(call, valid):
    # So that each bad value above is what raises, not the rest of the call.
    call(valid)


@pytest.mark.parametrize("call", [pytest.param(call, id=entry) for entry, call, _ in CHANNEL_ENTRIES])
def test_channel_probe_accepts_detector_3(call):
    # So that each channel above is what raises.
    assert len(call(3)) == 2


@pytest.mark.parametrize("state", [RHO, RHO3], ids=["2 modes", "3 modes"])
@pytest.mark.parametrize("offset", [None, -1, 1], ids=["none", "one short", "one over"])
def test_apply_loss_takes_one_transmission_per_mode(state, offset):
    count = 0 if offset is None else state.mode_count + offset
    with pytest.raises(ValueError, match=f"must be {state.mode_count} numbers, got {count}"):
        detection.apply_loss(state, *[0.5] * count)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf]).flatmap(
    lambda x: st.sampled_from([x, np.float64(x)])
)


@st.composite
def tag_config_fields(draw):
    """Valid TagSimConfig fields, drawn; the dark rate as a scalar or a 4-tuple."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(any))
    return {
        "pair_rate_hz": draw(st.floats(0.0, 1e9)),
        "pattern_probs": tuple(w / sum(weights) for w in weights[:3]),
        "duration_s": draw(st.floats(1e-9, 1e6)),
        "seed": draw(st.integers(0, 2**63 - 1)),
        "detector_efficiency": draw(st.tuples(*[st.floats(0.0, 1.0)] * 4)),
        "mode_transmission": draw(st.tuples(*[st.floats(0.0, 1.0)] * 2)),
        "dark_rate_hz": draw(st.floats(0.0, 1e9) | st.tuples(*[st.floats(0.0, 1e9)] * 4)),
        "jitter_sigma_ps": draw(st.floats(0.0, 1e9)),
    }


# Every numeric slot of TagSimConfig: a scalar field, or a field and an index into its tuple.
TAG_CONFIG_SLOTS = [
    ("pair_rate_hz", None),
    ("duration_s", None),
    ("jitter_sigma_ps", None),
    ("dark_rate_hz", None),
    *[("pattern_probs", i) for i in range(3)],
    *[("detector_efficiency", i) for i in range(4)],
    *[("mode_transmission", i) for i in range(2)],
    *[("dark_rate_hz", i) for i in range(4)],
]


@given(tag_config_fields(), st.sampled_from(TAG_CONFIG_SLOTS), NON_FINITE)
def test_tag_config_rejects_a_non_finite_value_in_any_slot(fields, slot, bad):
    tagsim.TagSimConfig(**fields)
    name, index = slot
    if index is None:
        fields[name] = bad
    else:
        value = fields[name]
        values = list(value) if isinstance(value, tuple) else [value] * 4
        values[index] = bad
        fields[name] = tuple(values)
    with pytest.raises(ValueError):
        tagsim.TagSimConfig(**fields)


@st.composite
def hom_scan_fields(draw):
    """Valid HomScanSpec fields: a non-empty delay range, a positive step.

    The step gives at most 10^6 + 1 delay points, well inside the 10^7 limit.
    """
    delay_min = draw(st.floats(-1e6, 1e6))
    span = draw(st.floats(1e-3, 1e6))
    return {
        "delay_min_fs": delay_min,
        "delay_max_fs": delay_min + span,
        "delay_step_fs": draw(st.floats(max(1e-3, span * 1e-6), 1e3)),
        "spectrum": sources.SpectrumSpec(),
        "baseline_visibility": draw(st.floats(0.0, 1.0)),
    }


@st.composite
def element_fields(draw, modes, param, values):
    """Valid fields of a circuit element: distinct modes, then its parameter."""
    indices = st.lists(st.integers(0, 64), min_size=len(modes), max_size=len(modes), unique=True)
    return dict(zip(modes, draw(indices))) | {param: draw(values)}


_LOSS_DB = st.dictionaries(st.text(min_size=1, max_size=8), st.floats(0.0, 60.0), min_size=1)
_ANGLE = st.floats(-1e3, 1e3)

# Constructor, a strategy of its valid fields, and its numeric fields.  A dict field is a
# dB breakdown; one of its entries is replaced.
CONSTRUCTORS = {
    "SpectrumSpec": (
        sources.SpectrumSpec,
        st.fixed_dictionaries(
            {
                "center_nm": st.floats(1.0, 1e5),
                "fwhm_nm": st.floats(1e-3, 1e3),
                "shape": st.sampled_from(["gaussian", "sinc2"]),
            }
        ),
        ["center_nm", "fwhm_nm"],
    ),
    "SourceRateSpec": (
        sources.SourceRateSpec,
        st.fixed_dictionaries(
            {"brightness_pairs_per_s_per_mw": st.floats(0.0, 1e12), "pump_mw": st.floats(0.0, 1e3)}
        ),
        ["brightness_pairs_per_s_per_mw", "pump_mw"],
    ),
    "HomScanSpec": (
        hom.HomScanSpec,
        hom_scan_fields(),
        ["delay_min_fs", "delay_max_fs", "delay_step_fs", "baseline_visibility"],
    ),
    "LossSpec": (
        detection.LossSpec,
        st.fixed_dictionaries({"breakdown_a_db": _LOSS_DB, "breakdown_b_db": _LOSS_DB}),
        ["breakdown_a_db", "breakdown_b_db"],
    ),
    "ThermoOpticCalibration": (
        circuit.ThermoOpticCalibration,
        st.fixed_dictionaries(
            {"theta0": _ANGLE, "rad_per_mw": st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)}
        ),
        ["theta0", "rad_per_mw"],
    ),
    "PhaseShifter": (
        circuit.PhaseShifter,
        element_fields(["mode"], "theta", _ANGLE),
        ["mode", "theta"],
    ),
    "Coupler": (
        circuit.Coupler,
        element_fields(["mode_i", "mode_j"], "mixing", _ANGLE),
        ["mode_i", "mode_j", "mixing"],
    ),
    "Loss": (
        circuit.Loss,
        element_fields(["mode"], "transmission", st.floats(0.0, 1.0)),
        ["mode", "transmission"],
    ),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
@given(data=st.data(), bad=NON_FINITE)
def test_constructor_rejects_a_non_finite_value_in_any_field(name, data, bad):
    build, valid_fields, numeric = CONSTRUCTORS[name]
    fields = data.draw(valid_fields)
    build(**fields)
    field = data.draw(st.sampled_from(numeric))
    if isinstance(fields[field], dict):
        entry = data.draw(st.sampled_from(sorted(fields[field])))
        fields[field] = fields[field] | {entry: bad}
    else:
        fields[field] = bad
    with pytest.raises(ValueError):
        build(**fields)
