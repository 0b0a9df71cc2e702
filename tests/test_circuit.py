import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from noonchip.circuit import (
    CircuitSpec,
    Coupler,
    Loss,
    PhaseShifter,
    ThermoOpticCalibration,
    bind_first_phase,
    circuit_from_json,
    circuit_to_json,
    compose,
    coupler_unitary,
    mzi_circuit,
    mzi_unitary,
    phase_shifter_unitary,
    power_to_phase,
)
from noonchip.detection import visibility


def mzi_oracle(theta, mixing=math.pi / 4):
    # Direct matrix product, kept separate from the library construction.
    c, s = math.cos(mixing), math.sin(mixing)
    h = np.array([[c, 1j * s], [1j * s, c]])
    r = np.array([[1, 0], [0, np.exp(1j * theta)]])
    return h @ r @ h


def compose_oracle(spec):
    # Embed each element in an m x m identity and multiply the full matrix.
    m = spec.mode_count
    u = np.eye(m, dtype=complex)
    transmissions = np.ones(m)
    for el in spec.elements:
        step = np.eye(m, dtype=complex)
        if isinstance(el, PhaseShifter):
            step[el.mode, el.mode] = np.exp(1j * el.theta)
        elif isinstance(el, Coupler):
            c, s = math.cos(el.mixing), math.sin(el.mixing)
            pair = (el.mode_i, el.mode_j)
            step[np.ix_(pair, pair)] = [[c, 1j * s], [1j * s, c]]
        else:
            transmissions[el.mode] *= el.transmission
        u = step @ u
    return u, transmissions


_angles = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False)


@st.composite
def netlists(draw):
    m = draw(st.integers(1, 6))
    mode = st.integers(0, m - 1)
    kinds = [
        st.builds(PhaseShifter, mode, _angles),
        st.builds(Loss, mode, st.floats(0.0, 1.0)),
    ]
    if m >= 2:
        pairs = st.lists(mode, min_size=2, max_size=2, unique=True)
        kinds.append(pairs.flatmap(lambda p: st.builds(Coupler, *map(st.just, p), _angles)))
    return CircuitSpec(m, tuple(draw(st.lists(st.one_of(kinds), max_size=12))))


class TestElements:
    def test_phase_shifter_values(self):
        assert np.allclose(phase_shifter_unitary(0.0).matrix, np.eye(2))
        assert np.allclose(phase_shifter_unitary(math.pi).matrix, np.diag([1, -1]), atol=1e-15)
        assert np.allclose(phase_shifter_unitary(math.pi / 2).matrix, np.diag([1, 1j]), atol=1e-15)

    def test_coupler_default_is_balanced(self):
        u = coupler_unitary().matrix
        assert np.allclose(np.abs(u) ** 2, 0.25 * np.ones((2, 2)) * 2, atol=1e-15)

    def test_coupler_limits(self):
        assert np.allclose(coupler_unitary(0.0).matrix, np.eye(2))
        cross = coupler_unitary(math.pi / 2).matrix
        assert np.allclose(cross, np.array([[0, 1j], [1j, 0]]), atol=1e-15)

    def test_coupler_rejects_same_mode(self):
        with pytest.raises(ValueError):
            Coupler(1, 1)

    def test_loss_range(self):
        with pytest.raises(ValueError):
            Loss(0, 1.5)


class TestMzi:
    def test_fifty_fifty_at_half_pi(self):
        u = mzi_unitary(math.pi / 2).matrix
        assert abs(abs(u[0, 0]) ** 2 - 0.5) < 1e-12

    @pytest.mark.parametrize(
        "theta,expected_bar",
        [(0.0, 0.0), (math.pi, 1.0), (math.pi / 2, 0.5), (0.7, math.sin(0.35) ** 2)],
    )
    def test_bar_transmission(self, theta, expected_bar):
        u = mzi_unitary(theta).matrix
        assert abs(u[0, 0]) ** 2 == pytest.approx(expected_bar, abs=1e-12)
        assert np.allclose(u, mzi_oracle(theta), atol=1e-12)

    def test_full_cross_at_zero(self):
        u = mzi_unitary(0.0).matrix
        assert abs(u[0, 1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    @given(_angles, st.floats(-math.pi, math.pi, allow_nan=False))
    def test_matches_oracle(self, theta, mixing):
        u = mzi_unitary(theta, mixing).matrix
        assert np.allclose(u, mzi_oracle(theta, mixing), rtol=0, atol=1e-15)


class TestCompose:
    def test_empty_netlist(self):
        u, trans = compose(CircuitSpec(2, ()))
        assert np.allclose(u.matrix, np.eye(2))
        assert np.allclose(trans, [1.0, 1.0])

    def test_mzi_netlist_matches_closed_form(self):
        u, _ = compose(mzi_circuit(math.pi / 2))
        assert np.allclose(u.matrix, mzi_unitary(math.pi / 2).matrix, atol=1e-14)

    def test_loss_only(self):
        u, trans = compose(CircuitSpec(2, (Loss(0, 0.5),)))
        assert np.allclose(u.matrix, np.eye(2))
        assert np.allclose(trans, [0.5, 1.0])

    def test_split_composition(self):
        a = (Coupler(0, 1), PhaseShifter(1, 0.3))
        b = (Coupler(0, 1), PhaseShifter(0, 1.1))
        u_ab, _ = compose(CircuitSpec(2, a + b))
        u_a, _ = compose(CircuitSpec(2, a))
        u_b, _ = compose(CircuitSpec(2, b))
        assert np.allclose(u_ab.matrix, u_b.matrix @ u_a.matrix, atol=1e-14)

    def test_invalid_mode_index(self):
        with pytest.raises(ValueError):
            CircuitSpec(2, (PhaseShifter(2, 0.1),))

    @given(netlists())
    def test_matches_embed_and_multiply_oracle(self, spec):
        u, transmissions = compose(spec)
        want_u, want_transmissions = compose_oracle(spec)
        assert np.allclose(u.matrix, want_u, rtol=0, atol=1e-14)
        assert np.array_equal(transmissions, want_transmissions)

    def test_non_element_rejected(self):
        with pytest.raises(TypeError):
            CircuitSpec(2, ((0, 1.0),))

    def test_bind_first_phase(self):
        spec = bind_first_phase(mzi_circuit(0.0), 1.25)
        u, _ = compose(spec)
        assert np.allclose(u.matrix, mzi_unitary(1.25).matrix, atol=1e-14)


class TestThermoOptic:
    def test_linear_map(self):
        assert power_to_phase(ThermoOpticCalibration(0.0, 1.0), 0.0) == 0.0
        assert power_to_phase(ThermoOpticCalibration(0.3, 2.0), 1.0) == pytest.approx(2.3)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            power_to_phase(ThermoOpticCalibration(), -1.0)

    def test_zero_slope_rejected(self):
        with pytest.raises(ValueError):
            ThermoOpticCalibration(0.0, 0.0)

    def test_fringe_is_sinusoidal_in_power(self):
        cal = ThermoOpticCalibration(0.3, 2.0)
        powers = np.linspace(0.0, 2.0 * math.pi, 60)
        bar = [
            abs(mzi_unitary(power_to_phase(cal, p)).matrix[0, 0]) ** 2 for p in powers
        ]
        expected = np.sin((0.3 + 2.0 * powers) / 2.0) ** 2
        assert np.allclose(bar, expected, atol=1e-12)


class TestClassicalFringe:
    def test_ideal_visibility_is_one(self):
        thetas = np.linspace(0.0, 2.0 * math.pi, 80)
        bar = np.array([abs(mzi_unitary(t).matrix[0, 0]) ** 2 for t in thetas])
        assert visibility(thetas, bar, frequency=1.0) == pytest.approx(1.0, abs=1e-9)

    def test_coupler_imbalance_never_raises_visibility(self):
        thetas = np.linspace(0.0, 2.0 * math.pi, 80)
        deltas = np.linspace(0.0, 0.6, 13)
        vis = []
        for d in deltas:
            bar = np.array(
                [abs(mzi_unitary(t, mixing=math.pi / 4 + d).matrix[0, 0]) ** 2 for t in thetas]
            )
            vis.append(visibility(thetas, bar, frequency=1.0))
        assert vis[0] == pytest.approx(1.0, abs=1e-9)
        assert all(v2 <= v1 + 1e-9 for v1, v2 in zip(vis, vis[1:]))

    def test_outputs_complement_for_lossless(self):
        for theta in np.linspace(0, 2 * math.pi, 17):
            u = mzi_unitary(theta).matrix
            assert abs(u[0, 0]) ** 2 + abs(u[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)
            assert abs(u[0, 1]) ** 2 + abs(u[1, 1]) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestSerialization:
    def test_round_trip(self):
        spec = CircuitSpec(
            3,
            (Coupler(0, 1, 0.7), PhaseShifter(2, 1.2), Loss(1, 0.9)),
        )
        assert circuit_from_json(circuit_to_json(spec)) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            circuit_from_json(
                '{"mode_count": 2, "elements": [{"kind": "mirror", "modes": [0]}]}'
            )

    def test_malformed_document(self):
        with pytest.raises(ValueError):
            circuit_from_json('{"elements": []}')

    def test_json_text_is_unchanged(self):
        spec = CircuitSpec(
            3,
            (Coupler(0, 1, 0.7), PhaseShifter(2, 1.2), Loss(1, 0.9)),
        )
        want = """{
  "mode_count": 3,
  "elements": [
    {
      "kind": "coupler",
      "modes": [
        0,
        1
      ],
      "param": 0.7
    },
    {
      "kind": "phase_shifter",
      "modes": [
        2
      ],
      "param": 1.2
    },
    {
      "kind": "loss",
      "modes": [
        1
      ],
      "param": 0.9
    }
  ]
}"""
        assert circuit_to_json(spec) == want

    @pytest.mark.parametrize(
        "kind,modes,param,expected",
        [
            ("phase_shifter", [1], 0.4, PhaseShifter(1, 0.4)),
            ("phase_shifter", [1], None, PhaseShifter(1, 0.0)),
            ("coupler", [2, 0], 0.3, Coupler(2, 0, 0.3)),
            ("coupler", [2, 0], None, Coupler(2, 0, math.pi / 4)),
            ("loss", [0], 0.25, Loss(0, 0.25)),
            ("loss", [0], None, Loss(0, 1.0)),
        ],
    )
    def test_every_kind_with_explicit_and_null_param(self, kind, modes, param, expected):
        doc = {"mode_count": 3, "elements": [{"kind": kind, "modes": modes, "param": param}]}
        spec = circuit_from_json(json.dumps(doc))
        assert spec == CircuitSpec(3, (expected,))
        assert circuit_from_json(circuit_to_json(spec)) == spec

    def test_absent_param_means_default(self):
        doc = '{"mode_count": 2, "elements": [{"kind": "coupler", "modes": [0, 1]}]}'
        assert circuit_from_json(doc).elements == (Coupler(0, 1, math.pi / 4),)

    def test_numpy_scalars_serialize(self):
        spec = CircuitSpec(np.int64(2), (PhaseShifter(np.int64(1), np.float32(0.5)), Loss(0, 1)))
        want = CircuitSpec(2, (PhaseShifter(1, 0.5), Loss(0, 1)))
        assert circuit_to_json(spec) == circuit_to_json(want)
        assert circuit_from_json(circuit_to_json(spec)) == want


def _doc(mode_count=2, **element):
    return json.dumps({"mode_count": mode_count, "elements": [element]})


class TestInputChecks:
    def test_element_that_is_not_an_object(self):
        with pytest.raises(ValueError):
            circuit_from_json('{"mode_count": 2, "elements": [3]}')

    def test_elements_not_a_list(self):
        with pytest.raises(ValueError):
            circuit_from_json('{"mode_count": 2, "elements": 3}')

    def test_fractional_mode(self):
        with pytest.raises(ValueError):
            CircuitSpec(2, (PhaseShifter(0.5, 0.1),))
        with pytest.raises(ValueError):
            circuit_from_json(_doc(kind="phase_shifter", modes=[0.5], param=0.1))

    def test_bool_mode(self):
        with pytest.raises(ValueError):
            PhaseShifter(True, 0.1)

    def test_bool_mode_count(self):
        with pytest.raises(ValueError):
            CircuitSpec(True, ())

    def test_fractional_mode_count_in_json(self):
        with pytest.raises(ValueError):
            circuit_from_json('{"mode_count": 2.7, "elements": []}')

    @pytest.mark.parametrize("modes", [0, "01", None, {"0": 1}, [[0], [1]]])
    def test_malformed_modes(self, modes):
        with pytest.raises(ValueError):
            circuit_from_json(_doc(kind="coupler", modes=modes))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float32("inf")])
    def test_non_finite_phase(self, bad):
        with pytest.raises(ValueError):
            PhaseShifter(0, bad)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_mixing(self, bad):
        with pytest.raises(ValueError):
            Coupler(0, 1, bad)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_theta0(self, bad):
        with pytest.raises(ValueError):
            ThermoOpticCalibration(theta0=bad)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_power(self, bad):
        with pytest.raises(ValueError):
            power_to_phase(ThermoOpticCalibration(), bad)

    @pytest.mark.parametrize(
        "param", ["0.5", True, [0.5], 10**400], ids=["str", "bool", "list", "huge"]
    )
    def test_param_that_is_not_a_finite_number(self, param):
        with pytest.raises(ValueError):
            circuit_from_json(_doc(kind="phase_shifter", modes=[0], param=param))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_PARTS = (
    "nothing", "document", "mode_count", "elements", "element", "kind", "modes", "mode", "param"
)


@st.composite
def json_documents(draw):
    # A valid netlist's document with at most one part replaced by any JSON value.
    doc = json.loads(circuit_to_json(draw(netlists())))
    junk, part = draw(_json_values), draw(st.sampled_from(_PARTS))
    entries = doc["elements"]
    if part == "document":
        return junk
    if part in ("mode_count", "elements"):
        doc[part] = junk
    elif part != "nothing" and entries:
        i = draw(st.integers(0, len(entries) - 1))
        if part == "element":
            entries[i] = junk
        elif part == "mode":
            entries[i]["modes"][draw(st.integers(0, len(entries[i]["modes"]) - 1))] = junk
        else:
            entries[i][part] = junk
    return doc


@given(json_documents())
def test_any_json_document_gives_a_spec_or_value_error(doc):
    try:
        spec = circuit_from_json(json.dumps(doc))
    except ValueError:
        return
    assert isinstance(spec, CircuitSpec)
    if spec.mode_count <= 8:
        u, transmissions = compose(spec)
        assert np.all(np.isfinite(u.matrix)) and np.all((transmissions >= 0) & (transmissions <= 1))
