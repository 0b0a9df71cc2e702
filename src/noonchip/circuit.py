"""Photonic component library and netlist composition.

Each element is a frozen dataclass: its mode indices, then one parameter
(phase, mixing angle or transmission) that carries the element's default.
Validation, JSON and composition all read that layout.  Elements are
applied in list order (physical propagation order), so the composed mode
matrix of ``[A, B]`` is ``U_B @ U_A``.  Loss elements do not enter the
unitary; their transmissions are factored into a per-mode record which
downstream code applies through the detection loss channel.  That
factoring is exact when loss sits at the circuit boundaries, which is where
this device concentrates it (output couplers and filters).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .fock import ModeUnitary

__all__ = [
    "PhaseShifter",
    "Coupler",
    "Loss",
    "CircuitSpec",
    "ThermoOpticCalibration",
    "phase_shifter_unitary",
    "coupler_unitary",
    "mzi_unitary",
    "compose",
    "power_to_phase",
    "mzi_circuit",
    "circuit_to_json",
    "circuit_from_json",
]


def _check_index(name: str, value, low: int = 0) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_finite(name: str, value) -> None:
    x = value.item() if isinstance(value, np.generic) else value
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not abs(x) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {value!r}")


class _Element:
    """Shared layout: distinct integer mode fields, then one finite parameter."""

    def _layout(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __post_init__(self):
        *modes, param = self._layout()
        for m in modes:
            _check_index("mode", m)
        if len(set(modes)) != len(modes):
            raise ValueError(f"{self.kind} modes must be distinct")
        _check_finite(fields(self)[-1].name, param)


@dataclass(frozen=True)
class PhaseShifter(_Element):
    """Phase e^{i*theta} applied to one mode."""

    mode: int
    theta: float = 0.0

    kind = "phase_shifter"


@dataclass(frozen=True)
class Coupler(_Element):
    """Directional coupler between two modes.

    Matrix [[cos k, i sin k], [i sin k, cos k]] on (mode_i, mode_j); the
    default mixing angle pi/4 gives the 50:50 splitter.
    """

    mode_i: int
    mode_j: int
    mixing: float = math.pi / 4

    kind = "coupler"


@dataclass(frozen=True)
class Loss(_Element):
    """Scalar intensity transmission on one mode."""

    mode: int
    transmission: float = 1.0

    kind = "loss"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.transmission <= 1.0:
            raise ValueError("transmission must lie in [0, 1]")


Element = PhaseShifter | Coupler | Loss
_KINDS = {cls.kind: cls for cls in (PhaseShifter, Coupler, Loss)}


@dataclass(frozen=True)
class CircuitSpec:
    """Ordered netlist of elements over a fixed number of modes."""

    mode_count: int
    elements: tuple[Element, ...]

    def __post_init__(self):
        _check_index("mode_count", self.mode_count, low=1)
        object.__setattr__(self, "elements", tuple(self.elements))
        for el in self.elements:
            if not isinstance(el, Element):
                raise TypeError(f"unknown element type {type(el).__name__}")
            if not all(m < self.mode_count for m in el._layout()[:-1]):
                raise ValueError(f"element {el} references a mode outside 0..{self.mode_count - 1}")


@dataclass(frozen=True)
class ThermoOpticCalibration:
    """Linear phase response to heater electrical power: theta0 + kappa*P."""

    theta0: float = 0.0
    rad_per_mw: float = 1.0

    def __post_init__(self):
        _check_finite("theta0", self.theta0)
        _check_finite("rad_per_mw", self.rad_per_mw)
        if self.rad_per_mw == 0.0:
            raise ValueError("rad_per_mw must be nonzero")


def phase_shifter_unitary(theta: float) -> ModeUnitary:
    """diag(1, e^{i*theta}) on a mode pair (phase on the second mode)."""
    return ModeUnitary(np.diag([1.0, np.exp(1j * theta)]))


def coupler_unitary(mixing: float = math.pi / 4) -> ModeUnitary:
    """[[cos k, i sin k], [i sin k, cos k]]; mixing pi/4 is the 50:50 case."""
    c, s = math.cos(mixing), math.sin(mixing)
    return ModeUnitary(np.array([[c, 1j * s], [1j * s, c]]))


def mzi_unitary(theta: float, mixing: float = math.pi / 4) -> ModeUnitary:
    """Mach-Zehnder transfer matrix: coupler * phase(theta) * coupler.

    Bar-port transmission |U[0,0]|^2 equals sin^2(theta/2) for ideal 50:50
    couplers, so theta = (2n+1)*pi/2 realizes a 50:50 beamsplitter.
    """
    return compose(mzi_circuit(theta, mixing))[0]


def mzi_circuit(theta: float, mixing: float = math.pi / 4, mode_count: int = 2) -> CircuitSpec:
    """Standard two-mode MZI netlist with the internal phase on mode 1."""
    elements = (Coupler(0, 1, mixing), PhaseShifter(1, theta), Coupler(0, 1, mixing))
    return CircuitSpec(mode_count, elements)


def compose(spec: CircuitSpec) -> tuple[ModeUnitary, np.ndarray]:
    """Fold a netlist into (mode unitary, per-mode intensity transmissions)."""
    u = np.eye(spec.mode_count, dtype=complex)
    transmissions = np.ones(spec.mode_count)
    for el in spec.elements:
        if isinstance(el, PhaseShifter):
            u[el.mode] *= np.exp(1j * el.theta)
        elif isinstance(el, Coupler):
            rows = [el.mode_i, el.mode_j]
            u[rows] = coupler_unitary(el.mixing).matrix @ u[rows]
        else:
            transmissions[el.mode] *= el.transmission
    return ModeUnitary(u), transmissions


def power_to_phase(cal: ThermoOpticCalibration, electrical_power_mw: float) -> float:
    """Heater phase at the given electrical drive power."""
    _check_finite("electrical power", electrical_power_mw)
    if electrical_power_mw < 0:
        raise ValueError("electrical power must be >= 0")
    return cal.theta0 + cal.rad_per_mw * electrical_power_mw


# --- JSON netlist serialization ------------------------------------------
#
# Document shape: {"mode_count": int, "elements": [{"kind": str,
# "modes": [int, ...], "param": float | null}, ...]}: the element's mode
# fields, then its last field (the phase, mixing angle or transmission),
# where a null or absent "param" means the element's default.


def circuit_to_dict(spec: CircuitSpec) -> dict:
    elements = []
    for el in spec.elements:
        *modes, param = el._layout()
        elements.append({"kind": el.kind, "modes": modes, "param": param})
    return {"mode_count": spec.mode_count, "elements": elements}


def circuit_from_dict(doc: dict) -> CircuitSpec:
    if not isinstance(doc, dict) or not isinstance(doc.get("elements"), list):
        raise ValueError("malformed circuit document: elements must be a list")
    elements: list[Element] = []
    for i, entry in enumerate(doc["elements"]):
        if not isinstance(entry, dict):
            raise ValueError(f"element {i}: not an object")
        kind, modes, param = entry.get("kind"), entry.get("modes", []), entry.get("param")
        cls = _KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ValueError(f"element {i}: unknown kind {kind!r}")
        if not isinstance(modes, list) or len(modes) != len(fields(cls)) - 1:
            raise ValueError(f"element {i}: {kind} takes a list of {len(fields(cls)) - 1} mode(s)")
        elements.append(cls(*modes) if param is None else cls(*modes, param))
    return CircuitSpec(doc.get("mode_count"), tuple(elements))


def circuit_to_json(spec: CircuitSpec) -> str:
    # Numpy scalars, which modes and parameters may be, are written as the numbers they hold.
    return json.dumps(circuit_to_dict(spec), indent=2, default=lambda x: x.item())


def circuit_from_json(text: str) -> CircuitSpec:
    return circuit_from_dict(json.loads(text))


def bind_first_phase(spec: CircuitSpec, theta: float) -> CircuitSpec:
    """Copy of the netlist with the first phase shifter's phase set to theta.

    Scan recipes treat the first phase shifter as the swept interferometer
    phase; the standard MZI netlist has exactly one.
    """
    for i, el in enumerate(spec.elements):
        if isinstance(el, PhaseShifter):
            elements = spec.elements[:i] + (PhaseShifter(el.mode, theta),) + spec.elements[i + 1 :]
            return CircuitSpec(spec.mode_count, elements)
    raise ValueError("netlist has no phase shifter to bind")
