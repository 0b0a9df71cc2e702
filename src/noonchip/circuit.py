"""Photonic component library and netlist composition.

Each element is a frozen dataclass: its mode indices, then one parameter
(phase, mixing angle or transmission) that carries the element's default.
Validation, JSON and composition all read that layout.  Elements are
applied in list order (physical propagation order), so the composed mode
matrix of ``[A, B]`` is ``U_B @ U_A``.  Loss elements do not enter the
unitary: wherever they sit, their transmissions multiply into a per-mode
record that the detection loss channel applies after the unitary.  That is
exact only for loss after the last coupler on its mode, or equal on every
mode; ``[Loss(0, 0.5), Coupler(0, 1)]`` wrongly composes to the same
``(U, [0.5, 1])`` as the reverse order; this device keeps its loss at the outputs.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .fock import ModeUnitary, _check_finite, _check_index

__all__ = [
    "PhaseShifter",
    "Coupler",
    "Loss",
    "CircuitSpec",
    "ThermoOpticCalibration",
    "mzi_unitary",
    "compose",
    "power_to_phase",
    "mzi_circuit",
    "circuit_to_json",
    "circuit_from_json",
]


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """An element class's field names, in order: its modes, then its parameter."""
    return tuple(f.name for f in fields(cls))


class _Element:
    """Shared layout: distinct integer mode fields, then one finite parameter in _param_range."""

    _param_range = (-math.inf, math.inf)

    def _layout(self) -> list:
        return [getattr(self, name) for name in _field_names(type(self))]

    def __post_init__(self):
        *modes, param = self._layout()
        for m in modes:
            _check_index("mode", m)
        if len(set(modes)) != len(modes):
            raise ValueError(f"{self.kind} modes must be distinct")
        _check_finite(_field_names(type(self))[-1], param, *self._param_range)


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
    _param_range = (0.0, 1.0)


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


def mzi_unitary(theta: float, mixing: float = math.pi / 4) -> ModeUnitary:
    """Mach-Zehnder transfer matrix: coupler * phase(theta) * coupler.

    Bar-port transmission |U[0,0]|^2 equals sin^2(theta/2) for ideal 50:50
    couplers, so theta = (2n+1)*pi/2 realizes a 50:50 beamsplitter.
    """
    return compose(mzi_circuit(theta, mixing))[0]


def mzi_circuit(theta: float, mixing: float = math.pi / 4) -> CircuitSpec:
    """Standard two-mode MZI netlist with the internal phase on mode 1."""
    elements = (Coupler(0, 1, mixing), PhaseShifter(1, theta), Coupler(0, 1, mixing))
    return CircuitSpec(2, elements)


def compose(spec: CircuitSpec) -> tuple[ModeUnitary, np.ndarray]:
    """Fold a netlist into (mode unitary, per-mode intensity transmissions)."""
    u = np.eye(spec.mode_count, dtype=complex)
    transmissions = np.ones(spec.mode_count)
    for el in spec.elements:
        if isinstance(el, PhaseShifter):
            u[el.mode] *= cmath.exp(1j * el.theta)
        elif isinstance(el, Coupler):
            c, s = math.cos(el.mixing), 1j * math.sin(el.mixing)
            ui, uj = u[el.mode_i], u[el.mode_j]  # row views; both new rows are built first
            u[el.mode_i], u[el.mode_j] = c * ui + s * uj, s * ui + c * uj
        else:
            transmissions[el.mode] *= el.transmission
    return ModeUnitary(u), transmissions


def power_to_phase(cal: ThermoOpticCalibration, electrical_power_mw: float) -> float:
    """Heater phase at the given electrical drive power."""
    _check_finite("electrical power", electrical_power_mw, low=0.0)
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
        mode_count = len(_field_names(cls)) - 1
        if not isinstance(modes, list) or len(modes) != mode_count:
            raise ValueError(f"element {i}: {kind} takes a list of {mode_count} mode(s)")
        elements.append(cls(*modes) if param is None else cls(*modes, param))
    return CircuitSpec(doc.get("mode_count"), tuple(elements))


def circuit_to_json(spec: CircuitSpec) -> str:
    # Numpy scalars, which modes and parameters may be, are written as the numbers they hold.
    return json.dumps(circuit_to_dict(spec), indent=2, default=lambda x: x.item())


def circuit_from_json(text: str) -> CircuitSpec:
    return circuit_from_dict(json.loads(text))
