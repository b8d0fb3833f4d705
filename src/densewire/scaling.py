"""Wiring-scalability laws for square qubit arrays.

Compares lateral wire access (bond pads on the four chip edges: wire
count grows linearly with chip side) against fully vertical access
(one wire landing per array site: wire count grows quadratically).
Reports carry both the exact real-valued counts and their floored
integer counterparts; the floor is the only rounding applied.

Everything here is a pure function over immutable value types, so sweep
points can be evaluated in parallel without shared state.
"""

from __future__ import annotations

import math

from .errors import OutOfRange, PitchConditionViolated
from .units import frozen

LATERAL = "lateral"
VERTICAL = "vertical"

QUBIT_SIZE = "qubit_size"
WIRE_COUNT = "wire_count"

# Treat a count within this relative distance of an integer as exact:
# decimal-intent inputs (200 mm / 500 um) must not lose a whole qubit
# to one ulp of binary rounding.
_SNAP_REL = 1e-9


def snap_count(x: float) -> float:
    """Snap x to the nearest integer when within float-rounding distance."""
    r = round(x)
    if abs(x - r) <= _SNAP_REL * max(1.0, abs(r)):
        return float(r)
    return x


def _floor_count(x: float) -> int:
    return int(math.floor(snap_count(x)))


def _squared(x: float) -> float:
    """x ** 2, or inf beyond the float range."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _wire_count(x: float) -> float:
    """A wire count, which is positive: 0 is one that underflowed."""
    if not math.isfinite(x) or x == 0:
        raise OutOfRange("the wire count leaves the float range: the wire pitch is too "
                         f"{'fine' if x else 'coarse'} for the chip side")
    return snap_count(x)


@frozen
class QubitArraySpec:
    """Square array: center-to-center qubit pitch and chip side length, meters."""

    qubit_pitch: float
    chip_side: float

    def __post_init__(self):
        if self.qubit_pitch <= 0:
            raise ValueError("qubit_pitch must be > 0")
        if self.chip_side < self.qubit_pitch:
            raise ValueError("chip_side must be >= qubit_pitch")
        if not math.isfinite(_squared(self.chip_side / self.qubit_pitch)):
            raise ValueError("qubit count (chip_side / qubit_pitch)^2 is not finite")


@frozen
class WiringArchitecture:
    """A wire-access scheme: lateral (edge) or vertical (area) access.

    wires_per_qubit scales the demanded wire count; the default of 1
    assumes heavy demultiplexing of control lines.
    """

    access: str
    wire_pitch: float
    provenance: str = "explicit"
    wires_per_qubit: float = 1.0

    def __post_init__(self):
        if self.access not in (LATERAL, VERTICAL):
            raise ValueError(f"access must be {LATERAL!r} or {VERTICAL!r}")
        if self.wire_pitch <= 0:
            raise ValueError("wire_pitch must be > 0")
        if self.provenance not in ("explicit", "derived_from_bond_geometry"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.wires_per_qubit < 1:
            raise ValueError("wires_per_qubit must be >= 1")


@frozen
class BondWireGeometry:
    """Wire-bond transmission line: several bond wires form one signal line."""

    wire_diameter: float
    wire_gap: float
    wires_per_line: int = 3
    grounds_shared: bool = True

    def __post_init__(self):
        if self.wire_diameter <= 0:
            raise ValueError("wire_diameter must be > 0")
        if self.wire_gap < 0:
            raise ValueError("wire_gap must be >= 0")
        if self.wires_per_line < 1:
            raise ValueError("wires_per_line must be >= 1")
        if self.grounds_shared and self.wires_per_line < 2:
            raise ValueError("shared grounds require at least 2 wires per line")


@frozen
class ScalingReport:
    """Outcome of a scaling evaluation.

    n_qubits / n_wires are floors of the exact real-valued counts also
    carried in the report; limiting_factor names the binding constraint.
    """

    access: str
    n_qubits: int
    n_wires: int
    limiting_factor: str
    exact_n_qubits: float
    exact_n_wires: float
    crossover_length: float | None = None

    def to_record(self) -> dict:
        return {
            "access": self.access,
            "n_qubits": self.n_qubits,
            "n_wires": self.n_wires,
            "limiting_factor": self.limiting_factor,
            "exact_n_qubits": self.exact_n_qubits,
            "exact_n_wires": self.exact_n_wires,
            "crossover_length_m": self.crossover_length,
        }


def wire_pitch_from_bonds(g: BondWireGeometry) -> float:
    """Signal-line pitch of a row of bond-wire transmission lines.

    With grounds shared between adjacent lines one ground wire serves two
    neighbors, so the repeating cell is one wire shorter.
    """
    cell = g.wire_diameter + g.wire_gap
    if g.grounds_shared:
        return (g.wires_per_line - 1) * cell
    return g.wires_per_line * cell


def check_pitch_condition(wire_pitch: float, qubit_pitch: float) -> bool:
    """First dense-wiring condition: the wire footprint fits in one qubit cell."""
    if wire_pitch <= 0 or qubit_pitch <= 0:
        raise ValueError("pitches must be > 0")
    return wire_pitch / qubit_pitch <= 1.0


def lateral_crossover_length(qubit_pitch: float, wire_pitch: float,
                             wires_per_qubit: float = 1.0) -> float:
    """Chip side where edge-limited wire count equals the qubit count.

    Intersection of the quadratic qubit curve (side/qubit_pitch)^2 with the
    linear edge-wire curve 4*side/wire_pitch; beyond it the wires run out.
    """
    if qubit_pitch <= 0 or wire_pitch <= 0:
        raise ValueError("pitches must be > 0")
    return 4.0 * _squared(qubit_pitch) / (wires_per_qubit * wire_pitch)


def lateral_scaling_report(spec: QubitArraySpec, arch: WiringArchitecture) -> ScalingReport:
    """Qubit and wire counts for edge (lateral) wire access."""
    if arch.access != LATERAL:
        raise ValueError("architecture is not lateral")
    exact_nq = snap_count((spec.chip_side / spec.qubit_pitch) ** 2)
    exact_nw = _wire_count(4.0 * spec.chip_side / arch.wire_pitch)
    limiting = WIRE_COUNT if exact_nq * arch.wires_per_qubit > exact_nw else QUBIT_SIZE
    return ScalingReport(
        access=LATERAL,
        n_qubits=_floor_count(exact_nq),
        n_wires=_floor_count(exact_nw),
        limiting_factor=limiting,
        exact_n_qubits=exact_nq,
        exact_n_wires=exact_nw,
        crossover_length=lateral_crossover_length(
            spec.qubit_pitch, arch.wire_pitch, arch.wires_per_qubit),
    )


def vertical_scaling_report(spec: QubitArraySpec, arch: WiringArchitecture) -> ScalingReport:
    """Qubit and wire counts for fully vertical access.

    Requires the pitch condition (wire footprint <= qubit footprint), which
    guarantees the wiring never limits the array; the chip side is
    unconstrained and the qubit size is always the binding factor.
    """
    if arch.access != VERTICAL:
        raise ValueError("architecture is not vertical")
    effective_pitch = arch.wire_pitch * math.sqrt(arch.wires_per_qubit)
    if not check_pitch_condition(effective_pitch, spec.qubit_pitch):
        raise PitchConditionViolated(
            f"wire pitch {arch.wire_pitch * 1e6:.6g} um (x sqrt({arch.wires_per_qubit:.6g}) "
            f"wires/qubit) exceeds qubit pitch {spec.qubit_pitch * 1e6:.6g} um")
    exact_nq = snap_count((spec.chip_side / spec.qubit_pitch) ** 2)
    exact_nw = _wire_count(_squared(spec.chip_side / arch.wire_pitch))
    return ScalingReport(
        access=VERTICAL,
        n_qubits=_floor_count(exact_nq),
        n_wires=_floor_count(exact_nw),
        limiting_factor=QUBIT_SIZE,
        exact_n_qubits=exact_nq,
        exact_n_wires=exact_nw,
        crossover_length=None,
    )


def required_pitch_for_full_chip(chip_side: float, wire_pitch: float,
                                 wires_per_qubit: float = 1.0) -> float:
    """Qubit pitch at which a laterally wired chip of this side is fully used."""
    if chip_side <= 0 or wire_pitch <= 0:
        raise ValueError("dimensions must be > 0")
    n_wires = 4.0 * chip_side / (wires_per_qubit * wire_pitch)
    return chip_side / math.sqrt(n_wires)


def logical_qubit_estimate(n_qubits: int, physical_per_logical: int) -> int:
    """Error-corrected qubit count at a given physical-to-logical overhead."""
    if physical_per_logical < 1:
        raise ValueError("physical_per_logical must be >= 1")
    return n_qubits // physical_per_logical
