"""Characteristic-impedance models for the signal-path line geometries:
the coaxial pin-in-hole section, the CPW ribbon traces (optionally under
a top ground cover), and the coated-pin material stack.

Conductors are assumed superconducting: resistive and kinetic-inductance
corrections to the impedance are neglected.  All computations are pure
and reentrant.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DegenerateGeometry
from .units import frozen

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Free-space wave impedance / 2pi, ohms: mu0 c / 2pi with mu0 = 4pi x 1e-7 H/m.
ETA0_OVER_2PI = 2e-7 * SPEED_OF_LIGHT

# eta0 / 4 in the CPW conformal-mapping formulas, ohms, with the textbook
# eta0 = 120 pi (Simons, Coplanar Waveguide Circuits, ch. 2).
CPW_ETA0_OVER_4 = 30.0 * math.pi


@frozen
class PinStack:
    """Pin core plus ordered conformal coatings, inside-out.

    coatings entries are (material name, thickness in meters); each coating
    adds twice its thickness to the diameter.
    """

    core_diameter: float
    coatings: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.core_diameter <= 0:
            raise ValueError("core_diameter must be > 0")
        for name, t in self.coatings:
            if t <= 0:
                raise ValueError(f"coating {name!r} thickness must be > 0")


def pin_outer_diameter(p: PinStack) -> float:
    """Finished pin diameter: core plus twice the summed coating thicknesses."""
    return p.core_diameter + 2.0 * sum(t for _, t in p.coatings)


@frozen
class CoaxSpec:
    """Coaxial section: inner/outer conductor diameters and fill permittivity."""

    inner_diameter: float
    outer_diameter: float
    eps_r: float
    dielectric: str | None = None

    def __post_init__(self):
        if self.inner_diameter <= 0:
            raise DegenerateGeometry("inner diameter must be > 0")
        if self.outer_diameter <= self.inner_diameter:
            raise DegenerateGeometry(
                f"outer diameter {self.outer_diameter} must exceed inner {self.inner_diameter}"
            )
        if self.eps_r < 1.0:
            raise DegenerateGeometry("relative permittivity must be >= 1")


@frozen
class CpwSpec:
    """Coplanar waveguide: center trace of width w with gaps s to side grounds.

    covered=True adds a ground plane at cover_height above the metallization
    (the stripline-like mode of a shield-coated ribbon).
    """

    trace_width: float
    gap: float
    substrate_eps_r: float
    covered: bool = False
    cover_height: float | None = None

    def __post_init__(self):
        if self.trace_width <= 0 or self.gap <= 0:
            raise DegenerateGeometry("trace width and gap must be > 0")
        if self.substrate_eps_r < 1.0:
            raise DegenerateGeometry("substrate permittivity must be >= 1")
        if self.covered and (self.cover_height is None or self.cover_height <= 0):
            raise DegenerateGeometry("covered CPW requires cover_height > 0")
        for name, k in zip(("k", "k3"), _cpw_moduli(self)):
            if k is not None and not (0.0 < k < 1.0 and 0.0 < _complement(k) < 1.0):
                raise DegenerateGeometry(f"conformal-mapping modulus {name} = {k!r}: {name} or "
                                         "its complement rounds to 0 or 1")


def complete_elliptic_k(k: float) -> float:
    """Complete elliptic integral of the first kind K(k), modulus convention.

    Arithmetic-geometric mean iteration; converges quadratically, giving
    relative accuracy better than 1e-12 for 0 <= k < 1.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError("modulus k must satisfy 0 <= k < 1")
    a = 1.0
    b = math.sqrt(1.0 - k * k)
    for _ in range(64):
        if abs(a - b) <= 4.0 * sys.float_info.epsilon * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _complement(k: float) -> float:
    """The complementary modulus k' = sqrt(1 - k^2)."""
    return math.sqrt(max(0.0, 1.0 - k * k))


def _k_ratio(k: float) -> float:
    """K(k)/K(k') with k' the complementary modulus."""
    return complete_elliptic_k(k) / complete_elliptic_k(_complement(k))


def coax_impedance(spec: CoaxSpec) -> float:
    """Characteristic impedance of a coaxial line, ohms."""
    return (ETA0_OVER_2PI / math.sqrt(spec.eps_r)) * math.log(
        spec.outer_diameter / spec.inner_diameter
    )


def coax_outer_for_impedance(inner_diameter: float, impedance: float, eps_r: float) -> float:
    """Outer diameter giving the requested impedance; inverse of coax_impedance."""
    if inner_diameter <= 0:
        raise DegenerateGeometry("inner diameter must be > 0")
    if impedance < 0:
        raise ValueError("impedance must be >= 0")
    if eps_r < 1.0:
        raise DegenerateGeometry("relative permittivity must be >= 1")
    return inner_diameter * math.exp(impedance * math.sqrt(eps_r) / ETA0_OVER_2PI)


def _cpw_moduli(spec: CpwSpec) -> tuple[float, float | None]:
    """Conformal-mapping moduli: lateral k, and cover modulus k3 when covered."""
    w, s = spec.trace_width, spec.gap
    k = w / (w + 2.0 * s)
    if not spec.covered:
        return k, None
    h = spec.cover_height
    outer = math.tanh(math.pi * (w + 2.0 * s) / (4.0 * h))  # 0 only where the argument underflows
    k3 = math.tanh(math.pi * w / (4.0 * h)) / outer if outer else 0.0
    return k, k3


def cpw_effective_permittivity(spec: CpwSpec) -> float:
    """Effective permittivity of the CPW mode.

    Uncovered: the field splits evenly between substrate and vacuum,
    eps_eff = (1 + eps_r)/2.  Covered: the vacuum half-space is replaced by
    the shielded region, weighting the substrate by the ratio of the two
    partial capacitances (standard covered-CPW conformal mapping).
    """
    k, k3 = _cpw_moduli(spec)
    if k3 is None:
        return 0.5 * (1.0 + spec.substrate_eps_r)
    r_sub = _k_ratio(k)
    r_top = _k_ratio(k3)
    return (spec.substrate_eps_r * r_sub + r_top) / (r_sub + r_top)


def cpw_impedance(spec: CpwSpec) -> float:
    """Characteristic impedance of the CPW, ohms."""
    k, k3 = _cpw_moduli(spec)
    eps_eff = cpw_effective_permittivity(spec)
    if k3 is None:
        return (CPW_ETA0_OVER_4 / math.sqrt(eps_eff)) / _k_ratio(k)
    return (2.0 * CPW_ETA0_OVER_4 / math.sqrt(eps_eff)) / (_k_ratio(k) + _k_ratio(k3))


class Propagation(NamedTuple):
    phase_velocity: float        # m/s
    wavelength: float | None     # m; None at DC


def line_propagation(eps_eff: float, frequency: float) -> Propagation:
    """Phase velocity and guided wavelength on a line of effective
    permittivity `eps_eff`.  At DC the wavelength is undefined and returned
    as None; the line still carries signal (velocity is defined).
    """
    if frequency < 0:
        raise ValueError("frequency must be >= 0")
    v = SPEED_OF_LIGHT / math.sqrt(eps_eff)
    if frequency == 0:
        return Propagation(v, None)
    return Propagation(v, v / frequency)
