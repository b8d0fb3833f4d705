"""Cryogenic power and heat-load bookkeeping.

Controller dissipation is checked against per-stage cooling power, and
conductive leaks through wiring cross-sections are integrated in closed
form over the log-log interpolated k(T) table of the path material.  All
computations are pure; paths are evaluated independently and summed
deterministically.
"""

from __future__ import annotations

import math

from .errors import OutOfRange
from .materials import MaterialCatalog, interpolate_conductivity
from .units import frozen

BOLTZMANN = 1.380649e-23           # J/K, exact in the SI
ELEMENTARY_CHARGE = 1.602176634e-19  # C, exact in the SI
# Sommerfeld value pi^2/3 (k_B/e)^2, W ohm / K^2.
LORENZ_NUMBER = math.pi ** 2 / 3.0 * (BOLTZMANN / ELEMENTARY_CHARGE) ** 2

# Allow exact-equality budgets (total == cooling power) despite float noise.
_FEAS_REL = 1e-12


def _verdict(total: float, cooling_power: float) -> tuple[bool, float]:
    """Whether a load of `total` watts fits the cooling power, and the margin
    cooling_power / total (inf when nothing loads the stage)."""
    if total == 0.0:
        return True, math.inf
    return total <= cooling_power * (1.0 + _FEAS_REL), cooling_power / total


@frozen
class Stage:
    name: str
    temperature: float     # K
    cooling_power: float   # W

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"stage {self.name}: temperature must be > 0")
        if self.cooling_power <= 0:
            raise ValueError(f"stage {self.name}: cooling_power must be > 0")


@frozen
class StageModel:
    """Refrigerator stage ladder, ordered warm to cold."""

    stages: tuple[Stage, ...]

    def __post_init__(self):
        temps = [s.temperature for s in self.stages]
        if any(b >= a for a, b in zip(temps, temps[1:])):
            raise ValueError("stage temperatures must strictly decrease")

    def stage(self, name: str) -> Stage:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(f"no stage named {name!r}")


def default_stage_model() -> StageModel:
    """Conventional dilution-refrigerator ladder.

    Only the ~1 W at 3 K (pulse-tube stage) is anchored to published
    controller-placement arguments; the other powers are typical values
    and meant to be overridden per machine.
    """
    return StageModel(stages=(
        Stage("300K", 300.0, 1000.0),
        Stage("50K", 50.0, 50.0),
        Stage("3K", 3.0, 1.0),
        Stage("0.7K", 0.7, 25e-3),
        Stage("0.1K", 0.1, 500e-6),
        Stage("10mK", 0.01, 20e-6),
    ))


@frozen
class ControllerTech:
    """Per-qubit controller dissipation for a control-electronics family."""

    name: str
    power_per_qubit: float  # W

    def __post_init__(self):
        if self.power_per_qubit <= 0:
            raise ValueError("power_per_qubit must be > 0")


TARGET_CONTROLLER = ControllerTech("target", 1e-9)
SFQ_CONTROLLER = ControllerTech("SFQ", 100e-9)
CRYO_CMOS_CONTROLLER = ControllerTech("cryoCMOS", 10e-6)

_TECHS = {t.name: t for t in (TARGET_CONTROLLER, SFQ_CONTROLLER, CRYO_CMOS_CONTROLLER)}


def controller_tech(name: str, power_per_qubit: float | None = None) -> ControllerTech:
    """Look up a named technology, or build a custom one with explicit power."""
    if power_per_qubit is not None:
        return ControllerTech(name, power_per_qubit)
    try:
        return _TECHS[name]
    except KeyError:
        raise ValueError(
            f"unknown controller tech {name!r}; known: {sorted(_TECHS)} "
            "(or supply power_per_qubit)"
        ) from None


@frozen
class ControllerBudget:
    total: float       # W
    feasible: bool
    margin: float      # cooling_power / total

    def to_record(self) -> dict:
        return {"total_w": self.total, "feasible": self.feasible, "margin": self.margin}


def controller_budget(n_qubits: int, tech: ControllerTech, stage: Stage) -> ControllerBudget:
    """Aggregate dissipation of one controller per qubit against a stage budget."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    total = n_qubits * tech.power_per_qubit
    return ControllerBudget(total, *_verdict(total, stage.cooling_power))


@frozen
class ConductionPath:
    """A bundle of identical conductive links between two temperatures.

    scale multiplies the result (e.g. to study imperfect heat shielding);
    residual_resistivity enables the Wiedemann-Franz fallback for normal
    metals without tabulated k(T).
    """

    material: str
    cross_section_area: float  # m^2
    length: float              # m
    t_hot: float               # K
    t_cold: float              # K
    count: int = 1
    scale: float = 1.0
    residual_resistivity: float | None = None

    def __post_init__(self):
        if self.cross_section_area <= 0 or self.length <= 0:
            raise ValueError("area and length must be > 0")
        if self.t_cold <= 0:
            raise ValueError("t_cold must be > 0")
        if self.t_hot < self.t_cold:
            raise ValueError("t_hot must be >= t_cold")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.scale < 0:
            raise ValueError("scale must be >= 0")
        if self.residual_resistivity is not None and self.residual_resistivity <= 0:
            raise ValueError("residual_resistivity must be > 0")


def _power_law_integral(a: float, ka: float, b: float, kb: float) -> float:
    """Exact integral over [a, b] of the power law k(T) = ka (T/a)^n with k(b) = kb.

    With L = ln(b/a) and x = (n+1) L = ln(kb b) - ln(ka a), it is
    ka a L expm1(x)/x (ka a L at n = -1, x = 0), written as (kb b - ka a) L/x
    once |x| >= 1.  Neither form raises T to a power, so k spanning hundreds
    of decades stays finite.
    """
    span = math.log(b / a)
    x = math.log(kb) - math.log(ka) + span
    if abs(x) >= 1.0:
        return (kb * b - ka * a) * span / x
    return ka * a * span * (math.expm1(x) / x if x else 1.0)


def conduction_load(path: ConductionPath, catalog: MaterialCatalog) -> float:
    """Conductive heat flow Q = count * (A/L) * integral of k(T) dT, watts.

    Between table nodes the log-log interpolated k(T) is a power law, so
    the integral is exact per segment, split at the table nodes.
    """
    if path.t_hot == path.t_cold:
        return 0.0
    material = catalog.lookup(path.material)
    # k(T) at the span ends reports a missing table or an out-of-range span.
    cuts = ([path.t_cold] + [t for t, _ in material.thermal_conductivity_table
                             if path.t_cold < t < path.t_hot] + [path.t_hot])
    ks = [interpolate_conductivity(material, t) for t in cuts]
    integral = sum(_power_law_integral(a, ka, b, kb)
                   for a, ka, b, kb in zip(cuts, ks, cuts[1:], ks[1:]))
    return path.count * path.scale * (path.cross_section_area / path.length) * integral


def wiedemann_franz_load(path: ConductionPath) -> float:
    """Fallback heat flow for a normal metal: k(T) = L0 T / rho0.

    The integral is closed-form; rho0 is the path's residual resistivity.
    Only valid for normal-state metals where electrons dominate transport.
    """
    if path.residual_resistivity is None or path.residual_resistivity <= 0:
        raise ValueError("wiedemann_franz_load requires residual_resistivity > 0")
    integral = LORENZ_NUMBER * (path.t_hot ** 2 - path.t_cold ** 2) / (2.0 * path.residual_resistivity)
    return path.count * path.scale * (path.cross_section_area / path.length) * integral


@frozen
class ThermalArchitecture:
    """Placement of controller blocks and conduction paths onto stages."""

    controllers: tuple[tuple[str, int, ControllerTech], ...] = ()
    paths: tuple[tuple[str, ConductionPath], ...] = ()


@frozen
class StageRow:
    stage: str
    temperature: float
    cooling_power: float
    controller_watts: float
    conduction_watts: float
    total_watts: float
    feasible: bool
    margin: float  # inf when nothing loads the stage
    methods: tuple[str, ...] = ()

    def to_record(self) -> dict:
        return {
            "stage": self.stage,
            "temperature_k": self.temperature,
            "cooling_power_w": self.cooling_power,
            "controller_w": self.controller_watts,
            "conduction_w": self.conduction_watts,
            "total_w": self.total_watts,
            "feasible": self.feasible,
            "margin": None if self.margin == float("inf") else self.margin,
            "methods": list(self.methods),
        }


@frozen
class StageReport:
    rows: tuple[StageRow, ...]

    def to_csv(self) -> str:
        lines = ["stage,temperature_k,cooling_power_w,controller_w,conduction_w,"
                 "total_w,feasible,margin,methods"]
        for r in self.rows:
            lines.append(
                f"{r.stage},{r.temperature:.12g},{r.cooling_power:.12g},"
                f"{r.controller_watts:.12g},{r.conduction_watts:.12g},"
                f"{r.total_watts:.12g},{str(r.feasible).lower()},{r.margin:.12g},"
                f"{'+'.join(r.methods)}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        head = f"{'stage':<8}{'T [K]':>10}{'cooling [W]':>14}{'load [W]':>14}{'margin':>10}  verdict"
        lines = [head, "-" * len(head)]
        for r in self.rows:
            verdict = "ok" if r.feasible else "OVER BUDGET"
            lines.append(
                f"{r.stage:<8}{r.temperature:>10.4g}{r.cooling_power:>14.4g}"
                f"{r.total_watts:>14.4g}{r.margin:>10.3g}  {verdict}"
            )
        return "\n".join(lines) + "\n"


def stage_report(arch: ThermalArchitecture, stages: StageModel,
                 catalog: MaterialCatalog) -> StageReport:
    """Per-stage sums of controller dissipation and incoming conduction."""
    rows = []
    for s in stages.stages:
        controller_w = 0.0
        for stage_name, count, tech in arch.controllers:
            if stage_name == s.name:
                controller_w += controller_budget(count, tech, s).total
        conduction_w = 0.0
        methods = []
        for stage_name, path in arch.paths:
            if stage_name != s.name:
                continue
            material = catalog.lookup(path.material)
            # Without a table or a residual resistivity, conduction_load
            # reports the missing k(T) data.
            if material.thermal_conductivity_table or path.residual_resistivity is None:
                conduction_w += conduction_load(path, catalog)
                methods.append("table")
            else:
                conduction_w += wiedemann_franz_load(path)
                methods.append("wiedemann-franz")
        total = controller_w + conduction_w
        if not math.isfinite(total):
            raise OutOfRange(f"stage {s.name}: load of {total} W is not finite")
        feasible, margin = _verdict(total, s.cooling_power)
        rows.append(StageRow(
            stage=s.name,
            temperature=s.temperature,
            cooling_power=s.cooling_power,
            controller_watts=controller_w,
            conduction_watts=conduction_w,
            total_watts=total,
            feasible=feasible,
            margin=margin,
            methods=tuple(methods),
        ))
    return StageReport(rows=tuple(rows))
