"""Design-config parsing: one JSON document describing the whole design.

Parsing takes two steps.  Every field is read through one declarative
schema (`_SCHEMA`) of field kinds from `units`.  Then the builders of
`_BUILDERS`, each keyed by the top-level sections it depends on, resolve
the read document into a DesignConfig.  Parsed against a `base` config
whose raw document it shares sections with, as a sweep point is, a config
reads and builds only what those shared sections do not settle.
Dimensional fields carry explicit unit suffixes ("500um", "10GHz"); bare
numbers are read as base SI units.
Keys named "notes" or starting with an underscore are ignored everywhere,
so configs can be annotated.  Every type, unit, range or reference error
raises ConfigInvalid naming the dotted field path.

Derivations tie the sections together the way the hardware does:
  * the interposer coax inherits inner diameter from the finished pin and
    outer diameter from the hole, with the fill material's permittivity;
  * a pin core diameter of "auto" back-solves from the hole diameter,
    the pin/hole diametral clearance, and the coating stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import units
from .errors import ConfigInvalid
from .layout import ANNOTATION, LAYOUT, Annotation, LayoutConfig
from .materials import MaterialCatalog, default_catalog
from .scaling import BondWireGeometry, QubitArraySpec, WiringArchitecture, wire_pitch_from_bonds
from .tlines import CoaxSpec, CpwSpec, PinStack, pin_outer_diameter
from .thermal import (
    ConductionPath,
    Stage,
    StageModel,
    ThermalArchitecture,
    controller_tech,
    default_stage_model,
)
from .units import (
    build, flag, integer, listof, number, optional, pair, positive_length, raw, section, string)


MAX_BAND_HZ = 10e9  # the interconnect is specified DC to ~10 GHz
_BAND_RULE = f"0 <= f_lo < f_hi <= {MAX_BAND_HZ:.0e} Hz"


def _in_band(f_lo: float, f_hi: float) -> bool:
    return 0.0 <= f_lo < f_hi <= MAX_BAND_HZ * (1 + 1e-9)


@dataclass(frozen=True)
class RfSettings:
    """The swept band and the signal path's feed, taper and bond."""

    band: tuple[float, float] = (0.0, 10e9)
    points: int = 1001
    system_impedance: float = 50.0
    feed_length: float = 0.0
    taper_length: float = 0.0
    taper_segments: int = 16
    bond_resistance: float = 0.0
    bond_inductance: float = 0.0

    def __post_init__(self):
        if not _in_band(*self.band):
            raise ValueError(f"band must satisfy {_BAND_RULE}")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if self.taper_segments < 1:
            raise ValueError("taper_segments must be >= 1")
        if self.system_impedance <= 0:
            raise ValueError("system_impedance must be > 0")
        if min(self.feed_length, self.taper_length, self.bond_resistance,
               self.bond_inductance) < 0:
            raise ValueError("lengths, bond_resistance and bond_inductance must be >= 0")


@dataclass(frozen=True)
class SweepDecl:
    parameter: str
    points: tuple[float, ...]  # the swept values, start to stop
    keys: tuple[str | int, ...]  # `parameter` as keys into the raw config; ints index lists


@dataclass(frozen=True)
class DesignConfig:
    qubit_array: QubitArraySpec
    wiring: tuple[WiringArchitecture, ...]
    pin_stack: PinStack
    layout: LayoutConfig
    coax: CoaxSpec
    cpw: CpwSpec | None
    rf: RfSettings
    stages: StageModel
    thermal: ThermalArchitecture
    sweeps: tuple[SweepDecl, ...]
    annotations: tuple[Annotation, ...]
    raw: dict  # the parsed JSON document this config came from


def _core_diameter(value, where: str):
    return value if value == "auto" else units.parse_length(value, where)


length, area, power = units.parse_length, units.parse_area, units.parse_power
temperature, resistance = units.parse_temperature, units.parse_resistance

# The whole config schema.  Optional fields without a default here take the
# value type's own default.
_SCHEMA = section(
    qubit_array=section(qubit_pitch=length, chip_side=length),
    wiring=listof(section(
        access=string,
        wire_pitch=optional(length),
        bond_geometry=optional(section(
            wire_diameter=length, wire_gap=length,
            wires_per_line=optional(integer(1)), grounds_shared=optional(flag))),
        wires_per_qubit=optional(number)), unique="access"),
    pin_stack=section(core_diameter=_core_diameter,
                      coatings=optional(listof(pair(string, length)))),
    interposer=optional(section(
        dielectric=optional(string, "STYCAST-1266"),
        eps_r=optional(units.bounded(number, 1.0)),
        pin_hole_clearance=optional(positive_length, "100um")), {}),
    layout=LAYOUT,
    coax=optional(section(inner_diameter=length, outer_diameter=length,
                          eps_r=optional(number))),
    cpw=optional(section(
        trace_width=length, gap=length, substrate_eps_r=number, covered=optional(flag),
        cover_height=optional(positive_length))),
    rf=optional(section(
        band=optional(pair(units.parse_frequency, units.parse_frequency)),
        points=optional(integer(2)), system_impedance=optional(resistance),
        feed_length=optional(length), taper_length=optional(length),
        taper_segments=optional(integer(1)), bond_resistance=optional(resistance),
        bond_inductance=optional(units.parse_inductance)), {}),
    stages=optional(listof(section(name=string, temperature=temperature, cooling_power=power),
                           unique="name")),
    thermal=optional(section(
        controllers=optional(listof(section(
            stage=string, count=integer(1), tech=string, power_per_qubit=optional(power)))),
        paths=optional(listof(section(
            stage=string, material=string, cross_section_area=area, length=length,
            t_hot=temperature, t_cold=temperature, count=optional(integer(1)),
            scale=optional(number), residual_resistivity=optional(number))))), {}),
    # Sweep end-points are read with the swept field's kind in _sweeps.
    sweeps=optional(listof(section(
        parameter=string, start=raw, stop=raw, steps=integer(1)), unique="parameter")),
    annotations=optional(listof(ANNOTATION)),
)


# Resolving: each builder turns the read sections it is keyed by in
# `_BUILDERS`, and the fields `built` by the builders before it, into
# DesignConfig fields.


def _qubit_array(doc: dict, cat: MaterialCatalog, built: dict) -> dict:
    return {"qubit_array": build(QubitArraySpec, "qubit_array", **doc["qubit_array"])}


def _wiring(doc: dict, cat: MaterialCatalog, built: dict) -> dict:
    if not doc["wiring"]:
        raise ConfigInvalid("wiring", "expected a nonempty list of wiring architectures")
    out = []
    for i, d in enumerate(doc["wiring"]):
        where = f"wiring[{i}]"
        if ("wire_pitch" in d) == ("bond_geometry" in d):
            raise ConfigInvalid(where, "needs exactly one of wire_pitch or bond_geometry")
        if "bond_geometry" in d:
            geom = build(BondWireGeometry, f"{where}.bond_geometry", **d["bond_geometry"])
            pitch = wire_pitch_from_bonds(geom)
            if not math.isfinite(pitch):
                raise ConfigInvalid(f"{where}.bond_geometry",
                                    "the derived wire pitch leaves the float range")
            d = {k: v for k, v in d.items() if k != "bond_geometry"}
            d.update(wire_pitch=pitch, provenance="derived_from_bond_geometry")
        out.append(build(WiringArchitecture, where, **d))
    return {"wiring": tuple(out)}


def _interposer(doc: dict, cat: MaterialCatalog, built: dict) -> dict:
    """The layout, the pin stack and the interposer coax: an "auto" pin core
    fills the hole, and without a coax section the coax is the pin in its hole."""
    layout = build(LayoutConfig, "layout", **doc["layout"])

    interposer = doc["interposer"]
    dielectric = interposer["dielectric"]
    eps_r = interposer.get("eps_r")
    if eps_r is None:
        if dielectric not in cat:
            raise ConfigInvalid("interposer.dielectric", f"unknown material {dielectric!r}")
        eps_r = cat.lookup(dielectric).relative_permittivity
        if eps_r is None:
            raise ConfigInvalid("interposer.dielectric",
                                f"{dielectric!r} has no relative permittivity")

    pin = doc["pin_stack"]
    if pin["core_diameter"] == "auto":
        core = (layout.hole_diameter - interposer["pin_hole_clearance"]
                - 2.0 * sum(t for _, t in pin.get("coatings", ())))
        if core <= 0:
            raise ConfigInvalid(
                "pin_stack.core_diameter",
                "auto-derived core is not positive; check hole diameter and clearance")
        pin = pin | {"core_diameter": core}
    pin_stack = build(PinStack, "pin_stack", **pin)
    for i, (name, _) in enumerate(pin_stack.coatings):
        if name not in cat:
            raise ConfigInvalid(f"pin_stack.coatings[{i}][0]", f"material {name!r} not in catalog")

    coax = doc.get("coax") or {"inner_diameter": pin_outer_diameter(pin_stack),
                               "outer_diameter": layout.hole_diameter}
    if "coax" not in doc and coax["inner_diameter"] >= layout.hole_diameter:
        raise ConfigInvalid("pin_stack", f"the finished pin ({coax['inner_diameter']:g} m) must "
                            f"be narrower than layout.hole_diameter ({layout.hole_diameter:g} m)")
    if "eps_r" not in coax:
        coax = coax | {"eps_r": eps_r, "dielectric": dielectric}
    return {"layout": layout, "pin_stack": pin_stack, "coax": build(CoaxSpec, "coax", **coax)}


def _cpw(doc: dict, cat: MaterialCatalog, built: dict) -> dict:
    return {"cpw": build(CpwSpec, "cpw", **doc["cpw"]) if "cpw" in doc else None}


def _rf(doc: dict, cat: MaterialCatalog, built: dict) -> dict:
    rf = doc["rf"]
    if "band" in rf and not _in_band(*rf["band"]):  # named here: the section's build names "rf"
        raise ConfigInvalid("rf.band", f"must satisfy {_BAND_RULE}")
    return {"rf": build(RfSettings, "rf", **rf)}


def _stage(entry: dict, stages: StageModel, where: str) -> str:
    name = entry["stage"]
    if not any(s.name == name for s in stages.stages):
        raise ConfigInvalid(f"{where}.stage", f"references unknown stage {name!r}")
    return name


def _stages(doc: dict, cat: MaterialCatalog, built: dict) -> dict:
    if "stages" not in doc:
        return {"stages": default_stage_model()}
    return {"stages": build(StageModel, "stages", stages=tuple(
        build(Stage, f"stages[{i}]", **s) for i, s in enumerate(doc["stages"])))}


def _thermal(doc: dict, cat: MaterialCatalog, built: dict) -> dict:
    """The controllers and conduction paths, each on a stage of `built`."""
    stages = built["stages"]
    controllers = []
    for i, c in enumerate(doc["thermal"].get("controllers", ())):
        where = f"thermal.controllers[{i}]"
        stage = _stage(c, stages, where)
        tech = build(controller_tech, where, name=c["tech"],
                     power_per_qubit=c.get("power_per_qubit"))
        controllers.append((stage, c["count"], tech))
    paths = []
    for i, p in enumerate(doc["thermal"].get("paths", ())):
        where = f"thermal.paths[{i}]"
        stage = _stage(p, stages, where)
        if p["material"] not in cat:
            raise ConfigInvalid(f"{where}.material", f"material {p['material']!r} not in catalog")
        paths.append((stage, build(ConductionPath, where,
                                   **{k: v for k, v in p.items() if k != "stage"})))
    return {"thermal": ThermalArchitecture(controllers=tuple(controllers), paths=tuple(paths))}


def _annotations(doc: dict, cat: MaterialCatalog, built: dict) -> dict:
    return {"annotations": tuple(Annotation(**a) for a in doc.get("annotations", ()))}


# Every builder, keyed by the top-level sections it reads or whose fields
# it takes from `built`, in the order a parse runs them: the order in
# which their errors are found.
_BUILDERS = (
    (("qubit_array",), _qubit_array),
    (("wiring",), _wiring),
    (("layout", "pin_stack", "interposer", "coax"), _interposer),
    (("stages",), _stages),
    (("cpw",), _cpw),
    (("rf",), _rf),
    (("stages", "thermal"), _thermal),
    (("annotations",), _annotations),
)
_ABSENT = object()


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """`n` evenly spaced floats from `start` to `stop`, both included, by
    numpy's own formula, so they equal `numpy.linspace(start, stop, n)`
    bit for bit: i*step + start, or (i/div)*delta + start when the step
    rounds to zero, with the last point `stop` itself.

    The list is allocated whole before it is filled, so a count beyond
    memory raises MemoryError at once instead of growing until it does, and
    one beyond any index (2**63 or more) raises OverflowError.
    """
    start, stop = float(start), float(stop)
    delta = stop - start
    if n == 1:
        return [0.0 * delta + start]
    pts = [stop] * n
    div = n - 1
    step = delta / div
    for i in range(div):
        pts[i] = i * step + start if step else i / div * delta + start
    return pts


def _sweeps(entries: tuple[dict, ...], raw: dict) -> tuple[SweepDecl, ...]:
    """Each sweep's path must name a numeric field that this config sets,
    outside `sweeps`: a point's config leaves the sweeps out."""
    out = []
    for i, d in enumerate(entries):
        where, kind, node, keys = f"sweeps[{i}]", _SCHEMA, raw, []
        path = d["parameter"].split(".")
        if path[0] == "sweeps":
            raise ConfigInvalid(f"{where}.parameter", "a sweep cannot sweep the sweeps")
        for key in path:
            kind = getattr(kind, "child", lambda _: None)(key)
            if kind is None:
                raise ConfigInvalid(f"{where}.parameter", f"no config field {d['parameter']!r}")
            try:  # the schema has read `raw`, so a list here is indexed by a decimal key
                keys.append(int(key) if isinstance(node, list) else key)
                node = node[keys[-1]]
            except (IndexError, KeyError):
                raise ConfigInvalid(f"{where}.parameter",
                                    f"{d['parameter']!r} is not set in this config") from None
        ends = []
        for end in ("start", "stop"):
            ends.append(kind(d[end], f"{where}.{end}"))
            if type(ends[-1]) not in (int, float):  # a flag, string or section
                raise ConfigInvalid(f"{where}.{end}", f"{d['parameter']} is not a numeric field")
        (start, stop), steps = ends, d["steps"]
        if steps == 1 and start != stop:
            raise ConfigInvalid(f"{where}.steps",
                                f"1 step needs start == stop, got {start:g} and {stop:g}")
        try:
            points = tuple(_linspace(start, stop, steps))
        except (MemoryError, OverflowError):
            raise ConfigInvalid(f"{where}.steps", f"{steps:g} points do not fit in memory") from None
        if type(start) is int and any(  # an integer field takes integral points only
                not v.is_integer() for v in points):
            raise ConfigInvalid(f"{where}.steps", f"{steps} steps from {start} to {stop} give "
                                f"non-integral points of integer field {d['parameter']}")
        out.append(SweepDecl(d["parameter"], points, tuple(keys)))
    return tuple(out)


def parse_design_config(raw: dict, catalog: MaterialCatalog | None = None,
                        base: DesignConfig | None = None) -> DesignConfig:
    """Validate and resolve a raw config dict into a DesignConfig: read it
    through `_SCHEMA`, then run the builders of `_BUILDERS` in order.

    `base` is a config parsed with the same catalog whose raw document may
    share top-level sections with `raw`: the very same objects, unchanged
    since, as `set_parameter` shares every section off the swept field's
    path.  Parsing never writes to a raw document, so a builder whose
    sections are all shared would build what `base` holds.  Only the other
    builders run, and only their sections and `sweeps` are read: the result
    is the config that a parse without `base` gives.
    """
    cat = catalog if catalog is not None else default_catalog()
    built, builders, names = {}, _BUILDERS, None
    if base is not None:
        changed = {key for key in raw.keys() | base.raw.keys()
                   if raw.get(key, _ABSENT) is not base.raw.get(key, _ABSENT)}
        builders = [(keys, builder) for keys, builder in _BUILDERS if changed.intersection(keys)]
        names = {"sweeps"}.union(*(keys for keys, _ in builders))
        built = vars(base).copy()
    doc = _SCHEMA(raw, "", names)
    for _, builder in builders:
        built.update(builder(doc, cat, built))
    built.update(sweeps=_sweeps(doc.get("sweeps", ()), raw), raw=raw)
    return DesignConfig(**built)


def load_design_config(path: str | Path, catalog: MaterialCatalog | None = None) -> DesignConfig:
    return parse_design_config(units.load_json(path), catalog)


def set_parameter(raw: dict, keys: tuple[str | int, ...], value: float) -> dict:
    """`raw` without its `sweeps`, with the field at `keys` set to `value`
    (SI units): the raw config of one sweep point.

    `keys` are a sweep's `SweepDecl.keys`, which parsing has already
    checked reach a field set in `raw` outside `sweeps`.  Only the dicts
    and lists along `keys` are copied; every other section is shared with
    `raw`, which parsing never writes to.
    """
    out = {k: v for k, v in raw.items() if k != "sweeps"}
    *parents, last = keys
    node = out
    for key in parents:
        node[key] = node[key].copy()
        node = node[key]
    node[last] = value
    return out
