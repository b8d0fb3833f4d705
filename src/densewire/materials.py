"""Material catalog: conductors and dielectrics with the properties the
impedance, layout, and thermal modules consume.

The built-in catalog lives in ``data/materials.json`` and can be replaced
wholesale with a user file of the same schema (one record per material).
Catalogs are immutable after load and safe to share across workers.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from importlib import resources
from pathlib import Path

from .errors import ConfigInvalid, NotAConductor, OutOfRange, UnknownMaterial
from .units import build, frozen, listof, load_json, number, optional, pair, section, string

CONDUCTOR = "conductor"
DIELECTRIC = "dielectric"


@frozen
class Material:
    """One catalog record.

    thermal_conductivity_table rows are (temperature [K], k [W/m/K]) with
    strictly increasing temperatures; melting_or_reflow_temp is in degC.
    """

    name: str
    kind: str
    relative_permittivity: float | None = None
    superconducting_Tc: float | None = None
    thermal_conductivity_table: tuple[tuple[float, float], ...] = ()
    melting_or_reflow_temp: float | None = None

    def __post_init__(self):
        if self.kind not in (CONDUCTOR, DIELECTRIC):
            raise ValueError(f"{self.name}: kind must be conductor or dielectric, got {self.kind!r}")
        if self.kind == DIELECTRIC:
            if self.relative_permittivity is None or self.relative_permittivity < 1.0:
                raise ValueError(f"{self.name}: dielectric needs relative_permittivity >= 1")
            if self.superconducting_Tc is not None:
                raise ValueError(f"{self.name}: superconducting_Tc only applies to conductors")
        else:
            if self.relative_permittivity is not None:
                raise ValueError(f"{self.name}: relative_permittivity only applies to dielectrics")
        prev_t = 0.0
        for t, k in self.thermal_conductivity_table:
            if t <= prev_t:
                raise ValueError(f"{self.name}: conductivity table temperatures must strictly increase")
            if k <= 0.0:
                raise ValueError(f"{self.name}: conductivity values must be > 0")
            prev_t = t


@frozen
class MaterialCatalog:
    entries: dict = {}
    aliases: dict = {}

    def lookup(self, name: str) -> Material:
        key = self.aliases.get(name, name)
        try:
            return self.entries[key]
        except KeyError:
            raise UnknownMaterial(name) from None

    def __contains__(self, name: str) -> bool:
        return self.aliases.get(name, name) in self.entries


REQUIRED_MATERIALS = (
    "Al", "Nb", "In", "TiN", "Sn-Pb", "Nb-Ti", "SUS-304", "OFHC-Cu",
    "polyimide", "PTFE", "STYCAST-1266", "Si", "sapphire",
)


def _aliases(value, where: str) -> dict:
    """An object mapping each alias to the name of a catalog entry."""
    if not isinstance(value, dict):
        raise ConfigInvalid(where, f"expected an object, got {type(value).__name__}")
    return {alias: string(target, f"{where}.{alias}") for alias, target in value.items()}


_CATALOG_SCHEMA = section(
    materials=optional(listof(section(
        name=string, kind=string,
        relative_permittivity=optional(number), superconducting_Tc=optional(number),
        thermal_conductivity_table=optional(listof(pair(number, number))),
        melting_or_reflow_temp=optional(number)), unique="name"), []),
    aliases=optional(_aliases, {}),
)


def load_catalog(path: str | Path) -> MaterialCatalog:
    """Load a catalog from a JSON file; see data/materials.json for the schema."""
    return _catalog_from_dict(load_json(path), str(path))


def _catalog_from_dict(raw, where: str) -> MaterialCatalog:
    try:
        doc = _CATALOG_SCHEMA(raw, "")
        entries = {}
        for i, rec in enumerate(doc["materials"]):
            entries[rec["name"]] = build(Material, f"materials[{i}]", **rec)
        for alias, target in doc["aliases"].items():
            if target not in entries:
                raise ConfigInvalid(f"aliases.{alias}", f"alias target {target!r} not in catalog")
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{where}: {exc.field}", exc.message) from None
    return MaterialCatalog(entries=entries, aliases=doc["aliases"])


@functools.cache
def default_catalog() -> MaterialCatalog:
    """The built-in catalog (cached; immutable)."""
    text = resources.files("densewire").joinpath("data/materials.json").read_text("utf-8")
    return _catalog_from_dict(json.loads(text), "data/materials.json")


def is_superconducting(m: Material, temperature: float) -> bool:
    """True iff the conductor has a critical temperature above `temperature`.

    Strict inequality: a conductor at exactly Tc is treated as normal.
    """
    if m.kind != CONDUCTOR:
        raise NotAConductor(m.name)
    return m.superconducting_Tc is not None and temperature < m.superconducting_Tc


def interpolate_conductivity(m: Material, temperature: float) -> float:
    """Thermal conductivity k(T) by log-log interpolation of the table.

    Cryogenic k(T) spans decades, so interpolation is linear in
    (log T, log k); temperatures at a table node return the node value.
    """
    table = m.thermal_conductivity_table
    if not table:
        raise OutOfRange(f"{m.name}: no thermal conductivity data")
    if temperature < table[0][0] or temperature > table[-1][0]:
        raise OutOfRange(
            f"{m.name}: T={temperature} K outside table range "
            f"[{table[0][0]}, {table[-1][0]}] K"
        )
    i = bisect.bisect_right(table, temperature, key=lambda row: row[0])
    t0, k0 = table[i - 1]  # t0 <= temperature < t1
    if temperature == t0:
        return k0
    t1, k1 = table[i]
    w = (math.log(temperature) - math.log(t0)) / (math.log(t1) - math.log(t0))
    return math.exp(math.log(k0) + w * (math.log(k1) - math.log(k0)))
