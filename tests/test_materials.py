import json
import math

import numpy as np
import pytest

from densewire.errors import ConfigInvalid, NotAConductor, OutOfRange, UnknownMaterial
from densewire.materials import (
    REQUIRED_MATERIALS,
    Material,
    interpolate_conductivity,
    is_superconducting,
    load_catalog,
)


def test_catalog_has_required_entries(catalog):
    for name in REQUIRED_MATERIALS:
        assert name in catalog, name


def test_lookup_values(catalog):
    assert catalog.lookup("STYCAST-1266").relative_permittivity == pytest.approx(3.0)
    assert catalog.lookup("Nb").superconducting_Tc == pytest.approx(9.2)


def test_lookup_unknown(catalog):
    with pytest.raises(UnknownMaterial):
        catalog.lookup("unobtainium")


def test_lookup_alias(catalog):
    assert catalog.lookup("Cu") is catalog.lookup("OFHC-Cu")


def test_lookup_round_trips_every_entry(catalog):
    for name, entry in catalog.entries.items():
        assert catalog.lookup(name) is entry


def test_superconducting_below_tc(catalog):
    assert is_superconducting(catalog.lookup("Nb"), 0.01) is True


def test_superconducting_boundary_is_strict(catalog):
    assert is_superconducting(catalog.lookup("Nb"), 9.2) is False


def test_superconducting_without_tc(catalog):
    assert is_superconducting(catalog.lookup("Cu"), 0.01) is False


def test_superconducting_rejects_dielectric(catalog):
    with pytest.raises(NotAConductor):
        is_superconducting(catalog.lookup("PTFE"), 0.01)


def test_interpolation_at_node_is_exact(catalog):
    m = catalog.lookup("SUS-304")
    for t, k in m.thermal_conductivity_table:
        assert interpolate_conductivity(m, t) == k


def test_interpolation_geometric_mean(catalog):
    # log-log linearity: the geometric mean of two nodes maps to the
    # geometric mean of their conductivities.
    m = catalog.lookup("SUS-304")
    table = m.thermal_conductivity_table
    for (t0, k0), (t1, k1) in zip(table, table[1:]):
        t = math.sqrt(t0 * t1)
        assert interpolate_conductivity(m, t) == pytest.approx(math.sqrt(k0 * k1), rel=1e-12)


def test_sus304_at_1k_matches_published_fit(catalog):
    # Oracle: the low-temperature power law k = 0.0556 T^1.15 evaluated
    # directly, independent of the table nodes and interpolation.
    m = catalog.lookup("SUS-304")
    oracle = 0.0556 * 1.0 ** 1.15
    assert interpolate_conductivity(m, 1.0) == pytest.approx(oracle, rel=0.05)


def test_interpolation_monotone_between_nodes(catalog):
    rng = np.random.default_rng(20260808)
    m = catalog.lookup("SUS-304")
    table = m.thermal_conductivity_table
    for (t0, k0), (t1, k1) in zip(table, table[1:]):
        ts = np.sort(rng.uniform(t0, t1, size=8))
        ks = [interpolate_conductivity(m, t) for t in ts]
        if k0 < k1:
            assert all(a <= b + 1e-15 for a, b in zip(ks, ks[1:]))
        else:
            assert all(a >= b - 1e-15 for a, b in zip(ks, ks[1:]))


def test_interpolation_out_of_range(catalog):
    m = catalog.lookup("SUS-304")
    with pytest.raises(OutOfRange):
        interpolate_conductivity(m, 0.001)
    with pytest.raises(OutOfRange):
        interpolate_conductivity(m, 400.0)


def test_interpolation_without_table(catalog):
    with pytest.raises(OutOfRange):
        interpolate_conductivity(catalog.lookup("Al"), 1.0)


@pytest.mark.parametrize("kwargs", [
    dict(name="x", kind="dielectric", relative_permittivity=0.5),
    dict(name="x", kind="dielectric"),
    dict(name="x", kind="conductor", relative_permittivity=3.0),
    dict(name="x", kind="dielectric", relative_permittivity=2.0, superconducting_Tc=1.0),
    dict(name="x", kind="conductor", thermal_conductivity_table=((2.0, 1.0), (1.0, 2.0))),
    dict(name="x", kind="conductor", thermal_conductivity_table=((1.0, 1.0), (2.0, -1.0))),
    dict(name="x", kind="pixie dust"),
])
def test_material_invariants_rejected(kwargs):
    with pytest.raises(ValueError):
        Material(**kwargs)


def test_load_catalog_from_file(tmp_path):
    path = tmp_path / "mats.json"
    path.write_text(json.dumps({
        "materials": [
            {"name": "unobtainium", "kind": "conductor", "superconducting_Tc": 100.0},
        ],
        "aliases": {"U": "unobtainium"},
    }))
    cat = load_catalog(path)
    assert cat.lookup("U").superconducting_Tc == 100.0


def test_load_catalog_rejects_duplicates(tmp_path):
    path = tmp_path / "mats.json"
    path.write_text(json.dumps({"materials": [
        {"name": "a", "kind": "conductor"},
        {"name": "a", "kind": "conductor"},
    ]}))
    with pytest.raises(ConfigInvalid):
        load_catalog(path)


def test_load_catalog_rejects_dangling_alias(tmp_path):
    path = tmp_path / "mats.json"
    path.write_text(json.dumps({"materials": [], "aliases": {"x": "missing"}}))
    with pytest.raises(ConfigInvalid):
        load_catalog(path)


@pytest.mark.parametrize("text,field", [
    ("{nope", "not valid JSON"),
    ("[]", "<root>"),
    ('{"materials": {}}', "materials"),
    ('{"materials": [{"name": "a", "kind": "conductor", "Tc": 1.0}]}', "materials[0].Tc"),
    ('{"materials": [{"name": "a", "kind": "conductor", "superconducting_Tc": "1K"}]}',
     "materials[0].superconducting_Tc"),
])
def test_bad_catalog_exits_1_naming_field(tmp_path, capsys, text, field):
    from densewire.cli import main

    path = tmp_path / "mats.json"
    path.write_text(text)
    code = main(["--materials", str(path), "--out", str(tmp_path / "o"), "scale"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {field}")


def test_default_config_materials_exist_in_catalog(catalog):
    # Closure: every material the shipped design references must resolve.
    from densewire.config import parse_design_config
    from importlib import resources

    raw = json.loads(resources.files("densewire").joinpath("data/default_config.json")
                     .read_text("utf-8"))
    cfg = parse_design_config(raw, catalog)
    referenced = {name for name, _ in cfg.pin_stack.coatings}
    referenced.add(cfg.coax.dielectric)
    referenced.update(path.material for _, path in cfg.thermal.paths)
    for name in referenced:
        assert name in catalog, name
