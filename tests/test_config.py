import contextlib
import copy
import dataclasses
import io
import json
import random
import re
import struct
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densewire import config as config_module
from densewire.cli import main
from densewire.config import RfSettings, load_design_config, parse_design_config, set_parameter
from densewire.errors import ConfigInvalid


@pytest.fixture(scope="module")
def default_raw():
    text = resources.files("densewire").joinpath("data/default_config.json").read_text("utf-8")
    return json.loads(text)


@pytest.fixture()
def raw(default_raw):
    return copy.deepcopy(default_raw)


def test_default_config_parses(raw, catalog):
    cfg = parse_design_config(raw, catalog)
    assert cfg.qubit_array.chip_side == pytest.approx(0.2)
    assert len(cfg.wiring) == 2
    assert cfg.sweeps


def test_bond_geometry_derives_wire_pitch(raw, catalog):
    cfg = parse_design_config(raw, catalog)
    (lateral,) = (w for w in cfg.wiring if w.access == "lateral")
    assert lateral.provenance == "derived_from_bond_geometry"
    assert lateral.wire_pitch == pytest.approx(56e-6, rel=1e-12)


def test_auto_pin_core_and_derived_coax(raw, catalog):
    cfg = parse_design_config(raw, catalog)
    assert cfg.pin_stack.core_diameter == pytest.approx(178e-6, rel=1e-9)
    assert cfg.coax.inner_diameter == pytest.approx(200e-6, rel=1e-9)
    assert cfg.coax.outer_diameter == pytest.approx(300e-6, rel=1e-12)
    assert cfg.coax.eps_r == pytest.approx(3.0)
    assert cfg.coax.dielectric == "STYCAST-1266"


def test_explicit_coax_override(raw, catalog):
    raw["coax"] = {"inner_diameter": "100um", "outer_diameter": "200um", "eps_r": 2.1}
    cfg = parse_design_config(raw, catalog)
    assert cfg.coax.inner_diameter == pytest.approx(100e-6)
    assert cfg.coax.eps_r == 2.1


def test_unknown_key_names_field(raw, catalog):
    raw["layout"]["hole_diamater"] = "300um"
    with pytest.raises(ConfigInvalid) as err:
        parse_design_config(raw, catalog)
    assert "layout.hole_diamater" in str(err.value)


def test_missing_field_names_field(raw, catalog):
    del raw["layout"]["channel_width"]
    with pytest.raises(ConfigInvalid) as err:
        parse_design_config(raw, catalog)
    assert "layout.channel_width" in str(err.value)


def test_bad_unit_names_field(raw, catalog):
    raw["qubit_array"]["qubit_pitch"] = "500GHz"
    with pytest.raises(ConfigInvalid) as err:
        parse_design_config(raw, catalog)
    assert "qubit_array.qubit_pitch" in str(err.value)


def test_unknown_stage_reference(raw, catalog):
    raw["thermal"]["controllers"][0]["stage"] = "4K"
    with pytest.raises(ConfigInvalid) as err:
        parse_design_config(raw, catalog)
    assert "thermal.controllers[0].stage" in str(err.value)


def test_unknown_material_reference(raw, catalog):
    raw["thermal"]["paths"][0]["material"] = "unobtainium"
    with pytest.raises(ConfigInvalid):
        parse_design_config(raw, catalog)


def test_sweep_declaration_validation(raw, catalog):
    raw["sweeps"] = [{"parameter": "layout.hole_diameter", "start": "200um",
                      "stop": "300um", "steps": 0}]
    with pytest.raises(ConfigInvalid) as err:
        parse_design_config(raw, catalog)
    assert "sweeps[0].steps" in str(err.value)


def test_sweep_end_points_take_the_swept_field_kind(raw, catalog):
    raw["sweeps"] = [{"parameter": "layout.hole_diameter", "start": 2e-4, "stop": "0.3mm",
                      "steps": 2},
                     {"parameter": "rf.band.1", "start": "1GHz", "stop": 2e9, "steps": 2}]
    sweeps = parse_design_config(raw, catalog).sweeps
    assert [(s.points[0], s.points[-1]) for s in sweeps] == [(2e-4, 0.3e-3), (1e9, 2e9)]
    raw["sweeps"] = [{"parameter": "pin_stack.core_diameter", "start": "auto",
                      "stop": "auto", "steps": 2}]
    with pytest.raises(ConfigInvalid, match=r"^sweeps\[0\]\.start: "):
        parse_design_config(raw, catalog)


def _bits(points) -> list[bytes]:
    return [struct.pack("<d", x) for x in points]


def _random_end(rng: random.Random):
    k = rng.randrange(4)
    if k == 0:  # zeros, subnormals and the ends of the float range
        return rng.choice((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           1e308, -1.7976931348623157e308))
    if k == 1:  # an integer field's end-point
        return rng.randint(-10**6, 10**6)
    if k == 2:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 307)
    return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]  # any bit pattern


@pytest.mark.parametrize("start, stop, steps", [
    (0.0, 1.0, 11), (2e-4, 3e-4, 5), (1e9, 2e9, 21),
    (-0.0, -0.0, 1), (0.0, -0.0, 3), (-0.0, 0.0, 3), (1.0, 2.0, 1), (2.5, 2.5, 1),
    (5e-324, 1e-322, 7),  # a subnormal step
    (0.0, 5e-324, 4),  # a step that rounds to zero
    (-1e308, 1e308, 5),  # a delta beyond the float range
    (1, 400, 20), (-7, 12, 4), (3, 3, 1),  # integer end-points
])
def test_sweep_points_equal_numpy_linspace(start, stop, steps):
    with np.errstate(all="ignore"):  # a delta beyond the float range gives inf and nan
        expected = np.linspace(start, stop, steps).tolist()
    assert _bits(config_module._linspace(start, stop, steps)) == _bits(expected)


def test_sweep_points_equal_numpy_linspace_at_random():
    rng = random.Random(20)
    for _ in range(20_000):
        start, stop, steps = _random_end(rng), _random_end(rng), rng.randint(1, 40)
        if not all(np.isfinite((start, stop))):
            continue
        with np.errstate(all="ignore"):
            expected = np.linspace(start, stop, steps).tolist()
        assert _bits(config_module._linspace(start, stop, steps)) == _bits(expected), \
            (start, stop, steps)


def test_notes_keys_are_ignored(raw, catalog):
    raw["layout"]["notes"] = "hand-tuned"
    raw["_review"] = {"status": "ok"}
    parse_design_config(raw, catalog)


def test_load_from_file(tmp_path, raw, catalog):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(raw))
    cfg = load_design_config(path, catalog)
    assert cfg.layout.array_side_count == raw["layout"]["array_side_count"]


def test_load_rejects_bad_json(tmp_path, catalog):
    path = tmp_path / "design.json"
    path.write_text("{nope")
    with pytest.raises(ConfigInvalid):
        load_design_config(path, catalog)


class TestSetParameter:
    def test_sets_nested_value(self, raw):
        out = set_parameter(raw, ("layout", "hole_diameter"), 250e-6)
        assert out["layout"]["hole_diameter"] == 250e-6
        assert raw["layout"]["hole_diameter"] == "300um"  # original untouched

    def test_list_index_path(self, raw):
        out = set_parameter(raw, ("wiring", 1, "wire_pitch"), 450e-6)
        assert out["wiring"][1]["wire_pitch"] == 450e-6

    def test_copies_only_the_path_and_drops_the_sweeps(self, raw):
        before = copy.deepcopy(raw)
        out = set_parameter(raw, ("wiring", 1, "wire_pitch"), 450e-6)
        assert "sweeps" not in out
        assert out["wiring"][1]["wire_pitch"] == 450e-6
        assert raw == before
        assert out["wiring"] is not raw["wiring"] and out["wiring"][1] is not raw["wiring"][1]
        assert out["wiring"][0] is raw["wiring"][0]
        assert all(out[key] is raw[key] for key in out if key != "wiring")

    def test_unknown_path(self, raw, catalog):
        # Parsing rejects the path, so set_parameter never sees it.
        for path in ("layout.nope", "wiring.7.wire_pitch"):
            raw["sweeps"][0]["parameter"] = path
            with pytest.raises(ConfigInvalid) as err:
                parse_design_config(raw, catalog)
            assert err.value.field == "sweeps[0].parameter"


def _covered_cpw_two_sweeps(raw: dict) -> dict:
    raw["cpw"] = _COVERED_CPW | {"cover_height": "50um"}
    raw["sweeps"] = [{"parameter": "cpw.cover_height", "start": "20um", "stop": "80um", "steps": 4},
                     {"parameter": "wiring.1.wire_pitch", "start": "300um", "stop": "500um",
                      "steps": 3}]
    return raw


@pytest.mark.parametrize("variant", [lambda raw: raw, _covered_cpw_two_sweeps],
                         ids=["built-in", "covered-cpw-two-sweeps"])
def test_parsing_never_writes_to_raw(raw, catalog, variant):
    # Sweep points share every section off the swept path with the run's raw
    # config, so neither the run's parse nor a point's may write to it.
    raw = variant(raw)
    before = copy.deepcopy(raw)
    cfg = parse_design_config(raw, catalog)
    assert raw == before
    for decl in cfg.sweeps:
        for v in decl.points:
            parse_design_config(set_parameter(raw, decl.keys, v), catalog, cfg)
    assert raw == before


def _explicit_coax(raw: dict) -> dict:
    raw["coax"] = {"inner_diameter": "100um", "outer_diameter": "200um"}
    return raw


def _with_stages(raw: dict) -> dict:
    raw["stages"] = [{"name": "300K", "temperature": "300K", "cooling_power": "1kW"},
                     {"name": "3K", "temperature": "3K", "cooling_power": "1W"},
                     {"name": "10mK", "temperature": "10mK", "cooling_power": "20uW"}]
    return raw


# A sweep of a field of every builder: (parameter, start, stop, steps, config edit).
_BUILDER_SWEEPS = [
    ("qubit_array.chip_side", "10mm", "30mm", 5, None),
    ("wiring.0.bond_geometry.wire_diameter", "10um", "30um", 5, None),
    ("wiring.1.wire_pitch", "300um", "500um", 5, None),
    ("layout.hole_diameter", "200um", "300um", 5, None),  # the auto core and the derived coax
    ("layout.array_side_count", 2, 10, 5, None),
    ("interposer.pin_hole_clearance", "50um", "150um", 5, None),
    ("pin_stack.coatings.1.1", "5um", "15um", 5, None),
    ("coax.outer_diameter", "150um", "300um", 4, _explicit_coax),
    ("layout.hole_diameter", "150um", "300um", 4, _explicit_coax),
    ("cpw.gap", "3um", "12um", 4, None),
    ("rf.bond_inductance", "0pH", "100pH", 5, None),
    ("stages.0.cooling_power", "100W", "2kW", 5, _with_stages),
    ("thermal.paths.0.count", 100000, 200000, 5, None),
    ("thermal.controllers.0.count", 1000, 5000, 5, None),
    ("annotations.0.position", "10mm", "90mm", 5, None),
]


@pytest.mark.parametrize("parameter, start, stop, steps, edit", _BUILDER_SWEEPS,
                         ids=[f"{s[0]}{'-' + s[4].__name__[1:] if s[4] else ''}"
                              for s in _BUILDER_SWEEPS])
def test_sweep_point_equals_a_parse_of_its_raw_config(raw, catalog, parameter, start, stop,
                                                      steps, edit):
    """A point parsed against the run's config equals a whole parse of the
    point's raw config, and holds the run's own objects in every field
    that its section's builders do not build."""
    raw = edit(raw) if edit else raw
    raw["sweeps"] = [{"parameter": parameter, "start": start, "stop": stop, "steps": steps}]
    cfg = parse_design_config(raw, catalog)
    (decl,) = cfg.sweeps
    rebuilt = _BUILT_BY[decl.keys[0]] | {"sweeps", "raw"}
    for v in decl.points:
        point = set_parameter(raw, decl.keys, v)
        got = parse_design_config(point, catalog, cfg)
        assert got == parse_design_config(point, catalog), v
        assert {f.name for f in dataclasses.fields(got)
                if getattr(got, f.name) is not getattr(cfg, f.name)} <= rebuilt, v


# The DesignConfig fields that the builders keyed by each section build.
_BUILT_BY = {"qubit_array": {"qubit_array"}, "wiring": {"wiring"},
             **dict.fromkeys(("layout", "pin_stack", "interposer", "coax"),
                             {"layout", "pin_stack", "coax"}),
             "stages": {"stages", "thermal"}, "thermal": {"thermal"}, "cpw": {"cpw"},
             "rf": {"rf"}, "annotations": {"annotations"}}


def test_every_section_has_a_builder(raw):
    names = {name for names, _ in config_module._BUILDERS for name in names}
    read = config_module._SCHEMA(_with_stages(_explicit_coax(raw)), "")
    assert names == read.keys() - {"sweeps"} == _BUILT_BY.keys()


def _renamed_stages(raw: dict) -> None:
    raw["stages"] = [dict(s, name=s["name"] + "-renamed") for s in _with_stages({})["stages"]]


def _new_chip_side(raw: dict) -> None:
    raw["qubit_array"] = raw["qubit_array"] | {"chip_side": "25mm"}


def _add_coax(raw: dict) -> None:
    _explicit_coax(raw)


def _drop_cpw(raw: dict) -> None:
    del raw["cpw"]


@pytest.mark.parametrize("edit", [_renamed_stages, _new_chip_side, _add_coax, _drop_cpw],
                         ids=lambda edit: edit.__name__[1:])
def test_parse_against_a_base_equals_a_whole_parse(raw, catalog, edit):
    """Beyond sweep points: sections replaced, added or dropped, with the
    sweeps shared, give what a whole parse gives, errors included."""
    base = parse_design_config(raw, catalog)
    new = dict(raw)  # a new top level; the sections are shared until `edit` replaces one
    edit(new)

    def outcome(**kw):
        try:
            return parse_design_config(new, catalog, **kw)
        except ConfigInvalid as exc:
            return str(exc)

    assert outcome(base=base) == outcome()


_BAD_STAGES = [{"name": "3K", "temperature": "3K", "cooling_power": "1W"},
               {"name": "4K", "temperature": "4K", "cooling_power": "1W"}]
_BAD_CPW = {"trace_width": "10um", "gap": "6um", "substrate_eps_r": 0.5}
_BAD_RF = {"band": ["5GHz", "1GHz"]}
_BAD_COAX = {"inner_diameter": "300um", "outer_diameter": "200um"}


@pytest.mark.parametrize("invalid, section, value, first", [
    ("stages", "cpw", _BAD_CPW, "stages"),
    ("stages", "rf", _BAD_RF, "stages"),
    ("stages", "coax", _BAD_COAX, "coax"),
    ("thermal", "cpw", _BAD_CPW, "cpw"),
    ("thermal", "rf", _BAD_RF, "rf.band"),
], ids=["stages-cpw", "stages-rf", "stages-explicit-coax", "thermal-cpw", "thermal-rf"])
def test_builder_order_sets_the_first_error(raw, catalog, invalid, section, value, first):
    # Stages are built before cpw and rf, and the thermal section after
    # them, as a whole parse always has; an explicit coax section is built
    # with the layout, before the stages.
    if invalid == "stages":
        raw["stages"] = _BAD_STAGES
    else:
        raw["thermal"]["controllers"][0]["tech"] = "bogus"
    raw[section] = value
    with pytest.raises(ConfigInvalid) as exc:
        parse_design_config(raw, catalog)
    assert exc.value.field == first


def _mutated(raw: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(raw)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _run_cli(raw: dict, command: str, out_dir: Path) -> tuple[int, str]:
    """Write `raw` as a config file, run one subcommand (with its options),
    return (exit code, stderr)."""
    config = out_dir / "design.json"
    config.write_text(json.dumps(raw))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--config", str(config), "--out", str(out_dir / "out"), *command.split()])
    return code, err.getvalue()


_STAGES = [{"name": "300K", "temperature": "300K", "cooling_power": "1kW"},
           {"name": "3K", "temperature": "3K", "cooling_power": "1W"},
           {"name": "3K", "temperature": "1K", "cooling_power": "1W"},
           {"name": "10mK", "temperature": "10mK", "cooling_power": "20uW"}]
_LATERAL = [{"access": "lateral", "wire_pitch": "56um"}, {"access": "vertical", "wire_pitch": "400um"},
            {"access": "lateral", "wire_pitch": "100um"}]

_COVERED_CPW = {"trace_width": "10um", "gap": "6um", "substrate_eps_r": 11.45, "covered": True}
_SIDE_SWEEP = {"parameter": "layout.array_side_count", "start": 2, "stop": 4, "steps": 3}
_WF_PATH = {"stage": "10mK", "material": "Al", "cross_section_area": "1um2", "length": "1mm",
            "t_hot": "3K", "residual_resistivity": 1e-10}


# Each row: (mutated leaf, value, subcommand, the field path the exit-1 message names).
_BAD_INPUTS = [
    # raised a traceback
    (("rf", "points"), "abc", "rf", "rf.points"),
    (("rf", "points"), 1, "rf", "rf.points"),
    (("rf", "points"), 0, "rf", "rf.points"),
    (("rf", "band"), ["0Hz", "20GHz"], "rf", "rf.band"),
    (("thermal", "controllers", 0, "tech"), "bogus", "budget", "thermal.controllers[0]"),
    (("thermal", "controllers", 0, "count"), 0, "budget", "thermal.controllers[0].count"),
    (("wiring", 1, "wires_per_qubit"), "x", "scale", "wiring[1].wires_per_qubit"),
    (("interposer", "eps_r"), "x", "impedance", "interposer.eps_r"),
    (("qubit_array",), [1], "scale", "qubit_array"),
    (("cpw", "substrate_eps_r"), float("nan"), "impedance", "cpw.substrate_eps_r"),
    (("layout", "pin_length"), float("nan"), "layout", "layout.pin_length"),
    (("qubit_array", "chip_side"), float("inf"), "scale", "qubit_array.chip_side"),
    # silently coerced or accepted
    (("sweeps", 0, "steps"), 2.5, "sweep", "sweeps[0].steps"),
    (("rf", "taper_segments"), -1, "rf", "rf.taper_segments"),
    (("layout", "array_side_count"), 2.7, "layout", "layout.array_side_count"),
    (("thermal", "paths", 0, "count"), True, "budget", "thermal.paths[0].count"),
    (("stages",), _STAGES, "budget", "stages[2].name"),
    (("wiring",), _LATERAL, "scale", "wiring[2].access"),
    # exited 2 although a config error
    (("cpw", "substrate_eps_r"), 0.5, "impedance", "cpw"),
    (("cpw", "covered"), "no", "impedance", "cpw.covered"),
    # exited 1 with a misleading message
    (("layout",), [], "layout", "layout"),
    (("stages",), {}, "budget", "stages"),
    (("wiring", 0), "lateral", "scale", "wiring[0]"),
    (("thermal", "paths", 0, "residual_resistivity"), -1e-9, "budget", "thermal.paths[0]"),
    # non-finite through a unit string; a removed section
    (("qubit_array", "chip_side"), "1e999um", "scale", "qubit_array.chip_side"),
    (("controller",), {"tech": "SFQ"}, "scale", "controller"),
    # a Wiedemann-Franz path reported watts from T^2 at t_cold <= 0 (t_cold
    # first, so that the ids tell the two rows apart); a table path exited 2;
    # a sweep end-point of another dimension was swept; a removed field
    (("thermal", "paths", 0), {"t_cold": "-1K"} | _WF_PATH, "budget", "thermal.paths[0]"),
    (("thermal", "paths", 0), {"t_cold": "0K"} | _WF_PATH, "budget", "thermal.paths[0]"),
    (("thermal", "paths", 0, "t_cold"), "-1K", "budget", "thermal.paths[0]"),
    (("sweeps", 0, "start"), "1GHz", "sweep", "sweeps[0].start"),
    (("sweeps", 1, "stop"), "3K", "scale", "sweeps[1].stop"),
    (("cpw", "ground_width"), "50um", "impedance", "cpw.ground_width"),
    # named the swept field, and only once `sweep` reached a non-integral point
    (("sweeps", 0), _SIDE_SWEEP | {"steps": 4}, "scale", "sweeps[0].steps"),
    # a field the config does not set: the lateral pitch derives from
    # bond_geometry, and there is no coax section
    (("sweeps", 0, "parameter"), "wiring.0.wire_pitch", "scale", "sweeps[0].parameter"),
    (("sweeps", 0, "parameter"), "coax.inner_diameter", "scale", "sweeps[0].parameter"),
    # a traceback from the sweep grid; 1e17 points exceed any address space,
    # so the allocation fails at once
    (("sweeps", 0, "steps"), 10**17, "scale", "sweeps[0].steps"),
    # a traceback from a grid beyond any index: OverflowError from the sweep
    # list, ValueError from numpy for the RF grid
    (("sweeps", 0, "steps"), 10**19, "scale", "sweeps[0].steps"),
    (("sweeps", 0, "steps"), 1e308, "sweep", "sweeps[0].steps"),
    (("rf", "points"), 10**19, "rf", "rf.points"),
    (("rf", "points"), 1e308, "rf", "rf.points"),
    (("rf", "points"), 2**62, "rf", "rf.points"),  # 2**65 bytes of frequencies
    # a derived wire pitch of inf gave 0 edge wires, then ZeroDivisionError
    (("wiring", 0, "bond_geometry", "wire_diameter"), 1e308, "scale", "wiring[0].bond_geometry"),
    (("wiring", 0, "bond_geometry", "wire_gap"), "1e308m", "sweep", "wiring[0].bond_geometry"),
    # a traceback from a failed allocation: the RF grid of 1e17 points and the
    # layout.json columns of a 10^6 x 10^6 grid ask for 800 PB and 20 TB
    (("rf", "points"), 10**17, "rf", "rf.points"),
    (("layout", "array_side_count"), 10**6, "layout", "layout.array_side_count"),
    # the SVG rows of that grid grew until the machine ran out of memory
    (("layout", "array_side_count"), 10**6, "layout --format svg", "layout.array_side_count"),
    # one step from 200 um to 300 um swept 200 um only; negative lengths
    # passed, the position into layout.json
    (("sweeps", 0, "steps"), 1, "sweep", "sweeps[0].steps"),
    (("annotations", 0, "position"), "-50mm", "layout", "annotations[0].position"),
    (("cpw", "cover_height"), "-5um", "impedance", "cpw.cover_height"),
    # tracebacks at extreme magnitudes: a qubit count beyond the float range,
    # also at a sweep point; a CPW whose conformal-mapping modulus k, or the
    # covered line's k3, rounds to 0 or 1
    (("qubit_array", "qubit_pitch"), "1e-300um", "scale", "qubit_array"),
    (("sweeps", 1, "start"), "1e300mm", "sweep", "sweeps[1]"),
    (("cpw", "gap"), "1e-300um", "impedance", "cpw"),
    (("cpw",), _COVERED_CPW | {"cover_height": "1e-12um"}, "impedance", "cpw"),
    (("cpw",), _COVERED_CPW | {"trace_width": "1e-300um", "gap": "1e-300um", "cover_height": 1e300},
     "impedance", "cpw"),  # k3 = 0/0 once both tanh arguments underflow
    # a count beyond the float range ended in OverflowError
    (("thermal", "controllers", 0, "count"), 10**400, "budget", "thermal.controllers[0].count"),
    # a repeated sweep parameter replaced the first sweep's CSV with the second
    (("sweeps", 1, "parameter"), "layout.hole_diameter", "sweep", "sweeps[1].parameter"),
    # named `coax`, a section the config does not have: the coax is derived
    # from the pin in its hole, and its fill from the interposer
    (("pin_stack", "core_diameter"), 1, "impedance", "pin_stack"),
    (("pin_stack", "core_diameter"), 0.5, "layout", "pin_stack"),
    (("pin_stack", "core_diameter"), "400um", "rf", "pin_stack"),
    (("interposer", "eps_r"), 0.5, "impedance", "interposer.eps_r"),
    # an explicit coax section is named itself
    (("coax",), {"inner_diameter": "300um", "outer_diameter": "100um"}, "impedance", "coax"),
    (("coax",), {"inner_diameter": "100um", "outer_diameter": "300um", "eps_r": 0.5}, "impedance",
     "coax"),
]


def _bad_input_id(path, value, command) -> str:
    """The whole path and value of a leaf, then the subcommand's options if
    it has any.  A replaced section or list (a dict or list value) is cut
    at 40 characters."""
    options = command.partition(" ")[2]
    mutated = f"{'.'.join(map(str, path))}={value!r}"
    if isinstance(value, (dict, list)):
        mutated = mutated[:40]
    return mutated + (f" {options}" if options else "")


_BAD_INPUT_IDS = [_bad_input_id(p, v, c) for p, v, c, _ in _BAD_INPUTS]


def test_bad_input_ids_are_unique():
    assert len(set(_BAD_INPUT_IDS)) == len(_BAD_INPUT_IDS)


@pytest.mark.parametrize("path,value,command,field", _BAD_INPUTS, ids=_BAD_INPUT_IDS)
def test_bad_input_exits_1_naming_field(default_raw, tmp_path, path, value, command, field):
    code, err = _run_cli(_mutated(default_raw, path, value), command, tmp_path)
    assert code == 1
    assert err.startswith(f"error: {field}: "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["impedance", "layout"])
@pytest.mark.parametrize("coax", [None, {"inner_diameter": "100um", "outer_diameter": "300um"}],
                         ids=["derived-coax", "explicit-coax"])
@pytest.mark.parametrize("clearance", ["-50um", "-1um", "0um"])
def test_pin_hole_clearance_must_be_positive(default_raw, tmp_path, clearance, coax, command):
    # With an explicit coax section, a pin as wide as its hole, or wider,
    # exited 0; without one, the error named the derived `coax`.
    raw = _mutated(default_raw, ("interposer", "pin_hole_clearance"), clearance)
    if coax is not None:
        raw["coax"] = coax
    code, err = _run_cli(raw, command, tmp_path)
    assert code == 1
    assert err.startswith("error: interposer.pin_hole_clearance: must be > 0"), err
    assert not (tmp_path / "out").exists()


# Each row: (mutated leaf, value, subcommand, the start of the exit-2 message).
# Each ended in a traceback; the RF and budget rows first wrote artifacts
# holding nan or inf.
_NON_FINITE_RESULTS = [
    (("wiring", 1, "wire_pitch"), "1e-300um", "scale", "the wire count leaves the float range"),
    (("rf", "system_impedance"), "1e300ohm", "rf", "the S-parameters are not finite"),
    (("rf", "bond_inductance"), "1e300H", "rf", "the S-parameters are not finite"),
    (("thermal", "paths", 0, "cross_section_area"), 1e300, "budget",
     "stage 10mK: load of inf W is not finite"),
]


@pytest.mark.parametrize("path,value,command,message", _NON_FINITE_RESULTS,
                         ids=[f"{'.'.join(map(str, p))}={v!r}" for p, v, _, _ in _NON_FINITE_RESULTS])
def test_non_finite_result_exits_2_writing_nothing(default_raw, tmp_path, path, value, command,
                                                   message):
    code, err = _run_cli(_mutated(default_raw, path, value), command, tmp_path)
    assert code == 2
    assert err.startswith(f"error: {message}"), err
    assert not (tmp_path / "out").exists()


def test_non_finite_report_value_exits_2(raw, tmp_path):
    # One qubit of pitch 1e200 m: the counts are finite, but the lateral
    # crossover length 4 * pitch^2 / wire_pitch is not.
    raw["qubit_array"] = {"qubit_pitch": 1e200, "chip_side": 1e200}
    raw["wiring"] = [{"access": "lateral", "wire_pitch": "56um"}]
    code, err = _run_cli(raw, "scale", tmp_path)
    assert code == 2
    assert err.startswith("error: scale.json: a result is not finite"), err
    assert not (tmp_path / "out").exists()


def test_wire_count_underflow_exits_2(raw, tmp_path):
    # 4 * 1e-300 m / 1e308 m edge wires underflow to 0, which then divided
    # the chip side.
    raw["qubit_array"] = {"qubit_pitch": "1e-300m", "chip_side": "1e-300m"}
    raw["wiring"] = [{"access": "lateral", "wire_pitch": "1e308m"}]
    for command in ("scale", "sweep"):
        code, err = _run_cli(raw, command, tmp_path)
        assert code == 2
        assert err.startswith("error: the wire count leaves the float range"), err
        assert not (tmp_path / "out").exists()


def test_path_without_conductivity_data_exits_2(raw, tmp_path):
    # Al has no k(T) table, and the path gives no residual resistivity for
    # the Wiedemann-Franz fallback: an analysis error, not a traceback.
    raw["thermal"]["paths"][0]["material"] = "Al"
    code, err = _run_cli(raw, "budget", tmp_path)
    assert code == 2
    assert "no thermal conductivity data" in err


def test_unknown_sweep_parameter_names_declaration(raw, tmp_path):
    raw["sweeps"][1]["parameter"] = "layout.nope"
    code, err = _run_cli(raw, "sweep", tmp_path)
    assert code == 1
    assert err.startswith("error: sweeps[1].parameter: "), err


def test_failing_sweep_point_names_its_sweep_and_writes_nothing(raw, tmp_path):
    # sweeps[0] alone runs clean; a point of sweeps[1] fails the qubit array.
    raw["sweeps"][1]["start"] = "1e300mm"
    code, err = _run_cli(raw, "sweep", tmp_path)
    assert code == 1
    assert err.startswith("error: sweeps[1]: at qubit_array.chip_side = 1e+297: qubit_array: "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("core, stop, message", [
    ("auto", "100um", "at layout.hole_diameter = 0.00012: pin_stack.core_diameter: auto-derived "
     "core is not positive; check hole diameter and clearance"),
    ("200um", "200um", "at layout.hole_diameter = 0.00022: pin_stack: the finished pin "
     "(0.000222 m) must be narrower than layout.hole_diameter (0.00022 m)"),
], ids=["auto-core-not-positive", "pin-as-wide-as-the-hole"])
def test_point_rejected_across_sections_names_its_sweep_and_writes_nothing(raw, tmp_path, core,
                                                                           stop, message):
    # sweeps[0] alone runs clean; the hole of sweeps[1] closes on the pin.
    raw["pin_stack"]["core_diameter"] = core
    raw["sweeps"] = [{"parameter": "qubit_array.chip_side", "start": "10mm", "stop": "30mm",
                      "steps": 3},
                     {"parameter": "layout.hole_diameter", "start": "300um", "stop": stop,
                      "steps": 11}]
    code, err = _run_cli(raw, "sweep", tmp_path)
    assert (code, err) == (1, f"error: sweeps[1]: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["scale", "impedance", "rf", "layout", "budget", "sweep",
                                     "paper-check"])
@pytest.mark.parametrize("end, value", [("start", "0um"), ("stop", -1e-4)])
def test_non_positive_layout_sweep_end_point_names_it(raw, tmp_path, command, end, value):
    # The end-points are read with the swept field's kind, and a layout length is > 0.
    raw["sweeps"][0][end] = value
    code, err = _run_cli(raw, command, tmp_path)
    assert code == 1
    assert err.startswith(f"error: sweeps[0].{end}: must be > 0, got "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["scale", "impedance", "rf", "layout", "budget", "sweep",
                                     "paper-check"])
def test_a_sweep_cannot_sweep_the_sweeps(raw, tmp_path, command):
    raw["sweeps"][1]["parameter"] = "sweeps.0.steps"
    code, err = _run_cli(raw, command, tmp_path)
    assert code == 1
    assert err.startswith("error: sweeps[1].parameter: "), err


def test_sweeps_are_resolved_once_per_run(tmp_path, monkeypatch):
    calls = []

    def counted(entries, raw):
        calls.append(len(entries))
        return resolve(entries, raw)

    resolve = config_module._sweeps
    monkeypatch.setattr(config_module, "_sweeps", counted)
    assert main(["--out", str(tmp_path), "sweep"]) == 0
    assert [n for n in calls if n] == [2]  # the run's own parse; no sweep point reads them


def test_integral_sweep_of_an_integer_field(raw, tmp_path):
    raw["sweeps"] = [_SIDE_SWEEP]
    code, err = _run_cli(raw, "sweep", tmp_path)
    assert code == 0, err
    text = (tmp_path / "out/sweep_layout_array_side_count.csv").read_text(encoding="utf-8")
    assert [row.split(",")[1] for row in text.splitlines()[1:]] == ["2", "3", "4"]


def test_integral_float_reads_as_int(raw, catalog):
    # Sweeps write floats into the raw config, so 20.0 must stay a valid count.
    raw["layout"]["array_side_count"] = 20.0
    assert parse_design_config(raw, catalog).layout.array_side_count == 20


def test_absent_rf_section_takes_type_defaults(raw, catalog):
    del raw["rf"]
    assert parse_design_config(raw, catalog).rf == RfSettings()


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, (*path, i))
    else:
        yield path


_DEFAULT_RAW = json.loads(
    resources.files("densewire").joinpath("data/default_config.json").read_text("utf-8"))
# Small magnitudes only: a large finite count or length would build a huge
# layout or RF grid without testing anything the small ones do not.
_BAD_VALUES = ["x", "", None, True, False, [], {}, -1, 0, 1, 0.5, 2.5, "-1um", "0um",
               "1GHz", "1e999um", float("nan"), float("inf")]
_FIELD_PATH = re.compile(r"error: (<root>|[A-Za-z_]\w*(\[\d+\])*(\.\w+(\[\d+\])*)*): ")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(leaf=st.sampled_from(list(_leaves(_DEFAULT_RAW))), value=st.sampled_from(_BAD_VALUES),
       command=st.sampled_from(["scale", "impedance", "rf", "budget", "sweep", "layout"]))
def test_any_single_leaf_mutation_exits_cleanly(leaf, value, command):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run_cli(_mutated(_DEFAULT_RAW, leaf, value), command, Path(tmp))
    assert code in (0, 1, 2)
    if code == 1:
        assert _FIELD_PATH.match(err), err


# Each magnitude in the leaf's own unit and as a bare SI number.
_EXTREMES = ("0", "-1", "1e12", "1e-12", "1e300", "1e308", "1e-300")
_UNIT = re.compile(r"^[-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?([a-zA-Zµ]\w*)$")


def _value_at(raw: dict, path: tuple):
    for key in path:
        raw = raw[key]
    return raw


def _field(path: tuple) -> str:
    """The field path an error names for the leaf at `path`: `a.b[0].c`."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def test_extreme_magnitudes_exit_cleanly(tmp_path):
    """Every leaf, each set to every extreme, through each subcommand that
    reads the config.  An integer count takes 10**400 only, which must be
    rejected naming the count: 1e12 of them builds a huge grid or chain."""
    problems = []
    for leaf in _leaves(_DEFAULT_RAW):
        default = _value_at(_DEFAULT_RAW, leaf)
        count = type(default) is int
        unit = _UNIT.match(str(default))
        values = ([10**400] if count else
                  [float(m) for m in _EXTREMES] + [m + unit[1] for m in _EXTREMES if unit])
        for value in values:
            raw = _mutated(_DEFAULT_RAW, leaf, value)
            for command in ("scale", "impedance", "rf", "budget", "sweep", "layout"):
                try:
                    code, err = _run_cli(raw, command, tmp_path)
                except Exception as exc:
                    code, err = "traceback", repr(exc)
                if (code not in (0, 1, 2) or (code == 1 and not _FIELD_PATH.match(err))
                        or (count and not err.startswith(f"error: {_field(leaf)}: "))):
                    problems.append((_field(leaf), value, command, code, err))
    assert not problems, problems
