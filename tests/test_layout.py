import json
import math
import re
import tracemalloc
import xml.etree.ElementTree as ET
from importlib import resources

import numpy as np
import pytest

from densewire import layout as layout_module
from densewire.config import parse_design_config
from densewire.errors import ConfigInvalid, UnsupportedFormat
from densewire.layout import (
    MAX_EXPORT_SITES,
    Annotation,
    LayoutConfig,
    check_cables,
    check_export_size,
    export_layout,
    generate_layout,
    layout_from_json,
    layout_to_json,
    layout_to_svg,
    run_drc,
)
from densewire.tlines import PinStack
from densewire.units import replace
from oracles import columnar_layout_json, svg_fill_shapes
from test_config import _BAD_VALUES

NOMINAL = LayoutConfig(
    qubit_pitch=500e-6,
    array_side_count=3,
    pad_diameter=200e-6,
    hole_diameter=300e-6,
    channel_width=300e-6,
    channel_depth=1e-3,
    pin_length=20e-3,
    pad_thickness=10e-6,
    tip_tolerance=2.5e-6,
    ground_curb_width=50e-6,
    solder_ball_diameter=50e-6,
)

NOMINAL_PIN = PinStack(178e-6, (("TiN", 1e-6), ("In", 10e-6)))


SVG = "{http://www.w3.org/2000/svg}"


def mutate(**kwargs) -> LayoutConfig:
    return replace(NOMINAL, **kwargs)


def tuple_grid(cfg: LayoutConfig):
    """Pads and balls as lists of (x, y), built the way the tuple-of-tuples
    layout built them: row by row, x fastest, balls channel_width/2 above."""
    n = cfg.array_side_count
    offsets = [(i - (n - 1) / 2.0) * cfg.qubit_pitch for i in range(n)]
    pads = [(x, y) for y in offsets for x in offsets]
    balls = [(x, y + cfg.channel_width / 2.0) for y in offsets for x in offsets]
    return pads, balls


def bits(points) -> bytes:
    return np.asarray(points, float).tobytes()


class TestGeneration:
    def test_unit_array(self):
        layout = generate_layout(mutate(array_side_count=1))
        assert tuple(layout.pad_centers) == ((0.0, 0.0),)
        assert tuple(layout.hole_centers) == ((0.0, 0.0),)

    def test_three_by_three_rows(self):
        layout = generate_layout(NOMINAL)
        assert len(layout.hole_centers) == 9
        rows = sorted({y for _, y in layout.hole_centers})
        assert rows == pytest.approx([-500e-6, 0.0, 500e-6], abs=1e-18)

    def test_full_wafer_array(self):
        cfg = mutate(array_side_count=400)
        layout = generate_layout(cfg)
        assert len(layout.hole_centers) == 160000
        assert cfg.array_side_count * cfg.qubit_pitch == pytest.approx(200e-3, rel=1e-12)

    def test_full_chip_grid_is_the_tuple_grid_bit_for_bit(self):
        cfg = mutate(array_side_count=400)
        layout = generate_layout(cfg)
        pads, balls = tuple_grid(cfg)
        assert np.asarray(layout.pad_centers, float).shape == (160000, 2)
        assert bits(layout.pad_centers) == bits(pads)
        assert layout.hole_centers is layout.pad_centers
        assert bits(layout.solder_ball_sites) == bits(balls)
        assert {len(layout.pad_centers), len(layout.hole_centers),
                len(layout.solder_ball_sites)} == {160000}
        back = layout_from_json(layout_to_json(layout, cfg))
        assert bits(back.pad_centers) == bits(back.hole_centers) == bits(pads)

    def test_balls_sit_half_a_channel_above_the_pads(self):
        layout = generate_layout(NOMINAL)
        for (px, py), (bx, by) in zip(layout.pad_centers, layout.solder_ball_sites):
            assert bx == px
            assert by - py == pytest.approx(NOMINAL.channel_width / 2, rel=1e-12)

    def test_sides_of_100k_materialise_no_sites(self):
        tracemalloc.start()
        try:
            layout = generate_layout(mutate(array_side_count=100_000))
            sizes = {len(layout.pad_centers), len(layout.hole_centers),
                     len(layout.solder_ball_sites)}
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sizes == {10**10}
        assert peak < 20e6  # the axes only: 2 x 100k floats
        last = layout.offsets[-1]
        assert layout.pad_centers[-1] == (last, last)
        assert layout.pad_centers[10**10 - 100_000] == (layout.offsets[0], last)

    def test_site_indexing(self):
        pads = generate_layout(NOMINAL).pad_centers
        assert pads[4] == (0.0, 0.0)
        assert pads[-1] == pads[8] == (500e-6, 500e-6)
        assert pads[1:3] == ((0.0, -500e-6), (500e-6, -500e-6))
        assert list(pads) == [pads[i] for i in range(9)]
        with pytest.raises(IndexError):
            pads[9]

    def test_pads_and_holes_correspond(self):
        layout = generate_layout(mutate(array_side_count=5))
        assert len(layout.pad_centers) == len(layout.hole_centers)
        for p, h in zip(layout.pad_centers, layout.hole_centers):
            assert p == h

    def test_centers_on_exact_grid(self):
        cfg = mutate(array_side_count=8)
        layout = generate_layout(cfg)
        for x, y in layout.hole_centers:
            for v in (x, y):
                steps = v / cfg.qubit_pitch
                assert abs(steps - round(steps * 2) / 2) <= 1e-12 * max(1.0, abs(steps))

    def test_invalid_config(self):
        with pytest.raises(ConfigInvalid):
            mutate(array_side_count=0)
        with pytest.raises(ConfigInvalid):
            mutate(hole_diameter=-1e-6)


class TestDrc:
    def test_nominal_is_clean(self):
        report = run_drc(generate_layout(NOMINAL), NOMINAL, NOMINAL_PIN)
        assert report.passed
        assert report.findings == ()

    def test_r1_footprint(self):
        cfg = mutate(hole_diameter=600e-6, channel_width=600e-6)
        report = run_drc(generate_layout(cfg), cfg, NOMINAL_PIN)
        assert any(f.rule == "R1" and f.severity == "error" for f in report.findings)

    def test_r2_pin_pad_mismatch(self):
        pin = PinStack(78e-6, (("TiN", 1e-6), ("In", 10e-6)))  # 100um pin on 200um pad
        report = run_drc(generate_layout(NOMINAL), NOMINAL, pin)
        assert any(f.rule == "R2" and f.severity == "error" for f in report.findings)

    def test_r3_hole_envelope(self):
        cfg = mutate(hole_diameter=150e-6)
        report = run_drc(generate_layout(cfg), cfg, NOMINAL_PIN)
        assert any(f.rule == "R3" and f.severity == "warning" for f in report.findings)

    def test_r4_channel_aspect(self):
        cfg = mutate(channel_width=100e-6, hole_diameter=100e-6)
        report = run_drc(generate_layout(cfg), cfg, NOMINAL_PIN)
        assert any(f.rule == "R4" and f.severity == "error" for f in report.findings)

    def test_r5_tip_tolerance(self):
        cfg = mutate(tip_tolerance=5e-6)
        report = run_drc(generate_layout(cfg), cfg, NOMINAL_PIN)
        assert any(f.rule == "R5" and f.severity == "error" for f in report.findings)

    def test_r6_pin_length(self):
        cfg = mutate(pin_length=30e-3)
        report = run_drc(generate_layout(cfg), cfg, NOMINAL_PIN)
        assert any(f.rule == "R6" and f.severity == "warning" for f in report.findings)

    def test_r7_solder_ball(self):
        cfg = mutate(solder_ball_diameter=80e-6)
        report = run_drc(generate_layout(cfg), cfg, NOMINAL_PIN)
        assert any(f.rule == "R7" and f.severity == "error" for f in report.findings)

    def test_r8_channel_narrower_than_hole(self):
        # The published channel and hole ranges overlap awkwardly; this is
        # surfaced as a warning, not an error.
        cfg = mutate(channel_width=240e-6)
        report = run_drc(generate_layout(cfg), cfg, NOMINAL_PIN)
        assert any(f.rule == "R8" and f.severity == "warning" for f in report.findings)
        assert not report.errors

    def test_r9_pad_thickness(self):
        cfg = mutate(pad_thickness=40e-6)
        report = run_drc(generate_layout(cfg), cfg, NOMINAL_PIN)
        assert any(f.rule == "R9" and f.severity == "warning" for f in report.findings)

    def test_deterministic(self):
        cfg = mutate(hole_diameter=600e-6, tip_tolerance=5e-6, pin_length=30e-3)
        a = run_drc(generate_layout(cfg), cfg, NOMINAL_PIN)
        b = run_drc(generate_layout(cfg), cfg, NOMINAL_PIN)
        assert a == b
        assert [f.rule for f in a.findings] == sorted(f.rule for f in a.findings)

    @pytest.mark.parametrize("layout_fields, pin_core, findings", [
        ({"qubit_pitch": "300um", "hole_diameter": "350um", "channel_width": "100um",
          "channel_depth": "1mm", "tip_tolerance": "3um", "pin_length": "30mm",
          "solder_ball_diameter": "60um", "pad_thickness": "40um"}, "auto", [
            ("R1", "error", "hole diameter 350 um exceeds qubit pitch 300 um"),
            ("R2", "error", "pin outer diameter 250 um does not match pad diameter 200 um"),
            ("R3", "warning",
             "hole diameter 350 um outside the [200 um, 300 um] process envelope"),
            ("R4", "error",
             "channel aspect ratio 0.1 (width/depth) below the machinable minimum 0.14"),
            ("R5", "error", "tip coplanarity tolerance 3 um looser than the required -/+2.5 um"),
            ("R6", "warning", "pin length 30 mm outside the [15, 25] mm qualified range"),
            ("R7", "error", "solder ball diameter 60 um exceeds the ground trace width 50 um"),
            ("R8", "warning", "channel width 100 um narrower than hole diameter 350 um; "
                              "holes protrude from the channel floor"),
            ("R9", "warning", "pad thickness 40 um outside the [5 um, 30 um] envelope")]),
        ({"hole_diameter": "150um", "pin_length": "10mm", "pad_thickness": "2um"}, "78um", [
            ("R2", "error", "pin outer diameter 100 um does not match pad diameter 200 um"),
            ("R3", "warning",
             "hole diameter 150 um outside the [200 um, 300 um] process envelope"),
            ("R6", "warning", "pin length 10 mm outside the [15, 25] mm qualified range"),
            ("R9", "warning", "pad thickness 2 um outside the [5 um, 30 um] envelope")]),
    ], ids=["all-nine", "from-below"])
    def test_findings_of_the_built_in_config(self, catalog, layout_fields, pin_core, findings):
        raw = json.loads(resources.files("densewire").joinpath("data/default_config.json")
                         .read_text("utf-8"))
        raw["layout"].update(layout_fields)
        raw["pin_stack"]["core_diameter"] = pin_core
        cfg = parse_design_config(raw, catalog)
        report = run_drc(generate_layout(cfg.layout), cfg.layout, cfg.pin_stack)
        assert [(f.rule, f.severity, f.message) for f in report.findings] == findings


class TestExports:
    def test_json_round_trip_exact(self):
        layout = generate_layout(NOMINAL, annotations=(
            Annotation("cable-001", "attenuator-20dB", 0.05),))
        back = layout_from_json(layout_to_json(layout, NOMINAL))
        assert back == layout

    def test_json_deterministic(self):
        layout = generate_layout(NOMINAL)
        assert layout_to_json(layout, NOMINAL) == layout_to_json(layout, NOMINAL)

    @pytest.mark.parametrize("writer", [layout_to_json])
    def test_peak_memory_is_about_twice_the_text(self, writer, traced_peak):
        cfg = mutate(array_side_count=200)
        layout = generate_layout(cfg)
        text, peak = traced_peak(writer, layout, cfg)
        assert peak <= 2.25 * len(text)

    def test_svg_does_not_grow_with_the_side(self, traced_peak):
        # Only the numbers' digits differ, and a 1000 x 1000 grid (the last
        # `peak`) costs a few KB of memory, not a text per site.
        texts = {}
        for side in (1, 20, 400, 1000):
            cfg = mutate(array_side_count=side)
            texts[side], peak = traced_peak(layout_to_svg, generate_layout(cfg), cfg)
        assert max(len(t.encode()) for t in texts.values()) <= 4096
        assert len({re.sub(r"-?[0-9.]+", "#", t) for t in texts.values()}) == 1
        assert peak < 64 * 1024

    def test_svg_unit_array_single_hole(self):
        cfg = mutate(array_side_count=1)
        svg = export_layout(generate_layout(cfg), "svg", cfg)
        assert svg_fill_shapes(svg)["hole"] == [(0.0, 0.0)]
        root = ET.fromstring(svg)
        tiles = {p.get("id"): p.get("height") for p in root.iter(f"{SVG}pattern")}
        assert {r.get("height") for r in root.iter(f"{SVG}rect")
                if r.get("fill", "").startswith("url(")} == {tiles["site"]} == {"500.000"}

    def test_svg_counts_match_layout(self):
        svg = export_layout(generate_layout(NOMINAL), "svg", NOMINAL)
        counts = {name: len(at) for name, at in svg_fill_shapes(svg).items()}
        assert counts == {"channel": 3, "ribbon": 3, "pad": 9, "hole": 9, "ball": 9}
        root = ET.fromstring(svg)
        assert not any(e.tag in (f"{SVG}use", f"{SVG}symbol") for e in root.iter())
        assert "xlink" not in svg

    def test_json_is_compact_and_columnar(self):
        text = layout_to_json(generate_layout(NOMINAL), NOMINAL)
        assert "\n" not in text.rstrip("\n") and ", " not in text
        doc = json.loads(text)
        assert doc["format"] == 2 and "holes" not in doc
        assert doc["grid"] == {"side_count": 3, "pitch": 500e-6, "channel_width": 300e-6,
                               "channel_depth": 1e-3}
        assert doc["pads"]["x"] == [-500e-6, 0.0, 500e-6] * 3
        assert doc["pads"]["y"] == [-500e-6] * 3 + [0.0] * 3 + [500e-6] * 3
        assert doc["solder_balls"]["x"] == doc["pads"]["x"]

    @pytest.mark.parametrize("side", [1, 2, 3, 20, 401])
    @pytest.mark.parametrize("annotated", [True, False])
    def test_json_equals_one_dumps_of_the_document(self, side, annotated):
        cfg = mutate(array_side_count=side)
        annotations = (
            Annotation("pads", '{"x":[', 0.05),
            Annotation("cable-\u0000", "Dämpfer −20 dB µ", -1.5e-3),
            Annotation('"solder_balls":{"y":[0]}', "\\u0000 \\ \n", 0.0))
        layout = generate_layout(cfg, annotations=annotations if annotated else ())
        assert layout_to_json(layout, cfg) == columnar_layout_json(layout, cfg)

    @pytest.mark.parametrize("side", [1, 2, 3, 20, 401])
    def test_svg_patterns_tile_the_grid(self, side):
        cfg = mutate(array_side_count=side)
        layout = generate_layout(cfg)
        root = ET.fromstring(layout_to_svg(layout, cfg))
        p, w, first = cfg.qubit_pitch * 1e6, cfg.channel_width * 1e6, layout.offsets[0] * 1e6
        size = (side + 1) * p  # the view box: the array and a pitch of margin
        patterns = {e.get("id"): e for e in root.iter(f"{SVG}pattern")}
        fills = {e.get("fill"): e for e in root.iter(f"{SVG}rect")
                 if e.get("fill", "").startswith("url(")}
        assert {e.get("patternUnits") for e in patterns.values()} == {"userSpaceOnUse"}
        assert sorted(fills) == [f"url(#{name})" for name in sorted(patterns)]
        # name: the tile's origin (its first site minus p/2), the tile's
        # width and the fill's width; every tile is one pitch tall
        want = {"site": ((first - p / 2, first - p / 2), p, side * p),
                "ball": ((first - p / 2, first + w / 2 - p / 2), p, side * p),
                "stripe": ((-size / 2, first - p / 2), size, size)}
        assert sorted(want) == sorted(patterns)
        for name, ((x, y), width, fill_width) in want.items():
            tile, fill = patterns[name], fills[f"url(#{name})"]
            got = [float(tile.get(k)) for k in ("x", "y", "width", "height")]
            assert got == pytest.approx([x, y, width, p], abs=1e-3)
            assert [fill.get(k) for k in ("x", "y")] == [tile.get(k) for k in ("x", "y")]
            got = [float(fill.get(k)) for k in ("width", "height")]
            assert got == pytest.approx([fill_width, side * p], abs=1e-3)
        stripe = [(e.tag, e.attrib) for e in patterns["stripe"]]
        assert stripe == [
            (f"{SVG}rect", {"class": "channel", "x": "0", "y": f"{p / 2 - w / 2:.3f}",
                            "width": f"{size:.3f}", "height": f"{w:.3f}", "fill": "#dce6f0",
                            "stroke": "#8899aa", "stroke-width": "1"}),
            (f"{SVG}line", {"class": "ribbon", "x1": "0", "y1": f"{p / 2:.3f}",
                            "x2": f"{size:.3f}", "y2": f"{p / 2:.3f}", "stroke": "#aabbcc",
                            "stroke-width": "2", "stroke-dasharray": "8 8"})]
        for name, classes in (("site", ["pad", "hole"]), ("ball", ["ball"])):
            assert [e.get("class") for e in patterns[name]] == classes
            assert {(e.get("cx"), e.get("cy")) for e in patterns[name]} == {(f"{p / 2:.3f}",) * 2}

    @pytest.mark.parametrize("side", [1, 2, 3, 20, 401])
    def test_svg_fills_draw_one_shape_per_site(self, side):
        cfg = mutate(array_side_count=side)
        layout = generate_layout(cfg)
        shapes = svg_fill_shapes(layout_to_svg(layout, cfg))
        lo = -(side + 1) / 2 * cfg.qubit_pitch
        rows = np.asarray([(lo, y) for y in layout.offsets])
        want = {"pad": np.asarray(layout.pad_centers), "hole": np.asarray(layout.hole_centers),
                "ball": np.asarray(layout.solder_ball_sites), "ribbon": rows,
                "channel": rows - (0.0, cfg.channel_width / 2)}
        assert sorted(shapes) == sorted(want)
        for name, sites in want.items():
            np.testing.assert_allclose(shapes[name], sites * 1e6, rtol=0, atol=2e-3, err_msg=name)

    def test_unsupported_format(self):
        with pytest.raises(UnsupportedFormat):
            export_layout(generate_layout(NOMINAL), "dxf", NOMINAL)

    @pytest.mark.parametrize("writer", [layout_to_json, layout_to_svg])
    def test_side_1001_is_rejected_before_any_text(self, writer):
        cfg = mutate(array_side_count=1001)
        layout = generate_layout(cfg)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigInvalid) as exc:
                writer(layout, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.field == "layout.array_side_count"
        assert "1002001 sites" in exc.value.message
        assert str(MAX_EXPORT_SITES) in exc.value.message
        assert peak < 1e6

    def test_side_1000_passes_the_size_check(self):
        check_export_size(generate_layout(mutate(array_side_count=1000)))


def _move_pad(doc):
    doc["pads"]["x"][4] += 1e-6


def _move_ball(doc):
    doc["solder_balls"]["y"][4] += 1e-6


def _format_1(doc):
    doc["format"] = 1


def _drop_grid(doc):
    del doc["grid"]


def _zero_pitch(doc):
    doc["grid"]["pitch"] = 0


def _short_column(doc):
    doc["pads"]["y"].pop()


def _metres_as_mm(doc):
    doc["units"] = "mm"


def _negative_position(doc):
    doc["annotations"] = [{"cable": "cable-000", "kind": "ir-filter", "position": -0.05}]


def _drop_config(doc):
    del doc["config"]


def _huge_side(doc):
    doc["grid"]["side_count"] = 10**9  # rejected on column length, before any site is built


class TestReader:
    @pytest.mark.parametrize("damage, field", [
        (_move_pad, "pads.x"),
        (_move_ball, "solder_balls.y"),
        (_format_1, "format"),
        (_drop_grid, "grid"),
        (_zero_pitch, "grid.pitch"),
        (_short_column, "pads.y"),
        (_metres_as_mm, "units"),
        (_huge_side, "pads.x"),
        (_negative_position, "annotations[0].position"),
        (_drop_config, "config"),
    ])
    def test_rejects_naming_the_field(self, damage, field):
        doc = json.loads(layout_to_json(generate_layout(NOMINAL), NOMINAL))
        damage(doc)
        with pytest.raises(ConfigInvalid) as exc:
            layout_from_json(json.dumps(doc))
        assert exc.value.field == field

    @pytest.mark.parametrize("leaf", LayoutConfig.__match_args__)
    def test_config_is_read_like_the_design_config_layout(self, leaf):
        # Of the bad values, a positive number is a length, and 1 a side count.
        # A field that `grid` repeats must also equal it, which none of them do.
        layout = generate_layout(NOMINAL)
        doc = json.loads(layout_to_json(layout, NOMINAL))
        good = (1,) if leaf == "array_side_count" else (1, 0.5, 2.5)
        if leaf in ("qubit_pitch", "array_side_count", "channel_width", "channel_depth"):
            good = ()
        for value in _BAD_VALUES:
            text = json.dumps(doc | {"config": doc["config"] | {leaf: value}})
            if not isinstance(value, bool) and value in good:
                assert layout_from_json(text) == layout
                continue
            with pytest.raises(ConfigInvalid) as exc:
                layout_from_json(text)
            assert exc.value.field == f"config.{leaf}", value
        config = {k: v for k, v in doc["config"].items() if k != leaf}
        for damaged, field in ((config, f"config.{leaf}"),
                               (doc["config"] | {leaf + "_x": 1.0}, f"config.{leaf}_x")):
            with pytest.raises(ConfigInvalid) as exc:
                layout_from_json(json.dumps(doc | {"config": damaged}))
            assert exc.value.field == field

    @pytest.mark.parametrize("leaf, key, value", [
        ("qubit_pitch", "pitch", 1e-3), ("array_side_count", "side_count", 7),
        ("channel_width", "channel_width", 301e-6), ("channel_depth", "channel_depth", 2e-3)])
    def test_config_that_differs_from_the_grid(self, leaf, key, value):
        doc = json.loads(layout_to_json(generate_layout(NOMINAL), NOMINAL))
        with pytest.raises(ConfigInvalid) as exc:
            layout_from_json(json.dumps(doc | {"config": doc["config"] | {leaf: value}}))
        assert exc.value.field == f"config.{leaf}"
        assert exc.value.message == f"is {value!r}, but grid.{key} is {doc['grid'][key]!r}"

    def test_config_of_another_grid_is_rejected(self, catalog):
        # The built-in layout.json with a config of pitch 1 mm, side 7 and
        # depth 2 mm: the first field that differs from the grid is named.
        raw = json.loads(resources.files("densewire").joinpath("data/default_config.json")
                         .read_text("utf-8"))
        cfg = parse_design_config(raw, catalog).layout
        doc = json.loads(layout_to_json(generate_layout(cfg), cfg))
        other = doc["config"] | {"qubit_pitch": 1e-3, "array_side_count": 7,
                                 "channel_depth": 2e-3}
        with pytest.raises(ConfigInvalid) as exc:
            layout_from_json(json.dumps(doc | {"config": other}))
        assert exc.value.field == "config.qubit_pitch"

    @pytest.mark.parametrize("config, field", [(5, "config"), ([], "config"),
                                               ({}, "config.qubit_pitch")])
    def test_config_that_is_no_layout_config(self, config, field):
        doc = json.loads(layout_to_json(generate_layout(NOMINAL), NOMINAL))
        with pytest.raises(ConfigInvalid) as exc:
            layout_from_json(json.dumps(doc | {"config": config}))
        assert exc.value.field == field


def _outcome(read, text):
    """What `read` makes of `text`: the layout, or the field and message it rejects."""
    try:
        return read(text)
    except ConfigInvalid as exc:
        return exc.field, exc.message


def _replace(old, new):
    def damage(text):
        assert text.count(old) == 1
        return text.replace(old, new)
    return damage


def _first_pad_one_ulp_right(text):
    start = text.index('"pads":{"x":[') + len('"pads":{"x":[')
    end = text.index(",", start)
    return text[:start] + repr(math.nextafter(float(text[start:end]), math.inf)) + text[end:]


_KIND_WITH_PADS = ',"pads":{"x":['


class TestReadAsWritten:
    """The writer's own text is read without parsing its columns, with the
    layout or the error that a full parse gives."""

    @pytest.mark.parametrize("damage, want", [
        (_first_pad_one_ulp_right, "pads.x"),
        (_replace('"format":2,', '"format":2.0,'), None),
        (_replace('"pin_length":0.02,', '"pin_length":1,'), None),
        (lambda text: text + "\n", None),
        (_replace('"pad_thickness":1e-05,', '"pad_thickness":true,'), "config.pad_thickness"),
        (lambda text: text, None),  # an annotation kind that holds the columns' key
        (_replace(',"solder_balls":', ',"pads":{"x":[0],"y":[0]},"solder_balls":'), "pads.x"),
        (_replace('"pitch":0.0005,', '"pitch":0.0006,'), "config.qubit_pitch"),
    ], ids=["pad-1-ulp", "format-2.0", "integer-length", "trailing-newline", "true-length",
            "kind-holds-pads", "second-pads", "grid-pitch"])
    def test_damaged_text_reads_as_the_full_parse(self, damage, want):
        layout = generate_layout(NOMINAL, (Annotation("cable-002", _KIND_WITH_PADS, 0.05),))
        text = damage(layout_to_json(layout, NOMINAL))
        got = _outcome(layout_from_json, text)
        assert got == _outcome(layout_module._read_parsed, text)
        if want is None:
            assert got == layout
        else:
            assert got[0] == want

    def test_writer_text_parses_only_the_head(self, monkeypatch):
        cfg = mutate(array_side_count=400)
        layout = generate_layout(cfg, (Annotation("cable-399", _KIND_WITH_PADS, 0.12),))
        text = layout_to_json(layout, cfg)
        parsed = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda s, **kw: parsed.append(len(s)) or loads(s, **kw))
        assert layout_from_json(text) == layout
        assert parsed and max(parsed) <= text.index(',"pads":') + 1  # the head and its "}"

    @pytest.mark.parametrize("cable", [
        "cable-003", "cable-999", "banana", "cable-01", "cable-0002", "cable--01", "cable-",
        "cable-" + "9" * 5000])
    def test_annotation_on_no_cable_of_the_grid(self, cable):
        layout = generate_layout(NOMINAL, (Annotation("cable-002", "ir-filter", 0.0),
                                           Annotation(cable, "ir-filter", 0.05)))
        text = layout_to_json(layout, NOMINAL)
        for read in (text, json.dumps(json.loads(text))):  # as written, and parsed in full
            with pytest.raises(ConfigInvalid) as exc:
                layout_from_json(read)
            assert exc.value.field == "annotations[1].cable"
            assert exc.value.message == (f"{cable!r} is not a cable of the 3x3 layout, "
                                         "whose cables are cable-000 to cable-002")

    def test_cables_past_999_have_four_digits(self):
        check_cables((Annotation("cable-1000", "ir-filter", 0.0),), 1001)
        with pytest.raises(ConfigInvalid):
            check_cables((Annotation("cable-1000", "ir-filter", 0.0),), 1000)
