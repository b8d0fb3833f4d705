"""Interposer layout: pad/pin/hole/channel/ribbon geometry over a square
qubit array, design-rule checks, exports, and the bonding force.

Coordinates are in meters with the origin at the array center; exports
render in micrometers (SVG user unit = 1 um).  A layout is its grid: it
stores the side count, pitch and channel cross-section, and every site is
derived from one tuple of row/column offsets, so an n x n layout costs O(n)
memory.  Generation and DRC are pure functions; findings are data, never
exceptions.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from functools import cached_property

from .errors import ConfigInvalid, UnsupportedFormat
from .tlines import PinStack, pin_outer_diameter
from .units import (
    bounded, frozen, integer, listof, number, optional, parse_length, positive_length, raw, section,
    string)

ERROR = "error"
WARNING = "warning"

# Dimensional envelope the pin-in-interposer process is specified for.
HOLE_DIAMETER_RANGE = (200e-6, 300e-6)
PIN_LENGTH_RANGE = (15e-3, 25e-3)
PAD_THICKNESS_RANGE = (5e-6, 30e-6)
TIP_TOLERANCE_MAX = 2.5e-6
MIN_CHANNEL_ASPECT = 0.14          # width/depth demonstrated machinable
BOND_PRESSURE_RANGE = (10.0, 20.0)  # N/mm^2, chip-compression bonding

LAYOUT_FORMAT = 2  # the `format` key of layout.json

# Most sites a layout file is written for: 1000 x 1000, the densest grid a
# 200 mm chip holds at the 200 um minimum hole of the process envelope.
MAX_EXPORT_SITES = 10**6


@frozen
class LayoutConfig:
    """Dimensions of the pad/pin/hole/channel assembly (meters)."""

    qubit_pitch: float
    array_side_count: int
    pad_diameter: float
    hole_diameter: float
    channel_width: float
    channel_depth: float
    pin_length: float
    pad_thickness: float
    tip_tolerance: float
    ground_curb_width: float
    solder_ball_diameter: float = 50e-6

    def __post_init__(self):
        if self.array_side_count < 1:
            raise ConfigInvalid("layout.array_side_count", "must be >= 1")
        for name in ("qubit_pitch", "pad_diameter", "hole_diameter", "channel_width",
                     "channel_depth", "pin_length", "pad_thickness", "tip_tolerance",
                     "ground_curb_width", "solder_ball_diameter"):
            if getattr(self, name) <= 0:
                raise ConfigInvalid(f"layout.{name}", "must be > 0")


@frozen
class Annotation:
    """Attenuator/filter marker on one ribbon cable; positional metadata only."""

    cable: str
    kind: str
    position: float  # distance along the cable from the pin row, meters


# An annotation and the layout section as the design config and layout.json
# both give them; layout.json calls the layout section `config`.
ANNOTATION = section(cable=string, kind=string, position=bounded(parse_length, 0.0))
LAYOUT = section(
    qubit_pitch=positive_length, array_side_count=integer(1),
    pad_diameter=positive_length, hole_diameter=positive_length,
    channel_width=positive_length, channel_depth=positive_length,
    pin_length=positive_length, pad_thickness=positive_length,
    tip_tolerance=positive_length, ground_curb_width=positive_length,
    solder_ball_diameter=optional(positive_length))


class SiteGrid(Sequence):
    """Read-only (x, y) sites of a grid, row by row with x fastest: site i
    is (xs[i % len(xs)], ys[i // len(xs)]).  Only the two axes are stored."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs: tuple[float, ...], ys: tuple[float, ...]):
        self.xs, self.ys = xs, ys

    def __len__(self) -> int:
        return len(self.xs) * len(self.ys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self))))
        row, col = divmod(range(len(self))[i], len(self.xs))
        return (self.xs[col], self.ys[row])

    def __iter__(self):
        return ((x, y) for y in self.ys for x in self.xs)


@frozen
class InterposerLayout:
    """An n x n pad/hole grid at `pitch`, one channel and one ribbon cable
    per row.  Holes are coaxial with the pads; solder balls sit on the
    channel wall, `channel_width / 2` above each pad row."""

    side_count: int
    pitch: float
    channel_width: float
    channel_depth: float
    annotations: tuple[Annotation, ...] = ()

    @cached_property
    def offsets(self) -> tuple[float, ...]:
        """Row and column centers: (i - (n - 1)/2) * pitch."""
        n = self.side_count
        return tuple((i - (n - 1) / 2.0) * self.pitch for i in range(n))

    @cached_property
    def pad_centers(self) -> SiteGrid:
        return SiteGrid(self.offsets, self.offsets)

    @property
    def hole_centers(self) -> SiteGrid:
        return self.pad_centers  # one-to-one, coaxial with the pads

    @cached_property
    def solder_ball_sites(self) -> SiteGrid:
        return SiteGrid(self.offsets, tuple(y + self.channel_width / 2.0 for y in self.offsets))


def generate_layout(cfg: LayoutConfig, annotations: tuple[Annotation, ...] = ()) -> InterposerLayout:
    """Square n x n pad/hole grid at the qubit pitch, one channel and one
    ribbon cable per row, solder-ball sites along each channel wall."""
    return InterposerLayout(cfg.array_side_count, cfg.qubit_pitch, cfg.channel_width,
                            cfg.channel_depth, tuple(annotations))


@frozen
class DrcFinding:
    rule: str
    severity: str
    message: str


@frozen
class DrcReport:
    findings: tuple[DrcFinding, ...]

    @property
    def errors(self) -> tuple[DrcFinding, ...]:
        return tuple(f for f in self.findings if f.severity == ERROR)

    @property
    def passed(self) -> bool:
        return not self.findings

    def to_records(self) -> list[dict]:
        return [{"rule": f.rule, "severity": f.severity, "message": f.message}
                for f in self.findings]


def _fmt_um(x: float) -> str:
    return f"{x * 1e6:.6g} um"


def run_drc(layout: InterposerLayout, cfg: LayoutConfig, pin: PinStack) -> DrcReport:
    """Evaluate the dimensional design rules; findings come in rule order.

    Each rule is one row of a table, (rule, severity, violated, message).
    The pitch and channel rules read the layout's grid, the part rules
    `cfg` and `pin`.
    """
    d_pin = pin_outer_diameter(pin)
    aspect = layout.channel_width / layout.channel_depth
    hole_lo, hole_hi = HOLE_DIAMETER_RANGE
    pin_lo, pin_hi = PIN_LENGTH_RANGE
    pad_lo, pad_hi = PAD_THICKNESS_RANGE
    rules = (
        # R1: the vertical wire footprint (hole) may not exceed the qubit cell.
        ("R1", ERROR, cfg.hole_diameter > layout.pitch,
         f"hole diameter {_fmt_um(cfg.hole_diameter)} exceeds qubit pitch "
         f"{_fmt_um(layout.pitch)}"),
        # R2: finished pin diameter must mate the pad diameter.
        ("R2", ERROR, not math.isclose(d_pin, cfg.pad_diameter, rel_tol=1e-9, abs_tol=1e-12),
         f"pin outer diameter {_fmt_um(d_pin)} does not match pad diameter "
         f"{_fmt_um(cfg.pad_diameter)}"),
        # R3: hole diameter inside the demonstrated process envelope.
        ("R3", WARNING, not hole_lo <= cfg.hole_diameter <= hole_hi,
         f"hole diameter {_fmt_um(cfg.hole_diameter)} outside the "
         f"[{_fmt_um(hole_lo)}, {_fmt_um(hole_hi)}] process envelope"),
        # R4: channel aspect ratio (width/depth) machinable by diamond turning.
        ("R4", ERROR, aspect < MIN_CHANNEL_ASPECT,
         f"channel aspect ratio {aspect:.3g} (width/depth) below the "
         f"machinable minimum {MIN_CHANNEL_ASPECT}"),
        # R5: pin-tip coplanarity tolerance.
        ("R5", ERROR, cfg.tip_tolerance > TIP_TOLERANCE_MAX * (1 + 1e-9),
         f"tip coplanarity tolerance {_fmt_um(cfg.tip_tolerance)} looser than "
         f"the required -/+{_fmt_um(TIP_TOLERANCE_MAX)}"),
        # R6: pin length inside the qualified range.
        ("R6", WARNING, not pin_lo <= cfg.pin_length <= pin_hi,
         f"pin length {cfg.pin_length * 1e3:.6g} mm outside the "
         f"[{pin_lo * 1e3:.6g}, {pin_hi * 1e3:.6g}] mm qualified range"),
        # R7: solder balls must land on the ground traces.
        ("R7", ERROR, cfg.solder_ball_diameter > cfg.ground_curb_width * (1 + 1e-9),
         f"solder ball diameter {_fmt_um(cfg.solder_ball_diameter)} exceeds the "
         f"ground trace width {_fmt_um(cfg.ground_curb_width)}"),
        # R8: holes wider than their channel cannot sit inside its footprint.
        ("R8", WARNING, layout.channel_width < cfg.hole_diameter,
         f"channel width {_fmt_um(layout.channel_width)} narrower than hole diameter "
         f"{_fmt_um(cfg.hole_diameter)}; holes protrude from the channel floor"),
        # R9: pad thickness inside the plating envelope.
        ("R9", WARNING, not pad_lo <= cfg.pad_thickness <= pad_hi,
         f"pad thickness {_fmt_um(cfg.pad_thickness)} outside the "
         f"[{_fmt_um(pad_lo)}, {_fmt_um(pad_hi)}] envelope"),
    )
    return DrcReport(tuple(DrcFinding(rule, severity, message)
                           for rule, severity, violated, message in rules if violated))


def bonding_force(cfg: LayoutConfig) -> tuple[float, float]:
    """Force on one pad, newtons, at each end of BOND_PRESSURE_RANGE: the
    bonding pressure over the pad's area."""
    radius_mm = cfg.pad_diameter * 1e3 / 2.0
    area_mm2 = math.pi * radius_mm * radius_mm  # inf, not OverflowError, for a huge pad
    lo, hi = BOND_PRESSURE_RANGE
    return lo * area_mm2, hi * area_mm2


def _columns(sites: SiteGrid) -> dict[str, list[float]]:
    return {"x": list(sites.xs) * len(sites.ys), "y": [y for y in sites.ys for _ in sites.xs]}


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def _fields(value) -> dict:
    """A frozen value's fields by name, in order."""
    return {name: getattr(value, name) for name in value.__match_args__}


def _column_parts(sites: SiteGrid):
    """`_dumps(_columns(sites))` as parts of about one row each, with each
    axis value formatted once: the x column repeats the row's text, the y
    column repeats each value per row."""
    row = _dumps(sites.xs)[1:-1]
    *ys, y_last = _dumps(sites.ys)[1:-1].split(",")
    nx = len(sites.xs)
    yield '{"x":['
    yield from [row + ","] * len(ys)
    yield row
    yield '],"y":['
    for y in ys:
        yield (y + ",") * nx
    yield (y_last + ",") * (nx - 1) + y_last
    yield "]}"


def check_export_size(layout: InterposerLayout) -> None:
    """Reject a layout of more than MAX_EXPORT_SITES sites before any text is built."""
    n = layout.side_count
    if n * n > MAX_EXPORT_SITES:
        raise ConfigInvalid("layout.array_side_count", f"a {n}x{n} grid has {n * n} sites; "
                            f"layout files are written for at most {MAX_EXPORT_SITES}")


def layout_to_json(layout: InterposerLayout, cfg: LayoutConfig) -> str:
    """The grid, its site coordinates as columns and the generating config,
    meters; compact and deterministic byte-for-byte.  Holes equal pads and
    are not written.

    The text is `_dumps` of the whole document; the site columns are built
    by `_column_parts` and every other member by `_dumps`, and one join
    copies each part once, into the result."""
    check_export_size(layout)
    doc = {
        "format": LAYOUT_FORMAT,
        "units": "m",
        "grid": {"side_count": layout.side_count, "pitch": layout.pitch,
                 "channel_width": layout.channel_width, "channel_depth": layout.channel_depth},
        "annotations": [_fields(a) for a in layout.annotations],
        "config": _fields(cfg),
    }
    members = {key: [_dumps(value)] for key, value in doc.items()}
    members["pads"] = _column_parts(layout.pad_centers)
    members["solder_balls"] = _column_parts(layout.solder_ball_sites)
    parts = ["{"]
    for key in sorted(members):
        parts += [f'"{key}":', *members[key], ","]
    parts[-1] = "}\n"
    return "".join(parts)


_positive = bounded(number, 0.0, strict=True)
_SITE_COLUMNS = section(x=raw, y=raw)  # checked against the grid
_LAYOUT_JSON = section(
    format=integer(LAYOUT_FORMAT), units=string,
    grid=section(side_count=integer(1), pitch=_positive, channel_width=_positive,
                 channel_depth=_positive),
    pads=_SITE_COLUMNS, solder_balls=_SITE_COLUMNS,
    annotations=listof(ANNOTATION),
    config=LAYOUT)
# Each `config` field that `grid` repeats: (config field, grid field).
_GRID_IN_CONFIG = (("qubit_pitch", "pitch"), ("array_side_count", "side_count"),
                   ("channel_width", "channel_width"), ("channel_depth", "channel_depth"))


def check_cables(annotations: Sequence[Annotation], side_count: int) -> None:
    """Reject an annotation on a cable that an n x n layout does not have:
    row i's cable is `cable-<i:03d>`, from cable-000 to cable-<n-1>."""
    n = side_count
    for i, a in enumerate(annotations):
        try:
            row = int(a.cable.removeprefix("cable-"))
        except ValueError:  # no row number, or more digits than int() reads
            row = -1
        if not (0 <= row < n and a.cable == f"cable-{row:03d}"):
            raise ConfigInvalid(f"annotations[{i}].cable", f"{a.cable!r} is not a cable of the "
                                f"{n}x{n} layout, whose cables are cable-000 to cable-{n - 1:03d}")


# The members `layout_to_json` writes before the site columns.
_HEAD = section(annotations=listof(ANNOTATION), config=LAYOUT, format=raw, grid=raw)


def _read_as_written(text: str) -> InterposerLayout | None:
    """The layout if `text` is the text `layout_to_json` writes for it, else None.

    Only the members before `pads` are parsed.  The layout and its config
    are built from `config` and `annotations`, and the writer's text of them
    is compared with `text`, so the site columns are never parsed."""
    end = text.find(',"pads":')
    if end < 0:
        return None
    try:
        head = _HEAD(json.loads(text[:end] + "}"), "")
        cfg = LayoutConfig(**head["config"])
        layout = generate_layout(cfg, tuple(Annotation(**a) for a in head["annotations"]))
        check_cables(layout.annotations, layout.side_count)
        if layout_to_json(layout, cfg) == text:  # a grid beyond the size check raises first
            return layout
    except (ValueError, ConfigInvalid):  # the full parse names the field
        pass
    return None


def _read_parsed(text: str) -> InterposerLayout:
    """`layout_from_json` by a full parse of `text` and a check of every field."""
    doc = json.loads(text)
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != LAYOUT_FORMAT:
        raise ConfigInvalid("format", f"expected layout format {LAYOUT_FORMAT}, got {fmt!r}")
    doc = _LAYOUT_JSON(doc, "")
    if "solder_ball_diameter" not in doc["config"]:
        raise ConfigInvalid("config.solder_ball_diameter", "missing required field")
    if doc["units"] != "m":
        raise ConfigInvalid("units", f"expected 'm', got {doc['units']!r}")
    grid = doc["grid"]
    layout = InterposerLayout(
        grid["side_count"], grid["pitch"], grid["channel_width"], grid["channel_depth"],
        tuple(Annotation(**a) for a in doc["annotations"]))
    n = layout.side_count
    for name in ("pads", "solder_balls"):  # lengths first: a large side_count builds nothing
        for axis, got in doc[name].items():
            if not isinstance(got, list) or len(got) != n * n:
                raise ConfigInvalid(f"{name}.{axis}", f"expected a list of {n * n} numbers")
    for leaf, key in _GRID_IN_CONFIG:
        if doc["config"][leaf] != grid[key]:
            raise ConfigInvalid(f"config.{leaf}", f"is {doc['config'][leaf]!r}, but "
                                f"grid.{key} is {grid[key]!r}")
    check_cables(layout.annotations, n)
    for name, sites in (("pads", layout.pad_centers), ("solder_balls", layout.solder_ball_sites)):
        for axis, want in _columns(sites).items():
            got = doc[name][axis]
            if got != want:
                i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
                raise ConfigInvalid(f"{name}.{axis}", f"entry {i} is {got[i]!r}, off the "
                                    f"{n}x{n} grid, which puts it at {want[i]!r}")
    return layout


def layout_from_json(text: str) -> InterposerLayout:
    """Read a layout.json of format 2.

    The writer's own text is checked by comparison: its `config` and
    `annotations` are read, and a text equal to what `layout_to_json`
    writes for them is accepted without parsing the site columns.  Any
    other text is parsed in full and every field checked, with the same
    errors either way.

    Raises ConfigInvalid naming the field when the format is not 2, a field
    is missing or mistyped, a `config` field that the `grid` section repeats
    differs from it, an annotation names a cable the grid does not have, or
    a coordinate column differs from the grid that the `grid` section
    defines.  `config` is read through `LAYOUT`, as a design config's
    `layout` section is, except that every field is required: the writer
    writes them all.  The writer writes `grid` and `config` from the same
    floats, so they are compared exactly.
    """
    layout = _read_as_written(text)
    return layout if layout is not None else _read_parsed(text)


def _svg_um(x: float) -> str:
    return f"{x * 1e6:.3f}"


def layout_to_svg(layout: InterposerLayout, cfg: LayoutConfig) -> str:
    """Top view, 1 SVG user unit = 1 um; y points up (flipped via transform).

    The array is one cell repeated, so it is drawn with fills, and the text
    does not grow with the side count.  Three <pattern>s in <defs> tile it:
    "site" (the pad and its coaxial hole) and "ball" (the solder ball) are
    one pitch square with the site at the tile's center, "stripe" is one
    pitch tall and holds a row's channel and ribbon cable.  One <rect> per
    pattern fills the n x n array.  A pattern clips its content to its
    tile, so anything wider than the pitch is drawn clipped to it.
    """
    check_export_size(layout)
    n, p, w = layout.side_count, layout.pitch, layout.channel_width
    half = (n - 1) / 2.0 * p + p
    lo, size = -half * 1e6, 2 * half * 1e6
    first = layout.offsets[0]  # the first site's x and y
    origin = _svg_um(first - p / 2)  # a tile's origin is its site minus p/2
    tile, mid, span = _svg_um(p), _svg_um(p / 2), _svg_um(n * p)
    # Each pattern: id, tile origin x and y, tile width, fill width, content.
    patterns = (
        # The line starts at tile x = 0, so every row's dashes start at `lo`.
        ("stripe", f"{lo:.3f}", origin, f"{size:.3f}", f"{size:.3f}",
         f'<rect class="channel" x="0" y="{_svg_um(p / 2 - w / 2)}" '
         f'width="{size:.3f}" height="{_svg_um(w)}" '
         'fill="#dce6f0" stroke="#8899aa" stroke-width="1"/>'
         f'<line class="ribbon" x1="0" y1="{mid}" x2="{size:.3f}" y2="{mid}" '
         'stroke="#aabbcc" stroke-width="2" stroke-dasharray="8 8"/>'),
        ("site", origin, origin, tile, span,
         f'<circle class="pad" cx="{mid}" cy="{mid}" '
         f'r="{_svg_um(cfg.pad_diameter / 2)}" fill="#c0c0c0"/>'
         f'<circle class="hole" cx="{mid}" cy="{mid}" r="{_svg_um(cfg.hole_diameter / 2)}" '
         'fill="none" stroke="#334455" stroke-width="2"/>'),
        ("ball", origin, _svg_um(first + w / 2 - p / 2), tile, span,
         f'<circle class="ball" cx="{mid}" cy="{mid}" '
         f'r="{_svg_um(cfg.solder_ball_diameter / 2)}" fill="#8090a0"/>'),
    )
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{lo:.3f} {lo:.3f} {size:.3f} {size:.3f}" '
        f'width="{size / 1000:.3f}mm" height="{size / 1000:.3f}mm">',
        "<defs>",
        *(f'<pattern id="{name}" patternUnits="userSpaceOnUse" x="{x}" y="{y}" '
          f'width="{width}" height="{tile}">{content}</pattern>'
          for name, x, y, width, _, content in patterns),
        "</defs>",
        '<g transform="scale(1,-1)">',
        *(f'<rect fill="url(#{name})" x="{x}" y="{y}" width="{width}" height="{span}"/>'
          for name, x, y, _, width, _ in patterns),
        "</g>",
        "</svg>",
        "",
    ])


def export_layout(layout: InterposerLayout, fmt: str, cfg: LayoutConfig) -> str:
    """Serialize the layout; fmt is "json" or "svg"."""
    if fmt == "json":
        return layout_to_json(layout, cfg)
    if fmt == "svg":
        return layout_to_svg(layout, cfg)
    raise UnsupportedFormat(fmt)
