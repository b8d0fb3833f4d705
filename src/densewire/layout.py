"""Interposer layout: pad/pin/hole/channel/ribbon geometry over a square
qubit array, design-rule checks, exports, and the bonding process plan.

Coordinates are in meters with the origin at the array center; exports
render in micrometers (SVG user unit = 1 um).  Generation and DRC are
pure functions; findings are data, never exceptions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ConfigInvalid, UnsupportedFormat
from .materials import MaterialCatalog, default_catalog
from .tlines import PinStack, pin_outer_diameter

ERROR = "error"
WARNING = "warning"

# Dimensional envelope the pin-in-interposer process is specified for.
HOLE_DIAMETER_RANGE = (200e-6, 300e-6)
PIN_LENGTH_RANGE = (15e-3, 25e-3)
PAD_THICKNESS_RANGE = (5e-6, 30e-6)
TIP_TOLERANCE_MAX = 2.5e-6
MIN_CHANNEL_ASPECT = 0.14          # width/depth demonstrated machinable
BOND_PRESSURE_RANGE = (10.0, 20.0)  # N/mm^2, chip-compression bonding

GRAVITY = 9.80665  # m/s^2, for gram-force conversion


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Annotation:
    """Attenuator/filter marker on one ribbon cable; positional metadata only."""

    cable: str
    kind: str
    position: float  # distance along the cable from the pin row, meters


@dataclass(frozen=True)
class InterposerLayout:
    pad_centers: tuple[tuple[float, float], ...]
    hole_centers: tuple[tuple[float, float], ...]
    channel_rows: tuple[tuple[float, float, float], ...]  # (y, width, depth)
    ribbon_assignments: tuple[tuple[int, str], ...]       # (row index, cable id)
    solder_ball_sites: tuple[tuple[float, float], ...]
    annotations: tuple[Annotation, ...] = ()


def generate_layout(cfg: LayoutConfig, annotations: tuple[Annotation, ...] = ()) -> InterposerLayout:
    """Square n x n pad/hole grid at the qubit pitch, one channel and one
    ribbon cable per row, solder-ball sites along each channel wall."""
    n = cfg.array_side_count
    offsets = [(i - (n - 1) / 2.0) * cfg.qubit_pitch for i in range(n)]
    pads = []
    balls = []
    for y in offsets:
        for x in offsets:
            pads.append((x, y))
            balls.append((x, y + cfg.channel_width / 2.0))
    channels = tuple((y, cfg.channel_width, cfg.channel_depth) for y in offsets)
    ribbons = tuple((row, f"cable-{row:03d}") for row in range(n))
    return InterposerLayout(
        pad_centers=tuple(pads),
        hole_centers=tuple(pads),  # one-to-one, coaxial with the pads
        channel_rows=channels,
        ribbon_assignments=ribbons,
        solder_ball_sites=tuple(balls),
        annotations=tuple(annotations),
    )


@dataclass(frozen=True)
class DrcFinding:
    rule: str
    severity: str
    message: str
    indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class DrcReport:
    findings: tuple[DrcFinding, ...]

    @property
    def errors(self) -> tuple[DrcFinding, ...]:
        return tuple(f for f in self.findings if f.severity == ERROR)

    @property
    def warnings(self) -> tuple[DrcFinding, ...]:
        return tuple(f for f in self.findings if f.severity == WARNING)

    @property
    def passed(self) -> bool:
        return not self.findings

    def to_records(self) -> list[dict]:
        return [
            {"rule": f.rule, "severity": f.severity, "message": f.message,
             "indices": list(f.indices)}
            for f in self.findings
        ]


def _fmt_um(x: float) -> str:
    return f"{x * 1e6:.6g} um"


def run_drc(layout: InterposerLayout, cfg: LayoutConfig, pin: PinStack) -> DrcReport:
    """Evaluate the dimensional design rules; findings are sorted by rule id."""
    findings: list[DrcFinding] = []

    # R1: the vertical wire footprint (hole) may not exceed the qubit cell.
    if cfg.hole_diameter > cfg.qubit_pitch:
        findings.append(DrcFinding(
            "R1", ERROR,
            f"hole diameter {_fmt_um(cfg.hole_diameter)} exceeds qubit pitch "
            f"{_fmt_um(cfg.qubit_pitch)}"))

    # R2: finished pin diameter must mate the pad diameter.
    d_pin = pin_outer_diameter(pin)
    if not math.isclose(d_pin, cfg.pad_diameter, rel_tol=1e-9, abs_tol=1e-12):
        findings.append(DrcFinding(
            "R2", ERROR,
            f"pin outer diameter {_fmt_um(d_pin)} does not match pad diameter "
            f"{_fmt_um(cfg.pad_diameter)}"))

    # R3: hole diameter inside the demonstrated process envelope.
    lo, hi = HOLE_DIAMETER_RANGE
    if not lo <= cfg.hole_diameter <= hi:
        findings.append(DrcFinding(
            "R3", WARNING,
            f"hole diameter {_fmt_um(cfg.hole_diameter)} outside the "
            f"[{_fmt_um(lo)}, {_fmt_um(hi)}] process envelope"))

    # R4: channel aspect ratio (width/depth) machinable by diamond turning.
    aspect = cfg.channel_width / cfg.channel_depth
    if aspect < MIN_CHANNEL_ASPECT:
        findings.append(DrcFinding(
            "R4", ERROR,
            f"channel aspect ratio {aspect:.3g} (width/depth) below the "
            f"machinable minimum {MIN_CHANNEL_ASPECT}"))

    # R5: pin-tip coplanarity tolerance.
    if cfg.tip_tolerance > TIP_TOLERANCE_MAX * (1 + 1e-9):
        findings.append(DrcFinding(
            "R5", ERROR,
            f"tip coplanarity tolerance {_fmt_um(cfg.tip_tolerance)} looser than "
            f"the required -/+{_fmt_um(TIP_TOLERANCE_MAX)}"))

    # R6: pin length inside the qualified range.
    lo, hi = PIN_LENGTH_RANGE
    if not lo <= cfg.pin_length <= hi:
        findings.append(DrcFinding(
            "R6", WARNING,
            f"pin length {cfg.pin_length * 1e3:.6g} mm outside the "
            f"[{lo * 1e3:.6g}, {hi * 1e3:.6g}] mm qualified range"))

    # R7: solder balls must land on the ground traces.
    if cfg.solder_ball_diameter > cfg.ground_curb_width * (1 + 1e-9):
        findings.append(DrcFinding(
            "R7", ERROR,
            f"solder ball diameter {_fmt_um(cfg.solder_ball_diameter)} exceeds the "
            f"ground trace width {_fmt_um(cfg.ground_curb_width)}"))

    # R8: holes wider than their channel cannot sit inside its footprint.
    if cfg.channel_width < cfg.hole_diameter:
        findings.append(DrcFinding(
            "R8", WARNING,
            f"channel width {_fmt_um(cfg.channel_width)} narrower than hole diameter "
            f"{_fmt_um(cfg.hole_diameter)}; holes protrude from the channel floor"))

    # R9: pad thickness inside the plating envelope.
    lo, hi = PAD_THICKNESS_RANGE
    if not lo <= cfg.pad_thickness <= hi:
        findings.append(DrcFinding(
            "R9", WARNING,
            f"pad thickness {_fmt_um(cfg.pad_thickness)} outside the "
            f"[{_fmt_um(lo)}, {_fmt_um(hi)}] envelope"))

    # Pad/hole correspondence of the generated geometry.
    if len(layout.pad_centers) != len(layout.hole_centers):
        findings.append(DrcFinding(
            "R10", ERROR,
            f"{len(layout.pad_centers)} pads vs {len(layout.hole_centers)} holes; "
            "arrays must correspond one-to-one"))
    else:
        off = tuple(
            i for i, (p, h) in enumerate(zip(layout.pad_centers, layout.hole_centers))
            if not (math.isclose(p[0], h[0], rel_tol=0, abs_tol=1e-12)
                    and math.isclose(p[1], h[1], rel_tol=0, abs_tol=1e-12))
        )
        if off:
            findings.append(DrcFinding(
                "R10", ERROR, "pads and holes are not coaxial", indices=off))

    findings.sort(key=lambda f: (f.rule, f.indices))
    return DrcReport(findings=tuple(findings))


class BondForce(NamedTuple):
    newtons: float
    gram_force: float


def bonding_force(pressure_n_per_mm2: float, contact_diameter: float) -> BondForce:
    """Force on one pin/pad contact at the given bonding pressure.

    pressure is in N/mm^2, diameter in meters; returns newtons and the
    equivalent gram-force.
    """
    if pressure_n_per_mm2 < 0 or contact_diameter <= 0:
        raise ValueError("pressure must be >= 0 and diameter > 0")
    area_mm2 = math.pi * (contact_diameter * 1e3 / 2.0) ** 2
    newtons = pressure_n_per_mm2 * area_mm2
    return BondForce(newtons, newtons / GRAVITY * 1e3)


def layout_to_json(layout: InterposerLayout, cfg: LayoutConfig | None = None) -> str:
    """Full coordinate dump, meters; deterministic byte-for-byte."""
    doc = {
        "units": "m",
        "pads": [[x, y] for x, y in layout.pad_centers],
        "holes": [[x, y] for x, y in layout.hole_centers],
        "channels": [{"y": y, "width": w, "depth": d} for y, w, d in layout.channel_rows],
        "ribbons": {str(row): cable for row, cable in layout.ribbon_assignments},
        "solder_balls": [[x, y] for x, y in layout.solder_ball_sites],
        "annotations": [
            {"cable": a.cable, "kind": a.kind, "position": a.position}
            for a in layout.annotations
        ],
    }
    if cfg is not None:
        doc["config"] = {
            "qubit_pitch": cfg.qubit_pitch,
            "array_side_count": cfg.array_side_count,
            "pad_diameter": cfg.pad_diameter,
            "hole_diameter": cfg.hole_diameter,
            "channel_width": cfg.channel_width,
            "channel_depth": cfg.channel_depth,
            "pin_length": cfg.pin_length,
            "pad_thickness": cfg.pad_thickness,
            "tip_tolerance": cfg.tip_tolerance,
            "ground_curb_width": cfg.ground_curb_width,
            "solder_ball_diameter": cfg.solder_ball_diameter,
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def layout_from_json(text: str) -> InterposerLayout:
    doc = json.loads(text)
    return InterposerLayout(
        pad_centers=tuple((x, y) for x, y in doc["pads"]),
        hole_centers=tuple((x, y) for x, y in doc["holes"]),
        channel_rows=tuple((c["y"], c["width"], c["depth"]) for c in doc["channels"]),
        ribbon_assignments=tuple(sorted((int(k), v) for k, v in doc["ribbons"].items())),
        solder_ball_sites=tuple((x, y) for x, y in doc["solder_balls"]),
        annotations=tuple(
            Annotation(a["cable"], a["kind"], a["position"]) for a in doc["annotations"]
        ),
    )


def _svg_um(x: float) -> str:
    return f"{x * 1e6:.3f}"


def layout_to_svg(layout: InterposerLayout, cfg: LayoutConfig,
                  drc: DrcReport | None = None) -> str:
    """Top view, 1 SVG user unit = 1 um.  DRC findings with element indices
    are highlighted; y points up (flipped via transform)."""
    pitch = cfg.qubit_pitch
    half = (cfg.array_side_count - 1) / 2.0 * pitch + pitch
    lo, size = -half * 1e6, 2 * half * 1e6
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{lo:.3f} {lo:.3f} {size:.3f} {size:.3f}" '
        f'width="{size / 1000:.3f}mm" height="{size / 1000:.3f}mm">',
        '<g transform="scale(1,-1)">',
    ]
    for y, w, d in layout.channel_rows:
        parts.append(
            f'<rect class="channel" x="{lo:.3f}" y="{_svg_um(y - w / 2)}" '
            f'width="{size:.3f}" height="{_svg_um(w)}" '
            f'fill="#dce6f0" stroke="#8899aa" stroke-width="1"/>'
        )
    for row, cable in layout.ribbon_assignments:
        y = layout.channel_rows[row][0]
        parts.append(
            f'<line class="ribbon" x1="{lo:.3f}" y1="{_svg_um(y)}" x2="{lo + size:.3f}" '
            f'y2="{_svg_um(y)}" stroke="#aabbcc" stroke-width="2" stroke-dasharray="8 8"/>'
        )
    for x, y in layout.pad_centers:
        parts.append(
            f'<circle class="pad" cx="{_svg_um(x)}" cy="{_svg_um(y)}" '
            f'r="{_svg_um(cfg.pad_diameter / 2)}" fill="#c0c0c0"/>'
        )
    for x, y in layout.hole_centers:
        parts.append(
            f'<circle class="hole" cx="{_svg_um(x)}" cy="{_svg_um(y)}" '
            f'r="{_svg_um(cfg.hole_diameter / 2)}" fill="none" stroke="#334455" stroke-width="2"/>'
        )
    for x, y in layout.solder_ball_sites:
        parts.append(
            f'<circle class="ball" cx="{_svg_um(x)}" cy="{_svg_um(y)}" '
            f'r="{_svg_um(cfg.solder_ball_diameter / 2)}" fill="#8090a0"/>'
        )
    if drc is not None:
        for f in drc.findings:
            for i in f.indices:
                if i < len(layout.hole_centers):
                    x, y = layout.hole_centers[i]
                    parts.append(
                        f'<circle class="violation" cx="{_svg_um(x)}" cy="{_svg_um(y)}" '
                        f'r="{_svg_um(cfg.hole_diameter)}" fill="none" stroke="#cc2222" '
                        f'stroke-width="3"/>'
                    )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_layout(layout: InterposerLayout, fmt: str, cfg: LayoutConfig | None = None,
                  drc: DrcReport | None = None) -> str:
    """Serialize the layout; fmt is "json" or "svg" (svg requires cfg)."""
    if fmt == "json":
        return layout_to_json(layout, cfg)
    if fmt == "svg":
        if cfg is None:
            raise ValueError("svg export requires the layout config")
        return layout_to_svg(layout, cfg, drc)
    raise UnsupportedFormat(fmt)


CONICAL = "conical"
SPHERICAL = "spherical"


@dataclass(frozen=True)
class ProcessStep:
    number: int
    title: str
    detail: str
    data: dict = field(default_factory=dict)


def process_checklist(cfg: LayoutConfig, mode: str,
                      catalog: MaterialCatalog | None = None) -> tuple[ProcessStep, ...]:
    """Assembly and bonding steps as structured documentation data.

    Reflow thresholds come from the material catalog; mode selects the
    pin-tip style (conical piercing vs spherical compression).
    """
    if mode not in (CONICAL, SPHERICAL):
        raise ValueError(f"mode must be {CONICAL!r} or {SPHERICAL!r}")
    cat = catalog if catalog is not None else default_catalog()
    snpb_reflow = cat.lookup("Sn-Pb").melting_or_reflow_temp
    in_reflow = cat.lookup("In").melting_or_reflow_temp
    if snpb_reflow is None or in_reflow is None:
        raise ConfigInvalid(
            "materials", "Sn-Pb and In need melting_or_reflow_temp for the process plan")

    steps = [
        ProcessStep(
            1, "Attach pins to ribbon cables",
            "Place each pin tail on a signal trace, align the flipped second cable "
            f"with ~1 mm vertical offset, compress, and reflow-solder at >= {snpb_reflow:g} degC "
            "(Sn-Pb), leaving the pin front segment free-hanging.",
            {"reflow_temp_C": snpb_reflow, "solder": "Sn-Pb"},
        ),
        ProcessStep(
            2, "Place ground solder balls",
            f"Press solder balls (diameter <= {cfg.solder_ball_diameter * 1e6:g} um) onto the "
            f"exposed ground traces of width {cfg.ground_curb_width * 1e6:g} um.",
            {"ball_diameter_m": cfg.solder_ball_diameter,
             "ground_width_m": cfg.ground_curb_width},
        ),
        ProcessStep(
            3, "Fill and insert",
            "Fill the interposer holes with epoxy (cure at ~60 degC), insert each "
            "cable-pin assembly into its channel with the pins threaded through the "
            "holes on the PTFE spacers; a thin protective photoresist on the pin "
            "becomes part of the coax dielectric.",
            {"cure_temp_C": 60.0, "fill": "STYCAST-1266"},
        ),
        ProcessStep(
            4, "Solder grounds in the channel",
            f"Vacuum-oven the assembly at >= {in_reflow:g} degC to solder the balls "
            "to the channel wall (In).",
            {"reflow_temp_C": in_reflow, "solder": "In"},
        ),
        ProcessStep(
            5, "Level the pin tips",
            f"Adjust every tip flush with the interposer bottom within "
            f"-/+{cfg.tip_tolerance * 1e6:g} um against mesa stops on an auxiliary chip.",
            {"tip_tolerance_m": cfg.tip_tolerance},
        ),
        ProcessStep(
            6, "Clean oxides",
            "Etch the oxide on the pin surface (hydrochloric acid) and on the pads "
            "(plasma etch)."
            + (" Conical tips pierce the pad, so the pin carries no soft-metal "
               "coating (no In coating on pin) and pre-bond cleaning of the pin "
               "may be unnecessary." if mode == CONICAL else ""),
            {"mode": mode},
        ),
    ]
    if mode == CONICAL:
        steps.append(ProcessStep(
            7, "Bond (conical)",
            f"Press each sharp tip into its {cfg.pad_thickness * 1e6:g} um pad; "
            "penetration stays within ~1 um of the pad at flip-chip-like pressure.",
            {"max_penetration_m": 1e-6, "pad_thickness_m": cfg.pad_thickness},
        ))
    else:
        f_lo = bonding_force(BOND_PRESSURE_RANGE[0], cfg.pad_diameter)
        f_hi = bonding_force(BOND_PRESSURE_RANGE[1], cfg.pad_diameter)
        steps.append(ProcessStep(
            7, "Bond (spherical)",
            f"Compress each rounded tip onto its pad at {BOND_PRESSURE_RANGE[0]:g}-"
            f"{BOND_PRESSURE_RANGE[1]:g} N/mm2 "
            f"({f_lo.newtons:.3g}-{f_hi.newtons:.3g} N per pad).",
            {"pressure_n_per_mm2": BOND_PRESSURE_RANGE,
             "force_per_pad_n": (f_lo.newtons, f_hi.newtons)},
        ))
    steps.append(ProcessStep(
        8, "Ultrasonic assist (optional)",
        "A 20 kHz ultrasonic signal can be applied to ease the pin-pad connection.",
        {"frequency_hz": 20e3, "optional": True},
    ))
    steps.append(ProcessStep(
        9, "Bond the ground curb",
        "Bump-bond the In film on the interposer bottom to the In curb on the chip "
        "ground planes; PTFE spacers sit flush with the bare interposer surface.",
        {"film_thickness_m": 10e-6},
    ))
    return tuple(steps)
