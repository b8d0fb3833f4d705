"""Workloads of the densewire benchmark: seeded inputs, one iteration each,
and the checks on its outputs.

Every workload runs single-threaded in one process and goes through the
public API or the CLI entry point (`densewire.cli.main`, in-process).
The seed varies input values only, never the amount of work: site,
frequency-point, conduction-path and sweep-step counts are fixed.

Outputs are checked only through public readers (`layout_from_json`) and
reported numbers (the JSON reports and the documented CSV columns), never
by the byte layout of a file, so a documented format change is not a
failure.  Expected numbers come from `reference.json`, written by
`make_reference.py` at the seed commit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from importlib import resources
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Tolerances against the seed commit's numbers.  Impedances allow 2e-4 and
# worst |S11| 1e-4, so that deriving eta0/2pi from mu0*c (1.1e-4 on every
# line impedance, 3.8e-5 on worst |S11|) still passes.  The budget allows
# 1e-5, which admits a closed-form k(T) integral in place of the adaptive one.
RF_REL = 1e-4
IMPEDANCE_REL = 2e-4
BUDGET_REL = 1e-5
# |S11|^2 + |S21|^2 = 1 on a lossless path; the CSV carries 12 digits.
PASSIVITY_TOL = 1e-9
KNOWN_RED_ROW = "coax-inverse-50ohm"

FULLCHIP_SIDE = 400
FULLCHIP_PITCH = 500e-6
RF_POINTS = 100_000
RF_VARIANTS = 16
STAGE_SPANS = (  # (stage receiving the heat, t_hot, t_cold), 300 K down to 10 mK
    ("50K", "300K", "50K"),
    ("3K", "50K", "3K"),
    ("0.7K", "3K", "0.7K"),
    ("0.1K", "0.7K", "0.1K"),
    ("10mK", "0.1K", "10mK"),
)
CRYO_MATERIALS = ("Nb-Ti", "SUS-304", "OFHC-Cu", "polyimide")
CRYO_PATH_LENGTH_M = 0.3
CRYO_CONTROLLER_W = {"3K": 100_000 * 100e-9}  # 1e5 SFQ controllers at 100 nW


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- inputs


def default_raw() -> dict:
    """The built-in design config, read the way the CLI reads it."""
    text = resources.files("densewire").joinpath("data/default_config.json").read_text("utf-8")
    return json.loads(text)


def pinned_raw() -> dict:
    """The built-in config with every section the analyses read pinned to
    the nominal design point, so the workload does not follow later edits
    of the shipped example values."""
    raw = default_raw()
    raw["layout"] = {
        "qubit_pitch": "500um", "array_side_count": 20, "pad_diameter": "200um",
        "hole_diameter": "300um", "channel_width": "300um", "channel_depth": "1mm",
        "pin_length": "20mm", "pad_thickness": "10um", "tip_tolerance": "2.5um",
        "ground_curb_width": "50um", "solder_ball_diameter": "50um",
    }
    raw["pin_stack"] = {"core_diameter": "auto", "coatings": [["TiN", "1um"], ["In", "10um"]]}
    raw["interposer"] = {"dielectric": "STYCAST-1266", "pin_hole_clearance": "100um"}
    raw["cpw"].update({"trace_width": "10um", "gap": "6um", "substrate_eps_r": 11.45,
                       "covered": False})
    return raw


def fullchip_layout(seed: int) -> dict:
    """A 400x400 layout section inside the DRC-clean envelope.

    Pitch and channel width stay at the nominal 500 and 300 um: they set
    every exported coordinate, and the digits of those coordinates set the
    amount of JSON and SVG text.  The seed picks the rest within the rules:
    hole 200-300 um, pad = finished pin = hole - 100 um clearance, channel
    depth with width/depth >= 0.14, pin 15-25 mm, pad 5-30 um thick, tip
    tolerance <= 2.5 um, solder ball no wider than the ground curb.  Ranged
    values stay off the range ends, where the decimal value and its binary
    float can fall on either side of the limit.
    """
    rng = random.Random(seed)
    hole = rng.randint(201, 299)
    curb = rng.randint(50, 100)
    return {
        "qubit_pitch": "500um",
        "array_side_count": FULLCHIP_SIDE,
        "pad_diameter": f"{hole - 100}um",
        "hole_diameter": f"{hole}um",
        "channel_width": "300um",
        "channel_depth": f"{rng.randint(500, 2000)}um",
        "pin_length": f"{rng.randint(15001, 24999)}um",
        "pad_thickness": f"{rng.randint(6, 29)}um",
        "tip_tolerance": rng.choice(("1um", "1.5um", "2um", "2.5um")),
        "ground_curb_width": f"{curb}um",
        "solder_ball_diameter": f"{rng.randint(20, curb)}um",
    }


def rf_variant(k: int) -> dict:
    """Feed length 25-35 mm and bond inductance 30-70 pH of RF variant k."""
    rng = random.Random(f"rf-{k}")
    return {"feed_length": f"{rng.randint(2500, 3500) / 100:g}mm",
            "bond_inductance": f"{rng.randint(300, 700) / 10:g}pH"}


def rf_raw(k: int) -> dict:
    """67 lossless elements: CPW feed, 64-segment 10 mm taper, the 20 mm
    coax pin and a 0-ohm bond, swept at 100k points over 0-10 GHz."""
    raw = pinned_raw()
    raw["rf"] = {"band": ["0Hz", "10GHz"], "points": RF_POINTS, "system_impedance": "50ohm",
                 "taper_length": "10mm", "taper_segments": 64, "bond_resistance": "0ohm",
                 **rf_variant(k)}
    return raw


def cryostat_paths(seed: int) -> list[dict]:
    """20 table-integrated conduction paths: 4 materials x 5 stage spans,
    with seeded cross-sections (100 um2 - 0.1 mm2) and counts (1-400)."""
    rng = random.Random(seed)
    paths = []
    for material in CRYO_MATERIALS:
        for stage, t_hot, t_cold in STAGE_SPANS:
            paths.append({
                "stage": stage, "material": material,
                "cross_section_area": f"{10 ** rng.uniform(2, 5):.6g}um2",
                "length": f"{CRYO_PATH_LENGTH_M * 1e3:g}mm",
                "t_hot": t_hot, "t_cold": t_cold, "count": rng.randint(1, 400),
            })
    return paths


def cryostat_raw(seed: int) -> dict:
    raw = pinned_raw()
    raw.pop("stages", None)  # the default stage ladder, 300 K to 10 mK
    raw["thermal"] = {
        "controllers": [{"stage": "3K", "count": 100_000, "tech": "SFQ"}],
        "paths": cryostat_paths(seed),
    }
    return raw


def span_key(t_hot: str, t_cold: str) -> str:
    return f"{t_hot}-{t_cold}"


def expected_cryostat_conduction(paths: list[dict], unit_integrals: dict) -> dict[str, float]:
    """Per-stage conduction watts: count * A / L * (integral of k dT) per path."""
    out: dict[str, float] = {}
    for p in paths:
        area_m2 = float(p["cross_section_area"][:-3]) * 1e-12
        unit = unit_integrals[p["material"]][span_key(p["t_hot"], p["t_cold"])]
        out[p["stage"]] = out.get(p["stage"], 0.0) + p["count"] * area_m2 / CRYO_PATH_LENGTH_M * unit
    return out


def write_json(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


# ------------------------------------------------------------- running


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`densewire.cli.main` in-process, stdout and stderr captured.

    The entry point is looked up at call time so that a traced run sees
    the wrapper installed on it."""
    import densewire.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = densewire.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under root, by relative path."""
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            with open(p, "rb") as f:
                out[str(p.relative_to(root))] = hashlib.file_digest(f, "sha256").hexdigest()
    return out


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# --------------------------------------------------------------- checks


def _doc(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _rel_close(a, b, rel: float) -> bool:
    return a is not None and math.isclose(float(a), float(b), rel_tol=rel, abs_tol=0.0)


def grid_problems(points, n: int, pitch: float, what: str) -> list[str]:
    """`points` must be exactly the n x n grid at `pitch` centred on the origin."""
    a = np.asarray(points, dtype=float)
    if a.shape != (n * n, 2):
        return [f"{what}: shape {a.shape}, expected ({n * n}, 2)"]
    idx = a / pitch + (n - 1) / 2.0
    r = np.rint(idx)
    if np.max(np.abs(idx - r)) > 1e-6 or r.min() < 0 or r.max() > n - 1:
        return [f"{what}: positions off the {n}x{n} grid at pitch {pitch:g} m"]
    if np.unique(r[:, 1] * n + r[:, 0]).size != n * n:
        return [f"{what}: duplicate grid positions"]
    return []


def layout_problems(layout_json: Path, n: int, pitch: float) -> list[str]:
    from densewire import layout as layout_mod

    loaded = layout_mod.layout_from_json(layout_json.read_text(encoding="utf-8"))
    return (grid_problems(loaded.pad_centers, n, pitch, "pads")
            + grid_problems(loaded.hole_centers, n, pitch, "holes"))


def svg_problems(svg: Path) -> list[str]:
    text = svg.read_bytes()
    if not text.rstrip().endswith(b"</svg>"):
        return [f"{svg.name}: not a complete SVG document"]
    return []


def drc_problems(drc_json: Path) -> list[str]:
    analysis = _doc(drc_json)["analysis"]
    return [] if analysis.get("passed") is True else [f"DRC not clean: {analysis.get('findings')}"]


def passivity_problems(csv_path: Path, points: int) -> list[str]:
    with open(csv_path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != points:
        return [f"{csv_path.name}: {len(rows)} rows, expected {points}"]
    s = np.array([[float(r["s11_re"]), float(r["s11_im"]), float(r["s21_re"]), float(r["s21_im"])]
                  for r in rows])
    residual = np.max(np.abs(np.sum(s * s, axis=1) - 1.0))
    if not residual <= PASSIVITY_TOL:
        return [f"{csv_path.name}: |S11|^2+|S21|^2 deviates from 1 by {residual:.3g}"]
    return []


def rf_problems(rf_json: Path, expected: dict, points: int) -> list[str]:
    rec = _doc(rf_json)["analysis"]
    problems = []
    if rec.get("points") != points:
        problems.append(f"rf.json points {rec.get('points')}, expected {points}")
    if not _rel_close(rec.get("worst_s11"), expected["worst_s11"], RF_REL):
        problems.append(f"worst_s11 {rec.get('worst_s11')} != {expected['worst_s11']}")
    # The frequency grid step is band/(points-1); allow one step.
    step = 10e9 / (points - 1)
    freq = rec.get("worst_s11_frequency_hz")
    if freq is None or abs(freq - expected["worst_s11_frequency_hz"]) > step * 1.001:
        problems.append(f"worst_s11 frequency {freq} != {expected['worst_s11_frequency_hz']}")
    return problems


def paper_check_problems(rc: int, paper_check_json: Path) -> list[str]:
    """`paper-check` exits 2 by design: it succeeds only when the sole
    failing golden row is the documented red one."""
    if rc != 2:
        return [f"paper-check exit {rc}, expected 2 (the known-red row fails)"]
    rows = _doc(paper_check_json)["analysis"]["rows"]
    failing = sorted(r["id"] for r in rows if not r["passed"])
    if failing != [KNOWN_RED_ROW]:
        return [f"paper-check failing rows {failing}, expected only {KNOWN_RED_ROW}"]
    return []


def budget_stages(budget_json: Path) -> dict[str, dict]:
    return {r["stage"]: r for r in _doc(budget_json)["analysis"]["stages"]}


def budget_problems(budget_json: Path, conduction: dict[str, float],
                    controller: dict[str, float]) -> list[str]:
    stages = budget_stages(budget_json)
    problems = [f"budget has no stage {name}" for name in sorted(set(conduction) | set(controller))
                if name not in stages]
    for name, row in stages.items():
        want_cond = conduction.get(name, 0.0)
        want_ctrl = controller.get(name, 0.0)
        for key, want in (("conduction_w", want_cond), ("controller_w", want_ctrl),
                          ("total_w", want_cond + want_ctrl)):
            got = row.get(key)
            if got is None or not math.isclose(got, want, rel_tol=BUDGET_REL, abs_tol=1e-300):
                problems.append(f"budget {name} {key} {got}, expected {want}")
    return problems


# ------------------------------------------------------------ workloads


class Workload:
    """One workload at one seed.

    prepare() writes the input configs (untimed, parent process only);
    load() parses what iterate() needs; iterate() is the timed work and
    returns what check() inspects.  check(result, deep) returns a list of
    problems; deep checks run once per run, because every later iteration
    must produce byte-identical artifacts anyway.
    """

    name = ""
    writes_artifacts = True

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def prepare(self) -> None:
        pass

    def load(self) -> None:
        pass

    def config_paths(self) -> list[Path]:
        """The config files a CLI call of this workload parses; none means
        the built-in default config."""
        return []

    def iterate(self, out: Path):
        raise NotImplementedError

    def check(self, result, deep: bool) -> list[str]:
        raise NotImplementedError


class DesignSuite(Workload):
    """All seven subcommands on the built-in default config, then `budget`
    on a cryostat config with 20 table-integrated conduction paths: many
    small calls, where per-call overhead, config parsing (33 parses in
    `sweep`), golden's two full-chip layouts and k(T) integrals dominate."""

    name = "design-suite"
    STEPS = (
        ("scale", ["scale"], 0),
        ("impedance", ["impedance"], 0),
        ("rf", ["rf"], 0),
        ("layout", ["layout", "--format", "both"], 0),
        ("budget", ["budget"], 0),
        ("sweep", ["sweep"], 0),
        ("paper-check", ["paper-check"], 2),
        ("budget-cryostat", ["budget"], 0),
    )
    SWEEP_ROWS = {"sweep_layout_hole_diameter.csv": 11, "sweep_qubit_array_chip_side.csv": 21}

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.cryostat = self.work / "cryostat.json"

    def prepare(self):
        write_json(self.cryostat, cryostat_raw(self.seed))

    def iterate(self, out):
        codes = {}
        for step, args, _ in self.STEPS:
            config = ["--config", str(self.cryostat)] if step == "budget-cryostat" else []
            codes[step], _ = run_cli(config + ["--out", str(out / step)] + args)
        return out, codes

    def check(self, result, deep):
        out, codes = result
        reference = load_reference()
        ref = reference["design_suite"]
        problems = [f"{step} exit {codes[step]}, expected {rc}"
                    for step, _, rc in self.STEPS if step != "paper-check" and codes[step] != rc]
        problems += paper_check_problems(codes["paper-check"], out / "paper-check/paper_check.json")
        if problems:
            return problems
        scale = _doc(out / "scale/scale.json")["analysis"]
        for access in ("lateral", "vertical"):
            if scale[access]["n_qubits"] != ref["n_qubits"][access]:
                problems.append(f"scale {access} n_qubits {scale[access]['n_qubits']}")
        imp = _doc(out / "impedance/impedance.json")["analysis"]
        for line in ("coax", "cpw"):
            if not _rel_close(imp[line]["z_ohm"], ref["z_ohm"][line], IMPEDANCE_REL):
                problems.append(f"impedance {line} {imp[line]['z_ohm']}")
        problems += rf_problems(out / "rf/rf.json", ref["rf"], ref["rf"]["points"])
        problems += drc_problems(out / "layout/drc.json")
        problems += svg_problems(out / "layout/layout.svg")
        problems += budget_problems(out / "budget/budget.json", ref["budget"]["conduction_w"],
                                    ref["budget"]["controller_w"])
        paths = json.loads(self.cryostat.read_text(encoding="utf-8"))["thermal"]["paths"]
        conduction = expected_cryostat_conduction(paths, reference["unit_conduction_w"])
        problems += budget_problems(out / "budget-cryostat/budget.json", conduction,
                                    CRYO_CONTROLLER_W)
        for name, rows in self.SWEEP_ROWS.items():
            with open(out / "sweep" / name, newline="", encoding="utf-8") as f:
                got = sum(1 for _ in csv.DictReader(f))
            if got != rows:
                problems.append(f"{name}: {got} rows, expected {rows}")
        if deep:
            problems += layout_problems(out / "layout/layout.json", 20, 500e-6)
            problems += passivity_problems(out / "rf/rf_response.csv", ref["rf"]["points"])
        return problems


class FullchipRf100k(Workload):
    """The two stress points in one iteration, each with its own config:

    - `densewire layout --format both` at 400x400 sites: export dominates
      the time and sets peak memory;
    - `layout_from_json` and `run_drc` on the layout.json just written:
      the read side of the same format, where a change that speeds writing
      but slows reading shows;
    - `densewire rf` at 100k points through 67 lossless elements: the rfnet
      cascade and CSV/Touchstone text at large N.

    Thermal is bypassed.  The seed picks the layout dimensions and one of
    RF_VARIANTS RF input sets, whose seed-commit results are in
    reference.json.
    """

    name = "fullchip-rf-100k"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.layout = fullchip_layout(seed)
        self.variant = random.Random(seed).randrange(RF_VARIANTS)
        self.layout_config = self.work / "fullchip.json"
        self.rf_config = self.work / "rf.json"

    def prepare(self):
        raw = pinned_raw()
        raw["layout"] = self.layout
        write_json(self.layout_config, raw)
        write_json(self.rf_config, rf_raw(self.variant))

    def load(self):
        from densewire import config

        self.design = config.load_design_config(self.layout_config)

    def config_paths(self):
        return [self.layout_config, self.rf_config]

    def iterate(self, out):
        from densewire import layout

        codes = {}
        codes["layout"], _ = run_cli(["--config", str(self.layout_config), "--out",
                                      str(out / "layout"), "layout", "--format", "both"])
        loaded = layout.layout_from_json((out / "layout/layout.json").read_text(encoding="utf-8"))
        report = layout.run_drc(loaded, self.design.layout, self.design.pin_stack)
        codes["rf"], _ = run_cli(["--config", str(self.rf_config), "--out", str(out / "rf"), "rf"])
        return out, codes, loaded, report

    def check(self, result, deep):
        out, codes, loaded, report = result
        problems = [f"{step} exit {rc}" for step, rc in codes.items() if rc != 0]
        if problems:
            return problems
        problems += drc_problems(out / "layout/drc.json") + svg_problems(out / "layout/layout.svg")
        if not report.passed:
            problems.append(f"DRC of the read-back layout not clean: {report.to_records()}")
        problems += (grid_problems(loaded.pad_centers, FULLCHIP_SIDE, FULLCHIP_PITCH, "pads")
                     + grid_problems(loaded.hole_centers, FULLCHIP_SIDE, FULLCHIP_PITCH, "holes"))
        expected = load_reference()["rf_variants"][self.variant]
        if expected["inputs"] != rf_variant(self.variant):
            return problems + [f"reference.json RF variant {self.variant} has other inputs"]
        problems += rf_problems(out / "rf/rf.json", expected, RF_POINTS)
        if deep:
            problems += passivity_problems(out / "rf/rf_response.csv", RF_POINTS)
        return problems


WORKLOADS = {w.name: w for w in (DesignSuite, FullchipRf100k)}
