"""Command-line entry point.

Subcommands: scale, impedance, rf, layout, budget, sweep, paper-check.
A run's artifacts are staged as `<name>.tmp` and renamed together once its
command returns, or removed on any error, so a failed run leaves `--out` as
it was.  They hold no timestamps: identical (config, version) pairs produce
byte-identical output.  Exit codes: 0 success, 1 config/validation error,
2 analysis error or a failed golden-value check.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
from importlib import resources
from pathlib import Path

from . import __version__
# `load_design_config` stays here for perfbench's tracer.
from .config import DesignConfig, load_design_config, parse_design_config, set_parameter  # noqa: F401
from .errors import ConfigInvalid, DensewireError, OutOfRange
from .golden import golden_rows
from .layout import (
    BOND_PRESSURE_RANGE,
    bonding_force,
    check_export_size,
    export_layout,
    generate_layout,
    run_drc,
)
from .materials import MaterialCatalog, default_catalog, load_catalog
from .scaling import (
    LATERAL,
    lateral_scaling_report,
    logical_qubit_estimate,
    required_pitch_for_full_chip,
    vertical_scaling_report,
)
from .thermal import controller_budget, stage_report
from .tlines import (
    coax_impedance,
    cpw_effective_permittivity,
    cpw_impedance,
    line_propagation,
    pin_outer_diameter,
)
from .units import read_json

_WRITE_SLICE = 1 << 20  # characters encoded per write


# Only `rf` needs rfnet, and with it numpy, so these forwarders import it on
# their first call: every other subcommand starts without numpy.  They are
# names perfbench's tracer wraps.  `_cmd_rf` looks `mismatch_report` up in
# this module's globals at call time and streams `rfnet.response_texts`; the
# whole-text writers stay for the tracer only.
def mismatch_report(*args, **kwargs):
    from .rfnet import mismatch_report
    return mismatch_report(*args, **kwargs)


def response_csv(*args, **kwargs):
    from .rfnet import response_csv
    return response_csv(*args, **kwargs)


def touchstone(*args, **kwargs):
    from .rfnet import touchstone
    return touchstone(*args, **kwargs)


def _write_atomic(paths, parts) -> None:
    """Write `<name>.tmp` beside each of `paths`: `parts` yields tuples of
    one text per path, which are appended to the files in order.  A text
    goes out in slices, so its UTF-8 encoding never exists whole."""
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(f"{path}.tmp", "w", encoding="utf-8", newline="\n"))
                 for path in paths]
        for texts in parts:
            for f, text in zip(files, texts, strict=True):
                for i in range(0, len(text), _WRITE_SLICE):
                    f.write(text[i:i + _WRITE_SLICE])


@contextlib.contextmanager
def _committed(run: _Run):
    """Once the body returns, rename each file `run` staged from `<name>.tmp` onto its name;
    on any exception, remove every `.tmp` and the directories the run created."""
    new_dirs = [d for d in (run.out_dir, *run.out_dir.parents) if not d.exists()]
    try:
        yield
        if dirs := [path for path in run.staged if path.is_dir()]:  # rename none unless all can be
            raise IsADirectoryError(f"{dirs[0]}: is a directory")
        for path in run.staged:
            os.replace(f"{path}.tmp", path)
    except BaseException:
        for path in run.staged:
            with contextlib.suppress(OSError):
                os.remove(f"{path}.tmp")
        with contextlib.suppress(OSError):  # deepest first; stops at one the run wrote into
            for d in new_dirs:
                d.rmdir()
        raise


@contextlib.contextmanager
def _readable(option: str, path):
    """Turn a file that cannot be read into a config error naming the option that gave it."""
    try:
        yield
    except OSError as exc:
        raise ConfigInvalid(option, f"cannot read {path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _fits_in_memory(field: str, what: str):
    """Turn a failed allocation into a config error naming the field that sized it."""
    try:
        yield
    except MemoryError:
        raise ConfigInvalid(field, f"{what} do not fit in memory") from None


class _Run:
    """Shared context: config, catalog, and the artifact writers."""

    def __init__(self, args):
        self.out_dir = Path(args.out)
        self.staged: list[Path] = []  # artifact paths written as <name>.tmp
        with _readable("--materials", args.materials):
            self.catalog: MaterialCatalog = (
                load_catalog(args.materials) if args.materials else default_catalog())
        # One read: the config's hash and its parse come from the same bytes.
        source = (Path(args.config) if args.config
                  else resources.files("densewire").joinpath("data/default_config.json"))
        with _readable("--config", source):
            config_bytes = source.read_bytes()
        self.config: DesignConfig = parse_design_config(
            read_json(config_bytes, args.config or str(source)), self.catalog)
        self.config_sha256 = hashlib.sha256(config_bytes).hexdigest()

    def write(self, names, parts) -> None:
        """Stage the artifacts `names`: `parts` yields tuples of one text per name."""
        paths = [self.out_dir / name for name in names]
        self.staged.extend(paths)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        _write_atomic(paths, parts)

    def report(self, name: str, analysis: dict) -> None:
        """Write the JSON report `name`: `analysis` under the tool and config header."""
        doc = {"tool": "densewire", "version": __version__, "config_sha256": self.config_sha256,
               "analysis": analysis}
        try:
            text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        except ValueError:  # JSON has no inf or nan
            raise OutOfRange(f"{name}: a result is not finite") from None
        self.write([name], [(text + "\n",)])


def _scale_records(config: DesignConfig) -> dict:
    records = {}
    for arch in config.wiring:
        if arch.access == LATERAL:
            rep = lateral_scaling_report(config.qubit_array, arch)
            rec = rep.to_record()
            rec["required_pitch_full_chip_m"] = required_pitch_for_full_chip(
                config.qubit_array.chip_side, arch.wire_pitch, arch.wires_per_qubit)
        else:
            rep = vertical_scaling_report(config.qubit_array, arch)
            rec = rep.to_record()
        rec["wire_pitch_m"] = arch.wire_pitch
        rec["pitch_provenance"] = arch.provenance
        records[arch.access] = rec
    return records


def _cmd_scale(run: _Run, args) -> int:
    records = _scale_records(run.config)
    for access, rec in sorted(records.items()):
        rec["logical_qubits"] = logical_qubit_estimate(rec["n_qubits"], args.logical_overhead)
        rec["logical_overhead"] = args.logical_overhead
        line = (f"{access:<9} N_q={rec['n_qubits']} N_w={rec['n_wires']} "
                f"limiting={rec['limiting_factor']} "
                f"logical@{rec['logical_overhead']}={rec['logical_qubits']}")
        if rec.get("crossover_length_m") is not None:
            line += f" crossover={rec['crossover_length_m'] * 1e3:.6g}mm"
        print(line)
    run.report("scale.json", records)
    return 0


def _impedance_record(config: DesignConfig) -> dict:
    coax = config.coax
    record = {
        "coax": {
            "inner_diameter_m": coax.inner_diameter,
            "outer_diameter_m": coax.outer_diameter,
            "eps_r": coax.eps_r,
            "dielectric": coax.dielectric,
            "z_ohm": coax_impedance(coax),
        },
        "pin_outer_diameter_m": pin_outer_diameter(config.pin_stack),
    }
    v, lam = line_propagation(coax.eps_r, config.rf.band[1])
    record["coax"]["phase_velocity_m_per_s"] = v
    record["coax"]["wavelength_at_band_top_m"] = lam
    if config.cpw is not None:
        record["cpw"] = {
            "trace_width_m": config.cpw.trace_width,
            "gap_m": config.cpw.gap,
            "substrate_eps_r": config.cpw.substrate_eps_r,
            "covered": config.cpw.covered,
            "eps_eff": cpw_effective_permittivity(config.cpw),
            "z_ohm": cpw_impedance(config.cpw),
        }
    return record


def _cmd_impedance(run: _Run, args) -> int:
    record = _impedance_record(run.config)
    coax = record["coax"]
    print(f"coax pin-in-hole: d={coax['inner_diameter_m'] * 1e6:.6g}um "
          f"D={coax['outer_diameter_m'] * 1e6:.6g}um eps_r={coax['eps_r']:g} "
          f"Z={coax['z_ohm']:.4g} ohm")
    if "cpw" in record:
        cpw = record["cpw"]
        print(f"ribbon CPW: w={cpw['trace_width_m'] * 1e6:.6g}um "
              f"s={cpw['gap_m'] * 1e6:.6g}um Z={cpw['z_ohm']:.4g} ohm "
              f"eps_eff={cpw['eps_eff']:.4g}")
    run.report("impedance.json", record)
    return 0


def _cmd_rf(run: _Run, args) -> int:
    from .rfnet import response_texts
    config = run.config
    rf = config.rf
    interposer_z = coax_impedance(config.coax)
    feed_eps = (cpw_effective_permittivity(config.cpw) if config.cpw is not None
                else config.coax.eps_r)
    with _fits_in_memory("rf.points", f"{rf.points:g} frequency points"):
        report = mismatch_report(rf, config.layout.pin_length, interposer_z,
                                 pin_eps_eff=config.coax.eps_r, feed_eps_eff=feed_eps)
        print(f"path: {len(report.elements)} elements, pin Z={interposer_z:.4g} ohm in a "
              f"{rf.system_impedance:g} ohm system")
        print(f"worst |S11| = {report.worst_s11:.6g} at "
              f"{report.worst_s11_frequency / 1e9:.6g} GHz")
        run.write(["rf_response.csv", "rf.s2p"], response_texts(report.response))
        run.report("rf.json", report.to_record())
    return 0


def _cmd_layout(run: _Run, args) -> int:
    config = run.config
    layout = generate_layout(config.layout)
    check_export_size(layout)
    drc = run_drc(layout, config.layout, config.pin_stack)
    n = len(layout.hole_centers)
    print(f"{n} pad/hole sites, {layout.side_count} channels, "
          f"{layout.side_count} ribbon cables")
    for f in drc.findings:
        print(f"DRC {f.severity.upper():<7} {f.rule}: {f.message}")
    if drc.passed:
        print("DRC clean")
    per_pad = bonding_force(config.layout)
    array = tuple(n * f for f in per_pad)
    print(f"bonding: {per_pad[0]:.3g}-{per_pad[1]:.3g} N per pad, {array[0]:.3g}-{array[1]:.3g} N "
          f"for {n} pads at {BOND_PRESSURE_RANGE[0]:g}-{BOND_PRESSURE_RANGE[1]:g} N/mm2")
    side = config.layout.array_side_count
    with _fits_in_memory("layout.array_side_count", f"the sites of a {side}x{side} grid"):
        for fmt in ("json", "svg"):
            if args.format in (fmt, "both"):
                run.write([f"layout.{fmt}"], [(export_layout(layout, fmt, config.layout),)])
    bonding = {"pressure_n_per_mm2": BOND_PRESSURE_RANGE, "force_per_pad_n": per_pad,
               "force_array_n": array}
    run.report("drc.json", {"findings": drc.to_records(), "passed": drc.passed,
                            "bonding": bonding})
    return 0


def _cmd_budget(run: _Run, args) -> int:
    config = run.config
    report = stage_report(config.thermal, config.stages, run.catalog)
    text = report.to_text()
    print(text, end="")
    run.write(["budget.csv", "budget.txt"], [(report.to_csv(), text)])
    run.report("budget.json", {"stages": [r.to_record() for r in report.rows]})
    return 0


# Each sweep column after `parameter, value`: (column, record, key).  The
# records are the ones `impedance` and `scale` write, plus the first
# controller block's budget; a record the config does not produce leaves
# its cells empty.
_SWEEP_COLUMNS = (
    ("pin_outer_m", "impedance", "pin_outer_diameter_m"),
    ("coax_inner_m", "coax", "inner_diameter_m"),
    ("coax_outer_m", "coax", "outer_diameter_m"),
    ("coax_eps_r", "coax", "eps_r"),
    ("coax_z_ohm", "coax", "z_ohm"),
    ("cpw_z_ohm", "cpw", "z_ohm"),
    ("cpw_eps_eff", "cpw", "eps_eff"),
    ("lateral_n_qubits", "lateral", "n_qubits"),
    ("lateral_n_wires", "lateral", "n_wires"),
    ("lateral_limiting", "lateral", "limiting_factor"),
    ("lateral_crossover_m", "lateral", "crossover_length_m"),
    ("vertical_n_qubits", "vertical", "n_qubits"),
    ("vertical_n_wires", "vertical", "n_wires"),
    ("vertical_limiting", "vertical", "limiting_factor"),
    ("controller_total_w", "controller", "total_w"),
    ("controller_margin", "controller", "margin"),
)


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _sweep_records(config: DesignConfig) -> dict:
    impedance = _impedance_record(config)
    records = {"impedance": impedance, "coax": impedance["coax"], "cpw": impedance.get("cpw"),
               **_scale_records(config)}
    if config.thermal.controllers:
        stage_name, count, tech = config.thermal.controllers[0]
        records["controller"] = controller_budget(
            count, tech, config.stages.stage(stage_name)).to_record()
    return records


def sweep_csv(run: _Run, decl, where: str) -> str:
    """One CSV per sweep declaration: a row of standard outputs per point.
    Each point is parsed against the run's config, so it reads and builds
    only its field's sections.  A point the config reader rejects is a
    config error at `where`."""
    lines = [",".join(("parameter", "value", *(c for c, _, _ in _SWEEP_COLUMNS)))]
    for v in decl.points:
        try:
            cfg = parse_design_config(set_parameter(run.config.raw, decl.keys, v), run.catalog,
                                      base=run.config)
        except ConfigInvalid as exc:
            raise ConfigInvalid(where, f"at {decl.parameter} = {v:g}: {exc}") from None
        records = _sweep_records(cfg)
        lines.append(",".join((decl.parameter, _fmt_cell(v), *(
            _fmt_cell((records.get(name) or {}).get(key)) for _, name, key in _SWEEP_COLUMNS))))
    return "\n".join(lines) + "\n"


def _cmd_sweep(run: _Run, args) -> int:
    if not run.config.sweeps:
        raise ConfigInvalid("sweeps", "no sweep declarations in the config")
    names = [f"sweep_{decl.parameter.replace('.', '_')}.csv" for decl in run.config.sweeps]
    for i, (decl, name) in enumerate(zip(run.config.sweeps, names)):
        run.write([name], [(sweep_csv(run, decl, f"sweeps[{i}]"),)])
    for decl, name in zip(run.config.sweeps, names):  # only once every CSV is staged
        print(f"{decl.parameter}: {len(decl.points)} points -> {run.out_dir / name}")
    return 0


def _cmd_paper_check(run: _Run, args) -> int:
    rows = golden_rows(run.catalog)
    failed = 0
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.id:<26} computed={r.computed:.8g} expected={r.expected:.8g} "
              f"({r.tolerance}) {r.description}")
        failed += 0 if r.passed else 1
    print(f"{len(rows) - failed}/{len(rows)} golden values reproduced")
    run.report("paper_check.json", {"rows": [r.to_record() for r in rows], "passed": failed == 0})
    return 0 if failed == 0 else 2


def _positive_int(text: str) -> int:
    """An integer >= 1; anything else is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache  # built on the first call of `main`, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densewire",
        description="Design analyses for high-density vertical qubit wiring.")
    parser.add_argument("--config", help="design config JSON (default: built-in design point)")
    parser.add_argument("--materials", help="material catalog JSON (default: built-in catalog)")
    parser.add_argument("--out", default=".", help="artifact output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scale", help="wiring scalability reports")
    p.add_argument("--logical-overhead", type=_positive_int, default=2000,
                   help="physical qubits per error-corrected qubit")
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("impedance", help="line impedances for the configured geometry")
    p.set_defaults(func=_cmd_impedance)

    p = sub.add_parser("rf", help="signal-path reflection/transmission sweep")
    p.set_defaults(func=_cmd_rf)

    p = sub.add_parser("layout", help="generate the interposer layout and run DRC")
    p.add_argument("--format", choices=("json", "svg", "both"), default="both")
    p.set_defaults(func=_cmd_layout)

    p = sub.add_parser("budget", help="per-stage thermal/power budget")
    p.set_defaults(func=_cmd_budget)

    p = sub.add_parser("sweep", help="run the config's parameter sweeps")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("paper-check", help="verify the built-in golden reference values")
    p.set_defaults(func=_cmd_paper_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = _Run(args)
        with _committed(run):
            return args.func(run, args)
    except (DensewireError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigInvalid) else 2


if __name__ == "__main__":
    raise SystemExit(main())
