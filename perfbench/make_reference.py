"""Write reference.json: the seed commit's numbers that the output checks
compare against.  Run once, from the repository root, at the commit whose
outputs are the reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

It records the k(T) conduction integral of every material and stage span
of the cryostat workload (per unit area, length and count), worst |S11|
and its frequency for each RF variant, and the design-suite numbers the
checks read back.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def unit_conduction() -> dict:
    from densewire import units
    from densewire.materials import default_catalog
    from densewire.thermal import ConductionPath, conduction_load

    catalog = default_catalog()
    out = {}
    for material in wl.CRYO_MATERIALS:
        out[material] = {}
        for _, t_hot, t_cold in wl.STAGE_SPANS:
            path = ConductionPath(material, 1.0, 1.0, units.parse_temperature(t_hot),
                                  units.parse_temperature(t_cold))
            out[material][wl.span_key(t_hot, t_cold)] = conduction_load(path, catalog)
    return out


def rf_record(rf_json: Path) -> dict:
    rec = json.loads(rf_json.read_text())["analysis"]
    return {k: rec[k] for k in ("points", "worst_s11", "worst_s11_frequency_hz")}


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        work = Path(tmp)
        variants = []
        for k in range(wl.RF_VARIANTS):
            config = wl.write_json(work / f"rf-{k}.json", wl.rf_raw(k))
            rc, text = wl.run_cli(["--config", str(config), "--out", str(work / "rf"), "rf"])
            if rc != 0:
                raise SystemExit(f"rf variant {k}: exit {rc}: {text}")
            variants.append({"inputs": wl.rf_variant(k), **rf_record(work / "rf/rf.json")})
            print(f"rf variant {k}: {variants[-1]}", file=sys.stderr)

        suite = wl.DesignSuite(0, work)
        suite.prepare()
        out, codes = suite.iterate(work / "suite")
        print(f"design-suite exit codes: {codes}", file=sys.stderr)
        scale = json.loads((out / "scale/scale.json").read_text())["analysis"]
        imp = json.loads((out / "impedance/impedance.json").read_text())["analysis"]
        budget = wl.budget_stages(out / "budget/budget.json")
        design_suite = {
            "n_qubits": {a: scale[a]["n_qubits"] for a in ("lateral", "vertical")},
            "z_ohm": {line: imp[line]["z_ohm"] for line in ("coax", "cpw")},
            "rf": rf_record(out / "rf/rf.json"),
            "budget": {key: {name: row[key] for name, row in budget.items() if row[key]}
                       for key in ("conduction_w", "controller_w")},
        }

    doc = {
        "unit_conduction_w": unit_conduction(),
        "rf_variants": variants,
        "design_suite": design_suite,
    }
    wl.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
