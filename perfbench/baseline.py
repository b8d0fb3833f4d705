"""Measure the benchmark's baseline and write it to perfbench/baseline.json.

From the repository root:

    python3 perfbench/baseline.py --runs 10 --seconds 45

For every workload it makes `--runs` untraced runs, each with another
seed, and one traced run.  It records each end-to-end metric's values,
median and spread (the distance between the first and third quartile as
a share of the median), the traced per-layer numbers, the environment
(Python and numpy versions, CPU count), and the ratio of each number to
the single-shot measurement that ROADMAP.md quotes for it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Single-shot numbers from ROADMAP.md and the benchmark's issue, measured
# on a scratch copy of the seed commit: (workload, metric, value, what).
# Per-layer metrics come from the traced run, end-to-end ones are medians.
SINGLE_SHOT = (
    ("design-suite", "import_s", 0.27, "import densewire"),
    ("design-suite", "setup_s", 0.26, "import + catalog + config parse"),
    ("design-suite", "layout.generate_s", 0.085, "paper-check's two throwaway layouts"),
    ("design-suite", "peak_rss_mb", 68.0, "design-suite peak RSS"),
    ("fullchip-rf-100k", "layout.generate_s", 0.06, "full-chip generate_layout"),
    ("fullchip-rf-100k", "layout.drc_s", 0.23, "full-chip run_drc, in the CLI and on read-back"),
    ("fullchip-rf-100k", "layout.export_json_s", 3.4, "full-chip JSON export"),
    ("fullchip-rf-100k", "layout.export_svg_s", 1.1, "full-chip SVG export"),
    ("fullchip-rf-100k", "layout.from_json_s", 0.61, "full-chip layout_from_json"),
    ("fullchip-rf-100k", "rfnet.cascade_s", 3.3, "100k-point RF cascade"),
    ("fullchip-rf-100k", "wall_s", 8.2,
     "layout --format both 400x400 (3.5) + read-back (0.7) + rf at 100k points (4.0)"),
    ("fullchip-rf-100k", "peak_rss_mb", 240.0, "full-chip write peak RSS"),
)


def single_shot_comparison(doc: dict) -> list[dict]:
    out = []
    for workload, metric, value, what in SINGLE_SHOT:
        w = doc["workloads"][workload]
        e2e = w["end_to_end"].get(metric)
        measured = e2e["median"] if e2e else w["per_layer"].get(metric)
        out.append({"workload": workload, "metric": metric, "what": what, "single_shot": value,
                    "measured": measured,
                    "ratio": None if measured is None else measured / value})
    # Per conduction integral, the issue states 4-20 ms.
    w = doc["workloads"]["design-suite"]["per_layer"]
    calls = w.get("thermal.conduction_calls")
    if calls:
        out.append({"workload": "design-suite", "metric": "thermal.conduction_s / calls",
                    "what": "one k(T) conduction integral", "single_shot": [0.004, 0.020],
                    "measured": w["thermal.conduction_s"] / calls, "ratio": None})
    return out


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()

    import numpy

    doc = {
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "nproc": os.cpu_count(), "run_seconds": args.seconds},
        "workloads": {},
    }
    for w in SPEC["workloads"]:
        name = w["name"]
        runs = [one_run(name, args.first_seed + i, args.seconds, 0) for i in range(args.runs)]
        traced = one_run(name, args.first_seed + args.runs, args.seconds, 1)
        doc["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in SPEC["end_to_end"]},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{name}: " + ", ".join(
            f"{k} median {v['median']:.4g} spread {v['spread']:.3f}"
            for k, v in doc["workloads"][name]["end_to_end"].items()), file=sys.stderr)
    doc["single_shot_comparison"] = single_shot_comparison(doc)
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
