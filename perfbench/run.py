"""The densewire benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload design-suite --seed 1 --seconds 45 --trace 0

Workloads are defined in `workloads.py`.  One run sets the workload up
from its seed, runs one discarded warm-up iteration, then times warm,
in-process iterations for `--seconds` seconds and checks every output.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are end to end:
  wall_s       median wall time of one iteration, tracing off
  setup_s      median time a fresh interpreter takes to import
               densewire.cli, load the material catalog and parse the
               workload's configs (every CLI invocation pays this); the
               interpreters run one at a time, spread over the timed loop
               so that they sample the same stretch of the run
  peak_rss_mb  max RSS of a child process running set-up plus one iteration
Also printed, not gated: the sample count, the highest percentile with at
least ten samples beyond it, and the failed/attempted ratio.

With `--trace 1` traced and untraced iterations alternate and the metrics
are per layer (see tracing.py): self times summed per iteration, exact
counts, and `trace.overhead_s`, the traced minus the untraced median wall.
The spans are written to `.perfbench_work/trace-<workload>.json`.

The program is imported from `src/` of the current directory; the run
fails without printing a result when that is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 15
TRACE_SETUP_REPEATS = 3
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> unit.  Time metrics are self times summed per
# iteration, except cli.main_s (inclusive); import_s and
# materials.catalog_s come from the fresh set-up interpreters.
PER_LAYER_UNITS = {
    "import_s": "s", "materials.catalog_s": "s",
    "config.parse_s": "s", "config.parse_calls": "count",
    "scaling.report_s": "s", "tlines.impedance_s": "s",
    "rfnet.report_s": "s", "rfnet.cascade_s": "s", "rfnet.sparams_s": "s",
    "rfnet.points": "count", "rfnet.elements": "count",
    "rfnet.csv_s": "s", "rfnet.touchstone_s": "s",
    "layout.generate_s": "s", "layout.sites": "count", "layout.drc_s": "s",
    "layout.export_json_s": "s", "layout.export_svg_s": "s",
    "layout.json_bytes": "bytes", "layout.svg_bytes": "bytes", "layout.from_json_s": "s",
    "thermal.stage_report_s": "s", "thermal.conduction_s": "s",
    "thermal.conduction_calls": "count",
    "golden.rows_s": "s", "golden.rows": "count", "golden.failed_rows": "count",
    "cli.main_s": "s", "cli.self_s": "s", "cli.artifact_bytes": "bytes",
    "driver.self_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
}

SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
import densewire.cli
t1 = time.perf_counter()
from densewire import config, materials
catalog = materials.default_catalog()
t2 = time.perf_counter()
for path in sys.argv[1:]:
    config.load_design_config(path, catalog)
if len(sys.argv) == 1:
    from importlib import resources
    text = resources.files("densewire").joinpath("data/default_config.json").read_bytes()
    config.parse_design_config(json.loads(text), catalog)
t3 = time.perf_counter()
print(json.dumps({"setup_s": t3 - t0, "import_s": t1 - t0, "materials.catalog_s": t2 - t1}))
"""

RSS_CHILD = r"""
import json, resource, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import densewire.cli
import workloads
w = workloads.WORKLOADS[sys.argv[2]](int(sys.argv[3]), Path(sys.argv[4]))
w.load()
problems = w.check(w.iterate(Path(sys.argv[5])), deep=False)
print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "problems": problems}))
"""


class Tally:
    """Attempted and failed iterations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("; ".join(problems)[:2000])
        return not problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(code: str, *args: str) -> dict:
    """Run a fresh interpreter; return its JSON last line."""
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(w) -> dict:
    """One fresh set-up interpreter: setup_s, import_s, materials.catalog_s."""
    return run_child(SETUP_CHILD, *(str(path) for path in w.config_paths()))


def measure_rss(w, tally: Tally) -> float:
    out = w.work / "rss-out"
    doc = run_child(RSS_CHILD, str(HERE), w.name, str(w.seed), str(w.work), str(out))
    shutil.rmtree(out, ignore_errors=True)
    tally.record([f"peak-RSS child: {p}" for p in doc["problems"]])
    return doc["maxrss_kb"] / 1024.0


def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None
    k = n - 11  # zero-based rank with exactly ten samples above it
    return 100.0 * (k + 1) / n, sorted(samples)[k]


class Runner:
    """Drives one workload: warm-up, timed loop, checks and traces."""

    def __init__(self, w, tally: Tally, tracer=None):
        self.w = w
        self.tally = tally
        self.tracer = tracer
        self.out = w.work / "out"
        self.baseline: dict | None = None
        self.iteration = 0
        self.artifact_bytes: dict[int, int] = {}

    def once(self, traced: bool, deep: bool) -> tuple[float | None, bool]:
        """One iteration: its wall time (None if it raised) and whether it passed."""
        gc.collect()
        idx = self.iteration
        self.iteration += 1
        span = self.tracer.iteration_span(idx) if traced else contextlib.nullcontext()
        if traced:
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            with span:
                result = self.w.iterate(self.out)
            wall = time.perf_counter() - t0
        except Exception:  # a crash in the program under test is one failed iteration
            self.tally.record([traceback.format_exc(limit=3)])
            return None, False
        finally:
            if traced:
                self.tracer.uninstall()
        try:
            problems = self.w.check(result, deep)
            if self.w.writes_artifacts:
                problems += self.identity_problems()
                if traced:
                    self.artifact_bytes[idx] = workloads.tree_bytes(self.out)
        except Exception:  # an unreadable or missing artifact fails the iteration
            problems = [traceback.format_exc(limit=3)]
        return wall, self.tally.record(problems)

    def identity_problems(self) -> list[str]:
        digest = workloads.digest_tree(self.out)
        if self.baseline is None:
            self.baseline = digest
            return []
        changed = sorted(k for k in set(digest) | set(self.baseline)
                         if digest.get(k) != self.baseline.get(k))
        return [f"artifacts differ from the first iteration: {changed}"] if changed else []

    def loop(self, seconds: float, traced_every: int = 0,
             between=None) -> tuple[list[float], list[float]]:
        """Timed iterations for `seconds`; with traced_every=2 every other
        iteration is traced.  `between(share)`, if given, runs after each
        iteration with the share of `seconds` gone so far.  Returns
        (untraced walls, traced walls)."""
        self.once(traced=False, deep=True)  # warm-up, discarded
        plain, traced = [], []
        start = time.perf_counter()
        min_samples = MIN_SAMPLES if not traced_every else 2 * (MIN_SAMPLES - 1)
        n = 0
        while True:
            trace_this = bool(traced_every) and n % traced_every == 1
            t0 = time.perf_counter()
            wall, _ = self.once(traced=trace_this, deep=False)
            cycle = time.perf_counter() - t0
            n += 1
            if wall is not None:  # failed checks are counted, their time still measured
                (traced if trace_this else plain).append(wall)
            if between is not None:
                between((time.perf_counter() - start) / seconds)
            elapsed = time.perf_counter() - start
            if n >= min_samples and elapsed + cycle > seconds:
                return plain, traced


def end_to_end(w, seconds: float, tally: Tally) -> dict:
    rss_mb = measure_rss(w, tally)
    setup: list[float] = []

    def setup_due(share: float) -> None:
        while len(setup) < min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * share)):
            setup.append(measure_setup(w)["setup_s"])

    walls, _ = Runner(w, tally).loop(seconds, between=setup_due)
    setup_due(1.0)
    if not walls:
        raise RuntimeError("no iteration completed: " + " | ".join(tally.reasons))
    n = len(walls)
    t = tail(walls)
    print(f"wall_s: median of {n} samples = {statistics.median(walls):.6f} s "
          f"(min {min(walls):.6f}, max {max(walls):.6f})")
    print(f"wall_tail_s: p{t[0]:.1f} = {t[1]:.6f} s" if t else
          f"wall_tail_s: no percentile has ten samples beyond it ({n} samples)")
    print(f"setup_s: median of {len(setup)} fresh interpreters = {statistics.median(setup):.6f} s")
    print(f"fail_ratio: {tally.failed}/{tally.attempted}")
    return {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_mb}


def per_layer(w, seconds: float, tally: Tally) -> dict:
    setup = [measure_setup(w) for _ in range(TRACE_SETUP_REPEATS)]
    tracer = tracing.Tracer()
    runner = Runner(w, tally, tracer)
    plain, traced = runner.loop(seconds, traced_every=2)
    if not plain or not traced:
        raise RuntimeError("no iteration completed: " + " | ".join(tally.reasons))

    per_iter = tracing.layer_times(tracer.spans)
    iterations = sorted(per_iter)
    layers, counters = tracer.available()

    metrics = {}
    for name in PER_LAYER_UNITS:
        if name.endswith("_s") and name[:-2] in layers | {"cli.main", "cli.self", "driver.self"}:
            metrics[name] = statistics.median(per_iter[i].get(name, 0.0) for i in iterations)
        elif name in counters:
            metrics[name] = statistics.median_low(
                tracer.counts.get((i, name), 0) for i in iterations)
    for name in ("import_s", "materials.catalog_s"):
        metrics[name] = statistics.median(doc[name] for doc in setup)
    if w.writes_artifacts:
        metrics["cli.artifact_bytes"] = statistics.median_low(runner.artifact_bytes.values())
    elif "cli.main" in layers:
        metrics["cli.artifact_bytes"] = 0
    metrics["trace.wall_s"] = statistics.median(per_iter[i]["driver.wall_s"] for i in iterations)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)

    first = per_iter[iterations[0]]
    own = sum(v for k, v in first.items() if k not in ("cli.main_s", "driver.wall_s"))
    print(f"self-time closure, traced iteration {iterations[0]}: layers + driver = "
          f"{own:.6f} s, iteration wall = {first['driver.wall_s']:.6f} s")
    if tracer.missing:
        print(f"not wrapped (absent at this commit): {', '.join(sorted(tracer.missing))}")
    WORK_ROOT.mkdir(exist_ok=True)
    (WORK_ROOT / f"trace-{w.name}.json").write_text(
        json.dumps({"workload": w.name, "seed": w.seed,
                    "spans": tracing.spans_to_records(tracer.spans)}) + "\n")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one densewire benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "densewire" / "__init__.py").is_file():
        print(f"error: no densewire sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import densewire

    if Path(densewire.__file__).resolve().parent != (SRC / "densewire").resolve():
        print(f"error: densewire imported from {densewire.__file__}, not {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    tally = Tally()
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, work)
        w.prepare()
        w.load()
        if args.trace:
            metrics, units = per_layer(w, args.seconds, tally), PER_LAYER_UNITS
        else:
            metrics, units = end_to_end(w, args.seconds, tally), END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason in tally.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
