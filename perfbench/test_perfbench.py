"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _move_first_pad(path: Path) -> None:
    def edit(doc):
        doc["pads"][0][0] += 1e-7
    _edit_json(path, edit)


def _scale_s11(path: Path) -> None:
    def edit(doc):
        doc["analysis"]["worst_s11"] *= 1.01
    _edit_json(path, edit)


def _scale_budget(path: Path) -> None:
    def edit(doc):
        doc["analysis"]["stages"][-1]["conduction_w"] *= 1.001
    _edit_json(path, edit)


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:1000])


def _break_passivity(path: Path) -> None:
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = str(float(cells[1]) + 1e-3)
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "rf.json worst_s11": ("rf/rf.json", _scale_s11),
    "cryostat budget": ("budget-cryostat/budget.json", _scale_budget),
    "layout.json off grid": ("layout/layout.json", _move_first_pad),
    "layout.json truncated": ("layout/layout.json", _truncate),
    "rf_response.csv not passive": ("rf/rf_response.csv", _break_passivity),
}


class CorruptingSuite(workloads.DesignSuite):
    """The design suite with one artifact damaged after iteration `at`."""

    def __init__(self, seed, work, artifact, damage, at=0):
        super().__init__(seed, work)
        self.artifact, self.damage, self.at, self.calls = artifact, damage, at, 0

    def iterate(self, out):
        result = super().iterate(out)
        if self.calls == self.at:
            self.damage(out / self.artifact)
        self.calls += 1
        return result


def _runner(w):
    w.prepare()
    w.load()
    tally = run.Tally()
    return run.Runner(w, tally), tally


def test_clean_iterations_pass(tmp_path):
    runner, tally = _runner(workloads.DesignSuite(5, tmp_path))
    assert runner.once(traced=False, deep=True)[1]
    assert runner.once(traced=False, deep=False)[1]
    assert (tally.attempted, tally.failed) == (2, 0), tally.reasons


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_artifact_counts_as_failure(tmp_path, case):
    artifact, damage = CORRUPTIONS[case]
    runner, tally = _runner(CorruptingSuite(5, tmp_path, artifact, damage))
    assert not runner.once(traced=False, deep=True)[1]
    assert (tally.attempted, tally.failed) == (1, 1)


def test_artifact_differing_between_iterations_counts_as_failure(tmp_path):
    def append_newline(path):
        path.write_text(path.read_text() + "\n")  # same numbers, other bytes

    runner, tally = _runner(CorruptingSuite(5, tmp_path, "scale/scale.json", append_newline, at=1))
    assert runner.once(traced=False, deep=True)[1]
    assert not runner.once(traced=False, deep=False)[1]
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "scale/scale.json" in tally.reasons[0]


def _paper_check(tmp_path, failing):
    rows = [{"id": i, "passed": i not in failing}
            for i in ("coax-z-24", workloads.KNOWN_RED_ROW, "logical-qubits")]
    path = tmp_path / "paper_check.json"
    path.write_text(json.dumps({"analysis": {"rows": rows, "passed": not failing}}))
    return path


@pytest.mark.parametrize("rc, failing, ok", [
    (2, {workloads.KNOWN_RED_ROW}, True),
    (2, {workloads.KNOWN_RED_ROW, "coax-z-24"}, False),
    (2, {"coax-z-24"}, False),
    (2, set(), False),
    (0, set(), False),
    (0, {workloads.KNOWN_RED_ROW}, False),
    (1, {workloads.KNOWN_RED_ROW}, False),
])
def test_paper_check_exit_2_is_success_only_for_the_known_red_row(tmp_path, rc, failing, ok):
    problems = workloads.paper_check_problems(rc, _paper_check(tmp_path, failing))
    assert (problems == []) is ok, problems


def test_self_time_on_nested_spans():
    spans = [
        Span("driver", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a1", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("b1", 5.5, 7.0, 3, 0),
        Span("b2", 6.0, 8.0, 3, 0),      # overlaps b1: the union 5.5-8 is covered once
        Span("b3", 8.5, 9.5, 3, 0),      # runs past its parent: clipped at 9
        Span("driver", 20.0, 21.0, None, 1),
        Span("a", 20.25, 20.5, 7, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [3.0, 2.0, 1.0, 1.0, 1.5, 2.0, 1.0, 0.75, 0.25])
    per_iter = tracing.layer_times(spans)
    assert per_iter[0] == pytest.approx(
        {"driver.self_s": 3.0, "driver.wall_s": 10.0, "a_s": 2.0, "a1_s": 1.0, "b_s": 1.0,
         "b1_s": 1.5, "b2_s": 2.0, "b3_s": 1.0})
    assert per_iter[1] == pytest.approx({"driver.self_s": 0.75, "driver.wall_s": 1.0, "a_s": 0.25})


def test_missing_wrapped_name_drops_only_its_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        tracing.Target("densewire.cli", "no_such_function", "fake.layer"),))
    monkeypatch.setitem(run.PER_LAYER_UNITS, "fake.layer_s", "s")
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    w = workloads.DesignSuite(5, tmp_path)
    w.prepare()
    tally = run.Tally()
    metrics = run.per_layer(w, 0.1, tally)
    assert tally.failed == 0, tally.reasons
    assert "fake.layer_s" not in metrics
    assert set(metrics) == set(run.PER_LAYER_UNITS) - {"fake.layer_s"}
    assert metrics["golden.failed_rows"] == 1
    assert metrics["config.parse_calls"] == 40  # 8 CLI calls + 32 sweep points


def test_tail_percentile_has_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    pct, value = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == pytest.approx(75.0)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
