import csv
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from densewire import cli
from densewire.cli import _write_atomic, main
from densewire.config import parse_design_config
from densewire.materials import default_catalog
from densewire.thermal import controller_budget


def _raise_disk_full(text):
    raise OSError(28, "disk full")


def _tree(out: Path) -> dict:
    """Each entry of `out`: its inode and, for a file, its bytes.  A rename
    onto a name changes its inode even when the bytes are the same."""
    if not out.exists():
        return {}
    return {p.name: (p.stat().st_ino, p.is_file() and p.read_bytes()) for p in out.iterdir()}


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    return main(["--out", str(out), *args]), out


@pytest.fixture()
def config_file(tmp_path):
    text = resources.files("densewire").joinpath("data/default_config.json").read_text("utf-8")
    path = tmp_path / "design.json"
    path.write_text(text)
    return path


class TestSubcommands:
    def test_scale_prints_counts(self, tmp_path, capsys):
        code, out = run_cli(["scale"], tmp_path)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "160000" in stdout
        doc = json.loads((out / "scale.json").read_text())
        assert doc["analysis"]["vertical"]["n_qubits"] == 160000
        assert doc["analysis"]["lateral"]["limiting_factor"] == "wire_count"

    def test_impedance(self, tmp_path, capsys):
        code, out = run_cli(["impedance"], tmp_path)
        assert code == 0
        doc = json.loads((out / "impedance.json").read_text())
        assert doc["analysis"]["coax"]["z_ohm"] == pytest.approx(14.03, abs=0.01)
        assert "Z=14.04 ohm" in capsys.readouterr().out

    def test_rf_artifacts(self, tmp_path):
        code, out = run_cli(["rf"], tmp_path)
        assert code == 0
        assert (out / "rf_response.csv").exists()
        s2p = (out / "rf.s2p").read_text()
        assert s2p.startswith("# Hz S RI R 50")
        doc = json.loads((out / "rf.json").read_text())
        assert 0 < doc["analysis"]["worst_s11"] <= 1
        assert doc["analysis"]["passivity_residual"] < 1e-12  # lossless built-in path

    def test_layout_formats(self, tmp_path, capsys):
        code, out = run_cli(["layout", "--format", "both"], tmp_path)
        assert code == 0
        assert (out / "layout.svg").exists()
        layout = json.loads((out / "layout.json").read_text())
        assert layout["format"] == 2
        assert len(layout["pads"]["x"]) == 400
        assert "holes" not in layout
        drc = json.loads((out / "drc.json").read_text())
        assert drc["analysis"]["passed"] is True
        assert "DRC clean" in capsys.readouterr().out

    def test_layout_reports_the_bonding_force(self, tmp_path, capsys):
        # 10-20 N/mm2 over each 200 um pad, pi * (100 um)^2, and over all 20 x 20 pads.
        code, out = run_cli(["layout"], tmp_path)
        assert code == 0
        bonding = json.loads((out / "drc.json").read_text())["analysis"]["bonding"]
        assert bonding["pressure_n_per_mm2"] == [10.0, 20.0]
        lo, hi = bonding["force_per_pad_n"]
        assert lo == pytest.approx(math.pi * 10e6 * (100e-6) ** 2, rel=1e-9)  # 0.31416 N
        assert hi == pytest.approx(2 * lo, rel=1e-12)
        assert bonding["force_array_n"] == [400 * lo, 400 * hi]
        assert bonding["force_array_n"] == pytest.approx([125.66, 251.33], abs=0.005)
        assert ("bonding: 0.314-0.628 N per pad, 126-251 N for 400 pads at 10-20 N/mm2\n"
                in capsys.readouterr().out)

    def test_layout_over_the_size_limit_prints_no_result(self, tmp_path, config_file, capsys):
        raw = json.loads(config_file.read_text())
        raw["layout"]["array_side_count"] = 10**6
        config_file.write_text(json.dumps(raw))
        code, out = run_cli(["--config", str(config_file), "layout"], tmp_path)
        captured = capsys.readouterr()
        assert code == 1
        assert "pad/hole sites" not in captured.out and "DRC clean" not in captured.out
        assert captured.err.startswith("error: layout.array_side_count: ")
        assert not out.exists()

    def test_budget(self, tmp_path, capsys):
        code, out = run_cli(["budget"], tmp_path)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "OVER BUDGET" in stdout  # illustrative via bundle overloads base stage
        rows = (out / "budget.csv").read_text().splitlines()
        assert rows[0].startswith("stage,")
        assert len(rows) == 7

    def test_sweep_outputs(self, tmp_path):
        code, out = run_cli(["sweep"], tmp_path)
        assert code == 0
        with open(out / "sweep_layout_hole_diameter.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 11
        zs = [float(r["coax_z_ohm"]) for r in rows]
        assert zs[0] == pytest.approx(24.0, abs=0.5)
        assert zs[-1] == pytest.approx(14.0, abs=0.5)
        assert all(a > b for a, b in zip(zs, zs[1:]))

    def test_sweep_limiting_factor_flips_once(self, tmp_path):
        code, out = run_cli(["sweep"], tmp_path, "flip")
        assert code == 0
        with open(out / "sweep_qubit_array_chip_side.csv") as f:
            rows = list(csv.DictReader(f))
        labels = [r["lateral_limiting"] for r in rows]
        flips = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
        assert flips == 1
        assert labels[0] == "qubit_size" and labels[-1] == "wire_count"

    def test_single_point_sweep_equals_direct_run(self, tmp_path, config_file):
        doc = json.loads(config_file.read_text())
        doc["sweeps"] = [{"parameter": "layout.hole_diameter", "start": "300um",
                          "stop": "300um", "steps": 1}]
        config_file.write_text(json.dumps(doc))
        out = tmp_path / "o"
        for command in ("sweep", "impedance", "scale"):
            assert main(["--config", str(config_file), "--out", str(out), command]) == 0
        with open(out / "sweep_layout_hole_diameter.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 1
        impedance = json.loads((out / "impedance.json").read_text())["analysis"]
        scale = json.loads((out / "scale.json").read_text())["analysis"]
        coax, cpw, lateral, vertical = (impedance["coax"], impedance["cpw"],
                                        scale["lateral"], scale["vertical"])
        direct = {
            "pin_outer_m": impedance["pin_outer_diameter_m"],
            "coax_inner_m": coax["inner_diameter_m"],
            "coax_outer_m": coax["outer_diameter_m"],
            "coax_eps_r": coax["eps_r"],
            "coax_z_ohm": coax["z_ohm"],
            "cpw_z_ohm": cpw["z_ohm"],
            "cpw_eps_eff": cpw["eps_eff"],
            "lateral_n_qubits": lateral["n_qubits"],
            "lateral_n_wires": lateral["n_wires"],
            "lateral_limiting": lateral["limiting_factor"],
            "lateral_crossover_m": lateral["crossover_length_m"],
            "vertical_n_qubits": vertical["n_qubits"],
            "vertical_n_wires": vertical["n_wires"],
            "vertical_limiting": vertical["limiting_factor"],
        }
        cfg = parse_design_config(doc, default_catalog())
        stage, count, tech = cfg.thermal.controllers[0]
        budget = controller_budget(count, tech, cfg.stages.stage(stage))
        direct.update(controller_total_w=budget.total, controller_margin=budget.margin)
        # Sweep CSV cells carry floats at 12 significant digits, counts and
        # labels as they are.
        for column, value in direct.items():
            cell = f"{value:.12g}" if isinstance(value, float) else str(value)
            assert rows[0][column] == cell, column
        assert list(rows[0])[2:] == list(direct)

    def test_paper_check_rows(self, tmp_path, capsys):
        code, out = run_cli(["paper-check"], tmp_path)
        stdout = capsys.readouterr().out
        doc = json.loads((out / "paper_check.json").read_text())
        failing = [r["id"] for r in doc["analysis"]["rows"] if not r["passed"]]
        # The published 0.40 mm / 50 ohm pairing is internally rounded
        # (0.40 mm at eps_r=3 is a 48 ohm line), so this row cannot land
        # inside its 5% gate; everything else must pass.
        assert failing == ["coax-inverse-50ohm"]
        assert code == 2
        assert "PASS coax-z-24" in stdout
        assert stdout.endswith("\n33/34 golden values reproduced\n")

    @pytest.mark.parametrize("command, report", [
        ("scale", "scale.json"), ("impedance", "impedance.json"), ("rf", "rf.json"),
        ("layout", "drc.json"), ("budget", "budget.json"), ("paper-check", "paper_check.json")])
    def test_report_header(self, tmp_path, command, report):
        _, out = run_cli([command], tmp_path)
        doc = json.loads((out / report).read_text())
        assert sorted(doc) == ["analysis", "config_sha256", "tool", "version"]


class TestErrors:
    @pytest.mark.parametrize("overhead", ["0", "-3"])
    def test_logical_overhead_below_1_is_a_usage_error(self, tmp_path, capsys, overhead):
        with pytest.raises(SystemExit) as exc:
            run_cli(["scale", "--logical-overhead", overhead], tmp_path)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --logical-overhead: must be >= 1" in err
        assert "Traceback" not in err

    def test_invalid_config_exits_1(self, tmp_path, config_file, capsys):
        doc = json.loads(config_file.read_text())
        doc["layout"]["qubit_pitch"] = "oops"
        config_file.write_text(json.dumps(doc))
        code = main(["--config", str(config_file), "--out", str(tmp_path / "o"), "scale"])
        assert code == 1
        assert "layout.qubit_pitch" in capsys.readouterr().err

    @pytest.mark.parametrize("encode", [
        lambda text: b"{nope", lambda text: b"\xff" + text.encode(),
        lambda text: text.encode("utf-16")], ids=["malformed", "not-utf8", "utf16"])
    def test_unreadable_config_exits_1_naming_the_path(self, tmp_path, config_file, capsys,
                                                        encode):
        config_file.write_bytes(encode(config_file.read_text()))
        code = main(["--config", str(config_file), "--out", str(tmp_path / "o"), "scale"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {config_file}: not valid JSON: ")

    def test_config_hash_and_parse_come_from_one_read(self, tmp_path, config_file,
                                                      monkeypatch):
        # The read returns other contents than the file holds: the report must
        # be that of the contents read, as must its config_sha256.
        doc = json.loads(config_file.read_text())
        doc["qubit_array"]["qubit_pitch"] = "1mm"
        config_file.write_text(json.dumps(doc))
        built_in = resources.files("densewire").joinpath("data/default_config.json").read_bytes()
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes",
                            lambda path: built_in if path == config_file else read_bytes(path))
        assert main(["--config", str(config_file), "--out", str(tmp_path / "o"), "scale"]) == 0
        monkeypatch.undo()
        assert main(["--out", str(tmp_path / "built-in"), "scale"]) == 0
        assert ((tmp_path / "o/scale.json").read_bytes()
                == (tmp_path / "built-in/scale.json").read_bytes())

    def test_empty_sweeps_exit_1(self, tmp_path, config_file, capsys):
        doc = json.loads(config_file.read_text())
        doc["sweeps"] = []
        config_file.write_text(json.dumps(doc))
        code = main(["--config", str(config_file), "--out", str(tmp_path / "o"), "sweep"])
        assert code == 1
        assert "sweeps" in capsys.readouterr().err

    def test_pitch_violation_exits_2(self, tmp_path, config_file, capsys):
        doc = json.loads(config_file.read_text())
        doc["wiring"][1]["wire_pitch"] = "600um"
        config_file.write_text(json.dumps(doc))
        code = main(["--config", str(config_file), "--out", str(tmp_path / "o"), "scale"])
        assert code == 2
        assert "pitch" in capsys.readouterr().err.lower()

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "layout.json").mkdir(parents=True)  # the rename onto it fails
        code = main(["--out", str(out), "layout"])
        assert code == 2
        assert "layout.json" in capsys.readouterr().err
        assert list(out.glob("*.tmp")) == []
        assert not (out / "layout.svg").exists() and not (out / "drc.json").exists()

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over-an-earlier-run"])
    def test_failed_rf_write_writes_neither_file(self, tmp_path, config_file, monkeypatch,
                                                 capsys, earlier):
        out = tmp_path / "o"
        if earlier:
            assert main(["--out", str(out), "rf"]) == 0
        before = {p.name: p.read_bytes() for p in out.glob("*")}
        raw = json.loads(config_file.read_text())
        raw["rf"]["points"] = 3 * 2048 + 5  # new texts, over several blocks
        config_file.write_text(json.dumps(raw))
        real_open = open

        def failing_open(path, *args, **kwargs):
            f = real_open(path, *args, **kwargs)
            if Path(path).name == "rf.s2p.tmp":
                f.write = _raise_disk_full
            return f

        monkeypatch.setattr("densewire.cli.open", failing_open, raising=False)
        code = main(["--config", str(config_file), "--out", str(out), "rf"])
        assert code == 2
        assert "disk full" in capsys.readouterr().err
        assert list(out.glob("*.tmp")) == []
        assert {p.name: p.read_bytes() for p in out.glob("*")} == before
        if not earlier:
            assert not (out / "rf_response.csv").exists() and not (out / "rf.s2p").exists()

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over-an-earlier-run"])
    def test_directory_in_the_way_renames_nothing(self, tmp_path, capsys, earlier):
        out = tmp_path / "o"
        if earlier:
            assert main(["--out", str(out), "rf"]) == 0
            (out / "rf.s2p").unlink()
        (out / "rf.s2p").mkdir(parents=True)
        before = _tree(out)
        code = main(["--out", str(out), "rf"])
        assert code == 2
        assert "rf.s2p: is a directory" in capsys.readouterr().err
        assert _tree(out) == before  # no new rf_response.csv, rf.json or *.tmp

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over-an-earlier-run"])
    @pytest.mark.parametrize("command", ["layout", "budget", "sweep", "rf"])
    def test_failed_last_write_leaves_out_as_it_was(self, tmp_path, monkeypatch, capsys,
                                                   command, earlier):
        real = cli._write_atomic
        calls = []

        def counting(paths, parts):
            calls.append(paths)
            real(paths, parts)

        monkeypatch.setattr(cli, "_write_atomic", counting)
        assert main(["--out", str(tmp_path / "count"), command]) == 0
        last = len(calls)
        assert last >= 2  # the failing write comes after others have been staged
        out = tmp_path / "o"
        if earlier:
            assert main(["--out", str(out), command]) == 0
        before = _tree(out)
        calls.clear()

        def failing_last(paths, parts):
            calls.append(paths)
            if len(calls) == last:
                raise OSError(28, "disk full")
            real(paths, parts)

        monkeypatch.setattr(cli, "_write_atomic", failing_last)
        code = main(["--out", str(out), command])
        assert code == 2
        assert "disk full" in capsys.readouterr().err
        assert len(calls) == last
        assert _tree(out) == before
        assert out.exists() == earlier

    def test_failing_sweep_prints_no_path(self, tmp_path, config_file, capsys):
        raw = json.loads(config_file.read_text())
        raw["sweeps"][1]["start"] = "1e300mm"  # sweeps[0] runs and is staged first
        config_file.write_text(json.dumps(raw))
        code, out = run_cli(["--config", str(config_file), "sweep"], tmp_path)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: sweeps[1]: ")
        assert captured.out == "" and not out.exists()

    def test_failed_svg_allocation_writes_nothing(self, tmp_path, monkeypatch, capsys):
        real = cli.export_layout

        def export(layout, fmt, cfg):
            if fmt == "svg":
                raise MemoryError
            return real(layout, fmt, cfg)

        monkeypatch.setattr(cli, "export_layout", export)
        code, out = run_cli(["layout"], tmp_path)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: layout.array_side_count: ")
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "nope.json"), "--out",
                     str(tmp_path / "o"), "scale"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --config: cannot read ")

    # Each exited 2 with a bare "[Errno 2]" or "[Errno 21]", the code of an
    # analysis error, though no analysis had run.
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("option", ["--config", "--materials"])
    def test_unreadable_input_path_exits_1_naming_the_option(self, tmp_path, capsys,
                                                              option, kind):
        path = tmp_path / "in.json"
        if kind == "directory":
            path.mkdir()
        code, out = run_cli([option, str(path), "scale"], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option}: cannot read {path}: "), err
        assert "Errno" not in err and not out.exists()


class TestParserReuse:
    """`main` builds its parser once per process; no call may leak into the next."""

    def test_option_value_does_not_persist(self, tmp_path, capsys):
        assert run_cli(["scale", "--logical-overhead", "5"], tmp_path, "a")[0] == 0
        code, out = run_cli(["scale"], tmp_path, "b")
        assert code == 0
        doc = json.loads((out / "scale.json").read_text())
        assert {r["logical_overhead"] for r in doc["analysis"].values()} == {2000}

    def test_format_choice_does_not_persist(self, tmp_path, capsys):
        assert run_cli(["layout", "--format", "svg"], tmp_path, "a")[0] == 0
        code, out = run_cli(["layout"], tmp_path, "b")
        assert code == 0
        assert (out / "layout.json").exists() and (out / "layout.svg").exists()

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["scale", "--bogus"], tmp_path, "a")
        assert exc.value.code == 2
        code, out = run_cli(["impedance"], tmp_path, "b")
        assert code == 0
        assert (out / "impedance.json").exists()


class TestWrite:
    def test_encoding_never_holds_the_whole_text(self, tmp_path, traced_peak):
        text = "0123456789abcdef\n" * 470_589  # 8 MB of ASCII
        _, peak = traced_peak(_write_atomic, [tmp_path / "big.txt"], [(text,)])
        assert peak < 3 * 2**20
        assert (tmp_path / "big.txt.tmp").read_text(encoding="utf-8") == text

    def test_multibyte_text_across_slices(self, tmp_path):
        text = "a\u20ac\U0001d11e\n" * 300_000  # 1.2M characters, 2.7 MB of UTF-8
        _write_atomic([tmp_path / "utf8.txt"], [(text,)])
        assert (tmp_path / "utf8.txt.tmp").read_bytes() == text.encode("utf-8")


class TestOverrides:
    def test_materials_flag(self, tmp_path, config_file, capsys):
        materials = {
            "materials": [
                {"name": n, "kind": "conductor"} for n in
                ("Al", "Nb", "In", "TiN", "Sn-Pb", "Nb-Ti", "SUS-304", "OFHC-Cu")
            ] + [
                {"name": n, "kind": "dielectric", "relative_permittivity": 9.0}
                for n in ("polyimide", "PTFE", "STYCAST-1266", "Si", "sapphire")
            ],
        }
        path = tmp_path / "mats.json"
        path.write_text(json.dumps(materials))
        code = main(["--materials", str(path), "--out", str(tmp_path / "o"), "impedance"])
        assert code == 0
        doc = json.loads((tmp_path / "o" / "impedance.json").read_text())
        assert doc["analysis"]["coax"]["eps_r"] == 9.0  # override took effect

    def test_extreme_conductivity_table_budget(self, tmp_path, config_file, capsys):
        # k from 1e-300 to 1e300 W/m/K over one octave: a finite budget, no traceback.
        catalog = json.loads(
            resources.files("densewire").joinpath("data/materials.json").read_text("utf-8"))
        nbti = next(m for m in catalog["materials"] if m["name"] == "Nb-Ti")
        nbti["thermal_conductivity_table"] = [[1, 1e-300], [2, 1e300]]
        materials = tmp_path / "mats.json"
        materials.write_text(json.dumps(catalog))
        config = json.loads(config_file.read_text())
        config["thermal"]["paths"][0].update(t_hot="2K", t_cold="1K")
        config_file.write_text(json.dumps(config))
        code = main(["--config", str(config_file), "--materials", str(materials),
                     "--out", str(tmp_path / "o"), "budget"])
        assert code == 0, capsys.readouterr().err
        doc = json.loads((tmp_path / "o" / "budget.json").read_text())
        row = next(r for r in doc["analysis"]["stages"] if r["stage"] == "10mK")
        n_plus_1 = 1.0 + (math.log(1e300) - math.log(1e-300)) / math.log(2.0)
        expected = 160000 * (314.159265e-12 / 300e-6) * 2e300 / n_plus_1
        assert row["conduction_w"] == pytest.approx(expected, rel=1e-12)

    def test_custom_config_runs(self, tmp_path, config_file):
        code = main(["--config", str(config_file), "--out", str(tmp_path / "o"), "scale"])
        assert code == 0

    def test_environment_does_not_choose_the_catalog(self, tmp_path, monkeypatch):
        # The catalog comes from --materials or is the built-in one: no
        # artifact records the environment, so the environment picks nothing.
        path = tmp_path / "mats.json"
        path.write_text('{"materials": []}')
        monkeypatch.setenv("DENSEWIRE_MATERIALS", str(path))
        code = main(["--out", str(tmp_path / "o"), "impedance"])
        assert code == 0


def test_module_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "densewire", "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "paper-check" in proc.stdout


def test_package_import_loads_no_submodule():
    # `import densewire` is the version string only; numpy comes with rfnet.
    code = ("import sys, densewire; print(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith('densewire.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs each command in one fresh interpreter and reports, after the import
# and after each command, whether numpy has been loaded.
_NUMPY_PROBE = r"""
import json, sys
from densewire.cli import main
loaded = {"import": "numpy" in sys.modules}
for command in sys.argv[2:]:
    main(["--out", sys.argv[1], command])
    loaded[command] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_only_rf_loads_numpy(tmp_path):
    commands = ["scale", "impedance", "layout", "budget", "sweep", "paper-check", "rf"]
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, str(tmp_path), *commands],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"import": False, **{c: c == "rf" for c in commands}}
