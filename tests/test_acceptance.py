"""Acceptance suite: every shipped guarantee, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criterion 2's 50-ohm half checks a documented discrepancy in
the published design: the 0.40 mm footprint quoted "at 50 ohm" is a
47.99 ohm line at d = 100 um, eps_r = 3, so inverting the design at
exactly 50 ohm gives 0.424 mm, 6.0% from the published figure.  The
`coax-inverse-50ohm` golden row keeps its 5% gate and reports FAIL, and
the test asserts that honest verdict together with the computed diameter.
"""

import math

import numpy as np
import pytest

from densewire.cli import main
from densewire.golden import golden_rows
from densewire.layout import LayoutConfig, generate_layout, run_drc
from densewire.materials import default_catalog, interpolate_conductivity
from densewire.rfnet import (
    SeriesImpedance,
    UniformLine,
    cascade,
    to_s_parameters,
)
from densewire.scaling import (
    LATERAL,
    VERTICAL,
    BondWireGeometry,
    QubitArraySpec,
    WiringArchitecture,
    lateral_crossover_length,
    lateral_scaling_report,
    logical_qubit_estimate,
    required_pitch_for_full_chip,
    vertical_scaling_report,
    wire_pitch_from_bonds,
)
from densewire.thermal import (
    CRYO_CMOS_CONTROLLER,
    SFQ_CONTROLLER,
    TARGET_CONTROLLER,
    ConductionPath,
    Stage,
    conduction_load,
    controller_budget,
)
from densewire.tlines import (
    SPEED_OF_LIGHT,
    CoaxSpec,
    PinStack,
    coax_impedance,
    coax_outer_for_impedance,
    pin_outer_diameter,
)
from densewire.units import replace
from oracles import bisect, simpson



def ok(cid: str, message: str) -> None:
    print(f"ACCEPTANCE {cid} PASS: {message}")


NOMINAL_LAYOUT = LayoutConfig(
    qubit_pitch=500e-6, array_side_count=3, pad_diameter=200e-6, hole_diameter=300e-6,
    channel_width=300e-6, channel_depth=1e-3, pin_length=20e-3, pad_thickness=10e-6,
    tip_tolerance=2.5e-6, ground_curb_width=50e-6, solder_ball_diameter=50e-6)
NOMINAL_PIN = PinStack(178e-6, (("TiN", 1e-6), ("In", 10e-6)))


def test_c01_coax_impedance_pairings():
    z24 = coax_impedance(CoaxSpec(100e-6, 200e-6, 3.0))
    z14 = coax_impedance(CoaxSpec(200e-6, 300e-6, 3.0))
    assert abs(z24 - 24.0) <= 0.5
    assert abs(z14 - 14.0) <= 0.5
    ok("C1", f"coax impedances {z24:.3f} / {z14:.3f} ohm within 0.5 of 24 / 14")


def test_c02_inverse_design_25ohm():
    d25 = coax_outer_for_impedance(100e-6, 25.0, 3.0)
    assert abs(d25 - 0.20e-3) <= 0.05 * 0.20e-3
    ok("C2", f"25 ohm inverse design D={d25 * 1e3:.4f} mm within 5% of 0.20 mm")


def test_c02_inverse_design_50ohm():
    # The published 0.40 mm / 50 ohm pair is rounded; see the module docstring.
    d50 = coax_outer_for_impedance(100e-6, 50.0, 3.0)
    root = bisect(lambda d: coax_impedance(CoaxSpec(100e-6, d, 3.0)) - 50.0, 200e-6, 1e-3)
    assert d50 == pytest.approx(root, rel=1e-10)

    z_footprint = coax_impedance(CoaxSpec(100e-6, 0.40e-3, 3.0))
    assert abs(z_footprint - 48.0) <= 0.5

    row = next(r for r in golden_rows(default_catalog()) if r.id == "coax-inverse-50ohm")
    miss = abs(row.computed - row.expected) / row.expected
    assert row.computed == pytest.approx(d50, rel=1e-12)
    assert row.expected == 0.40e-3
    assert row.tolerance == "rel 0.05"
    assert abs(miss - 0.060) <= 0.0005
    assert row.passed is False
    ok("C2", f"50 ohm inverse design D={d50 * 1e3:.4f} mm; 0.40 mm footprint is "
             f"{z_footprint:.2f} ohm; golden row misses 0.40 mm by {miss:.1%} and reports FAIL")


def test_c03_pin_stack_diameters():
    small = pin_outer_diameter(PinStack(78e-6, (("TiN", 1e-6), ("In", 10e-6))))
    large = pin_outer_diameter(NOMINAL_PIN)
    assert small == pytest.approx(100e-6, rel=1e-12)
    assert large == pytest.approx(200e-6, rel=1e-12)
    ok("C3", "coated pin diameters 100 um / 200 um exact")


def test_c04_wire_bond_pitch():
    pitch = wire_pitch_from_bonds(BondWireGeometry(18e-6, 10e-6, 3, grounds_shared=True))
    assert pitch == pytest.approx(56e-6, rel=1e-12)
    ok("C4", "bond-wire line pitch 56 um exact")


def test_c05_lateral_crossover():
    ell = lateral_crossover_length(500e-6, 56e-6)
    assert abs(ell - 17.86e-3) <= 0.01e-3
    at_exact = lateral_scaling_report(QubitArraySpec(500e-6, ell),
                                      WiringArchitecture(LATERAL, 56e-6))
    assert 1225 <= at_exact.n_qubits <= 1296
    rounded = round(ell * 1e3) * 1e-3
    at_rounded = lateral_scaling_report(QubitArraySpec(500e-6, rounded),
                                        WiringArchitecture(LATERAL, 56e-6))
    assert at_rounded.n_qubits == 1296
    ok("C5", f"crossover {ell * 1e3:.3f} mm; N_q {at_exact.n_qubits} in [1225, 1296]; "
             "rounded-side count 1296")


def test_c06_vertical_full_wafer():
    rep = vertical_scaling_report(QubitArraySpec(500e-6, 200e-3),
                                  WiringArchitecture(VERTICAL, 400e-6))
    assert rep.n_qubits == 160000
    ok("C6", "vertical-access N_q = 160000 exact")


def test_c07_lateral_wire_count_full_wafer():
    # The exact count is 14285.714...; the floored report value is 14285 and
    # the usually quoted 14286 is round-to-nearest.  Golden comparisons to
    # quoted figures carry a 2% gate; all three relations are pinned here.
    rep = lateral_scaling_report(QubitArraySpec(500e-6, 200e-3),
                                 WiringArchitecture(LATERAL, 56e-6))
    assert rep.n_wires == 14285
    assert rep.n_wires == math.floor(rep.exact_n_wires)
    assert round(rep.exact_n_wires) == 14286
    assert abs(rep.exact_n_wires - 14286) <= 0.02 * 14286
    ok("C7", f"lateral N_w floor={rep.n_wires}, round={round(rep.exact_n_wires)}, "
             f"exact={rep.exact_n_wires:.3f} within 2% of 14286")


def test_c08_required_pitch_full_wafer():
    p = required_pitch_for_full_chip(200e-3, 56e-6)
    assert abs(p - 1.67e-3) <= 0.02 * 1.67e-3
    ok("C8", f"edge-limited qubit pitch {p * 1e3:.3f} mm within 2% of 1.67 mm")


def test_c09_resonator_spaced_array():
    rep = vertical_scaling_report(QubitArraySpec(3.5e-3, 200e-3),
                                  WiringArchitecture(VERTICAL, 400e-6))
    assert rep.n_qubits == 3265
    assert abs(rep.n_qubits - 3270) <= 0.002 * 3270
    ok("C9", "3.5 mm spacing gives N_q = 3265, within 0.2% of the quoted 3270")


def test_c10_logical_qubits():
    assert logical_qubit_estimate(160000, 2000) == 80
    ok("C10", "160000 physical / 2000 overhead = 80 logical exact")


def test_c11_controller_budgets():
    stage = Stage("3K", 3.0, 1.0)
    sfq = controller_budget(100_000, SFQ_CONTROLLER, stage)
    assert sfq.total == pytest.approx(10e-3, rel=1e-9)
    assert sfq.feasible and sfq.margin == pytest.approx(100.0, rel=1e-9)
    cmos = controller_budget(100_000, CRYO_CMOS_CONTROLLER, stage)
    assert cmos.total == pytest.approx(1.0, rel=1e-9)
    assert cmos.feasible and cmos.margin == pytest.approx(1.0, rel=1e-9)
    target = controller_budget(100_000, TARGET_CONTROLLER, stage)
    assert target.total == pytest.approx(100e-6, rel=1e-9)
    ok("C11", "controller budgets 10 mW (margin 100) / 1 W (margin 1) / 100 uW")


def test_c12_crossover_consistency_randomized():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        p_q = rng.uniform(50e-6, 5e-3)
        p_w = rng.uniform(5e-6, p_q)
        ell = lateral_crossover_length(p_q, p_w)
        nq = (ell / p_q) ** 2
        nw = 4.0 * ell / p_w
        worst = max(worst, abs(nq - nw) / nq)
    assert worst < 1e-12
    ok("C12", f"qubit/wire curves agree at the crossover; worst residual {worst:.2e}")


def test_c13_coax_round_trip_randomized():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        d = rng.uniform(10e-6, 1e-3)
        ratio = rng.uniform(1.001, 50.0)
        eps = rng.uniform(1.0, 12.0)
        z = coax_impedance(CoaxSpec(d, d * ratio, eps))
        back = coax_outer_for_impedance(d, z, eps)
        worst = max(worst, abs(back - d * ratio) / (d * ratio))
    assert worst < 1e-10
    ok("C13", f"coax impedance inverse round-trips; worst error {worst:.2e}")


def test_c14_rf_energy_conservation():
    rng = np.random.default_rng(14)
    freqs = np.linspace(0.0, 10e9, 101)
    worst_power, worst_det = 0.0, 0.0
    for _ in range(100):
        chain = []
        for _ in range(int(rng.integers(1, 6))):
            if int(rng.integers(0, 2)) == 0:
                chain.append(UniformLine(rng.uniform(5, 100), rng.uniform(1, 10),
                                         rng.uniform(0, 0.05)))
            else:
                chain.append(SeriesImpedance(0.0, rng.uniform(0, 5e-9)))
        net = cascade(chain, freqs, z_src=rng.uniform(10, 100), z_load=rng.uniform(10, 100))
        worst_det = max(worst_det, float(np.max(np.abs(net.A * net.D - net.B * net.C - 1.0))))
        resp = to_s_parameters(net)
        power = np.abs(resp.s11) ** 2 + np.abs(resp.s21) ** 2
        worst_power = max(worst_power, float(np.max(np.abs(power - 1.0))))
    assert worst_power < 1e-6
    assert worst_det < 1e-9
    ok("C14", f"lossless cascades conserve power (worst {worst_power:.2e}); "
              f"det(ABCD)=1 (worst {worst_det:.2e})")


def test_c15_quarter_wave_transformer():
    line = UniformLine(24.0, 3.0, 0.02)
    f_quarter = SPEED_OF_LIGHT / (4.0 * line.length * math.sqrt(line.eps_eff))
    resp = to_s_parameters(cascade([line], [f_quarter], z_src=50.0, z_load=50.0))
    s11 = abs(resp.s11[0])
    # Independent oracle: the transformer presents Z^2/Z_load at its input.
    zin = 24.0 ** 2 / 50.0
    oracle = abs((zin - 50.0) / (zin + 50.0))
    assert s11 == pytest.approx(oracle, abs=1e-9)
    assert abs(s11 - 0.626) <= 1e-3
    ok("C15", f"quarter-wave 24 ohm transformer |S11| = {s11:.6f} (oracle {oracle:.6f})")


def test_c16_drc_rules():
    clean = run_drc(generate_layout(NOMINAL_LAYOUT), NOMINAL_LAYOUT, NOMINAL_PIN)
    assert clean.errors == ()

    def mutated(**kwargs):
        cfg = replace(NOMINAL_LAYOUT, **kwargs)
        return run_drc(generate_layout(cfg), cfg, NOMINAL_PIN)

    triggers = {
        "R1": mutated(hole_diameter=600e-6, channel_width=600e-6),
        "R2": mutated(pad_diameter=100e-6),
        "R3": mutated(hole_diameter=150e-6),
        "R4": mutated(channel_width=100e-6, hole_diameter=100e-6),
        "R5": mutated(tip_tolerance=5e-6),
        "R6": mutated(pin_length=30e-3),
        "R7": mutated(solder_ball_diameter=80e-6),
    }
    for rule, report in sorted(triggers.items()):
        assert any(f.rule == rule for f in report.findings), rule
    ok("C16", "nominal layout passes DRC; rules R1-R7 each fire on a dedicated mutant")


def test_c17_conduction_integral_oracle():
    catalog = default_catalog()
    cases = [("SUS-304", 4.0, 300.0), ("Nb-Ti", 0.1, 3.0), ("OFHC-Cu", 4.0, 77.0)]
    for material, t_cold, t_hot in cases:
        m = catalog.lookup(material)
        path = ConductionPath(material, 1e-6, 0.1, t_hot, t_cold)
        got = conduction_load(path, catalog)
        oracle = (path.cross_section_area / path.length) * simpson(
            lambda t: interpolate_conductivity(m, t), t_cold, t_hot, 20001)
        assert got == pytest.approx(oracle, rel=5e-3), material
    flat = ConductionPath("SUS-304", 1e-6, 0.1, 77.0, 77.0)
    assert conduction_load(flat, catalog) == 0.0
    ok("C17", "conduction integral matches the fixed-step Simpson oracle within 0.5%; "
              "zero gradient gives exactly 0")


def test_c18_determinism_byte_identical(tmp_path):
    commands = [
        ["scale"], ["impedance"], ["rf"], ["layout", "--format", "both"],
        ["budget"], ["sweep"], ["paper-check"],
    ]
    expected_codes = {"paper-check": 2}  # known-failing golden row
    for cmd in commands:
        outs = []
        for run_dir in ("a", "b"):
            out = tmp_path / f"{cmd[0]}-{run_dir}"
            code = main(["--out", str(out), *cmd])
            assert code == expected_codes.get(cmd[0], 0), cmd
            outs.append(out)
        names_a = sorted(p.name for p in outs[0].iterdir())
        names_b = sorted(p.name for p in outs[1].iterdir())
        assert names_a == names_b and names_a, cmd
        for name in names_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (
                cmd, name)
    ok("C18", "all subcommands produce byte-identical artifacts on repeat runs")
