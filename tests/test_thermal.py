import math

import pytest

from densewire.errors import OutOfRange, UnknownMaterial
from densewire.materials import Material, MaterialCatalog, interpolate_conductivity
from densewire.thermal import (
    CRYO_CMOS_CONTROLLER,
    LORENZ_NUMBER,
    SFQ_CONTROLLER,
    TARGET_CONTROLLER,
    ConductionPath,
    Stage,
    StageModel,
    ThermalArchitecture,
    conduction_load,
    controller_budget,
    controller_tech,
    default_stage_model,
    stage_report,
    wiedemann_franz_load,
)
from oracles import simpson

STAGE_3K = Stage("3K", 3.0, 1.0)

# k from 1e-300 to 1e300 W/m/K between 1 K and 2 K: n + 1 = 1 + ln(1e600)/ln 2.
EXTREME_TABLE = ((1.0, 1e-300), (2.0, 1e300))
EXTREME_INTEGRAL = 2e300 / (1.0 + (math.log(1e300) - math.log(1e-300)) / math.log(2.0))

VIA_BUNDLE = ConductionPath(
    material="Nb-Ti",
    cross_section_area=math.pi * (10e-6) ** 2,  # 20 um diameter via
    length=300e-6,
    t_hot=3.0,
    t_cold=0.01,
    count=160000,
)


class TestControllerBudget:
    def test_sfq_block(self):
        b = controller_budget(100_000, SFQ_CONTROLLER, STAGE_3K)
        assert b.total == pytest.approx(10e-3, rel=1e-12)
        assert b.feasible
        assert b.margin == pytest.approx(100.0, rel=1e-9)

    def test_cryo_cmos_is_marginal(self):
        b = controller_budget(100_000, CRYO_CMOS_CONTROLLER, STAGE_3K)
        assert b.total == pytest.approx(1.0, rel=1e-12)
        assert b.feasible
        assert b.margin == pytest.approx(1.0, rel=1e-9)

    def test_target_block(self):
        b = controller_budget(100_000, TARGET_CONTROLLER, STAGE_3K)
        assert b.total == pytest.approx(100e-6, rel=1e-12)
        assert b.feasible

    def test_infeasible_block(self):
        b = controller_budget(200_000, CRYO_CMOS_CONTROLLER, STAGE_3K)
        assert not b.feasible
        assert b.margin == pytest.approx(0.5, rel=1e-9)

    def test_more_cooling_never_hurts(self):
        for power in (0.5, 1.0, 2.0, 10.0):
            weaker = controller_budget(100_000, SFQ_CONTROLLER, Stage("s", 3.0, power))
            stronger = controller_budget(100_000, SFQ_CONTROLLER, Stage("s", 3.0, power * 2))
            assert stronger.feasible or not weaker.feasible
            assert stronger.margin > weaker.margin

    def test_named_techs(self):
        assert controller_tech("SFQ").power_per_qubit == pytest.approx(100e-9)
        assert controller_tech("custom", 5e-9).power_per_qubit == 5e-9
        with pytest.raises(ValueError):
            controller_tech("nonsense")


class TestConductionLoad:
    def test_zero_gradient_is_exactly_zero(self, catalog):
        path = ConductionPath("SUS-304", 1e-6, 0.1, 4.0, 4.0)
        assert conduction_load(path, catalog) == 0.0

    def test_linear_in_count_and_inverse_in_length(self, catalog):
        base = ConductionPath("SUS-304", 1e-6, 0.1, 77.0, 4.0)
        double = ConductionPath("SUS-304", 1e-6, 0.1, 77.0, 4.0, count=2)
        longer = ConductionPath("SUS-304", 1e-6, 0.2, 77.0, 4.0)
        q = conduction_load(base, catalog)
        assert conduction_load(double, catalog) == pytest.approx(2 * q, rel=1e-12)
        assert conduction_load(longer, catalog) == pytest.approx(q / 2, rel=1e-12)

    def test_monotone_in_hot_temperature(self, catalog):
        qs = [conduction_load(ConductionPath("SUS-304", 1e-6, 0.1, th, 4.0), catalog)
              for th in (10.0, 50.0, 150.0, 300.0)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize("material,t_cold,t_hot", [
        ("SUS-304", 4.0, 300.0),
        ("Nb-Ti", 0.1, 3.0),
        ("OFHC-Cu", 4.0, 77.0),
    ])
    def test_matches_simpson_oracle(self, catalog, material, t_cold, t_hot):
        m = catalog.lookup(material)
        path = ConductionPath(material, 1e-6, 0.1, t_hot, t_cold)
        oracle = (path.cross_section_area / path.length) * simpson(
            lambda t: interpolate_conductivity(m, t), t_cold, t_hot, 20001)
        assert conduction_load(path, catalog) == pytest.approx(oracle, rel=5e-3)

    def test_via_bundle_magnitude(self, catalog):
        # The published full-array via estimate is a few tens of milliwatts;
        # the illustrative geometry must land in the same decade.
        q = conduction_load(VIA_BUNDLE, catalog)
        assert 1e-2 < q < 1e-1
        oracle = 160000 * (VIA_BUNDLE.cross_section_area / VIA_BUNDLE.length) * simpson(
            lambda t: interpolate_conductivity(catalog.lookup("Nb-Ti"), t), 0.01, 3.0, 20001)
        assert q == pytest.approx(oracle, rel=5e-3)

    @pytest.mark.parametrize("material", ["Nb-Ti", "SUS-304", "OFHC-Cu", "polyimide"])
    @pytest.mark.parametrize("t_hot,t_cold", [
        (300.0, 50.0), (50.0, 3.0), (3.0, 0.7), (0.7, 0.1), (0.1, 0.01), (0.45, 0.25),
    ])
    def test_exact_per_segment(self, catalog, material, t_hot, t_cold):
        # Simpson per table segment: each segment is a smooth power law, so
        # 2001 points reach float precision; (0.45, 0.25) lies inside one.
        m = catalog.lookup(material)
        cuts = ([t_cold] + [t for t, _ in m.thermal_conductivity_table if t_cold < t < t_hot]
                + [t_hot])
        oracle = sum(simpson(lambda t: interpolate_conductivity(m, t), a, b, 2001)
                     for a, b in zip(cuts, cuts[1:]))
        path = ConductionPath(material, 1.0, 1.0, t_hot, t_cold)
        assert conduction_load(path, catalog) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("t_cold,t_hot", [(0.01, 100.0), (0.02, 0.7), (0.3, 0.5), (1.0, 3.0)])
    def test_inverse_temperature_law_is_logarithmic(self, t_cold, t_hot):
        # k = 5/T is the power-law exponent n = -1: the integral is 5 ln(b/a).
        table = ((0.01, 500.0), (1.0, 5.0), (100.0, 0.05))
        cat = MaterialCatalog({"inv": Material("inv", "conductor", thermal_conductivity_table=table)})
        q = conduction_load(ConductionPath("inv", 1.0, 1.0, t_hot, t_cold), cat)
        assert q == pytest.approx(5.0 * math.log(t_hot / t_cold), rel=2e-15, abs=0)

    def test_extreme_table_is_finite(self):
        # k rises 600 decades over one octave; T^(n+1) would overflow.
        cat = MaterialCatalog({"steep": Material(
            "steep", "conductor", thermal_conductivity_table=EXTREME_TABLE)})
        q = conduction_load(ConductionPath("steep", 1.0, 1.0, 2.0, 1.0), cat)
        assert q == pytest.approx(EXTREME_INTEGRAL, rel=1e-12)

    def test_out_of_range(self, catalog):
        with pytest.raises(OutOfRange):
            conduction_load(ConductionPath("SUS-304", 1e-6, 0.1, 400.0, 4.0), catalog)
        with pytest.raises(OutOfRange):
            conduction_load(ConductionPath("PTFE", 1e-6, 0.1, 3.0, 0.1), catalog)

    def test_unknown_material(self, catalog):
        with pytest.raises(UnknownMaterial):
            conduction_load(ConductionPath("unobtainium", 1e-6, 0.1, 3.0, 0.1), catalog)

    def test_shielding_scale(self, catalog):
        shielded = ConductionPath("Nb-Ti", 1e-10, 3e-4, 3.0, 0.01, count=100, scale=0.5)
        open_path = ConductionPath("Nb-Ti", 1e-10, 3e-4, 3.0, 0.01, count=100)
        assert conduction_load(shielded, catalog) == pytest.approx(
            0.5 * conduction_load(open_path, catalog), rel=1e-12)


class TestWiedemannFranz:
    def test_closed_form(self):
        path = ConductionPath("Cu", 1e-6, 0.1, 4.0, 1.0, residual_resistivity=1.55e-10)
        expected = (1e-6 / 0.1) * LORENZ_NUMBER * (16.0 - 1.0) / (2 * 1.55e-10)
        assert wiedemann_franz_load(path) == pytest.approx(expected, rel=1e-12)

    def test_requires_resistivity(self):
        with pytest.raises(ValueError):
            wiedemann_franz_load(ConductionPath("Cu", 1e-6, 0.1, 4.0, 1.0))


class TestStageReport:
    def test_empty_architecture(self, catalog):
        report = stage_report(ThermalArchitecture(), default_stage_model(), catalog)
        assert all(r.total_watts == 0.0 and r.feasible for r in report.rows)

    def test_single_block_reproduces_budget(self, catalog):
        arch = ThermalArchitecture(controllers=(("3K", 100_000, SFQ_CONTROLLER),))
        report = stage_report(arch, default_stage_model(), catalog)
        row = report.row("3K")
        budget = controller_budget(100_000, SFQ_CONTROLLER, STAGE_3K)
        assert row.total_watts == pytest.approx(budget.total, rel=1e-12)
        assert row.margin == pytest.approx(budget.margin, rel=1e-12)
        assert row.feasible == budget.feasible

    def test_path_count_equivalence(self, catalog):
        one = ConductionPath("Nb-Ti", 1e-10, 3e-4, 3.0, 0.01, count=2)
        two = ConductionPath("Nb-Ti", 1e-10, 3e-4, 3.0, 0.01, count=1)
        a = stage_report(ThermalArchitecture(paths=(("10mK", one),)),
                         default_stage_model(), catalog)
        b = stage_report(ThermalArchitecture(paths=(("10mK", two), ("10mK", two))),
                         default_stage_model(), catalog)
        assert a.row("10mK").conduction_watts == pytest.approx(
            b.row("10mK").conduction_watts, rel=1e-12)

    def test_wiedemann_franz_flagged(self, catalog):
        # Al carries no k(T) table, so the report falls back and flags it.
        path = ConductionPath("Al", 1e-6, 0.1, 3.0, 0.7, residual_resistivity=1e-9)
        report = stage_report(ThermalArchitecture(paths=(("0.7K", path),)),
                              default_stage_model(), catalog)
        assert report.row("0.7K").methods == ("wiedemann-franz",)
        assert report.row("0.7K").conduction_watts == pytest.approx(
            wiedemann_franz_load(path), rel=1e-12)

    def test_csv_and_text_render(self, catalog):
        arch = ThermalArchitecture(controllers=(("3K", 100_000, SFQ_CONTROLLER),))
        report = stage_report(arch, default_stage_model(), catalog)
        csv = report.to_csv()
        assert csv.splitlines()[0].startswith("stage,")
        assert len(csv.splitlines()) == 7
        assert "OVER BUDGET" not in report.to_text()

    def test_stage_model_validation(self):
        with pytest.raises(ValueError):
            StageModel(stages=(Stage("a", 1.0, 1.0), Stage("b", 2.0, 1.0)))
        assert default_stage_model().stage("3K").cooling_power == 1.0
