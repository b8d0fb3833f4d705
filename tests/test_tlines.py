import math

import numpy as np
import pytest

from densewire.errors import DegenerateGeometry
from densewire.tlines import (
    SPEED_OF_LIGHT,
    CoaxSpec,
    CpwSpec,
    PinStack,
    coax_impedance,
    coax_outer_for_impedance,
    complete_elliptic_k,
    cpw_effective_permittivity,
    cpw_impedance,
    line_propagation,
    pin_outer_diameter,
)
from oracles import elliptic_k_quadrature


class TestPinStack:
    def test_small_pin(self):
        p = PinStack(78e-6, (("TiN", 1e-6), ("In", 10e-6)))
        assert pin_outer_diameter(p) == pytest.approx(100e-6, rel=1e-12)

    def test_large_pin(self):
        p = PinStack(178e-6, (("TiN", 1e-6), ("In", 10e-6)))
        assert pin_outer_diameter(p) == pytest.approx(200e-6, rel=1e-12)

    def test_bare_core(self):
        assert pin_outer_diameter(PinStack(100e-6)) == pytest.approx(100e-6, rel=1e-12)

    def test_invalid_coating(self):
        with pytest.raises(ValueError):
            PinStack(100e-6, (("In", -1e-6),))


class TestCoax:
    def test_small_hole_pairing(self):
        z = coax_impedance(CoaxSpec(100e-6, 200e-6, 3.0))
        assert z == pytest.approx(23.99, abs=0.01)

    def test_large_hole_pairing(self):
        z = coax_impedance(CoaxSpec(200e-6, 300e-6, 3.0))
        assert z == pytest.approx(14.03, abs=0.01)

    def test_degenerate_limit(self):
        z = coax_impedance(CoaxSpec(100e-6, 100e-6 * (1 + 1e-12), 3.0))
        assert z == pytest.approx(0.0, abs=1e-9)

    def test_invalid_geometry(self):
        with pytest.raises(DegenerateGeometry):
            CoaxSpec(200e-6, 100e-6, 3.0)
        with pytest.raises(DegenerateGeometry):
            CoaxSpec(100e-6, 200e-6, 0.5)

    def test_inverse_examples(self):
        assert coax_outer_for_impedance(100e-6, 50.0, 3.0) == pytest.approx(424e-6, abs=1e-6)
        assert coax_outer_for_impedance(100e-6, 25.0, 3.0) == pytest.approx(206e-6, abs=1e-6)

    def test_inverse_zero_impedance(self):
        assert coax_outer_for_impedance(123e-6, 0.0, 3.0) == pytest.approx(123e-6, rel=1e-15)

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            d = rng.uniform(10e-6, 1e-3)
            ratio = rng.uniform(1.01, 30.0)
            eps = rng.uniform(1.0, 12.0)
            z = coax_impedance(CoaxSpec(d, d * ratio, eps))
            back = coax_outer_for_impedance(d, z, eps)
            assert abs(back - d * ratio) <= 1e-10 * d * ratio

    def test_monotonicity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            d = rng.uniform(10e-6, 500e-6)
            eps = rng.uniform(1.0, 10.0)
            r1, r2 = np.sort(rng.uniform(1.01, 20.0, size=2))
            if r1 == r2:
                continue
            assert coax_impedance(CoaxSpec(d, d * r1, eps)) < coax_impedance(
                CoaxSpec(d, d * r2, eps))
            assert coax_impedance(CoaxSpec(d, d * r2, eps + 1.0)) < coax_impedance(
                CoaxSpec(d, d * r2, eps))


class TestEllipticIntegral:
    def test_k_zero(self):
        assert complete_elliptic_k(0.0) == pytest.approx(math.pi / 2, rel=1e-12)

    def test_against_quadrature(self):
        for k in (0.1, 0.3, 0.45454545, 0.7, 0.9, 0.99):
            assert complete_elliptic_k(k) == pytest.approx(
                elliptic_k_quadrature(k), rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            complete_elliptic_k(1.0)


class TestCpw:
    def test_silicon_line_against_quadrature_oracle(self):
        # Conformal-mapping impedance recomputed with quadrature-based K.
        spec = CpwSpec(10e-6, 6e-6, 11.45)
        k = 10e-6 / (10e-6 + 12e-6)
        kp = math.sqrt(1 - k * k)
        eps_eff = (1 + 11.45) / 2
        oracle = 30 * math.pi / math.sqrt(eps_eff) * (
            elliptic_k_quadrature(kp) / elliptic_k_quadrature(k))
        assert cpw_impedance(spec) == pytest.approx(oracle, rel=1e-3)

    def test_vacuum_substrate(self):
        assert cpw_effective_permittivity(CpwSpec(10e-6, 6e-6, 1.0)) == pytest.approx(1.0)
        covered = CpwSpec(10e-6, 6e-6, 1.0, covered=True, cover_height=20e-6)
        assert cpw_effective_permittivity(covered) == pytest.approx(1.0, rel=1e-12)

    def test_impedance_grows_unbounded_with_gap(self):
        zs = [cpw_impedance(CpwSpec(10e-6, 6e-6 * 2 ** i, 11.45)) for i in range(8)]
        assert all(a < b for a, b in zip(zs, zs[1:]))
        assert zs[-1] > 150.0

    def test_impedance_decreases_with_permittivity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            w = rng.uniform(2e-6, 50e-6)
            s = rng.uniform(2e-6, 50e-6)
            e1, e2 = np.sort(rng.uniform(1.0, 12.0, size=2))
            if e1 == e2:
                continue
            assert cpw_impedance(CpwSpec(w, s, e2)) < cpw_impedance(CpwSpec(w, s, e1))

    def test_cover_far_away_matches_uncovered(self):
        open_spec = CpwSpec(10e-6, 6e-6, 11.45)
        far = CpwSpec(10e-6, 6e-6, 11.45, covered=True, cover_height=1.0)
        assert cpw_impedance(far) == pytest.approx(cpw_impedance(open_spec), rel=1e-6)

    def test_lowering_cover_lowers_impedance(self):
        heights = [100e-6, 30e-6, 10e-6, 3e-6]
        zs = [cpw_impedance(CpwSpec(10e-6, 6e-6, 11.45, covered=True, cover_height=h))
              for h in heights]
        assert all(a > b for a, b in zip(zs, zs[1:]))

    def test_invalid_specs(self):
        with pytest.raises(DegenerateGeometry):
            CpwSpec(0.0, 6e-6, 11.45)
        with pytest.raises(DegenerateGeometry):
            CpwSpec(10e-6, 6e-6, 11.45, covered=True)


class TestPropagation:
    def test_wavelength_at_band_top(self):
        v, lam = line_propagation(3.0, 10e9)
        assert lam == pytest.approx(SPEED_OF_LIGHT / math.sqrt(3.0) / 10e9, rel=1e-12)
        assert lam == pytest.approx(17.31e-3, abs=0.01e-3)

    def test_vacuum_velocity(self):
        v, _ = line_propagation(1.0, 5e9)
        assert v == SPEED_OF_LIGHT

    def test_dc_has_no_wavelength(self):
        v, lam = line_propagation(3.0, 0.0)
        assert lam is None
        assert v == pytest.approx(SPEED_OF_LIGHT / math.sqrt(3.0), rel=1e-12)
