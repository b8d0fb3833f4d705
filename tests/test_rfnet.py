import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from densewire import rfnet
from densewire.rfnet import (
    _BLOCK,
    _PASS,
    FrequencyResponse,
    RfSettings,
    SeriesImpedance,
    TwoPortNetwork,
    UniformLine,
    build_signal_path,
    cascade,
    mismatch_report,
    response_csv,
    response_texts,
    to_s_parameters,
    touchstone,
)
from densewire.tlines import SPEED_OF_LIGHT
from densewire.units import replace
from oracles import (
    brute_force_cascade,
    line_two_step_s11,
    line_two_step_s21,
    unshared_cascade,
)


def assert_no_child():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counting_forks(monkeypatch) -> list:
    """The pids `os.fork` returns from now on, in this process."""
    real, pids = os.fork, []

    def fork():
        pid = real()
        pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", fork)
    return pids


# The pin and the feed of every reported path sit in an eps_r = 3 fill.
EPS = {"pin_eps_eff": 3.0, "feed_eps_eff": 3.0}


def lossy_chain() -> list:
    """The 16-segment stress path with a series R > 0 first and one in the middle."""
    rf = RfSettings(points=2 * _PASS + 3, feed_length=0.03, taper_length=0.01,
                    taper_segments=16, bond_inductance=45e-12)
    chain = build_signal_path(rf, 0.02, 14.0, **EPS)
    chain.insert(len(chain) // 2, SeriesImpedance(0.5, 20e-12))
    chain.insert(0, SeriesImpedance(2.0, 0.0))
    return chain


def quarter_wave_frequency(line: UniformLine) -> float:
    return SPEED_OF_LIGHT / (4.0 * line.length * math.sqrt(line.eps_eff))


def abcd(element, frequency: float) -> np.ndarray:
    """2x2 ABCD matrix of one element at one frequency, through the public cascade."""
    net = cascade([element], [frequency])
    return matrix(net, 0)


def matrix(net: TwoPortNetwork, i: int) -> np.ndarray:
    return np.array([[net.A[i], net.B[i]], [net.C[i], net.D[i]]])


def random_element(rng, kind: int):
    if kind == 0:
        return UniformLine(rng.uniform(5, 100), rng.uniform(1, 10), rng.uniform(0, 0.05))
    return SeriesImpedance(rng.uniform(0, 5), rng.uniform(0, 5e-9))


def random_lossless_element(rng, seen: set):
    """A line or a series L; a quarter of them is a zero one (a length of
    0.0 or -0.0, L = 0), named in `seen`."""
    kind, zero = int(rng.integers(0, 2)), rng.random() < 0.25
    if kind == 0:
        length = float(rng.choice([0.0, -0.0])) if zero else rng.uniform(0, 0.05)
        if zero:
            seen.add(f"length {length}")
        return UniformLine(rng.uniform(5, 100), rng.uniform(1, 10), length)
    if zero:
        seen.add("L = 0")
    return SeriesImpedance(0.0, 0.0 if zero else rng.uniform(0, 5e-9))


class TestElementMatrices:
    def test_line_at_dc_is_identity(self):
        m = abcd(UniformLine(24.0, 3.0, 0.02), 0.0)
        assert np.allclose(m, np.eye(2), atol=1e-15)

    def test_quarter_wave_closed_form(self):
        line = UniformLine(24.0, 3.0, 0.02)
        m = abcd(line, quarter_wave_frequency(line))
        expected = np.array([[0.0, 24.0j], [1j / 24.0, 0.0]])
        assert np.allclose(m, expected, atol=1e-12)

    def test_series_resistor(self):
        m = abcd(SeriesImpedance(1.0), 5e9)
        assert np.allclose(m, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


class TestCascade:
    def test_single_element_is_its_matrix(self):
        f = np.array([1e9, 5e9])
        for element in (UniformLine(24.0, 3.0, 0.02), SeriesImpedance(1.0, 1e-9)):
            net = cascade([element], f)
            for i, freq in enumerate(f):
                assert np.array_equal(matrix(net, i), abcd(element, freq))

    def test_two_quarter_waves_make_a_half_wave(self):
        line = UniformLine(24.0, 3.0, 0.02)
        fq = quarter_wave_frequency(line)
        net = cascade([line, line], [fq])
        assert np.allclose(matrix(net, 0), -np.eye(2), atol=1e-9)

    @staticmethod
    def assert_matches_brute_force(chain, freqs):
        net = cascade(chain, freqs)
        for k, f in enumerate(freqs):
            oracle = brute_force_cascade([abcd(e, f).tolist() for e in chain])
            got = matrix(net, k)
            for i in range(2):
                for j in range(2):
                    assert abs(got[i, j] - oracle[i][j]) <= 1e-12 * max(1.0, abs(oracle[i][j]))

    def test_three_segment_chain_matches_brute_force(self):
        chain = [UniformLine(24.0, 3.0, 0.004), UniformLine(14.0, 3.0, 0.006),
                 UniformLine(24.0, 3.0, 0.004)]
        self.assert_matches_brute_force(chain, [5e9])

    def test_mixed_chains_match_brute_force(self):
        # Chains of every element kind, up to the 67 elements of the stress path.
        rng = np.random.default_rng(11)
        freqs = [0.0, 1e8, 1.3e9, 5e9, 10e9]
        kinds_seen = set()
        for n in (1, 2, 4, 8, 16, 33, 67, 67):
            kinds = rng.integers(0, 2, n)
            kinds_seen.update(kinds.tolist())
            self.assert_matches_brute_force([random_element(rng, k) for k in kinds], freqs)
        assert kinds_seen == {0, 1}

    @staticmethod
    def assert_equals_unshared(chain):
        freqs = np.linspace(0.0, 10e9, 257)
        net = cascade(chain, freqs)
        for got, want in zip((net.A, net.B, net.C, net.D), unshared_cascade(chain, freqs)):
            assert got.tobytes() == want.tobytes()
        TestCascade.assert_matches_brute_force(chain, freqs[::32].tolist())

    def test_shared_phases_are_exact(self):
        # Three kinds of pairs: same (eps_eff, length) with another z0; same
        # length with another eps_eff; same eps_eff with another length.
        self.assert_equals_unshared([
            UniformLine(24.0, 3.0, 0.004), UniformLine(14.0, 3.0, 0.004),
            SeriesImpedance(0.5, 1e-10), UniformLine(30.0, 2.5, 0.004),
            UniformLine(30.0, 2.5, 0.007), UniformLine(24.0, 3.0, 0.004)])

    def test_signed_zero_lengths_do_not_share(self):
        # -0.0 == 0.0, but the sign of B's zero real part shows which sine was used.
        self.assert_equals_unshared([UniformLine(50.0, 3.0, -0.0), UniformLine(60.0, 3.0, 0.0)])

    @pytest.mark.parametrize("lossy_at", [None, "first", "middle", "last"])
    def test_lossless_runs_equal_the_complex_product(self, lossy_at):
        rng = np.random.default_rng(15)
        seen = set()
        for trial in range(150):
            chain = [random_lossless_element(rng, seen) for _ in range(rng.integers(2, 9))]
            if lossy_at is not None:
                at = {"first": 0, "middle": int(rng.integers(1, len(chain))),
                      "last": len(chain)}[lossy_at]
                chain.insert(at, SeriesImpedance(rng.uniform(0.1, 5), rng.uniform(0, 5e-9)))
            freqs = np.linspace((0.0, 1e9)[trial % 2], 10e9, 33)
            z_load = 50.0 if trial % 4 < 2 else rng.uniform(10, 100)
            self.assert_equals_complex_product(chain, freqs, z_load)
        assert seen == {"length 0.0", "length -0.0", "L = 0"}

    @pytest.mark.parametrize("resistance", [0.0, 0.5])
    def test_frequency_passes_join_exactly(self, resistance):
        # The 67-element stress path over a grid of two passes and a part.
        rf = RfSettings(points=2 * _PASS + 3, feed_length=0.03, taper_length=0.01,
                        taper_segments=64, bond_resistance=resistance, bond_inductance=45e-12)
        chain = build_signal_path(rf, 0.02, 14.0, **EPS)
        self.assert_equals_complex_product(chain, np.linspace(*rf.band, rf.points), 50.0)

    @staticmethod
    def assert_equals_complex_product(chain, freqs, z_load):
        """S-parameters equal to the all-complex product's bit for bit, and
        A, B, C and D in value: the signs of their zero parts may differ."""
        net = cascade(chain, freqs, z_src=50.0, z_load=z_load)
        want = TwoPortNetwork(freqs, *unshared_cascade(chain, freqs), z_src=50.0, z_load=z_load)
        for got, exp in zip((net.A, net.B, net.C, net.D), (want.A, want.B, want.C, want.D)):
            assert np.array_equal(got, exp)
        got, exp = to_s_parameters(net), to_s_parameters(want)
        for name in ("s11", "s21", "s22"):
            assert getattr(got, name).tobytes() == getattr(exp, name).tobytes()

    def test_lossy_elements_across_passes(self):
        # A series R > 0 first and one in the middle, over two passes and a part.
        n = 2 * _PASS + 3
        self.assert_equals_complex_product(lossy_chain(), np.linspace(0.0, 10e9, n), 50.0)

    def test_frequencies_must_increase(self):
        with pytest.raises(ValueError):
            cascade([SeriesImpedance(1.0)], [1e9, 1e9])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("grid", [[None], [None, 1e9], [1e9, None, 2e9]],
                             ids=["alone", "first", "middle"])
    def test_frequencies_must_be_finite(self, monkeypatch, grid, bad):
        freqs = [bad if f is None else f for f in grid]
        with pytest.raises(ValueError, match="finite"):
            TwoPortNetwork(np.array(freqs), *np.zeros((4, len(freqs)), dtype=complex))

        def no_product(*args):
            raise AssertionError("the grid is checked before the first product")
        monkeypatch.setattr(rfnet, "_abcd", no_product)
        monkeypatch.setattr(rfnet, "_product", no_product)
        with pytest.raises(ValueError, match="finite"):
            cascade([UniformLine(50.0, 3.0, 0.01)], freqs)

    @pytest.mark.parametrize("at", [0, 2])
    def test_non_element_is_a_type_error(self, at):
        chain = [UniformLine(50.0, 3.0, 0.01), SeriesImpedance(0.5, 1e-9)]
        chain.insert(at, (1.0, 0.0, 0.0, 1.0))
        with pytest.raises(TypeError, match="not a network element"):
            cascade(chain, [1e9, 2e9])
        with pytest.raises(TypeError, match="not a network element"):  # the oracle agrees
            unshared_cascade(chain, np.array([1e9, 2e9]))


class TestForkedCascade:
    """Over more than one pass, a forked child multiplies the later passes."""

    STRESS = build_signal_path(RfSettings(feed_length=0.03, taper_length=0.01, taper_segments=64,
                                          bond_inductance=45e-12), 0.02, 14.0, **EPS)

    @pytest.mark.parametrize("n", [2 * _PASS, 2 * _PASS + 3, 100_000])
    @pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
    def test_the_split_equals_the_serial_cascade(self, monkeypatch, n, lossy):
        # A, B, C and D as bytes, so the signs of their zeros must match too.
        chain, freqs = (lossy_chain() if lossy else self.STRESS), np.linspace(0.0, 10e9, n)
        forks = counting_forks(monkeypatch)
        forked = cascade(chain, freqs, z_load=75.0)
        assert len(forks) == 1
        assert_no_child()
        monkeypatch.delattr(os, "fork")
        serial = cascade(chain, freqs, z_load=75.0)
        for name in "ABCD":
            assert getattr(forked, name).tobytes() == getattr(serial, name).tobytes()

    @pytest.mark.parametrize("n, passes", [(2 * _PASS, 1), (2 * _PASS + 3, 1), (100_000, 6)])
    def test_the_parent_multiplies_the_earlier_passes(self, monkeypatch, n, passes):
        # The split falls on a pass boundary, so every point keeps its place in its pass.
        parent, real, grids = os.getpid(), rfnet._multiply, []

        def multiply(elements, f, out):
            if os.getpid() == parent:
                grids.append(f.size)
            real(elements, f, out)

        monkeypatch.setattr(rfnet, "_multiply", multiply)
        cascade(self.STRESS, np.linspace(0.0, 10e9, n))
        assert grids == [passes * _PASS]

    @pytest.mark.parametrize("error, raised, message", [
        (ValueError, OSError, "the child multiplying the RF cascade failed with status 1"),
        (MemoryError, MemoryError, "the child multiplying the RF cascade ran out of memory"),
    ], ids=["other", "memory"])
    def test_a_failed_child_is_raised_here(self, monkeypatch, error, raised, message):
        parent, real = os.getpid(), rfnet._abcd

        def failing_in_the_child(e, f, phases):
            if os.getpid() != parent:
                raise error("no pass")
            return real(e, f, phases)

        monkeypatch.setattr(rfnet, "_abcd", failing_in_the_child)
        with pytest.raises(raised, match=message):
            cascade(self.STRESS, np.linspace(0.0, 10e9, 2 * _PASS + 3))
        assert_no_child()

    def test_an_error_in_the_parent_kills_the_child(self, monkeypatch):
        parent, real = os.getpid(), rfnet._abcd

        def failing_in_the_parent(e, f, phases):
            if os.getpid() == parent:
                raise MemoryError
            return real(e, f, phases)

        monkeypatch.setattr(rfnet, "_abcd", failing_in_the_parent)
        forks = counting_forks(monkeypatch)
        with pytest.raises(MemoryError):
            cascade(self.STRESS, np.linspace(0.0, 10e9, 100_000))
        assert len(forks) == 1
        assert_no_child()


class TestSParameters:
    def test_matched_line_is_reflectionless(self):
        net = cascade([UniformLine(50.0, 3.0, 0.02)], np.linspace(0, 10e9, 101))
        resp = to_s_parameters(net)
        assert np.max(np.abs(resp.s11)) < 1e-12
        assert np.allclose(np.abs(resp.s21), 1.0, atol=1e-12)

    def test_quarter_wave_transformer(self):
        line = UniformLine(24.0, 3.0, 0.02)
        fq = quarter_wave_frequency(line)
        resp = to_s_parameters(cascade([line], [fq]))
        # Oracle: the transformer presents Z^2 / Z_load at its input.
        zin = 24.0 ** 2 / 50.0
        oracle = abs((zin - 50.0) / (zin + 50.0))
        assert abs(resp.s11[0]) == pytest.approx(oracle, abs=1e-12)
        assert abs(resp.s11[0]) == pytest.approx(0.626, abs=1e-3)

    def test_dc_transmission_is_unity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            chain = [UniformLine(rng.uniform(5, 100), rng.uniform(1, 10),
                                 rng.uniform(0, 0.05)) for _ in range(4)]
            resp = to_s_parameters(cascade(chain, [0.0, 1e9]))
            assert abs(resp.s21[0]) == pytest.approx(1.0, abs=1e-12)

    def test_energy_conservation_lossless(self):
        rng = np.random.default_rng(9)
        freqs = np.linspace(0, 10e9, 101)
        for _ in range(100):
            chain = []
            for _ in range(rng.integers(1, 6)):
                if rng.integers(0, 2) == 0:
                    chain.append(UniformLine(rng.uniform(5, 100), rng.uniform(1, 10),
                                             rng.uniform(0, 0.05)))
                else:
                    chain.append(SeriesImpedance(0.0, rng.uniform(0, 5e-9)))
            zs = rng.uniform(10, 100)
            zl = rng.uniform(10, 100)
            net = cascade(chain, freqs, z_src=zs, z_load=zl)
            assert np.max(np.abs(net.A * net.D - net.B * net.C - 1.0)) < 1e-9
            resp = to_s_parameters(net)
            power = np.abs(resp.s11) ** 2 + np.abs(resp.s21) ** 2
            assert np.max(np.abs(power - 1.0)) < 1e-6

    @staticmethod
    def determinant_error(chain, freqs):
        """|AD - BC - 1| of the chain, and |AD| + |BC|, the size of what it cancels."""
        net = cascade(chain, freqs)
        ad, bc = net.A * net.D, net.B * net.C
        return np.abs(ad - bc - 1.0), np.abs(ad) + np.abs(bc)

    def test_every_element_has_unit_determinant(self):
        # Reciprocity, AD - BC = 1, is what lets the S-parameters give S12 as S21.
        rng = np.random.default_rng(10)
        freqs = np.linspace(0, 10e9, 101)
        for _ in range(100):
            for element in (UniformLine(rng.uniform(5, 100), rng.uniform(1, 10),
                                        rng.uniform(0, 0.05)),
                            SeriesImpedance(rng.uniform(0, 5), rng.uniform(0, 5e-9)),
                            SeriesImpedance(0.0, rng.uniform(0, 5e-9))):
                err, _ = self.determinant_error([element], freqs)
                assert err.max() <= 4 * np.finfo(float).eps, element

    @pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "series-R"])
    def test_chains_have_unit_determinant(self, lossy):
        # A chain's rounding error scales with the magnitudes AD - BC cancels,
        # a few ulp of them per element.
        rng = np.random.default_rng(11)
        freqs = np.linspace(0, 10e9, 101)
        for _ in range(100):
            chain = [[UniformLine(rng.uniform(5, 100), rng.uniform(1, 10), rng.uniform(0, 0.05)),
                      SeriesImpedance(rng.uniform(0.1, 5) if lossy else 0.0,
                                      rng.uniform(0, 2e-10))][rng.integers(0, 2)]
                     for _ in range(rng.integers(1, 8))]
            if lossy:
                chain.insert(rng.integers(0, len(chain) + 1), SeriesImpedance(1.0, 0.0))
            err, size = self.determinant_error(chain, freqs)
            assert np.all(err <= 4 * len(chain) * np.finfo(float).eps * size), chain


class TestMismatchReport:
    def test_fully_matched_path(self):
        rep = mismatch_report(RfSettings(), 0.02, 50.0, **EPS)
        assert rep.worst_s11 < 1e-12

    def test_two_step_oracle(self):
        # Bare 24-ohm pin section between 50-ohm ports: the response must
        # equal the closed-form two-discontinuity interference formula.
        rep = mismatch_report(RfSettings(points=201), 0.02, 24.0, **EPS)
        beta = 2 * math.pi * rep.response.frequencies * math.sqrt(3.0) / SPEED_OF_LIGHT
        for i, bl in enumerate(beta * 0.02):
            assert abs(rep.response.s11[i] - line_two_step_s11(24.0, 50.0, bl)) < 1e-9
            assert abs(rep.response.s21[i] - line_two_step_s21(24.0, 50.0, bl)) < 1e-9

    def test_halving_length_doubles_first_minimum(self):
        def first_minimum(length):
            rep = mismatch_report(RfSettings(points=8001), length, 24.0, **EPS)
            mag = np.abs(rep.response.s11)
            seen_peak = False
            for i in range(1, len(mag) - 1):
                seen_peak = seen_peak or mag[i] > 0.5 * rep.worst_s11
                if seen_peak and mag[i] < 0.01 and mag[i] <= mag[i - 1] and mag[i] <= mag[i + 1]:
                    return rep.response.frequencies[i]
            raise AssertionError("no reflection minimum found")

        f1 = first_minimum(0.02)
        f2 = first_minimum(0.01)
        assert f2 == pytest.approx(2 * f1, rel=2e-3)

    def test_passivity_residual(self):
        # A matched line and a series R between 50 ohm ports: S11 = R/(R+100)
        # and S21 = 100/(R+100) at every frequency, so the residual is
        # 1 - |S11|^2 - |S21|^2 = 200R/(R+100)^2.
        lossy = mismatch_report(RfSettings(points=11, bond_resistance=1.0), 0.02, 50.0, **EPS)
        assert lossy.to_record()["passivity_residual"] == pytest.approx(200.0 / 101.0 ** 2,
                                                                       rel=1e-12)
        lossless = mismatch_report(RfSettings(taper_length=0.01), 0.02, 14.0, **EPS)
        assert lossless.to_record()["passivity_residual"] < 1e-12

    def test_band_is_capped(self):
        with pytest.raises(ValueError):
            RfSettings(band=(0.0, 20e9))

    @pytest.mark.parametrize("field", [{"points": 1}, {"taper_segments": 0}],
                             ids=["points", "taper_segments"])
    def test_grid_and_taper_need_enough_points(self, field):
        with pytest.raises(ValueError):
            RfSettings(**field)

    def test_grid_refinement_stability(self):
        a = mismatch_report(RfSettings(points=1001), 0.02, 14.0, **EPS)
        b = mismatch_report(RfSettings(points=2001), 0.02, 14.0, **EPS)
        assert abs(a.worst_s11 - b.worst_s11) / b.worst_s11 < 1e-3

    def test_taper_reduces_low_frequency_mismatch(self):
        rf = RfSettings(band=(0.0, 2e9), points=401)
        plain = mismatch_report(rf, 0.02, 14.0, **EPS)
        tapered = mismatch_report(replace(rf, taper_length=0.01, taper_segments=16),
                                  0.02, 14.0, **EPS)
        assert tapered.worst_s11 < plain.worst_s11


class TestExports:
    def test_touchstone_round_trip_numbers(self):
        resp = to_s_parameters(cascade([UniformLine(24.0, 3.0, 0.02)],
                                       np.linspace(1e9, 10e9, 10)))
        text = touchstone(resp)
        lines = [l for l in text.splitlines() if l and not l.startswith(("#", "!"))]
        assert len(lines) == 10
        first = [float(tok) for tok in lines[0].split()]
        assert first[0] == pytest.approx(1e9)
        assert first[1] == pytest.approx(resp.s11[0].real, rel=1e-9)
        assert first[4] == pytest.approx(resp.s21[0].imag, rel=1e-9)

    def test_csv_header_and_rows(self):
        resp = to_s_parameters(cascade([UniformLine(24.0, 3.0, 0.02)],
                                       np.linspace(0, 10e9, 5)))
        text = response_csv(resp)
        lines = text.splitlines()
        assert lines[0] == "frequency_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db"
        assert len(lines) == 6

    def test_network_validation(self):
        with pytest.raises(ValueError):
            TwoPortNetwork(np.array([-1.0, 1.0]), *np.zeros((4, 2), dtype=complex))
        with pytest.raises(ValueError):
            TwoPortNetwork(np.array([0.0, 1.0]), *np.zeros((4, 2), dtype=complex), z_load=0.0)
        with pytest.raises(ValueError):
            TwoPortNetwork(np.array([0.0, 1.0]), *np.zeros((3, 2), dtype=complex),
                           np.zeros(3, dtype=complex))


# A hand-built response: a zero S11 (-inf dB), signed zeros, tiny and
# repeating values.  The expected text pins the writers' number format.
PINNED = FrequencyResponse(
    frequencies=np.array([0.0, 1.5e9, 1e10 / 3]),
    s11=np.array([0j, complex(-0.123456789012345, 3.2e-7), complex(0.5, -1 / 3)]),
    s21=np.array([1 + 0j, complex(0.98765432109876, -0.1), complex(-2e-13, 0.75)]),
    s22=np.array([-0j, complex(1 / 7, 1e-20), complex(-0.25, 0.125)]))
PINNED_ROWS = (
    "0 0 0 1 0 1 0 -0 -0\n"
    "1500000000 -0.123456789012 3.2e-07 0.987654321099 -0.1 0.987654321099 -0.1 "
    "0.142857142857 1e-20\n"
    "3333333333 0.5 -0.333333333333 -2e-13 0.75 -2e-13 0.75 -0.25 0.125\n")


class TestPinnedText:
    def test_csv_bytes(self):
        assert response_csv(PINNED) == (
            "frequency_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db\n"
            "0,0,0,1,0,-inf,0\n"
            "1500000000,-0.123456789012,3.2e-07,0.987654321099,-0.1,-18.1697004557,"
            "-0.0636053286233\n"
            "3333333333,0.5,-0.333333333333,-2e-13,0.75,-4.4235914846,-2.49877473217\n")

    def test_touchstone_v1_for_equal_references(self):
        assert touchstone(PINNED) == "# Hz S RI R 50\n" + PINNED_ROWS

    def test_touchstone_v2_for_unequal_references(self):
        assert touchstone(replace(PINNED, z_load=75.0)) == (
            "[Version] 2.0\n"
            "# Hz S RI R 50\n"
            "[Number of Ports] 2\n"
            "[Two-Port Data Order] 21_12\n"
            "[Number of Frequencies] 3\n"
            "[Reference] 50 75\n"
            "[Network Data]\n"
            + PINNED_ROWS
            + "[End]\n")


# Cells in every form `%.12g` writes: signed zeros, subnormals, exponent
# form below 1e-4 and from 1e12 on, and fixed point between.  Complex cells
# add zero magnitudes, whose dB cell is -inf.
_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 9.99999999999e-5, -1e-4, 0.1, 123.456,
                     999999999999.4, 1e12, -3.7e15, 1e300]),
    st.floats(-1e300, 1e300))
_COMPLEX_CELLS = st.one_of(st.sampled_from([0j, complex(-0.0, -0.0), complex(0.0, -0.0)]),
                           st.builds(complex, _CELLS, _CELLS))


class TestBlockedRows:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(n=st.sampled_from([1, 2, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 1]),
           reals=st.lists(_CELLS, min_size=1, max_size=8),
           sparams=st.lists(_COMPLEX_CELLS, min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1), z_src=st.floats(1e-3, 1e6),
           z_load=st.one_of(st.none(), st.floats(1e-3, 1e6)))
    def test_any_columns_stream_as_the_oracles(self, n, reals, sparams, seed, z_src, z_load):
        # Each row takes its frequency and S-parameters from small drawn
        # pools, so a few drawn cells fill responses across block bounds.
        # z_load None is an equal reference (a v1 file).
        rng = np.random.default_rng(seed)
        s11, s21, s22 = (rng.choice(np.array(sparams), n) for _ in range(3))
        resp = FrequencyResponse(rng.choice(np.array(reals), n), s11, s21, s22, z_src=z_src,
                                 z_load=z_src if z_load is None else z_load)
        self.assert_streamed_pairs_equal_the_oracles(resp, n)

    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    @pytest.mark.parametrize("z0", [24.0, 50.0], ids=["mismatched", "matched"])
    def test_writers_equal_one_row_list_joined_once(self, n, z0):
        resp = to_s_parameters(cascade([UniformLine(z0, 3.0, 0.02)], np.linspace(0, 10e9, n)))
        csv = response_csv(resp)
        assert csv == oracles.response_csv(resp)
        assert touchstone(resp) == oracles.touchstone(resp)
        unequal = replace(resp, z_load=75.0)
        assert touchstone(unequal) == oracles.touchstone(unequal)
        if z0 == 50.0:  # the matched path's S11 is a signed zero, -inf dB
            assert ",-0,-0," in csv and ",-inf," in csv
        for r in (resp, unequal):
            self.assert_streamed_pairs_equal_the_oracles(r, n)

    @staticmethod
    def assert_streamed_pairs_equal_the_oracles(resp, n):
        """The headers, then a pair per block holding the same rows of both
        files, then the v2.0 trailer; joined, each file equals its oracle.
        The texts are compared as lists of lines, so that a failure names
        the first line that differs instead of diffing two whole texts."""
        pairs = list(response_texts(resp))
        for i, oracle in enumerate((oracles.response_csv, oracles.touchstone)):
            assert "".join(p[i] for p in pairs).splitlines(True) == oracle(resp).splitlines(True)
        rows = [min(_BLOCK, n - i) for i in range(0, n, _BLOCK)]
        assert [(csv.count("\n"), s2p.count("\n")) for csv, s2p in pairs[1:1 + len(rows)]] == [
            (k, k) for k in rows]
        assert pairs[1 + len(rows):] == ([("", "[End]\n")] if resp.z_load != resp.z_src else [])

    @pytest.mark.parametrize("z_load", [50.0, 75.0], ids=["v1", "v2"])
    def test_a_forked_half_joins_as_the_oracles(self, z_load):
        # 25 blocks, the last one short: a child formats the later 12.
        n = 24 * _BLOCK + 1696
        resp = replace(
            to_s_parameters(cascade([UniformLine(24.0, 3.0, 0.02)], np.linspace(0, 10e9, n))),
            z_load=z_load)
        self.assert_streamed_pairs_equal_the_oracles(resp, n)
        assert_no_child()

    def test_an_early_close_reaps_the_child(self):
        n = 4 * _BLOCK
        texts = response_texts(to_s_parameters(cascade([UniformLine(24.0, 3.0, 0.02)],
                                                       np.linspace(0, 10e9, n))))
        next(texts), next(texts)  # the headers, then the first block: the child has forked
        texts.close()
        assert_no_child()

    def test_an_error_in_the_parent_reaps_the_child(self, monkeypatch):
        real = rfnet._block

        def failing_in_the_parent(columns, part):
            if part.start == _BLOCK:  # the second of the parent's two blocks
                raise MemoryError
            return real(columns, part)

        monkeypatch.setattr(rfnet, "_block", failing_in_the_parent)
        texts = response_texts(to_s_parameters(cascade([UniformLine(24.0, 3.0, 0.02)],
                                                       np.linspace(0, 10e9, 4 * _BLOCK))))
        with pytest.raises(MemoryError):
            list(texts)
        assert_no_child()

    def test_one_block_never_forks(self, monkeypatch):
        def no_fork():
            raise OSError(11, "fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        resp = to_s_parameters(cascade([UniformLine(24.0, 3.0, 0.02)],
                                       np.linspace(0, 10e9, _BLOCK)))
        self.assert_streamed_pairs_equal_the_oracles(resp, _BLOCK)

    def test_without_fork_every_block_is_formatted_in_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        n = 2 * _BLOCK + 1
        resp = to_s_parameters(cascade([UniformLine(24.0, 3.0, 0.02)],
                                       np.linspace(0, 10e9, n)))
        self.assert_streamed_pairs_equal_the_oracles(resp, n)

    @pytest.mark.parametrize("writer", [response_csv, touchstone])
    def test_peak_memory_is_about_twice_the_text(self, writer, traced_peak):
        resp = to_s_parameters(cascade([UniformLine(24.0, 3.0, 0.02)],
                                       np.linspace(0, 10e9, 20_000)))
        text, peak = traced_peak(writer, resp)
        assert peak <= 2.25 * len(text)
