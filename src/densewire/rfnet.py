"""Frequency-domain analysis of the signal path via ABCD-matrix cascades.

The full path — ribbon CPW feed, impedance taper, coaxial pin section,
bond-contact discontinuity — is modeled as a chain of two-port elements
whose ABCD matrices multiply in order and convert to S-parameters
against arbitrary (real) port reference impedances.  A network is its
four ABCD entries, each a complex vector over the frequency grid, so the
chain product is the 2x2 product written out on whole vectors.

A lossless element (a line, a series jwL, a shunt jwC) has a real A and D
and an imaginary B = jb and C = jc, and a product of such matrices keeps
that form.  The cascade therefore carries the leading run of lossless
elements as the four real vectors A, b, c and D, a block of frequencies
at a time, and switches to complex vectors at the first element of
another form (a series R > 0 or an attenuator).  The real products give
the values of the complex ones bit for bit; only the signs of zero parts
may differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import OutOfRange
from .tlines import SPEED_OF_LIGHT


@dataclass(frozen=True)
class UniformLine:
    """Lossless uniform transmission-line section."""

    z0: float
    eps_eff: float
    length: float
    label: str = ""

    def __post_init__(self):
        if self.z0 <= 0:
            raise ValueError("line impedance must be > 0")
        if self.eps_eff < 1.0:
            raise ValueError("effective permittivity must be >= 1")
        if self.length < 0:
            raise ValueError("length must be >= 0")


@dataclass(frozen=True)
class SeriesImpedance:
    """Series R + jwL element; models the pin-pad bond contact."""

    resistance: float = 0.0
    inductance: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.resistance < 0 or self.inductance < 0:
            raise ValueError("resistance and inductance must be >= 0")


@dataclass(frozen=True)
class ShuntAdmittance:
    """Shunt jwC element."""

    capacitance: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.capacitance < 0:
            raise ValueError("capacitance must be >= 0")


@dataclass(frozen=True)
class IdealAttenuator:
    """Matched resistive attenuator; z_ref is the impedance it is matched to."""

    attenuation_db: float
    z_ref: float = 50.0
    label: str = ""

    def __post_init__(self):
        if self.attenuation_db < 0:
            raise ValueError("attenuation must be >= 0 dB")
        if self.z_ref <= 0:
            raise ValueError("reference impedance must be > 0")


NetworkElement = Union[UniformLine, SeriesImpedance, ShuntAdmittance, IdealAttenuator]


def _line_phase(e: UniformLine, f: np.ndarray, phases: dict) -> tuple:
    """cos and sin of the line's electrical length over the grid `f`.

    `phases` maps a line's (eps_eff, length) to them, so lines that share
    both compute them once.  The sign of the length is part of the key:
    -0.0 == 0.0, but their sines differ in sign.
    """
    key = (e.eps_eff, e.length, math.copysign(1.0, e.length))
    if key not in phases:
        beta_l = 2.0 * math.pi * f * math.sqrt(e.eps_eff) / SPEED_OF_LIGHT * e.length
        phases[key] = np.cos(beta_l), np.sin(beta_l)
    return phases[key]


def _is_lossless(e: NetworkElement) -> bool:
    """Whether the element's ABCD matrix is [[a, jb], [jc, d]] with a, b, c, d real."""
    return (isinstance(e, (UniformLine, ShuntAdmittance))
            or isinstance(e, SeriesImpedance) and e.resistance == 0)


def _lossless_abcd(e: NetworkElement, f: np.ndarray, phases: dict) -> tuple:
    """Real a, b, c, d with the lossless element's ABCD matrix [[a, jb], [jc, d]].

    b and c are the imaginary parts that `_element_abcd` computes, in the
    same operations: a line's c is s * (1 / z0), because numpy divides a
    complex vector by a real scalar through its reciprocal.
    """
    if isinstance(e, UniformLine):
        c, s = _line_phase(e, f, phases)
        return c, e.z0 * s, s * (1.0 / e.z0), c
    if isinstance(e, SeriesImpedance):
        return 1.0, 2.0 * math.pi * f * e.inductance, 0.0, 1.0
    return 1.0, 0.0, 2.0 * math.pi * f * e.capacitance, 1.0


def _lossless_product(elements: list, f: np.ndarray) -> tuple:
    """Real A, b, c, D of the product [[A, jb], [jc, D]] of lossless elements over `f`.

    An element [[ea, j eb], [j ec, ed]] takes the product to

        A' = A ea - b ec,  b' = A eb + b ed,  c' = c ea + D ec,  D' = D ed - c eb,

    the values of the real and imaginary parts of the complex product.
    """
    phases: dict = {}
    factors = (_lossless_abcd(e, f, phases) for e in elements)
    A, b, c, D = next(factors)
    for ea, eb, ec, ed in factors:
        A, b, c, D = A * ea - b * ec, A * eb + b * ed, c * ea + D * ec, D * ed - c * eb
    return A, b, c, D


def _element_abcd(e: NetworkElement, f: np.ndarray, phases: dict) -> tuple:
    """A, B, C, D of one element over the grid `f`; each a scalar or a length-nf vector."""
    if isinstance(e, UniformLine):
        c, s = _line_phase(e, f, phases)
        return c, 1j * e.z0 * s, 1j * s / e.z0, c
    if isinstance(e, SeriesImpedance):
        return 1.0, e.resistance + 1j * 2.0 * math.pi * f * e.inductance, 0.0, 1.0
    if isinstance(e, ShuntAdmittance):
        return 1.0, 0.0, 1j * 2.0 * math.pi * f * e.capacitance, 1.0
    if isinstance(e, IdealAttenuator):
        gamma = e.attenuation_db * math.log(10.0) / 20.0
        ch, sh = math.cosh(gamma), math.sinh(gamma)
        return ch, e.z_ref * sh, sh / e.z_ref, ch
    raise TypeError(f"not a network element: {e!r}")


@dataclass(frozen=True)
class TwoPortNetwork:
    """Cascaded two-port: ABCD entries as complex vectors over the grid, plus port references."""

    frequencies: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    z_src: float = 50.0
    z_load: float = 50.0

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        if f.ndim != 1 or f.size == 0:
            raise ValueError("frequencies must be a nonempty 1-D array")
        if f[0] < 0 or np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must be non-negative and strictly increasing")
        if self.z_src <= 0 or self.z_load <= 0:
            raise ValueError("port impedances must be > 0")
        if any(np.shape(v) != f.shape for v in (self.A, self.B, self.C, self.D)):
            raise ValueError("A, B, C and D must each be a vector of one entry per frequency")


# Frequency points per pass of the lossless product.  The dozen or so real
# vectors a pass holds, 64 KiB each, stay in a core's L2 cache; at 100k
# points the whole grid's would not.  On a Xeon with 2 MiB of L2 per core,
# the 67-element, 100k-point path took 0.075 s in passes of 8192 points,
# 0.096 s in passes of 4096 and 0.135 s in a single pass.
_PASS = 8192


def cascade(elements, frequencies, z_src: float = 50.0, z_load: float = 50.0) -> TwoPortNetwork:
    """Multiply element ABCD matrices in chain order (first element at the source).

    The leading run of lossless elements is multiplied in real arithmetic
    (`_lossless_product`), a block of frequencies at a time, and written
    into complex vectors as A, jb, jc and D, with +0 as the real parts of B
    and C.  From the first element of another form (a series R > 0, an
    attenuator) on, the chain is multiplied in complex arithmetic.  Either
    way A, B, C and D equal the all-complex product in value; the signs of
    their zero parts may differ.
    """
    elements = list(elements)
    if not elements:
        raise ValueError("cascade requires at least one element")
    f = np.asarray(frequencies, dtype=float)
    phases: dict = {}
    n = next((i for i, e in enumerate(elements) if not _is_lossless(e)), len(elements))
    if n:
        A, B, C, D = (np.zeros(f.shape, dtype=complex) for _ in range(4))
        for i in range(0, f.size, _PASS):
            part = slice(i, i + _PASS)
            A.real[part], B.imag[part], C.imag[part], D.real[part] = _lossless_product(
                elements[:n], f[part])
    else:
        A, B, C, D = _element_abcd(elements[0], f, phases)
        n = 1
    for e in elements[n:]:
        a, b, c, d = _element_abcd(e, f, phases)
        A, B, C, D = A * a + B * c, A * b + B * d, C * a + D * c, C * b + D * d
    A, B, C, D = (np.broadcast_to(v, f.shape).astype(complex, copy=False) for v in (A, B, C, D))
    return TwoPortNetwork(f, A, B, C, D, z_src=z_src, z_load=z_load)


@dataclass(frozen=True)
class FrequencyResponse:
    """S-parameters of a two-port versus frequency."""

    frequencies: np.ndarray
    s11: np.ndarray
    s21: np.ndarray
    s12: np.ndarray
    s22: np.ndarray
    z_src: float = 50.0
    z_load: float = 50.0

    def s11_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(np.abs(self.s11))

    def s21_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(np.abs(self.s21))


def to_s_parameters(net: TwoPortNetwork) -> FrequencyResponse:
    """ABCD to S conversion with (possibly unequal) real reference impedances."""
    A, B, C, D = net.A, net.B, net.C, net.D
    zs, zl = net.z_src, net.z_load
    den = A * zl + B + C * zs * zl + D * zs
    root = 2.0 * math.sqrt(zs * zl)
    return FrequencyResponse(
        frequencies=net.frequencies,
        s11=(A * zl + B - C * zs * zl - D * zs) / den,
        s21=root / den,
        s12=root * (A * D - B * C) / den,
        s22=(-A * zl + B - C * zs * zl + D * zs) / den,
        z_src=zs,
        z_load=zl,
    )


@dataclass(frozen=True)
class MismatchReport:
    response: FrequencyResponse
    worst_s11: float
    worst_s11_frequency: float
    elements: tuple = field(default=())

    def to_record(self) -> dict:
        return {
            "worst_s11": self.worst_s11,
            "worst_s11_frequency_hz": self.worst_s11_frequency,
            "points": int(self.response.frequencies.size),
            "f_lo_hz": float(self.response.frequencies[0]),
            "f_hi_hz": float(self.response.frequencies[-1]),
            "z_src_ohm": self.response.z_src,
            "z_load_ohm": self.response.z_load,
            "passivity_residual": float(np.max(np.abs(
                np.abs(self.response.s11) ** 2 + np.abs(self.response.s21) ** 2 - 1.0))),
        }


MAX_BAND_HZ = 10e9  # the interconnect is specified DC to ~10 GHz


@dataclass(frozen=True)
class RfSettings:
    """The swept band and the signal path's feed, taper and bond."""

    band: tuple[float, float] = (0.0, 10e9)
    points: int = 1001
    system_impedance: float = 50.0
    feed_length: float = 0.0
    taper_length: float = 0.0
    taper_segments: int = 16
    bond_resistance: float = 0.0
    bond_inductance: float = 0.0

    def __post_init__(self):
        f_lo, f_hi = self.band
        if not 0.0 <= f_lo < f_hi <= MAX_BAND_HZ * (1 + 1e-9):
            raise ValueError(f"band must satisfy 0 <= f_lo < f_hi <= {MAX_BAND_HZ:.0e} Hz")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if self.taper_segments < 1:
            raise ValueError("taper_segments must be >= 1")
        if self.system_impedance <= 0:
            raise ValueError("system_impedance must be > 0")
        if min(self.feed_length, self.taper_length, self.bond_resistance,
               self.bond_inductance) < 0:
            raise ValueError("lengths, bond_resistance and bond_inductance must be >= 0")


def build_signal_path(rf: RfSettings, pin_length: float, interposer_z: float, *,
                      pin_eps_eff: float, feed_eps_eff: float) -> list:
    """Element chain for the default signal path, source side first.

    Zero-length sections contribute identity matrices and drop out.  The
    taper is a geometric impedance ladder of uniform sub-segments, the
    standard first-order treatment of a smooth transition.
    """
    system_z, n = rf.system_impedance, rf.taper_segments
    elements: list[NetworkElement] = []
    if rf.feed_length > 0:
        elements.append(UniformLine(system_z, feed_eps_eff, rf.feed_length, label="cpw-feed"))
    if rf.taper_length > 0:
        seg_len = rf.taper_length / n
        for i in range(n):
            zi = system_z * (interposer_z / system_z) ** ((i + 0.5) / n)
            elements.append(UniformLine(zi, feed_eps_eff, seg_len, label=f"taper-{i:02d}"))
    elements.append(UniformLine(interposer_z, pin_eps_eff, pin_length, label="coax-pin"))
    elements.append(SeriesImpedance(rf.bond_resistance, rf.bond_inductance, label="bond"))
    return elements


def mismatch_report(rf: RfSettings, pin_length: float, interposer_z: float, *,
                    pin_eps_eff: float, feed_eps_eff: float) -> MismatchReport:
    """Sweep the default signal path over `rf.band` and locate the worst reflection.

    The grid is uniform, `rf.points` long, and includes both band edges.
    """
    elements = build_signal_path(rf, pin_length, interposer_z,
                                 pin_eps_eff=pin_eps_eff, feed_eps_eff=feed_eps_eff)
    freqs = np.linspace(*rf.band, rf.points)
    with np.errstate(all="ignore"):  # a result out of the float range is reported below
        net = cascade(elements, freqs, z_src=rf.system_impedance, z_load=rf.system_impedance)
        resp = to_s_parameters(net)
    if not all(np.isfinite(s).all() for s in (resp.s11, resp.s21, resp.s12, resp.s22)):
        raise OutOfRange("the S-parameters are not finite over the band")
    mag = np.abs(resp.s11)
    i = int(np.argmax(mag))
    return MismatchReport(
        response=resp,
        worst_s11=float(mag[i]),
        worst_s11_frequency=float(freqs[i]),
        elements=tuple(elements),
    )


# A single `%` per row formats faster than an f-string of seven or nine
# fields, and "%.12g" % x == f"{x:.12g}" for every float.
_CSV_ROW = "%.10g,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g\n"
_S2P_ROW = "%.10g %.12g %.12g %.12g %.12g %.12g %.12g %.12g %.12g\n"
_BLOCK = 4096  # rows formatted per block


def _rows(fmt: str, *columns):
    """The rows of the columns, read as Python floats and formatted with
    `fmt`, as one text per block of `_BLOCK` rows: only one block's floats
    and row strings exist at a time, and the caller joins the blocks once."""
    columns = [np.asarray(c) for c in columns]
    for i in range(0, len(columns[0]), _BLOCK):
        yield "".join([fmt % row for row in zip(*(c[i:i + _BLOCK].tolist() for c in columns))])


def response_csv(resp: FrequencyResponse) -> str:
    """CSV dump: frequency, Re/Im of S11 and S21, and dB magnitudes."""
    return "".join(["frequency_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db\n",
                    *_rows(_CSV_ROW, resp.frequencies, resp.s11.real, resp.s11.imag,
                           resp.s21.real, resp.s21.imag, resp.s11_db(), resp.s21_db())])


def touchstone(resp: FrequencyResponse) -> str:
    """Two-port Touchstone text, real/imaginary format, rows S11 S21 S12 S22.

    Equal port references give a v1 file.  Touchstone v1 carries a single
    reference resistance, so unequal ones give a v2.0 file whose
    [Reference] line names both (IBIS Open Forum, Touchstone File Format
    Specification v2.0).
    """
    v2 = resp.z_load != resp.z_src
    head = f"# Hz S RI R {resp.z_src:.12g}\n"
    if v2:
        head = ("[Version] 2.0\n" + head + "[Number of Ports] 2\n[Two-Port Data Order] 21_12\n"
                f"[Number of Frequencies] {len(resp.frequencies)}\n"
                f"[Reference] {resp.z_src:.12g} {resp.z_load:.12g}\n[Network Data]\n")
    return "".join([head, *_rows(_S2P_ROW, resp.frequencies, resp.s11.real, resp.s11.imag,
                                 resp.s21.real, resp.s21.imag, resp.s12.real, resp.s12.imag,
                                 resp.s22.real, resp.s22.imag),
                    "[End]\n" if v2 else ""])
