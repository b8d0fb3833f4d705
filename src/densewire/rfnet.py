"""Frequency-domain analysis of the signal path via ABCD-matrix cascades.

The full path — ribbon CPW feed, impedance taper, coaxial pin section,
bond-contact discontinuity — is modeled as a chain of two-port elements
whose ABCD matrices multiply in order and convert to S-parameters
against arbitrary (real) port reference impedances.  A network is its
four ABCD entries, each a complex vector over the frequency grid.

Every element's matrix has the form [[a, jb], [jc, d]], and so has every
product of them (Pozar, *Microwave Engineering*, ch. 4).  The cascade
multiplies by one rule on the four vectors a, b, c and d, which are real
while the chain is lossless and complex from a series R > 0 on.

The cascade runs in fixed passes of frequencies, and the response's CSV and
Touchstone texts are formatted in fixed blocks of rows.  Over more than one
pass, a forked child multiplies the later half of the passes, and over more
than one block, another formats the later half of the blocks, each into a
file that this process reads back once it has done the earlier half.  Each
child is reaped before the function that forked it returns (see `_forked`).

This is the one module that imports numpy, and only the `rf` subcommand
imports it.  `RfSettings` is defined with the config reader.
"""

from __future__ import annotations

import math
import os
import signal
import struct
import sys
import tempfile
import warnings
from contextlib import contextmanager
from functools import reduce
from operator import itemgetter
from typing import Union

import numpy as np

from .config import RfSettings
from .errors import OutOfRange
from .tlines import SPEED_OF_LIGHT
from .units import frozen


@frozen
class UniformLine:
    """Lossless uniform transmission-line section."""

    z0: float
    eps_eff: float
    length: float

    def __post_init__(self):
        if self.z0 <= 0:
            raise ValueError("line impedance must be > 0")
        if self.eps_eff < 1.0:
            raise ValueError("effective permittivity must be >= 1")
        if self.length < 0:
            raise ValueError("length must be >= 0")


@frozen
class SeriesImpedance:
    """Series R + jwL element; models the pin-pad bond contact."""

    resistance: float = 0.0
    inductance: float = 0.0

    def __post_init__(self):
        if self.resistance < 0 or self.inductance < 0:
            raise ValueError("resistance and inductance must be >= 0")


NetworkElement = Union[UniformLine, SeriesImpedance]


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


def _abcd(e: NetworkElement, f: np.ndarray, phases: dict) -> tuple:
    """a, b, c, d of the element's ABCD matrix [[a, jb], [jc, d]] over the grid `f`;
    each a scalar or a vector.

    They are real for a lossless element (a line, a series jwL).
    A series R > 0 has b = wL - jR, so that jb = R + jwL.  A line's c is
    s * (1 / z0), the value numpy gives for a complex vector over the real
    z0, which it divides through the reciprocal.
    """
    if isinstance(e, UniformLine):
        c, s = _line_phase(e, f, phases)
        return c, e.z0 * s, s * (1.0 / e.z0), c
    if isinstance(e, SeriesImpedance):
        x = 2.0 * math.pi * f * e.inductance
        return 1.0, (x - 1j * e.resistance if e.resistance else x), 0.0, 1.0
    raise TypeError(f"not a network element: {e!r}")


def _product(p: tuple, e: tuple) -> tuple:
    """A, b, c, D of [[A, jb], [jc, D]] times [[ea, j eb], [j ec, ed]]:

        A' = A ea - b ec,  b' = A eb + b ed,  c' = c ea + D ec,  D' = D ed - c eb.

    The rule holds for real and complex entries alike.
    """
    (A, b, c, D), (ea, eb, ec, ed) = p, e
    return A * ea - b * ec, A * eb + b * ed, c * ea + D * ec, D * ed - c * eb


@frozen
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
        if not np.isfinite(f).all():
            raise ValueError("frequencies must be finite")
        if f[0] < 0 or np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must be non-negative and strictly increasing")
        if self.z_src <= 0 or self.z_load <= 0:
            raise ValueError("port impedances must be > 0")
        if any(np.shape(v) != f.shape for v in (self.A, self.B, self.C, self.D)):
            raise ValueError("A, B, C and D must each be a vector of one entry per frequency")


# Frequency points per pass of the product.  The dozen or so real vectors a
# pass holds, 64 KiB each, stay in a core's L2 cache; at 100k points the
# whole grid's would not.  On a Xeon with 2 MiB of L2 per core, the
# 67-element, 100k-point path took 0.075 s in passes of 8192 points,
# 0.096 s in passes of 4096 and 0.135 s in a single pass.
_PASS = 8192


def _multiply(elements, f: np.ndarray, out) -> None:
    """Multiply the chain over the grid `f`, `_PASS` frequencies at a time,
    into the four vectors `out` as A, jb, jc and D."""
    A, B, C, D = out
    for i in range(0, f.size, _PASS):
        part, phases = slice(i, i + _PASS), {}
        a, b, c, d = reduce(_product, (_abcd(e, f[part], phases) for e in elements))
        A[part], B[part], C[part], D[part] = a, 1j * b, 1j * c, d


def cascade(elements, frequencies, z_src: float = 50.0, z_load: float = 50.0) -> TwoPortNetwork:
    """Multiply element ABCD matrices in chain order (first element at the source).

    Every element is [[a, jb], [jc, d]] (`_abcd`), and so is every product
    (`_product`), so the chain is carried as the four vectors A, b, c and D:
    real while it is lossless, complex from a series R > 0 on.  It is
    multiplied `_PASS` frequencies at a time and written out as A, jb, jc
    and D.  These equal the textbook all-complex product in value; the
    signs of their zero parts may differ.  The grid and the port
    references are checked before the first product.

    Over more than one pass, a forked child multiplies the later half of
    the passes, `m - m // 2` of `m`, and writes them to a file while this
    process multiplies the rest; the network reads them back once the
    child is reaped.  Every point is multiplied in the same position
    within its pass either way, so the bytes are the same.
    """
    elements = list(elements)
    if not elements:
        raise ValueError("cascade requires at least one element")
    f = np.asarray(frequencies, dtype=float)
    net = TwoPortNetwork(f, *(np.zeros(f.shape, dtype=complex) for _ in range(4)),
                         z_src=z_src, z_load=z_load)
    out = (net.A, net.B, net.C, net.D)
    passes = range(0, f.size, _PASS)
    lo = passes[len(passes) // 2]  # the child's first point; 0 over a single pass
    if not (lo and hasattr(os, "fork")):
        _multiply(elements, f, out)
        return net
    later = [v[lo:] for v in out]

    def multiply_later(file):  # into the child's own copy of the later slices
        _multiply(elements, f[lo:], later)
        file.writelines(later)

    with _forked(multiply_later, "multiplying the RF cascade") as reaped:
        _multiply(elements, f[:lo], [v[:lo] for v in out])
        file = reaped()
        for v in later:
            file.readinto(v)
    return net


# Work split between this process and a forked child.  Forking is safe
# although numpy runs an OpenBLAS thread: the child's inputs exist before the
# fork, and it enters nothing that thread could hold.  The cascade child
# runs only elementwise ufuncs (cos, sin, multiply, add), never BLAS, and
# writes.  The text child only slices columns, calls `tolist`, formats with
# `%` and writes.  The child never returns: it leaves by `os._exit`, without
# running the parent's cleanup or flushing its buffers, with a status that
# tells a failed allocation from any other failure.
_CHILD_FAILED, _CHILD_OUT_OF_MEMORY = 1, 3


@contextmanager
def _forked(work, what: str):
    """Run `work(file)` in a forked child, `file` being an unlinked temporary
    file that the child flushes, while the body of the `with` runs here.

    The body calls `reaped()` to wait for the child, raise its failure here
    (`MemoryError` for a failed allocation, `OSError` for any other) and get
    `file` rewound.  Any other way out of the body kills and reaps the child.
    """
    with tempfile.TemporaryFile() as file:
        with warnings.catch_warnings():  # Python >= 3.12 warns of the OpenBLAS thread; see above
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = _CHILD_FAILED
            try:
                work(file)
                file.flush()
                status = 0
            except MemoryError:
                status = _CHILD_OUT_OF_MEMORY
            finally:
                os._exit(status)

        def reaped():
            nonlocal pid
            status, pid = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), 0
            if status == _CHILD_OUT_OF_MEMORY:
                raise MemoryError(f"the child {what} ran out of memory")
            if status:
                raise OSError(f"the child {what} failed with status {status}")
            file.seek(0)
            return file

        try:
            yield reaped
        finally:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


@frozen
class FrequencyResponse:
    """S-parameters of a reciprocal two-port versus frequency: S12 is S21."""

    frequencies: np.ndarray
    s11: np.ndarray
    s21: np.ndarray
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
    """ABCD to S conversion with (possibly unequal) real reference impedances.

    Every element is reciprocal, so every chain has AD - BC = 1 and
    S12 = S21 (AD - BC) = S21; computing it would only add rounding error.
    """
    A, B, C, D = net.A, net.B, net.C, net.D
    zs, zl = net.z_src, net.z_load
    den = A * zl + B + C * zs * zl + D * zs
    root = 2.0 * math.sqrt(zs * zl)
    return FrequencyResponse(
        frequencies=net.frequencies,
        s11=(A * zl + B - C * zs * zl - D * zs) / den,
        s21=root / den,
        s22=(-A * zl + B - C * zs * zl + D * zs) / den,
        z_src=zs,
        z_load=zl,
    )


@frozen
class MismatchReport:
    response: FrequencyResponse
    worst_s11: float
    worst_s11_frequency: float
    elements: tuple = ()

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
        elements.append(UniformLine(system_z, feed_eps_eff, rf.feed_length))
    if rf.taper_length > 0:
        seg_len = rf.taper_length / n
        for i in range(n):
            zi = system_z * (interposer_z / system_z) ** ((i + 0.5) / n)
            elements.append(UniformLine(zi, feed_eps_eff, seg_len))
    elements.append(UniformLine(interposer_z, pin_eps_eff, pin_length))
    elements.append(SeriesImpedance(rf.bond_resistance, rf.bond_inductance))
    return elements


def mismatch_report(rf: RfSettings, pin_length: float, interposer_z: float, *,
                    pin_eps_eff: float, feed_eps_eff: float) -> MismatchReport:
    """Sweep the default signal path over `rf.band` and locate the worst reflection.

    The grid is uniform, `rf.points` long, and includes both band edges.
    """
    elements = build_signal_path(rf, pin_length, interposer_z,
                                 pin_eps_eff=pin_eps_eff, feed_eps_eff=feed_eps_eff)
    if rf.points * np.dtype(float).itemsize > sys.maxsize:  # numpy's own error is ValueError
        raise MemoryError(f"{rf.points:g} frequency points exceed any address space")
    freqs = np.linspace(*rf.band, rf.points)
    with np.errstate(all="ignore"):  # a result out of the float range is reported below
        net = cascade(elements, freqs, z_src=rf.system_impedance, z_load=rf.system_impedance)
        resp = to_s_parameters(net)
    if not all(np.isfinite(s).all() for s in (resp.s11, resp.s21, resp.s22)):
        raise OutOfRange("the S-parameters are not finite over the band")
    mag = np.abs(resp.s11)
    i = int(np.argmax(mag))
    return MismatchReport(
        response=resp,
        worst_s11=float(mag[i]),
        worst_s11_frequency=float(freqs[i]),
        elements=tuple(elements),
    )


# The CSV and the Touchstone rows share their first five fields: the
# frequency and Re/Im of S11 (a row's head), then Re/Im of S21.  A block
# formats each of its distinct cells once, by one `%` per column group over
# the group's interleaved cells ("%.12g" % x == f"{x:.12g}" for every
# float).  The head and S21 texts are split per row, and one more `%` per
# file places them with "%s" beside the file's own last two cells: the dB
# columns of the CSV row, and S21 again as S12 and then S22 in the
# Touchstone row, whose block turns every comma into a space.
_HEAD = "%.10g,%.12g,%.12g\n"
_PAIR = ",%.12g,%.12g\n"
_CSV = "%s%s,%.12g,%.12g\n"
_S2P = "%s%s%s,%.12g,%.12g\n"
_BLOCK = 4096  # rows formatted per block


def _format(row: str, columns: list) -> str:
    """One `%` of `row`, repeated once per row, over the equally long
    `columns` interleaved row by row.  The interleaving list is dropped
    before the `%`, which takes its cells as a tuple."""
    k, n = len(columns), len(columns[0])
    cells = [None] * (k * n)
    for i, column in enumerate(columns):
        cells[i::k] = column
    cells = tuple(cells)
    return row * n % cells


def _block(columns, part: slice) -> tuple[str, str]:
    """The CSV and the Touchstone rows within `part`, from the column groups
    of the head, S21, the dB columns and S22.  A group's floats become
    Python floats only when it is formatted, and being a function's locals,
    the block's lists are freed before the block is handed on."""
    def floats(group):
        return [c[part].tolist() for c in group]

    head, s21, db, s22 = columns
    head = _format(_HEAD, floats(head)).splitlines()
    s21 = _format(_PAIR, floats(s21)).splitlines()
    csv = _format(_CSV, [head, s21, *floats(db)])
    s2p = _format(_S2P, [head, s21, s21, *floats(s22)])
    return csv, s2p.replace(",", " ")


# A response of more than one block is formatted in two processes: the
# parent formats the first half of the blocks and yields them as it goes,
# while a forked child (`_forked`) formats the rest into its file, one frame
# per block: the two encoded lengths, then the CSV and the Touchstone bytes.
# The parent then reaps the child and yields its frames.
_FRAME = struct.Struct("<QQ")


def _format_into(file, columns, starts) -> None:
    """The child's work: write the frames of the blocks at `starts` to `file`."""
    for i in starts:
        csv, s2p = (text.encode() for text in _block(columns, slice(i, i + _BLOCK)))
        file.write(_FRAME.pack(len(csv), len(s2p)))
        file.write(csv)
        file.write(s2p)


def _forked_blocks(columns, starts):
    """The (CSV, Touchstone) pairs of the blocks at `starts`, the later half
    formatted by a forked child, which every way out of the generator reaps."""
    half = (len(starts) + 1) // 2
    with _forked(lambda file: _format_into(file, columns, starts[half:]),
                 "formatting the RF text") as reaped:
        for i in starts[:half]:
            yield _block(columns, slice(i, i + _BLOCK))
        file = reaped()
        for _ in starts[half:]:
            n_csv, n_s2p = _FRAME.unpack(file.read(_FRAME.size))
            yield file.read(n_csv).decode(), file.read(n_s2p).decode()


def response_texts(resp: FrequencyResponse):
    """The CSV and the Touchstone text of `resp`, as (CSV, Touchstone) pairs
    of blocks in file order: the headers, a pair per `_BLOCK` rows, and the
    Touchstone trailer.  In each process, only one block's floats and
    strings exist at a time: over more than one block, a forked child
    formats the later half (see `_forked_blocks`).

    The CSV columns are frequency, Re/Im of S11 and S21, and their dB
    magnitudes.  The Touchstone text is a two-port file in real/imaginary
    format, rows S11 S21 S12 S22, where S12 is S21.  Equal port references
    give a v1 file.  Touchstone v1 carries a single reference resistance,
    so unequal ones give a v2.0 file whose [Reference] line names both
    (IBIS Open Forum, Touchstone File Format Specification v2.0).
    """
    v2 = resp.z_load != resp.z_src
    head = f"# Hz S RI R {resp.z_src:.12g}\n"
    if v2:
        head = ("[Version] 2.0\n" + head + "[Number of Ports] 2\n[Two-Port Data Order] 21_12\n"
                f"[Number of Frequencies] {len(resp.frequencies)}\n"
                f"[Reference] {resp.z_src:.12g} {resp.z_load:.12g}\n[Network Data]\n")
    yield "frequency_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db\n", head
    columns = ((resp.frequencies, resp.s11.real, resp.s11.imag), (resp.s21.real, resp.s21.imag),
               (resp.s11_db(), resp.s21_db()), (resp.s22.real, resp.s22.imag))
    starts = range(0, len(resp.frequencies), _BLOCK)
    if len(starts) > 1 and hasattr(os, "fork"):
        yield from _forked_blocks(columns, starts)
    else:
        for i in starts:
            yield _block(columns, slice(i, i + _BLOCK))
    if v2:
        yield "", "[End]\n"


# The whole-text writers take one text of each pair as it comes, so the
# other text's block is dropped before the next block is formatted.
def response_csv(resp: FrequencyResponse) -> str:
    """The CSV text of `response_texts`, whole."""
    return "".join(map(itemgetter(0), response_texts(resp)))


def touchstone(resp: FrequencyResponse) -> str:
    """The Touchstone text of `response_texts`, whole."""
    return "".join(map(itemgetter(1), response_texts(resp)))
