"""Independent numerical oracles used by the tests.

These deliberately avoid the code paths they check: quadrature instead of
the AGM, fixed-step Simpson instead of the closed-form power-law integral,
closed-form reflection formulas instead of the ABCD cascade, a complex
chain product with every element's matrix computed on its own instead of
the cascade's shared line phases and real arithmetic, bisection instead
of algebraic solutions, one `json.dumps` or f-string per site
instead of the layout writers' per-axis text, and one list of RF rows
joined once instead of the RF writers' blocks.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math

import numpy as np

from densewire import rfnet

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by the SI definition of the metre


def simpson(f, a: float, b: float, n: int = 20001) -> float:
    """Composite Simpson on n (odd) uniformly spaced points."""
    if n % 2 == 0:
        n += 1
    x = np.linspace(a, b, n)
    y = np.asarray([f(v) for v in x])
    h = (b - a) / (n - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def elliptic_k_quadrature(k: float, n: int = 200001) -> float:
    """K(k) by direct quadrature of 1/sqrt(1 - k^2 sin^2 t) over [0, pi/2]."""
    x = np.linspace(0.0, math.pi / 2.0, n)
    y = 1.0 / np.sqrt(1.0 - (k * np.sin(x)) ** 2)
    h = (math.pi / 2.0) / (n - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def bisect(f, lo: float, hi: float, tol: float = 1e-15, iters: int = 200) -> float:
    """Root of f on [lo, hi] with a sign change."""
    flo = f(lo)
    if flo == 0:
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0 or (hi - lo) < tol * max(1.0, abs(mid)):
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def line_two_step_s11(z_line: float, z_port: float, beta_l: float) -> complex:
    """Input reflection of a uniform line between equal ports, closed form."""
    gamma = (z_line - z_port) / (z_line + z_port)
    e = cmath.exp(-2j * beta_l)
    return gamma * (1.0 - e) / (1.0 - gamma * gamma * e)


def line_two_step_s21(z_line: float, z_port: float, beta_l: float) -> complex:
    """Forward transmission of a uniform line between equal ports."""
    gamma = (z_line - z_port) / (z_line + z_port)
    e2 = cmath.exp(-2j * beta_l)
    return (1.0 - gamma * gamma) * cmath.exp(-1j * beta_l) / (1.0 - gamma * gamma * e2)


def brute_force_cascade(matrices):
    """Plain elementwise 2x2 complex product, no numpy batching."""
    total = [[1.0 + 0j, 0.0 + 0j], [0.0 + 0j, 1.0 + 0j]]
    for m in matrices:
        a = total
        b = [[complex(m[0][0]), complex(m[0][1])], [complex(m[1][0]), complex(m[1][1])]]
        total = [
            [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
        ]
    return total


def _complex_abcd(e, f: np.ndarray) -> tuple:
    """One element's A, B, C, D over `f` as complex or real scalars and vectors,
    each written as the textbook matrix entry (Pozar, table 4.1)."""
    if isinstance(e, rfnet.UniformLine):
        beta_l = 2.0 * math.pi * f * math.sqrt(e.eps_eff) / SPEED_OF_LIGHT * e.length
        cos, sin = np.cos(beta_l), np.sin(beta_l)
        return cos, 1j * e.z0 * sin, 1j * sin / e.z0, cos
    if isinstance(e, rfnet.SeriesImpedance):
        return 1.0, e.resistance + 1j * 2.0 * math.pi * f * e.inductance, 0.0, 1.0
    if isinstance(e, rfnet.ShuntAdmittance):
        return 1.0, 0.0, 1j * 2.0 * math.pi * f * e.capacitance, 1.0
    raise TypeError(f"not a network element: {e!r}")


def unshared_cascade(chain, f) -> list:
    """A, B, C and D of the chain as complex vectors: every element's matrix
    computed on its own, and every product in complex arithmetic."""
    A, B, C, D = _complex_abcd(chain[0], f)
    for e in chain[1:]:
        a, b, c, d = _complex_abcd(e, f)
        A, B, C, D = A * a + B * c, A * b + B * d, C * a + D * c, C * b + D * d
    return [np.broadcast_to(v, f.shape).astype(complex) for v in (A, B, C, D)]


def columnar_layout_json(layout, cfg) -> str:
    """layout.json format 2 as one compact, key-sorted `json.dumps` of the
    whole document, every site coordinate a list entry of its own."""
    def columns(sites):
        return {"x": [x for _ in sites.ys for x in sites.xs],
                "y": [y for y in sites.ys for _ in sites.xs]}

    doc = {
        "format": 2,
        "units": "m",
        "grid": {"side_count": layout.side_count, "pitch": layout.pitch,
                 "channel_width": layout.channel_width, "channel_depth": layout.channel_depth},
        "pads": columns(layout.pad_centers),
        "solder_balls": columns(layout.solder_ball_sites),
        "annotations": [dataclasses.asdict(a) for a in layout.annotations],
        "config": dataclasses.asdict(cfg),
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def svg_use_lines(layout) -> list[str]:
    """The SVG's <use> lines, one f-string per site: pads ("site") row by
    row with x fastest, then the solder balls ("ball")."""
    return [f'<use xlink:href="#{symbol}" x="{x * 1e6:.3f}" y="{y * 1e6:.3f}"/>'
            for symbol, sites in (("site", layout.pad_centers), ("ball", layout.solder_ball_sites))
            for x, y in sites]


def _rf_rows(fmt: str, columns) -> list[str]:
    return [fmt % row for row in zip(*(np.asarray(c).tolist() for c in columns))]


def response_csv(resp) -> str:
    """The RF response CSV: one `%` per row, every line joined once."""
    lines = ["frequency_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db"]
    lines += _rf_rows("%.10g,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g",
                      (resp.frequencies, resp.s11.real, resp.s11.imag, resp.s21.real,
                       resp.s21.imag, resp.s11_db(), resp.s21_db()))
    return "\n".join(lines) + "\n"


def touchstone(resp) -> str:
    """The Touchstone text, v1 or (unequal references) v2.0: one `%` per
    row, every line joined once."""
    v2 = resp.z_load != resp.z_src
    lines = [f"# Hz S RI R {resp.z_src:.12g}"]
    if v2:
        lines = ["[Version] 2.0", *lines, "[Number of Ports] 2", "[Two-Port Data Order] 21_12",
                 f"[Number of Frequencies] {len(resp.frequencies)}",
                 f"[Reference] {resp.z_src:.12g} {resp.z_load:.12g}", "[Network Data]"]
    lines += _rf_rows("%.10g %.12g %.12g %.12g %.12g %.12g %.12g %.12g %.12g",
                      (resp.frequencies, resp.s11.real, resp.s11.imag, resp.s21.real,
                       resp.s21.imag, resp.s21.real, resp.s21.imag, resp.s22.real, resp.s22.imag))
    if v2:
        lines.append("[End]")
    return "\n".join(lines) + "\n"
