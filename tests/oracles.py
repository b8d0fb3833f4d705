"""Independent numerical oracles used by the tests.

These deliberately avoid the code paths they check: quadrature instead of
the AGM, fixed-step Simpson instead of the closed-form power-law integral,
closed-form reflection formulas instead of the ABCD cascade, and bisection
instead of algebraic solutions.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


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
