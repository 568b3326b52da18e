"""Composite Gauss-Legendre panels: a rule the package does not use, kept as
an independent oracle for its trapezoid."""
import numpy as np
from numpy.polynomial.legendre import leggauss


def gl_panels(a: float, b: float, panels: int, deg: int = 20):
    """Flat (nodes, weights) of `panels` equal degree-`deg` panels on [a, b]."""
    x, w = leggauss(deg)
    half = 0.5 * (b - a) / panels
    mids = a + half * (2 * np.arange(panels) + 1)
    return (mids[:, None] + half * x).ravel(), np.tile(half * w, panels)
