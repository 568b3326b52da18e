"""Composite Gauss-Legendre panels, the one quadrature primitive everything shares."""
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@lru_cache(maxsize=64)
def _base_rule(deg: int):
    return leggauss(deg)


def gl_panels(a: float, b: float, panels: int, deg: int = 20):
    """Nodes and weights for `panels` equal Gauss-Legendre panels on [a, b].

    Returns flat arrays (nodes, weights) with panels*deg entries each.  The
    node layout is a pure function of the arguments, which keeps every
    integral in the package bit-reproducible.
    """
    x, w = _base_rule(deg)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return nodes, wts
