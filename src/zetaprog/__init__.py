"""Numerics for zeta on vertical arithmetic progressions 1/2 + i(alpha*ell + beta).

The package computes, at desk scale, every quantity in the story of how the
discrete second moment along a progression differs from its continuous
counterpart: the smooth window and its transform, the kernels W (closed
form) and H (contour / Chebyshev), zeta on a progression of heights
(Euler-Maclaurin and a Riemann-Siegel accelerator, their Dirichlet sums by
baby-step giant-step), the rationality dichotomy
exp(2*pi*ell/alpha) = m/n with its closed-form correction delta(alpha, beta),
the diophantine tuple machinery behind the corrections, mollified
first/second moments with a nonvanishing lower bound, and resonator
constructions that exhibit extreme values.

Each public name is listed once, in its module's __all__; the package
namespace and its __all__ are the union of those lists.
"""

__version__ = "0.1.0"

from . import dioph, errors, kernels, moments, resonance, window, zeta

__all__ = ["__version__"]
for _module in (window, kernels, zeta, dioph, moments, resonance, errors):
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
del _module
