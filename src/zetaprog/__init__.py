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
"""

__version__ = "0.1.0"

from .dioph import (DiophantineTuple, ProgressionSpec, RationalForm, delta,
                    detect_rational, find_tuple, minimal_fraction,
                    rational_approximations, waldschmidt_bound)
from .errors import (AccuracyError, CapError, DegenerateDenominatorError,
                     PoleError, QuadratureError, ToleranceError, ZetaprogError)
from .kernels import afe_square, eval_G, eval_H, eval_W, h_many, w_many
from .moments import (CapWarning, DirichletPoly, Mollifier, MomentReport,
                      NonvanishingReport, ProgressionSample, F_func, F_func_series,
                      F_prime, H_ell, continuous_twisted_moment, empirical_nonvanishing,
                      eval_poly, moment_report, mollifier_coeffs, nonvanishing_bound,
                      predict_E, predict_E_prime, sample_progression)
from .resonance import (EulerPrediction, ExploratoryWarning, ExtremeReport, ResidualWarning,
                        Resonator, build_excluded_set, euler_product_prediction,
                        extreme_search, ratio_R, resonator_coeffs)
from .window import SmoothWindow
from .zeta import (RS_MIN_T, main_sum, progression_sum, zeta_critical, zeta_critical_grid,
                   zeta_em, zeta_on_progression)

__all__ = [
    "__version__",
    # window
    "SmoothWindow",
    # kernels
    "eval_G", "eval_W", "eval_H",
    "w_many", "h_many", "afe_square",
    # zeta engines
    "RS_MIN_T", "zeta_em", "zeta_critical",
    "zeta_critical_grid", "main_sum", "progression_sum",
    "zeta_on_progression",
    # progressions and diophantine machinery
    "ProgressionSpec", "RationalForm", "DiophantineTuple", "minimal_fraction",
    "detect_rational", "delta", "find_tuple", "rational_approximations",
    "waldschmidt_bound",
    # moments
    "DirichletPoly", "Mollifier", "MomentReport", "NonvanishingReport",
    "ProgressionSample", "sample_progression", "mollifier_coeffs", "eval_poly",
    "continuous_twisted_moment", "F_func", "F_func_series", "F_prime", "H_ell",
    "predict_E", "predict_E_prime", "moment_report", "nonvanishing_bound",
    "empirical_nonvanishing", "CapWarning",
    # resonance
    "Resonator", "EulerPrediction", "ExtremeReport", "ExploratoryWarning",
    "ResidualWarning", "build_excluded_set", "resonator_coeffs", "ratio_R",
    "euler_product_prediction", "extreme_search",
    # errors
    "ZetaprogError", "PoleError", "AccuracyError", "ToleranceError",
    "QuadratureError", "CapError", "DegenerateDenominatorError",
]
