"""Kernels W (closed form) and H (contour quadrature).

The closed form W(x) = erfc(ln(x)/2)/2 is derivable by completing the square
in the defining contour integral (shift the line to sigma = -ln(x)/2 and the
Gaussian integral collapses); the package returns it directly, so the
defining integral evaluated by mpmath.quad is its independent oracle.  H is
tied to W through its defining series H(x) = sum over r of W(r^2/x)/r.
"""
import ast
import math
import pathlib

import mpmath
import numpy as np
import pytest
from scipy.special import erfc

from zetaprog import eval_H, eval_W, h_many, kernels, w_many, zeta_em
from zetaprog.errors import ToleranceError

EULER_GAMMA = 0.5772156649015329


def _w_oracle(x):
    return 0.5 * erfc(math.log(x) / 2.0)


def test_w_against_erfc_oracle():
    for x in np.exp(np.linspace(math.log(1e-4), math.log(1e4), 41)):
        assert abs(eval_W(float(x)) - _w_oracle(float(x))) < 1e-10


def test_w_at_one_is_half():
    assert abs(eval_W(1.0) - 0.5) < 1e-10


def test_w_complement_identity():
    for x in (1e-3, 0.02, 0.3, 1.7, 40.0, 900.0):
        assert abs(eval_W(x) + eval_W(1.0 / x) - 1.0) < 1e-9


def test_w_small_argument_saturates():
    assert 1.0 - 1e-7 <= eval_W(1e-8) <= 1.0 + 1e-12


def test_w_monotone_decreasing():
    xs = np.exp(np.linspace(-6.0, 6.0, 60))
    vals = [eval_W(float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_w_decay_is_gaussian_in_log_x():
    # erfc(v) <= exp(-v^2), so W(x) <= exp(-(ln x / 2)^2); note this is much
    # slower than a power law for moderate x: W(100) is about 5.6e-4, not
    # anywhere near 100^-5.
    for x in (10.0, 100.0, 1000.0):
        v = math.log(x) / 2.0
        assert eval_W(x) <= math.exp(-v * v)
    assert abs(eval_W(100.0) - 5.642785435506449e-4) < 1e-9


@pytest.mark.parametrize("x", [1e-3, 0.05, 1.0, 30.0, 900.0])
def test_w_against_defining_integral(x):
    # (1/2*pi) * integral over the line w = 1/2 + iy of x^(-w) exp(w^2)/w dy;
    # the integrand at -y is the conjugate of that at y, so the real part
    # over y >= 0, doubled, is the whole integral.
    with mpmath.workdps(30):
        log_x = mpmath.log(x)

        def integrand(y):
            w = mpmath.mpc(0.5, y)
            return (mpmath.exp(w * w - w * log_x) / w).real

        ref = mpmath.quad(integrand, [0, mpmath.inf]) / mpmath.pi
    assert abs(eval_W(x) - float(ref)) < 1e-15


@pytest.mark.parametrize("fn", [eval_W, eval_H, w_many, h_many])
@pytest.mark.parametrize("x", [math.nan, 0.0, -1.0])
def test_kernels_reject_non_positive_and_nan(fn, x):
    arg = x if fn in (eval_W, eval_H) else np.array([1.0, x])
    with pytest.raises(ValueError):
        fn(arg)


# ---------------------------------------------------------------------------
# H
# ---------------------------------------------------------------------------

def _h_series_oracle(x, r_max=4999):
    rs = np.arange(1, r_max + 1, dtype=float)
    return float(np.sum(w_many(rs * rs / x) / rs))


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 100.0])
def test_h_series_identity(x):
    # W decays like a Gaussian in ln, so r <= 4999 leaves a tail far below
    # the 1e-6 budget for x <= 100.
    assert abs(eval_H(x) - _h_series_oracle(x)) < 1e-6


def test_h_asymptotic_branch_and_continuity():
    # above the crossover the implementation returns (ln x)/2 + gamma
    # directly; just below it the contour value must already agree closely.
    assert abs(eval_H(10001.0) - (0.5 * math.log(10001.0) + EULER_GAMMA)) < 1e-14
    assert abs(eval_H(9999.0) - (0.5 * math.log(9999.0) + EULER_GAMMA)) < 1e-11


def test_h_asymptotic_error_profile():
    # frozen from direct evaluation: the asymptotic is good to ~5e-7 by
    # x=300 and ~5e-10 by x=1000, but off by a few 1e-3 near x = e^2 --
    # the formula needs x in the hundreds before 1e-6 agreement.
    def gap(x):
        return abs(eval_H(x) - (0.5 * math.log(x) + EULER_GAMMA))

    assert 1e-3 < gap(math.e ** 2) < 1e-2
    assert 1e-4 < gap(20.0) < 1e-3
    assert gap(300.0) < 1e-6
    assert gap(1000.0) < 1e-8


@pytest.fixture()
def contour(monkeypatch):
    """Set the H contour's module constants; the cached line is rebuilt from
    them, and from the defaults again after the test."""
    def set_contour(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(kernels, name, value)
        kernels._zeta_line.cache_clear()

    yield set_contour
    monkeypatch.undo()
    kernels._zeta_line.cache_clear()


def test_h_contour_shift_independence(contour):
    # the defining integral is contour-independent within the analyticity
    # strip; sigma is only a numerical choice.
    xs = (0.01, 0.5, 1.0, 7.0, 300.0)
    refs = [eval_H(x) for x in xs]
    for sigma in (0.25, 0.5, 0.9):
        contour(_SIGMA=sigma)
        for x, ref in zip(xs, refs):
            assert abs(eval_H(x) - ref) < 1e-8


def test_h_self_convergence_under_refinement(contour):
    xs = (1.0, 0.1, 25.0)
    refs = [eval_H(x) for x in xs]
    contour(_HEIGHT_CUT=2 * kernels._HEIGHT_CUT, _STEP=kernels._STEP / 2)
    for x, ref in zip(xs, refs):
        assert abs(eval_H(x) - ref) < 1e-8


@pytest.mark.parametrize("constants", [{}, {"_SIGMA": 0.25}, {"_HEIGHT_CUT": 120.0}],
                         ids=["default", "sigma-0.25", "cutoff-121"])
def test_zeta_line_matches_zeta_em(contour, constants):
    # The contour's zeta(1 + 2w) is one progression_sum head and the
    # Euler-Maclaurin tail at the cutoff of the highest node; the reference
    # is zeta_em at each node.  At |Im s| = 240 the cutoff is 121, not 50.
    contour(**constants)
    w, _, zv = kernels._zeta_line()
    ref = np.array([zeta_em(1.0 + 2.0 * wi) for wi in w])
    assert np.max(np.abs(zv - ref) / np.abs(ref)) < 1e-14


def _relative_imports(node):
    """The sibling modules named by the relative imports under node."""
    return {imp.module.split(".")[0] if imp.module else alias.name
            for imp in ast.walk(node) if isinstance(imp, ast.ImportFrom) and imp.level
            for alias in imp.names}


def test_import_direction():
    # zeta imports no sibling but errors, and kernels imports zeta at its top:
    # no import is deferred to break a cycle
    src = pathlib.Path(kernels.__file__).parent
    zeta_tree = ast.parse((src / "zeta.py").read_text())
    kernels_tree = ast.parse((src / "kernels.py").read_text())
    assert _relative_imports(zeta_tree) == {"errors"}
    assert "zeta" in _relative_imports(kernels_tree)
    deferred = [imp.lineno for fn in ast.walk(kernels_tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for imp in ast.walk(fn) if isinstance(imp, (ast.Import, ast.ImportFrom))]
    assert deferred == []


def test_h_positive_and_increasing():
    xs = np.exp(np.linspace(-2.0, 8.0, 40))
    vals = [eval_H(float(x)) for x in xs]
    assert all(v > 0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# vectorized evaluators (H by its Chebyshev table) against the scalar ones
# ---------------------------------------------------------------------------

def test_w_many_matches_scalar(rng):
    xs = np.exp(rng.uniform(math.log(1e-4), math.log(9e3), 200))
    vals = w_many(xs)
    for x, v in zip(xs, vals):
        assert abs(v - eval_W(float(x))) < 1e-9


def test_h_many_matches_scalar(rng):
    xs = np.exp(rng.uniform(math.log(1e-4), math.log(9e3), 200))
    vals = h_many(xs)
    for x, v in zip(xs, vals):
        assert abs(v - eval_H(float(x))) < 1e-9


def test_h_table_checks_imaginary_residual(monkeypatch):
    # every h_many value comes from the table, so the contour's imaginary
    # residual is checked where the table is built, at eval_H's 1e-8
    contour = kernels._h_contour
    monkeypatch.setattr(kernels, "_h_contour", lambda u: contour(u) + 1e-6j)
    kernels._h_table.cache_clear()
    try:
        with pytest.raises(ToleranceError, match="imaginary residual"):
            h_many(np.array([0.5, 5.0]))
    finally:
        kernels._h_table.cache_clear()


def test_eval_H_checks_imaginary_residual(monkeypatch):
    contour = kernels._h_contour
    monkeypatch.setattr(kernels, "_h_contour", lambda u: contour(u) + 1e-6j)
    with pytest.raises(ToleranceError, match="imaginary residual"):
        eval_H(5.0)


def test_many_cover_out_of_range_branches():
    # the Chebyshev table spans exp(-20) < x < 1e4; probe both of its edges
    xs = np.array([1e-6, 3e-5, 2e4, 1e6,
                   math.exp(-20.0) * (1.0 + 1e-9), 1e4 * (1.0 - 1e-9)])
    w = w_many(xs)
    h = h_many(xs)
    for x, wv, hv in zip(xs, w, h):
        assert abs(wv - eval_W(float(x))) < 1e-9
        assert abs(hv - eval_H(float(x))) < 1e-9


def test_many_preserve_shape_and_determinism():
    xs = np.array([0.5, 5.0, 50.0])
    assert np.array_equal(w_many(xs), w_many(xs))
    assert np.array_equal(h_many(xs), h_many(xs))
    assert w_many(xs).shape == xs.shape
