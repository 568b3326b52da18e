"""Boundary properties: every float input, nan, +-inf, subnormals and 1e300
included, either raises a typed error (ValueError or a ZetaprogError) or
gives only finite values."""
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaprog import (DirichletPoly, ProgressionSpec, SmoothWindow, ZetaprogError,
                      progression_sum, sample_progression, zeta_on_progression)
from zetaprog.zeta import RS_MAX_T, RS_MIN_T

_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1e300, -1e300, 0.5, RS_MIN_T, -RS_MIN_T, RS_MAX_T, math.nextafter(RS_MAX_T, math.inf)]
FLOATS = st.one_of(st.floats(), st.floats(-3e7, 3e7), st.sampled_from(_SPECIAL))

BOUNDARY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def _typed_or_value(fn, *args):
    """fn(*args), or None if it raised ValueError or a ZetaprogError."""
    try:
        return fn(*args)
    except (ValueError, ZetaprogError):
        return None


@BOUNDARY
@given(alpha=FLOATS, beta=FLOATS)
def test_progression_spec_boundary(alpha, beta):
    spec = _typed_or_value(ProgressionSpec, alpha, beta)
    if spec is not None:
        assert math.isfinite(spec.alpha) and math.isfinite(spec.beta)


@BOUNDARY
@given(edge=FLOATS)
def test_smooth_window_boundary(edge):
    window = _typed_or_value(SmoothWindow, edge)
    if window is not None:
        assert math.isfinite(window.plateau_mass)
        assert np.all(np.isfinite(window.phi(np.linspace(0.9, 2.1, 25))))


@BOUNDARY
@given(t0=FLOATS, h=FLOATS, count=st.integers(0, 64))
def test_zeta_on_progression_boundary(t0, h, count):
    z = _typed_or_value(zeta_on_progression, t0, h, count)
    if z is not None:
        assert z.shape == (count,) and np.all(np.isfinite(z))


@BOUNDARY
@given(t0=FLOATS, h=FLOATS, count=st.integers(0, 64),
       ns=st.lists(st.integers(-2, 50), max_size=8), extra=st.integers(-1, 1))
def test_progression_sum_boundary(t0, h, count, ns, extra):
    # terms n <= 0 and coefficient arrays of another length included; a
    # RuntimeWarning (nan or inf reaching numpy) fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        z = _typed_or_value(progression_sum, np.array(ns, dtype=np.int64),
                            np.ones(max(len(ns) + extra, 0)), t0, h, count)
    if z is not None:
        assert z.shape == (count,) and np.all(np.isfinite(z))


@BOUNDARY
@given(edge=FLOATS, xi=FLOATS)
def test_phi_hat_boundary(edge, xi):
    # few edges make a window, so every xi goes to the default window as well
    for window in (SmoothWindow(), _typed_or_value(SmoothWindow, edge)):
        val = None if window is None else _typed_or_value(window.phi_hat, xi)
        if val is not None:
            assert np.isfinite(val)


@BOUNDARY
@given(alpha=FLOATS, beta=FLOATS, T=FLOATS)
def test_sample_progression_boundary(alpha, beta, T):
    spec = _typed_or_value(ProgressionSpec, alpha, beta)
    if spec is not None:
        sample = _typed_or_value(sample_progression, spec, SmoothWindow(), T,
                                 DirichletPoly.one())
        if sample is not None:
            for values in (sample.t, sample.phi, sample.zeta, sample.B):
                assert np.all(np.isfinite(values))
