"""Lambert W and the theta recursion against an independent mpmath oracle."""

import math

import numpy as np
import pytest

from nodal import constants as cn
from nodal.specfun import lambert_w0

mpmath = pytest.importorskip("mpmath")

DIGITS = 50


def _draws():
    """Log-spread arguments in [-1/e + 1e-16, 1e300]: by distance to the
    branch point below 0, by magnitude above it."""
    rng = np.random.default_rng(1908)
    gap = np.exp(rng.uniform(math.log(1e-16), -1.0, 600))
    pos = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 600))
    return [-math.exp(-1.0) + float(g) for g in gap] + [float(x) for x in pos]


def test_lambert_w0_against_mpmath():
    with mpmath.workdps(DIGITS):
        for x in _draws():
            xm = mpmath.mpf(x)
            ref = mpmath.lambertw(xm)
            err = abs(mpmath.mpf(lambert_w0(x)) - ref)
            # relative accuracy away from the branch point; near it W has a
            # square-root singularity, so one ulp in x moves W by ~1/sqrt(x + 1/e)
            bound = 1e-15 * abs(ref) + 2e-16 / mpmath.sqrt(xm + mpmath.exp(-1))
            assert err <= bound, x


def test_theta_against_mpmath_recursion():
    theta = cn.theta_sequence(200).theta
    with mpmath.workdps(DIGITS):
        th = mpmath.mpf(2)
        for k in range(1, 201):
            y = 2 / (2 + th)
            th = 2 / mpmath.lambertw(y * mpmath.exp(-y)) + 2
            assert abs(theta[k] - th) <= 2e-15 * th, k
