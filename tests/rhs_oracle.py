"""The radial right-hand side as a scalar oracle, and the points on its branch edges.

``_dop853.solve_to_zeros`` evaluates the right-hand side inline at every
stage, and ``radial_ode._rhs_array`` evaluates it on arrays; both are
checked against :func:`min_clamp_rhs`, the form it was first written in.
"""

import math

from nodal import radial_ode as ro


def min_clamp_rhs(p, q):
    """The right-hand side as it was written on NumPy scalars, with
    ``min()`` clamps: ``rhs(t, y)`` reads y[0] = u and y[1] = u_t and
    returns the four derivatives (u_t, -f, u_t^2, g)."""
    log = math.log
    exp = math.exp
    copysign = math.copysign

    def rhs(t, y):
        u = y[0]
        v = y[1]
        au = abs(u)
        if au < 1e-300:
            return (v, 0.0, v * v, 0.0)
        lu = log(au)
        ex = q * t + p * lu
        f = copysign(exp(min(ex, ro._EXP_CAP)), u) if ex > -700.0 else 0.0
        exg = ex + lu
        g = exp(min(exg, ro._EXP_CAP)) if exg > -700.0 else 0.0
        return (v, -f, v * v, g)

    return rhs


def _t_hitting(p, q, u, target, with_lu):
    """A t at which the RHS's exponent (``ex``, or ``ex + ln|u|`` when
    ``with_lu``) evaluates to exactly ``target``; None if no double does."""
    lu = math.log(abs(u))
    t = (target - (p + with_lu) * lu) / q
    for _ in range(64):
        ex = q * t + p * lu
        val = ex + lu if with_lu else ex
        if val == target:
            return t
        t = math.nextafter(t, math.inf if val < target else -math.inf)
    return None


def boundary_points(p, q):
    """(t, u) on every branch edge of the RHS."""
    pts = [
        (100.0 / q, 1.0),             # ex == exg == _EXP_CAP
        (-700.0 / q, -1.0),           # ex == exg == -700
        (3.0, 1e-300),                # |u| == 1e-300 takes the log branch
        (3.0, -1e-300),
        (3.0, math.nextafter(1e-300, 0.0)),
        (3.0, math.nan),
        (-5.0, math.nan),
    ]
    for target in (ro._EXP_CAP, -700.0):
        for with_lu in (False, True):
            for u in [(-1.0) ** k * (0.05 + 0.037 * k) for k in range(80)]:
                t = _t_hitting(p, q, u, target, with_lu)
                if t is not None:
                    pts.append((t, u))
                    break
            else:
                raise AssertionError(f"no t hits {target} (with_lu={with_lu})")
    return pts
