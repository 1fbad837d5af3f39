"""The in-repo DOP853 stepper and Brent root finder against SciPy's."""

import math
import re
import warnings

import numpy as np
import pytest

from nodal import _dop853
from nodal import radial_ode as ro
from rhs_oracle import boundary_points, min_clamp_rhs

integrate = pytest.importorskip("scipy.integrate")
optimize = pytest.importorskip("scipy.optimize")

#: (p, alpha, m): small and huge p, the three weights, and one long solve
KEYS = [(50.0, 0.0, 3), (200.0, 1.0, 4), (400.0, 0.0, 4), (1e4, 0.0, 3),
        (1234.5, 1.0, 4), (3.0, 2.0, 5), (1e8, 0.0, 4), (200.0, 0.0, 30)]


#: SciPy's dop853 return codes that end a run short, as the stepper words them
_FAILURES = {-2: "larger nsteps is needed", -3: "step size becomes too small",
             -4: "problem is probably stiff (interrupted)"}


def _scipy_record(p, q, t0, y0, t_end, rtol, atol, nmax, n_zeros):
    """``_dop853.solve_to_zeros`` through ``scipy.integrate.ode('dop853')``
    on the scalar oracle of the right-hand side: the same record, the
    counters (nfcn, nstep, naccpt, nrejct), and SciPy's return code."""
    rows, zero_steps = [], []

    def record(t, y):
        if rows and (rows[-1][1] <= 0.0 <= y[0] or y[0] <= 0.0 <= rows[-1][1]):
            zero_steps.append(len(rows) - 1)
        rows.append([t, *y.tolist()])
        return -1 if len(zero_steps) == n_zeros else 0

    rhs = min_clamp_rhs(p, q)
    solver = integrate.ode(lambda t, y: rhs(t, y.tolist())).set_integrator(
        "dop853", rtol=rtol, atol=atol, nsteps=nmax, beta=0.04)
    solver.set_solout(record)
    solver.set_initial_value(y0, t0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # SciPy warns of a run that ends short
        solver.integrate(t_end)
    counts = tuple(int(c) for c in solver._integrator.iwork[16:20])
    solver.set_solout(None)
    # u_t changes sign over the step, touching zero included, from the first zero step on
    crit_steps = [k for k in range(zero_steps[0] if zero_steps else len(rows), len(rows) - 1)
                  if rows[k][2] <= 0.0 <= rows[k + 1][2] or rows[k + 1][2] <= 0.0 <= rows[k][2]]
    return rows, zero_steps, crit_steps, counts, solver.get_return_code()


@pytest.mark.parametrize("key", KEYS, ids=str)
def test_steps_counters_and_events_match_scipy(key, monkeypatch):
    calls, roots = [], []
    stepper, brent = _dop853.solve_to_zeros, ro._brentq

    def recording_stepper(*args):
        out = stepper(*args)
        calls.append((args, out))
        return out

    def checked_brent(f, xa, xb, xtol, rtol):
        root = brent(f, xa, xb, xtol, rtol)
        roots.append((root, optimize.brentq(f, xa, xb, xtol=xtol, rtol=rtol)))
        return root

    monkeypatch.setattr(_dop853, "solve_to_zeros", recording_stepper)
    monkeypatch.setattr(ro, "_brentq", checked_brent)
    w = ro._solve_impl(*key, ro.default_tolerance())
    [(args, (rows, zero_steps, crit_steps, counts))] = calls
    assert args[:2] == (key[0], 2.0 + key[1])  # p and q: the oracle's right-hand side
    want_rows, want_zero_steps, want_crit_steps, want_counts, code = _scipy_record(*args)
    assert code == 2  # stopped by the recorder at the last zero
    # every accepted t and all four state components, bit for bit
    assert len(rows) == len(want_rows)
    assert np.array(rows).tobytes() == np.array(want_rows).tobytes()
    assert zero_steps == want_zero_steps and len(zero_steps) == key[2]
    assert crit_steps == want_crit_steps and len(crit_steps) >= key[2] - 1
    assert counts == want_counts
    # every zero and critical point: the same double as scipy.optimize.brentq
    assert len(roots) >= 2 * key[2] - 1
    assert all(got == want for got, want in roots), roots
    assert set(w.log_zeros) | set(w.log_crit) <= {got for got, _ in roots}


@pytest.mark.parametrize("p, alpha", [(1.5, 0.0), (50.0, 0.0), (400.0, 1.0), (1e4, 2.5)])
def test_branch_edge_starts_match_scipy(p, alpha):
    # from each finite start on a branch edge of the right-hand side, the
    # stepper's first accepted steps over one unit of t are SciPy's on the
    # oracle, bit for bit; a start whose exponent is clamped at _EXP_CAP fails
    # the first step-size test on both sides
    q, accepted = 2.0 + alpha, 0
    for t0, u0 in boundary_points(p, q):
        if not math.isfinite(u0):
            continue
        args = (p, q, t0, [u0, 0.7, 1.25, -2.5], t0 + 1.0, 1e-12, 1e-14, 1000, 2)
        *want, code = _scipy_record(*args)
        if code < 0:
            with pytest.raises(_dop853.StepFailure, match=f"^{re.escape(_FAILURES[code])}$"):
                _dop853.solve_to_zeros(*args)
            assert len(want[0]) == 1, (t0, u0)
            continue
        rows, zero_steps, crit_steps, counts = _dop853.solve_to_zeros(*args)
        assert np.array(rows).tobytes() == np.array(want[0]).tobytes(), (t0, u0)
        assert [zero_steps, crit_steps, counts] == want[1:], (t0, u0)
        accepted += len(rows) - 1
    assert accepted >= 10
