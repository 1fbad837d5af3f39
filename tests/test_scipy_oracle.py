"""The in-repo DOP853 stepper and Brent root finder against SciPy's."""

import numpy as np
import pytest

from nodal import _dop853
from nodal import radial_ode as ro

integrate = pytest.importorskip("scipy.integrate")
optimize = pytest.importorskip("scipy.optimize")

#: (p, alpha, m): small and huge p, the three weights, and one long solve
KEYS = [(50.0, 0.0, 3), (200.0, 1.0, 4), (400.0, 0.0, 4), (1e4, 0.0, 3),
        (1234.5, 1.0, 4), (3.0, 2.0, 5), (1e8, 0.0, 4), (200.0, 0.0, 30)]


def _scipy_record(rhs, t0, y0, t_end, rtol, atol, nmax, n_zeros):
    """``_dop853.solve_to_zeros`` through ``scipy.integrate.ode('dop853')``:
    the same record, and the counters (nfcn, nstep, naccpt, nrejct)."""
    rows, zero_steps = [], []

    def record(t, y):
        if rows and (rows[-1][1] <= 0.0 <= y[0] or y[0] <= 0.0 <= rows[-1][1]):
            zero_steps.append(len(rows) - 1)
        rows.append([t, *y.tolist()])
        return -1 if len(zero_steps) == n_zeros else 0

    solver = integrate.ode(lambda t, y: rhs(t, y.tolist())).set_integrator(
        "dop853", rtol=rtol, atol=atol, nsteps=nmax, beta=0.04)
    solver.set_solout(record)
    solver.set_initial_value(y0, t0)
    solver.integrate(t_end)
    counts = tuple(int(c) for c in solver._integrator.iwork[16:20])
    solver.set_solout(None)
    assert solver.get_return_code() == 2  # stopped by the recorder at the last zero
    # u_t changes sign over the step, touching zero included, from the first zero step on
    crit_steps = [k for k in range(zero_steps[0], len(rows) - 1)
                  if rows[k][2] <= 0.0 <= rows[k + 1][2] or rows[k + 1][2] <= 0.0 <= rows[k][2]]
    return rows, zero_steps, crit_steps, counts


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
    want_rows, want_zero_steps, want_crit_steps, want_counts = _scipy_record(*args)
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
