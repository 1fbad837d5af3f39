"""Property tests of the radial solver over its whole parameter envelope.

p is drawn log-uniform in [1.01, 1e6], alpha in [0, 20] and m in 1..8,
under the derandomized profile registered in ``conftest.py``.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from nodal import radial_ode as ro

_params = st.tuples(
    st.floats(math.log(1.01), math.log(1e6)).map(math.exp),
    st.floats(0.0, 20.0),
    st.integers(1, 8),
)


@given(_params)
def test_solution_properties(params):
    p, alpha, m = params
    w = ro.solve_whole_plane(p, alpha, m)

    # zeros and critical points interlace, all above the series start
    seq = np.empty(2 * m - 1)
    seq[0::2] = w.log_zeros
    seq[1::2] = w.log_crit
    assert w.t_start < seq[0] and np.all(np.diff(seq) > 0.0)

    # the series-to-dense handoff at t_start is continuous
    below = np.nextafter(w.t_start, -math.inf)
    assert np.max(np.abs(w.eval_state(w.t_start) - w.eval_state(below))) <= 1e-15

    # the exact Pohozaev identity is scale-free, so it holds even where
    # u(0) = exp(kappa L) on the unit disc is beyond the double range
    assert ro.pohozaev_residual(ro.dirichlet_solution(w, m)) <= 1e-7
    if m >= 2:
        assert ro.neumann_solution(w, m).log_crit[-1] == 0.0

    # the Henon dual path: the alpha = 0 solution mapped by r -> r^((2+alpha)/2)
    if p <= 100.0:
        assert ro.henon_crosscheck(ro.solve_whole_plane(p, 0.0, m), alpha) <= 1e-8
