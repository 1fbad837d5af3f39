"""DOP853 for the radial solver: the tableau, a plain-float stepper that
notes every event, and the dense output.

The explicit Runge-Kutta pair of order 8(5,3) by Dormand and Prince, with
step-size control and stiffness detection as in Hairer's ``dop853.f``
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.5-II.6), transcribed so
that it takes the same steps as SciPy's ``ode('dop853', beta=0.04)`` bit
for bit: Hairer's ``hinit`` for the first step, the twelve stages summed in
the Fortran order, the error norm ``|h| err5^2 / sqrt(n (err5^2 + 0.01
err3^2))``, PI control with beta = 0.04, safety 0.9 and the step ratio
clamped to [0.3, 6], and after a rejected step a trial step of 0.3 h.

The stepper is specialized to the radial system ``(u, u_t, Eg, Ep)`` of
``radial_ode``: it takes (p, q), not a right-hand side, and evaluates
the right-hand side inline at each stage, with the branches and
constants of its array form ``radial_ode._rhs_array``; a Python call per
stage cost about a fifth of the stepper's time.  The right-hand side
reads only ``(u, u_t)``, the energies being quadratures, so the stages
form only those two inputs, and the energy rates of stages 2-5 only
where they are read.  It is written out stage by stage on Python floats;
a loop over the tableau costs 1.4-1.9 times as much per step.  It alone
decides which steps hold a zero of u or of u_t.

:class:`DenseOutput` rebuilds DOP853's 7th-order interpolant of accepted
steps after the fact, from their endpoints and re-evaluated stages.  The
tableau below is the one source of DOP853's coefficients, and nothing
outside this module reads it.
"""

from __future__ import annotations

import math

import numpy as np

from .radial_ode import _EXP_CAP, _EXP_FLOOR, _U_FLOOR

#: the method's stages; stage 13 is the first stage of the next step
N_STAGES = 12

#: nodes c_1 .. c_16: the twelve stages, the next step's first, and the
#: three extra stages of the dense output
C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778,
])

#: Runge-Kutta matrix: row s holds stage s+1's weights; row 12 is the 8th-order
#: solution's weights b, rows 13-15 the extra stages of the dense output
A = np.zeros((16, 16))
A[1, :1] = [5.26001519587677318785587544488e-2]
A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
A[3, :3] = [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]
A[4, :4] = [2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
            9.24834003261792003115737966543e-1]
A[5, :5] = [3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
            1.25467687566822425016691814123e-1]
A[6, :6] = [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
            6.02165389804559606850219397283e-2, -1.7578125e-2]
A[7, :7] = [3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
            1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
            8.27378916381402288758473766002e-3]
A[8, :8] = [6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
            -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
            2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]
A[9, :9] = [4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
            -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
            1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
            -2.03312017085086261358222928593e-2]
A[10, :10] = [-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
              1.09143734899672957818500254654, -8.14978701074692612513997267357,
              -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
              2.49360555267965238987089396762, -3.0467644718982195003823669022]
A[11, :11] = [2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
              -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
              2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
              -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
              6.43392746015763530355970484046e-1]
A[12, :12] = [5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
              4.45031289275240888144113950566, 1.89151789931450038304281599044,
              -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
              -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
              4.47106157277725905176885569043e-2]
A[13, :13] = [5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
              2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
              -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
              8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
              -8.298e-3]
A[14, :14] = [3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
              2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
              -5.49237485713909884646569340306e-2, 0.0, 0.0,
              -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
              -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1]
A[15, :15] = [-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
              -4.69762141536116384314449447206, 7.68342119606259904184240953878,
              4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
              0.0, 0.0, 0.0, -1.39902416515901462129418009734e-3,
              2.9475147891527723389556272149, -9.15095847217987001081870187138]

#: 3rd-order error estimate: b minus these weights on stages 1, 9 and 12
BHH = (0.244094488188976377952755905512, 0.733846688281611857341361741547,
       0.220588235294117647058823529412e-1)

#: 5th-order error estimate: weights on stages 1 and 6-12
ER = (0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
      -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
      -0.3503288487499736816886487290, 0.3341791187130174790297318841,
      0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)

#: dense output: weights of the interpolant's four highest coefficients on all 16 stages
D = np.zeros((4, 16))
D[0] = [-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
        0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
        0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
        -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
        0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
        0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
        -0.44360363875948939664310572000e+1]
D[1] = [0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
        0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
        -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
        0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
        -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
        -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
        0.35816841486394083752465898540e+2]
D[2] = [0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
        -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
        0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
        0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
        0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
        -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
        0.11992291136182789328035130030e+2]
D[3] = [-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
        -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
        0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
        -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
        0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
        0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
        -0.14972683625798562581422125276e+3]

for _arr in (C, A, D):
    _arr.setflags(write=False)

#: step control: safety factor, step ratio bounds, PI exponent, unit roundoff
_SAFE, _FAC1, _FAC2, _BETA, _UROUND = 0.9, 0.3, 6.0, 0.04, 2.3e-16

#: accepted steps between stiffness tests
_NSTIFF = 1000


class StepFailure(RuntimeError):
    """The stepper stopped short: its message is DOP853's reason."""


def solve_to_zeros(p: float, q: float, t: float, y: list[float], t_end: float, rtol: float,
                   atol: float, nmax: int, n_zeros: int
                   ) -> tuple[list[list[float]], list[int], list[int], tuple]:
    """Integrate the radial system ``y = (u, u_t, Eg, Ep)`` from t towards
    ``t_end > t`` until u has changed sign ``n_zeros`` times.

    The right-hand side, ``(u_t, -e^(q t) |u|^(p-1) u, u_t^2, e^(q t) |u|^(p+1))``
    with the branches of ``radial_ode._rhs_array``, is evaluated inline at
    each stage.  Returns the record:
    a ``[t, u, u_t, Eg, Ep]`` row at t and at every accepted step; the
    zero steps, the index k of each step (row k -> k + 1) over which u
    changes sign, touching zero included; the critical steps, those over
    which u_t changes sign by the same rule, from the first zero step on
    (before it a sign change of u_t is roundoff on the flat start); and the
    counters (nfcn, nstep, naccpt, nrejct).  The record stops at the step
    holding the ``n_zeros``-th sign change, or at ``t_end``.  Raises
    StepFailure past ``nmax`` steps, when the step size is 0 or falls below
    the roundoff of t, or when the problem turns stiff.
    """
    a21 = float(A[1, 0])
    a31, a32 = A[2, :2].tolist()
    a41, _, a43 = A[3, :3].tolist()
    a51, _, a53, a54 = A[4, :4].tolist()
    a61, _, _, a64, a65 = A[5, :5].tolist()
    a71, _, _, a74, a75, a76 = A[6, :6].tolist()
    a81, _, _, a84, a85, a86, a87 = A[7, :7].tolist()
    a91, _, _, a94, a95, a96, a97, a98 = A[8, :8].tolist()
    a101, _, _, a104, a105, a106, a107, a108, a109 = A[9, :9].tolist()
    a111, _, _, a114, a115, a116, a117, a118, a119, a1110 = A[10, :10].tolist()
    a121, _, _, a124, a125, a126, a127, a128, a129, a1210, a1211 = A[11, :11].tolist()
    b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12 = A[12, :12].tolist()
    _, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = C[:11].tolist()
    bhh1, bhh2, bhh3 = BHH
    er1, er6, er7, er8, er9, er10, er11, er12 = ER
    sqrt, log, exp, copysign = math.sqrt, math.log, math.exp, math.copysign
    tiny, lo, cap, ecap = _U_FLOOR, _EXP_FLOOR, _EXP_CAP, math.exp(_EXP_CAP)
    expo1 = 1.0 / 8.0 - _BETA * 0.2
    facc1, facc2 = 1.0 / _FAC1, 1.0 / _FAC2
    hmax = t_end - t

    # Each stage below is the right-hand side at (ts, su, sv), written out:
    # k_u = sv, k_v = -f, k_g = sv^2, k_p = g, where f = e^ex sign(su) and
    # g = e^(ex + ln|su|) with ex = q ts + p ln|su|, both 0 below |su| = tiny
    # or at exponents <= lo, and clamped at exponent cap.  Nothing reads k_g
    # and k_p of stages 2-5 but the stiffness test, which forms those of
    # stages 4-5 from their saved exponents.
    u, v, eg, ep = y
    k1u, k1g = v, v * v
    au = abs(u)
    if au < tiny:
        k1v = k1p = 0.0
    else:
        lu = log(au)
        ex = q * t + p * lu
        k1v = -copysign(exp(ex) if ex < cap else ecap, u) if ex > lo else -0.0
        ex += lu
        k1p = (exp(ex) if ex < cap else ecap) if ex > lo else 0.0
    # Hairer's hinit: an Euler step sized by the norms of y and y', then
    # h^8 max(|y'|, |y''|) = 0.01
    sku, skv, skg, skp = (atol + rtol * abs(u), atol + rtol * abs(v),
                          atol + rtol * abs(eg), atol + rtol * abs(ep))
    fu, fv, fg, fp = k1u / sku, k1v / skv, k1g / skg, k1p / skp
    dnf = fu * fu + fv * fv + fg * fg + fp * fp
    yu, yv, yg, yp = u / sku, v / skv, eg / skg, ep / skp
    dny = yu * yu + yv * yv + yg * yg + yp * yp
    h = 1.0e-6 if dnf <= 1.0e-10 or dny <= 1.0e-10 else sqrt(dny / dnf) * 0.01
    # hmax if h is NaN, as C's fmin gives: a NaN right-hand side still gets a
    # finite first step, and the step size falls until it is too small
    h = min(hmax, h)
    if h == 0.0:  # |y'| overflowed; h = 0 fails the first step's step-size test
        raise StepFailure("step size becomes too small")
    su, f2u = u + h * k1u, v + h * k1v
    f2g = f2u * f2u
    au = abs(su)
    if au < tiny:
        f2v = f2p = 0.0
    else:
        lu = log(au)
        ex = q * (t + h) + p * lu
        f2v = -copysign(exp(ex) if ex < cap else ecap, su) if ex > lo else -0.0
        ex += lu
        f2p = (exp(ex) if ex < cap else ecap) if ex > lo else 0.0
    fu, fv, fg, fp = (f2u - k1u) / sku, (f2v - k1v) / skv, (f2g - k1g) / skg, (f2p - k1p) / skp
    der2 = sqrt(fu * fu + fv * fv + fg * fg + fp * fp) / h
    der12 = max(abs(der2), sqrt(dnf))
    h1 = max(1.0e-6, abs(h) * 1.0e-3) if der12 <= 1.0e-15 else (0.01 / der12) ** (1.0 / 8)
    h = min(100 * abs(h), h1, hmax)

    nfcn, nstep, naccpt, nrejct = 2, 0, 0, 0
    facold, reject, last = 1.0e-4, False, False
    iasti = nonsti = 0
    hlamb = 0.0
    rows = [[t, u, v, eg, ep]]
    zero_steps: list[int] = []
    crit_steps: list[int] = []
    while True:
        if nstep > nmax:
            raise StepFailure("larger nsteps is needed")
        if 0.1 * abs(h) <= abs(t) * _UROUND:
            raise StepFailure("step size becomes too small")
        if t + 1.01 * h - t_end > 0.0:
            h = t_end - t
            last = True
        nstep += 1

        su, k2u = u + h * a21 * k1u, v + h * a21 * k1v
        au = abs(su)
        if au < tiny:
            k2v = 0.0
        else:
            ex = q * (t + c2 * h) + p * log(au)
            k2v = -copysign(exp(ex) if ex < cap else ecap, su) if ex > lo else -0.0
        su, k3u = u + h * (a31 * k1u + a32 * k2u), v + h * (a31 * k1v + a32 * k2v)
        au = abs(su)
        if au < tiny:
            k3v = 0.0
        else:
            ex = q * (t + c3 * h) + p * log(au)
            k3v = -copysign(exp(ex) if ex < cap else ecap, su) if ex > lo else -0.0
        su, k4u = u + h * (a41 * k1u + a43 * k3u), v + h * (a41 * k1v + a43 * k3v)
        au = abs(su)
        if au < tiny:
            k4v, x4 = 0.0, lo
        else:
            lu = log(au)
            ex = q * (t + c4 * h) + p * lu
            k4v = -copysign(exp(ex) if ex < cap else ecap, su) if ex > lo else -0.0
            x4 = ex + lu
        su, k5u = (u + h * (a51 * k1u + a53 * k3u + a54 * k4u),
                   v + h * (a51 * k1v + a53 * k3v + a54 * k4v))
        au = abs(su)
        if au < tiny:
            k5v, x5 = 0.0, lo
        else:
            lu = log(au)
            ex = q * (t + c5 * h) + p * lu
            k5v = -copysign(exp(ex) if ex < cap else ecap, su) if ex > lo else -0.0
            x5 = ex + lu
        su, k6u = (u + h * (a61 * k1u + a64 * k4u + a65 * k5u),
                   v + h * (a61 * k1v + a64 * k4v + a65 * k5v))
        k6g = k6u * k6u
        au = abs(su)
        if au < tiny:
            k6v = k6p = 0.0
        else:
            lu = log(au)
            ex = q * (t + c6 * h) + p * lu
            k6v = -copysign(exp(ex) if ex < cap else ecap, su) if ex > lo else -0.0
            ex += lu
            k6p = (exp(ex) if ex < cap else ecap) if ex > lo else 0.0
        su, k7u = (u + h * (a71 * k1u + a74 * k4u + a75 * k5u + a76 * k6u),
                   v + h * (a71 * k1v + a74 * k4v + a75 * k5v + a76 * k6v))
        k7g = k7u * k7u
        au = abs(su)
        if au < tiny:
            k7v = k7p = 0.0
        else:
            lu = log(au)
            ex = q * (t + c7 * h) + p * lu
            k7v = -copysign(exp(ex) if ex < cap else ecap, su) if ex > lo else -0.0
            ex += lu
            k7p = (exp(ex) if ex < cap else ecap) if ex > lo else 0.0
        su, k8u = (u + h * (a81 * k1u + a84 * k4u + a85 * k5u + a86 * k6u + a87 * k7u),
                   v + h * (a81 * k1v + a84 * k4v + a85 * k5v + a86 * k6v + a87 * k7v))
        k8g = k8u * k8u
        au = abs(su)
        if au < tiny:
            k8v = k8p = 0.0
        else:
            lu = log(au)
            ex = q * (t + c8 * h) + p * lu
            k8v = -copysign(exp(ex) if ex < cap else ecap, su) if ex > lo else -0.0
            ex += lu
            k8p = (exp(ex) if ex < cap else ecap) if ex > lo else 0.0
        su, k9u = (
            u + h * (a91 * k1u + a94 * k4u + a95 * k5u + a96 * k6u + a97 * k7u + a98 * k8u),
            v + h * (a91 * k1v + a94 * k4v + a95 * k5v + a96 * k6v + a97 * k7v + a98 * k8v))
        k9g = k9u * k9u
        au = abs(su)
        if au < tiny:
            k9v = k9p = 0.0
        else:
            lu = log(au)
            ex = q * (t + c9 * h) + p * lu
            k9v = -copysign(exp(ex) if ex < cap else ecap, su) if ex > lo else -0.0
            ex += lu
            k9p = (exp(ex) if ex < cap else ecap) if ex > lo else 0.0
        su, k10u = (
            u + h * (a101 * k1u + a104 * k4u + a105 * k5u + a106 * k6u + a107 * k7u
                     + a108 * k8u + a109 * k9u),
            v + h * (a101 * k1v + a104 * k4v + a105 * k5v + a106 * k6v + a107 * k7v
                     + a108 * k8v + a109 * k9v))
        k10g = k10u * k10u
        au = abs(su)
        if au < tiny:
            k10v = k10p = 0.0
        else:
            lu = log(au)
            ex = q * (t + c10 * h) + p * lu
            k10v = -copysign(exp(ex) if ex < cap else ecap, su) if ex > lo else -0.0
            ex += lu
            k10p = (exp(ex) if ex < cap else ecap) if ex > lo else 0.0
        su, k11u = (
            u + h * (a111 * k1u + a114 * k4u + a115 * k5u + a116 * k6u + a117 * k7u
                     + a118 * k8u + a119 * k9u + a1110 * k10u),
            v + h * (a111 * k1v + a114 * k4v + a115 * k5v + a116 * k6v + a117 * k7v
                     + a118 * k8v + a119 * k9v + a1110 * k10v))
        k11g = k11u * k11u
        au = abs(su)
        if au < tiny:
            k11v = k11p = 0.0
        else:
            lu = log(au)
            ex = q * (t + c11 * h) + p * lu
            k11v = -copysign(exp(ex) if ex < cap else ecap, su) if ex > lo else -0.0
            ex += lu
            k11p = (exp(ex) if ex < cap else ecap) if ex > lo else 0.0
        tph = t + h
        y12u = u + h * (a121 * k1u + a124 * k4u + a125 * k5u + a126 * k6u + a127 * k7u
                        + a128 * k8u + a129 * k9u + a1210 * k10u + a1211 * k11u)
        k12u = v + h * (a121 * k1v + a124 * k4v + a125 * k5v + a126 * k6v + a127 * k7v
                        + a128 * k8v + a129 * k9v + a1210 * k10v + a1211 * k11v)
        k12g = k12u * k12u
        au = abs(y12u)
        if au < tiny:
            k12v = k12p = 0.0
        else:
            lu = log(au)
            ex = q * tph + p * lu
            k12v = -copysign(exp(ex) if ex < cap else ecap, y12u) if ex > lo else -0.0
            ex += lu
            k12p = (exp(ex) if ex < cap else ecap) if ex > lo else 0.0
        nfcn += 11

        # the 8th-order solution, and its 5th- and 3rd-order error estimates
        du = (b1 * k1u + b6 * k6u + b7 * k7u + b8 * k8u + b9 * k9u + b10 * k10u
              + b11 * k11u + b12 * k12u)
        dv = (b1 * k1v + b6 * k6v + b7 * k7v + b8 * k8v + b9 * k9v + b10 * k10v
              + b11 * k11v + b12 * k12v)
        dg = (b1 * k1g + b6 * k6g + b7 * k7g + b8 * k8g + b9 * k9g + b10 * k10g
              + b11 * k11g + b12 * k12g)
        dp = (b1 * k1p + b6 * k6p + b7 * k7p + b8 * k8p + b9 * k9p + b10 * k10p
              + b11 * k11p + b12 * k12p)
        nu, nv, ng, np_ = u + h * du, v + h * dv, eg + h * dg, ep + h * dp
        sku = atol + rtol * max(abs(u), abs(nu))
        skv = atol + rtol * max(abs(v), abs(nv))
        skg = atol + rtol * max(abs(eg), abs(ng))
        skp = atol + rtol * max(abs(ep), abs(np_))
        e3u = (du - bhh1 * k1u - bhh2 * k9u - bhh3 * k12u) / sku
        e3v = (dv - bhh1 * k1v - bhh2 * k9v - bhh3 * k12v) / skv
        e3g = (dg - bhh1 * k1g - bhh2 * k9g - bhh3 * k12g) / skg
        e3p = (dp - bhh1 * k1p - bhh2 * k9p - bhh3 * k12p) / skp
        e5u = (er1 * k1u + er6 * k6u + er7 * k7u + er8 * k8u + er9 * k9u + er10 * k10u
               + er11 * k11u + er12 * k12u) / sku
        e5v = (er1 * k1v + er6 * k6v + er7 * k7v + er8 * k8v + er9 * k9v + er10 * k10v
               + er11 * k11v + er12 * k12v) / skv
        e5g = (er1 * k1g + er6 * k6g + er7 * k7g + er8 * k8g + er9 * k9g + er10 * k10g
               + er11 * k11g + er12 * k12g) / skg
        e5p = (er1 * k1p + er6 * k6p + er7 * k7p + er8 * k8p + er9 * k9p + er10 * k10p
               + er11 * k11p + er12 * k12p) / skp
        err2 = e3u * e3u + e3v * e3v + e3g * e3g + e3p * e3p
        err = e5u * e5u + e5v * e5v + e5g * e5g + e5p * e5p
        deno = err + 0.01 * err2
        if deno <= 0.0:
            deno = 1.0
        err = abs(h) * err * sqrt(1.0 / (4 * deno))

        # PI control (Gustafsson's stabilization), the ratio kept in [1/6, 1/0.3]
        fac11 = err ** expo1
        fac = max(facc2, min(facc1, fac11 / facold ** _BETA / _SAFE))
        hnew = h / fac
        if err <= 1.0:
            facold = max(err, 1.0e-4)
            naccpt += 1
            f1u, f1g = nv, nv * nv
            au = abs(nu)
            if au < tiny:
                f1v = f1p = 0.0
            else:
                lu = log(au)
                ex = q * tph + p * lu
                f1v = -copysign(exp(ex) if ex < cap else ecap, nu) if ex > lo else -0.0
                ex += lu
                f1p = (exp(ex) if ex < cap else ecap) if ex > lo else 0.0
            nfcn += 1
            if naccpt % _NSTIFF == 0 or iasti > 0:
                # h |lambda| from the last two stages; 15 in a row above 6.1 is stiff
                su, sv, sg, sp = f1u - k12u, f1v - k12v, f1g - k12g, f1p - k12p
                stnum = su * su + sv * sv + sg * sg + sp * sp
                k4g, k5g = k4u * k4u, k5u * k5u
                k4p = (exp(x4) if x4 < cap else ecap) if x4 > lo else 0.0
                k5p = (exp(x5) if x5 < cap else ecap) if x5 > lo else 0.0
                y12g = eg + h * (a121 * k1g + a124 * k4g + a125 * k5g + a126 * k6g + a127 * k7g
                                 + a128 * k8g + a129 * k9g + a1210 * k10g + a1211 * k11g)
                y12p = ep + h * (a121 * k1p + a124 * k4p + a125 * k5p + a126 * k6p + a127 * k7p
                                 + a128 * k8p + a129 * k9p + a1210 * k10p + a1211 * k11p)
                su, sv, sg, sp = nu - y12u, nv - k12u, ng - y12g, np_ - y12p
                stden = su * su + sv * sv + sg * sg + sp * sp
                if stden > 0.0:
                    hlamb = abs(h) * sqrt(stnum / stden)
                if hlamb > 6.1:
                    nonsti = 0
                    iasti += 1
                    if iasti == 15:
                        raise StepFailure("problem is probably stiff (interrupted)")
                else:
                    nonsti += 1
                    if nonsti == 6:
                        iasti = 0
            k1u, k1v, k1g, k1p = f1u, f1v, f1g, f1p
            if u <= 0.0 <= nu or nu <= 0.0 <= u:
                zero_steps.append(naccpt - 1)
            if zero_steps and (v <= 0.0 <= nv or nv <= 0.0 <= v):
                crit_steps.append(naccpt - 1)
            t, u, v, eg, ep = tph, nu, nv, ng, np_
            rows.append([t, u, v, eg, ep])
            if len(zero_steps) == n_zeros:
                break
            if last:
                break
            if abs(hnew) > hmax:
                hnew = hmax
            if reject:
                hnew = min(abs(hnew), abs(h))
            reject = False
        else:
            # the next trial is h / (1/0.3) whatever the error, as in SciPy's
            # dop853; Hairer's h / min(1/0.3, fac11/0.9) would take other steps
            hnew = h / facc1
            reject = True
            if naccpt >= 1:
                nrejct += 1
            last = False
        h = hnew
    return rows, zero_steps, crit_steps, (nfcn, nstep, naccpt, nrejct)


def _basis(x):
    """DOP853's interpolation basis x, x(1-x), x^2(1-x), ..., x^4(1-x)^3.

    DOP853 evaluates its interpolant in the nested form
    ``x(F0 + (1-x)(F1 + x(F2 + ...)))``; this is the same sum multiplied
    out.  x is a float or an array; returns a list of seven of the same.
    """
    out = [x]
    for j in range(1, 7):
        out.append(out[-1] * (1.0 - x if j % 2 else x))
    return out


class DenseOutput:
    """DOP853's 7th-order interpolant of the accepted steps t0[i] -> t1[i].

    The twelve stages of each step are re-evaluated from its start point,
    then the three extra interpolation stages, exactly as DOP853 does when
    it forms its continuous output.  ``rhs(t, y)`` is the right-hand side
    at many points, t (n,) and y (4, n): every step goes through it at
    once.  The steps are in increasing order and need not be adjacent.
    """

    def __init__(self, rhs, t0: np.ndarray, y0: np.ndarray, t1: np.ndarray,
                 y1: np.ndarray) -> None:
        h = t1 - t0
        k = np.empty((16, 4, len(h)))
        k[0] = rhs(t0, y0)
        for s in range(1, 16):  # stage 13, the next step's first, is the RHS at the end
            k[s] = (rhs(t1, y1) if s == N_STAGES else
                    rhs(t0 + C[s] * h, y0 + h * np.tensordot(A[s, :s], k[:s], axes=1)))
        dy = y1 - y0
        f = np.empty((7, 4, len(h)))
        f[0] = dy
        f[1] = h * k[0] - dy
        f[2] = 2.0 * dy - h * (k[N_STAGES] + k[0])
        f[3:] = h * np.tensordot(D, k, axes=1)
        # step i's interpolant at the step fraction x is y0[i] + _basis(x) @ f[i]
        self.t0, self.t1, self.y0, self.f = t0, t1, y0.T, np.moveaxis(f, 2, 0)

    def state(self, i: int, t: float) -> np.ndarray:
        """The state (4,) at one log-radius t inside step i."""
        ta, tb = self.t0[i], self.t1[i]
        return self.y0[i] + np.dot(_basis((t - ta) / (tb - ta)), self.f[i])

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """States, shape (4, n), at the log-radii t (n,), each on the last
        step that starts at or before it (the first step before them all)."""
        i = np.clip(np.searchsorted(self.t0, t, side="right") - 1, 0, len(self.t0) - 1)
        x = ((t - self.t0[i]) / (self.t1[i] - self.t0[i]))[:, None, None]
        return (self.y0[i] + (np.concatenate(_basis(x), axis=2) @ self.f[i])[:, 0]).T
