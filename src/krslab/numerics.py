"""The few scipy kernels krslab needs, on numpy alone, float for float.

Each routine does the float operations of the scipy routine it stands for,
in the same order, so its results carry the same bits (tests/test_numerics.py
compares each with scipy, which the tests keep as their reference):

- ``dct1``: ``scipy.fft.dct(c, type=1)``, the real FFT of the even extension;
- ``brentq``: ``scipy.optimize.brentq`` (its C loop, ``Zeros/brentq.c``);
- ``cubic_hermite``: ``CubicHermiteSpline(x, y, dydx)(xq)``, its coefficients
  and the piecewise-polynomial evaluation, for one profile or a stack;
- ``dop853``: ``solve_ivp(method="DOP853", dense_output=True)`` forward in
  time, without the ``OdeSolver`` classes: it returns the dense output,
  whose first read builds every step with one right-hand-side call per
  extra stage, or raises ``IntegrationError`` with the message of
  ``solve_ivp``'s status -1, or when a cap on attempted steps is reached.

Loading scipy costs about 0.75 s per process, more than any ``krs`` command
spends on its work.  Arithmetic that is not IEEE-exact elementwise (the
stage sums, norms and FFTs) goes through the same numpy calls, on arrays of
the same shape and layout, as in scipy.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

# ---------------------------------------------------------------------------
# DCT-I and Brent's root finder


def dct1(c: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-I of c, as ``scipy.fft.dct(c, type=1)`` computes
    it: one real FFT of the even extension [c_0, ..., c_n, c_{n-1}, ...,
    c_1].  Fewer than two entries is a ValueError."""
    if c.size < 2:
        raise ValueError(f"DCT-I needs at least 2 entries, got {c.size}")
    return np.fft.rfft(np.concatenate([c, c[-2:0:-1]])).real


_BRENTQ_MAXITER = 100


def _checked(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot "
                         "continue.")
    return fx


def brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method (Brent 1973, ch. 4): scipy's ``brentq`` with maxiter 100, the
    same bracket swaps, interpolation or extrapolation test and step, so
    the same iterates.  A sign error is a ValueError; no convergence in 100
    iterations a RuntimeError."""
    xpre, xcur = float(a), float(b)
    fpre, fcur = _checked(f, xpre), _checked(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENTQ_MAXITER):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _checked(f, xcur)
    raise RuntimeError(f"Failed to converge after {_BRENTQ_MAXITER} "
                       "iterations.")


# ---------------------------------------------------------------------------
# cubic Hermite interpolation


def cubic_hermite(x: np.ndarray, y: np.ndarray, dydx: np.ndarray,
                  xq: np.ndarray) -> np.ndarray:
    """The piecewise cubic through (x_k, y_k) with slopes dydx_k (x strictly
    increasing), at the points xq: ``CubicHermiteSpline(x, y, dydx)(xq)``.
    y and dydx are one profile or a stack of rows (one spline per row, each
    with the bits it gets alone).  Interval k holds x_k <= xq < x_{k+1};
    the last one is closed on the right and the end intervals
    extrapolate."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[..., :-1] + dydx[..., 1:] - 2 * slope) / dx
    c0, c1 = t / dx, (slope - dydx[..., :-1]) / dx - t
    k = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    s = xq - x[k]
    s2 = s * s
    return (y[..., k] + dydx[..., k] * s + c1[..., k] * s2
            + c0[..., k] * (s2 * s))


# ---------------------------------------------------------------------------
# DOP853: the explicit Runge-Kutta pair of order 8(5,3) of Hairer, Norsett
# and Wanner (Solving Ordinary Differential Equations I, 2nd ed., Sec. II.10)
# with its 7th-order dense output.  The tableau is copied from scipy
# (BSD-3-Clause, scipy/integrate/_ivp/dop853_coefficients.py) as the same
# decimal literals; a row of A or D is written out with its zeros.

def _rows(rows, width):
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


_C = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333, 0.25,
    0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6,
    0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778])
_A = _rows([
    [],
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0, 0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0, 0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0, 0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0, 0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0, 0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0, 0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1],
    [5.42937341165687622380535766363e-2, 0, 0, 0, 0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2],
    [5.61675022830479523392909219681e-2, 0, 0, 0, 0, 0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3],
    [3.18346481635021405060768473261e-2, 0, 0, 0, 0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0, 0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1],
    [-4.28896301583791923408573538692e-1, 0, 0, 0, 0,
     -4.69762141536116384314449447206, 7.68342119606259904184240953878,
     4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0,
     0, 0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138]], 16)
_D = _rows([
    [-0.84289382761090128651353491142e+1, 0, 0, 0, 0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0, 0, 0, 0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, 0, 0, 0, 0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, 0, 0, 0, 0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3]], 16)
_B = _A[12, :12]
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0, 0, 0, 0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0])
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512,
                    0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]

_STAGES = 12
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)
STEP_TOO_SMALL = "Required step size is less than spacing between numbers."
# most steps one integration attempts: over 100 times the 158 of the longest
# shooting branch that ends on the reference and hard bundles (failing: 2712)
_MAX_ATTEMPTS = 20_000


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


class DenseSolution:
    """The piecewise interpolant of an integration from its step points
    ``ts``, the states there ``ys`` (one row each) and the stages ``K`` of
    its steps, shape (steps, 16, n), rows 13-15 spare; a point on a step
    boundary is read on the step that ends there.  The first read builds
    every step at once: one ``fun`` call per extra stage, one column per
    step."""

    def __init__(self, fun, ts, ys, K):
        self.fun, self.ts, self.ys, self.K = fun, ts, ys, K
        self.h = np.diff(ts)

    @cached_property
    def F(self):
        K, h, y_old = self.K, self.h, self.ys[:-1]
        for s in range(_STAGES + 1, 16):
            dy = np.array([np.dot(Kj[:s].T, _A[s, :s]) * hj
                           for Kj, hj in zip(K, h)])
            K[:, s] = self.fun(self.ts[:-1] + _C[s] * h, (y_old + dy).T).T
        delta_y, hc = self.ys[1:] - y_old, h[:, None]
        F = np.empty((len(K), 7, delta_y.shape[1]))
        F[:, 0] = delta_y
        F[:, 1] = hc * K[:, 0] - delta_y
        F[:, 2] = 2 * delta_y - hc * (K[:, _STAGES] + K[:, 0])
        F[:, 3:] = [hj * np.dot(_D, Kj) for Kj, hj in zip(K, h)]
        return F

    def __call__(self, t):
        """The state at t: a vector for a scalar t, one column per point
        for an array."""
        points = np.reshape(t, -1)
        seg = np.clip(np.searchsorted(self.ts, points) - 1, 0,
                      self.h.size - 1)
        x = ((points - self.ts[seg]) / self.h[seg])[:, None]
        F = self.F[seg]
        y = np.zeros((points.size, self.ys.shape[1]))
        for j in range(6, -1, -1):
            y += F[:, j]
            y *= x if j % 2 == 0 else 1 - x
        y += self.ys[seg]
        return y[0] if np.ndim(t) == 0 else y.T


class IntegrationError(RuntimeError):
    """A DOP853 integration that cannot go on: a step below the spacing of
    the floats (the message ``solve_ivp`` reports with status -1,
    STEP_TOO_SMALL) or _MAX_ATTEMPTS steps attempted short of t_bound."""


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol):
    """scipy's ``select_initial_step`` (Hairer-Norsett-Wanner II.4) for the
    order-7 error estimator, forward in time, no maximum step."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _error_norm(K, h, scale):
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def dop853(fun, t0: float, t_bound: float, y0: np.ndarray, rtol: float,
           atol: float) -> DenseSolution:
    """Integrate y' = fun(t, y) from t0 forward to t_bound > t0 with
    DOP853 at relative and absolute tolerances rtol (at least 100 eps) and
    atol: ``solve_ivp(fun, (t0, t_bound), y0, method="DOP853", rtol=rtol,
    atol=atol, dense_output=True).sol``; where that fails with status -1,
    an IntegrationError with its message.  Unlike ``solve_ivp`` it gives up
    after _MAX_ATTEMPTS attempted steps, with an IntegrationError that says
    how far it got, so an integration whose steps shrink without reaching
    the floor of the floats still ends.  ``fun`` takes a float t and one
    state, or an array of t and many states (one column per point, as the
    first read builds the steps), with the same bits per column."""
    t, y = float(t0), y0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    ts, ys, stages = [t], [y], []
    attempts = 0
    while t - t_bound < 0:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        K = np.empty((16, y.size))
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(STEP_TOO_SMALL)
            if attempts == _MAX_ATTEMPTS:
                raise IntegrationError(
                    f"{_MAX_ATTEMPTS} steps attempted, t reached {t:.6g} of "
                    f"{t_bound:.6g}")
            attempts += 1
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, _STAGES):
                dy = np.dot(K[:s].T, _A[s, :s]) * h
                K[s] = fun(t + _C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:_STAGES].T, _B)
            f_new = K[_STAGES] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K[:_STAGES + 1], h, scale)
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else
                          min(_MAX_FACTOR,
                              _SAFETY * error_norm ** _EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _EXPONENT)
            rejected = True
        stages.append(K)
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    K = np.array(stages).reshape(-1, 16, y0.size)
    return DenseSolution(fun, np.array(ts), np.vstack(ys), K)
