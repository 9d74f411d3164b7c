"""Two independent solvers for the normalized soliton boundary-value problem.

The momentum route changes variables to the coordinate s with ds = f dt, in
which the Kahler condition makes l_i^2 affine in s and the potential affine
(u = c s + const); the whole system collapses to a first-order linear ODE for
phi = f^2 on s in [0, 2] and a single root-find in the slope c.  The shooting
route integrates the full second-order system in t from a series launch at
the collapsing circle and matches the far-end smoothness conditions with a
damped Gauss-Newton iteration; it never assumes u is affine in s.  Agreement
of the two is the artifact's substitute for absent ground truth.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .config import (SOLUTION_METHODS, TAU, BundleConfig, ConfigError,
                     RunConfig, Tolerances, check_keys, get_field)
from .geometry import (
    PinnedConstants,
    ProfileGrid,
    RicciProfiles,
    TableMismatchError,
    hessian_components,
    kaehler_residual,
    ricci_components,
    ricci_frame,
    weighted_integral,
    weighted_laplacian,
)
from .grids import Scheme, fill_even
from .numerics import IntegrationError, brentq, cubic_hermite, dop853


class NoSolitonFound(RuntimeError):
    """Root search exhausted without finding an admissible soliton."""


class SolverError(RuntimeError):
    """Newton divergence or inconsistent trial data."""


# the closed-form momentum reduction is derived with these coefficients;
# the oracle-pinned values must agree or the reduction is invalid
_REDUCTION_A = 0.25
_REDUCTION_B = 0.5

# shooting: series launch offset from each collapse point and absolute
# integrator tolerance
_EPS = 2e-3
_ATOL = 1e-13
# Newton: tolerance on the matching defect and most steps per solve; the
# cold start's twist ladder: first step and least (halved) step
_NEWTON_TOL, _NEWTON_ITERS = 1e-11, 12
_TWIST_STEP, _TWIST_STEP_MIN = 0.5, 1.0 / 32.0
# a Newton root whose sup-norm Kahler residual reaches this is rejected
# (solved roots sit below 1e-10, the non-Kahler ones near 1)
_KAEHLER_ROOT_TOL = 1e-6


@dataclass(frozen=True)
class Evaluation:
    """The curvature and potential quantities of one solved grid, computed
    once and shared by the residuals, the identities and the stability
    integrals."""

    ricci: RicciProfiles
    hessian_u: tuple            # (H_NN, H_UU, H_i) of u
    lap_u: np.ndarray           # Delta u
    drift_lap_u: np.ndarray     # Delta_u u = Delta u - |grad u|^2
    first_integral: np.ndarray  # tau (2 Delta u - |grad u|^2 + R) + u
    volume: float               # int e^{-u} dV
    scalar_integral: float      # int R e^{-u} dV


def evaluate(grid: ProfileGrid, config: BundleConfig,
             constants: PinnedConstants) -> Evaluation:
    """One pass over the grid: Ricci once, then everything built on it."""
    ric = ricci_components(grid, config, constants)
    drift = weighted_laplacian(grid, config, grid.u, grid.du, grid.ddu)
    lap = drift + grid.du * grid.du
    return Evaluation(
        ricci=ric,
        hessian_u=hessian_components(grid),
        lap_u=lap,
        drift_lap_u=drift,
        first_integral=TAU * (2.0 * lap - grid.du**2 + ric.R) + grid.u,
        volume=weighted_integral(grid, config, np.ones_like(grid.u)),
        scalar_integral=weighted_integral(grid, config, ric.R),
    )


@dataclass(frozen=True)
class ResidualReport:
    """Sup-norm residuals of the solved profiles."""

    E_N: float
    E_U: float
    E_i: tuple
    kaehler: float
    trace: float
    hamilton: float
    delta_uu: float
    gauge: float
    div_integral: float

    def to_dict(self) -> dict:
        return {**asdict(self), "E_i": list(self.E_i)}

    def max_equation_residual(self) -> float:
        return max(self.E_N, self.E_U, max(self.E_i), self.kaehler)


@dataclass(frozen=True)
class SolitonSolution:
    """A solved soliton, its own facts only: the disagreement with another
    solution is the solve's.  Its evaluation record, residual report and the
    stability layer's per-solution work are computed on first use and
    cached; ``dataclasses.replace`` gives a new solution that is evaluated
    afresh; its slope and gauge shift are read off u.  A solution whose grid
    and config disagree on the number of factors, or whose method is not
    one of SOLUTION_METHODS, cannot be made."""

    grid: ProfileGrid
    config: BundleConfig
    constants: PinnedConstants
    method: str

    def __post_init__(self):
        if self.grid.nfactors != self.config.r:
            raise ConfigError(f"grid has {self.grid.nfactors} factor "
                              f"profiles, config has {self.config.r}")
        if self.method not in SOLUTION_METHODS:
            raise ConfigError(f"unknown solution method {self.method!r}")

    # the slope c of u = c s + const (s from 0 to 2), and the shift gauge
    # normalization took off u, which was 0 at t = 0 (never -0.0)
    c_slope = property(
        lambda self: float((self.grid.u[-1] - self.grid.u[0]) / 2.0))
    gauge_shift = property(lambda self: float(0.0 - self.grid.u[0]))

    @cached_property
    def evaluation(self) -> Evaluation:
        return evaluate(self.grid, self.config, self.constants)

    @cached_property
    def residuals(self) -> ResidualReport:
        return residual_report(self)

    @cached_property
    def stability_cache(self) -> dict:
        """The source-independent work of :mod:`krslab.stability` on this
        solution, filled there on first use; that module's docstring lays
        it out."""
        return {}

    def to_dict(self) -> dict:
        """Metadata of the solution, its own residuals included; the
        profiles go to ``grid.table()``."""
        return {
            "config": self.config.to_dict(),
            "c_slope": self.c_slope,
            "gauge_shift": self.gauge_shift,
            "residuals": self.residuals.to_dict(),
            "method": self.method,
            "nodes": int(self.grid.t.size - 1),
            "T": self.grid.T,
            "scheme": self.grid.scheme.kind,
            "constants": self.constants.to_dict(),
        }

    @staticmethod
    def from_dict(meta: dict, table: np.ndarray) -> "SolitonSolution":
        """Inverse of ``to_dict`` plus the ``ProfileGrid.table`` (its rows
        read by position).  ``nodes`` must fit the table, checked before a
        scheme of that size is built, and ``T`` be the last node exactly
        (``ProfileGrid.from_table`` checks it), or a TableMismatchError is
        raised; ``c_slope`` and
        ``gauge_shift`` what the properties read off u, to within
        1e-12 max(1, |value|).  The ``residuals`` block, when given, must
        be an object; it is a report, re-evaluated on the profiles, and no
        number in it is read."""
        check_keys(meta, ("config", "c_slope", "gauge_shift", "residuals",
                          "method", "nodes", "T", "scheme", "constants"))
        config = BundleConfig.from_dict(get_field(meta, "config", dict))
        constants = PinnedConstants.from_dict(get_field(meta, "constants",
                                                        dict))
        nodes = get_field(meta, "nodes", int)
        if nodes != table.shape[-1] - 1:
            raise TableMismatchError(
                f"n = {nodes}, but the profile table of shape "
                f"{table.shape} has n = {table.shape[-1] - 1}")
        sch = Scheme.of_kind(get_field(meta, "scheme", str), nodes,
                             get_field(meta, "T", float))
        get_field(meta, "residuals", dict, {})
        sol = SolitonSolution(
            grid=ProfileGrid.from_table(sch, table, config.r), config=config,
            constants=constants, method=get_field(meta, "method", str))
        for key, formula in (("c_slope", "(u[-1] - u[0]) / 2"),
                             ("gauge_shift", "-u[0]")):
            stored, derived = get_field(meta, key, float), getattr(sol, key)
            if not abs(stored - derived) <= 1e-12 * max(1.0, abs(derived)):
                raise ConfigError(f"{key} = {stored!r} disagrees with "
                                  f"{formula} = {derived!r} read off u")
        return sol


# ---------------------------------------------------------------------------
# residuals and identities, read off the evaluation record


def residual_report(sol: SolitonSolution) -> ResidualReport:
    grid, config, ev = sol.grid, sol.config, sol.evaluation
    ric = ev.ricci
    H_NN, H_UU, H_i = ev.hessian_u
    # Ric + Hess u - g in the unit frame
    E_N = ric.R_NN + H_NN - 1.0
    E_U = ric.R_UU + H_UU - 1.0
    E_i = ric.R_i + H_i - 1.0
    trace = ric.R + ev.lap_u - config.n
    ham = ev.first_integral
    return ResidualReport(
        E_N=float(np.abs(E_N).max()),
        E_U=float(np.abs(E_U).max()),
        E_i=tuple(float(np.abs(row).max()) for row in E_i),
        kaehler=float(np.abs(kaehler_residual(grid, config)).max()),
        trace=float(np.abs(trace).max()),
        hamilton=float(np.abs(ham - ham.mean()).max()),
        delta_uu=float(np.abs(ev.drift_lap_u + 2.0 * grid.u).max()),
        gauge=abs(weighted_integral(grid, config, grid.u)) / ev.volume,
        div_integral=abs(weighted_integral(grid, config, ev.drift_lap_u)),
    )


def gauge_normalize(sol: SolitonSolution) -> SolitonSolution:
    """Shift u so that the weighted mean of u vanishes,
    int u e^{-u} dV = 0.  Single shot: the shift multiplies the measure by a
    constant, which cancels in the defining ratio.  Only the two weighted
    integrals are computed here; the shifted solution is evaluated when its
    residuals are first read.  The shift is not kept: u was 0 at t = 0, so
    ``SolitonSolution.gauge_shift`` reads it off u[0]."""
    grid, config = sol.grid, sol.config
    a = weighted_integral(grid, config, grid.u) / weighted_integral(
        grid, config, np.ones_like(grid.u))
    return replace(sol, grid=replace(grid, u=grid.u - a))


def identity_suite(sol: SolitonSolution) -> dict:
    """Deviations of the soliton identities on a gauge-normalized solution:
    drift-Laplacian eigenvalue identity for u, trace identity, first-integral
    constancy, and the divergence-theorem integral: read off the solution's
    residual report."""
    r = sol.residuals
    return {
        "delta_uu_plus_2u": r.delta_uu,
        "trace_R_plus_lap_u_minus_n": r.trace,
        "hamilton_constancy": r.hamilton,
        "weighted_mean_u": r.gauge,
        "div_integral": r.div_integral,
        "kaehler": r.kaehler,
    }


# ---------------------------------------------------------------------------
# momentum-coordinate solver

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
# degree of the Chebyshev series of dt/dxi that the profiles are read off;
# degrees 32 to 256 give the same T to 3e-15
_SERIES_DEGREE = 64


def _phi_sum(half, sig, c, config):
    """Gauss-Legendre sums of m(sig) * 2 (1 - sig) with
    m = prod (q_j sig + p_j - q_j)^{d_j/2} e^{-c sig}, one per row of the
    nodes sig, whose interval has half-length ``half`` (effectively exact
    for these smooth integrands)."""
    m = _phi_weight(sig, c, config)
    return (m * 2.0 * (1.0 - sig)) @ _GL_WEIGHTS * half


def _phi_integral(c, config):
    """The closure integral int_0^2 m(sig) * 2 (1 - sig) dsig, over the
    nodes of [0, 2] as one row."""
    return _phi_sum(1.0, (_GL_NODES + 1.0)[None, :], c, config)[0]


def _phi_weight(s, c, config):
    s = np.asarray(s, dtype=float)
    m = np.exp(-c * s)
    for dj, qj, bj in zip(config.d, config.q, config.p - config.q):
        m = m * (qj * s + bj) ** (dj / 2.0)
    return m


def _phi(s, w, c, config):
    """phi at s in [0, 2], given w = 2 - s to full relative accuracy.

    For s <= 1, phi = int_0^s m 2(1 - sig) dsig / m(s).  At the root c the
    integral over [0, 2] vanishes, so for s > 1 phi is minus the tail
    int_s^2 over m(s), with its nodes placed down from 2 over the length w.
    Both ends are then read off an integral from their own collapse point
    and reach zero at the same relative accuracy.  Each form is a
    positive-weight sum of terms of one sign (1 - sig > 0 below 1, < 0
    above) over m(s) > 0 on an admissible bundle, so phi > 0 on (0, 2) at
    any c: the momentum solve relies on it and does not probe it."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    far = s > 1.0
    half = np.where(far, w, s) / 2.0
    sig = half[:, None] * (_GL_NODES + 1.0)
    sig[far] = 2.0 - sig[far]
    vals = _phi_sum(half, sig, c, config)
    return np.where(far, -vals, vals) / _phi_weight(s, c, config)


def momentum_phi(config: BundleConfig, c: float, s) -> np.ndarray:
    """phi = f^2 as a function of the moment coordinate s in [0, 2], for the
    slope c: the solution of the momentum ODE that ``solve_momentum``
    reconstructs the profiles from.  2 - s is exact for s >= 1, so the far
    end is as accurate as the near one."""
    s = np.asarray(s, dtype=float)
    return _phi(s, 2.0 - s, c, config)


# the first search box for the slope, |c| <= 8, and the largest one, where
# e^{-cs} on [0, 2] still stays far from overflow
_SLOPE_BOX = 8.0
_SLOPE_BOX_MAX = 256.0


def find_slope_roots(config: BundleConfig):
    """The root of the far-end closure condition phi(2; c) = 0 with
    |c| <= 256, as a list with at most one entry.

    With G(c) = int_0^2 m0(s) e^{-c(s-1)} ds and m0 = prod l_j^{d_j} > 0,
    the integral read here is int_0^2 m0 e^{-cs} 2(1-s) ds = 2 e^{-c} G'(c),
    which has the sign of phi(2; c), and
    G''(c) = int_0^2 (1-s)^2 m0 e^{-c(s-1)} ds > 0.  So G' is strictly
    increasing and the sign changes at most once: the root is unique (and
    exists, as G' < 0 for c -> -inf and > 0 for c -> inf).  The search box
    starts at [-8, 8] and doubles while the signs at its two ends agree,
    up to [-256, 256], where equal signs mean no root.  The first box whose
    ends differ in sign is cut into 400 equal brackets, and bisection over
    the bracket indices finds the one sign change, which brentq refines (a
    node where the integral is exactly zero ends the bracket and is returned).
    """
    def F(c):
        return _phi_integral(c, config)

    box = _SLOPE_BOX
    while True:
        cs = np.linspace(-box, box, 401)
        lo, hi = 0, cs.size - 1
        F_lo = F(cs[lo])
        # signs, not products: far boxes reach |F| ~ 1e200
        if (F_lo > 0) != (F(cs[hi]) > 0):
            break
        if box >= _SLOPE_BOX_MAX:
            return []
        box *= 2.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (F(cs[mid]) > 0) == (F_lo > 0):
            lo = mid
        else:
            hi = mid
    return [brentq(F, cs[lo], cs[hi], 1e-15, 8.9e-16)]


def _require_admissible(config: BundleConfig):
    """NoSolitonFound unless l_i^2 = q_i s + p_i - q_i > 0 on [0, 2]."""
    l2_ends = [min(f.p - f.q, f.p + f.q) for f in config.factors]
    if min(l2_ends) <= 0:
        raise NoSolitonFound("factor size l_i^2 = q_i s + p_i - q_i is not "
                             f"positive on [0, 2] (endpoint values "
                             f"{l2_ends})")


def solve_momentum(config: BundleConfig, constants: PinnedConstants,
                   nodes: int, scheme: str = RunConfig.scheme
                   ) -> SolitonSolution:
    """Solve by the momentum reduction and reconstruct the t-profiles.

    In the coordinate s (ds = f dt) the Kahler condition gives
    l_i^2 = q_i s + b_i; smooth collapse forces b_i = p_i - q_i and the
    interval s in [0, 2], leaving the linear ODE
    phi' + ((1/2) sum d_j q_j / l_j^2 - c) phi = 2 (1 - s),  phi(0) = 0,
    closed by the single scalar condition phi(2) = 0 on the slope c, whose
    root is unique (``find_slope_roots``).

    The t-profiles come from one Chebyshev series of fixed degree, of
    dt/dxi = sin(xi) / sqrt(phi) in the half-angle variable
    s = 2 sin^2(xi/2), 2 - s = 2 cos^2(xi/2), with phi in its tail form
    near s = 2 (``momentum_phi``); so c, T = t(pi) and the series do not
    depend on ``nodes``.  The output nodes are found by Newton on the
    integrated series, started from a cubic Hermite fit of xi(t) through
    the series' sample points, and f = sqrt(phi) = sin(xi) / (dt/dxi) is
    read off the same series there.

    The reduction holds only for (A, B) = (1/4, 1/2) exactly.
    """
    _require_admissible(config)
    if (constants.A, constants.B) != (_REDUCTION_A, _REDUCTION_B):
        raise SolverError(
            "pinned constants disagree with the coefficients the momentum "
            f"reduction was derived for: got (A,B)=({constants.A},{constants.B})"
        )
    roots = find_slope_roots(config)
    if not roots:
        raise NoSolitonFound("no root of phi(2; c) = 0 in the search box "
                             f"|c| <= {_SLOPE_BOX_MAX:g}")
    c, = roots

    # arc-length reconstruction: s = 2 sin^2(xi/2), 2 - s = 2 cos^2(xi/2)
    # and dt/dxi = sin(xi) / sqrt(phi), smooth and positive up to the ends
    # (-> 1 at both collapse points)
    def dt_dxi(xi):
        return np.sin(xi) / np.sqrt(_phi(2.0 * np.sin(xi / 2.0) ** 2,
                                         2.0 * np.cos(xi / 2.0) ** 2,
                                         c, config))

    cheb = np.polynomial.chebyshev.Chebyshev.interpolate(
        dt_dxi, _SERIES_DEGREE, domain=[0.0, np.pi])
    t_of_xi = cheb.integ(lbnd=0.0)
    # t and dt/dxi at the series' sample points and both ends; the last t
    # is T, and a cubic Hermite fit of xi(t) through them is within 1e-7 or
    # so of the inverse, and Newton from it takes two or three steps
    xi_k = np.pi / 2.0 * (1.0 + np.concatenate(
        [[-1.0], np.polynomial.chebyshev.chebpts1(_SERIES_DEGREE + 1), [1.0]]))
    t_k = t_of_xi(xi_k)
    T = float(t_k[-1])
    sch = Scheme.of_kind(scheme, nodes, T)

    # invert t(xi) at the output nodes by Newton on the integrated series
    xi = cubic_hermite(t_k, xi_k, 1.0 / cheb(xi_k), sch.t)
    for _ in range(60):
        step = (t_of_xi(xi) - sch.t) / cheb(xi)
        xi = np.clip(xi - step, 0.0, np.pi)
        if np.abs(step).max() < 1e-14:
            break
    xi[0], xi[-1] = 0.0, np.pi

    # f = sqrt(phi) read off the same series
    s = 2.0 * np.sin(xi / 2.0) ** 2
    f = np.sin(xi) / cheb(xi)
    f[-1] = 0.0
    phi = f * f
    l2 = config.q[:, None] * s[None, :] + (config.p - config.q)[:, None]
    l = np.sqrt(l2)
    P = 0.5 * (config.d[:, None] * config.q[:, None] / l2).sum(axis=0) - c
    dP = -0.5 * (config.d[:, None] * config.q[:, None] ** 2
                 / l2**2).sum(axis=0)
    q2_term = phi[None, :] * config.q[:, None] ** 2 / (4.0 * l**3)
    dphi = 2.0 * (1.0 - s) - P * phi
    ddphi = -2.0 - dP * phi - P * dphi

    df = dphi / 2.0
    ddf = f * ddphi / 2.0

    dl = config.q[:, None] * f[None, :] / (2.0 * l)
    ddl = config.q[:, None] * dphi[None, :] / (4.0 * l) - q2_term

    u = c * s
    du = c * f
    ddu = c * dphi / 2.0

    grid = ProfileGrid(scheme=sch, f=f, df=df, ddf=ddf, l=l, dl=dl, ddl=ddl,
                       u=u, du=du, ddu=ddu)
    return gauge_normalize(SolitonSolution(
        grid=grid, config=config, constants=constants, method="momentum"))


# ---------------------------------------------------------------------------
# shooting solver


@dataclass(frozen=True)
class _Launch:
    """Series coefficients at the collapsing circle for one trial, to sixth
    order: f odd through t^7, l_i and u even through t^6."""

    a: np.ndarray       # l_i(0)
    b: np.ndarray       # l_i t^2 coefficient (Kahler-imposed)
    e: np.ndarray       # l_i t^4 coefficient (Kahler-imposed)
    g: np.ndarray       # l_i t^6 coefficient (Kahler-imposed)
    f3: float
    f5: float
    f7: float
    u2: float
    u4: float
    u6: float


def _launch_coefficients(config: BundleConfig, a: np.ndarray, u2: float,
                         constants: PinnedConstants, q: np.ndarray) -> _Launch:
    """The coefficients of l_i come from the Kahler relation (l_i^2)' = q_i f
    order by order; f3, f5, f7 and u4, u6 from the f and u equations, with
    the sums over the factors of l'/l, q^2/l^4 and l''/l expanded in t."""
    if np.any(a <= 0):
        raise SolverError("trial with nonpositive collapse size l_i")
    d, A = config.d, constants.A
    b = q / (4.0 * a)
    f3 = (2.0 * u2 - 1.0 - (d * q / (2.0 * a**2)).sum()) / 6.0
    e = (q * f3 - 4.0 * b**2) / (8.0 * a)
    sum_e = (d * e / a).sum()
    sum_b = (d * b / a).sum()
    sum_b2 = (d * b**2 / a**2).sum()
    sum_q2 = (d * q**2 / a**4).sum()
    u4 = (8.0 * sum_e - 4.0 * f3 * sum_b + A * sum_q2 + 4.0 * u2 * f3) / 8.0
    f5 = (6.0 * f3**2 - 12.0 * sum_e + 2.0 * sum_b2 + 12.0 * u4) / 20.0
    g = (q * f5 / 12.0 - b * e) / a
    # t^k coefficients L_k of sum d l'/l, Q_k of sum d q^2/l^4 and M4 of
    # sum d l''/l
    L1 = 2.0 * sum_b
    L3 = (d * 2.0 * (2.0 * a * e - b**2) / a**2).sum()
    L5 = (d * 2.0 * (3.0 * a**2 * g - 3.0 * a * b * e + b**3) / a**3).sum()
    Q2 = -(d * 4.0 * b * q**2 / a**5).sum()
    M4 = (d * 2.0 * (15.0 * a**2 * g - 7.0 * a * b * e + b**3) / a**3).sum()
    C = A * (3.0 * sum_q2 * f3 + Q2) - 5.0 * L1 * f5 - 3.0 * L3 * f3 - L5
    R = M4 + 6.0 * f3**3 - 26.0 * f3 * f5
    f7 = (5.0 * C + R + 60.0 * f3 * u4 + 50.0 * f5 * u2 - 5.0 * f5) / 168.0
    u6 = (C + R + 12.0 * f3 * u4 + 10.0 * f5 * u2 - f5) / 24.0
    return _Launch(a=a, b=b, e=e, g=g, f3=f3, f5=f5, f7=f7, u2=u2, u4=u4,
                   u6=u6)


def _launch_state(lc: _Launch, t):
    """State [f, f', l_i, l_i', u, u'] of the series at small t: a vector
    for a float t, one column per point for an array, in Horner form in t^2
    (so a point has the same bits alone as among many)."""
    s = t * t
    f = t * (1.0 + s * (lc.f3 + s * (lc.f5 + s * lc.f7)))
    df = 1.0 + s * (3.0 * lc.f3 + s * (5.0 * lc.f5 + s * (7.0 * lc.f7)))
    l = [a + s * (b + s * (e + s * g))
         for a, b, e, g in zip(lc.a, lc.b, lc.e, lc.g)]
    dl = [t * (2.0 * b + s * (4.0 * e + s * (6.0 * g)))
          for b, e, g in zip(lc.b, lc.e, lc.g)]
    u = s * (lc.u2 + s * (lc.u4 + s * lc.u6))
    du = t * (2.0 * lc.u2 + s * (4.0 * lc.u4 + s * (6.0 * lc.u6)))
    return np.array([f, df, *l, *dl, u, du])


def _rhs(config: BundleConfig, constants: PinnedConstants, q: np.ndarray):
    """rhs(t, y) = y' for y = [f, f', l_i, l_i', u, u'] and the twists q.

    Ric + Hess u = g, with Ric by ``geometry.ricci_frame``, is affine in
    f'', l_i'', u''; with them 0 in Ric it gives f'' = f (R_UU - 1) + u' f',
    l_i'' = l_i (R_i - 1) + u' l_i' and u'' = 1 + f''/f + sum d_i l_i''/l_i.
    y is one state (a vector, read as Python floats: numpy's per-call
    overhead dominates on r <= 3 factors) or many (one column per point,
    read as row arrays), with the same bits per point.
    """
    r = config.r
    A, B = constants.A, constants.B
    d, p, q = config.d.tolist(), config.p.tolist(), q.tolist()
    zeros = [0.0] * r

    def rhs(t, y):
        f, df, *rest = y.tolist() if y.ndim == 1 else y
        l, dl, du = rest[:r], rest[r:2 * r], rest[2 * r + 1]
        _, R_UU, R_i = ricci_frame(f, df, 0.0, l, dl, zeros, d, p, q, A, B)
        ddf = f * (R_UU - 1.0) + du * df
        dsum, ddl = 0.0, []
        for di, li, dli, Ri in zip(d, l, dl, R_i):
            ddli = li * (Ri - 1.0) + du * dli
            dsum = dsum + di * ddli / li
            ddl.append(ddli)
        return np.array([df, ddf, *dl, *ddl, du, 1.0 + ddf / f + dsum])

    return rhs


def _integrate_branch(config, constants, a, u2, span, rtol, q):
    """Integrate one series-launched branch over [_EPS, span].  The far-end
    branch runs in tau = T - t, where the orientation flip reverses the
    twists (the bulk equations are even in q, the launch series are not).
    """
    lc = _launch_coefficients(config, a, u2, constants, q)
    if span <= _EPS:
        raise SolverError("degenerate branch span")
    y0 = _launch_state(lc, _EPS)
    try:
        sol = dop853(_rhs(config, constants, q), _EPS, span, y0, rtol, _ATOL)
    except IntegrationError as err:
        raise SolverError(f"branch integration failed: {err}") from None
    return lc, sol


def _reflect(y, r, u0f):
    """Map far-branch states in tau = T - t (a vector, or one column per
    point) to t-orientation, with the potential offset u0f added."""
    out = y.copy()
    out[1] = -out[1]
    out[2 + r:2 + 2 * r] = -out[2 + r:2 + 2 * r]
    out[3 + 2 * r] = -out[3 + 2 * r]
    out[2 + 2 * r] += u0f
    return out


def _branch_states(lc, sol, t):
    """States of a launched branch at the points t, one column each: the
    launch series below _EPS, read for all those points at once, and the
    dense output beyond."""
    series = t < _EPS
    Y = np.empty((sol.ys.shape[1], t.size))
    Y[:, ~series] = sol(t[~series])
    Y[:, series] = _launch_state(lc, t[series])
    return Y


def _unpack(x, r):
    """Trial vector: near-end (a_i, u2), far-end (a~_i, u2~, u-offset), T."""
    return (x[:r], x[r], x[r + 1:2 * r + 1], x[2 * r + 1], x[2 * r + 2],
            x[2 * r + 3])


def _match_residual(config, constants, x, t_mid, rtol, q, near, far):
    """Matching defect at the interior point t_mid for the twists q, read
    off the last step states of the two branches, which end there (the far
    one at tau = T - t_mid), and the two (launch, integration) pairs.

    The continuity defect of the branches (2r+4 rows), then the Kahler
    rows 2 l_i l_i' - q_i f of the near branch and the far one (in tau,
    twists -q), which the bulk flow does not keep: 4r+4 rows in all.

    ``near`` and ``far`` are each None, and that branch is integrated from
    x, or a branch the caller integrated from the same inputs (near:
    x[:r+1]; far: x[r+1:2r+2] and T; the offset u0f enters neither) at the
    same ``t_mid``, ``rtol`` and ``q``, which is read as it is.
    """
    r = config.r
    a, u2, af, u2f, u0f, T = _unpack(x, r)
    if near is None:
        near = _integrate_branch(config, constants, a, u2, t_mid, rtol, q)
    if far is None:
        far = _integrate_branch(config, constants, af, u2f, T - t_mid, rtol,
                                -q)
    y_near, y_far = near[1].ys[-1], far[1].ys[-1]
    kaehler = [2.0 * y[2:2 + r] * y[2 + r:2 + 2 * r] - qb * y[0]
               for y, qb in ((y_near, q), (y_far, -q))]
    return (np.concatenate([y_near - _reflect(y_far, r, u0f), *kaehler]),
            (near, far))


def _newton(config, constants, x, t_mid, rtol, q):
    """Damped Gauss-Newton on the matching defect for the twists q from the
    trial vector x: the root and the branches of its last matching call,
    or a SolverError.  A root has a defect below _NEWTON_TOL (absolute: in
    the frame every state is of order 1 on any base, see ``BundleConfig``).

    The Jacobian is a forward difference, one matching call per variable.
    Each column integrates only the branch its variable moves and passes
    the iterate's other one: a near-end variable (j <= r) gets the far
    branch, a far-end variable or T the near branch, the offset u0f both.
    So it costs 2r+3 branch integrations instead of 4r+8 and is the same
    matrix.  The first call and the line-search trials integrate both.
    """
    def match(xv, near, far):
        return _match_residual(config, constants, xv, t_mid, rtol, q, near,
                               far)

    r = config.r
    res, branches = match(x, None, None)
    for steps in range(_NEWTON_ITERS + 1):
        nrm = np.linalg.norm(res)
        if nrm < _NEWTON_TOL:
            return x, branches
        if steps == _NEWTON_ITERS:
            break
        near, far = branches
        J = np.empty((res.size, x.size))
        for j in range(x.size):
            h = 1e-7 * max(1.0, abs(x[j]))
            xp = x.copy()
            xp[j] += h
            kept = (None, far) if j <= r else (near, None)
            if j == 2 * r + 2:  # u0f
                kept = branches
            J[:, j] = (match(xp, *kept)[0] - res) / h
        step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        lam = 1.0
        for _ in range(25):
            trial = x + lam * step
            try:
                res_trial, branches_trial = match(trial, None, None)
            except SolverError:
                lam *= 0.5
                continue
            if np.linalg.norm(res_trial) < nrm:
                x, res, branches = trial, res_trial, branches_trial
                break
            lam *= 0.5
        else:
            raise SolverError(
                f"Newton line search stalled at |res|={nrm:.3e}, "
                f"iterate {x.tolist()}"
            )
    raise SolverError(f"Newton did not converge (|res|={nrm:.3e})")


def _default_guess(config):
    """The cold start, integrating nothing: the soliton at twist 0, the
    product Kahler-Einstein metric f = sin t on [0, pi], l_i = sqrt(p_i) in
    (1, 2] (framed p_i), u = 0, as a trial vector, matched at pi/2."""
    root_p = np.sqrt(config.p)
    x = np.concatenate([root_p, [0.0], root_p, [0.0, 0.0, np.pi]])
    return x, np.pi / 2.0


def _warm_start(config, start):
    """Trial vector and matching point read off a momentum solution: in its
    un-normalized gauge u = c s with s ~ t^2/2 at the near end and
    s ~ 2 - tau^2/2 at the far end, and l_i^2 = q_i s + p_i - q_i."""
    p, q, c = config.p, config.q, start.c_slope
    g = start.grid
    x = np.concatenate([np.sqrt(p - q), [c / 2.0], np.sqrt(p + q),
                        [-c / 2.0, 2.0 * c, g.T]])
    return x, float(g.t[np.argmax(g.f)])


def _follow_twist(config, constants, x, t_mid, rtol):
    """The root at the twists q and its branches, by Newton at lambda q for
    lambda from 0 (where x is the root) to 1, each rung started from the
    last root.  A failed step is halved; a failed step of _TWIST_STEP_MIN
    is a SolverError that names the lambda reached."""
    lam, step = 0.0, _TWIST_STEP
    while lam < 1.0:
        rung = lam + step  # dyadic: exact, and never beyond 1
        try:
            x, branches = _newton(config, constants, x, t_mid, rtol,
                                  rung * config.q)
            lam = rung
        except SolverError as err:
            if step <= _TWIST_STEP_MIN:
                raise SolverError(
                    f"twist continuation stopped at lambda={lam:g}: the "
                    f"step to lambda={rung:g} failed: {err}") from None
            step /= 2.0
    return x, branches


def _sample(config, constants, x, t_mid, branches, nodes, scheme):
    """The solution on the nodes from a root x and its branches (near up to
    t_mid, far beyond); a SolverError if its Kahler residual reaches
    _KAEHLER_ROOT_TOL.  Its slope is read off the sampled u, which runs
    from u(0) = 0 to u(T) = u0f = 2c."""
    r = config.r
    *_, u0f, T = _unpack(x, r)
    (lcA, solA), (lcB, solB) = branches
    sch = Scheme.of_kind(scheme, nodes, T)
    t = sch.t
    near = t <= t_mid
    Y = np.hstack([_branch_states(lcA, solA, t[near]),
                   _reflect(_branch_states(lcB, solB, T - t[~near]), r, u0f)])
    f, df = Y[0], Y[1]
    l, dl = Y[2:2 + r], Y[2 + r:2 + 2 * r]
    u, du = Y[2 + 2 * r], Y[3 + 2 * r]
    # exact collapse values at both ends
    f[0] = f[-1] = 0.0
    df[0], df[-1] = 1.0, -1.0
    dl[:, 0] = dl[:, -1] = 0.0
    du[0] = du[-1] = 0.0

    # second derivatives at the interior nodes in one call; at the collapse
    # points f'' is odd (vanishes) and l'', u'' are even
    dY = _rhs(config, constants, config.q)(t[1:-1], Y[:, 1:-1])
    ddf = np.pad(dY[1], 1)
    filled = fill_even(t, dY[[*range(2 + r, 2 + 2 * r), 3 + 2 * r]])
    ddl, ddu = filled[:-1], filled[-1]

    grid = ProfileGrid(scheme=sch, f=f, df=df, ddf=ddf, l=l, dl=dl, ddl=ddl,
                       u=u, du=du, ddu=ddu)
    kaehler = float(np.abs(kaehler_residual(grid, config)).max())
    if kaehler >= _KAEHLER_ROOT_TOL:
        raise SolverError(f"non-Kahler root: T={T:.9g}, Kahler residual "
                          f"{kaehler:.3e}")
    return gauge_normalize(SolitonSolution(
        grid=grid, config=config, constants=constants, method="shooting"))


def solve_shooting(config: BundleConfig, constants: PinnedConstants,
                   nodes: int, scheme: str = RunConfig.scheme,
                   rtol: float = Tolerances.ode,
                   start: Optional[SolitonSolution] = None
                   ) -> SolitonSolution:
    """Shoot the full second-order system from 6th-order series launches at
    both collapse points and match in the interior.

    The collapse points repel exponentially under the linearized flow (the
    1/f terms), so a single-ended shot cannot reach the far smoothness
    conditions: both ends are launched with free series data (near: l_i(0),
    u''(0)/2; far: the mirrored data, the potential offset u0f = 2c and the
    length T), and damped Gauss-Newton zeroes the matching defect at an
    interior point (``_match_residual``).  An inadmissible bundle is
    rejected before any integration, a non-Kahler root at sampling.

    ``start``, a momentum solution of the same config, gives the trial
    vector and the matching point (warm start); on the reference configs
    its defect is already below the Newton tolerance, so the solve makes
    one matching call and takes no step.  Without it (cold start) the
    solve follows the twist from the product Kahler-Einstein metric, the
    soliton at twist 0 (``_default_guess``, ``_follow_twist``).
    """
    _require_admissible(config)
    if start is not None:
        x, t_mid = _warm_start(config, start)
        x, branches = _newton(config, constants, x, t_mid, rtol, config.q)
    else:
        x, t_mid = _default_guess(config)
        x, branches = _follow_twist(config, constants, x, t_mid, rtol)
    return _sample(config, constants, x, t_mid, branches, nodes, scheme)


# ---------------------------------------------------------------------------
# cross-method comparison


def cross_method_disagreement(sol_a: SolitonSolution,
                              sol_b: SolitonSolution) -> float:
    """Sup-norm disagreement of (f, l_i, u) between two gauge-normalized
    solutions, evaluated on the first solution's nodes.

    The second solution is resampled by cubic Hermite interpolation through
    its own values and first derivatives (f', l_i', u' are columns of every
    grid), so no system is solved.  On one shared grid it is read at its
    own knots; across grids its interpolation error on the clustered
    spectral nodes is far below the comparison tolerances.
    """
    ga, gb = sol_a.grid, sol_b.grid
    t = np.clip(ga.t, 0.0, gb.T)
    interp = cubic_hermite(gb.t, np.vstack([gb.f, gb.u, gb.l]),
                           np.vstack([gb.df, gb.du, gb.dl]), t)
    return float(np.abs(interp - np.vstack([ga.f, ga.u, ga.l])).max())
