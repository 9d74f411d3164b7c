"""Second-variation machinery evaluated on a solved soliton.

Everything here reduces to one-dimensional computations: the perturbations
considered are built from base deformations whose pointwise norm depends on
t only, so the stability integral, the pairing constant C(h, g) and the
integration-by-parts identity become weighted quadratures on the profile
grid.  The drift Laplacian on invariant functions is a Sturm-Liouville
operator in the moment coordinate s (ds = f dt, s in [0, 2]); the auxiliary
potential equation and the drift spectrum are collocated there, in a small
Chebyshev basis, and mapped back to the profile grid.

The stability integral 2 int u psi e^{-u} dV weighs u itself, so it is
defined only in the zero-mean gauge, int u e^{-u} dV = 0:
``second_variation_main`` and ``sign_explorer`` check it, reading
``SolitonSolution.weighted_mean_u``.  The auxiliary equation and the
integration-by-parts identity see u only through u' (and the measure
e^{-u} dV, which a constant shift of u scales), so ``v_h_solve``,
``ibp_identity_check`` and ``drift_spectrum`` need no gauge and do not
check it.  Only ``dw_theorem_check`` reads the solution's residual report,
for its divergence integral.

The intermediates listed here depend only on the solution and are computed
at most once per solution; ``sign_explorer`` and ``nu_estimate`` keep
nothing and compute their results again on every call.  int R e^{-u} dV,
the denominator of C(h, g), is ``SolitonSolution.scalar_integral``, and
Ricci, Delta_u u and the first integral are the solution's too; the drift
coefficient (log w)' - u' of the v_h residual check is kept in the grid's
measures by ``weighted_laplacian``; the rest is kept on the solution, in
``SolitonSolution.stability_cache``, under these keys (N + 1 nodes,
Chebyshev degree m):

- ``"X"``: the moment coordinate at the nodes;
- ``"vander"``: the nodal Chebyshev Vandermonde V, one row per degree, as
  one (m+1) x (N+1) array at the largest degree m any call built; a lower
  degree reads its first rows, bit for bit what a fresh V holds: 270 kB at
  N = 1024 and degree 32, at most 257 (N+1) 8 bytes (8.4 MB at N = 4096);
- per degree m tried, ``("fit", m)``, the inverse Gram matrix of V (from
  its triangular factor), and ``("collocation", m)``, the operator, its
  smallest singular value, and its solution map and d/ds on Chebyshev
  coefficients, which ``v_h_solve`` and ``drift_spectrum`` share: four
  (m+1)^2 arrays, 32 (m+1)^2 bytes per degree, 9 kB at degree 16, 2.1 MB
  at 256, 2.8 MB for all five.

The first call on a solution builds them, at about the cost of a call
without them; a later call at a degree no higher pays only for the fit
(V V^T)^-1 V s (cond V < 5 on the solvers' nodes, so the normal equations
lose under two digits), small matrix-vector products and the map back.  A
new solution, ``dataclasses.replace`` included, starts with an empty cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import chebyshev as cheb

from . import algebra
from .config import PROFILE_KINDS, STABILITY_PREFACTOR, TAU
from .geometry import weighted_integral, weighted_laplacian
from .grids import cheb_lobatto
from .solver import SolitonSolution, momentum_phi


class StabilityError(ValueError):
    """Precondition violated by a perturbation profile or solution."""


# ---------------------------------------------------------------------------
# perturbation profiles


@dataclass(frozen=True)
class PerturbationProfile:
    """Pointwise squared norm of an anti-invariant perturbation, sampled:
    ``psi_fn`` and its derivative ``dpsi_fn`` are callables taking the node
    vector.  psi must be finite and nonnegative, psi' finite.
    """

    name: str
    psi_fn: Callable
    dpsi_fn: Callable

    def psi(self, t: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.psi_fn(t), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise StabilityError(f"profile {self.name!r} is not finite")
        if np.any(vals < -1e-12):
            raise StabilityError(f"profile {self.name!r} is negative")
        return np.maximum(vals, 0.0)

    def dpsi(self, t: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.dpsi_fn(t), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise StabilityError(f"derivative of profile {self.name!r} is "
                                 "not finite")
        return vals


def constant_profile(kappas) -> PerturbationProfile:
    """The profile of constant per-factor norms ``kappas`` (the geometric
    construction: a variation of the complex structure, whose integral
    vanishes), each finite and >= 0: psi = sum kappa, psi' = 0."""
    kappas = tuple(float(k) for k in kappas)
    if not all(0 <= k < np.inf for k in kappas):
        raise StabilityError(f"constant norms must be finite and >= 0, "
                             f"got {kappas}")
    return PerturbationProfile(
        name="constant", psi_fn=partial(np.full_like, fill_value=sum(kappas)),
        dpsi_fn=np.zeros_like)


@dataclass(frozen=True)
class EntropyGauge:
    """Additive normalization of the potential for entropy evaluation: the
    ratio gauge, in which the entropy is known only up to the additive
    log-volume constant (the factor data (d, p) do not determine the orbit
    volume that would fix it)."""


@dataclass(frozen=True)
class StabilityReport:
    """One evaluation of the second-variation integral.  A constant
    profile's row reads "zero" on every solution the table accepts: its
    value/scale is the weighted mean of u, which ``_require_normalized``
    bounds by _GAUGE_TOL <= _ZERO_BAND."""

    profile: str
    value: float
    scale: float
    sign: str                 # "negative" | "zero" | "positive"
    C_hg: float
    v_h_norm: float


_GAUGE_TOL = 1e-8  # largest weighted mean of u read as the zero-mean gauge
_ZERO_BAND = 1e-8  # |value| below this fraction of its scale reads "zero"
_TINY = np.finfo(float).tiny  # the floor of a scale in _classify


def _require_normalized(sol: SolitonSolution):
    """The zero-mean gauge, which the integrals that weigh u itself need."""
    gauge = abs(sol.weighted_mean_u)
    if gauge >= _GAUGE_TOL:
        raise StabilityError(
            "solution is not gauge-normalized (weighted mean of u is "
            f"{gauge:.3e}); the stability formulas assume the zero-mean gauge")


def _classify(value: float, scale: float) -> str:
    if abs(value) < _ZERO_BAND * max(scale, _TINY):
        return "zero"
    return "positive" if value > 0 else "negative"


def _report(sol: SolitonSolution, name: str, psi: np.ndarray,
            C_hg: float) -> StabilityReport:
    """The stability integral of the profile sampled as ``psi`` at the
    nodes, with the pairing constant ``C_hg`` of its kind."""
    grid, config = sol.grid, sol.config
    value = STABILITY_PREFACTOR * weighted_integral(grid, config, grid.u * psi)
    scale = STABILITY_PREFACTOR * weighted_integral(grid, config, psi)
    return StabilityReport(
        profile=name, value=value, scale=scale, sign=_classify(value, scale),
        C_hg=C_hg, v_h_norm=0.0)


def second_variation_main(sol: SolitonSolution,
                          pert: PerturbationProfile) -> StabilityReport:
    """Stability integral 2 * int u * psi e^{-u} dV in the ratio gauge;
    linear in the profile.  The reported scale is 2 * int psi e^{-u} dV, so
    value/scale is a weighted mean of u.  For the geometric
    (anti-invariant) perturbations the pairing constant vanishes pointwise,
    and so does the auxiliary potential source.
    """
    _require_normalized(sol)
    return _report(sol, pert.name, pert.psi(sol.grid.t),
                   c_constant(sol, "anti_invariant"))


def dw_theorem_check(sol: SolitonSolution, pert: PerturbationProfile) -> float:
    """Independent route to the vanishing result for t-independent
    profiles, read off the samples: a constant psi = sum kappa factors out
    of the integral, leaving psi * int (Delta_u u) e^{-u} dV, which the
    divergence theorem kills.  Returns the absolute value of that product,
    the quadrature being the residual report's ``div_integral``."""
    psi = pert.psi(sol.grid.t)
    if (psi != psi[0]).any():
        raise StabilityError(
            "the factorization requires a t-independent profile"
        )
    return float(psi[0]) * sol.residuals.div_integral


def c_constant(sol: SolitonSolution, h_kind: str,
               profiles: Optional[dict] = None) -> float:
    """Pairing constant C(h, g) = int <Ric, h> e^{-u} dV / int R e^{-u} dV.

    anti_invariant: the pointwise pairing of the J-invariant Ricci tensor
    with an anti-invariant h vanishes identically (checked algebraically in
    :mod:`krslab.algebra`), so the constant is exactly zero.
    metric_direction: h = g, so <Ric, g> = R and the ratio is one.
    custom: diagonal J-invariant h given by per-direction profiles
    {"h_NN", "h_UU", "h_i"} on the grid.
    """
    grid, config = sol.grid, sol.config
    denom = sol.scalar_integral
    if abs(denom) < 1e-12:
        raise StabilityError("int R e^{-u} dV vanishes; C(h,g) undefined")
    if h_kind == "anti_invariant":
        if not algebra.anti_invariant_pairing_vanishes():
            raise StabilityError(
                "pointwise orthogonality of invariant against anti-invariant "
                "tensors failed its algebraic check"
            )
        return 0.0
    if h_kind == "metric_direction":
        return denom / denom  # <Ric, g> = R: exactly 1.0
    if h_kind == "custom":
        _check_custom(profiles, config.r, grid.t.size)
        ric = sol.ricci
        pairing = (
            ric.R_NN * profiles["h_NN"]
            + ric.R_UU * profiles["h_UU"]
            + (config.d[:, None] * ric.R_i * profiles["h_i"]).sum(axis=0)
        )
        return weighted_integral(grid, config, pairing) / denom
    raise StabilityError(f"unknown h_kind {h_kind!r}")


def _check_custom(profiles: Optional[dict], r: int, size: int):
    """A custom h holds exactly the profiles h_NN, h_UU and h_i, of shapes
    (size,), (size,) and (r, size), every value finite."""
    if profiles is None:
        raise StabilityError("custom kind needs diagonal profiles")
    shapes = {"h_NN": (size,), "h_UU": (size,), "h_i": (r, size)}
    if profiles.keys() != shapes.keys():
        raise StabilityError(f"custom h needs exactly the keys "
                             f"{sorted(shapes)}, got {sorted(profiles)}")
    for key, shape in shapes.items():
        given = np.shape(profiles[key])
        if given != shape:
            raise StabilityError(f"custom h: {key} has shape {given}, "
                                 f"expected {shape}")
        if not np.isfinite(profiles[key]).all():
            raise StabilityError(f"custom h: {key} of shape {given} is not "
                                 "finite (NaN or inf at a node), expected "
                                 f"finite values of shape {shape}")


@dataclass(frozen=True)
class VhSolution:
    """Solution of Delta_u v + v = s on the profile grid.

    ``v`` holds the values at the solution's nodes and ``residual`` the
    interior t-node residual of the equation evaluated on the solution's own
    profiles.  ``smallest_singular_value`` is that of the small collocation
    operator in the moment coordinate; below ``kernel_tol`` it is
    ``near_kernel`` and solved in the least-squares sense.  ``degree`` is
    the Chebyshev degree in s the solve settled on.
    """

    v: np.ndarray
    residual: float
    smallest_singular_value: float
    near_kernel: bool
    degree: int

    @property
    def least_squares(self) -> bool:
        """A near-kernel operator is solved in the least-squares sense."""
        return self.near_kernel


# degrees of the s-series tried in turn, and the size of the last quarter of
# its Chebyshev coefficients, relative to the largest, read as negligible
_DEGREES = (16, 32, 64, 128, 256)
_TAIL_TOL = 1e-12
_X_END_TOL = 1e-8  # largest distance of X's end values from -1 and 1


def _cached(sol: SolitonSolution, key, build: Callable):
    """``sol.stability_cache[key]``, made by ``build()`` on first use."""
    cache = sol.stability_cache
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _moment_coordinate(sol: SolitonSolution) -> np.ndarray:
    """X = s - 1 in [-1, 1] at the solution's nodes, with s from the Kahler
    relation l_j^2 = q_j s + p_j - q_j (least squares over the factors);
    computed once per solution.  Where every |q_j| is far below its p_j,
    q_j s is lost in the rounding of l_j^2 (and q_j^2 may underflow to 0),
    so X is not the moment coordinate: then it may hold NaN and need not
    run from -1 to 1, which ``v_h_solve`` checks."""
    def build():
        cf = sol.config
        excess = sol.grid.l ** 2 - (cf.p - cf.q)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (cf.q[:, None] * excess).sum(axis=0) / (cf.q ** 2).sum()
        return np.clip(s, 0.0, 2.0) - 1.0

    return _cached(sol, "X", build)


@dataclass(frozen=True)
class _Collocation:
    """The drift Laplacian on invariant functions collocated at degree m, on
    one solution, at the m+1 Chebyshev-Lobatto nodes x on [0, 2]: the
    operator A = phi(s) d^2/ds^2 + 2 (1 - s) d/ds (phi vanishes at both
    ends, so the end rows carry the natural boundary conditions), the
    smallest singular value of A + I and, on Chebyshev coefficients of
    degree m, the solution map of (A + I) v = s and the derivative d/ds."""

    x: np.ndarray
    A: np.ndarray
    sigma_min: float
    solve: np.ndarray
    deriv: np.ndarray


def _collocation(sol: SolitonSolution, m: int) -> _Collocation:
    """The degree-m collocation of ``sol``, built once per solution."""
    def build():
        x, D = cheb_lobatto(m, 2.0)
        phi = momentum_phi(sol.config, sol.c_slope, x)
        A = phi[:, None] * (D @ D) + (2.0 * (1.0 - x))[:, None] * D
        L = A + np.eye(m + 1)
        # B holds the Chebyshev basis at x: B^-1 L^-1 B = (L B)^-1 B
        B = cheb.chebvander(x - 1.0, m)
        deriv = np.zeros((m + 1, m + 1))
        deriv[:m] = cheb.chebder(np.eye(m + 1))
        return _Collocation(
            x=x, A=A, sigma_min=float(np.linalg.svd(L, compute_uv=False)[-1]),
            solve=np.linalg.solve(L @ B, B), deriv=deriv)

    return _cached(sol, ("collocation", m), build)


def _inverse_gram(vander: np.ndarray) -> np.ndarray:
    """(V V^T)^-1 for a Vandermonde V with one row per degree, from the
    triangular factor of its QR: the least-squares fit to nodal values y is
    then (V V^T)^-1 V y."""
    r_inv = np.linalg.inv(np.linalg.qr(vander.T, mode="r"))
    return r_inv @ r_inv.T


def _tail(coef: np.ndarray) -> float:
    """Largest |coefficient| in the last quarter of a Chebyshev series,
    relative to the largest one (0 for the zero series)."""
    mag = np.abs(coef)
    top = mag.max()
    return float(mag[-(coef.size // 4):].max() / top) if top else 0.0


def v_h_solve(sol: SolitonSolution, source: np.ndarray,
              kernel_tol: float = 1e-6) -> VhSolution:
    """Solve the auxiliary potential equation Delta_u v + v = s for an
    invariant (even) source sampled on the profile grid.

    In the moment coordinate s (ds = f dt, s in [0, 2]) the drift Laplacian
    is phi(s) v_ss + 2 (1 - s) v_s with phi = f^2, a Sturm-Liouville
    operator whose nonzero spectrum lies in [2, inf) (Futaki's bound), so
    the equation is well-posed.  The source is fitted as a Chebyshev series
    in s, whose degree doubles from 16 until the last quarter of its
    coefficients, and of the solution's, is negligible; the degree follows
    the source and the operator, not the number of nodes, which only bounds
    it (at most half of them).  A source with a NaN or inf, checked before
    any degree is tried, and a source still unresolved at the largest
    degree (not a smooth invariant function) are errors, and so is a
    moment coordinate X = s - 1 that does not run from -1 at the first
    node to 1 at the last, to within 1e-8 (``_moment_coordinate``: s is
    not resolved on the factors).  The equation is
    collocated at that degree, and the smallest singular value of the small
    operator is reported; below ``kernel_tol`` it is solved in the
    least-squares sense and flagged.  The solution is mapped back to the
    nodes with v' = v_s f, v'' = v_ss f^2 + v_s f'.

    What does not depend on the source is kept on the solution, in the
    cache the module docstring lays out.  The equation sees u only through
    u', so it is gauge-invariant: a solution whose u is shifted by a
    constant gives the same v, bit for bit, and needs no zero-mean gauge.
    """
    grid, config = sol.grid, sol.config
    src = np.asarray(source, dtype=float)
    if src.shape != grid.t.shape:
        raise StabilityError("source not sampled on the solution grid")
    if not np.isfinite(src).all():
        raise StabilityError("the source is not finite (NaN or inf at a "
                             "node)")
    degrees = [m for m in _DEGREES if 2 * m < grid.t.size]
    if not degrees:
        raise StabilityError(f"{grid.t.size} nodes are too few to fit the "
                             f"source in s (need {2 * _DEGREES[0] + 1})")
    X = _moment_coordinate(sol)
    if not (abs(X[0] + 1.0) <= _X_END_TOL and abs(X[-1] - 1.0) <= _X_END_TOL):
        raise StabilityError(
            f"the moment coordinate X = s - 1 runs from {float(X[0])!r} to "
            f"{float(X[-1])!r}, not from -1 to 1: the Kahler relation does "
            "not resolve s on these factors")
    kept = sol.stability_cache.get("vander")
    for m in degrees:
        if kept is None or kept.shape[0] <= m:
            # one row per degree
            kept = sol.stability_cache["vander"] = cheb.chebvander(X, m).T
        nodal = kept[:m + 1]
        gram_inv = _cached(sol, ("fit", m), lambda: _inverse_gram(nodal))
        coef = gram_inv @ (nodal @ src)
        what, tail = "source", _tail(coef)
        if tail > _TAIL_TOL:
            continue
        op = _collocation(sol, m)
        near = op.sigma_min < kernel_tol
        if near:
            x = op.x - 1.0
            V, *_ = np.linalg.lstsq(op.A + np.eye(m + 1),
                                    cheb.chebval(x, coef), rcond=None)
            vcoef = cheb.chebfit(x, V, m)
        else:
            vcoef = op.solve @ coef
        what, tail = "solution", _tail(vcoef)
        if tail <= _TAIL_TOL:
            break
    else:
        limit = ("the largest tried" if m == _DEGREES[-1] else
                 f"the largest {grid.t.size} nodes allow")
        raise StabilityError(
            f"the {what} is not resolved as a Chebyshev series in s at "
            f"degree {m}, {limit} (coefficient tail {tail:.1e}); a smooth "
            "invariant source is a smooth function of s")
    dcoef = op.deriv @ vcoef
    v, v_s, v_ss = np.array([vcoef, dcoef, op.deriv @ dcoef]) @ nodal
    dv = v_s * grid.f
    ddv = v_ss * grid.f ** 2 + v_s * grid.df
    res = weighted_laplacian(grid, config, dv, ddv) + v - src
    # the equation at the interior nodes, on the solution's own profiles
    residual = float(np.abs(res[1:-1]).max())
    return VhSolution(v=v, residual=residual,
                      smallest_singular_value=op.sigma_min, near_kernel=near,
                      degree=m)


def drift_spectrum(sol: SolitonSolution, k: int) -> np.ndarray:
    """The k lowest eigenvalues of -Delta_u on invariant functions,
    ascending.

    They are the eigenvalues of the collocated s-operator of ``v_h_solve``,
    the same cached per-degree collocation, whose degree doubles until the
    k values agree with those of the previous degree to 1e-10 (relative).
    Two degrees of at least 2k are compared, so k is at most a quarter of
    the largest degree, 64; a larger k is an error.  The first two are
    exactly 0 (constants) and 2 (s - 1, the moment map, up to a constant),
    and Futaki's bound puts the rest above 2.
    """
    if k < 1:
        raise StabilityError(f"need k >= 1 eigenvalues, got {k}")
    if k > _DEGREES[-1] // 4:
        raise StabilityError(
            f"at most {_DEGREES[-1] // 4} eigenvalues can converge (two "
            f"degrees >= 2k up to {_DEGREES[-1]} are compared), got {k}")
    prev = None
    for m in _DEGREES:
        if m < 2 * k:
            continue
        A = _collocation(sol, m).A
        lam = np.sort(np.linalg.eigvals(-A).real)[:k]
        if prev is not None and (np.abs(lam - prev).max()
                                 <= 1e-10 * max(1.0, np.abs(lam).max())):
            return lam
        prev = lam
    raise StabilityError(f"the {k} lowest eigenvalues of -Delta_u are not "
                         f"converged at degree {_DEGREES[-1]}")


def ibp_identity_check(sol: SolitonSolution,
                       pert: PerturbationProfile) -> float:
    """Integration-by-parts identity for the drift term of the second
    variation: with the pointwise reduction <grad u . nabla h, h> =
    (1/2) u' psi', the identity reads

        - int (1/2) u' psi' e^{-u} dV = (1/2) int (Delta_u u) psi e^{-u} dV,

    half the divergence-product identity (no boundary terms: the volume
    weight vanishes at the collapsed ends).  Returns the deviation of the
    unscaled form, int (Delta_u u) psi e^{-u} dV + int u' psi' e^{-u} dV.
    Both sides see u only through u' and the measure e^{-u} dV, so the
    identity is gauge-invariant: shifting u by a constant a scales both
    integrals by e^{-a}, and no zero-mean gauge is needed.
    """
    grid, config = sol.grid, sol.config
    psi = pert.psi(grid.t)
    dpsi = pert.dpsi(grid.t)
    direct = weighted_integral(grid, config, sol.drift_lap_u * psi)
    by_parts = -weighted_integral(grid, config, grid.du * dpsi)
    return abs(direct - by_parts)


# the synthetic split of the potential into positive part, negative part and
# modulus: per kind, psi from u and psi' from u and u', at the nodes
_SPLIT = {
    "u_plus": (lambda u: np.maximum(u, 0.0),
               lambda u, du: np.where(u > 0, du, 0.0)),
    "u_minus": (lambda u: np.maximum(-u, 0.0),
                lambda u, du: np.where(u < 0, -du, 0.0)),
    "abs_u": (np.abs, lambda u, du: np.sign(u) * du),
}


def _rows(sol: SolitonSolution, kinds: tuple) -> list:
    """(kind, psi at the nodes, the rule for psi' from u and u') of each
    profile of ``family(sol, kinds)``, in order."""
    kap = sol.config.kappa
    if not (kap > 0).any():
        kap = np.ones(sol.config.r)
    rows = []
    for kind in kinds or PROFILE_KINDS:
        if kind == "constant":
            rows.append((kind, constant_profile(kap).psi_fn(sol.grid.t),
                         lambda u, du: np.zeros_like(u)))
        elif kind in _SPLIT:
            psi, dpsi = _SPLIT[kind]
            rows.append((kind, psi(sol.grid.u), dpsi))
        else:
            raise StabilityError(f"unknown stability profile kind {kind!r}")
    return rows


def family(sol: SolitonSolution, kinds: tuple) -> list:
    """The profiles of ``kinds`` (from PROFILE_KINDS, in order), or one of
    each kind: the constant profile plus the synthetic split of the
    potential into positive part, negative part and modulus, each sampled
    at the nodes.  The split pair is guaranteed to produce opposite signs
    whenever u is nonconstant with zero weighted mean.  The constant
    profile takes the solution's deformation norms, or unit norms if all
    vanish."""
    t, u, du = sol.grid.t, sol.grid.u, sol.grid.du
    return [PerturbationProfile(
        name=kind, psi_fn=partial(np.interp, xp=t, fp=psi),
        dpsi_fn=partial(np.interp, xp=t, fp=dpsi(u, du)))
        for kind, psi, dpsi in _rows(sol, kinds)]


def sign_explorer(sol: SolitonSolution, kinds: tuple = ()) -> list:
    """The stability integral over ``family(sol, kinds)``: each report
    equals ``second_variation_main`` of its profile, read off the profile's
    nodal values with one pairing constant for the table."""
    rows = _rows(sol, kinds)
    _require_normalized(sol)
    C_hg = c_constant(sol, "anti_invariant")
    return [_report(sol, kind, psi, C_hg) for kind, psi, _ in rows]


def nu_estimate(sol: SolitonSolution, gauge: EntropyGauge) -> dict:
    """Entropy of the solved soliton from the constancy of the first
    integral tau (2 Delta u - |grad u|^2 + R) + u - n.

    Returns that constant as-is, flagged as determined only up to the
    additive log-volume constant.
    """
    config = sol.config
    ham = sol.first_integral - config.n
    mean = ham.mean()
    dev = float(np.abs(ham - mean).max())
    if dev >= 1e-6:
        raise StabilityError(
            f"first integral is not constant (deviation {dev:.3e}); "
            "refusing to report an entropy value"
        )
    return {"mode": "ratio", "constancy_deviation": dev, "tau": TAU,
            "value": float(mean),
            "flag": "up to additive log-volume constant"}
