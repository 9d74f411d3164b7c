"""Second-variation machinery evaluated on a solved soliton.

Everything here reduces to weighted one-dimensional quadrature: the
perturbations considered are built from base deformations whose pointwise
norm depends on t only, so the stability integral, the pairing constant
C(h, g), the auxiliary potential equation and the integration-by-parts
identity all become scalar computations on the profile grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import algebra
from .config import PROFILE_KINDS, STABILITY_PREFACTOR, ProfileSpec
from .geometry import log_weight_slope, weighted_integral, weighted_laplacian
from .solver import SolitonSolution


class StabilityError(ValueError):
    """Precondition violated by a perturbation profile or solution."""


# ---------------------------------------------------------------------------
# perturbation profiles


@dataclass(frozen=True)
class PerturbationProfile:
    """Pointwise squared norm of an anti-invariant perturbation.

    Either constant per-factor norms ``kappas`` (the geometric construction,
    and the only essential one) or a synthetic sampled total profile
    ``psi_fn`` with optional derivative ``dpsi_fn``, both callables taking
    the node vector.  psi must be nonnegative.
    """

    name: str
    kappas: Optional[tuple] = None
    psi_fn: Optional[Callable] = None
    dpsi_fn: Optional[Callable] = None

    def __post_init__(self):
        if (self.kappas is None) == (self.psi_fn is None):
            raise StabilityError(
                "profile needs exactly one of constant kappas or a sampled psi"
            )
        if self.kappas is not None and any(k < 0 for k in self.kappas):
            raise StabilityError("constant norms must be >= 0")

    @property
    def is_constant(self) -> bool:
        return self.kappas is not None

    @property
    def essential(self) -> bool:
        """Essentiality is established only for constant profiles."""
        return self.is_constant

    def psi(self, t: np.ndarray) -> np.ndarray:
        if self.is_constant:
            return np.full_like(t, float(sum(self.kappas)))
        vals = np.asarray(self.psi_fn(t), dtype=float)
        if np.any(vals < -1e-12):
            raise StabilityError(f"profile {self.name!r} is negative")
        return np.maximum(vals, 0.0)

    def dpsi(self, t: np.ndarray) -> np.ndarray:
        if self.is_constant:
            return np.zeros_like(t)
        if self.dpsi_fn is None:
            raise StabilityError(f"profile {self.name!r} has no derivative")
        return np.asarray(self.dpsi_fn(t), dtype=float)


def constant_profile(kappas) -> PerturbationProfile:
    return PerturbationProfile(name="constant",
                               kappas=tuple(float(k) for k in kappas))


@dataclass(frozen=True)
class EntropyGauge:
    """Additive normalization of the potential for entropy evaluation."""

    mode: str = "ratio"          # "ratio" or "absolute"
    V0: Optional[float] = None   # orbit-volume constant, absolute mode only

    def __post_init__(self):
        if self.mode not in ("ratio", "absolute"):
            raise StabilityError(f"unknown gauge mode {self.mode!r}")
        if self.mode == "absolute" and (self.V0 is None or self.V0 <= 0):
            raise StabilityError("absolute mode requires a positive V0")


@dataclass(frozen=True)
class StabilityReport:
    """One evaluation of the second-variation integral."""

    profile: str
    value: float
    scale: float
    sign: str                 # "negative" | "zero" | "positive"
    C_hg: float
    v_h_norm: float
    essential: bool


_GAUGE_TOL = 1e-8  # largest weighted mean of u read as the zero-mean gauge
_ZERO_BAND = 1e-8  # |value| below this fraction of its scale reads "zero"


def _require_normalized(sol: SolitonSolution):
    if sol.residuals.gauge >= _GAUGE_TOL:
        raise StabilityError(
            "solution is not gauge-normalized (weighted mean of u is "
            f"{sol.residuals.gauge:.3e}); the stability formulas assume the "
            "zero-mean gauge"
        )


def _classify(value: float, scale: float) -> str:
    if abs(value) < _ZERO_BAND * max(scale, np.finfo(float).tiny):
        return "zero"
    return "positive" if value > 0 else "negative"


def second_variation_main(sol: SolitonSolution,
                          pert: PerturbationProfile) -> StabilityReport:
    """Stability integral 2 * int u * psi e^{-u} dV in the ratio gauge;
    linear in the profile.  The reported scale is 2 * int psi e^{-u} dV, so
    value/scale is a weighted mean of u.
    """
    _require_normalized(sol)
    grid, config = sol.grid, sol.config
    psi = pert.psi(grid.t)
    value = STABILITY_PREFACTOR * weighted_integral(grid, config, grid.u * psi)
    scale = STABILITY_PREFACTOR * weighted_integral(grid, config, psi)
    # for the geometric (anti-invariant) perturbations the pairing constant
    # vanishes pointwise and so does the auxiliary potential source
    C_hg = c_constant(sol, "anti_invariant")
    return StabilityReport(
        profile=pert.name, value=value, scale=scale,
        sign=_classify(value, scale), C_hg=C_hg, v_h_norm=0.0,
        essential=pert.essential,
    )


def dw_theorem_check(sol: SolitonSolution, pert: PerturbationProfile) -> float:
    """Independent route to the vanishing result for constant profiles:
    the integral factorizes as (sum kappa) * int (Delta_u u) e^{-u} dV, which
    the divergence theorem kills.  Returns the absolute value of the direct
    quadrature of that product."""
    if not pert.is_constant:
        raise StabilityError(
            "the factorization requires a t-independent profile"
        )
    lap = sol.evaluation.drift_lap_u
    total = float(sum(pert.kappas))
    return abs(total * weighted_integral(sol.grid, sol.config, lap))


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
    ric = sol.evaluation.ricci
    denom = weighted_integral(grid, config, ric.R)
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
        return weighted_integral(grid, config, ric.R) / denom
    if h_kind == "custom":
        if profiles is None:
            raise StabilityError("custom kind needs diagonal profiles")
        pairing = (
            ric.R_NN * profiles["h_NN"]
            + ric.R_UU * profiles["h_UU"]
            + (config.d[:, None] * ric.R_i * profiles["h_i"]).sum(axis=0)
        )
        return weighted_integral(grid, config, pairing) / denom
    raise StabilityError(f"unknown h_kind {h_kind!r}")


@dataclass(frozen=True)
class VhSolution:
    """Solution of Delta_u v + v = s with even (Neumann) boundary data."""

    v: np.ndarray
    residual: float
    smallest_singular_value: float
    near_kernel: bool
    least_squares: bool


def v_h_solve(sol: SolitonSolution, source: np.ndarray,
              kernel_tol: float = 1e-6) -> VhSolution:
    """Collocation solve of the auxiliary potential equation
    Delta_u v + v = s on the profile grid.

    The two boundary rows impose v' = 0 (evenness at the collapsed circles);
    the smallest singular value of the discrete operator is reported because
    1 is not a priori excluded from the spectrum of -Delta_u.  A
    near-singular operator is solved in the least-squares sense and flagged.
    """
    _require_normalized(sol)
    grid, config = sol.grid, sol.config
    sch = grid.scheme
    s = np.asarray(source, dtype=float)
    if s.shape != grid.t.shape:
        raise StabilityError("source not sampled on the solution grid")
    D = sch.D
    D2 = D @ D
    lw = log_weight_slope(grid, config)
    L = D2 + (lw - grid.du)[:, None] * D
    L[np.diag_indices_from(L)] += 1.0
    rhs = s.copy()
    # boundary rows: v'(0) = v'(T) = 0; the interior equations plus evenness
    # determine the endpoint limits
    L[0] = D[0]
    L[-1] = D[-1]
    rhs[0] = rhs[-1] = 0.0
    sigma_min = float(np.linalg.svd(L, compute_uv=False)[-1])
    near = sigma_min < kernel_tol
    if near:
        v, *_ = np.linalg.lstsq(L, rhs, rcond=None)
        least_squares = True
    else:
        v = np.linalg.solve(L, rhs)
        least_squares = False
    dv = D @ v
    ddv = D2 @ v
    res = weighted_laplacian(grid, config, v, dv, ddv) + v - s
    # the endpoint rows solved the boundary condition, not the equation;
    # report the equation residual at the interior nodes
    residual = float(np.abs(res[1:-1]).max())
    return VhSolution(v=v, residual=residual,
                      smallest_singular_value=sigma_min, near_kernel=near,
                      least_squares=least_squares)


def ibp_identity_check(sol: SolitonSolution,
                       pert: PerturbationProfile) -> float:
    """Integration-by-parts identity for the drift term of the second
    variation: with the pointwise reduction <grad u . nabla h, h> =
    (1/2) u' psi', the identity reads

        - int (1/2) u' psi' e^{-u} dV = (1/2) int (Delta_u u) psi e^{-u} dV,

    half the divergence-product identity (no boundary terms: the volume
    weight vanishes at the collapsed ends).  Returns the deviation of the
    unscaled form, int (Delta_u u) psi e^{-u} dV + int u' psi' e^{-u} dV.
    """
    _require_normalized(sol)
    grid, config = sol.grid, sol.config
    psi = pert.psi(grid.t)
    dpsi = pert.dpsi(grid.t)
    direct = weighted_integral(grid, config, sol.evaluation.drift_lap_u * psi)
    by_parts = -weighted_integral(grid, config, grid.du * dpsi)
    return abs(direct - by_parts)


def family(sol: SolitonSolution, specs: tuple = ()) -> list:
    """The profiles named by ``specs`` (config.ProfileSpec, in order), or one
    of each kind in PROFILE_KINDS: the constant profile plus the synthetic
    split of the potential into positive part, negative part and modulus.
    The split pair is guaranteed to produce opposite signs whenever u is
    nonconstant with zero weighted mean.  A constant spec without kappas
    takes the solution's deformation norms, or unit norms if all vanish."""
    kap = sol.config.kappa
    if not np.any(kap > 0):
        kap = np.ones(sol.config.r)
    t, u, du = sol.grid.t, sol.grid.u, sol.grid.du
    split = {"u_plus": (np.maximum(u, 0.0), np.where(u > 0, du, 0.0)),
             "u_minus": (np.maximum(-u, 0.0), np.where(u < 0, -du, 0.0)),
             "abs_u": (np.abs(u), np.sign(u) * du)}
    profiles = []
    for spec in specs or [ProfileSpec(kind) for kind in PROFILE_KINDS]:
        spec.check_factors(sol.config.r)
        if spec.kind == "constant":
            profiles.append(constant_profile(
                kap if spec.kappas is None else spec.kappas))
        else:
            psi, dpsi = split[spec.kind]
            profiles.append(PerturbationProfile(
                name=spec.kind, psi_fn=partial(np.interp, xp=t, fp=psi),
                dpsi_fn=partial(np.interp, xp=t, fp=dpsi)))
    return profiles


def sign_explorer(sol: SolitonSolution,
                  profiles: Optional[list] = None) -> list:
    """Evaluate the stability integral over a family of profiles (by
    default ``family(sol)``)."""
    if profiles is None:
        profiles = family(sol)
    return [second_variation_main(sol, pert) for pert in profiles]


def nu_estimate(sol: SolitonSolution, gauge: EntropyGauge) -> dict:
    """Entropy of the solved soliton from the constancy of the first
    integral tau (2 Delta u - |grad u|^2 + R) + u - n.

    ratio mode: returns that constant as-is, flagged as determined only up
    to the additive log-volume constant.  absolute mode: shifts u so the
    measure e^{-u} (4 pi tau)^{-n/2} dV has unit mass (requires the orbit
    volume V0) and returns the resulting entropy value.
    """
    config = sol.config
    tau = config.tau
    ham = sol.evaluation.first_integral - config.n
    dev = float(np.abs(ham - ham.mean()).max())
    if dev >= 1e-6:
        raise StabilityError(
            f"first integral is not constant (deviation {dev:.3e}); "
            "refusing to report an entropy value"
        )
    value = float(ham.mean())
    out = {"mode": gauge.mode, "constancy_deviation": dev, "tau": tau}
    if gauge.mode == "ratio":
        out["value"] = value
        out["flag"] = "up to additive log-volume constant"
        return out
    mass = gauge.V0 * sol.evaluation.volume
    shift = float(np.log(mass * (4.0 * np.pi * tau) ** (-config.n / 2.0)))
    out["value"] = value + shift
    out["compatibility_shift"] = shift
    return out
