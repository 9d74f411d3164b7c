"""Pointwise geometry of the reduced cohomogeneity-one ansatz.

The metric is dt^2 + f(t)^2 theta x theta + sum_i l_i(t)^2 (base factor i),
over an interval [0, T] on which the circle fiber collapses at both ends.
All curvature and weighted-integral quantities reduce to functions of t;
the two ansatz coefficients (A for the vertical fiber-curvature term, B for
the horizontal one) are not hard-coded but pinned by the finite-difference
oracle in :mod:`krslab.oracle`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .config import BundleConfig, ConfigError
from .grids import Scheme, even_extrapolate


class GeometryError(ValueError):
    """Singular or inconsistent profile data."""


@dataclass(frozen=True)
class PinnedConstants:
    """Ansatz curvature coefficients validated against the coordinate oracle."""

    A: float
    B: float
    max_rel_err: float = float("nan")
    samples: int = 0

    def require_pinned(self):
        if not np.isfinite(self.max_rel_err) or self.max_rel_err >= 1e-6:
            raise GeometryError(
                "curvature constants not pinned (oracle error "
                f"{self.max_rel_err}); run pin_constants first"
            )

    def to_dict(self) -> dict:
        from fractions import Fraction

        return {
            "A": str(Fraction(self.A).limit_denominator(64)),
            "B": str(Fraction(self.B).limit_denominator(64)),
            "max_rel_err": self.max_rel_err,
            "samples": self.samples,
        }

    @staticmethod
    def load(path: str) -> "PinnedConstants":
        from fractions import Fraction

        with open(path) as fh:
            raw = json.load(fh)
        return PinnedConstants(
            A=float(Fraction(raw["A"])),
            B=float(Fraction(raw["B"])),
            max_rel_err=float(raw["max_rel_err"]),
            samples=int(raw["samples"]),
        )


@dataclass(frozen=True)
class ProfileGrid:
    """Sampled metric profiles with first and second derivatives.

    l profiles are stacked as arrays of shape (r, K+1); the scheme carries the
    node vector and quadrature weights, and builds its differentiation matrix
    on first use.
    """

    scheme: Scheme
    f: np.ndarray
    df: np.ndarray
    ddf: np.ndarray
    l: np.ndarray
    dl: np.ndarray
    ddl: np.ndarray
    u: np.ndarray
    du: np.ndarray
    ddu: np.ndarray

    @property
    def t(self) -> np.ndarray:
        return self.scheme.t

    @property
    def T(self) -> float:
        return float(self.scheme.t[-1])

    @property
    def nfactors(self) -> int:
        return self.l.shape[0]

    def validate(self, strict: bool = True):
        t = self.t
        ok = (
            abs(self.f[0]) < 1e-10
            and abs(self.f[-1]) < 1e-10
            and np.all(self.f[1:-1] > 0)
            and abs(abs(self.df[0]) - 1.0) < 1e-8
            and abs(abs(self.df[-1]) - 1.0) < 1e-8
            and np.all(self.l > 0)
            and abs(self.dl[:, 0]).max() < 1e-8
            and abs(self.dl[:, -1]).max() < 1e-8
            and abs(self.du[0]) < 1e-8
            and abs(self.du[-1]) < 1e-8
            and np.all(np.diff(t) > 0)
        )
        if strict and not ok:
            raise GeometryError("profile grid violates collapse/evenness invariants")
        return ok

    def with_u(self, u, du, ddu) -> "ProfileGrid":
        return replace(self, u=u, du=du, ddu=ddu)


@dataclass(frozen=True)
class RicciProfiles:
    """Ricci tensor in the unit frame: normal, fiber, one per-factor
    horizontal component, and the scalar curvature trace."""

    R_NN: np.ndarray
    R_UU: np.ndarray
    R_i: np.ndarray  # shape (r, K+1)
    R: np.ndarray


def _check_factors(grid: ProfileGrid, config: BundleConfig):
    if grid.nfactors != config.r:
        raise ConfigError(
            f"grid has {grid.nfactors} factor profiles, config has {config.r}"
        )


def _fill_even(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Replace both endpoint values by even-in-(t - t_end) extrapolation from
    the interior; used for 0/0 limits at the collapsing circle."""
    out = v.copy()
    out[0] = even_extrapolate(t, v, 0)
    out[-1] = even_extrapolate(t, v, -1)
    return out


def kaehler_residual(grid: ProfileGrid, config: BundleConfig) -> np.ndarray:
    """Node-wise value of (l_i^2)' - q_i f per factor; identically zero for a
    Kahler configuration."""
    _check_factors(grid, config)
    q = config.q[:, None]
    return 2.0 * grid.l * grid.dl - q * grid.f[None, :]


def ricci_components(
    grid: ProfileGrid, config: BundleConfig, constants: PinnedConstants
) -> RicciProfiles:
    """Ricci components of the ansatz metric in the unit frame.

    Endpoint values (where f -> 0 makes individual terms 0/0) are filled by
    even extrapolation from the interior nodes.
    """
    _check_factors(grid, config)
    constants.require_pinned()
    t = grid.t
    f, df, ddf = grid.f, grid.df, grid.ddf
    if np.any(f[1:-1] == 0.0):
        raise GeometryError("f vanishes at an interior node")
    d = config.d[:, None]
    p = config.p[:, None]
    q = config.q[:, None]
    l, dl, ddl = grid.l, grid.dl, grid.ddl

    interior = slice(1, -1)
    K = t.size
    R_NN = np.zeros(K)
    R_UU = np.zeros(K)
    R_i = np.zeros((config.r, K))

    lr = dl / l          # l'/l, finite everywhere
    lsum = (d * lr).sum(axis=0)

    R_NN_full = -ddf / np.where(f == 0, 1.0, f) - (d * ddl / l).sum(axis=0)
    R_NN[interior] = R_NN_full[interior]

    fr = np.zeros(K)
    fr[interior] = df[interior] / f[interior]
    R_UU[interior] = (
        -ddf[interior] / f[interior]
        - fr[interior] * lsum[interior]
        + constants.A * f[interior] ** 2 * ((d * q**2 / l**4).sum(axis=0))[interior]
    )

    for i in range(config.r):
        R_i[i, interior] = (
            -ddl[i, interior] / l[i, interior]
            - lr[i, interior]
            * (fr[interior] + lsum[interior] - lr[i, interior])
            + p[i] / l[i, interior] ** 2
            - constants.B * q[i] ** 2 * f[interior] ** 2 / l[i, interior] ** 4
        )

    R_NN = _fill_even(t, R_NN)
    R_UU = _fill_even(t, R_UU)
    R_i = np.array([_fill_even(t, R_i[i]) for i in range(config.r)])
    R = R_NN + R_UU + (config.d[:, None] * R_i).sum(axis=0)
    return RicciProfiles(R_NN=R_NN, R_UU=R_UU, R_i=R_i, R=R)


def hessian_components(grid: ProfileGrid, v: np.ndarray, dv: np.ndarray,
                       ddv: np.ndarray):
    """Hessian of a t-only scalar in the unit frame.

    Returns (H_NN, H_UU, H_i) with H_NN = v'', H_UU = v' f'/f,
    H_i = v' l_i'/l_i; the fiber component at the collapsed ends is the
    L'Hopital limit v''.
    """
    if v.shape != grid.f.shape:
        raise GeometryError("scalar profile not sampled on the grid")
    H_NN = ddv.copy()
    H_UU = np.empty_like(v)
    H_UU[1:-1] = dv[1:-1] * grid.df[1:-1] / grid.f[1:-1]
    # f ~ +-(t - t_end) at the ends, so v' f'/f -> v''
    H_UU[0] = ddv[0]
    H_UU[-1] = ddv[-1]
    H_i = dv[None, :] * grid.dl / grid.l
    return H_NN, H_UU, H_i


def volume_weight(grid: ProfileGrid, config: BundleConfig) -> np.ndarray:
    """Reduced volume density w(t) = f * prod l_i^{d_i}; the full measure is
    dV = V0 * w dt for the orbit-volume constant V0."""
    _check_factors(grid, config)
    return grid.f * np.prod(grid.l ** config.d[:, None], axis=0)


def log_weight_slope(grid: ProfileGrid, config: BundleConfig) -> np.ndarray:
    """(log w)' = f'/f + sum d_i l_i'/l_i at interior nodes (endpoints are
    never used directly: they enter only multiplied by odd factors)."""
    _check_factors(grid, config)
    out = np.zeros_like(grid.f)
    out[1:-1] = grid.df[1:-1] / grid.f[1:-1]
    out += (config.d[:, None] * grid.dl / grid.l).sum(axis=0)
    return out


def weighted_laplacian(grid: ProfileGrid, config: BundleConfig, v: np.ndarray,
                       dv: np.ndarray, ddv: np.ndarray) -> np.ndarray:
    """Drift Laplacian of a t-only scalar:
    Delta_u v = v'' + (log w)' v' - u' v'.

    At the collapsed ends (log w)' v' -> v'' (evenness of v), so the limit
    value is 2 v'' + (sum d_i l_i'/l_i - u') v' = 2 v''.
    """
    _check_factors(grid, config)
    out = np.empty_like(v)
    lw = log_weight_slope(grid, config)
    out[1:-1] = ddv[1:-1] + (lw[1:-1] - grid.du[1:-1]) * dv[1:-1]
    for idx in (0, -1):
        out[idx] = 2.0 * ddv[idx] + (lw[idx] - grid.du[idx]) * dv[idx]
    return out


def laplacian(grid: ProfileGrid, config: BundleConfig, v: np.ndarray,
              dv: np.ndarray, ddv: np.ndarray) -> np.ndarray:
    """Unweighted Laplacian (trace of the Hessian) of a t-only scalar."""
    return weighted_laplacian(grid, config, v, dv, ddv) + grid.du * dv


def weighted_integral(grid: ProfileGrid, config: BundleConfig, F: np.ndarray,
                      V0: float = 1.0) -> float:
    """integral of F over M against e^{-u} dV, reduced to
    V0 * int F w e^{-u} dt with the configured quadrature."""
    _check_factors(grid, config)
    w = volume_weight(grid, config)
    return V0 * grid.scheme.integrate(F * w * np.exp(-grid.u))
