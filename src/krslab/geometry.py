"""Pointwise geometry of the reduced cohomogeneity-one ansatz.

The metric is dt^2 + f(t)^2 theta x theta + sum_i l_i(t)^2 (base factor i),
over an interval [0, T] on which the circle fiber collapses at both ends.
All curvature and weighted-integral quantities reduce to functions of t;
the two ansatz coefficients (A for the vertical fiber-curvature term, B for
the horizontal one) are not hard-coded but pinned by the finite-difference
oracle in :mod:`krslab.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .config import BundleConfig, ConfigError, check_keys, get_field, read_json
from .grids import Scheme, fill_even


class GeometryError(ValueError):
    """Singular or inconsistent profile data."""


class TableShapeError(ConfigError):
    """A profile table whose shape does not fit its scheme and factors, or
    that holds a non-finite cell: a malformed input, not a failed
    solution."""


class TableMismatchError(ConfigError):
    """Metadata that disagrees with its profile table, in T or the node
    count: an error of the pair of files, not of either alone."""


# oracle.pin_constants chooses A and B from these, each exact in binary
CANDIDATES = (0.125, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class PinnedConstants:
    """Ansatz curvature coefficients validated against the coordinate oracle;
    a value whose oracle error is not in [0, 1e-6), or whose sample count is
    below 1, cannot be made.  The codec writes and reads A and B exactly,
    each one of CANDIDATES."""

    A: float
    B: float
    max_rel_err: float
    samples: int

    def __post_init__(self):
        if not np.isfinite(self.max_rel_err) or self.max_rel_err >= 1e-6:
            raise GeometryError(
                "curvature constants not pinned (oracle error "
                f"{self.max_rel_err}); run pin_constants first"
            )
        if self.max_rel_err < 0:
            raise GeometryError(f"max_rel_err {self.max_rel_err} is negative")
        if self.samples < 1:
            raise GeometryError(f"samples {self.samples} is below 1")

    def to_dict(self) -> dict:
        return {
            "A": str(Fraction(self.A)),
            "B": str(Fraction(self.B)),
            "max_rel_err": self.max_rel_err,
            "samples": self.samples,
        }

    @staticmethod
    def from_dict(raw: dict) -> "PinnedConstants":
        def candidate(v):
            f = Fraction(v) if type(v) in (int, float, str) else None
            if f not in CANDIDATES:
                raise ValueError(f"expected one of {CANDIDATES}, got {v!r}")
            return float(f)

        check_keys(raw, ("A", "B", "max_rel_err", "samples"))
        return PinnedConstants(
            A=get_field(raw, "A", candidate),
            B=get_field(raw, "B", candidate),
            max_rel_err=get_field(raw, "max_rel_err", float),
            samples=get_field(raw, "samples", int),
        )

    @staticmethod
    def load(path: str) -> "PinnedConstants":
        return PinnedConstants.from_dict(read_json(path))


# the sampled profiles of a ProfileGrid: every field but the scheme
_PROFILE_FIELDS = ("f", "df", "ddf", "l", "dl", "ddl", "u", "du", "ddu")


@dataclass(frozen=True)
class ProfileGrid:
    """Sampled metric profiles with first and second derivatives.

    l profiles are stacked as arrays of shape (r, K+1); the scheme carries the
    node vector and quadrature weights.  A grid that does not close smoothly
    cannot be made: f vanishes at both ends with |f'| = 1 and is positive
    between them, l_i > 0, l_i' and u' vanish at both ends, and the nodes
    increase.
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

    def __post_init__(self):
        # profiles are read-only arrays that own their data (copied unless
        # they already are), so nothing writes into them after the checks
        # below or behind the measure cached on the grid
        for name in _PROFILE_FIELDS:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.flags.writeable or arr.base is not None:
                arr = arr.copy()
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)
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
            and np.all(np.diff(self.t) > 0)
        )
        if not ok:
            raise GeometryError("profile grid violates collapse/evenness invariants")

    @cached_property
    def _measures(self) -> dict:
        """(w, e^{-u}) of ``weighted_integral`` under the key
        ``d.tobytes()``, and the drift coefficient (log w)' - u' of
        ``weighted_laplacian`` under ``("drift", d.tobytes())``, one entry
        per tuple d of factor dimensions; a new grid,
        ``dataclasses.replace`` included, starts empty."""
        return {}

    def table(self) -> np.ndarray:
        """The profiles as rows t, f, df, ddf, l_i, dl_i, ddl_i (per factor),
        u, du, ddu, shape (3r+7, N+1): the profile CSV transposed (see
        ``profile_csv_header``)."""
        r = self.nfactors
        out = np.empty((3 * r + 7, self.t.size))
        out[0], out[1], out[2], out[3] = self.t, self.f, self.df, self.ddf
        out[4:-3:3], out[5:-3:3], out[6:-3:3] = self.l, self.dl, self.ddl
        out[-3], out[-2], out[-1] = self.u, self.du, self.ddu
        return out

    @staticmethod
    def from_table(scheme: Scheme, table: np.ndarray, r: int) -> "ProfileGrid":
        """Inverse of ``table`` for r factors.  The checks run in this order:
        the shape; every cell finite (a TableShapeError names the first,
        node by node, by its column header and its row, the node's index);
        the last node exactly the scheme's length T, or a TableMismatchError
        naming both; every node within 1e-9 of the scheme's, or a
        GeometryError."""
        shape = (3 * r + 7, scheme.t.size)
        if table.shape != shape:
            raise TableShapeError(f"profile table has shape {table.shape}, "
                                  f"the metadata needs {shape}")
        bad = np.argwhere(~np.isfinite(table.T))
        if bad.size:
            row, col = bad[0]
            raise TableShapeError(
                f"non-finite value {float(table[col, row])!r} in column "
                f"{profile_csv_header(r).split(',')[col]!r}, row {row}")
        T = float(scheme.t[-1])
        if T != table[0, -1]:
            raise TableMismatchError(
                f"T = {T!r} is not the last node of the profile table, "
                f"t = {float(table[0, -1])!r}")
        if np.abs(scheme.t - table[0]).max() > 1e-9:
            raise GeometryError("profile nodes disagree with the scheme")
        return ProfileGrid(
            scheme=scheme, f=table[1], df=table[2], ddf=table[3],
            l=table[4:-3:3], dl=table[5:-3:3], ddl=table[6:-3:3],
            u=table[-3], du=table[-2], ddu=table[-1],
        )


def profile_csv_header(r: int) -> str:
    """Header line of the profile CSV for r factors: the names of the rows
    of ``ProfileGrid.table``, in order."""
    cols = ["t", "f", "df", "ddf"]
    for i in range(1, r + 1):
        cols += [f"l{i}", f"dl{i}", f"ddl{i}"]
    cols += ["u", "du", "ddu"]
    return ",".join(cols)


@dataclass(frozen=True)
class RicciProfiles:
    """Ricci tensor in the unit frame: normal, fiber, one per-factor
    horizontal component, and the scalar curvature trace."""

    R_NN: np.ndarray
    R_UU: np.ndarray
    R_i: np.ndarray  # shape (r, K+1)
    R: np.ndarray


def kaehler_residual(grid: ProfileGrid, config: BundleConfig) -> np.ndarray:
    """Node-wise value of (l_i^2)' - q_i f per factor in its frame, so relative
    to its scale; identically zero for a Kahler configuration."""
    q = config.q[:, None]
    return 2.0 * grid.l * grid.dl - q * grid.f[None, :]


def ricci_frame(f, df, ddf, l, dl, ddl, d, p, q, A, B):
    """Closed-form Ricci components (R_NN, R_UU, R_i) in the unit frame
    where f > 0, for the oracle-pinned coefficients A, B.  f, df, ddf are
    floats or arrays over points; l, dl, ddl, d, p, q (and the returned R_i)
    hold one entry per factor: the rows of an (r, K) array, or floats.
    Products and quotients only, summed over the factors left to right from
    0.0, so one point alone gets the bits it gets among many."""
    fr, ff = df / f, f * f
    lsum = nsum = qsum = 0.0
    per_factor = []
    for di, qi, li, dli, ddli in zip(d, q, l, dl, ddl):
        lri, l2 = dli / li, li * li
        l4, qq = l2 * l2, qi * qi
        lsum = lsum + di * lri
        nsum = nsum + di * ddli / li
        qsum = qsum + di * qq / l4
        per_factor.append((lri, l2, l4, qq))
    R_NN = -ddf / f - nsum
    R_UU = -ddf / f - fr * lsum + A * ff * qsum
    fl = fr + lsum
    R_i = [-ddli / li - lri * (fl - lri) + pi / l2 - B * qq * ff / l4
           for pi, li, ddli, (lri, l2, l4, qq)
           in zip(p, l, ddl, per_factor)]
    return R_NN, R_UU, R_i


def ricci_components(
    grid: ProfileGrid, config: BundleConfig, constants: PinnedConstants
) -> RicciProfiles:
    """Ricci components of the ansatz metric in the unit frame.

    Endpoint values (where f -> 0 makes individual terms 0/0) are filled by
    even extrapolation from the interior nodes.
    """
    # interior nodes only (f > 0 there on every grid); the endpoints are
    # filled at the end
    R_NN, R_UU, R_i = ricci_frame(
        grid.f[1:-1], grid.df[1:-1], grid.ddf[1:-1], grid.l[:, 1:-1],
        grid.dl[:, 1:-1], grid.ddl[:, 1:-1], config.d, config.p, config.q,
        constants.A, constants.B)

    filled = fill_even(grid.t, np.array([R_NN, R_UU, *R_i]))
    R_NN, R_UU, R_i = filled[0], filled[1], filled[2:]
    R = R_NN + R_UU + (config.d[:, None] * R_i).sum(axis=0)
    return RicciProfiles(R_NN=R_NN, R_UU=R_UU, R_i=R_i, R=R)


def hessian_components(grid: ProfileGrid):
    """Hessian of the grid's potential u in the unit frame.

    Returns (H_NN, H_UU, H_i) with H_NN = u'', H_UU = u' f'/f,
    H_i = u' l_i'/l_i; the fiber component at the collapsed ends is the
    L'Hopital limit u''.
    """
    du, ddu = grid.du, grid.ddu
    H_NN = ddu.copy()
    H_UU = np.empty_like(grid.u)
    H_UU[1:-1] = du[1:-1] * grid.df[1:-1] / grid.f[1:-1]
    # f ~ +-(t - t_end) at the ends, so u' f'/f -> u''
    H_UU[0] = ddu[0]
    H_UU[-1] = ddu[-1]
    H_i = du[None, :] * grid.dl / grid.l
    return H_NN, H_UU, H_i


def volume_weight(grid: ProfileGrid, config: BundleConfig) -> np.ndarray:
    """Reduced volume density w(t) = f * prod l_i^{d_i}; the full measure is
    dV = V0 * w dt for the orbit volume V0 of the framed bases."""
    return grid.f * np.prod(grid.l ** config.d[:, None], axis=0)


def log_weight_slope(grid: ProfileGrid, config: BundleConfig) -> np.ndarray:
    """(log w)' = f'/f + sum d_i l_i'/l_i at interior nodes (endpoints are
    never used directly: they enter only multiplied by odd factors)."""
    out = np.zeros_like(grid.f)
    out[1:-1] = grid.df[1:-1] / grid.f[1:-1]
    out += (config.d[:, None] * grid.dl / grid.l).sum(axis=0)
    return out


def weighted_laplacian(grid: ProfileGrid, config: BundleConfig, v: np.ndarray,
                       dv: np.ndarray, ddv: np.ndarray) -> np.ndarray:
    """Drift Laplacian of a t-only scalar:
    Delta_u v = v'' + (log w)' v' - u' v'.

    At the collapsed ends (log w)' v' -> v'' (evenness of v), so the limit
    value is 2 v'' + (sum d_i l_i'/l_i - u') v' = 2 v''.  The drift
    coefficient (log w)' - u' is computed on the first call for a grid and
    the config's factor dimensions, and kept on the grid.
    """
    key = ("drift", config.d.tobytes())
    drift = grid._measures.get(key)
    if drift is None:
        drift = log_weight_slope(grid, config) - grid.du
        grid._measures[key] = drift
    out = np.empty_like(v)
    out[1:-1] = ddv[1:-1] + drift[1:-1] * dv[1:-1]
    for idx in (0, -1):
        out[idx] = 2.0 * ddv[idx] + drift[idx] * dv[idx]
    return out


def weighted_integral(grid: ProfileGrid, config: BundleConfig,
                      F: np.ndarray) -> float:
    """integral of F over M against e^{-u} dV per unit orbit volume V0,
    reduced to int F w e^{-u} dt with the configured quadrature.  w and
    e^{-u} are computed on the first call for a grid and the config's factor
    dimensions, and kept on the grid."""
    key = config.d.tobytes()
    if key not in grid._measures:
        grid._measures[key] = (volume_weight(grid, config), np.exp(-grid.u))
    w, e_u = grid._measures[key]
    return grid.scheme.integrate(F * w * e_u)
