"""Convention-free curvature check for the one-factor ansatz.

Works in an explicit Euler-angle chart for the metric
dt^2 + f^2 (dpsi + a)^2 + l^2 r on (interval) x (circle bundle over the
2-sphere of Ricci constant 2), with connection potential a satisfying
da = q * (area form of r).  Ricci is computed by brute-force central
differences of the coordinate metric with Richardson extrapolation and is
deliberately independent of the closed-form components in
:mod:`krslab.geometry`; it is the provenance for the pinned coefficients,
which it selects by scoring ``geometry.ricci_frame``, the formula that
both solver routes evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .geometry import CANDIDATES, PinnedConstants, ricci_frame


class OracleError(RuntimeError):
    """Richardson extrapolation failed to reach the requested accuracy."""


@dataclass(frozen=True)
class LocalState:
    """Profile jet (f, f', f'', l, l', l'') and twist at one interior point."""

    f: float
    df: float
    ddf: float
    l: float
    dl: float
    ddl: float
    q: int

    def __post_init__(self):
        if self.f <= 0 or self.l <= 0:
            raise ValueError("oracle states must have f > 0 and l > 0")


_GUARD = 0.35  # stay away from Euler-angle poles
ROMBERG_LEVELS = 4  # step halvings before the extrapolation gives up
FD_STEP = 0.02  # first finite-difference step of the Romberg table
FD_TOL = 1e-7  # estimated absolute error the extrapolation must reach
SAMPLES = 20  # random interior states that pin_constants scores


def coordinate_metric(state: LocalState, x: np.ndarray) -> np.ndarray:
    """4x4 metric matrix at coordinates x = (t, psi, theta, phi).

    The profiles are modeled locally as quadratics matching the state's jet
    at t = 0.  Base metric: (1/2)(d theta^2 + sin^2 theta d phi^2), the round
    2-sphere with Ric = 2 g; its area form is (1/2) sin theta.
    """
    t, _, th, _ = x
    if not (_GUARD < th < np.pi - _GUARD):
        raise ValueError("coordinate point inside the pole guard band")
    F = state.f + state.df * t + 0.5 * state.ddf * t * t
    L = state.l + state.dl * t + 0.5 * state.ddl * t * t
    q = state.q
    ct, st = np.cos(th), np.sin(th)
    g = np.zeros((4, 4))
    g[0, 0] = 1.0
    g[1, 1] = F * F
    g[1, 3] = g[3, 1] = -F * F * (q / 2.0) * ct
    g[2, 2] = L * L / 2.0
    g[3, 3] = F * F * (q * q / 4.0) * ct * ct + (L * L / 2.0) * st * st
    return g


def _metric_jet(state: LocalState, x: np.ndarray, h: float):
    """Metric with all first and second coordinate derivatives by central
    differences of step h."""
    dim = 4
    e = h * np.eye(dim)  # e[a]: the step along coordinate a
    g0 = coordinate_metric(state, x)
    dg = np.zeros((dim, dim, dim))
    d2g = np.zeros((dim, dim, dim, dim))
    for a in range(dim):
        gp = coordinate_metric(state, x + e[a])
        gm = coordinate_metric(state, x - e[a])
        dg[a] = (gp - gm) / (2.0 * h)
        d2g[a, a] = (gp - 2.0 * g0 + gm) / (h * h)
        for b in range(a + 1, dim):
            gpp = coordinate_metric(state, x + e[a] + e[b])
            gpm = coordinate_metric(state, x + e[a] - e[b])
            gmp = coordinate_metric(state, x - e[a] + e[b])
            gmm = coordinate_metric(state, x - e[a] - e[b])
            d2g[a, b] = d2g[b, a] = (gpp - gpm - gmp + gmm) / (4.0 * h * h)
    return g0, dg, d2g


def _ricci_once(state: LocalState, x: np.ndarray, h: float) -> np.ndarray:
    """Coordinate Ricci tensor from one finite-difference metric jet."""
    g, dg, d2g = _metric_jet(state, x, h)
    ginv = np.linalg.inv(g)
    # S[m,n,l] = d_m g_{nl} + d_n g_{ml} - d_l g_{mn}
    S = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    Gamma = 0.5 * np.einsum("rl,mnl->rmn", ginv, S)
    # dS[k,m,n,l] = d_k S[m,n,l]; d2g[a,b,i,j] = d_a d_b g_{ij}
    dS = d2g + d2g.transpose(0, 2, 1, 3) - d2g.transpose(0, 2, 3, 1)
    dginv = -np.einsum("ra,kab,bl->krl", ginv, dg, ginv)
    # dGamma[k, r, m, n] = d_k Gamma^r_{mn}
    dGamma = 0.5 * (
        np.einsum("krl,mnl->krmn", dginv, S)
        + np.einsum("rl,kmnl->krmn", ginv, dS)
    )
    # Ric_{mn} = d_r Gamma^r_{nm} - d_n Gamma^r_{rm}
    #            + Gamma^r_{rl} Gamma^l_{nm} - Gamma^r_{nl} Gamma^l_{rm}
    term1 = np.einsum("rrmn->mn", dGamma)
    term2 = np.einsum("nrrm->nm", dGamma)
    term3 = np.einsum("rrl,lnm->nm", Gamma, Gamma)
    term4 = np.einsum("rnl,lrm->nm", Gamma, Gamma)
    return term1 - term2 + term3 - term4


def _frame(state: LocalState, x: np.ndarray) -> np.ndarray:
    """Unit frame {N, U, H_theta, H_phi} as coordinate column vectors."""
    th = x[2]
    F, L, q = state.f, state.l, state.q
    frame = np.zeros((4, 4))
    frame[0, 0] = 1.0
    frame[1, 1] = 1.0 / F
    frame[2, 2] = np.sqrt(2.0) / L
    # horizontal lift of d_phi: remove the vertical component theta(d_phi)
    frame[1, 3] = (q / 2.0) * np.cos(th) * np.sqrt(2.0) / (L * np.sin(th))
    frame[3, 3] = np.sqrt(2.0) / (L * np.sin(th))
    return frame  # frame[:, a] is the a-th vector


def oracle_ricci(state: LocalState, x: np.ndarray):
    """Ricci components (R_NN, R_UU, R_H) in the unit frame at the chart
    point x, with Richardson extrapolation in the finite-difference step
    (FD_STEP, then at most ROMBERG_LEVELS halvings) until the estimated
    absolute error is below FD_TOL.

    Returns (components, err_estimate).  Raises OracleError on
    non-convergence.
    """
    frame = _frame(state, x)

    def components(step):
        return np.diag(frame.T @ _ricci_once(state, x, step) @ frame)

    # Romberg rows over step halvings, each built from the one before it;
    # error from successive diagonal entries
    prev = [components(FD_STEP)]
    err = np.inf
    for level in range(1, ROMBERG_LEVELS + 1):
        row = [components(FD_STEP / 2.0**level)]
        for j in range(1, level + 1):
            fac = 4.0**j
            row.append((fac * row[j - 1] - prev[j - 1]) / (fac - 1.0))
        err = float(np.abs(row[level] - prev[level - 1]).max())
        prev = row
        if err < FD_TOL:
            break
    if err >= FD_TOL:
        raise OracleError(f"Richardson stalled at estimated error {err:.3e}")
    r_nn, r_uu, r_h1, r_h2 = prev[-1]
    # the two horizontal directions must agree; fold into the error estimate
    err = max(err, abs(r_h1 - r_h2))
    return np.array([r_nn, r_uu, 0.5 * (r_h1 + r_h2)]), err


def random_state(rng: np.random.Generator) -> LocalState:
    return LocalState(
        f=float(rng.uniform(0.4, 1.0)),
        df=float(rng.uniform(-0.8, 0.8)),
        ddf=float(rng.uniform(-0.5, 0.5)),
        l=float(rng.uniform(0.9, 1.6)),
        dl=float(rng.uniform(-0.5, 0.5)),
        ddl=float(rng.uniform(-0.5, 0.5)),
        q=int(rng.integers(1, 3)),
    )


def pin_constants(seed: int = 0) -> PinnedConstants:
    """Select (A, B) from the candidate grid by minimizing the max relative
    error of the closed-form components against the oracle over SAMPLES
    random interior states.  The winner must beat 1e-6 and be well
    separated from the runner-up."""
    rng = np.random.default_rng(seed)
    states = [random_state(rng) for _ in range(SAMPLES)]
    points = [
        np.array([0.0, rng.uniform(0, 2 * np.pi), rng.uniform(0.7, np.pi - 0.7),
                  rng.uniform(0, 2 * np.pi)])
        for _ in range(SAMPLES)
    ]
    oracle_vals = np.array([oracle_ricci(s, x)[0]
                            for s, x in zip(states, points)]).T
    # one factor (d = p = 2): one formula call per pair scores every state
    f, df, ddf, l, dl, ddl, q = np.array(
        [(s.f, s.df, s.ddf, s.l, s.dl, s.ddl, s.q) for s in states]).T

    def max_rel_err(A, B):
        R_NN, R_UU, R_i = ricci_frame(f, df, ddf, [l], [dl], [ddl], [2.0],
                                      [2.0], [q], A, B)
        fv = np.array([R_NN, R_UU, R_i[0]])
        rel = np.abs(fv - oracle_vals) / np.maximum(np.abs(oracle_vals), 1.0)
        return float(rel.max())

    scored = sorted(
        ((max_rel_err(A, B), A, B) for A, B in product(CANDIDATES, CANDIDATES))
    )
    best_err, A, B = scored[0]
    runner_err = scored[1][0]
    if best_err >= 1e-6:
        raise OracleError(
            f"no candidate pair reaches 1e-6 (best (A,B)=({A},{B}) "
            f"at {best_err:.3e})"
        )
    if runner_err < 1e-3:
        raise OracleError("candidate selection not unique")
    return PinnedConstants(A=A, B=B, max_rel_err=best_err, samples=SAMPLES)
