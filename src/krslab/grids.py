"""Collocation grids, nodes on [0, L]: Chebyshev-Lobatto spectral and
uniform 4th-order quadrature.

Everything downstream works on a node vector in [0, T] together with
quadrature weights.  The spectral scheme is the default; the uniform
4th-order quadrature is kept as a cross-check fallback.

Building a scheme costs O(N log N): the Clenshaw-Curtis weights come from one
DCT-I of the even Chebyshev moments (Waldvogel, BIT 46, 2006).  A scheme
holds no differentiation matrix; ``cheb_lobatto`` builds the dense one for
the small collocation in the moment coordinate (see :mod:`krslab.stability`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SCHEME_KINDS, ConfigError
from .numerics import dct1


def _check_length(length: float):
    if not 0.0 < length < np.inf:
        raise ConfigError("interval length must be positive and finite, "
                          f"got {length!r}")


def _lobatto_nodes(n: int, length: float):
    """Standard Chebyshev-Lobatto nodes x on [-1, 1] (descending) and their
    images t on [0, length] (increasing)."""
    if n < 1:
        raise ConfigError(f"need at least 2 nodes (n >= 1), got n = {n}")
    _check_length(length)
    x = np.cos(np.pi * np.arange(n + 1) / n)
    return x, length * (1.0 - x) / 2.0


def cheb_lobatto(n: int, length: float):
    """Chebyshev-Lobatto nodes on [0, L], increasing, with the
    differentiation matrix for that ordering.

    Returns (t, D) where t has n+1 entries and D @ v approximates v'.
    """
    x, t = _lobatto_nodes(n, length)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    X = np.tile(x, (n + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(n + 1))
    # negative-sum trick: diagonal from exact row sums, better roundoff
    D -= np.diag(D.sum(axis=1))
    # map to [0, L] with increasing nodes
    D = -D * (2.0 / length)
    return t, D


def clenshaw_curtis_weights(n: int, length: float) -> np.ndarray:
    """Quadrature weights for the n+1 Chebyshev-Lobatto nodes on [0, L]
    (increasing order), exact for polynomials of degree n."""
    c = np.zeros(n + 1)
    c[::2] = 2.0 / (1.0 - np.arange(0, n + 1, 2) ** 2)
    # inverse DCT-I of the even-moment sequence
    w = dct1(c) / n
    w[0] *= 0.5
    w[-1] *= 0.5
    # nodes were flipped to increasing order; weights are symmetric anyway
    return w[::-1] * length / 2.0


def _uniform_nodes(n: int, length: float) -> np.ndarray:
    if n < 5:
        raise ConfigError("need at least 6 nodes (n >= 5) for the "
                          f"4th-order quadrature, got n = {n}")
    _check_length(length)
    return np.linspace(0.0, length, n + 1)


def uniform_weights(n: int, length: float) -> np.ndarray:
    """Composite 4th-order (Simpson-like, end-corrected) weights on the
    uniform grid on [0, L]."""
    t = _uniform_nodes(n, length)
    h = t[1] - t[0]
    w = np.full(n + 1, 1.0)
    # Gregory-type end correction of order 4
    head = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])
    w[:3] = head
    w[-3:] = head[::-1]
    return w * h


@dataclass(frozen=True)
class Scheme:
    """A node vector on [0, L] with quadrature weights."""

    t: np.ndarray
    w: np.ndarray
    kind: str

    @staticmethod
    def chebyshev(n: int, length: float) -> "Scheme":
        _, t = _lobatto_nodes(n, length)
        return Scheme(t, clenshaw_curtis_weights(n, length), "chebyshev")

    @staticmethod
    def uniform(n: int, length: float) -> "Scheme":
        return Scheme(_uniform_nodes(n, length), uniform_weights(n, length),
                      "uniform")

    @classmethod
    def of_kind(cls, kind: str, n: int, length: float) -> "Scheme":
        """The scheme named ``kind`` (one of ``SCHEME_KINDS``) on [0, L]."""
        if kind not in SCHEME_KINDS:
            raise ConfigError(f"unknown grid scheme {kind!r}")
        return getattr(cls, kind)(n, length)

    def integrate(self, F: np.ndarray) -> float:
        return float(self.w @ F)


def even_extrapolate(t: np.ndarray, v: np.ndarray, idx_end: int):
    """Fill a boundary value of a function known to be even in (t - t_end)
    by polynomial extrapolation in the squared distance: one value for a
    profile v, one per row for a stack of rows (one fit for all of them).

    idx_end is 0 or -1; the nearest npts interior nodes are used.
    """
    npts = 5
    if idx_end == 0:
        sel = slice(1, 1 + npts)
        te = t[0]
    else:
        sel = slice(-1 - npts, -1)
        te = t[-1]
    x = (t[sel] - te) ** 2
    scale = x.max()  # normalize for conditioning on clustered spectral nodes
    coeffs = np.polynomial.polynomial.polyfit(x / scale, v[..., sel].T,
                                              npts - 1)
    return np.polynomial.polynomial.polyval(0.0, coeffs)


def fill_even(t: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Full-length profile from its interior values (or a stack of such
    rows), both endpoint values by ``even_extrapolate``; used for 0/0
    limits at the collapsing circle."""
    out = np.pad(inner, [(0, 0)] * (inner.ndim - 1) + [(1, 1)])
    out[..., 0] = even_extrapolate(t, out, 0)
    out[..., -1] = even_extrapolate(t, out, -1)
    return out
