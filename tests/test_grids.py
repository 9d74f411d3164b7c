import numpy as np
import pytest

from krslab import solver
from krslab.config import ConfigError
from krslab.grids import (
    Scheme,
    cheb_lobatto,
    clenshaw_curtis_weights,
    even_extrapolate,
    uniform_weights,
)


def _reference_cc_weights(n, length):
    """Direct O(n^2) sum of the inverse DCT-I that defines the weights."""
    c = np.zeros(n + 1)
    c[::2] = 2.0 / (1.0 - np.arange(0, n + 1, 2) ** 2)
    theta = np.pi * np.arange(n + 1) / n
    w = np.zeros(n + 1)
    for j in range(0, n + 1, 2):
        term = np.cos(j * theta) * c[j]
        if j == 0 or j == n:
            term *= 0.5
        w += term
    w *= 2.0 / n
    w[0] *= 0.5
    w[-1] *= 0.5
    return w[::-1] * length / 2.0


class TestChebyshev:
    def test_nodes_increase_and_hit_endpoints(self):
        t, _ = cheb_lobatto(16, 3.0)
        assert t[0] == 0.0 and t[-1] == 3.0
        assert np.all(np.diff(t) > 0)

    def test_differentiation_is_spectrally_exact_on_polynomials(self):
        t, D = cheb_lobatto(12, 2.0)
        v = t**7 - 3.0 * t**4 + t
        dv = 7.0 * t**6 - 12.0 * t**3 + 1.0
        assert np.abs(D @ v - dv).max() < 1e-9

    def test_differentiation_converges_spectrally_on_smooth_function(self):
        errs = []
        for n in (8, 16, 32):
            t, D = cheb_lobatto(n, np.pi)
            errs.append(np.abs(D @ np.sin(t) - np.cos(t)).max())
        assert errs[1] < 1e-4 * errs[0]
        assert errs[2] < 1e-12

    def test_quadrature_weights_low_order_closed_form(self):
        # n = 2 Clenshaw-Curtis on [0, 1] is Simpson's rule
        w = clenshaw_curtis_weights(2, 1.0)
        assert np.allclose(w, [1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0])

    def test_quadrature_exact_for_polynomials_of_matching_degree(self):
        n = 10
        t, _ = cheb_lobatto(n, 1.0)
        w = clenshaw_curtis_weights(n, 1.0)
        for k in range(n + 1):
            assert w @ t**k == pytest.approx(1.0 / (k + 1), abs=1e-14)


    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 64, 1024])
    def test_dct_weights_match_direct_sum(self, n):
        w = clenshaw_curtis_weights(n, 3.0)
        ref = _reference_cc_weights(n, 3.0)
        assert np.abs(w - ref).max() <= 1e-14 * np.abs(ref).max()
        assert w.sum() == pytest.approx(3.0, rel=1e-14)


class TestUniform:
    def test_quadrature_fourth_order(self):
        exact = np.expm1(1.0)
        errs = []
        for n in (64, 128):
            t = np.linspace(0.0, 1.0, n + 1)
            w = uniform_weights(n, 1.0)
            errs.append(abs(w @ np.exp(t) - exact))
        assert errs[0] / errs[1] > 12.0


class TestScheme:
    @pytest.mark.parametrize("kind,tol", [("chebyshev", 1e-13),
                                          ("uniform", 1e-8)])
    def test_integrate_matches_antiderivative(self, kind, tol):
        sch = getattr(Scheme, kind)(128, 2.0)
        val = sch.integrate(np.cos(sch.t))
        assert val == pytest.approx(np.sin(2.0), abs=tol)

    @pytest.mark.parametrize("kind", ["chebyshev", "uniform"])
    def test_of_kind_builds_the_named_scheme(self, kind):
        sch = Scheme.of_kind(kind, 32, 2.0)
        ref = getattr(Scheme, kind)(32, 2.0)
        assert sch.kind == kind
        assert np.array_equal(sch.t, ref.t) and np.array_equal(sch.w, ref.w)

    def test_of_kind_looks_the_builder_up_at_call_time(self, monkeypatch):
        seen = []
        monkeypatch.setattr(Scheme, "uniform",
                            staticmethod(lambda *a: seen.append(a) or "built"))
        assert Scheme.of_kind("uniform", 8, 1.0) == "built"
        assert seen == [(8, 1.0)]

    def test_of_kind_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="legendre"):
            Scheme.of_kind("legendre", 16, 1.0)

    @pytest.mark.parametrize("kind,n,length", [
        ("chebyshev", 0, 1.0), ("uniform", 4, 1.0), ("chebyshev", 16, 0.0),
        ("uniform", 16, -2.0), ("chebyshev", 16, np.nan),
        ("uniform", 16, np.inf)])
    def test_of_kind_rejects_too_few_nodes_and_bad_lengths(self, kind, n,
                                                           length):
        with pytest.raises(ConfigError, match="nodes|length"):
            Scheme.of_kind(kind, n, length)

    def test_derivative_and_weights_consistent(self):
        # fundamental theorem: int v' = v(L) - v(0)
        sch = Scheme.chebyshev(64, 1.5)
        _, D = cheb_lobatto(64, 1.5)
        v = np.exp(-sch.t**2)
        assert sch.integrate(D @ v) == pytest.approx(v[-1] - v[0], abs=1e-12)


class TestLazyDifferentiation:
    @pytest.mark.parametrize("n,length", [(1, 1.0), (16, 3.0), (513, 3.5)])
    def test_scheme_nodes_are_the_lobatto_nodes(self, n, length):
        assert np.array_equal(Scheme.chebyshev(n, length).t,
                              cheb_lobatto(n, length)[0])

    def test_gauge_normalized_grid_shares_the_scheme(self, kc_momentum):
        g = kc_momentum.grid
        assert solver.gauge_normalize(kc_momentum).grid.scheme is g.scheme


class TestEvenExtrapolate:
    def test_recovers_even_polynomial_endpoint(self):
        t = np.linspace(0.0, 1.0, 33)
        v = 2.0 - 3.0 * t**2 + 0.5 * t**4
        assert even_extrapolate(t, v, 0) == pytest.approx(2.0, abs=1e-10)

    def test_far_end_uses_distance_from_that_end(self):
        t = np.linspace(0.0, 2.0, 41)
        v = 1.0 + (t - 2.0) ** 2
        assert even_extrapolate(t, v, -1) == pytest.approx(1.0, abs=1e-10)

    def test_stable_on_clustered_spectral_nodes(self):
        # Chebyshev nodes cluster quadratically at the ends; the fit in the
        # squared distance must survive the tiny abscissae
        t, _ = cheb_lobatto(1024, 3.0)
        v = np.cos(t)
        assert even_extrapolate(t, v, 0) == pytest.approx(1.0, abs=1e-8)
