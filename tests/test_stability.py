import warnings
from dataclasses import MISSING, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as cheb

from krslab import solver, stability
from krslab.config import TAU, BaseFactor, BundleConfig
from krslab.geometry import (log_weight_slope, weighted_integral,
                             weighted_laplacian)
from krslab.grids import cheb_lobatto
from krslab.stability import (
    EntropyGauge,
    PerturbationProfile,
    StabilityError,
    c_constant,
    constant_profile,
    drift_spectrum,
    dw_theorem_check,
    family,
    ibp_identity_check,
    nu_estimate,
    second_variation_main,
    sign_explorer,
    v_h_solve,
)


def sampled(sol, vals, dvals=0.0, name="sampled"):
    """The profile sampled as ``vals`` and ``dvals`` at the nodes of
    ``sol`` (a derivative left at 0 where a test does not read it)."""
    t = sol.grid.t
    return PerturbationProfile(
        name=name,
        psi_fn=lambda x: np.interp(x, t, vals),
        dpsi_fn=lambda x: np.interp(x, t, np.broadcast_to(dvals, t.shape)),
    )


class TestProfiles:
    def test_constant_profile_evaluates(self, kc_momentum):
        p = constant_profile([1.5])
        assert np.all(p.psi(kc_momentum.grid.t) == 1.5)
        assert np.all(p.dpsi(kc_momentum.grid.t) == 0.0)

    def test_negative_kappa_rejected(self):
        with pytest.raises(StabilityError):
            constant_profile([-1.0])

    @pytest.mark.parametrize("kappa", [np.nan, np.inf])
    def test_non_finite_kappa_rejected(self, kappa):
        # as in BaseFactor; a nan norm would give a nan value
        # with the sign "negative"
        with pytest.raises(StabilityError, match="finite and >= 0"):
            constant_profile([kappa])

    @pytest.mark.parametrize("missing", ["psi_fn", "dpsi_fn"])
    def test_profile_needs_both_callables(self, missing):
        # a profile is its samples: three fields, none with a default
        assert [(f.name, f.default) for f in fields(PerturbationProfile)] == [
            ("name", MISSING), ("psi_fn", MISSING), ("dpsi_fn", MISSING)]
        given = {"psi_fn": np.cos, "dpsi_fn": np.sin}
        del given[missing]
        with pytest.raises(TypeError, match=missing):
            PerturbationProfile(name="p", **given)

    def test_negative_profile_rejected_at_evaluation(self, kc_momentum):
        p = PerturbationProfile(name="neg", psi_fn=lambda t: -np.ones_like(t),
                                dpsi_fn=np.zeros_like)
        with pytest.raises(StabilityError):
            p.psi(kc_momentum.grid.t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_profile_rejected_at_evaluation(self, kc_momentum,
                                                       bad):
        # nan passes the negativity test and would give a nan value with
        # the sign "negative"
        t = kc_momentum.grid.t
        p = sampled(kc_momentum, np.where(t == t[len(t) // 2], bad, 1.0),
                    name="spiked")
        with pytest.raises(StabilityError,
                           match="profile 'spiked' is not finite"):
            p.psi(t)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_derivative_rejected_at_evaluation(self, kc_momentum,
                                                          bad):
        # a nan psi' would make the identity check return nan
        t = kc_momentum.grid.t
        p = sampled(kc_momentum, np.ones_like(t),
                    np.where(t == t[len(t) // 2], bad, 0.0), name="spiked")
        with pytest.raises(StabilityError,
                           match="derivative of profile 'spiked' is not "
                                 "finite"):
            p.dpsi(t)
        with pytest.raises(StabilityError, match="'spiked'"):
            ibp_identity_check(kc_momentum, p)


class TestSecondVariation:
    def test_vanishing_for_constant_profiles(self, kc_momentum):
        rep = second_variation_main(kc_momentum, constant_profile([1.0]))
        assert rep.sign == "zero"
        assert abs(rep.value) < 1e-8 * rep.scale

    def test_linearity_in_profile(self, kc_momentum):
        g = kc_momentum.grid
        base = np.maximum(g.u, 0.0)
        r1 = second_variation_main(kc_momentum, sampled(kc_momentum, base))
        r2 = second_variation_main(kc_momentum,
                                   sampled(kc_momentum, 3.0 * base))
        assert r2.value == pytest.approx(3.0 * r1.value, rel=1e-12)

    def test_unnormalized_solution_rejected(self, kc_momentum):
        g = kc_momentum.grid
        raw = replace(kc_momentum, grid=replace(g, u=g.u + 0.3))
        with pytest.raises(StabilityError, match="not gauge-normalized"):
            second_variation_main(raw, constant_profile([1.0]))
        with pytest.raises(StabilityError, match="not gauge-normalized"):
            sign_explorer(raw)

    def test_dw_check_agrees_and_factorizes(self, kc_momentum,
                                            two_factor_momentum):
        assert dw_theorem_check(kc_momentum, constant_profile([1.0])) < 1e-10
        r13 = dw_theorem_check(two_factor_momentum,
                               constant_profile([1.0, 3.0]))
        r1 = dw_theorem_check(two_factor_momentum,
                              constant_profile([1.0, 0.0]))
        assert r13 == pytest.approx(4.0 * r1, abs=1e-12)

    def test_dw_check_is_the_divergence_residual(self, reference_solutions):
        # (sum kappa) times the residual report's int (Delta_u u) e^{-u} dV
        for label, sol in reference_solutions.items():
            lap = weighted_integral(sol.grid, sol.config,
                                    sol.drift_lap_u)
            for kappas in ((1.0,) * sol.config.r,
                           tuple(0.5 + 2 * i for i in range(sol.config.r))):
                got = dw_theorem_check(sol, constant_profile(kappas))
                assert got == abs(float(sum(kappas)) * lap), label

    def test_dw_check_rejects_sampled(self, kc_momentum):
        with pytest.raises(StabilityError):
            dw_theorem_check(kc_momentum,
                             sampled(kc_momentum, kc_momentum.grid.u**2))

    def test_dw_check_reads_the_family_samples(self, two_factor_momentum):
        # t-independence is read off the samples, whatever built them
        sol = two_factor_momentum
        const, u_plus = family(sol, ("constant", "u_plus"))
        assert dw_theorem_check(sol, const) == dw_theorem_check(
            sol, constant_profile([1.0, 1.0]))
        with pytest.raises(StabilityError, match="t-independent"):
            dw_theorem_check(sol, u_plus)


class TestCConstant:
    def test_anti_invariant_is_zero(self, kc_momentum):
        assert c_constant(kc_momentum, "anti_invariant") == 0.0

    def test_metric_direction_is_one(self, kc_momentum):
        assert c_constant(kc_momentum, "metric_direction") == pytest.approx(
            1.0, abs=1e-12)

    def test_ricci_direction_positive(self, kc_momentum, constants):
        from krslab.geometry import ricci_components

        ric = ricci_components(kc_momentum.grid, kc_momentum.config,
                               constants)
        val = c_constant(kc_momentum, "custom",
                         {"h_NN": ric.R_NN, "h_UU": ric.R_UU, "h_i": ric.R_i})
        assert val > 0.0

    def test_unknown_kind_rejected(self, kc_momentum):
        with pytest.raises(StabilityError):
            c_constant(kc_momentum, "skew")

    def test_custom_kind_needs_profiles(self, kc_momentum):
        with pytest.raises(StabilityError, match="needs diagonal profiles"):
            c_constant(kc_momentum, "custom")

    def test_anti_invariant_consults_the_algebra_check(self, kc_momentum,
                                                       monkeypatch):
        from krslab import algebra

        monkeypatch.setattr(algebra, "anti_invariant_pairing_vanishes",
                            lambda: False)
        with pytest.raises(StabilityError):
            c_constant(kc_momentum, "anti_invariant")

    def test_algebra_check_runs_once(self, kc_momentum):
        from krslab.algebra import anti_invariant_pairing_vanishes

        c_constant(kc_momentum, "anti_invariant")
        misses = anti_invariant_pairing_vanishes.cache_info().misses
        c_constant(kc_momentum, "anti_invariant")
        assert anti_invariant_pairing_vanishes.cache_info().misses == misses

    def test_metric_direction_is_exactly_one(self, two_factor_momentum):
        assert c_constant(two_factor_momentum, "metric_direction") == 1.0

    def test_vanishing_denominator_rejected(self, kc_momentum):
        # only the custom kind divides by int R e^{-u} dV; the fixed kinds
        # do not read it
        sol = replace(kc_momentum)
        object.__setattr__(sol, "scalar_integral", 0.0)
        with pytest.raises(StabilityError, match=r"^int R e\^\{-u\} dV "
                           r"vanishes; C\(h,g\) undefined$"):
            c_constant(sol, "custom", _custom_h(sol))
        assert c_constant(sol, "anti_invariant") == 0.0
        assert c_constant(sol, "metric_direction") == 1.0

    @pytest.mark.parametrize("kind, profiles, match", [
        ("custom", {"h_NN": np.zeros(3)}, "exactly the keys"),
        ("custom", None, "needs diagonal profiles"),
        ("skew", None, "unknown h_kind 'skew'"),
    ], ids=["custom_wrong_keys", "custom_without_profiles", "unknown_kind"])
    def test_bad_input_rejected_before_any_evaluation(
            self, kc_config, constants, ricci_calls, kind, profiles, match):
        sol = solver.solve_momentum(kc_config, constants, nodes=64)
        with pytest.raises(StabilityError, match=match):
            c_constant(sol, kind, profiles)
        assert ricci_calls == []


def _custom_h(sol, lam=0.5):
    t, r = sol.grid.t, sol.config.r
    return {"h_NN": np.full_like(t, lam), "h_UU": np.full_like(t, lam),
            "h_i": np.full((r, t.size), lam)}


class TestCustomProfiles:
    """A custom h holds exactly h_NN, h_UU and h_i, of shapes (N+1,), (N+1,)
    and (r, N+1), every value finite; anything else names the key."""

    def test_well_formed_constant_h_is_its_value(self, two_factor_momentum):
        val = c_constant(two_factor_momentum, "custom",
                         _custom_h(two_factor_momentum, 0.75))
        assert val == pytest.approx(0.75, rel=1e-12)

    def test_one_row_for_two_factors_rejected(self, two_factor_momentum):
        # (1, N+1) would broadcast over both factors
        h = _custom_h(two_factor_momentum)
        h["h_i"] = h["h_i"][:1]
        n1 = two_factor_momentum.grid.t.size
        with pytest.raises(StabilityError,
                           match=rf"h_i has shape \(1, {n1}\), expected "
                                 rf"\(2, {n1}\)"):
            c_constant(two_factor_momentum, "custom", h)

    def test_wrong_length_rejected(self, two_factor_momentum):
        h = _custom_h(two_factor_momentum)
        h["h_UU"] = h["h_UU"][:-1]
        n1 = two_factor_momentum.grid.t.size
        with pytest.raises(StabilityError,
                           match=rf"h_UU has shape \({n1 - 1},\), "
                                 rf"expected \({n1},\)"):
            c_constant(two_factor_momentum, "custom", h)

    def test_nan_in_h_NN_rejected(self, two_factor_momentum):
        h = _custom_h(two_factor_momentum)
        h["h_NN"][7] = np.nan
        n1 = two_factor_momentum.grid.t.size
        with pytest.raises(StabilityError,
                           match=rf"h_NN of shape \({n1},\) is not finite"):
            c_constant(two_factor_momentum, "custom", h)

    def test_inf_at_an_end_of_h_i_rejected(self, two_factor_momentum):
        # the volume weight vanishes there
        h = _custom_h(two_factor_momentum)
        h["h_i"][1, -1] = np.inf
        with pytest.raises(StabilityError, match="h_i of shape .* is not "
                                                 "finite"):
            c_constant(two_factor_momentum, "custom", h)

    def test_missing_key_rejected(self, two_factor_momentum):
        h = _custom_h(two_factor_momentum)
        del h["h_UU"]
        with pytest.raises(StabilityError,
                           match=r"exactly the keys \['h_NN', 'h_UU', "
                                 r"'h_i'\], got \['h_NN', 'h_i'\]"):
            c_constant(two_factor_momentum, "custom", h)

    def test_extra_key_rejected(self, two_factor_momentum):
        h = _custom_h(two_factor_momentum)
        h["h_NU"] = h["h_NN"]
        with pytest.raises(StabilityError, match="exactly the keys"):
            c_constant(two_factor_momentum, "custom", h)


@pytest.fixture(scope="module")
def sol192(kc_config, constants):
    from krslab import solver

    return solver.solve_momentum(kc_config, constants, nodes=192)


@pytest.fixture(scope="module")
def kc4096(kc_config, constants):
    return solver.solve_momentum(kc_config, constants, nodes=4096)


class TestVh:
    def test_zero_source_gives_zero(self, sol192):
        out = v_h_solve(sol192, np.zeros_like(sol192.grid.u))
        assert not out.near_kernel
        assert np.abs(out.v).max() < 1e-10

    def test_constant_source_gives_constant(self, sol192):
        out = v_h_solve(sol192, np.full_like(sol192.grid.u, 1.7))
        assert np.abs(out.v - 1.7).max() < 1e-9

    def test_plug_back_residual(self, sol192):
        t, T = sol192.grid.t, sol192.grid.T
        s = np.cos(2 * np.pi * t / T) + 0.3 * np.cos(4 * np.pi * t / T)
        out = v_h_solve(sol192, s)
        assert out.residual < 1e-8
        assert out.smallest_singular_value > 1e-6

    def test_near_kernel_flag_and_lstsq_fallback(self, sol192):
        s = np.ones_like(sol192.grid.u)
        out = v_h_solve(sol192, s, kernel_tol=10.0)
        assert out.near_kernel and out.least_squares
        # the least-squares solution still solves the well-posed system
        assert np.abs(out.v - 1.0).max() < 1e-8

    def test_wrong_grid_rejected(self, sol192):
        with pytest.raises(StabilityError):
            v_h_solve(sol192, np.zeros(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_source_rejected_before_any_degree(self, sol192,
                                                          bad):
        # a NaN tail is never "resolved": without the check every degree's
        # fit and collocation would be built and cached on the solution
        sol = replace(sol192)
        src = np.cos(2 * np.pi * sol.grid.t / sol.grid.T)
        src[sol.grid.t.size // 3] = bad
        with pytest.raises(StabilityError, match="source is not finite"):
            v_h_solve(sol, src)
        assert sol.stability_cache == {}

    def test_unresolved_moment_coordinate_rejected(self, constants):
        # (2, 1e300, 1) in its frame: q s is below the rounding of l^2 and
        # q^2 underflows, so every X reads -1; without the check the fit
        # overflows in _inverse_gram
        sol = solver.solve_momentum(
            BundleConfig(factors=(BaseFactor(d=2, p=1e300, q=1),)),
            constants, nodes=128)
        src = np.cos(np.pi * sol.grid.t / sol.grid.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StabilityError,
                               match="runs from -1.0 to -1.0, not from -1 "
                                     "to 1"):
                v_h_solve(sol, src)
            # nothing was kept, so a second call checks X again
            with pytest.raises(StabilityError,
                               match="runs from -1.0 to -1.0, not from -1 "
                                     "to 1"):
                v_h_solve(sol, src)
        assert sol.stability_cache == {}

    def test_agrees_with_a_dense_t_grid_solve(self, sol192):
        # independent route: collocate v'' + ((log w)' - u') v' + v = s on
        # the t-nodes with v'(0) = v'(T) = 0
        g = sol192.grid
        t, T = g.t, g.T
        _, D = cheb_lobatto(t.size - 1, T)
        src = np.cos(2 * np.pi * t / T) + 0.3 * np.cos(4 * np.pi * t / T)
        lw = log_weight_slope(g, sol192.config)
        L = D @ D + (lw - g.du)[:, None] * D + np.eye(t.size)
        L[0], L[-1] = D[0], D[-1]
        rhs = src.copy()
        rhs[0] = rhs[-1] = 0.0
        dense = np.linalg.solve(L, rhs)
        assert np.abs(v_h_solve(sol192, src).v - dense).max() < 1e-8

    @pytest.mark.parametrize("kind", ["sin", "linear"])
    def test_unresolved_source_raises(self, sol192, kind):
        # odd at the far end: not a smooth function of s
        t, T = sol192.grid.t, sol192.grid.T
        src = np.sin(np.pi * t / T) if kind == "sin" else t / T
        with pytest.raises(StabilityError,
                           match=r"source is not resolved .* degree 64, "
                                 r"the largest 193 nodes allow "
                                 r"\(coefficient tail \d"):
            v_h_solve(sol192, src)

    def test_too_few_nodes_rejected(self, kc_config, constants):
        sol = solver.solve_momentum(kc_config, constants, nodes=16)
        with pytest.raises(StabilityError, match="too few"):
            v_h_solve(sol, np.ones_like(sol.grid.t))

    def test_uniform_scheme_and_shooting_solutions(self, kc_config, constants,
                                                   two_factor_shooting):
        uniform = solver.solve_momentum(kc_config, constants, nodes=256,
                                        scheme="uniform")
        for sol in (uniform, two_factor_shooting):
            t, T = sol.grid.t, sol.grid.T
            out = v_h_solve(sol, np.cos(2 * np.pi * t / T))
            assert out.residual < 1e-9 and not out.near_kernel


def _cached_arrays(sol):
    """(key, array) for every array in the solution's stability cache."""
    for key, entry in sol.stability_cache.items():
        values = vars(entry).values() if is_dataclass(entry) else [entry]
        for value in values:
            if isinstance(value, np.ndarray):
                yield key, value


def _assert_well_conditioned_fit(sol):
    # v_h_solve fits the source from the normal equations of the nodal
    # Chebyshev Vandermonde, which lose nothing while it is this close to
    # orthogonal columns
    X = stability._moment_coordinate(sol)
    for m in stability._DEGREES:
        if 2 * m < X.size:
            assert np.linalg.cond(cheb.chebvander(X, m)) < 5.0


class TestVhCache:
    @staticmethod
    def _source(sol):
        t, T = sol.grid.t, sol.grid.T
        return np.cos(2 * np.pi * t / T) + 0.3 * np.cos(4 * np.pi * t / T)

    def test_warm_and_cold_calls_agree_bit_for_bit(self, sol192):
        sol = replace(sol192)
        src = self._source(sol)
        first = v_h_solve(sol, src)
        warm = v_h_solve(sol, src)
        cold = v_h_solve(replace(sol192), src)
        for out in (warm, cold):
            assert out.v.tobytes() == first.v.tobytes()
            assert out.residual == first.residual
            assert (out.smallest_singular_value
                    == first.smallest_singular_value)

    def test_replace_starts_empty(self, sol192):
        v_h_solve(sol192, self._source(sol192))
        assert sol192.stability_cache
        fresh = replace(sol192)
        assert fresh.stability_cache == {}
        assert fresh.stability_cache is not sol192.stability_cache

    @staticmethod
    def _count_vandermondes(monkeypatch):
        """The (number of points, degree) of every Chebyshev Vandermonde the
        stability layer builds from here on, in order."""
        built = []
        vander = stability.cheb.chebvander

        def counted(x, m):
            built.append((np.size(x), m))
            return vander(x, m)

        monkeypatch.setattr(stability.cheb, "chebvander", counted)
        return built

    def test_nodal_arrays_are_the_moment_coordinate_and_one_vandermonde(
            self, kc4096, monkeypatch):
        sol = replace(kc4096)
        t, T = sol.grid.t, sol.grid.T
        with pytest.raises(StabilityError, match="degree 256, the largest "
                                                 "tried"):
            v_h_solve(sol, np.sin(np.pi * t / T))
        # the call that raised keeps the largest Vandermonde it built
        assert sol.stability_cache["vander"].shape == (257, t.size)
        built = self._count_vandermondes(monkeypatch)
        src = self._source(sol)
        out = v_h_solve(sol, src)
        # the degree-32 call reads its rows: no nodal Vandermonde is built
        # (the (m+1)-point ones are the collocation's basis)
        assert built and [m for size, m in built if size == t.size] == []
        cold = v_h_solve(replace(kc4096), src)
        assert out.degree == cold.degree == 32
        assert out.v.tobytes() == cold.v.tobytes()
        assert out.residual == cold.residual
        assert out.smallest_singular_value == cold.smallest_singular_value
        drift_spectrum(sol, 3)
        arrays = list(_cached_arrays(sol))
        assert [key for key, a in arrays if t.size in a.shape] == ["vander"]
        kept = sol.stability_cache["vander"]
        assert kept.shape == (257, t.size)
        # X is the Vandermonde's row 1, bit for bit
        assert kept[1].tobytes() == stability._moment_coordinate(sol).tobytes()
        # four (m+1)^2 arrays per degree at most, and the nodal V
        small = sum(a.nbytes for key, a in arrays if key != "vander")
        assert small <= sum(4 * 8 * (m + 1) ** 2 + 8 * (m + 1)
                            for m in stability._DEGREES)

    def test_warm_call_builds_no_vandermonde(self, sol192, monkeypatch):
        built = self._count_vandermondes(monkeypatch)
        sol = replace(sol192)
        src = self._source(sol)
        assert v_h_solve(sol, src).degree == 32
        assert built
        built.clear()
        v_h_solve(sol, src)
        assert built == []

    def test_lower_degrees_read_a_prefix_bit_for_bit(self, kc4096):
        sol = replace(kc4096)
        t, T = sol.grid.t, sol.grid.T
        assert v_h_solve(sol, np.cos(20 * np.pi * t / T)).degree == 64
        kept = sol.stability_cache["vander"]
        assert kept.shape == (65, t.size)
        moment_map = 0.5 + stability._moment_coordinate(sol)
        for degree, src in ((16, moment_map), (32, self._source(sol))):
            out = v_h_solve(sol, src)
            cold = v_h_solve(replace(kc4096), src)
            assert out.degree == cold.degree == degree
            assert out.v.tobytes() == cold.v.tobytes()
            assert out.residual == cold.residual
            assert (out.smallest_singular_value
                    == cold.smallest_singular_value)
        # the largest degree a call built stays
        assert sol.stability_cache["vander"] is kept

    def test_a_raising_call_leaves_the_vandermonde(self, sol192):
        sol = replace(sol192)
        t, T = sol.grid.t, sol.grid.T
        assert v_h_solve(sol, self._source(sol)).degree == 32
        assert sol.stability_cache["vander"].shape == (33, t.size)
        # an unresolved source replaces it with the larger one it built
        with pytest.raises(StabilityError, match="degree 64, the largest "):
            v_h_solve(sol, np.sin(np.pi * t / T))
        kept = sol.stability_cache["vander"]
        X = stability._moment_coordinate(sol)
        assert np.array_equal(kept, cheb.chebvander(X, 64).T)
        # a non-finite source is rejected before any degree and keeps it
        nan = self._source(sol)
        nan[t.size // 3] = np.nan
        with pytest.raises(StabilityError, match="not finite"):
            v_h_solve(sol, nan)
        assert sol.stability_cache["vander"] is kept

    def test_drift_spectrum_shares_the_operator_of_each_degree(
            self, sol192, monkeypatch):
        built = []
        lobatto = stability.cheb_lobatto

        def counted(m, length):
            built.append(m)
            return lobatto(m, length)

        monkeypatch.setattr(stability, "cheb_lobatto", counted)
        sol = replace(sol192)
        src = self._source(sol)
        for _ in range(2):
            v_h_solve(sol, src)
            lam = drift_spectrum(sol, 3)
        # each degree built once, and the spectrum is read off one of them
        assert built and len(built) == len(set(built))
        assert any(np.array_equal(
            lam, np.sort(np.linalg.eigvals(
                -sol.stability_cache["collocation", m].A).real)[:3])
            for m in built)

    def test_fit_is_well_conditioned_on_every_scheme_and_route(
            self, kc_config, constants, two_factor_shooting):
        for scheme in ("chebyshev", "uniform"):
            _assert_well_conditioned_fit(solver.solve_momentum(
                kc_config, constants, nodes=1024, scheme=scheme))
        _assert_well_conditioned_fit(two_factor_shooting)


# the configs the test suite solves elsewhere, as (d, p, q) per factor
SPECTRUM_CONFIGS = {
    "kc": [(2, 2.0, 1)],
    "kc_mirror": [(2, 2.0, -1)],
    "two_s2": [(2, 2.0, 1), (2, 2.0, 1)],
    "s2xs2_opp": [(2, 2.0, 1), (2, 2.0, -1)],
    "s2_p3_q2": [(2, 3.0, 2)],
    "cp2_q2": [(4, 3.0, 2)],
    "cp3_q1": [(6, 4.0, 1)],
    "three_s2": [(2, 2.0, 1)] * 3,
    "mixed_three": [(2, 2.0, 1), (4, 3.0, 1), (2, 3.0, -1)],
    "s2_cp2_q_minus2": [(2, 2.0, 1), (4, 3.0, -2)],
}


def _bundle(factors):
    return BundleConfig(factors=tuple(BaseFactor(d, p, q)
                                      for d, p, q in factors))


def _moment_map_residual(sol):
    """max |Delta_u (s - 1) + 2 (s - 1)| over the nodes, with s read off the
    first factor's Kahler relation l^2 = q s + p - q."""
    g, cfg = sol.grid, sol.config
    s = (g.l[0] ** 2 - (cfg.p[0] - cfg.q[0])) / cfg.q[0]
    lap = weighted_laplacian(g, cfg, g.f, g.df)
    return float(np.abs(lap + 2.0 * (s - 1.0)).max())


def _assert_spectrum_facts(sol):
    assert _moment_map_residual(sol) <= 1e-10
    lam = drift_spectrum(sol, 3)
    assert abs(lam[0]) <= 1e-10
    assert abs(lam[1] - 2.0) <= 1e-10
    assert lam[2] > 2.0


@pytest.fixture(scope="module")
def spectrum_solutions(constants):
    return {name: solver.solve_momentum(_bundle(f), constants, nodes=128)
            for name, f in SPECTRUM_CONFIGS.items()}


class TestDriftSpectrum:
    @pytest.mark.parametrize("name", sorted(SPECTRUM_CONFIGS))
    def test_moment_map_eigenfunction_and_gap(self, spectrum_solutions,
                                              name):
        _assert_spectrum_facts(spectrum_solutions[name])

    def test_shooting_solution(self, two_factor_shooting):
        _assert_spectrum_facts(two_factor_shooting)

    def test_independent_of_the_nodes(self, spectrum_solutions, kc_momentum):
        coarse = drift_spectrum(spectrum_solutions["kc"], 5)
        assert np.abs(drift_spectrum(kc_momentum, 5) - coarse).max() < 1e-9
        assert np.all(np.diff(coarse) > 0)

    def test_k_must_be_positive(self, kc_momentum):
        with pytest.raises(StabilityError):
            drift_spectrum(kc_momentum, 0)

    def test_unconverged_spectrum_raises(self, kc_momentum, monkeypatch):
        # degrees 8 and 16 disagree on the fourth eigenvalue near 1.5e-5
        monkeypatch.setattr(stability, "_DEGREES", (8, 16))
        with pytest.raises(StabilityError, match=r"^the 4 lowest eigenvalues "
                           r"of -Delta_u are not converged at degree 16$"):
            drift_spectrum(replace(kc_momentum), 4)

    def test_k_at_most_a_quarter_of_the_largest_degree(self, kc_config,
                                                       constants):
        # two degrees >= 2k are compared, 128 and 256 for k = 64
        sol = solver.solve_momentum(kc_config, constants, nodes=1024)
        with pytest.raises(StabilityError,
                           match="at most 64 eigenvalues can converge .* "
                                 "got 65"):
            drift_spectrum(sol, 65)
        assert sol.stability_cache == {}
        lam = drift_spectrum(sol, 64)
        assert lam.size == 64 and np.all(np.diff(lam) > 0)


class TestAdmissibleSweep:
    @given(factors=st.lists(st.tuples(st.sampled_from([2, 4, 6]),
                                      st.integers(1, 3),
                                      st.sampled_from([-1, 1]),
                                      st.floats(0.5, 3.0)),
                            min_size=1, max_size=3),
           nodes=st.sampled_from([128, 256]), seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_vh_and_spectrum(self, constants, factors, nodes, seed):
        # |q| < p and q != 0: p exceeds |q| by the drawn gap
        sol = solver.solve_momentum(
            _bundle([(d, q + gap, sign * q) for d, q, sign, gap in factors]),
            constants, nodes=nodes)
        t, T = sol.grid.t, sol.grid.T
        coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
        src = sum(a * np.cos(k * np.pi * t / T) for k, a in enumerate(coeffs))
        assert v_h_solve(sol, src).residual < 1e-8
        _assert_spectrum_facts(sol)
        _assert_well_conditioned_fit(sol)


class TestIbp:
    def test_u_squared_profile(self, kc_momentum):
        g = kc_momentum.grid
        p = sampled(kc_momentum, g.u**2, 2.0 * g.u * g.du)
        assert ibp_identity_check(kc_momentum, p) < 1e-10

    def test_constant_profile_trivial(self, kc_momentum):
        assert ibp_identity_check(kc_momentum,
                                  constant_profile([2.0])) < 1e-12


class TestGaugeInvariance:
    """The auxiliary equation and the integration-by-parts identity see u
    only through u' and the measure e^{-u} dV, so they hold off the
    zero-mean gauge: a shift of u by a leaves v_h as it is, bit for bit,
    and scales each side of the identity by e^{-a}."""

    @pytest.mark.parametrize("name", ["kc_momentum", "kc_shooting_2048",
                                      "two_factor_momentum",
                                      "two_factor_shooting"])
    def test_shift_by_a_constant(self, request, name):
        sol = request.getfixturevalue(name)
        g = sol.grid
        moved = replace(sol, grid=replace(g, u=g.u + 0.3))
        source = np.cos(np.pi * g.t / g.T)
        want, got = v_h_solve(sol, source), v_h_solve(moved, source)
        assert np.array_equal(got.v, want.v)
        assert (got.residual, got.smallest_singular_value, got.degree) == (
            want.residual, want.smallest_singular_value, want.degree)
        scale = np.exp(-0.3)
        psi = 1.0 + np.cos(np.pi * g.t / g.T) ** 2
        # psi' left at 0: the deviation is int (Delta_u u) psi e^{-u} dV
        # itself, which does not cancel
        lone = sampled(sol, psi)
        assert ibp_identity_check(moved, lone) == pytest.approx(
            scale * ibp_identity_check(sol, lone), rel=1e-12, abs=0.0)
        # with its true psi' the two sides cancel: the deviation moves by
        # no more than the rounding of the sides it is the difference of
        dpsi = -np.pi / g.T * np.sin(2.0 * np.pi * g.t / g.T)
        both = sampled(sol, psi, dpsi)
        side = weighted_integral(g, sol.config, np.abs(sol.drift_lap_u * psi))
        assert abs(ibp_identity_check(moved, both)
                   - scale * ibp_identity_check(sol, both)) <= 1e-12 * side


class TestFamily:
    def test_default_is_one_profile_per_kind(self, kc_momentum):
        profiles = family(kc_momentum, ())
        assert [p.name for p in profiles] == [
            "constant", "u_plus", "u_minus", "abs_u"]
        # only the constant row is t-independent, with psi' = 0
        t = kc_momentum.grid.t
        assert [np.all(p.psi(t) == p.psi(t)[0]) for p in profiles] == [
            True, False, False, False]
        assert np.all(profiles[0].dpsi(t) == 0.0)

    def test_specs_pick_kinds_in_order(self, two_factor_momentum):
        abs_u, const = family(two_factor_momentum, ("abs_u", "constant"))
        assert abs_u.name == "abs_u" and const.name == "constant"
        assert np.all(const.psi(two_factor_momentum.grid.t) == 2.0)

    def test_constant_norms_from_the_solution(self, kc_momentum,
                                              two_factor_momentum):
        def constant_psi(sol, kinds):
            return family(sol, kinds)[0].psi(sol.grid.t)

        # Koiso-Cao carries no deformation: unit norms stand in
        assert np.all(constant_psi(kc_momentum, ()) == 1.0)
        assert np.all(constant_psi(kc_momentum, ("constant",)) == 1.0)
        deformed = BundleConfig(factors=(BaseFactor(2, 2.0, 1, kappa=3.0),))
        sol = replace(kc_momentum, config=deformed)
        assert np.all(constant_psi(sol, ("constant",)) == 3.0)
        # a rigid factor beside a deformed one keeps its norm 0
        rigid, _ = two_factor_momentum.config.factors
        sol = replace(two_factor_momentum, config=BundleConfig(
            factors=(rigid, replace(rigid, kappa=0.5))))
        assert np.all(constant_psi(sol, ("constant",)) == 0.5)

    @pytest.mark.parametrize("kinds", [("bogus",), ("abs_u", "bogus")],
                             ids=["alone", "after_a_kind"])
    def test_unknown_kind_is_a_stability_error(self, kc_momentum, kinds):
        for build in (family, sign_explorer):
            with pytest.raises(StabilityError,
                               match="unknown stability profile kind"):
                build(kc_momentum, kinds)


class TestExplorer:
    def test_default_family_has_both_signs(self, kc_momentum):
        signs = {r.sign for r in sign_explorer(kc_momentum)}
        assert {"zero", "positive", "negative"} <= signs

    def test_split_superposes_to_modulus(self, reference_solutions,
                                         kc_shooting_2048,
                                         two_factor_shooting):
        # the row is linear in psi and |u| = u_+ + u_-: value and scale of
        # abs_u are the sums of the split rows', to rounding
        sols = {**reference_solutions, "kc/cold": kc_shooting_2048,
                "two_s2/cold": two_factor_shooting}
        for label, sol in sols.items():
            plus, minus, modulus = sign_explorer(
                sol, ("u_plus", "u_minus", "abs_u"))
            tol = 1e-15 * modulus.scale
            assert abs(modulus.value - plus.value - minus.value) <= tol, label
            assert abs(modulus.scale - plus.scale - minus.scale) <= tol, label

    def test_constant_row_is_the_gauge_residual(self, reference_solutions):
        # for psi = K, value/scale is int u e^{-u} dV / int e^{-u} dV, whose
        # modulus is residuals.gauge: below _GAUGE_TOL <= _ZERO_BAND on every
        # solution the table accepts, so the row reads "zero" there
        for label, sol in reference_solutions.items():
            row, = sign_explorer(sol, ("constant",))
            assert abs(abs(row.value / row.scale)
                       - sol.residuals.gauge) < 1e-17, label
            assert row.sign == "zero", label

    def test_gauge_tolerance_is_within_the_zero_band(self):
        # krs stability has no verdict of its own on the constant row: it
        # reads "zero" because the gauge precondition is no looser than the
        # band (test_constant_row_is_the_gauge_residual)
        assert stability._GAUGE_TOL <= stability._ZERO_BAND

    @pytest.mark.parametrize("which", ["default", "constant"])
    def test_table_is_the_public_path_bit_for_bit(self, reference_solutions,
                                                  which):
        # sign_explorer reads the nodal values; second_variation_main reads
        # each profile of family through its callables
        for label, sol in reference_solutions.items():
            if which == "constant":
                # deformation norms 0.5, 1.5, ... on the factors
                sol = replace(sol, config=BundleConfig(factors=tuple(
                    replace(f, kappa=0.5 + i)
                    for i, f in enumerate(sol.config.factors))))
            kinds = () if which == "default" else ("constant",)
            fast = sign_explorer(sol, kinds)
            public = [second_variation_main(sol, p)
                      for p in family(sol, kinds)]
            assert len(fast) == len(public) == (4 if kinds == () else 1)
            for a, b in zip(fast, public):
                assert a.value.hex() == b.value.hex(), label
                assert a.scale.hex() == b.scale.hex(), label
                assert (a.profile, a.sign, a.C_hg, a.v_h_norm) == (
                    b.profile, b.sign, b.C_hg, b.v_h_norm), label


class TestEntropy:
    def test_ratio_mode_reports_constant(self, kc_momentum):
        out = nu_estimate(kc_momentum, EntropyGauge())
        assert out["constancy_deviation"] < 1e-10
        assert np.isfinite(out["value"])
        assert "log-volume" in out["flag"]

    def test_ratio_value_stable_under_grid_refinement(self, kc_momentum,
                                                      kc_momentum_2048):
        a = nu_estimate(kc_momentum, EntropyGauge())["value"]
        b = nu_estimate(kc_momentum_2048, EntropyGauge())["value"]
        assert abs(a - b) < 1e-6

    def test_corrupted_potential_refused(self, kc_momentum):
        from dataclasses import replace

        g = kc_momentum.grid
        bad = replace(kc_momentum,
                      grid=replace(g, u=g.u + 0.1 * np.sin(g.t)))
        with pytest.raises(StabilityError):
            nu_estimate(bad, EntropyGauge())

    def test_tau_comes_from_the_config(self, kc_momentum):
        out = nu_estimate(kc_momentum, EntropyGauge())
        assert out["tau"] == TAU
        with pytest.raises(TypeError):
            EntropyGauge(tau=0.25)


class TestSingleEvaluation:
    def test_one_ricci_evaluation_serves_every_call(self, kc_config,
                                                    constants, ricci_calls):
        from krslab import solver

        sol = solver.solve_momentum(kc_config, constants, nodes=256)
        assert ricci_calls == []  # the solve itself evaluates nothing
        t = sol.grid.t
        h = {"h_NN": np.full_like(t, 0.5), "h_UU": np.full_like(t, 0.5),
             "h_i": np.full((1, t.size), 0.5)}
        v_h_solve(sol, np.cos(np.pi * t / sol.grid.T))
        assert ricci_calls == []  # v_h is gauge-invariant: no report read
        sign_explorer(sol)
        for kind in ("anti_invariant", "metric_direction"):
            c_constant(sol, kind)
        assert ricci_calls == []  # the fixed kinds do not read the solution
        c_constant(sol, "custom", h)
        assert len(ricci_calls) == 1
        c_constant(sol, "custom", h)
        nu_estimate(sol, EntropyGauge())
        assert len(ricci_calls) == 1

    def test_gauge_invariant_calls_read_no_report(self, kc_momentum,
                                                  report_calls):
        sol = replace(kc_momentum)
        t = sol.grid.t
        v_h_solve(sol, np.cos(np.pi * t / sol.grid.T))
        ibp_identity_check(sol, sampled(sol, sol.grid.u ** 2,
                                        2.0 * sol.grid.u * sol.grid.du))
        drift_spectrum(sol, 3)
        sign_explorer(sol)
        second_variation_main(sol, constant_profile([1.0]))
        assert report_calls == []
        dw_theorem_check(sol, constant_profile([1.0]))
        assert report_calls == [1]

    def test_solution_quantities_are_built_once(self, kc_config, constants,
                                                monkeypatch):
        # int R e^{-u} dV (a weighted integral of the Ricci scalar) and the
        # drift coefficient (from log_weight_slope), once per solution
        from krslab import geometry

        integrands, slopes = [], []
        integral, slope = geometry.weighted_integral, geometry.log_weight_slope

        def counted_integral(grid, config, F):
            integrands.append(F)
            return integral(grid, config, F)

        def counted_slope(grid, config):
            slopes.append(grid)
            return slope(grid, config)

        for mod in (geometry, solver, stability):
            if getattr(mod, "weighted_integral", None) is integral:
                monkeypatch.setattr(mod, "weighted_integral",
                                    counted_integral)
        monkeypatch.setattr(geometry, "log_weight_slope", counted_slope)

        def run(sol):
            t = sol.grid.t
            sign_explorer(sol)
            for kind in ("anti_invariant", "metric_direction"):
                c_constant(sol, kind)
            c_constant(sol, "custom", _custom_h(sol))
            for k in range(10):
                v_h_solve(sol, np.cos((k % 4) * np.pi * t / sol.grid.T))
            R = sol.ricci.R
            return sum(F is R for F in integrands), len(slopes)

        sol = solver.solve_momentum(kc_config, constants, nodes=256)
        assert run(sol) == (1, 1)
        assert run(sol) == (1, 1)
        g = sol.grid
        moved = solver.gauge_normalize(
            replace(sol, grid=replace(g, u=g.u + 0.3)))
        integrands.clear()
        slopes.clear()
        assert run(moved) == (1, 1)
        assert slopes == [moved.grid]

    def test_replace_evaluates_afresh(self, kc_momentum):
        from dataclasses import replace

        g = kc_momentum.grid
        moved = replace(kc_momentum, grid=replace(g, u=g.u + 0.3))
        assert moved.first_integral is not kc_momentum.first_integral
        assert np.allclose(moved.first_integral,
                           kc_momentum.first_integral + 0.3,
                           rtol=0.0, atol=1e-13)
