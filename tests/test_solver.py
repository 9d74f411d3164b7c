import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from krslab.config import BaseFactor, BundleConfig, ConfigError
from krslab.geometry import (GeometryError, PinnedConstants, ricci_frame,
                             weighted_integral)
from krslab import solver, stability

from conftest import REFERENCE_CONFIGS, solve_recorded


def _bundle(factors):
    return BundleConfig(factors=tuple(
        BaseFactor(d=d, p=float(p), q=q) for d, p, q in factors))


def _cold_start_from(monkeypatch, a, u2):
    """Make shooting's cold start begin with the near-end data (a, u2) in
    place of the product Kahler-Einstein one."""
    guess = solver._default_guess

    def moved(config):
        x, t_mid = guess(config)
        x = x.copy()
        x[:config.r], x[config.r] = a, u2
        return x, t_mid

    monkeypatch.setattr(solver, "_default_guess", moved)


def _scan_slope_roots(config):
    """Every sign change of phi(2; c) over the 401 nodes of the first of the
    boxes [-8, 8], [-16, 16], ..., [-256, 256] that has one, each refined by
    brentq: the scan the bisection replaced, over the box it bisects."""
    def phi2(c):
        return solver._phi_integral(c, config)

    box = 8.0
    while box <= 256.0:
        cs = np.linspace(-box, box, 401)
        F = np.array([phi2(c) for c in cs])
        roots = []
        for k in range(400):
            if F[k] == 0.0:
                roots.append(cs[k])
            elif (F[k] > 0) != (F[k + 1] > 0):
                roots.append(brentq(phi2, cs[k], cs[k + 1], xtol=1e-15,
                                    rtol=8.9e-16))
        if roots:
            return roots
        box *= 2.0
    return []


def _hex(values):
    return [float(v).hex() for v in values]


# a dense grid of (0, 2) that reaches within 1e-12 of both collapse points
_ENDS = np.geomspace(1e-12, 1e-2, 41)
_S_DENSE = np.concatenate([_ENDS, np.linspace(0.0, 2.0, 2001)[1:-1],
                           2.0 - _ENDS[::-1]])


def _assert_phi_positive(cfg, roots):
    """phi = f^2 > 0 on the open interval at every slope root: the
    momentum solve takes it from the construction and does not probe it."""
    for c in roots:
        phi = solver.momentum_phi(cfg, c, _S_DENSE)
        assert np.all(phi > 0), (c, _S_DENSE[phi <= 0][:5])


class TestMomentum:
    def test_koiso_cao_slope_and_length(self, kc_momentum):
        # reference values computed with mpmath at 25 digits: c is the root
        # of int_0^2 m(s) 2 (1 - s) ds = 0, and T = int_0^pi sin(xi) /
        # sqrt(phi) dxi with s = 2 sin^2(xi/2), phi in its tail-integral
        # form for s > 1, both by Gauss-Legendre quadrature
        assert kc_momentum.c_slope == pytest.approx(
            0.5276195198969628248486071, abs=1e-12)
        assert kc_momentum.grid.T == pytest.approx(
            3.198164957109490686234774, abs=1e-13)

    @pytest.mark.parametrize("factors", [[(2, 2, 1)], [(2, 2, 1), (4, 3, 1)]],
                             ids=["kc", "two_factor"])
    def test_slope_and_length_do_not_depend_on_nodes(self, constants,
                                                     factors):
        cfg = _bundle(factors)
        sols = [solver.solve_momentum(cfg, constants, nodes=n)
                for n in (512, 1024, 2048, 4096)]
        assert len({float(sol.c_slope).hex() for sol in sols}) == 1
        assert len({sol.grid.T.hex() for sol in sols}) == 1

    @pytest.mark.parametrize("factors", [
        [(2, 2, 1)], [(2, 2, -1)], [(2, 2, 1), (4, 3, 1)],
        [(2, 2, 1), (2, 2, -1)],
    ], ids=["kc", "kc_mirror", "two_factor", "s2xs2_opp"])
    def test_phi_vanishes_alike_at_both_ends(self, constants, factors):
        # phi = 2 s + O(s^2) at s = 0 and 2 w + O(w^2) at s = 2 - w: at
        # w = 2^-30 both ratios are within 1.8 w of 2, where phi(2 - w)
        # taken as the integral over [0, 2 - w] was 29 w off on kc
        cfg = _bundle(factors)
        c, = solver.find_slope_roots(cfg)
        w = 2.0 ** -30
        near = solver.momentum_phi(cfg, c, w)[0] / w
        far = solver.momentum_phi(cfg, c, 2.0 - w)[0] / w
        assert near == pytest.approx(2.0, abs=4.0 * w)
        assert far == pytest.approx(2.0, abs=4.0 * w)

    @pytest.mark.parametrize("factors", [[(2, 2, 1)], [(2, 2, 1), (4, 3, 1)]],
                             ids=["kc", "two_factor"])
    def test_series_phi_is_the_quadrature_phi(self, constants, factors):
        # the profiles read phi = f^2 off the series of dt/dxi; at the
        # N = 4096 nodes it is the quadrature phi to 7.1e-15
        cfg = _bundle(factors)
        sol = solver.solve_momentum(cfg, constants, nodes=4096)
        # s from the Kahler relation l_1^2 = q_1 s + p_1 - q_1
        s = (sol.grid.l[0] ** 2 - (cfg.p[0] - cfg.q[0])) / cfg.q[0]
        quad = solver.momentum_phi(cfg, sol.c_slope, s)
        assert np.abs(quad - sol.grid.f ** 2).max() <= 1e-14

    def test_residuals_at_machine_precision(self, kc_momentum):
        rep = kc_momentum.residuals
        assert rep.max_equation_residual() < 1e-12
        assert rep.hamilton < 1e-12
        assert rep.delta_uu < 1e-10

    def test_factor_sizes_at_the_ends(self, kc_momentum):
        # l^2 = q s + p - q runs from p - q = 1 to p + q = 3
        g = kc_momentum.grid
        assert g.l[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert g.l[0, -1] == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_gauge_normalized(self, kc_momentum, reference_solutions,
                              kc_shooting_2048, two_factor_shooting):
        assert kc_momentum.residuals.gauge < 1e-14
        # the normalizing shift equals the reduction slope c: the slope
        # condition puts the weighted mean of s at 1, so u = c (s - 1); to
        # rounding on Chebyshev momentum, to the Newton tolerance on warm
        # and cold shooting, and to the quadrature on the uniform scheme
        sols = {**reference_solutions, "kc/cold": kc_shooting_2048,
                "two_s2/cold": two_factor_shooting}
        for label, sol in sols.items():
            route = label.split("/")[1]
            tol = {"momentum": 1e-15 * max(1.0, abs(sol.c_slope)),
                   "uniform": 1e-9}.get(route, 1e-12)
            assert abs(sol.gauge_shift - sol.c_slope) <= tol, label

    def test_weighted_mean_owns_the_gauge(self, reference_solutions):
        # the report's gauge is the solution's cached mean, bit for bit
        for label, sol in reference_solutions.items():
            assert sol.residuals.gauge == abs(sol.weighted_mean_u), label

    @pytest.mark.parametrize("config, recorded", [
        ("kc_config", "kc_shooting_2048_recorded"),
        ("two_factor_config", "two_factor_shooting_recorded")])
    def test_normalize_shifts_by_the_weighted_mean(self, request, constants,
                                                   config, recorded):
        # on momentum and on cold shooting, u is the raw u less its mean
        mom = solve_recorded(solver.solve_momentum,
                             request.getfixturevalue(config), constants,
                             nodes=512)
        for sol, seen in (mom, request.getfixturevalue(recorded)):
            raw = seen["raw"]
            assert np.array_equal(sol.grid.u,
                                  raw.grid.u - raw.weighted_mean_u)

    def test_unpinned_constants_rejected(self, kc_config):
        # the check runs where the value is made, so none reaches a solver
        with pytest.raises(GeometryError, match="not pinned"):
            solver.solve_momentum(kc_config, PinnedConstants(
                0.25, 0.5, max_rel_err=float("nan"), samples=0), nodes=1024)

    def test_wrong_constants_rejected(self, kc_config):
        wrong = PinnedConstants(A=0.125, B=0.5, max_rel_err=1e-9, samples=5)
        with pytest.raises(solver.SolverError):
            solver.solve_momentum(kc_config, wrong, nodes=1024)

    def test_degenerate_factor_reports_no_soliton(self, constants):
        # p = q makes l vanish at the near end: not an admissible soliton
        cfg = BundleConfig(factors=(BaseFactor(d=2, p=1.0, q=1),))
        with pytest.raises(solver.NoSolitonFound):
            solver.solve_momentum(cfg, constants, nodes=1024)

    @pytest.mark.parametrize("method", ["momentum", "shooting"])
    def test_inadmissible_message_gives_the_config_values(self, constants,
                                                          method):
        # (2, 16, 20) is framed at k = 1 as (4, 5), whose near-end value
        # p - q is -1: the message gives the config's p - q = -4
        solve = getattr(solver, f"solve_{method}")
        with pytest.raises(solver.NoSolitonFound,
                           match=r"\(endpoint values \[-4\.0\]\)$"):
            solve(_bundle([(2, 16, 20)]), constants, nodes=64)

    def test_uniform_scheme_agrees(self, kc_config, constants, kc_momentum):
        uni = solver.solve_momentum(kc_config, constants, nodes=256,
                                    scheme="uniform")
        assert uni.c_slope == pytest.approx(kc_momentum.c_slope, abs=1e-12)
        assert uni.residuals.max_equation_residual() < 1e-10

    def test_no_root_names_the_search_box(self, constants):
        # admissible (l^2 = 2.05 - s > 0 on [0, 2]), but the root lies
        # beyond the largest box, below c = -256 (the scan finds no root
        # either, see TestSlopeRoot)
        with pytest.raises(solver.NoSolitonFound,
                           match=r"search box \|c\| <= 256$"):
            solver.solve_momentum(_bundle([(600, 1.05, -1)]), constants,
                                  nodes=64)

    @pytest.mark.parametrize("factors, c", [
        ([(6, 1.25, -1), (6, 1.25, -1), (6, 3.5, -3)], -8.0627135245457),
        ([(20, 1.05, 1)], 10.417116550533),
    ], ids=["three_cp3", "cp10"])
    def test_root_outside_the_first_box(self, constants, factors, c):
        # the box doubles to [-16, 16], which brackets the root
        sol = solver.solve_momentum(_bundle(factors), constants, nodes=64)
        assert sol.c_slope == pytest.approx(c, abs=1e-12)


class TestSlopeRoot:
    @given(factors=st.lists(st.tuples(st.sampled_from([2, 4, 6]),
                                      st.integers(1, 3),
                                      st.sampled_from([-1, 1]),
                                      st.floats(0.25, 3.0)),
                            min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    # all twists negative and small gaps p - |q|: the roots are at
    # c = -8.063 and -8.177, just outside the first box
    @example(factors=[(6, 1, -1, 0.25), (6, 1, -1, 0.25), (6, 3, -1, 0.5)])
    @example(factors=[(6, 1, -1, 0.25), (6, 1, -1, 0.25), (6, 2, -1, 0.25)])
    def test_bisection_is_the_scan_bit_for_bit(self, factors):
        # |q| < p and q != 0: p exceeds |q| by the drawn gap
        cfg = _bundle([(d, q + gap, sign * q) for d, q, sign, gap in factors])
        roots = solver.find_slope_roots(cfg)
        assert len(roots) == 1
        assert _hex(roots) == _hex(_scan_slope_roots(cfg))
        _assert_phi_positive(cfg, roots)

    # roots in the boxes of half-width 8, 8, 8, 16 and 256, and none
    # with |c| <= 256 for the last (its root is below -256)
    @pytest.mark.parametrize("factors, roots", [
        ([(2, 2, 1)], 1), ([(2, 2, 1), (2, 2, -1)], 1), ([(4, 3, 2)], 1),
        ([(20, 1.05, 1)], 1), ([(400, 1.05, -1)], 1), ([(600, 1.05, -1)], 0),
    ], ids=["kc", "s2xs2_opp", "cp2_q2", "box_16", "box_256", "no_root"])
    def test_named_configs_match_the_scan(self, factors, roots):
        cfg = _bundle(factors)
        found = solver.find_slope_roots(cfg)
        assert len(found) == roots
        assert _hex(found) == _hex(_scan_slope_roots(cfg))
        _assert_phi_positive(cfg, found)

    def test_bisection_evaluates_few_points(self, kc_config, monkeypatch):
        # two box ends, nine bisection steps over 400 brackets, then brentq:
        # 18 evaluations on kc, where the scan made ~407
        calls = []
        phi_integral = solver._phi_integral

        def counted(*args):
            calls.append(1)
            return phi_integral(*args)

        monkeypatch.setattr(solver, "_phi_integral", counted)
        solver.find_slope_roots(kc_config)
        assert len(calls) <= 25

    @pytest.mark.parametrize("root", [-8.0, 0.0], ids=["box_end", "midpoint"])
    def test_exact_zero_on_a_node_is_returned(self, kc_config, monkeypatch,
                                              root):
        # a node where the integral is exactly 0 ends the bisected bracket
        # as its left end, and brentq returns it unchanged
        monkeypatch.setattr(solver, "_phi_integral",
                            lambda c, config: c - root)
        assert solver.find_slope_roots(kc_config) == [root]

    def test_kaehler_einstein_root_is_zero(self, constants, monkeypatch):
        # S^2 x S^2 with opposite twists is Kahler-Einstein: the slope is
        # c = 0.0 exactly (brentq's bracket starts at the box node 0.0,
        # where the integral reads -6.8e-17), so u = c s is 0 everywhere
        # and gauge normalization shifts it by 0.0
        cfg = _bundle([(2, 2, 1), (2, 2, -1)])
        calls = []
        phi_integral = solver._phi_integral

        def counted(*args):
            calls.append(1)
            return phi_integral(*args)

        with monkeypatch.context() as mp:
            mp.setattr(solver, "_phi_integral", counted)
            assert solver.find_slope_roots(cfg) == [0.0]
        assert len(calls) <= 25
        sol = solver.solve_momentum(cfg, constants, nodes=512)
        assert sol.c_slope == 0.0 and sol.gauge_shift == 0.0
        assert np.all(sol.grid.u == 0.0)
        rows = stability.sign_explorer(sol)
        assert [(r.sign, r.value) for r in rows] == [("zero", 0.0)] * 4


class TestMomentumInvariances:
    """The momentum solve under maps of (d, p, q) that fix the soliton."""

    def test_doubling_p_and_q_is_exact(self, constants):
        # l^2 and the weight scale by powers of two: every float is the same
        a = solver.solve_momentum(_bundle([(2, 2, 1)]), constants, nodes=256)
        b = solver.solve_momentum(_bundle([(2, 4, 2)]), constants, nodes=256)
        assert a.c_slope == b.c_slope
        assert a.grid.T == b.grid.T

    def test_tripling_p_and_q(self, constants):
        a = solver.solve_momentum(_bundle([(2, 2, 1)]), constants, nodes=256)
        b = solver.solve_momentum(_bundle([(2, 6, 3)]), constants, nodes=256)
        assert a.c_slope == b.c_slope
        assert abs(a.grid.T - b.grid.T) <= 3e-12

    def test_mirror_twist_flips_the_slope(self, constants):
        a = solver.solve_momentum(_bundle([(2, 2, 1)]), constants, nodes=256)
        b = solver.solve_momentum(_bundle([(2, 2, -1)]), constants, nodes=256)
        assert b.c_slope == -a.c_slope
        assert abs(a.grid.T - b.grid.T) <= 1.5e-12

    @pytest.mark.parametrize("factors", [
        [(2, 2, 1), (4, 3, 1)], [(2, 2, 1), (2, 3, -1)],
        [(2, 2, 1), (4, 3, 1), (6, 4, -2)],
    ], ids=["s2_cp2", "mixed_twist", "three_factor"])
    def test_factor_order_is_irrelevant(self, constants, factors):
        a = solver.solve_momentum(_bundle(factors), constants, nodes=256)
        b = solver.solve_momentum(_bundle(factors[::-1]), constants,
                                  nodes=256)
        assert abs(a.c_slope - b.c_slope) <= 1e-15
        assert abs(a.grid.T - b.grid.T) <= 2e-11
        assert np.abs(a.grid.u - b.grid.u).max() <= 1.5e-11


def _warm_shooting(factors, constants):
    cfg = _bundle(factors)
    return solver.solve_shooting(
        cfg, constants, nodes=256,
        start=solver.solve_momentum(cfg, constants, nodes=256))


class TestWarmShootingInvariances:
    """The maps of TestMomentumInvariances through the warm-started shooting
    solve, on the same bundles: c and T agree to 1e-9."""

    def test_doubling_p_and_q(self, constants):
        a = _warm_shooting([(2, 2, 1)], constants)
        b = _warm_shooting([(2, 4, 2)], constants)
        assert abs(a.c_slope - b.c_slope) <= 1e-9
        assert abs(a.grid.T - b.grid.T) <= 1e-9

    def test_mirror_twist_flips_the_slope(self, constants):
        a = _warm_shooting([(2, 2, 1)], constants)
        b = _warm_shooting([(2, 2, -1)], constants)
        assert abs(a.c_slope + b.c_slope) <= 1e-9
        assert abs(a.grid.T - b.grid.T) <= 1e-9

    @pytest.mark.parametrize("factors", [
        [(2, 2, 1), (4, 3, 1)], [(2, 2, 1), (2, 3, -1)],
        [(2, 2, 1), (4, 3, 1), (6, 4, -2)],
    ], ids=["s2_cp2", "mixed_twist", "three_factor"])
    def test_factor_order_is_irrelevant(self, constants, factors):
        a = _warm_shooting(factors, constants)
        b = _warm_shooting(factors[::-1], constants)
        assert abs(a.c_slope - b.c_slope) <= 1e-9
        assert abs(a.grid.T - b.grid.T) <= 1e-9


def _scaled(factors, js):
    """The bundle of ``factors`` ([d, p, q] each) with factor i's p and q
    multiplied by 4^j_i: the same soliton, with l_i times 2^j_i."""
    return _bundle([(d, p * 4.0 ** j, q * 4 ** j)
                    for (d, p, q), j in zip(factors, js)])


def _facts(sol):
    """c, T, the profile table and the residual report of a solution, as
    values that compare equal only bit for bit (a float's repr round-trips)."""
    return (repr(sol.c_slope), repr(sol.grid.T), sol.grid.table().tobytes(),
            repr(sol.residuals))


def _outcome(solve, config):
    """``_facts`` of ``solve(config)``, or the class of its failure."""
    try:
        return _facts(solve(config))
    except (solver.NoSolitonFound, solver.SolverError) as err:
        return type(err)


class TestFrameInvariance:
    """Each factor is solved in its own power-of-4 frame, so scaling its p
    and q by 4^j (l by 2^j) leaves every float of the solve as it was."""

    @pytest.mark.parametrize("method", ["momentum", "warm"])
    @given(factors=st.lists(st.tuples(st.sampled_from([2, 4, 6]),
                                      st.integers(1, 3),
                                      st.sampled_from([-1, 1]),
                                      st.floats(0.25, 3.0),
                                      st.integers(0, 500)),
                            min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    # kc at the largest j, and three factors framed apart
    @example(factors=[(2, 1, 1, 1.0, 500)])
    @example(factors=[(6, 1, -1, 0.25, 0), (4, 2, 1, 0.5, 333),
                      (2, 3, 1, 0.5, 497)])
    def test_power_of_4_scaling_is_bit_for_bit(self, constants, method,
                                                factors):
        # |q| < p and q != 0: p exceeds |q| by the drawn gap
        bundle = [(d, q + gap, sign * q) for d, q, sign, gap, _ in factors]
        js = [j for *_, j in factors]

        def solve(config):
            mom = solver.solve_momentum(config, constants, nodes=64)
            if method == "momentum":
                return mom
            return solver.solve_shooting(config, constants, nodes=64,
                                         start=mom)

        assert _outcome(solve, _bundle(bundle)) == _outcome(
            solve, _scaled(bundle, js))

    # a cold solve costs 0.3-1 s: two fixed draws
    def test_cold_kc_times_4_cubed(self, constants, kc_shooting_2048):
        sol = solver.solve_shooting(_scaled([(2, 2, 1)], [3]), constants,
                                    nodes=2048)
        assert _facts(sol) == _facts(kc_shooting_2048)

    def test_cold_two_factor_scaled_in_one_factor(self, constants,
                                                  two_factor_shooting):
        sol = solver.solve_shooting(_scaled([(2, 2, 1)] * 2, [0, 7]),
                                    constants, nodes=512)
        assert _facts(sol) == _facts(two_factor_shooting)


class TestShooting:
    def test_koiso_cao_matches_momentum(self, kc_momentum, kc_config,
                                        constants):
        sho = solver.solve_shooting(kc_config, constants, nodes=512)
        assert sho.c_slope == pytest.approx(kc_momentum.c_slope, abs=1e-8)
        assert sho.grid.T == pytest.approx(kc_momentum.grid.T, abs=1e-8)
        assert solver.cross_method_disagreement(kc_momentum, sho) < 1e-8

    def test_kaehler_monitored_not_imposed(self, kc_shooting_2048):
        # the bulk integration never enforces the Kahler condition; its
        # drift staying at roundoff is a genuine cross-check
        assert kc_shooting_2048.residuals.kaehler < 1e-10

    def test_first_integral_constancy(self, kc_shooting_2048):
        assert kc_shooting_2048.residuals.hamilton < 1e-10

    def test_two_factor_agreement(self, two_factor_momentum,
                                  two_factor_shooting):
        d = solver.cross_method_disagreement(two_factor_momentum,
                                             two_factor_shooting)
        assert d < 1e-8
        assert two_factor_shooting.c_slope == pytest.approx(
            two_factor_momentum.c_slope, abs=1e-8)

    def test_explicit_initial_guess_accepted(self, kc_config, constants,
                                             kc_momentum, monkeypatch):
        # a second cold start, l_1(0) = 0.9 and u''(0)/2 = 0.3, reaches the
        # same soliton
        _cold_start_from(monkeypatch, np.array([0.9]), 0.3)
        sho = solver.solve_shooting(kc_config, constants, nodes=256)
        assert sho.c_slope == pytest.approx(kc_momentum.c_slope, abs=1e-8)

    def test_cold_start_reproduces_its_result(self, kc_shooting_2048):
        # the cold route (product Kahler-Einstein start, Newton with the
        # Kahler rows at the twists q/2 and q, sampling the branches of the
        # accepted iterate, c read off the potential offset) gives this kc
        # result bit for bit
        sol = kc_shooting_2048
        assert float(sol.c_slope).hex() == "0x1.0e24254d61208p-1"
        assert sol.grid.T.hex() == "0x1.995d7824ffd19p+1"
        assert hashlib.sha256(sol.grid.table().tobytes()).hexdigest() == (
            "86c0a252e0c397ae5047a9c49c8b2815ae73c4b12d0da3776e95fd53ee856460")
        # the 25-digit mpmath slope (TestMomentum): 2.4e-13 off
        assert abs(sol.c_slope - 0.5276195198969628) <= 5e-13

    def test_cold_start_reproduces_two_factor_result(self,
                                                     two_factor_shooting,
                                                     two_factor_momentum):
        # the cold route on two S^2 factors (r = 2) at N = 512, bit for bit
        sol = two_factor_shooting
        assert float(sol.c_slope).hex() == "0x1.0de1d116030a0p+0"
        assert sol.grid.T.hex() == "0x1.a0a61a8ce230cp+1"
        assert hashlib.sha256(sol.grid.table().tobytes()).hexdigest() == (
            "56c4e86791d65b12e40d4774c78ddb24f8f98ce1174a435bdbf2d626710e9200")
        # 1.6e-13 from the momentum slope
        assert abs(sol.c_slope - two_factor_momentum.c_slope) <= 5e-13

    # warm start (method both) at N = 512: c, T and the profile table
    @pytest.mark.parametrize("factors,c_hex,T_hex,table_sha", [
        ([(2, 2, 1)] * 2, "0x1.0de1d11602dd3p+0", "0x1.a0a61a8ce21b6p+1",
         "0acc50764826538c0957d1d23ce1b7cc6f0c5efd3e0abab5146061cce42af6c7"),
        ([(2, 2, 1)] * 3, "0x1.946ec480415bbp+0", "0x1.a7f7ea4f47011p+1",
         "f7c1e6cdfa77b30875d6b17388dd66228687e843e2cd73e90f9e4367773c7b43"),
    ], ids=["two_s2", "three_s2"])
    def test_warm_start_reproduces_its_result(self, constants, factors,
                                              c_hex, T_hex, table_sha):
        cfg = _bundle(factors)
        sol = solver.solve_shooting(
            cfg, constants, nodes=512,
            start=solver.solve_momentum(cfg, constants, nodes=512))
        assert float(sol.c_slope).hex() == c_hex
        assert sol.grid.T.hex() == T_hex
        assert hashlib.sha256(
            sol.grid.table().tobytes()).hexdigest() == table_sha

    @pytest.mark.parametrize("factors", [
        [(2, 3, 2)], [(2, 2, 1)] * 2, [(2, 2, 1)] * 3, [(4, 3, 2)],
        [(2, 2, 1), (4, 3, 1)],
    ], ids=["s2_p3_q2", "two_s2", "three_s2", "cp2_q2", "s2_cp2"])
    def test_warm_start_matches_without_a_step(self, constants, factors,
                                               monkeypatch):
        # the five configs whose fourth-order launch left a warm defect of
        # 1.2e-11 to 1.6e-10, above the 1e-11 Newton tolerance: the
        # sixth-order one meets it at the first matching call
        defects = []
        match = solver._match_residual

        def recorded(*args, **kwargs):
            defect, branches = match(*args, **kwargs)
            defects.append(np.linalg.norm(defect))
            return defect, branches

        monkeypatch.setattr(solver, "_match_residual", recorded)
        cfg = _bundle(factors)
        solver.solve_shooting(
            cfg, constants, nodes=512,
            start=solver.solve_momentum(cfg, constants, nodes=512))
        assert len(defects) == 1
        assert defects[0] < 5e-12

    @pytest.mark.parametrize("factors", [
        [(2, 2, 1)], [(2, 2, 1)] * 3, [(2, 3, 2)],
    ], ids=["kc", "three_s2", "s2_p3_q2"])
    def test_launch_series_is_sixth_order(self, constants, factors):
        # the series' derivative (complex step) against the right-hand side
        # at its own state, at the warm-start data of both ends: halving t
        # shrinks the defect 64x for a sixth-order launch (16x for the
        # fourth-order one)
        cfg = _bundle(factors)
        r = cfg.r
        x, _ = solver._warm_start(
            cfg, solver.solve_momentum(cfg, constants, nodes=64))
        rhs = solver._rhs(cfg, constants, cfg.q)
        for a, u2, sign in ((x[:r], x[r], 1.0),
                            (x[r + 1:2 * r + 1], x[2 * r + 1], -1.0)):
            lc = solver._launch_coefficients(cfg, a, u2, constants,
                                             sign * cfg.q)

            def defect(t):
                dy = solver._launch_state(lc, complex(t, 1e-30)).imag / 1e-30
                return np.abs(dy - rhs(t, solver._launch_state(lc, t))).max()

            assert defect(0.04) >= 50.0 * defect(0.02)

    def test_jacobian_column_integrates_one_branch(
            self, two_factor_config, two_factor_momentum, constants,
            monkeypatch):
        # warm two_s2 (r = 2) matches at once; with one entry of its trial
        # vector moved by 1e-9 (near a_1 or u2, far a_1 or u2, the offset
        # u0f, T) it takes one Newton step: the first matching call, 2r+4
        # Jacobian columns, one accepted line-search trial
        r = two_factor_config.r
        warm, match, branch = (solver._warm_start, solver._match_residual,
                               solver._integrate_branch)
        counts = {}

        def moved(config, start):
            x, t_mid = warm(config, start)
            x = x.copy()
            x[j] += 1e-9
            return x, t_mid

        def counted_match(*args, **kwargs):
            counts["match"] += 1
            return match(*args, **kwargs)

        def counted_branch(*args, **kwargs):
            counts["branch"] += 1
            return branch(*args, **kwargs)

        monkeypatch.setattr(solver, "_warm_start", moved)
        monkeypatch.setattr(solver, "_match_residual", counted_match)
        monkeypatch.setattr(solver, "_integrate_branch", counted_branch)
        for j in (0, r, r + 1, 2 * r + 1, 2 * r + 2, 2 * r + 3):
            counts.update(match=0, branch=0)
            solver.solve_shooting(two_factor_config, constants, nodes=512,
                                  start=two_factor_momentum)
            assert counts["match"] == 1 + (2 * r + 4) + 1, j
            # a column integrates the branch it moves, u0f's column none
            assert counts["branch"] == 2 + (2 * r + 3) + 2, j

    @pytest.mark.parametrize("bundle, j", [
        *(pytest.param("kc", j, id=name) for j, name in enumerate(
            ["near_a", "near_u2", "far_a", "far_u2", "u0f", "T"])),
        *(pytest.param("two_factor", j, id=f"two_factor-{name}")
          for j, name in enumerate(["near_a1", "near_a2", "near_u2", "far_a1",
                                    "far_a2", "far_u2", "u0f", "T"]))])
    def test_reused_branch_gives_the_fresh_defect(self, request, constants,
                                                  bundle, j):
        # the branches _newton passes for column j: a near-end variable
        # (j <= r) keeps the far branch, u0f both, a far-end one or T the
        # near branch; the defect equals that of a call integrating both
        config = request.getfixturevalue(f"{bundle}_config")
        r, q = config.r, config.q
        x, t_mid = solver._warm_start(
            config, request.getfixturevalue(f"{bundle}_momentum"))
        _, (near0, far0) = solver._match_residual(
            config, constants, x, t_mid, 1e-12, q, None, None)
        xp = x.copy()
        xp[j] += 1e-7 * max(1.0, abs(x[j]))
        if j <= r:
            given = (None, far0)
        elif j == 2 * r + 2:
            given = (near0, far0)
        else:
            given = (near0, None)
        reused, (near, far) = solver._match_residual(
            config, constants, xp, t_mid, 1e-12, q, *given)
        fresh, _ = solver._match_residual(config, constants, xp, t_mid,
                                          1e-12, q, None, None)
        assert np.array_equal(reused, fresh)
        assert (near is near0) == (j > r)
        assert (far is far0) == (j <= r or j == 2 * r + 2)

    def test_large_base_solves_by_both_routes(self, constants):
        # framed at k = 8 (p = 1e5 / 4^8 = 1.53, l_i ~ 1.2), where the
        # matching defect meets the absolute Newton tolerance: the warm
        # start (method both) and the cold one converge
        config = _bundle([(2, 1e5, 1)])
        mom = solver.solve_momentum(config, constants, nodes=128)
        for start in (mom, None):
            sho = solver.solve_shooting(config, constants, nodes=128,
                                        start=start)
            assert abs(sho.c_slope - mom.c_slope) <= 1e-9

    def test_defect_reads_the_branch_ends(self, kc_config, constants,
                                          kc_momentum):
        # each branch stops at the matching point (the far one at T - t_mid
        # in tau): the continuity rows are the last step states, bit for
        # bit, and no dense output is built
        r = kc_config.r
        x, t_mid = solver._warm_start(kc_config, kc_momentum)
        defect, (near, far) = solver._match_residual(
            kc_config, constants, x, t_mid, 1e-12, kc_config.q, None, None)
        *_, u0f, T = solver._unpack(x, r)
        assert (near[1].ts[-1], far[1].ts[-1]) == (t_mid, T - t_mid)
        assert np.array_equal(
            defect[:2 * r + 4],
            near[1].ys[-1] - solver._reflect(far[1].ys[-1], r, u0f))
        assert "F" not in vars(near[1]) and "F" not in vars(far[1])

    def test_warm_start_skips_the_probe(self, kc_config, constants,
                                        kc_momentum, monkeypatch):
        def no_cold_start(*args, **kwargs):
            raise AssertionError("the cold start ran on a warm start")

        monkeypatch.setattr(solver, "_default_guess", no_cold_start)
        sho = solver.solve_shooting(kc_config, constants, nodes=512,
                                    start=kc_momentum)
        assert sho.c_slope == pytest.approx(kc_momentum.c_slope, abs=1e-9)
        assert sho.grid.T == pytest.approx(kc_momentum.grid.T, abs=1e-9)
        assert solver.cross_method_disagreement(kc_momentum, sho) < 1e-9

    def test_non_kaehler_root_rejected(self, kc_config, constants,
                                       spurious_newton):
        # a Newton that lands on a non-Kahler root: sampling rejects it and
        # the message names it
        with pytest.raises(solver.SolverError,
                           match=r"non-Kahler root: T=3\.2651.*residual 1\.0"):
            solver.solve_shooting(kc_config, constants, nodes=64)

    def test_kaehler_rows_separate_the_spurious_root(
            self, kc_config, constants, kc_momentum, kc_spurious_root):
        # the spurious root zeroes the continuity defect, not the Kahler
        # rows: with them it is no root of the matching defect
        _, t_mid = solver._warm_start(kc_config, kc_momentum)
        defect, _ = solver._match_residual(kc_config, constants,
                                           kc_spurious_root, t_mid, 1e-12,
                                           kc_config.q, None, None)
        r = kc_config.r
        assert defect.shape == (4 * r + 4,)
        assert np.abs(defect[:2 * r + 4]).max() < 1e-9
        assert np.abs(defect[2 * r + 4:]).max() > 0.1

    def test_cold_start_is_the_product_einstein_metric(self, constants,
                                                       monkeypatch):
        # closed form, no integration: f = sin t on [0, pi], l_i = sqrt p_i
        def no_integration(*args):
            raise AssertionError("the cold start integrated")

        monkeypatch.setattr(solver, "dop853", no_integration)
        # in each factor's frame: 9 / 4 for the second, whose l(0) is 1.5
        x, t_mid = solver._default_guess(_bundle([(2, 4, 1), (4, 9, -2)]))
        assert x.tolist() == [2.0, 1.5, 0.0, 2.0, 1.5, 0.0, 0.0, np.pi]
        assert t_mid == np.pi / 2.0

    def test_continuation_halves_a_failed_step(self, kc_config, constants,
                                               kc_momentum, monkeypatch):
        # the first rung (twist q/2) fails; from half that step the ladder
        # climbs q/4, q/2, 3q/4, q, and Newton at q alone finds kc
        newton, twists = solver._newton, []

        def first_fails(config, constants, x, t_mid, rtol, q):
            twists.append(float(q[0] / config.q[0]))
            if len(twists) == 1:
                raise solver.SolverError("Newton did not converge")
            if twists[-1] < 1.0:
                return x, None
            return newton(config, constants, x, t_mid, rtol, q)

        monkeypatch.setattr(solver, "_newton", first_fails)
        sol = solver.solve_shooting(kc_config, constants, nodes=128)
        assert twists == [0.5, 0.25, 0.5, 0.75, 1.0]
        assert sol.c_slope == pytest.approx(kc_momentum.c_slope, abs=1e-9)

    @pytest.mark.parametrize("message", [
        "Newton did not converge (|res|=4.287e+01)",
        "Newton line search stalled at |res|=8.461e+00",
        "branch integration failed: Required step size",
    ])
    def test_continuation_stops_after_five_halvings(self, kc_config,
                                                    constants, monkeypatch,
                                                    message):
        # steps of 1/2 down to 1/32 from lambda = 0, then a SolverError
        # that names the lambda reached and keeps Newton's message (a
        # failure's class is read off it)
        twists = []

        def failing(config, constants, x, t_mid, rtol, q):
            twists.append(float(q[0] / config.q[0]))
            raise solver.SolverError(message)

        monkeypatch.setattr(solver, "_newton", failing)
        with pytest.raises(solver.SolverError) as err:
            solver.solve_shooting(kc_config, constants, nodes=64)
        assert twists == [0.5, 0.25, 0.125, 0.0625, 0.03125]
        assert str(err.value) == (
            "twist continuation stopped at lambda=0: the step to "
            f"lambda=0.03125 failed: {message}")

    def test_line_search_stall_raises(self, kc_config, constants,
                                      kc_momentum, monkeypatch):
        # a defect floored at 1e-3 (1 + |x|): no damped step lowers it
        match = solver._match_residual

        def floored(config, constants, x, *args):
            res, branches = match(config, constants, x, *args)
            return res + 1e-3 * (1.0 + np.linalg.norm(x)), branches

        monkeypatch.setattr(solver, "_match_residual", floored)
        with pytest.raises(solver.SolverError,
                           match="Newton line search stalled"):
            solver.solve_shooting(kc_config, constants, nodes=64,
                                  start=kc_momentum)

    def test_bad_guess_raises(self, kc_config, constants, monkeypatch):
        # every rung's first matching call meets l_1(0) = -1
        _cold_start_from(monkeypatch, np.array([-1.0]), 0.25)
        with pytest.raises(solver.SolverError, match="nonpositive"):
            solver.solve_shooting(kc_config, constants, nodes=128)

    def test_branch_states_equal_per_node_reads(self, kc_config, constants):
        # one read of the series and one of the dense output per branch
        # give the per-node values bit for bit
        lc, sol = solver._integrate_branch(kc_config, constants,
                                           np.array([1.0]), 0.26, 1.5, 1e-12,
                                           kc_config.q)
        t = np.concatenate([np.linspace(0.0, 2.0 * solver._EPS, 7),
                            np.linspace(0.01, 1.5, 50)])
        ref = np.array([solver._launch_state(lc, tk) if tk < solver._EPS
                        else sol(tk) for tk in t]).T
        assert np.array_equal(solver._branch_states(lc, sol, t), ref)

    @given(factors=st.lists(st.tuples(st.sampled_from([2, 4, 6]),
                                      st.integers(1, 3),
                                      st.sampled_from([-1, 1]),
                                      st.floats(0.01, 3.0)),
                            min_size=1, max_size=3),
           points=st.integers(1, 4), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_rhs_is_the_array_form_bit_for_bit(self, constants, factors,
                                               points, data):
        # |q| < p: p exceeds |q| by the drawn gap; f > 0 and l_i > 0.  One
        # state, read as Python floats, gives the bits of its column among
        # many, read as row arrays
        config = _bundle([(d, q + gap, sign * q)
                          for d, q, sign, gap in factors])
        r = config.r
        pos = st.floats(1e-3, 3.0)
        real = st.floats(-3.0, 3.0)
        Y = np.array([[data.draw(kind) for _ in range(points)]
                      for kind in (pos, real, *[pos] * r,
                                   *[real] * (r + 2))])
        rhs = solver._rhs(config, constants, config.q)
        many = rhs(0.5, Y)
        for k in range(points):
            one = rhs(0.5, Y[:, k])
            assert np.array_equal(one.view(np.int64),
                                  many[:, k].view(np.int64))

    @pytest.mark.parametrize("r", [1, 3])
    def test_rhs_solves_the_geometry_formula(self, constants, r):
        # the shooting RHS is the soliton equation Ric + Hess u = g solved
        # for f'', l'', u'': put them back into geometry's closed form
        rng = np.random.default_rng(r)
        config = BundleConfig(factors=tuple(
            BaseFactor(d=int(rng.choice([2, 4, 6])),
                       p=float(rng.uniform(1.0, 4.0)),
                       q=int(rng.choice([-2, -1, 1, 2]))) for _ in range(r)))
        S = 200
        f, df = rng.uniform(0.3, 1.5, S), rng.uniform(-1.0, 1.0, S)
        l, dl = rng.uniform(0.7, 1.8, (r, S)), rng.uniform(-0.5, 0.5, (r, S))
        u, du = rng.uniform(-1.0, 1.0, S), rng.uniform(-1.0, 1.0, S)
        dy = solver._rhs(config, constants, config.q)(
            0.0, np.vstack([f, df, l, dl, u, du]))
        ddf, ddl, ddu = dy[1], dy[2 + r:2 + 2 * r], dy[3 + 2 * r]
        R_NN, R_UU, R_i = ricci_frame(
            f, df, ddf, l, dl, ddl, config.d, config.p, config.q,
            constants.A, constants.B)
        # Ric + Hess u - g in the unit frame
        assert np.abs(R_NN + ddu - 1.0).max() < 1e-12
        assert np.abs(R_UU + du * df / f - 1.0).max() < 1e-12
        assert np.abs(np.array(R_i) + du * dl / l - 1.0).max() < 1e-12


def _assert_derived_are_the_solvers(sol, seen, c):
    """The slope and gauge shift ``sol`` reads off u are, bit for bit (so
    that -0.0 is not 0.0), the solver's slope ``c`` and the shift that
    gauge normalization took off the raw u, 0.0 plus its weighted mean."""
    raw = seen["raw"].grid
    mean = (weighted_integral(raw, sol.config, raw.u)
            / weighted_integral(raw, sol.config, np.ones_like(raw.u)))
    assert sol.c_slope.hex() == float(c).hex()
    assert sol.gauge_shift.hex() == (0.0 + mean).hex()


# the grids the derived values are checked on, as (nodes, scheme)
_DERIVED_GRIDS = [(64, "chebyshev"), (512, "chebyshev"),
                  (1024, "chebyshev"), (256, "uniform")]


class TestDerivedFields:
    """c_slope = (u[-1] - u[0]) / 2 and gauge_shift = 0.0 - u[0] are what
    the solvers computed: the slope root, the Newton root's u0f / 2, and
    the normalizing shift."""

    @pytest.mark.parametrize("nodes, scheme", _DERIVED_GRIDS,
                             ids=[f"{s}{n}" for n, s in _DERIVED_GRIDS])
    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_momentum_and_warm_shooting(self, constants, name, nodes,
                                        scheme):
        cfg = _bundle(REFERENCE_CONFIGS[name]["factors"])
        mom, seen = solve_recorded(solver.solve_momentum, cfg, constants,
                                   nodes=nodes, scheme=scheme)
        c, = solver.find_slope_roots(cfg)
        _assert_derived_are_the_solvers(mom, seen, c)
        sho, seen = solve_recorded(solver.solve_shooting, cfg, constants,
                                   nodes=nodes, scheme=scheme, start=mom)
        *_, u0f, _ = solver._unpack(seen["root"], cfg.r)
        _assert_derived_are_the_solvers(sho, seen, u0f / 2.0)

    @pytest.mark.parametrize("recorded", ["kc_shooting_2048_recorded",
                                          "two_factor_shooting_recorded"])
    def test_cold_shooting(self, request, recorded):
        sol, seen = request.getfixturevalue(recorded)
        *_, u0f, _ = solver._unpack(seen["root"], sol.config.r)
        _assert_derived_are_the_solvers(sol, seen, u0f / 2.0)

    @given(factors=st.lists(st.tuples(st.sampled_from([2, 4, 6]),
                                      st.integers(1, 3),
                                      st.sampled_from([-1, 1]),
                                      st.floats(0.25, 3.0)),
                            min_size=1, max_size=3))
    @settings(max_examples=5, deadline=None)
    def test_momentum_on_admissible_bundles(self, constants, factors):
        # |q| < p and q != 0: p exceeds |q| by the drawn gap
        cfg = _bundle([(d, q + gap, sign * q) for d, q, sign, gap in factors])
        sol, seen = solve_recorded(solver.solve_momentum, cfg, constants,
                                   nodes=64)
        c, = solver.find_slope_roots(cfg)
        _assert_derived_are_the_solvers(sol, seen, c)


class TestReports:
    def test_report_serializes(self, kc_momentum):
        d = kc_momentum.to_dict()
        assert d["method"] == "momentum"
        assert "E_N" in d["residuals"]
        assert d["T"] > 0

    @pytest.mark.parametrize("method", ["bogus", "both", "Momentum"])
    def test_unknown_method_rejected(self, kc_momentum, method):
        with pytest.raises(ConfigError, match=f"unknown solution method "
                                              f"'{method}'"):
            replace(kc_momentum, method=method)

    def test_identity_suite_reads_the_residual_report(self, kc_momentum,
                                                      monkeypatch):
        # a fresh solution: the residuals, then the suite, build one report
        calls = []
        report = solver.residual_report

        def counted(sol):
            calls.append(1)
            return report(sol)

        monkeypatch.setattr(solver, "residual_report", counted)
        sol = replace(kc_momentum)
        residuals = sol.residuals
        suite = solver.identity_suite(sol)
        assert len(calls) == 1
        assert suite["hamilton_constancy"] == residuals.hamilton

    def test_identity_suite_keys(self, kc_momentum):
        suite = solver.identity_suite(kc_momentum)
        for key in ("delta_uu_plus_2u", "trace_R_plus_lap_u_minus_n",
                    "hamilton_constancy", "weighted_mean_u", "div_integral",
                    "kaehler"):
            assert suite[key] < 1e-8
