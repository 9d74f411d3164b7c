import json
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from krslab import solver
from krslab.config import BaseFactor, BundleConfig, ConfigError, koiso_cao
from krslab.geometry import (
    CANDIDATES,
    GeometryError,
    PinnedConstants,
    ProfileGrid,
    hessian_components,
    kaehler_residual,
    log_weight_slope,
    ricci_components,
    ricci_frame,
    volume_weight,
    weighted_integral,
    weighted_laplacian,
)
from krslab.grids import cheb_lobatto


@pytest.fixture(scope="module")
def kc():
    return koiso_cao()


class TestPinnedConstants:
    def test_unpinned_rejected(self):
        # an unpinned value cannot be made, by construction or by loading
        for err in (float("nan"), 1e-3):
            with pytest.raises(GeometryError, match="not pinned"):
                PinnedConstants(A=0.25, B=0.5, max_rel_err=err, samples=20)
            raw = {"A": "1/4", "B": "1/2", "max_rel_err": err, "samples": 20}
            with pytest.raises(GeometryError, match="not pinned"):
                PinnedConstants.from_dict(raw)

    @pytest.mark.parametrize("field, value", [("max_rel_err", -1.0),
                                              ("samples", 0),
                                              ("samples", -5)])
    def test_negative_error_and_no_samples_rejected(self, field, value):
        # a negative error or a sample count below 1 cannot be made either,
        # by construction or by loading, and the error names the field
        good = {"A": 0.25, "B": 0.5, "max_rel_err": 0.0, "samples": 20}
        with pytest.raises(GeometryError, match=f"^{field} "):
            PinnedConstants(**{**good, field: value})
        raw = {**PinnedConstants(**good).to_dict(), field: value}
        with pytest.raises(GeometryError, match=f"^{field} "):
            PinnedConstants.from_dict(raw)

    def test_round_trip_file(self, tmp_path, constants):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(constants.to_dict()))
        loaded = PinnedConstants.load(str(path))
        assert (loaded.A, loaded.B) == (constants.A, constants.B)

    def test_from_dict_inverts_to_dict(self, constants):
        raw = json.loads(json.dumps(constants.to_dict()))
        assert PinnedConstants.from_dict(raw) == constants

    def test_every_candidate_pair_round_trips(self):
        for A, B in product(CANDIDATES, CANDIDATES):
            pc = PinnedConstants(A=A, B=B, max_rel_err=0.0, samples=20)
            back = PinnedConstants.from_dict(json.loads(json.dumps(
                pc.to_dict())))
            assert (back.A, back.B) == (A, B)
        written = PinnedConstants(0.25, 0.5, 0.0, 20).to_dict()
        assert (written["A"], written["B"]) == ("1/4", "1/2")
        # a JSON number reads too, exactly
        assert PinnedConstants.from_dict({**written, "A": 0.25}).A == 0.25

    # True is no number, though Fraction(True) is the candidate 1
    @pytest.mark.parametrize("patch", [{"B": None}, {"A": "quarter"},
                                       {"samples": "many"}, {"A": True}])
    def test_malformed_fields_rejected(self, constants, patch):
        raw = {**constants.to_dict(), **patch}
        raw = {k: v for k, v in raw.items() if v is not None}
        with pytest.raises(ConfigError):
            PinnedConstants.from_dict(raw)

    def test_unknown_key_rejected_by_name(self, constants):
        with pytest.raises(ConfigError, match="'max_rel_error'"):
            PinnedConstants.from_dict({**constants.to_dict(),
                                       "max_rel_error": 0.0})


def _zero_at_middle(a):
    a = a.copy()
    a[..., a.shape[-1] // 2] = 0.0
    return a


class TestProfileInvariants:
    def test_momentum_solution_validates(self, kc_momentum,
                                         two_factor_shooting):
        # a solved grid rebuilt from its own fields passes the checks
        for g in (kc_momentum.grid, two_factor_shooting.grid):
            assert replace(g).f is g.f

    def test_corrupt_collapse_detected(self, kc_momentum):
        g = kc_momentum.grid
        with pytest.raises(GeometryError, match="collapse/evenness"):
            replace(g, f=g.f + 0.1)

    @pytest.mark.parametrize("field, corrupt", [
        ("f", _zero_at_middle),      # the Ricci formula divides by f inside
        ("f", lambda f: -f),
        ("df", lambda df: 1.1 * df),
        ("l", _zero_at_middle),
        ("dl", lambda dl: dl + 1e-3),
        ("du", lambda du: du + 1e-3),
    ], ids=["f_interior_zero", "f_negative", "df_end", "l_zero", "dl_end",
            "du_end"])
    def test_each_invariant_checked_on_construction(self, kc_momentum,
                                                    field, corrupt):
        g = kc_momentum.grid
        with pytest.raises(GeometryError, match="collapse/evenness"):
            replace(g, **{field: corrupt(getattr(g, field))})

    def test_kaehler_residual_zero_on_solution(self, kc_momentum, kc):
        res = kaehler_residual(kc_momentum.grid, kc)
        assert np.abs(res).max() < 1e-12

    def test_kaehler_residual_detects_detuned_profile(self, kc_momentum, kc):
        g = kc_momentum.grid
        bad = replace(g, l=g.l * 1.01)
        assert np.abs(kaehler_residual(bad, kc)).max() > 1e-3


class TestRicci:
    def test_soliton_equation_satisfied(self, kc_momentum, kc, constants):
        # Ric + Hess u = g on the solved profiles, all frame directions
        g = kc_momentum.grid
        ric = ricci_components(g, kc, constants)
        H_NN, H_UU, H_i = hessian_components(g)
        assert np.abs(ric.R_NN + H_NN - 1.0).max() < 1e-10
        assert np.abs(ric.R_UU + H_UU - 1.0).max() < 1e-10
        assert np.abs(ric.R_i + H_i - 1.0).max() < 1e-10

    def test_scalar_curvature_trace(self, kc_momentum, kc, constants):
        g = kc_momentum.grid
        ric = ricci_components(g, kc, constants)
        trace = ric.R_NN + ric.R_UU + (kc.d[:, None] * ric.R_i).sum(axis=0)
        assert np.abs(ric.R - trace).max() == 0.0

    def test_endpoint_values_finite_and_even(self, kc_momentum, kc,
                                             constants):
        g = kc_momentum.grid
        ric = ricci_components(g, kc, constants)
        for comp in (ric.R_NN, ric.R_UU, ric.R):
            assert np.all(np.isfinite(comp))
            # endpoint filled by even extrapolation must match neighbors
            assert abs(comp[0] - comp[1]) < 0.05 * max(1.0, abs(comp[1]))

    def test_factor_mismatch_rejected(self, two_factor_momentum, kc,
                                      constants):
        # a solution pairs a grid with its config; a mismatched pair cannot
        # be made, so no Ricci evaluation ever sees one
        with pytest.raises(ConfigError, match="grid has 2 factor profiles, "
                                              "config has 1"):
            solver.SolitonSolution(
                grid=two_factor_momentum.grid, config=kc, constants=constants,
                method="momentum")

    def test_factor_components_equal_the_per_factor_loop(self, constants):
        # reference: the formula on Python floats, one interior node at a
        # time; the vectorized components must be bit-equal to it
        cfg = BundleConfig(factors=(BaseFactor(2, 2.0, 1), BaseFactor(4, 3.0, 1),
                                    BaseFactor(2, 3.0, -1)))
        g = solver.solve_momentum(cfg, constants, nodes=128).grid
        ric = ricci_components(g, cfg, constants)
        d, p, q = cfg.d.tolist(), cfg.p.tolist(), cfg.q.tolist()
        for k in range(1, g.t.size - 1):
            R_NN, R_UU, R_i = ricci_frame(
                float(g.f[k]), float(g.df[k]), float(g.ddf[k]),
                g.l[:, k].tolist(), g.dl[:, k].tolist(),
                g.ddl[:, k].tolist(), d, p, q, constants.A, constants.B)
            got = np.array([ric.R_NN[k], ric.R_UU[k], *ric.R_i[:, k]])
            ref = np.array([R_NN, R_UU, *R_i])
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))


class TestWeightedCalculus:
    def test_volume_weight_vanishes_at_collapse(self, kc_momentum, kc):
        w = volume_weight(kc_momentum.grid, kc)
        assert w[0] == 0.0 and w[-1] == 0.0
        assert np.all(w[1:-1] > 0)

    def test_weighted_integral_linear(self, kc_momentum, kc):
        g = kc_momentum.grid
        a = weighted_integral(g, kc, g.u)
        b = weighted_integral(g, kc, np.ones_like(g.u))
        combo = weighted_integral(g, kc, 2.0 * g.u + 3.0)
        assert combo == pytest.approx(2.0 * a + 3.0 * b, rel=1e-12)

    @pytest.mark.parametrize("which", ["momentum", "shooting", "uniform",
                                       "gauge_shifted"])
    def test_cached_measure_is_the_direct_product(self, kc_momentum,
                                                  two_factor_shooting,
                                                  constants, which):
        if which == "shooting":
            sol = two_factor_shooting
        elif which == "uniform":
            sol = solver.solve_momentum(koiso_cao(), constants, nodes=256,
                                        scheme="uniform")
        elif which == "momentum":
            sol = kc_momentum
        else:
            # the unshifted grid's measure is cached first; the shifted
            # solution is a new grid and must not reuse it
            g = kc_momentum.grid
            raw = replace(kc_momentum, grid=replace(g, u=g.u + 0.3))
            weighted_integral(raw.grid, raw.config, raw.grid.u)
            sol = solver.gauge_normalize(raw)
            assert sol.grid is not raw.grid
        g, cfg = sol.grid, sol.config
        for F in (np.ones_like(g.u), g.u, np.cos(g.t)):
            direct = g.scheme.integrate(
                F * volume_weight(g, cfg) * np.exp(-g.u))
            for _ in range(2):  # cold, then from the cache
                assert weighted_integral(g, cfg, F) == direct

    def test_profiles_are_read_only(self, kc_momentum, kc):
        g = kc_momentum.grid
        for name in ("f", "df", "ddf", "l", "dl", "ddl", "u", "du", "ddu"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(g, name)[..., 1] = 0.0
        # a grid read from a table owns copies: writing the table later
        # reaches neither the profiles nor the cached measure
        table = g.table()
        read = ProfileGrid.from_table(g.scheme, table, kc.r)
        mass = weighted_integral(read, kc, np.ones_like(read.u))
        table[1:] *= 2.0
        assert np.array_equal(read.f, g.f) and np.array_equal(read.u, g.u)
        assert weighted_integral(read, kc, np.ones_like(read.u)) == mass

    def test_drift_laplacian_self_adjoint(self, kc_momentum, kc):
        # int (Delta_u v) w e^{-u} = - int v' w' ... = int v (Delta_u w)
        g = kc_momentum.grid
        _, D = cheb_lobatto(g.t.size - 1, g.T)
        t, T = g.t, g.T
        v = np.cos(np.pi * t / T)
        w = np.cos(2.0 * np.pi * t / T)
        lv = weighted_laplacian(g, kc, v, D @ v, D @ (D @ v))
        lw = weighted_laplacian(g, kc, w, D @ w, D @ (D @ w))
        lhs = weighted_integral(g, kc, lv * w)
        rhs = weighted_integral(g, kc, v * lw)
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_drift_laplacian_kills_constants(self, kc_momentum, kc):
        g = kc_momentum.grid
        z = np.zeros_like(g.u)
        const = np.full_like(g.u, 3.7)
        assert np.abs(weighted_laplacian(g, kc, const, z, z)).max() == 0.0

    def test_log_weight_slope_interior_formula(self, kc_momentum, kc):
        g = kc_momentum.grid
        lw = log_weight_slope(g, kc)
        k = g.t.size // 2
        expected = (g.df[k] / g.f[k]
                    + (kc.d * g.dl[:, k] / g.l[:, k]).sum())
        assert lw[k] == pytest.approx(expected, rel=1e-13)
