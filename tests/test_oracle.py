import numpy as np
import pytest

from krslab import oracle
from krslab.geometry import ricci_frame
from krslab.oracle import (
    CANDIDATES,
    LocalState,
    OracleError,
    oracle_ricci,
    pin_constants,
    random_state,
)


# a chart point x = (t, psi, theta, phi) with theta clear of the poles
POINT = np.array([0.0, 0.3, 1.4, 0.7])


@pytest.fixture
def tight_tol(monkeypatch):
    monkeypatch.setattr(oracle, "FD_TOL", 1e-8)


@pytest.fixture(scope="module")
def round_state():
    # static fiber over the round base: f, l constant
    return LocalState(f=0.6, df=0.0, ddf=0.0, l=1.2, dl=0.0, ddl=0.0, q=1)


class TestOracleRicci:
    def test_converges_below_tolerance(self, round_state):
        vals, err = oracle_ricci(round_state, POINT)
        assert err < 1e-7
        assert vals.shape == (3,)

    def test_static_state_closed_form(self, round_state, tight_tol):
        # with all profile derivatives zero the components reduce to pure
        # fiber-curvature terms: R_NN = 0, R_UU = A f^2 d q^2 / l^4,
        # R_H = p/l^2 - B q^2 f^2 / l^4 with (A, B) = (1/4, 1/2)
        vals, _ = oracle_ricci(round_state, POINT)
        f, l = round_state.f, round_state.l
        assert vals[0] == pytest.approx(0.0, abs=1e-8)
        assert vals[1] == pytest.approx(0.25 * f**2 * 2.0 / l**4, abs=1e-8)
        assert vals[2] == pytest.approx(2.0 / l**2 - 0.5 * f**2 / l**4,
                                        abs=1e-8)

    def test_agrees_with_formula_at_generic_state(self, tight_tol):
        rng = np.random.default_rng(5)
        state = random_state(rng)
        vals, err = oracle_ricci(state, POINT)
        R_NN, R_UU, R_i = ricci_frame(
            state.f, state.df, state.ddf, [state.l], [state.dl], [state.ddl],
            [2.0], [2.0], [state.q], 0.25, 0.5)
        assert np.abs(np.array([R_NN, R_UU, R_i[0]]) - vals).max() < 1e-7

    def test_chart_point_independence(self, round_state, tight_tol):
        # the components are scalars: they cannot depend on where in the
        # chart the finite differences are centered
        x2 = np.array([0.0, 2.1, 1.9, 4.0])
        v1, _ = oracle_ricci(round_state, POINT)
        v2, _ = oracle_ricci(round_state, x2)
        assert np.abs(v1 - v2).max() < 1e-7

    def test_degenerate_state_rejected(self):
        with pytest.raises(ValueError):
            LocalState(f=0.0, df=0.0, ddf=0.0, l=1.0, dl=0.0, ddl=0.0, q=1)

    @pytest.mark.parametrize("theta", [0.1, np.pi - 0.2])
    def test_pole_guard(self, round_state, theta):
        with pytest.raises(ValueError, match="^coordinate point inside the "
                           "pole guard band$"):
            oracle.coordinate_metric(round_state,
                                     np.array([0.0, 0.3, theta, 0.7]))

    def test_coarse_step_raises(self, round_state, monkeypatch):
        monkeypatch.setattr(oracle, "ROMBERG_LEVELS", 1)
        monkeypatch.setattr(oracle, "FD_STEP", 0.3)
        monkeypatch.setattr(oracle, "FD_TOL", 1e-12)
        with pytest.raises(OracleError):
            oracle_ricci(round_state, POINT)


class TestPinConstants:
    def test_selects_quarter_and_half(self):
        pc = pin_constants(seed=0)
        assert (pc.A, pc.B) == (0.25, 0.5)
        assert pc.max_rel_err < 1e-6

    def test_rerun_stable(self):
        a = pin_constants(seed=0)
        b = pin_constants(seed=0)
        assert (a.A, a.B, a.max_rel_err) == (b.A, b.B, b.max_rel_err)

    def test_seed_independence_of_winner(self, monkeypatch):
        monkeypatch.setattr(oracle, "SAMPLES", 10)
        pc = pin_constants(seed=42)
        assert (pc.A, pc.B) == (0.25, 0.5)

    def test_wrong_candidates_rejected(self, monkeypatch):
        # without the true pair in the grid no candidate survives the gate
        monkeypatch.setattr(oracle, "CANDIDATES",
                            tuple(c for c in CANDIDATES if c != 0.25))
        monkeypatch.setattr(oracle, "SAMPLES", 5)
        with pytest.raises(OracleError):
            pin_constants(seed=0)

    def test_repeated_candidate_is_not_unique(self, monkeypatch):
        # a repeated 1/2 scores the true pair twice: best and runner-up tie
        monkeypatch.setattr(oracle, "CANDIDATES", (0.25, 0.5, 0.5))
        monkeypatch.setattr(oracle, "SAMPLES", 5)
        with pytest.raises(OracleError,
                           match="^candidate selection not unique$"):
            pin_constants(seed=0)

    def test_scores_the_geometry_formula(self, monkeypatch):
        # pinning scores the formula every solution evaluates: with the sign
        # of the Einstein term p/l^2 flipped in it, no candidate pair passes
        def flipped(f, df, ddf, l, dl, ddl, d, p, q, A, B):
            return ricci_frame(f, df, ddf, l, dl, ddl, d,
                               [-pi for pi in p], q, A, B)

        monkeypatch.setattr(oracle, "ricci_frame", flipped)
        with pytest.raises(OracleError, match="no candidate pair"):
            pin_constants(seed=0)
