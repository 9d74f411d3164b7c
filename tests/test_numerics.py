"""krslab.numerics against the scipy routines it ports, bit for bit, and
the import guard that keeps scipy out of every ``krs`` process.

scipy is a test dependency only: it is the reference here and nowhere in
the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq as scipy_brentq

from krslab import geometry, grids, numerics, solver
from krslab.config import BaseFactor, BundleConfig

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = json.loads((ROOT / "perfbench" / "reference.json").read_text())[
    "configs"]
EPS = np.finfo(float).eps


def _bundle(factors):
    return BundleConfig(factors=tuple(
        BaseFactor(d=d, p=float(p), q=q) for d, p, q in factors))


def _same_trajectory(ours, ref, points):
    """Our dense output has solve_ivp's step points, states, and values at
    the points (read all at once and one by one), bit for bit."""
    assert ref.success
    assert np.array_equal(ours.ts, ref.t)
    assert np.array_equal(ours.ys.T, ref.y)
    assert np.array_equal(ours(points), ref.sol(points))
    for tk in points[::37]:
        assert np.array_equal(ours(tk), ref.sol(tk))


def _read_points(t):
    """300 equispaced points over the step points' span, plus every step
    point and every step midpoint."""
    return np.sort(np.concatenate([np.linspace(t[0], t[-1], 300), t,
                                   (t[:-1] + t[1:]) / 2.0]))


# ---------------------------------------------------------------------------
# DOP853


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def warm_branches(request, constants):
    """The near and far branch a warm-started shooting solve integrates:
    right-hand side, launch state and span of each."""
    config = _bundle(CONFIGS[request.param]["factors"])
    start = solver.solve_momentum(config, constants, nodes=512)
    x, t_mid = solver._warm_start(config, start)
    a, u2, af, u2f, _, T = solver._unpack(x, config.r)
    q = config.q
    rhs = solver._rhs(config, constants, q)
    near = solver._launch_coefficients(config, a, u2, constants, q)
    far = solver._launch_coefficients(config, af, u2f, constants, -q)
    return {"near": (rhs, solver._launch_state(near, solver._EPS), t_mid),
            "far": (rhs, solver._launch_state(far, solver._EPS), T - t_mid)}


@pytest.mark.parametrize("branch", ["near", "far"])
def test_dop853_is_solve_ivp_on_the_warm_branches(warm_branches, branch):
    rhs, y0, span = warm_branches[branch]
    ours = numerics.dop853(rhs, solver._EPS, span, y0, 1e-12, solver._ATOL)
    ref = solve_ivp(rhs, (solver._EPS, span), y0, method="DOP853",
                    rtol=1e-12, atol=solver._ATOL, dense_output=True)
    _same_trajectory(ours, ref, _read_points(ref.t))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_dop853_is_solve_ivp_on_the_cold_branches(name, constants):
    # the first matching call of the cold start: both branches of the
    # product Kahler-Einstein trial at the twists q/2, launched from sizes
    # sqrt(p_i) that do not fit them
    config = _bundle(CONFIGS[name]["factors"])
    x, t_mid = solver._default_guess(config)
    a, u2, af, u2f, _, T = solver._unpack(x, config.r)
    q = 0.5 * config.q
    rhs = solver._rhs(config, constants, q)
    for a, u2, q, span in ((a, u2, q, t_mid), (af, u2f, -q, T - t_mid)):
        y0 = solver._launch_state(
            solver._launch_coefficients(config, a, u2, constants, q),
            solver._EPS)
        ours = numerics.dop853(rhs, solver._EPS, span, y0, 1e-12,
                               solver._ATOL)
        ref = solve_ivp(rhs, (solver._EPS, span), y0, method="DOP853",
                        rtol=1e-12, atol=solver._ATOL, dense_output=True)
        _same_trajectory(ours, ref, _read_points(ref.t))


def _blow_up(t, y):
    return y * y


def test_failed_integration_keeps_its_message(kc_config, constants,
                                              monkeypatch):
    # y' = y^2, y(0) = 1 is 1/(1 - t): the steps shrink at t = 1 until
    # they fall below the spacing of the floats
    y0 = np.array([1.0])
    ref = solve_ivp(_blow_up, (0.0, 2.0), y0, method="DOP853", rtol=1e-10,
                    atol=1e-12, dense_output=True)
    assert ref.status == -1
    assert ref.t[-1] == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(numerics.IntegrationError) as err:
        numerics.dop853(_blow_up, 0.0, 2.0, y0, 1e-10, 1e-12)
    assert str(err.value) == ref.message == numerics.STEP_TOO_SMALL
    # a shooting branch on that flow fails with the integrator's message
    monkeypatch.setattr(solver, "_rhs", lambda *args: _blow_up)
    with pytest.raises(solver.SolverError, match=r"^branch integration "
                       r"failed: Required step size is less than spacing "
                       r"between numbers\.$"):
        solver._integrate_branch(kc_config, constants, np.array([1.0]), 0.0,
                                 2.0, 1e-12, kc_config.q)


def test_dop853_on_a_stiffening_oscillator():
    # away from krslab's system: a growing-frequency oscillator over many
    # steps, with rejected steps
    def rhs(t, y):
        return np.array([y[1], -(1.0 + t * t) * y[0]])

    y0 = np.array([1.0, 0.0])
    ours = numerics.dop853(rhs, 0.0, 12.0, y0, 1e-10, 1e-12)
    ref = solve_ivp(rhs, (0.0, 12.0), y0, method="DOP853", rtol=1e-10,
                    atol=1e-12, dense_output=True)
    _same_trajectory(ours, ref, _read_points(ref.t))


def test_attempted_steps_are_capped(kc_config, constants, monkeypatch):
    # the oscillator needs more attempts (accepted or rejected) than it
    # has steps; with the cap at that count it ends as solve_ivp does, one
    # lower it raises, naming how far it got
    calls = []

    def rhs(t, y):
        calls.append(t)
        return np.array([y[1], -(1.0 + t * t) * y[0]])

    y0 = np.array([1.0, 0.0])
    ref = numerics.dop853(rhs, 0.0, 12.0, y0, 1e-10, 1e-12)
    attempts = (len(calls) - 2) // 12  # f(t0) and the initial-step probe
    assert attempts > ref.ts.size - 1
    monkeypatch.setattr(numerics, "_MAX_ATTEMPTS", attempts)
    assert np.array_equal(
        numerics.dop853(rhs, 0.0, 12.0, y0, 1e-10, 1e-12).ys, ref.ys)
    monkeypatch.setattr(numerics, "_MAX_ATTEMPTS", attempts - 1)
    with pytest.raises(numerics.IntegrationError,
                       match=rf"^{attempts - 1} steps attempted, t reached "
                             rf"{ref.ts[-2]:.6g} of 12$"):
        numerics.dop853(rhs, 0.0, 12.0, y0, 1e-10, 1e-12)
    # a shooting branch that reaches the cap fails with its message
    monkeypatch.setattr(numerics, "_MAX_ATTEMPTS", 3)
    with pytest.raises(solver.SolverError, match=r"^branch integration "
                       r"failed: 3 steps attempted, t reached "):
        solver._integrate_branch(kc_config, constants, np.array([1.0]), 0.26,
                                 1.5, 1e-12, kc_config.q)


def test_dop853_on_a_constant_solution():
    # y' = 0: both derivative norms vanish, so the initial step takes its
    # 1e-6 floor, and every error norm is 0, so each step grows tenfold
    def rhs(t, y):
        return np.zeros_like(y)

    y0 = np.array([1.0, -2.0])
    ours = numerics.dop853(rhs, 0.0, 12.0, y0, 1e-10, 1e-12)
    ref = solve_ivp(rhs, (0.0, 12.0), y0, method="DOP853", rtol=1e-10,
                    atol=1e-12, dense_output=True)
    assert ref.t[1] == 1e-6 and ref.t.size == 10
    _same_trajectory(ours, ref, _read_points(ref.t))


# ---------------------------------------------------------------------------
# brentq


def _slope_bracket(config, monkeypatch):
    """The function and bracket ``find_slope_roots`` hands to brentq."""
    seen = []

    def record(F, a, b, xtol, rtol):
        seen.append((F, a, b, xtol, rtol))
        return numerics.brentq(F, a, b, xtol, rtol)

    monkeypatch.setattr(solver, "brentq", record)
    roots = solver.find_slope_roots(config)
    assert len(roots) == 1 and len(seen) == 1
    return seen[0]


def _same_brentq(F, a, b, xtol, rtol):
    """The same root from the same sequence of evaluation points."""
    def run(root_finder):
        xs = []

        def f(x):
            xs.append(x)
            return F(x)

        return root_finder(f), xs

    assert (run(lambda f: numerics.brentq(f, a, b, xtol, rtol))
            == run(lambda f: scipy_brentq(f, a, b, xtol=xtol, rtol=rtol)))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_brentq_on_the_reference_slope_brackets(name, monkeypatch):
    _same_brentq(*_slope_bracket(_bundle(CONFIGS[name]["factors"]),
                                 monkeypatch))


@given(factors=st.lists(st.tuples(st.sampled_from([2, 4, 6]),
                                  st.integers(1, 3), st.sampled_from([-1, 1]),
                                  st.floats(0.05, 3.0)),
                        min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_brentq_on_admissible_slope_brackets(factors):
    # |q| < p: p exceeds |q| by the drawn gap
    config = _bundle([(d, abs(q) * k + gap, q * k)
                      for d, k, q, gap in factors])
    with pytest.MonkeyPatch.context() as mp:
        _same_brentq(*_slope_bracket(config, mp))


def test_brentq_on_cubics_and_its_errors():
    rng = np.random.default_rng(7)
    for _ in range(300):
        c = rng.normal(size=4)

        def g(x):
            return ((c[0] * x + c[1]) * x + c[2]) * x + c[3]

        a, b = np.sort(rng.uniform(-3.0, 3.0, 2))
        if (g(a) > 0) != (g(b) > 0):
            _same_brentq(g, float(a), float(b), 1e-15, 8.9e-16)
            _same_brentq(g, float(a), float(b), 4 * EPS, 4 * EPS)
    for fn in (numerics.brentq,
               lambda *a: scipy_brentq(*a[:3], xtol=a[3], rtol=a[4])):
        with pytest.raises(ValueError, match="must have different signs"):
            fn(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12, 4 * EPS)
        # a jump at 0 is bisected towards 0 with a shrinking tolerance
        with pytest.raises(RuntimeError, match=r"^Failed to converge after "
                           r"100 iterations"):
            fn(lambda x: -1.0 if x < 0 else 1.0, -1.0, 2.0, 1e-300, 4 * EPS)


def test_brentq_on_an_exact_end_root_and_a_nan():
    # f(b) = 0 at the start returns b with no iteration
    _same_brentq(lambda x: x - 2.0, 0.0, 2.0, 1e-12, 4 * EPS)
    # a NaN at an end, or at the first iterate (the secant point 1), is a
    # ValueError naming the point
    for f, a, b in ((lambda x: np.nan, 0.1, 2.5),
                    (lambda x: np.nan if 0.5 < x < 2.9 else x - 1.0, 0.0,
                     3.0)):
        errors = []
        for fn in (numerics.brentq, lambda *args: scipy_brentq(
                *args[:3], xtol=args[3], rtol=args[4])):
            with pytest.raises(ValueError, match="is NaN") as err:
                fn(f, a, b, 1e-12, 4 * EPS)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
    assert errors[0] == ("The function value at x=1.0 is NaN; solver cannot "
                         "continue.")


# ---------------------------------------------------------------------------
# cubic Hermite interpolation and the DCT-I


@pytest.mark.parametrize("seed", range(5))
def test_cubic_hermite_is_the_scipy_spline(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    x = np.cumsum(rng.uniform(0.01, 1.0, n))
    y, dydx = rng.normal(size=n), rng.normal(size=n)
    xq = np.concatenate([rng.uniform(x[0] - 1.0, x[-1] + 1.0, 500), x])
    assert np.array_equal(numerics.cubic_hermite(x, y, dydx, xq),
                          CubicHermiteSpline(x, y, dydx)(xq))


def test_cubic_hermite_on_the_momentum_inverse(kc_config, constants,
                                               monkeypatch):
    # the fit of xi(t) that starts the momentum route's Newton inversion
    seen = []

    def record(x, y, dydx, xq):
        seen.append((x, y, dydx, xq))
        return numerics.cubic_hermite(x, y, dydx, xq)

    monkeypatch.setattr(solver, "cubic_hermite", record)
    for scheme in ("chebyshev", "uniform"):
        solver.solve_momentum(kc_config, constants, nodes=1024, scheme=scheme)
    assert len(seen) == 2
    for x, y, dydx, xq in seen:
        assert np.array_equal(numerics.cubic_hermite(x, y, dydx, xq),
                              CubicHermiteSpline(x, y, dydx)(xq))


def test_dct1_is_scipy_dct_type_1():
    # on the Clenshaw-Curtis moments and on random data, n + 1 entries
    for n in [*range(1, 300), *(2 ** k for k in range(9, 14))]:
        c = np.zeros(n + 1)
        c[::2] = 2.0 / (1.0 - np.arange(0, n + 1, 2) ** 2)
        assert np.array_equal(numerics.dct1(c), scipy.fft.dct(c, type=1)), n
        c = np.random.default_rng(n).normal(size=n + 1)
        assert np.array_equal(numerics.dct1(c), scipy.fft.dct(c, type=1)), n
    # one entry has no DCT-I: scipy raises a RuntimeError
    with pytest.raises(ValueError, match="at least 2 entries"):
        numerics.dct1(np.ones(1))


# ---------------------------------------------------------------------------
# no scipy at run time


def test_krs_imports_no_scipy():
    code = ("import sys, krslab.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH",
                                                               "")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# batched reads: the dense output and the stacked rows


def test_dense_output_builds_every_step_on_its_first_read():
    # the stiffening oscillator with a right-hand side that records the
    # shape of the states it is handed
    shapes = []

    def rhs(t, y):
        shapes.append(np.shape(y))
        return np.array([y[1], -(1.0 + t * t) * y[0]])

    y0 = np.array([1.0, 0.0])
    ours = numerics.dop853(rhs, 0.0, 12.0, y0, 1e-10, 1e-12)
    fresh = numerics.dop853(rhs, 0.0, 12.0, y0, 1e-10, 1e-12)
    mid = (ours.ts[:-1] + ours.ts[1:]) / 2.0
    steps = mid.size
    assert steps > 20
    # a read on steps 3-9 builds every step: three calls of one column
    # per step, then none on later reads
    shapes.clear()
    first = ours(mid[3:10])
    assert shapes == [(2, steps)] * 3
    assert np.array_equal(ours(mid[3:10:2]), first[:, ::2])
    assert np.array_equal(ours(mid[5]), first[:, 2])
    ours(mid)
    assert shapes == [(2, steps)] * 3
    # every point read in two calls has the bits it gets in one
    points = _read_points(ours.ts)
    assert np.array_equal(
        np.hstack([ours(points[::2]), ours(points[1::2])]),
        fresh(np.concatenate([points[::2], points[1::2]])))


@pytest.fixture(scope="module")
def reference_momentum(constants):
    return {name: solver.solve_momentum(_bundle(c["factors"]), constants,
                                        nodes=512)
            for name, c in CONFIGS.items()}


def test_stacked_rows_have_the_bits_of_single_rows(reference_momentum):
    # one least-squares fit per end for a stack of Ricci rows, and one
    # spline call for a stack of profiles, give each row its own bits
    for name, sol in reference_momentum.items():
        g, config = sol.grid, sol.config
        R_NN, R_UU, R_i = geometry.ricci_frame(
            g.f[1:-1], g.df[1:-1], g.ddf[1:-1], g.l[:, 1:-1], g.dl[:, 1:-1],
            g.ddl[:, 1:-1], config.d, config.p, config.q, sol.constants.A,
            sol.constants.B)
        rows = np.array([R_NN, R_UU, *R_i])
        assert np.array_equal(grids.fill_even(g.t, rows),
                              [grids.fill_even(g.t, row) for row in rows]), \
            name
        y = np.vstack([g.f, g.u, g.l])
        dydx = np.vstack([g.df, g.du, g.dl])
        xq = np.sort(np.concatenate([g.t, (g.t[:-1] + g.t[1:]) / 2.0]))
        assert np.array_equal(
            numerics.cubic_hermite(g.t, y, dydx, xq),
            [numerics.cubic_hermite(g.t, yk, dk, xq)
             for yk, dk in zip(y, dydx)]), name


def test_warm_shooting_solve_imports_no_numpy_ma():
    code = ("import sys\n"
            "from krslab import solver\n"
            "from krslab.config import koiso_cao\n"
            "from krslab.oracle import pin_constants\n"
            "c, kc = pin_constants(seed=0), koiso_cao()\n"
            "start = solver.solve_momentum(kc, c, nodes=64)\n"
            "solver.solve_shooting(kc, c, nodes=64, start=start)\n"
            "print('numpy.ma' in sys.modules)\n")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH",
                                                               "")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout.strip() == "False"
