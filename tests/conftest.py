import importlib
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import krslab
from krslab.config import BaseFactor, BundleConfig, koiso_cao
from krslab.oracle import pin_constants
from krslab import geometry, solver

# the perfbench crosscheck bundles, by name: {"factors": [[d, p, q], ...]}
REFERENCE_CONFIGS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench"
     / "reference.json").read_text())["configs"]


def solve_recorded(solve, *args, **kwargs):
    """``solve(*args, **kwargs)`` and a dict of what its solver computed
    before normalizing: ``"raw"``, the solution ``gauge_normalize`` was
    handed, and on the shooting route ``"root"``, the Newton root
    ``_sample`` was handed."""
    seen = {}
    normalize, sample = solver.gauge_normalize, solver._sample

    def record_normalize(sol):
        seen["raw"] = sol
        return normalize(sol)

    def record_sample(config, constants, x, *rest):
        seen["root"] = x
        return sample(config, constants, x, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "gauge_normalize", record_normalize)
        mp.setattr(solver, "_sample", record_sample)
        sol = solve(*args, **kwargs)
    return sol, seen


@pytest.fixture(scope="session")
def constants():
    return pin_constants(seed=0)


@pytest.fixture(scope="session")
def kc_config():
    return koiso_cao()


@pytest.fixture(scope="session")
def two_factor_config():
    return BundleConfig(factors=(BaseFactor(d=2, p=2.0, q=1),
                                 BaseFactor(d=2, p=2.0, q=1)))


@pytest.fixture(scope="session")
def kc_momentum(kc_config, constants):
    """Medium-resolution normalized momentum solution (module tests)."""
    return solver.solve_momentum(kc_config, constants, nodes=512)


@pytest.fixture(scope="session")
def kc_momentum_2048(kc_config, constants):
    return solver.solve_momentum(kc_config, constants, nodes=2048)


@pytest.fixture(scope="session")
def kc_shooting_2048_recorded(kc_config, constants):
    """Cold shooting at N = 2048 and its ``solve_recorded`` record."""
    return solve_recorded(solver.solve_shooting, kc_config, constants,
                          nodes=2048)


@pytest.fixture(scope="session")
def kc_shooting_2048(kc_shooting_2048_recorded):
    return kc_shooting_2048_recorded[0]


@pytest.fixture(scope="session")
def two_factor_momentum(two_factor_config, constants):
    return solver.solve_momentum(two_factor_config, constants, nodes=512)


@pytest.fixture(scope="session")
def two_factor_shooting_recorded(two_factor_config, constants):
    """Cold shooting at N = 512 and its ``solve_recorded`` record."""
    return solve_recorded(solver.solve_shooting, two_factor_config,
                          constants, nodes=512)


@pytest.fixture(scope="session")
def two_factor_shooting(two_factor_shooting_recorded):
    return two_factor_shooting_recorded[0]


@pytest.fixture(scope="session")
def reference_solutions(constants):
    """Momentum and warm shooting at N = 512 on each perfbench reference
    config, and Koiso-Cao on the uniform scheme, by label."""
    def bundle(factors):
        return BundleConfig(factors=tuple(
            BaseFactor(d=d, p=float(p), q=q) for d, p, q in factors))

    sols = {}
    for name, raw in sorted(REFERENCE_CONFIGS.items()):
        cfg = bundle(raw["factors"])
        mom = solver.solve_momentum(cfg, constants, nodes=512)
        sols[f"{name}/momentum"] = mom
        sols[f"{name}/shooting"] = solver.solve_shooting(
            cfg, constants, nodes=512, start=mom)
    sols["kc/uniform"] = solver.solve_momentum(
        koiso_cao(), constants, nodes=256, scheme="uniform")
    return sols


@pytest.fixture(scope="session")
def kc_spurious_root():
    """A shooting trial vector (near a_1, u2; far a_1, u2, u-offset; T) that
    zeroes the continuity defect of the kc matching but not its Kahler rows,
    so it is not the soliton.  Newton without those rows, from 1.1 (or 0.9)
    times the kc warm-start vector, converged to it, |res| ~ 1e-15;
    T = 3.2652 instead of 3.1982 and the Kahler residual is near 1.04 (most
    likely the Page metric seen through the Kahler launch series)."""
    return np.array([1.3108705933023035, 0.20900597324778578,
                     1.310812536797047, -0.37297402534783647,
                     -8.079204859601818e-05, 3.265186135505004])


@pytest.fixture
def spurious_newton(monkeypatch, kc_spurious_root):
    """Make shooting's Newton return kc_spurious_root, with the branches of
    its matching call, from any start: the root then reaches the sampling
    and its Kahler gate."""
    def newton(config, constants, x, t_mid, rtol, q):
        _, branches = solver._match_residual(
            config, constants, kc_spurious_root, t_mid, rtol, q, None, None)
        return kc_spurious_root, branches

    monkeypatch.setattr(solver, "_newton", newton)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def ricci_calls(monkeypatch):
    """List that grows by one per Ricci evaluation: ``ricci_components`` is
    wrapped in every krslab module that binds it."""
    calls = []
    original = geometry.ricci_components

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for info in pkgutil.iter_modules(krslab.__path__):
        mod = importlib.import_module(f"krslab.{info.name}")
        if getattr(mod, "ricci_components", None) is original:
            monkeypatch.setattr(mod, "ricci_components", counted)
    return calls


@pytest.fixture
def report_calls(monkeypatch):
    """List that grows by one per residual report: ``residual_report`` is
    wrapped where ``SolitonSolution.residuals`` calls it."""
    calls = []
    original = solver.residual_report

    def counted(sol):
        calls.append(1)
        return original(sol)

    monkeypatch.setattr(solver, "residual_report", counted)
    return calls
