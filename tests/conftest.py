import importlib
import pkgutil

import numpy as np
import pytest

import krslab
from krslab.config import BaseFactor, BundleConfig, koiso_cao
from krslab.oracle import pin_constants
from krslab import geometry, solver


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
def kc_shooting_2048(kc_config, constants):
    return solver.solve_shooting(kc_config, constants, nodes=2048)


@pytest.fixture(scope="session")
def two_factor_momentum(two_factor_config, constants):
    return solver.solve_momentum(two_factor_config, constants, nodes=512)


@pytest.fixture(scope="session")
def two_factor_shooting(two_factor_config, constants):
    return solver.solve_shooting(two_factor_config, constants, nodes=512)


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
