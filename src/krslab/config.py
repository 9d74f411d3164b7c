"""Discrete data of the circle-bundle ansatz and run configuration."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Invalid bundle or run configuration."""


@dataclass(frozen=True)
class BaseFactor:
    """One Einstein factor of the base: real dimension d (even), Einstein
    constant p > 0, bundle twist q != 0, and the squared norm kappa >= 0 of a
    harmonic complex-structure deformation carried by the factor (0 if rigid).
    """

    d: int
    p: float
    q: int
    kappa: float = 0.0

    def __post_init__(self):
        if self.d < 2 or self.d % 2 != 0:
            raise ConfigError(f"factor dimension must be even and >= 2, got {self.d}")
        if self.p <= 0:
            raise ConfigError(f"Einstein constant must be positive, got {self.p}")
        if self.q == 0:
            raise ConfigError("twist must be a nonzero integer")
        if self.kappa < 0:
            raise ConfigError(f"deformation norm must be >= 0, got {self.kappa}")


@dataclass(frozen=True)
class BundleConfig:
    """Ordered list of base factors; total real dimension n = 2 + sum(d_i).

    tau is fixed at 1/2 (normalized shrinker, soliton constant 1).
    """

    factors: tuple[BaseFactor, ...]
    tau: float = 0.5

    def __post_init__(self):
        if not self.factors:
            raise ConfigError("need at least one base factor")
        if self.tau != 0.5:
            raise ConfigError("only the normalized soliton (tau = 1/2) is supported")

    @property
    def r(self) -> int:
        return len(self.factors)

    @property
    def n(self) -> int:
        return 2 + sum(f.d for f in self.factors)

    @property
    def d(self):
        import numpy as np

        return np.array([f.d for f in self.factors], dtype=float)

    @property
    def p(self):
        import numpy as np

        return np.array([f.p for f in self.factors], dtype=float)

    @property
    def q(self):
        import numpy as np

        return np.array([f.q for f in self.factors], dtype=float)

    @property
    def kappa(self):
        import numpy as np

        return np.array([f.kappa for f in self.factors], dtype=float)

    def to_dict(self) -> dict:
        return {
            "factors": [
                {"dim": f.d, "einstein_constant": f.p, "twist": f.q,
                 "deformation_norm2": f.kappa}
                for f in self.factors
            ],
            "n": self.n,
            "tau": self.tau,
        }


def koiso_cao() -> BundleConfig:
    """The one-factor d=2, p=2, q=1 configuration (non-Einstein shrinker on
    the one-point blow-up of the projective plane)."""
    return BundleConfig(factors=(BaseFactor(d=2, p=2.0, q=1),))


@dataclass(frozen=True)
class Tolerances:
    ode: float = 1e-12
    residual: float = 1e-8
    identity: float = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Parsed JSON run configuration for the CLI."""

    bundle: BundleConfig
    nodes: int = 1024
    scheme: str = "chebyshev"
    method: str = "both"
    tolerances: Tolerances = field(default_factory=Tolerances)
    stability_profiles: tuple = ()
    prefactor: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.nodes < 64:
            raise ConfigError("nodes must be >= 64")
        if self.scheme not in ("chebyshev", "uniform"):
            raise ConfigError(f"unknown grid scheme {self.scheme!r}")
        if self.method not in ("momentum", "shooting", "both"):
            raise ConfigError(f"unknown method {self.method!r}")
        for v in (self.tolerances.ode, self.tolerances.residual,
                  self.tolerances.identity):
            if v <= 0:
                raise ConfigError("tolerances must be positive")


def load_run_config(path: str) -> RunConfig:
    with open(path) as fh:
        raw = json.load(fh)
    try:
        factors = tuple(
            BaseFactor(
                d=int(f["dim"]),
                p=float(f["einstein_constant"]),
                q=int(f["twist"]),
                kappa=float(f.get("deformation_norm2", 0.0)),
            )
            for f in raw["factors"]
        )
        bundle = BundleConfig(factors=factors)
        grid = raw.get("grid", {})
        tol = raw.get("tolerances", {})
        stab = raw.get("stability", {})
        return RunConfig(
            bundle=bundle,
            nodes=int(grid.get("nodes", 1024)),
            scheme=grid.get("scheme", "chebyshev"),
            method=raw.get("method", "both"),
            tolerances=Tolerances(
                ode=float(tol.get("ode", 1e-12)),
                residual=float(tol.get("residual", 1e-8)),
                identity=float(tol.get("identity", 1e-6)),
            ),
            stability_profiles=tuple(
                tuple(sorted(p.items())) for p in stab.get("profiles", [])
            ),
            prefactor=float(stab.get("prefactor", 2.0)),
            seed=int(raw.get("seed", 0)),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed run config {path}: {exc}") from exc
