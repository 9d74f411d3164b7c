"""Discrete data of the circle-bundle ansatz and run configuration."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class ConfigError(ValueError):
    """Invalid bundle or run configuration."""


_REQUIRED = object()
# the JSON values each built-in kind of get_field takes, and their name
_JSON_KINDS = {int: ((int, float), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string"),
               dict: ((dict,), "an object"), list: ((list,), "an array")}

# grid schemes by name; grids.Scheme.of_kind builds them
SCHEME_KINDS = ("chebyshev", "uniform")
# the two solver routes; a run config's method "both" runs them in this order
SOLUTION_METHODS = ("momentum", "shooting")
# stability profiles by name, in the default family's order; a run config
# names them as {"kind": ...} objects, and stability.family builds them
PROFILE_KINDS = ("constant", "u_plus", "u_minus", "abs_u")
# the second-variation integral is 2 * int u psi e^{-u} dV
STABILITY_PREFACTOR = 2.0
# the normalized shrinker (soliton constant 1): Ric + Hess u = g / (2 tau)
TAU = 0.5
# the least relative tolerance of the shooting integrator (numerics.dop853,
# whose floor it was in scipy): below it the step control asks for local
# errors at the level of the rounding in the stage sums
ODE_RTOL_FLOOR = 100 * np.finfo(float).eps
# an integer field above this in magnitude has no float value
_FLOAT_MAX = float(np.finfo(float).max)


def read_json(path: str) -> dict:
    """Parsed JSON file; an unreadable or invalid file is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def get_field(raw: dict, key: str, kind, default=_REQUIRED):
    """raw[key] as ``kind``, or ``default`` when the key is absent and a
    default is given; a missing or malformed value is a ConfigError.  A
    built-in ``kind`` checks the exact type json.load gives, converting no
    other: ``int`` and ``float`` take a number, not a boolean (``int`` 2.0,
    not 2.9), ``str``, ``dict`` and ``list`` a string, object and array.
    Any other ``kind`` converts, and a failed conversion is malformed too."""
    if not isinstance(raw, dict):
        raise ConfigError(f"expected an object holding {key!r}, got {raw!r}")
    if key not in raw:
        if default is _REQUIRED:
            raise ConfigError(f"missing field {key!r}")
        return default
    value = raw[key]
    if kind in _JSON_KINDS:
        types, name = _JSON_KINDS[kind]
        if type(value) not in types or (kind is int and type(value) is float
                                        and not value.is_integer()):
            raise ConfigError(f"malformed field {key!r}: expected {name}, "
                              f"got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"malformed field {key!r}: {exc}") from exc


def check_keys(raw: dict, known: tuple) -> dict:
    """raw, checked to be an object with no key outside ``known``: a
    misspelt key is a ConfigError that names it, not an ignored option."""
    if not isinstance(raw, dict):
        raise ConfigError(f"expected an object, got {raw!r}")
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(f"unknown field {', '.join(map(repr, unknown))}")
    return raw


@dataclass(frozen=True)
class BaseFactor:
    """One Einstein factor of the base: real dimension d (even), finite
    Einstein constant p > 0, bundle twist q != 0, and the finite squared norm
    kappa >= 0 of a harmonic complex-structure deformation on the factor (0
    if rigid).
    """

    d: int
    p: float
    q: int
    kappa: float = 0.0

    def to_dict(self) -> dict:
        return {"dim": self.d, "einstein_constant": self.p, "twist": self.q,
                "deformation_norm2": self.kappa}

    @staticmethod
    def from_dict(raw: dict) -> "BaseFactor":
        check_keys(raw, ("dim", "einstein_constant", "twist",
                         "deformation_norm2"))
        return BaseFactor(
            d=get_field(raw, "dim", int),
            p=get_field(raw, "einstein_constant", float),
            q=get_field(raw, "twist", int),
            kappa=get_field(raw, "deformation_norm2", float, 0.0),
        )

    def __post_init__(self):
        for name, value in (("dim", self.d), ("twist", self.q)):
            if abs(value) > _FLOAT_MAX:
                raise ConfigError(f"factor {name!r} exceeds the largest "
                                  f"float, {_FLOAT_MAX!r}, in magnitude")
        if self.d < 2 or self.d % 2 != 0:
            raise ConfigError(f"factor dimension must be even and >= 2, got {self.d}")
        if not 0 < self.p < np.inf:
            raise ConfigError(f"Einstein constant must be positive and "
                              f"finite, got {self.p}")
        if self.q == 0:
            raise ConfigError("twist must be a nonzero integer")
        if not 0 <= self.kappa < np.inf:
            raise ConfigError(f"deformation norm must be finite and >= 0, "
                              f"got {self.kappa}")


@dataclass(frozen=True)
class BundleConfig:
    """Ordered list of base factors; total real dimension n = 2 + sum(d_i).

    tau is fixed at TAU = 1/2 (normalized shrinker, soliton constant 1).

    Each factor is solved and evaluated in its own frame, its base metric
    rescaled to Einstein constant p_i / 4^k_i, k_i >= 0 the least integer
    for which that is <= 4 (``frame``): (p, q, l) -> (p / 4^k, q / 4^k,
    l / 2^k) fixes the soliton and is exact in floating point.  ``p`` and
    ``q`` hold the framed values, a solution's l_i, dl_i, ddl_i are
    measured in the frame, and the factors and the codec keep the given
    values.
    """

    factors: tuple[BaseFactor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ConfigError("need at least one base factor")

    @property
    def r(self) -> int:
        return len(self.factors)

    @property
    def n(self) -> int:
        return 2 + sum(f.d for f in self.factors)

    def _column(self, attr: str, exponent) -> np.ndarray:
        col = np.ldexp(np.array([getattr(f, attr) for f in self.factors],
                                dtype=float), exponent)
        col.flags.writeable = False
        return col

    @cached_property
    def frame(self) -> np.ndarray:
        """k_i, the least integer >= 0 with p_i <= 4^(k_i + 1), exactly:
        for p_i = m 2^e (m in [1/2, 1)), p_i <= 2^E for E = e - [m = 1/2]."""
        m, e = np.frexp(self._column("p", 0))
        return np.maximum(0, (e - (m == 0.5) - 1) // 2)

    # per-factor data as read-only float arrays, in factor order, built on
    # first use; p and q in each factor's frame
    d = cached_property(lambda self: self._column("d", 0))
    p = cached_property(lambda self: self._column("p", -2 * self.frame))
    q = cached_property(lambda self: self._column("q", -2 * self.frame))
    kappa = cached_property(lambda self: self._column("kappa", 0))

    def to_dict(self) -> dict:
        return {"factors": [f.to_dict() for f in self.factors],
                "n": self.n, "tau": TAU}

    @staticmethod
    def from_dict(raw: dict) -> "BundleConfig":
        """Inverse of ``to_dict``; ``n``, when given, must be the derived
        2 + sum(d_i), and ``tau``, when given, must be TAU."""
        check_keys(raw, ("factors", "n", "tau"))
        factors = get_field(raw, "factors", list)
        config = BundleConfig(
            factors=tuple(BaseFactor.from_dict(f) for f in factors))
        n = get_field(raw, "n", int, config.n)
        if n != config.n:
            raise ConfigError(f"n = {n} disagrees with the factors, whose "
                              f"dimensions give n = {config.n}")
        if get_field(raw, "tau", float, TAU) != TAU:
            raise ConfigError(
                "only the normalized soliton (tau = 1/2) is supported")
        return config


def koiso_cao() -> BundleConfig:
    """The one-factor d=2, p=2, q=1 configuration (non-Einstein shrinker on
    the one-point blow-up of the projective plane)."""
    return BundleConfig(factors=(BaseFactor(d=2, p=2.0, q=1),))


@dataclass(frozen=True)
class Tolerances:
    """ODE, residual and identity tolerances; each must be positive and
    finite, and the ODE tolerance at least ODE_RTOL_FLOOR (100 eps), the
    least the integrator's step control can meet."""

    ode: float = 1e-12
    residual: float = 1e-8
    identity: float = 1e-6

    def __post_init__(self):
        for name in ("ode", "residual", "identity"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ConfigError(f"tolerances.{name} must be positive and "
                                  f"finite, got {value!r}")
        if self.ode < ODE_RTOL_FLOOR:
            raise ConfigError(f"tolerances.ode must be at least "
                              f"{ODE_RTOL_FLOOR:.7g} (100 eps, the ODE "
                              f"integrator's floor), got {self.ode!r}")


@dataclass(frozen=True)
class RunConfig:
    """Parsed JSON run configuration for the CLI; ``stability_profiles``
    names the kinds of the stability table, from PROFILE_KINDS, in order
    (empty: one of each)."""

    bundle: BundleConfig
    nodes: int = 1024
    scheme: str = "chebyshev"
    method: str = "both"
    tolerances: Tolerances = field(default_factory=Tolerances)
    stability_profiles: tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.nodes < 64:
            raise ConfigError("nodes must be >= 64")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.scheme not in SCHEME_KINDS:
            raise ConfigError(f"unknown grid scheme {self.scheme!r}")
        if self.method not in (*SOLUTION_METHODS, "both"):
            raise ConfigError(f"unknown method {self.method!r}")
        for kind in self.stability_profiles:
            if kind not in PROFILE_KINDS:
                raise ConfigError(f"unknown stability profile kind {kind!r}")


# a run config's own keys; its other keys belong to its bundle
_RUN_KEYS = ("grid", "method", "tolerances", "stability", "seed")


def load_run_config(path: str) -> RunConfig:
    raw = read_json(path)
    grid = check_keys(get_field(raw, "grid", dict, {}), ("nodes", "scheme"))
    tol = check_keys(get_field(raw, "tolerances", dict, {}),
                     ("ode", "residual", "identity"))
    stab = check_keys(get_field(raw, "stability", dict, {}),
                      ("profiles", "prefactor"))
    if get_field(stab, "prefactor", float,
                 STABILITY_PREFACTOR) != STABILITY_PREFACTOR:
        raise ConfigError(
            f"the stability prefactor is fixed at {STABILITY_PREFACTOR}")
    return RunConfig(
        bundle=BundleConfig.from_dict(
            {k: v for k, v in raw.items() if k not in _RUN_KEYS}),
        nodes=get_field(grid, "nodes", int, RunConfig.nodes),
        scheme=get_field(grid, "scheme", str, RunConfig.scheme),
        method=get_field(raw, "method", str, RunConfig.method),
        tolerances=Tolerances(
            ode=get_field(tol, "ode", float, Tolerances.ode),
            residual=get_field(tol, "residual", float, Tolerances.residual),
            identity=get_field(tol, "identity", float, Tolerances.identity),
        ),
        stability_profiles=tuple(
            get_field(check_keys(profile, ("kind",)), "kind", str)
            for profile in get_field(stab, "profiles", list, [])),
        seed=get_field(raw, "seed", int, RunConfig.seed),
    )
