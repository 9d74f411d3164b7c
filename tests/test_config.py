import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from krslab.cli import main
from krslab.config import (
    TAU,
    BaseFactor,
    BundleConfig,
    ConfigError,
    RunConfig,
    Tolerances,
    koiso_cao,
    load_run_config,
)
from krslab.geometry import PinnedConstants
from krslab.oracle import pin_constants


class TestBaseFactor:
    def test_valid_factor(self):
        f = BaseFactor(d=2, p=2.0, q=1, kappa=1.0)
        assert f.d == 2

    @pytest.mark.parametrize("kwargs", [
        dict(d=3, p=2.0, q=1),      # odd dimension
        dict(d=0, p=2.0, q=1),      # too small
        dict(d=2, p=0.0, q=1),      # non-positive Einstein constant
        dict(d=2, p=2.0, q=0),      # zero twist
        dict(d=2, p=2.0, q=1, kappa=-1.0),
    ])
    def test_invalid_factor_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            BaseFactor(**kwargs)


class TestBundleConfig:
    def test_koiso_cao_shape(self):
        cfg = koiso_cao()
        assert cfg.r == 1
        assert cfg.n == 4
        assert cfg.to_dict()["tau"] == TAU == 0.5
        assert list(cfg.d) == [2.0]
        assert list(cfg.p) == [2.0]
        assert list(cfg.q) == [1.0]

    # the least k >= 0 with p / 4^k <= 4, at and beside the binade edges,
    # up to the largest float (whose framed q is the least normal float)
    @pytest.mark.parametrize("p, k", [
        (1.5, 0), (4.0, 0), (np.nextafter(4.0, 5.0), 1), (16.0, 1),
        (np.nextafter(16.0, 17.0), 2), (2e4, 7), (1e300, 498),
        (np.finfo(float).max, 511),
    ])
    def test_frame_is_the_least_power_of_4(self, p, k):
        cfg = BundleConfig(factors=(BaseFactor(2, float(p), 1),
                                    BaseFactor(4, 3.0, 2)))
        assert cfg.frame.tolist() == [k, 0]
        assert cfg.p.tolist() == [p / 4.0 ** k, 3.0]
        assert cfg.q.tolist() == [1.0 / 4.0 ** k, 2.0]
        assert 1.0 < cfg.p[0] <= 4.0 and cfg.q[0] >= np.finfo(float).tiny
        # the codec keeps the given values
        assert cfg.to_dict()["factors"][0]["einstein_constant"] == p

    def test_two_factor_dimension(self):
        cfg = BundleConfig(factors=(BaseFactor(2, 2.0, 1),
                                    BaseFactor(4, 3.0, 2)))
        assert cfg.n == 8

    def test_empty_and_bad_tau_rejected(self):
        with pytest.raises(ConfigError):
            BundleConfig(factors=())
        with pytest.raises(ConfigError, match=r"tau = 1/2"):
            BundleConfig.from_dict({**koiso_cao().to_dict(), "tau": 1.0})

    def test_wrong_dimension_rejected(self, tmp_path):
        # n is derived from the factors; a run config that states another
        # one describes a different bundle
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**koiso_cao().to_dict(), "n": 99}))
        with pytest.raises(ConfigError, match=r"n = 99 .* n = 4"):
            load_run_config(str(path))
        assert BundleConfig.from_dict(
            {**koiso_cao().to_dict(), "n": 4}) == koiso_cao()

    def test_round_trip_dict(self):
        cfg = koiso_cao()
        d = cfg.to_dict()
        assert d["factors"][0]["twist"] == 1
        assert d["n"] == 4

    def test_from_dict_inverts_to_dict(self):
        cfg = BundleConfig(factors=(BaseFactor(2, 2.0, 1, kappa=0.5),
                                    BaseFactor(4, 3.0, -2)))
        assert BundleConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) \
            == cfg


    def test_columns_are_built_once_and_read_only(self):
        cfg = BundleConfig(factors=(BaseFactor(2, 2.0, 1, kappa=0.5),
                                    BaseFactor(4, 3.0, -2)))
        for name in ("d", "p", "q", "kappa"):
            col = getattr(cfg, name)
            assert getattr(cfg, name) is col
            assert col.tobytes() == np.array(
                [getattr(f, name) for f in cfg.factors], dtype=float).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 7.0


class TestTolerances:
    @pytest.mark.parametrize("name", ["ode", "residual", "identity"])
    @pytest.mark.parametrize("value", [0.0, -1e-9, float("nan")])
    def test_nonpositive_rejected(self, name, value):
        # the one line names the field and the value
        with pytest.raises(ConfigError, match=rf"^tolerances\.{name} must "
                           rf"be positive and finite, got "
                           rf"{re.escape(repr(value))}$"):
            Tolerances(**{name: value})

    @pytest.mark.parametrize("value", [1e-15, 2.2e-14, float("inf")])
    def test_ode_outside_the_integrators_range_rejected(self, value):
        # below 100 eps DOP853's step control would chase the rounding of
        # its own stage sums, and an infinite tolerance is no tolerance
        rule = ("positive and finite" if value == np.inf else
                r"at least 2\.220446e-14 \(100 eps, the ODE integrator's "
                r"floor\)")
        with pytest.raises(ConfigError, match=rf"^tolerances\.ode must be "
                           rf"{rule}, got {re.escape(repr(value))}$"):
            Tolerances(ode=value)

    def test_ode_at_the_floor_accepted(self):
        floor = 100 * np.finfo(float).eps
        assert Tolerances(ode=floor).ode == floor


class TestRunConfig:
    def test_load_full_config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "factors": [{"dim": 2, "einstein_constant": 2.0, "twist": 1}],
            "grid": {"nodes": 256, "scheme": "uniform"},
            "method": "momentum",
            "tolerances": {"residual": 1e-9},
            "seed": 3,
        }))
        run = load_run_config(str(path))
        assert run.nodes == 256
        assert run.scheme == "uniform"
        assert run.method == "momentum"
        assert run.tolerances.residual == 1e-9
        assert run.seed == 3

    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "factors": [{"dim": 2, "einstein_constant": 2.0, "twist": 1}],
        }))
        run = load_run_config(str(path))
        assert run.nodes == 1024
        assert run.method == "both"
        # every default is the record's own
        assert run == RunConfig(bundle=koiso_cao())

    def test_stability_specs_parsed(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "factors": [{"dim": 2, "einstein_constant": 2.0, "twist": 1}],
            "stability": {"profiles": [{"kind": "abs_u"},
                                       {"kind": "constant"}],
                          "prefactor": 2.0},
        }))
        run = load_run_config(str(path))
        assert run.stability_profiles == ("abs_u", "constant")

    @pytest.mark.parametrize("patch", [
        {"grid": {"nodes": 16}},
        {"grid": {"scheme": "legendre"}},
        {"method": "collocation"},
        {"tolerances": {"residual": -1.0}},
        {"factors": [{"dim": 2, "einstein_constant": 2.0, "twist": 0}]},
        {"factors": [{"dim": "two", "einstein_constant": 2.0, "twist": 1}]},
        {"factors": [{"dim": 2, "twist": 1}]},
        {"factors": [7]},
        {"grid": {"nodes": "lots"}},
        {"grid": 5},
        {"tolerances": {"ode": None}},
        {"stability": {"profiles": [3]}},
        {"seed": "zero"},
        # a profile is its kind: the constant one takes the bundle's
        # deformation norms, and "kappas" is an unknown field
        {"stability": {"profiles": [{"kind": "constant", "kappas": "x"}]}},
        {"stability": {"profiles": [{"kind": "constant", "kappas": [-1.0]}]}},
        {"stability": {"profiles": [{"kind": "constant",
                                     "kappas": [1.0, 2.0]}]}},
        {"stability": {"prefactor": -0.5}},
        {"stability": {"profiles": [{"kind": "u_plus", "kappas": [1.0]}]}},
        # numbers that int() or float() would truncate or convert
        {"factors": [{"dim": 2.9, "einstein_constant": 2.0, "twist": 1}]},
        {"factors": [{"dim": 2, "einstein_constant": 2.0, "twist": 1.7}]},
        {"factors": [{"dim": 2, "einstein_constant": 2.0, "twist": 1,
                      "deformation_norm2": True}]},
        {"factors": [{"dim": 2, "einstein_constant": True, "twist": 1}]},
        {"grid": {"nodes": 100.8}},
        {"seed": 3.5},
        {"seed": False},
        {"tolerances": {"ode": True}},
        {"stability": {"profiles": [{"kind": "constant", "kappas": [True]}]}},
    ])
    def test_invalid_configs_rejected(self, tmp_path, patch):
        base = {"factors": [{"dim": 2, "einstein_constant": 2.0, "twist": 1}]}
        base.update(patch)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(base))
        with pytest.raises(ConfigError):
            load_run_config(str(path))

    def test_integral_numbers_load_and_fractions_are_named(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "factors": [{"dim": 2.0, "einstein_constant": 2, "twist": -1.0}],
            "grid": {"nodes": 128.0}, "seed": 3.0}))
        run = load_run_config(str(path))
        assert (run.bundle.factors[0].d, run.bundle.factors[0].q) == (2, -1)
        assert (run.nodes, run.seed) == (128, 3)
        path.write_text(json.dumps({
            "factors": [{"dim": 2, "einstein_constant": 2.0, "twist": 1}],
            "grid": {"nodes": 100.8}}))
        with pytest.raises(ConfigError, match="'nodes'.*100.8"):
            load_run_config(str(path))

    @pytest.mark.parametrize("patch, named", [
        ({"grdi": {"nodes": 64}}, "'grdi'"),
        ({"grid": {"nodes": 64, "shceme": "uniform"}}, "'shceme'"),
        ({"tolerances": {"residuals": 1e-9}}, "'residuals'"),
        ({"stability": {"profiles": [{"kind": "constant",
                                      "kapas": [5.0]}]}}, "'kapas'"),
        ({"stability": {"prefactors": 2.0}}, "'prefactors'"),
        ({"factors": [{"dim": 2, "einstein_constant": 2.0, "twist": 1,
                       "kappa": 1.0}]}, "'kappa'"),
    ])
    def test_unknown_keys_rejected_by_name(self, tmp_path, patch, named):
        base = {"factors": [{"dim": 2, "einstein_constant": 2.0, "twist": 1}]}
        base.update(patch)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(base))
        with pytest.raises(ConfigError, match=named):
            load_run_config(str(path))

    def test_every_written_key_loads(self, tmp_path, monkeypatch):
        # the shipped config, the benchmark's run config (with its explicit
        # prefactor) for each reference bundle, whose Einstein constants
        # are JSON ints, the constants krs pin-constants writes, and a
        # bundle's own to_dict keys (n, tau)
        root = Path(__file__).resolve().parents[1]
        assert load_run_config(str(root / "configs" / "koiso_cao.json"))
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", root / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        path = tmp_path / "bench.json"
        workloads.write_run_config(str(path), [(2, 2.0, 1), (4, 3.0, -1)],
                                   512, "both")
        assert load_run_config(str(path)).bundle.r == 2
        reference = json.loads(
            (root / "perfbench" / "reference.json").read_text())["configs"]
        assert len(reference) == 12
        for case in reference.values():
            workloads.write_run_config(str(path), case["factors"], 512,
                                       "both")
            factors = json.loads(path.read_text())["factors"]
            assert all(type(f["einstein_constant"]) is int for f in factors)
            bundle = load_run_config(str(path)).bundle
            assert [(f.d, f.p, f.q) for f in bundle.factors] == [
                tuple(f) for f in case["factors"]]
        assert main(["pin-constants", "--out", str(path)]) == 0
        assert PinnedConstants.load(str(path)) == pin_constants()
        raw = {**koiso_cao().to_dict(), "grid": {"nodes": 64}}
        path.write_text(json.dumps(raw))
        assert load_run_config(str(path)).bundle == koiso_cao()

    @pytest.mark.parametrize("text", ["", "{not json", "[1, 2]"])
    def test_unreadable_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_run_config(str(path))
        with pytest.raises(ConfigError):
            load_run_config(str(tmp_path / "missing.json"))

    def test_missing_factors_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ConfigError):
            load_run_config(str(path))
