import io
import json
import os
import pickle
import shutil
import stat
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from krslab import cli, oracle, solver
from krslab.config import BaseFactor, BundleConfig, ConfigError
from krslab.cli import (_atomic_file, _write_atomic, main, read_solution,
                        write_solution)
from krslab.geometry import profile_csv_header

CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                      "koiso_cao.json")


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full pin -> solve run shared by the read-back tests."""
    root = tmp_path_factory.mktemp("cli")
    constants = str(root / "constants.json")
    out = str(root / "out")
    assert run("pin-constants", "--out", constants) == 0
    config = str(root / "run.json")
    with open(CONFIG) as fh:
        raw = json.load(fh)
    raw["grid"]["nodes"] = 256
    with open(config, "w") as fh:
        json.dump(raw, fh)
    assert run("solve", "--config", config, "--constants", constants,
               "--out", out) == 0
    return {"root": root, "constants": constants, "out": out,
            "config": config}


def _edit_json(path, edit):
    with open(path) as fh:
        raw = json.load(fh)
    edit(raw)
    with open(path, "w") as fh:
        json.dump(raw, fh)


def _momentum_config(pipeline, tmp_path, **changes):
    """Copy of the pipeline config with method momentum, then `changes`."""
    path = str(tmp_path / "momentum.json")
    shutil.copy(pipeline["config"], path)
    _edit_json(path, lambda raw: raw.update({"method": "momentum", **changes}))
    return path


class TestPinConstants:
    def test_writes_valid_json(self, tmp_path):
        out = str(tmp_path / "c.json")
        assert run("pin-constants", "--out", out) == 0
        data = json.loads(open(out).read())
        assert data["A"] == "1/4" and data["B"] == "1/2"
        assert data["max_rel_err"] < 1e-6

    def test_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run("pin-constants", "--out", a, "--seed", "1")
        run("pin-constants", "--out", b, "--seed", "1")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_coarse_step_exits_2_with_diagnostics(self, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setattr(oracle, "FD_STEP", 0.3)
        monkeypatch.setattr(oracle, "FD_TOL", 1e-12)
        out = str(tmp_path / "c.json")
        assert run("pin-constants", "--out", out) == 2
        assert "error" in json.loads(open(out).read())
        err = capsys.readouterr().err
        assert err.startswith("oracle failure: ") and err.count("\n") == 1


class TestSolve:
    def test_outputs_present_and_schema_valid(self, pipeline):
        out = pipeline["out"]
        for method in ("momentum", "shooting"):
            meta = json.loads(
                open(os.path.join(out, f"solution_{method}.json")).read())
            assert meta["method"] == method
            assert meta["residuals"]["cross_method"] < 1e-6
            # one row per column of the plotting CSV's header
            header = profile_csv_header(1)
            assert header == "t,f,df,ddf,l1,dl1,ddl1,u,du,ddu"
            table = np.load(os.path.join(out, f"profile_{method}.npy"))
            assert table.shape == (len(header.split(",")), 257)

    @pytest.mark.parametrize("method", ["both", "shooting"])
    def test_solve_writes_only_the_table_and_the_metadata(
            self, pipeline, tmp_path, method):
        cfg = _momentum_config(pipeline, tmp_path, method=method)
        out = tmp_path / "o"
        assert run("solve", "--config", cfg, "--constants",
                   pipeline["constants"], "--out", str(out)) == 0
        methods = ("momentum", "shooting") if method == "both" else (method,)
        assert sorted(os.listdir(out)) == sorted(
            name for m in methods
            for name in (f"solution_{m}.json", f"profile_{m}.npy"))

    def test_invalid_twist_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "factors": [{"dim": 2, "einstein_constant": 2.0, "twist": 0}],
        }))
        assert run("solve", "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 1

    def test_inadmissible_geometry_exits_3(self, tmp_path, pipeline):
        cfg = tmp_path / "deg.json"
        cfg.write_text(json.dumps({
            "factors": [{"dim": 2, "einstein_constant": 1.0, "twist": 1}],
            "method": "momentum",
        }))
        out = str(tmp_path / "o")
        assert run("solve", "--config", str(cfg), "--constants",
                   pipeline["constants"], "--out", out) == 3
        diag = json.loads(open(os.path.join(out, "diagnostics.json")).read())
        assert "error" in diag

    def test_inadmissible_bundle_rejected_before_shooting(
            self, tmp_path, pipeline, monkeypatch):
        # l^2 = 2 s - 1 is negative at the near end: the cold start exits 3
        # with the momentum route's reason, before it integrates anything
        def no_start(config):
            raise AssertionError("an inadmissible bundle reached the start")

        monkeypatch.setattr(solver, "_default_guess", no_start)
        out = tmp_path / "o"
        assert _solve_factors(pipeline, out, [[2, 1.0, 2]], "shooting") == 3
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"].startswith("factor size l_i^2 = q_i s + p_i - "
                                        "q_i is not positive on [0, 2]")

    # Each base is solved in its frame, where every state is of order 1:
    # none of these solves may warn, and each exits 0.

    def _solve_quietly(self, pipeline, out, factors, method):
        """_solve_factors with every warning an error: the exit code and
        the solution metadata of each method that was written."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = _solve_factors(pipeline, out, factors, method)
        return code, {m: json.loads((out / f"solution_{m}.json").read_text())
                      for m in ("momentum", "shooting")
                      if (out / f"solution_{m}.json").is_file()}

    def test_scaled_koiso_cao_meets_the_residual_tolerance(self, pipeline,
                                                           tmp_path):
        # kc x 1e4, framed at k = 7: the Kahler residual (l^2)' - q f is
        # read in the frame, relative to the base's scale (2.0e-12 on the
        # shooting solution), not scaled with q
        code, metas = self._solve_quietly(pipeline, tmp_path / "o",
                                          [[2, 2e4, 10000]], "both")
        assert code == 0
        for meta in metas.values():
            assert meta["residuals"]["kaehler"] <= 1e-11
            assert meta["c_slope"] == pytest.approx(0.5276195198969628,
                                                    abs=1e-12)

    @pytest.mark.parametrize("method", ["momentum", "shooting", "both"])
    def test_huge_base_solves_by_every_method(self, pipeline, tmp_path,
                                              method):
        # (2, 1e300, 1), framed at k = 498: in the frame the launch data
        # are of order 1 and the twist is 4^-498 of the base, so every
        # route finds the product Kahler-Einstein metric to rounding
        code, metas = self._solve_quietly(pipeline, tmp_path / "o",
                                          [[2, 1e300, 1]], method)
        assert code == 0
        assert set(metas) == ({"momentum", "shooting"} if method == "both"
                              else {method})
        for meta in metas.values():
            assert meta["c_slope"] == 0.0
            assert abs(meta["T"] - np.pi) <= 2e-15

    @pytest.mark.parametrize("factor", [[4, 1e200, 1], [6, 1e120, 1]],
                             ids=["cp2", "cp3"])
    def test_huge_base_solves_by_momentum(self, pipeline, tmp_path, factor):
        # the momentum weight (q s + p - q)^{d/2} is of order 1 in the
        # frame, so the slope search finds the root c = 0
        code, metas = self._solve_quietly(pipeline, tmp_path / "o",
                                          [factor], "momentum")
        assert code == 0
        assert metas["momentum"]["c_slope"] == 0.0

    def test_oracle_failure_exits_2(self, pipeline, tmp_path, monkeypatch,
                                    capsys):
        # without --constants the solve pins them itself: a failure there
        # is the oracle's exit code and one line, as for pin-constants
        monkeypatch.setattr(oracle, "FD_STEP", 0.3)
        monkeypatch.setattr(oracle, "FD_TOL", 1e-12)
        capsys.readouterr()
        assert run("solve", "--config", pipeline["config"],
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("oracle failure: Richardson stalled")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_round_trip_read_back(self, pipeline):
        sol = read_solution(pipeline["out"], "momentum")
        assert sol.residuals.max_equation_residual() < 1e-10

    def test_deterministic_solve(self, pipeline, tmp_path):
        out2 = str(tmp_path / "out2")
        assert run("solve", "--config", pipeline["config"], "--constants",
                   pipeline["constants"], "--out", out2) == 0
        for name in ("profile_momentum.npy", "solution_momentum.json"):
            a = open(os.path.join(pipeline["out"], name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b

    def test_ode_tolerance_reaches_shooting(self, pipeline, tmp_path,
                                            monkeypatch):
        # and the start: the momentum solution for method both, none (the
        # cold start) for method shooting
        seen = {}

        def fake_shooting(*args, **kwargs):
            seen.update(kwargs)
            raise solver.SolverError("stopped by the test")

        monkeypatch.setattr(solver, "solve_shooting", fake_shooting)
        for method in ("shooting", "both"):
            seen.clear()
            cfg = _momentum_config(pipeline, tmp_path, method=method,
                                   tolerances={"ode": 3e-11})
            assert run("solve", "--config", cfg, "--constants",
                       pipeline["constants"],
                       "--out", str(tmp_path / "o")) == 3
            assert seen["rtol"] == 3e-11
            start = seen["start"]
            if method == "shooting":
                assert start is None
            else:
                assert start.method == "momentum" and start.grid.t.size == 257

    # the configs that are hardest for a cold start (see TestColdShooting)
    @pytest.mark.parametrize("factors", [
        [[2, 2, -1]], [[2, 2, 1], [2, 2, -1]], [[2, 3, 2]], [[4, 3, 2]],
        [[6, 4, 1]], [[2, 2, 1], [2, 2, 1], [2, 2, 1]],
    ], ids=["kc_mirror", "s2xs2_opp", "s2_p3_q2", "cp2_q2", "cp3_q1",
            "three_s2"])
    def test_both_methods_agree(self, factors, pipeline, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "factors": [{"dim": d, "einstein_constant": p, "twist": q}
                        for d, p, q in factors],
            "grid": {"nodes": 512}, "method": "both",
        }))
        out = tmp_path / "o"
        assert run("solve", "--config", str(cfg), "--constants",
                   pipeline["constants"], "--out", str(out)) == 0
        mom, sho = (json.loads((out / f"solution_{m}.json").read_text())
                    for m in ("momentum", "shooting"))
        assert abs(sho["c_slope"] - mom["c_slope"]) < 1e-9
        assert abs(sho["T"] - mom["T"]) < 1e-9
        assert sho["residuals"]["cross_method"] <= 1e-9

    def test_non_kaehler_root_exits_3(self, pipeline, tmp_path,
                                      spurious_newton):
        # a Newton that lands on a non-Kahler root: the rejection at
        # sampling names it and reaches diagnostics.json
        out = tmp_path / "o"
        assert run("solve", "--config", pipeline["config"], "--constants",
                   pipeline["constants"], "--out", str(out)) == 3
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"].startswith("non-Kahler root: T=3.265")

    def test_unpinned_constants_exit_4(self, pipeline, tmp_path, capsys):
        # the constants file fails on load: one line, no traceback
        constants = str(tmp_path / "constants.json")
        shutil.copy(pipeline["constants"], constants)
        _edit_json(constants, lambda raw: raw.update(max_rel_err=1e-3))
        capsys.readouterr()
        assert run("solve", "--config", pipeline["config"], "--constants",
                   constants, "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert err.startswith("solve failed: GeometryError: ")
        assert "not pinned" in err and "Traceback" not in err
        assert err.count("\n") == 1

    def test_array_too_large_exits_4(self, pipeline, tmp_path, capsys,
                                     monkeypatch):
        # a node count whose grid has no room (2^40 nodes asks for TiBs)
        # fails as a precondition does: one line, no traceback; raised
        # here, not allocated
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB for an array")

        monkeypatch.setattr(solver, "solve_momentum", too_large)
        capsys.readouterr()
        assert run("solve", "--config", _momentum_config(pipeline, tmp_path),
                   "--constants", pipeline["constants"],
                   "--out", str(tmp_path / "o")) == 4
        assert capsys.readouterr().err == (
            "solve failed: MemoryError: Unable to allocate 8.00 TiB for an "
            "array\n")

    @pytest.mark.parametrize("field, value", [("max_rel_err", -1.0),
                                              ("samples", 0)])
    def test_out_of_range_constants_exit_4(self, pipeline, tmp_path, capsys,
                                           field, value):
        # a negative error or no samples fails the load as an unpinned
        # error does: one line that names the field
        constants = str(tmp_path / "constants.json")
        shutil.copy(pipeline["constants"], constants)
        _edit_json(constants, lambda raw: raw.update({field: value}))
        capsys.readouterr()
        assert run("solve", "--config", pipeline["config"], "--constants",
                   constants, "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"solve failed: GeometryError: {field} ")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_residual_above_tolerance_exits_4_after_writing(self, pipeline,
                                                            tmp_path):
        cfg = _momentum_config(pipeline, tmp_path, method="both",
                               tolerances={"residual": 1e-20})
        out = tmp_path / "o"
        assert run("solve", "--config", cfg, "--constants",
                   pipeline["constants"], "--out", str(out)) == 4
        for method in ("momentum", "shooting"):
            assert (out / f"solution_{method}.json").is_file()
            assert (out / f"profile_{method}.npy").is_file()

    def test_cross_method_disagreement_exits_4(self, pipeline, tmp_path,
                                               monkeypatch):
        monkeypatch.setattr(solver, "cross_method_disagreement",
                            lambda a, b: 1e-6)
        out = tmp_path / "o"
        assert run("solve", "--config", pipeline["config"], "--constants",
                   pipeline["constants"], "--out", str(out)) == 4
        meta = json.loads((out / "solution_shooting.json").read_text())
        assert meta["residuals"]["cross_method"] == 1e-6

    def test_no_slope_root_exits_3(self, pipeline, tmp_path):
        # admissible, but phi(2; c) = 0 has no root with |c| <= 256
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "factors": [{"dim": 600, "einstein_constant": 1.05,
                         "twist": -1}],
            "grid": {"nodes": 64}, "method": "both",
        }))
        out = tmp_path / "o"
        assert run("solve", "--config", str(cfg), "--constants",
                   pipeline["constants"], "--out", str(out)) == 3
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == (
            "no root of phi(2; c) = 0 in the search box |c| <= 256")


def _edit_table(path, edit):
    """Replace the .npy profile table at ``path`` by ``edit`` of it."""
    np.save(path, edit(np.load(path)), allow_pickle=False)


def _set_middle_cell(path, col, value):
    """Put ``value`` in column ``col`` (row ``col`` of the .npy table) at
    the middle node of a profile table."""
    def edit(table):
        table[col, table.shape[1] // 2] = value
        return table

    _edit_table(path, edit)


def _cut_bytes(path, keep):
    """Keep the first ``keep(size)`` bytes of the file at ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    data = data[:keep(len(data))]
    with open(path, "wb") as fh:
        fh.write(data)


def _npy_header_bytes(path):
    """The length of the .npy file's magic string and header."""
    with open(path, "rb") as fh:
        np.lib.format.read_magic(fh)
        np.lib.format.read_array_header_1_0(fh)
        return fh.tell()


def _rename_header_key(path):
    """Misspell the 'descr' key of the .npy header, keeping its length."""
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data.replace(b"'descr'", b"'descx'", 1))


def _save_object_table(path):
    """Replace the .npy table by the same values as an object array."""
    table = np.load(path)
    np.save(path, table.astype(object), allow_pickle=True)


def _save_csv(path):
    """Replace the .npy table by the same values as CSV text, made by
    README's plotting recipe."""
    table = np.load(path)
    np.savetxt(path, table.T, fmt="%.17g", delimiter=",",
               header=profile_csv_header(1), comments="")


def _export_csv(sol_dir, sol):
    """README's plotting recipe: profile_<m>.csv made from profile_<m>.npy
    in ``sol_dir``; returns the CSV's path."""
    npy = sol_dir / f"profile_{sol.method}.npy"
    csv = sol_dir / f"profile_{sol.method}.csv"
    np.savetxt(csv, np.load(npy).T, fmt="%.17g", delimiter=",",
               header=profile_csv_header(sol.grid.nfactors), comments="")
    return csv


def _save_npz(path):
    """Replace the .npy table by an .npz archive that holds it."""
    table = np.load(path)
    with open(path, "wb") as fh:
        np.savez(fh, table=table)


def _save_pickle(path):
    """Replace the .npy table by the same ndarray, pickled."""
    table = np.load(path)
    with open(path, "wb") as fh:
        pickle.dump(table, fh)


def _claim_nodes(path, nodes):
    """Replace the .npy table by a valid header for a (10, nodes) float64
    table and the first 64 bytes of the old file's data."""
    start = _npy_header_bytes(path)
    with open(path, "rb") as fh:
        data = fh.read()[start:start + 64]
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {
            "descr": "<f8", "fortran_order": False, "shape": (10, nodes)})
        fh.write(data)


# each case: the file it corrupts, the edit, and what the error must name
# (a "table" edit takes the path of the momentum profile table)
MALFORMED = {
    "factor-dim": ("config", lambda raw: raw["factors"][0].update(dim="two"),
                   "'dim'"),
    "grid-nodes": ("config", lambda raw: raw.update(grid={"nodes": "lots"}),
                   "'nodes'"),
    # exact JSON integers beyond the largest float, which has no value for
    # them
    "factor-dim-huge": ("config", lambda raw: raw["factors"][0].update(
        dim=2 * 10**400), "'dim'"),
    "factor-twist-huge": ("config", lambda raw: raw["factors"][0].update(
        twist=10**400), "'twist'"),
    "solution-dim-huge": ("solution", lambda raw: raw["config"]["factors"][
        0].update(dim=2 * 10**400), "'dim'"),
    "solution-twist-huge": ("solution", lambda raw: raw["config"]["factors"][
        0].update(twist=10**400), "'twist'"),
    # non-finite numbers (JSON's NaN and Infinity tokens)
    "factor-einstein-nan": ("config", lambda raw: raw["factors"][0].update(
        einstein_constant=float("nan")), "Einstein constant"),
    "factor-einstein-inf": ("config", lambda raw: raw["factors"][0].update(
        einstein_constant=float("inf")), "Einstein constant"),
    "factor-deformation-nan": ("config", lambda raw: raw["factors"][0].update(
        deformation_norm2=float("nan")), "deformation norm"),
    "profile-kappas-inf": ("config", lambda raw: raw.update(stability={
        "profiles": [{"kind": "constant",
                      "kappas": [float("inf")] * len(raw["factors"])}]}),
        "kappas"),
    # n is derived from the factors, 4 for Koiso-Cao
    "solution-dimension": ("solution",
                           lambda raw: raw["config"].update(n=99),
                           "n = 99 disagrees with the factors"),
    "solution-einstein-inf": ("solution",
                              lambda raw: raw["config"]["factors"][0].update(
                                  einstein_constant=float("inf")),
                              "Einstein constant"),
    # below the ODE integrator's rtol floor of 100 eps
    "tolerance-ode": ("config",
                      lambda raw: raw.update(tolerances={"ode": 1e-15}),
                      "tolerances.ode"),
    "tolerance-residual-inf": ("config", lambda raw: raw.update(
        tolerances={"residual": float("inf")}), "tolerances.residual"),
    "tolerance-identity-inf": ("config", lambda raw: raw.update(
        tolerances={"identity": float("inf")}), "tolerances.identity"),
    "seed-negative": ("config", lambda raw: raw.update(seed=-1), "seed"),
    # each field is its JSON type: a number is no string, a block no list
    # of pairs, and an empty object or list is no default
    "factor-einstein-string": ("config", lambda raw: raw["factors"][0].update(
        einstein_constant="2"), "'einstein_constant'"),
    "grid-nodes-string": ("config", lambda raw: raw["grid"].update(
        nodes="64"), "'nodes'"),
    "seed-string": ("config", lambda raw: raw.update(seed="0"), "'seed'"),
    "profile-kappas-strings": ("config", lambda raw: raw.update(stability={
        "profiles": [{"kind": "constant", "kappas": ["1.5"]}]}), "'kappas'"),
    # a profile is its kind: the constant one reads deformation_norm2
    "profile-kappas": ("config", lambda raw: raw.update(stability={
        "profiles": [{"kind": "constant", "kappas": [2.0]}]}), "'kappas'"),
    "grid-pairs": ("config", lambda raw: raw.update(grid=[["nodes", 64]]),
                   "'grid'"),
    "grid-empty-list": ("config", lambda raw: raw.update(grid=[]), "'grid'"),
    "tolerances-pairs": ("config", lambda raw: raw.update(
        tolerances=[["ode", 1e-12]]), "'tolerances'"),
    "stability-empty-list": ("config", lambda raw: raw.update(stability=[]),
                             "'stability'"),
    "profiles-empty-object": ("config", lambda raw: raw.update(
        stability={"profiles": {}}), "'profiles'"),
    "constants-without-B": ("constants", lambda raw: raw.pop("B"), "'B'"),
    "constants-A": ("constants", lambda raw: raw.update(A="quarter"), "'A'"),
    # a fraction that divides by zero or overflows a float
    "constants-A-zero-division": ("constants",
                                  lambda raw: raw.update(A="1/0"), "'A'"),
    "constants-A-overflow": ("constants", lambda raw: raw.update(A="1e400"),
                             "'A'"),
    # A and B are read exactly, and only the candidates are pinned values;
    # the second A rounds to 0.25 as a float
    "constants-A-off-candidate": ("constants", lambda raw: raw.update(
        A="1000001/4000000"), "'A'"),
    "constants-A-rounds-to-candidate": ("constants", lambda raw: raw.update(
        A="25000000000000000001/100000000000000000000"), "'A'"),
    "constants-B-off-candidate": ("constants",
                                  lambda raw: raw.update(B="3/8"), "'B'"),
    "constants-samples-string": ("constants",
                                 lambda raw: raw.update(samples="20"),
                                 "'samples'"),
    "solution-constants-B": ("solution",
                             lambda raw: raw["constants"].update(B="1/0"),
                             "'B'"),
    "solution-constants-A": ("solution",
                             lambda raw: raw["constants"].update(A=0.3),
                             "'A'"),
    "solution-T-string": ("solution", lambda raw: raw.update(T=str(raw["T"])),
                          "'T'"),
    "solution-scheme": ("solution",
                        lambda raw: raw.update(scheme="legendre"),
                        "'legendre'"),
    "solution-method": ("solution", lambda raw: raw.update(method="bogus"),
                        "'bogus'"),
    # a shooting solution stored under the momentum file name
    "solution-method-mismatch": ("solution",
                                 lambda raw: raw.update(method="shooting"),
                                 "solution_momentum.json holds a 'shooting'"),
    # a report, read back as nothing, but still an object
    "solution-residuals-list": ("solution",
                                lambda raw: raw.update(residuals=[]),
                                "'residuals'"),
    "solution-no-nodes": ("solution", lambda raw: raw.update(nodes=0),
                          "n = 0"),
    "solution-uniform-3-nodes": ("solution",
                                 lambda raw: raw.update(nodes=3,
                                                        scheme="uniform"),
                                 "n = 3"),
    # checked against the table before a scheme of that size is built
    "solution-nodes-huge": ("solution", lambda raw: raw.update(nodes=10**13),
                            "n = 10000000000000, but the profile table of "
                            "shape (10, 257) has n = 256"),
    "solution-negated-T": ("solution", lambda raw: raw.update(T=-raw["T"]),
                           "interval length"),
    # the slope and the gauge shift are read off the table, and T is its
    # last node
    "solution-slope": ("solution",
                       lambda raw: raw.update(c_slope=1.01 * raw["c_slope"]),
                       "disagrees with (u[-1] - u[0]) / 2"),
    "solution-gauge-shift": ("solution", lambda raw: raw.update(
        gauge_shift=1.01 * raw["gauge_shift"]), "disagrees with -u[0]"),
    "solution-T": ("solution",
                   lambda raw: raw.update(T=raw["T"] * (1.0 + 1e-11)),
                   "is not the last node of the profile table"),
    # checked before the nodes, so whatever its size it is the metadata's
    "solution-T-1e-6": ("solution",
                        lambda raw: raw.update(T=raw["T"] * (1.0 + 1e-6)),
                        "is not the last node of the profile table"),
    "solution-T-1e-1": ("solution", lambda raw: raw.update(T=raw["T"] * 1.1),
                        "is not the last node of the profile table"),
    # a solution directory written before the .npy tables existed has
    # only the CSV, which nothing reads back
    "table-missing": ("table", os.remove, "No such file"),
    "table-non-numeric": ("table", lambda path: _edit_table(
        path, lambda table: table.astype(str)), "2-D <U"),
    "table-nan-t": ("table", lambda path: _set_middle_cell(path, 0, np.nan),
                    "non-finite value nan in column 't', row 128"),
    "table-inf-ddf": ("table", lambda path: _set_middle_cell(path, 3, np.inf),
                      "non-finite value inf in column 'ddf', row 128"),
    # the table is mapped: data the file lacks is refused unread
    "table-truncated": ("table", lambda path: _cut_bytes(
        path, lambda size: size // 2), "mmap length is greater than file"),
    # the .npy header and no data
    "table-header-only": ("table", lambda path: _cut_bytes(
        path, lambda size: _npy_header_bytes(path)),
        "mmap length is greater than file"),
    # a header that claims (10, 10^13) cells over 64 bytes of data
    "table-header-huge": ("table", lambda path: _claim_nodes(path, 10**13),
                          "mmap length is greater than file"),
    "table-empty": ("table", lambda path: _cut_bytes(path, lambda size: 0),
                    "EOF: reading magic string"),
    # the header's shape in the other order: one row per node
    "table-header-reordered": ("table", lambda path: _edit_table(
        path, lambda table: np.ascontiguousarray(table.T)),
        "n = 256, but the profile table of shape (257, 10) has n = 9"),
    # three rows more, as if holding a second factor's l, dl and ddl
    "table-second-factor-rows": ("table", lambda path: _edit_table(
        path, lambda table: np.vstack([table[:7], table[4:7], table[7:]])),
        "profile table has shape (13, 257), the metadata needs (10, 257)"),
    "table-header-renamed": ("table", _rename_header_key,
                             "does not contain the correct keys"),
    "table-int64": ("table", lambda path: _edit_table(
        path, lambda table: table.astype(np.int64)), "2-D int64 array"),
    "table-one-dimensional": ("table", lambda path: _edit_table(
        path, np.ravel), "1-D float64 array"),
    # refused unread: an object array is pickled, and a file that is not
    # .npy (a CSV, an .npz archive, a pickle) by its magic bytes
    "table-object": ("table", _save_object_table,
                     "can't be memory-mapped: Python objects in dtype"),
    "table-not-npy": ("table", _save_csv,
        "the magic string is not correct; expected b'\\x93NUMPY', "
        "got b't,f,df'"),
    "table-npz": ("table", _save_npz, "the magic string is not correct; "
                  "expected b'\\x93NUMPY', got b'PK"),
    "table-pickle": ("table", _save_pickle, "the magic string is not correct; "
                     "expected b'\\x93NUMPY', got b'\\x80"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_config_error(case, pipeline, tmp_path, capsys):
    target, edit, named = MALFORMED[case]
    cfg = _momentum_config(pipeline, tmp_path)
    constants = str(tmp_path / "constants.json")
    shutil.copy(pipeline["constants"], constants)
    sol_dir = tmp_path / "sol"
    shutil.copytree(pipeline["out"], sol_dir)
    if target == "config":
        _edit_json(cfg, edit)
    elif target == "constants":
        _edit_json(constants, edit)
    elif target == "table":
        edit(str(sol_dir / "profile_momentum.npy"))
    else:
        _edit_json(sol_dir / "solution_momentum.json", edit)
    out = str(tmp_path / "o")
    if target in ("solution", "table"):
        commands = [(cmd, "--solution", str(sol_dir), "--out", out)
                    for cmd in ("verify", "stability")]
    else:
        commands = [("solve", "--config", cfg, "--constants", constants,
                     "--out", out)]
    for argv in commands:
        capsys.readouterr()
        with warnings.catch_warnings():
            # a warning would reach stderr ahead of the error line
            warnings.simplefilter("error")
            assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert err.count("\n") == 1, err
        if target in ("solution", "table"):
            # the one line names the file at fault
            bad = ("solution_momentum.json" if target == "solution"
                   else "profile_momentum.npy")
            assert str(sol_dir / bad) in err


@pytest.mark.parametrize("edit", [
    lambda path: _claim_nodes(path, 2**17), lambda path: _claim_nodes(
        path, 10**13), _save_pickle, _save_object_table,
], ids=["header-10MB", "header-huge", "pickle", "object"])
def test_refused_table_is_not_read(edit, pipeline, tmp_path, monkeypatch):
    # a header's claim is held against the file's size, not allocated (a
    # (10, 2^17) claim would cost 10 MB), and no pickle is loaded
    sol_dir = tmp_path / "sol"
    shutil.copytree(pipeline["out"], sol_dir)
    edit(str(sol_dir / "profile_momentum.npy"))

    def unpickle(*args, **kwargs):
        raise AssertionError("the table was unpickled")

    monkeypatch.setattr(pickle, "load", unpickle)
    monkeypatch.setattr(pickle, "loads", unpickle)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="profile_momentum.npy"):
            read_solution(str(sol_dir), "momentum")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("edit, named", [
    (lambda raw: raw.update(grdi={"nodes": 64}), "'grdi'"),
    (lambda raw: raw.update(stability={"profiles": [
        {"kind": "constant", "kapas": [5.0]}]}), "'kapas'"),
], ids=["top_level", "spec"])
def test_unknown_config_key_exits_1(edit, named, pipeline, tmp_path,
                                    capsys):
    cfg = _momentum_config(pipeline, tmp_path)
    _edit_json(cfg, edit)
    capsys.readouterr()
    assert run("solve", "--config", cfg, "--constants", pipeline["constants"],
               "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


# every number in the pipeline's solution_momentum.json, by path (list
# items by index); the codec mutation table perturbs each in turn
SOLUTION_NUMBERS = (
    "T", "c_slope", "config.factors.0.deformation_norm2",
    "config.factors.0.dim", "config.factors.0.einstein_constant",
    "config.factors.0.twist", "config.n", "config.tau",
    "constants.max_rel_err", "constants.samples", "gauge_shift", "nodes",
    "residuals.E_N", "residuals.E_U", "residuals.E_i.0",
    "residuals.cross_method", "residuals.delta_uu", "residuals.div_integral",
    "residuals.gauge", "residuals.hamilton", "residuals.kaehler",
    "residuals.trace",
)
_REEVALUATED = "verify and stability re-evaluate it on the profiles"
# the numbers verify and stability only report, each with its reason; every
# other number must fail the read or move an output
REPORT_ONLY = {
    **{f"residuals.{key}": _REEVALUATED
       for key in ("E_N", "E_U", "E_i.0", "delta_uu", "div_integral",
                   "gauge", "hamilton", "kaehler", "trace")},
    "residuals.cross_method": "written by krs solve for the pair; no "
                              "command reads it back",
    "constants.max_rel_err": "the oracle's error, recorded; only its range "
                             "[0, 1e-6) is checked",
    "constants.samples": "the oracle's sample count, recorded; only its "
                         "bound 1 is checked",
}
# the table cells perturbed: one interior row of the t, f and u columns
TABLE_CELLS = {"t": 0, "f": 1, "u": 7}


def _numbers(raw, path="", fractions=False):
    """{path: value} of every int or float in a JSON tree; with
    ``fractions``, also of every string that reads as a fraction, as a
    Fraction."""
    if isinstance(raw, (dict, list)):
        items = raw.items() if isinstance(raw, dict) else enumerate(raw)
        found = {}
        for key, value in items:
            found.update(_numbers(value, f"{path}{key}.", fractions))
        return found
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return {path[:-1]: raw}
    if fractions and isinstance(raw, str):
        try:
            return {path[:-1]: Fraction(raw)}
        except ValueError:
            pass
    return {}


def _perturbed(value):
    """A float or a Fraction moved by a relative 1e-6 and 1e-1 (a Fraction
    exactly), an int by -1 and +1."""
    if isinstance(value, Fraction):
        return [value * Fraction(1000001, 1000000), value * Fraction(11, 10)]
    if isinstance(value, int):
        return [value - 1, value + 1]
    return [value * (1.0 + 1e-6), value * (1.0 + 1e-1)]


def _set_number(raw, path, value):
    *parents, last = [int(key) if key.isdigit() else key
                      for key in path.split(".")]
    for key in parents:
        raw = raw[key]
    raw[last] = value


def _verify_and_stability(sol_dir, out, capsys=None):
    """(exit code, output bytes or None, stderr) of verify, then stability,
    of the momentum solution in sol_dir, each writing into its own
    directory; stderr is read from ``capsys`` when given."""
    results = []
    for cmd, name in (("verify", "verify_momentum.json"),
                      ("stability", "stability_momentum.csv")):
        if capsys:
            capsys.readouterr()
        path = out / cmd / name
        code = run(cmd, "--solution", str(sol_dir), "--out", str(out / cmd))
        results.append((code, path.read_bytes() if path.exists() else None,
                        capsys.readouterr().err if capsys else None))
    return results


@pytest.fixture(scope="module")
def codec_baseline(pipeline, tmp_path_factory):
    """The pipeline's momentum metadata and .npy table and what verify and
    stability make of them unperturbed."""
    root = tmp_path_factory.mktemp("codec")
    sol_dir = root / "sol"
    sol_dir.mkdir()
    files = {}
    for name in ("solution_momentum.json", "profile_momentum.npy"):
        shutil.copy(os.path.join(pipeline["out"], name), sol_dir / name)
        files[name] = (sol_dir / name).read_bytes()
    baseline = _verify_and_stability(sol_dir, root / "out")
    assert [code for code, _, _ in baseline] == [0, 0]
    return files, baseline


def test_mutation_table_lists_every_number(codec_baseline):
    files, _ = codec_baseline
    meta = json.loads(files["solution_momentum.json"])
    assert sorted(_numbers(meta)) == sorted(SOLUTION_NUMBERS)
    assert set(REPORT_ONLY) <= set(SOLUTION_NUMBERS)
    header = profile_csv_header(1).split(",")
    assert all(header[col] == name for name, col in TABLE_CELLS.items())


@pytest.mark.parametrize("field", [*SOLUTION_NUMBERS,
                                   *(f"table.{c}" for c in TABLE_CELLS)])
def test_codec_mutation(field, codec_baseline, tmp_path, capsys):
    """Each perturbed number fails the read (exit 1 and one config error
    line), fails a check (exit 4) or moves an output of verify or
    stability; a report-only number moves nothing."""
    files, baseline = codec_baseline
    if field.startswith("table."):
        col = TABLE_CELLS[field[len("table."):]]
        table = np.load(io.BytesIO(files["profile_momentum.npy"]))
        value = float(table[col, table.shape[1] // 2])
    else:
        value = _numbers(json.loads(files["solution_momentum.json"]))[field]
    for k, moved in enumerate(_perturbed(value)):
        assert moved != value
        sol_dir = tmp_path / f"sol{k}"
        sol_dir.mkdir()
        for name, content in files.items():
            (sol_dir / name).write_bytes(content)
        if field.startswith("table."):
            _set_middle_cell(sol_dir / "profile_momentum.npy", col, moved)
        else:
            _edit_json(sol_dir / "solution_momentum.json",
                       lambda raw: _set_number(raw, field, moved))
        got = _verify_and_stability(sol_dir, tmp_path / f"out{k}", capsys)
        for code, _, err in got:
            if code == 1:
                assert err.startswith("config error:"), (field, moved, err)
                assert err.count("\n") == 1, (field, moved, err)
        if field in REPORT_ONLY:
            assert ([(code, output) for code, output, _ in got]
                    == [(0, before) for _, before, _ in baseline]), (
                field, moved, [err for _, _, err in got])
        else:
            # each command reads its own part of the file: verify the
            # equations' data, stability the deformation norms
            assert any(code in (1, 4) or output != before
                       for (code, output, _), (_, before, _)
                       in zip(got, baseline)), (
                f"{field} = {moved!r} is read by nothing: verify and "
                "stability exit 0 with the same outputs")


# every number in the run config and the constants JSON that krs solve
# reads, by path; the constants' A and B are numbers written as fractions
SOLVE_NUMBERS = (
    "config.factors.0.deformation_norm2", "config.factors.0.dim",
    "config.factors.0.einstein_constant", "config.factors.0.twist",
    "config.grid.nodes", "config.seed", "config.tolerances.identity",
    "config.tolerances.ode", "config.tolerances.residual", "constants.A",
    "constants.B", "constants.max_rel_err", "constants.samples",
)
# the numbers that move no solution file but for their own copy in it, each
# with its reason; every other number must fail the solve or move a file
SOLVE_REPORT_ONLY = {
    "config.seed": "read only without --constants, to pin the constants",
    "config.tolerances.residual": "a tolerance changes only the verdict",
    "config.tolerances.identity": "read by verify, not by solve",
    "constants.max_rel_err": "the oracle's error, recorded; only its range "
                             "[0, 1e-6) is checked",
    "constants.samples": "the oracle's sample count, recorded; only its "
                         "bound 1 is checked",
}


def _solve(inputs, out):
    """Exit code and {file name: bytes} of krs solve on the run config and
    constants JSON texts ``inputs`` (keyed config and constants), with
    every file written under the new directory ``out``."""
    out.mkdir()
    for name, text in inputs.items():
        (out / f"{name}.json").write_text(text)
    code = run("solve", "--config", str(out / "config.json"), "--constants",
               str(out / "constants.json"), "--out", str(out / "o"))
    files = ({p.name: p.read_bytes() for p in (out / "o").iterdir()}
             if (out / "o").is_dir() else {})
    return code, files


@pytest.fixture(scope="module")
def solve_baseline(pipeline, tmp_path_factory):
    """The solve inputs, the shipped Koiso-Cao config at N = 64 and the
    pipeline's constants, as text, and the files krs solve makes of
    them."""
    with open(CONFIG) as fh:
        config = json.load(fh)
    config["grid"]["nodes"] = 64
    with open(pipeline["constants"]) as fh:
        inputs = {"config": json.dumps(config), "constants": fh.read()}
    code, files = _solve(inputs, tmp_path_factory.mktemp("solve") / "base")
    assert code == 0
    return inputs, files


def _solve_numbers(inputs):
    return {f"{name}.{path}": value for name, text in inputs.items()
            for path, value in _numbers(json.loads(text), fractions=True)
            .items()}


def test_solve_mutation_table_lists_every_number(solve_baseline):
    inputs, _ = solve_baseline
    assert sorted(_solve_numbers(inputs)) == sorted(SOLVE_NUMBERS)
    assert set(SOLVE_REPORT_ONLY) <= set(SOLVE_NUMBERS)


@pytest.mark.parametrize("field", SOLVE_NUMBERS)
def test_solve_mutation(field, solve_baseline, tmp_path, capsys):
    """Each perturbed number of the solve inputs fails the solve (exit 1
    and one config error line, or exit 3 or 4) or moves a solution file; a
    report-only number moves nothing but its own copy."""
    inputs, baseline = solve_baseline
    file, path = field.split(".", 1)
    for k, moved in enumerate(_perturbed(_solve_numbers(inputs)[field])):
        raw = json.loads(inputs[file])
        _set_number(raw, path,
                    str(moved) if isinstance(moved, Fraction) else moved)
        capsys.readouterr()
        code, files = _solve({**inputs, file: json.dumps(raw)},
                             tmp_path / f"m{k}")
        err = capsys.readouterr().err
        assert code in (0, 1, 3, 4) and "Traceback" not in err, (
            field, moved, err)
        if code == 1:
            assert err.startswith("config error:"), (field, moved, err)
            assert err.count("\n") == 1, (field, moved, err)
        if field not in SOLVE_REPORT_ONLY:
            assert code in (1, 3, 4) or files != baseline, (
                f"{field} = {moved!r} is read by nothing: krs solve exits "
                "0 with the same files")
            continue
        expected = dict(baseline)
        if file == "constants":
            # each solution file carries a copy of the constants
            for name in baseline:
                if name.startswith("solution_"):
                    meta = json.loads(baseline[name])
                    meta["constants"][path] = moved
                    expected[name] = (json.dumps(meta, indent=2,
                                                 sort_keys=True)
                                      + "\n").encode()
        # an out-of-range value (a seed of -1) is a config error
        assert code == 1 or (code, files) == (0, expected), (
            field, moved, err)


def test_one_ricci_evaluation_per_command(pipeline, tmp_path, ricci_calls,
                                          report_calls):
    # and one residual report where a command reads it; stability reads
    # neither: its table needs only the gauge, the solution's weighted mean
    # of u, and C(h, g) of the anti-invariant kind, which is exactly 0
    cfg = _momentum_config(pipeline, tmp_path)
    out = str(tmp_path / "o")
    per_command = []
    for argv in (("solve", "--config", cfg, "--constants",
                  pipeline["constants"], "--out", out),
                 ("verify", "--solution", out, "--out", out),
                 ("stability", "--solution", out, "--config", cfg,
                  "--out", out)):
        before = len(ricci_calls), len(report_calls)
        assert run(*argv) == 0
        per_command.append((len(ricci_calls) - before[0],
                            len(report_calls) - before[1]))
    assert [ricci for ricci, _ in per_command] == [1, 1, 0]
    assert [count for _, count in per_command] == [1, 1, 0]


REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "reference.json")
# the configs on which a cold start from a probe integration of the near
# branch failed (the probe, the integration, the line search or Newton's
# step cap), and the two images of kc under maps that fix the soliton up to
# the sign of c
FORMER_FAILURES = ("kc_mirror", "s2xs2_opp", "s2_p3_q2", "cp2_q2", "cp3_q1",
                   "three_s2")
COLD_CONFIGS = ("kc", "kc_scaled", *FORMER_FAILURES)


def _solve_factors(pipeline, out, factors, method):
    """`krs solve` of the bundle ``factors`` ([d, p, q] each) at N = 512
    into the directory ``out``: its exit code."""
    out.mkdir(parents=True)
    cfg = out / "run.json"
    cfg.write_text(json.dumps({
        "factors": [{"dim": d, "einstein_constant": p, "twist": q}
                    for d, p, q in factors],
        "grid": {"nodes": 512}, "method": method,
    }))
    return run("solve", "--config", str(cfg), "--constants",
               pipeline["constants"], "--out", str(out))


@pytest.fixture(scope="module")
def cold_solves(pipeline, constants, tmp_path_factory):
    """`krs solve` with method shooting alone at N = 512, per name: its exit
    code, its solution metadata, and the momentum solution of the same
    config."""
    with open(REFERENCE) as fh:
        configs = json.load(fh)["configs"]
    root = tmp_path_factory.mktemp("cold")
    solved = {}
    for name in COLD_CONFIGS:
        factors = configs[name]["factors"]
        out = root / name
        code = _solve_factors(pipeline, out, factors, "shooting")
        meta = (json.loads((out / "solution_shooting.json").read_text())
                if code == 0 else None)
        config = BundleConfig(factors=tuple(
            BaseFactor(d=d, p=float(p), q=q) for d, p, q in factors))
        momentum = solver.solve_momentum(config, constants, nodes=512)
        solved[name] = (code, meta, momentum)
    return solved


class TestColdShooting:
    @pytest.mark.parametrize("name", FORMER_FAILURES)
    def test_former_failures_agree_with_momentum(self, cold_solves, name):
        code, meta, momentum = cold_solves[name]
        assert code == 0
        assert abs(meta["c_slope"] - momentum.c_slope) <= 1e-9
        assert abs(meta["T"] - momentum.grid.T) <= 1e-9

    def test_mirror_twist_flips_the_slope(self, cold_solves):
        (_, kc, _), (_, mirror, _) = (cold_solves[n]
                                      for n in ("kc", "kc_mirror"))
        assert abs(mirror["c_slope"] + kc["c_slope"]) <= 1e-9
        assert abs(mirror["T"] - kc["T"]) <= 1e-9

    def test_scaled_p_and_q_keep_the_soliton(self, cold_solves):
        (_, kc, _), (_, scaled, _) = (cold_solves[n]
                                      for n in ("kc", "kc_scaled"))
        assert abs(scaled["c_slope"] - kc["c_slope"]) <= 1e-9
        assert abs(scaled["T"] - kc["T"]) <= 1e-9


# two bundles with small gaps p - |q| (0.034 to 0.226) on which c read off
# the launch curvature u''(0)/2 was 2.9e-9 (D) and 6.8e-9 (E) from the
# momentum slope, cold and warm; read off the potential offset it is within
# 1e-12
SMALL_GAPS = {"D": [[4, 3.034, 3], [2, 1.226, 1]],
              "E": [[6, 3.036, 3], [2, 2.076, -2]]}


@pytest.fixture(scope="module")
def small_gap_solves(pipeline, tmp_path_factory):
    """`krs solve` at N = 512 with method shooting (the cold start) and
    method both (the warm one), per name: the exit codes and the (c, T) of
    the cold, the warm and the momentum solution."""
    root = tmp_path_factory.mktemp("gaps")
    solved = {}
    for name, factors in SMALL_GAPS.items():
        codes, read = [], {}
        for start, method in (("cold", "shooting"), ("warm", "both")):
            out = root / f"{name}_{method}"
            codes.append(_solve_factors(pipeline, out, factors, method))
            for found, key in (("shooting", start), ("momentum", "momentum")):
                path = out / f"solution_{found}.json"
                if path.is_file():
                    meta = json.loads(path.read_text())
                    read[key] = (meta["c_slope"], meta["T"])
        solved[name] = (codes, read)
    return solved


class TestSmallGaps:
    @pytest.mark.parametrize("start", ["cold", "warm"])
    @pytest.mark.parametrize("name", sorted(SMALL_GAPS))
    def test_slope_agrees_with_momentum(self, small_gap_solves, name,
                                        start):
        codes, read = small_gap_solves[name]
        assert codes == [0, 0]
        (c, T), (c_mom, T_mom) = read[start], read["momentum"]
        assert abs(c - c_mom) <= 1e-9
        assert abs(T - T_mom) <= 1e-9


class TestVerify:
    def test_identities_pass(self, pipeline, tmp_path):
        out = str(tmp_path / "v")
        assert run("verify", "--solution", pipeline["out"],
                   "--out", out) == 0
        report = json.loads(
            open(os.path.join(out, "verify_momentum.json")).read())
        assert all(report["passed"].values())

    def test_shooting_solution_verifies(self, pipeline, tmp_path):
        assert run("verify", "--solution", pipeline["out"], "--method",
                   "shooting", "--out", str(tmp_path / "v")) == 0

    def test_corrupted_profile_exits_4(self, pipeline, tmp_path):
        bad = tmp_path / "bad"
        shutil.copytree(pipeline["out"], bad)
        table = np.load(bad / "profile_momentum.npy")
        # corrupt u between its ends, which the metadata repeats (a shift
        # of every u moves the gauge shift read off u[0]: a config error)
        table[7, 1:-1] += 0.2
        np.save(bad / "profile_momentum.npy", table)
        assert run("verify", "--solution", str(bad),
                   "--out", str(tmp_path / "v")) == 4


    def test_moved_node_exits_4(self, pipeline, tmp_path, capsys):
        # one interior t off its scheme node by a relative 1e-6: the table
        # is read by the scheme's nodes, so it no longer describes them
        bad = tmp_path / "bad"
        shutil.copytree(pipeline["out"], bad)

        def edit(table):
            table[0, table.shape[1] // 2] *= 1.0 + 1e-6
            return table

        _edit_table(bad / "profile_momentum.npy", edit)
        capsys.readouterr()
        assert run("verify", "--solution", str(bad),
                   "--out", str(tmp_path / "v")) == 4
        assert capsys.readouterr().err == (
            "verify failed: GeometryError: profile nodes disagree with the "
            "scheme\n")

    @pytest.mark.parametrize("cmd", ["verify", "stability"])
    def test_last_node_off_T_exits_1(self, pipeline, tmp_path, capsys, cmd):
        # the table's last t a relative 1e-11 off the metadata's T: the
        # error is read as the metadata's, as for a moved T
        bad = tmp_path / "bad"
        shutil.copytree(pipeline["out"], bad)

        def edit(table):
            table[0, -1] *= 1.0 + 1e-11
            return table

        _edit_table(bad / "profile_momentum.npy", edit)
        capsys.readouterr()
        assert run(cmd, "--solution", str(bad),
                   "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad / 'solution_momentum.json'}")
        assert str(bad / "profile_momentum.npy") in err
        assert "is not the last node of the profile table" in err
        assert err.count("\n") == 1


class TestStability:
    def test_table_has_all_signs(self, pipeline, tmp_path):
        out = str(tmp_path / "s")
        assert run("stability", "--solution", pipeline["out"], "--config",
                   pipeline["config"], "--out", out) == 0
        rows = open(os.path.join(out, "stability_momentum.csv")).read()
        lines = rows.strip().split("\n")
        assert lines[0] == "profile,value,sign,C_hg,v_h_norm"
        signs = {line.split(",")[2] for line in lines[1:]}
        assert {"zero", "positive", "negative"} <= signs

    def test_default_family_without_config(self, pipeline, tmp_path):
        assert run("stability", "--solution", pipeline["out"],
                   "--out", str(tmp_path / "s")) == 0

    def test_explicit_default_specs_match_no_config(self, pipeline,
                                                     tmp_path):
        with_cfg, without = tmp_path / "cfg", tmp_path / "none"
        with open(pipeline["config"]) as fh:
            kinds = [p["kind"] for p in json.load(fh)["stability"]["profiles"]]
        assert kinds == ["constant", "u_plus", "u_minus", "abs_u"]
        for method in ("momentum", "shooting"):
            assert run("stability", "--solution", pipeline["out"], "--method",
                       method, "--config", pipeline["config"], "--out",
                       str(with_cfg)) == 0
            assert run("stability", "--solution", pipeline["out"], "--method",
                       method, "--out", str(without)) == 0
            name = f"stability_{method}.csv"
            assert (with_cfg / name).read_bytes() == \
                (without / name).read_bytes()

    @pytest.mark.parametrize("spec, named", [
        ({"kind": "mystery"}, "unknown stability profile kind 'mystery'"),
        # a profile is its kind: "kappas" is an unknown field
        ({"kind": "constant", "kappas": "x"}, "'kappas'"),
        ({"kind": "constant", "kappas": [-1.0]}, "'kappas'"),
        ({"kind": "constant", "kappas": [1.0, 2.0, 3.0]}, "'kappas'"),
    ], ids=["mystery", "kappas_str", "kappas_negative", "kappas_count"])
    def test_unknown_profile_kind_exits_1(self, pipeline, tmp_path, capsys,
                                          spec, named):
        cfg = tmp_path / "s.json"
        raw = json.loads(open(pipeline["config"]).read())
        raw["stability"] = {"profiles": [spec]}
        cfg.write_text(json.dumps(raw))
        capsys.readouterr()
        assert run("stability", "--solution", pipeline["out"], "--config",
                   str(cfg), "--out", str(tmp_path / "s")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert err.count("\n") == 1, err

    def test_unnormalized_solution_exits_4(self, pipeline, tmp_path,
                                           capsys):
        # u + 0.3 solves the same equations but leaves the zero-mean gauge,
        # a stability precondition: exit 4 with one line, no traceback (the
        # gauge shift, which is read off u[0], moves with it)
        bad = tmp_path / "shifted"
        shutil.copytree(pipeline["out"], bad)
        table = np.load(bad / "profile_momentum.npy")
        table[7] += 0.3
        np.save(bad / "profile_momentum.npy", table)
        _edit_json(bad / "solution_momentum.json", lambda raw: raw.update(
            gauge_shift=raw["gauge_shift"] - 0.3))
        capsys.readouterr()
        assert run("stability", "--solution", str(bad),
                   "--out", str(tmp_path / "s")) == 4
        err = capsys.readouterr().err
        assert "gauge-normalized" in err and "Traceback" not in err
        assert err.count("\n") == 1


class TestUsage:
    @pytest.mark.parametrize("argv", [[], ["solve"], ["bogus"],
                                      ["pin-constants", "--seed", "x"],
                                      ["verify", "--method", "spline"],
                                      ["pin-constants", "--seed", "-1"],
                                      ["fuzz-algebra", "--seed", "-3"],
                                      ["fuzz-algebra", "--trials", "0"],
                                      ["fuzz-algebra", "--trials", "-5"]])
    def test_usage_error_exits_1(self, argv, capsys):
        # argparse's own code, 2, is krs's oracle failure
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: krs") and "error:" in err

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        assert run(*argv) == 0
        assert capsys.readouterr().out.startswith("usage: krs")

    def test_parser_built_once_handler_looked_up_per_call(self, monkeypatch,
                                                          tmp_path):
        def rebuilt():
            raise AssertionError("parser built again")

        trials = []
        monkeypatch.setattr(cli, "_build_parser", rebuilt)
        monkeypatch.setattr(cli, "cmd_fuzz_algebra",
                            lambda args: trials.append(args.trials) or 0)
        assert run("fuzz-algebra", "--trials", "3",
                   "--out", str(tmp_path / "f.json")) == 0
        assert trials == [3]


class TestFuzzAlgebra:
    def test_runs_and_reports(self, tmp_path):
        out = str(tmp_path / "fuzz.json")
        assert run("fuzz-algebra", "--trials", "100", "--out", out) == 0
        report = json.loads(open(out).read())
        assert report["trials"] == 100
        assert report["max_residual"] < 1e-12

    def test_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run("fuzz-algebra", "--trials", "50", "--seed", "9", "--out", a)
        run("fuzz-algebra", "--trials", "50", "--seed", "9", "--out", b)
        assert open(a, "rb").read() == open(b, "rb").read()


class TestSerialization:
    def test_write_read_round_trip(self, kc_momentum, tmp_path):
        write_solution(str(tmp_path), kc_momentum, None)
        back = read_solution(str(tmp_path), "momentum")
        assert back.c_slope == kc_momentum.c_slope
        assert back.method == "momentum"
        assert np.array_equal(back.grid.table(), kc_momentum.grid.table())

    def test_write_read_write_is_byte_identical(self, kc_momentum, pipeline,
                                                tmp_path):
        # a fresh solution, and both solutions of a two-route solve, each
        # written with the disagreement its file holds, as krs solve does
        write_solution(str(tmp_path / "a"), kc_momentum, None)
        write_solution(str(tmp_path / "b"),
                       read_solution(str(tmp_path / "a"), "momentum"), None)
        pairs = [(tmp_path / "a", tmp_path / "b", "momentum")]
        for method in ("momentum", "shooting"):
            back = read_solution(pipeline["out"], method)
            meta = json.loads(open(os.path.join(
                pipeline["out"], f"solution_{method}.json")).read())
            write_solution(str(tmp_path / "c"), back,
                           meta["residuals"]["cross_method"])
            pairs.append((pipeline["out"], tmp_path / "c", method))
        for first, second, method in pairs:
            for name in (f"profile_{method}.npy", f"solution_{method}.json"):
                assert (open(os.path.join(first, name), "rb").read()
                        == open(os.path.join(second, name), "rb").read())

    def test_cross_method_is_written_with_the_residuals(
            self, kc_momentum, kc_shooting_2048, tmp_path):
        # the disagreement belongs to the pair, not to a solution: the file
        # holds it exactly when the write is given it
        cross = solver.cross_method_disagreement(kc_momentum,
                                                 kc_shooting_2048)
        assert cross < 1e-8
        for k, given in enumerate((cross, None)):
            write_solution(str(tmp_path / f"w{k}"), kc_momentum, given)
            residuals = json.loads((tmp_path / f"w{k}" /
                                    "solution_momentum.json").read_text())[
                "residuals"]
            assert ("cross_method" in residuals) == (given is not None)
            assert residuals.get("cross_method") == given
        assert "cross_method" not in kc_momentum.to_dict()["residuals"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out" / "report.json"
        with pytest.raises(TypeError):
            _write_atomic(str(path), b"not text")
        assert os.listdir(tmp_path / "out") == []

    def test_failed_stream_leaves_no_file(self, tmp_path):
        def chunks():
            yield "t,f\n0,0\n"
            raise RuntimeError("second block failed")

        path = tmp_path / "out" / "table.txt"
        with pytest.raises(RuntimeError, match="second block failed"):
            with _atomic_file(str(path), "w") as fh:
                fh.writelines(chunks())
        assert os.listdir(tmp_path / "out") == []
        # a file already there is left as it was
        path.write_text("old\n")
        with pytest.raises(RuntimeError, match="second block failed"):
            with _atomic_file(str(path), "w") as fh:
                fh.writelines(chunks())
        assert os.listdir(tmp_path / "out") == [path.name]
        assert path.read_text() == "old\n"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_file_modes_follow_the_umask(self, pipeline, tmp_path, umask,
                                         mode):
        out = tmp_path / "out"
        previous = os.umask(umask)
        try:
            assert run("solve", "--config", pipeline["config"],
                       "--constants", pipeline["constants"],
                       "--out", str(out)) == 0
        finally:
            os.umask(previous)
        modes = {name: stat.S_IMODE(os.stat(out / name).st_mode)
                 for name in os.listdir(out)}
        assert len(modes) == 4 and set(modes.values()) == {mode}

    def test_every_output_goes_through_the_atomic_file(
            self, pipeline, tmp_path, monkeypatch):
        written = []
        atomic_file = cli._atomic_file

        def recording(path, mode):
            written.append(os.path.abspath(path))
            return atomic_file(path, mode)

        monkeypatch.setattr(cli, "_atomic_file", recording)
        sol = tmp_path / "sol"
        argvs = [("pin-constants", "--out", str(tmp_path / "pin" / "c.json")),
                 ("fuzz-algebra", "--trials", "8",
                  "--out", str(tmp_path / "fuzz" / "f.json")),
                 ("solve", "--config", pipeline["config"], "--constants",
                  pipeline["constants"], "--out", str(sol))]
        for cmd in ("verify", "stability"):
            for method in ("momentum", "shooting"):
                for config in ((), ("--config", pipeline["config"])):
                    out = tmp_path / f"{cmd}-{method}-{len(config)}"
                    argvs.append((cmd, "--solution", str(sol), "--method",
                                  method, *config, "--out", str(out)))
        for argv in argvs:
            assert run(*argv) == 0, argv
        on_disk = [os.path.join(root, name)
                   for root, _, names in os.walk(tmp_path) for name in names]
        assert len(written) == 14
        assert sorted(written) == sorted(on_disk)
        assert not [path for path in on_disk if path.endswith(".tmp")]

    def test_unknown_solution_key_rejected(self, pipeline, tmp_path):
        # every key the solution writes reads back; any other is named
        sol_dir = tmp_path / "sol"
        shutil.copytree(pipeline["out"], sol_dir)
        _edit_json(sol_dir / "solution_momentum.json",
                   lambda raw: raw.update(nodez=256))
        with pytest.raises(ConfigError, match="'nodez'"):
            read_solution(str(sol_dir), "momentum")

    def test_profile_csv_columns_and_digits(self, two_factor_momentum,
                                            tmp_path):
        # README's recipe prints every value with format(., ".17g") in
        # header column order
        g = two_factor_momentum.grid
        write_solution(str(tmp_path), two_factor_momentum, None)
        csv = _export_csv(tmp_path, two_factor_momentum)
        lines = csv.read_text().splitlines()
        assert lines[0] == profile_csv_header(2)
        assert len(lines) == g.t.size + 1
        for k in (0, 1, g.t.size // 2, g.t.size - 1):
            row = [g.t[k], g.f[k], g.df[k], g.ddf[k]]
            for i in range(2):
                row += [g.l[i, k], g.dl[i, k], g.ddl[i, k]]
            row += [g.u[k], g.du[k], g.ddu[k]]
            assert lines[k + 1] == ",".join(format(v, ".17g") for v in row)


class TestTableExport:
    """The .npy table is what verify and stability read, and README's
    recipe makes the plotting CSV from it."""

    @pytest.mark.parametrize("scheme", ["chebyshev", "uniform"])
    @pytest.mark.parametrize("nfactors", [1, 2, 3])
    def test_readme_recipe_gives_the_one_shot_csv(
            self, constants, tmp_path, nfactors, scheme):
        config = BundleConfig(factors=STREAM_FACTORS[:nfactors])
        momentum = solver.solve_momentum(config, constants, nodes=128,
                                         scheme=scheme)
        routes = {"momentum": momentum,
                  "warm": solver.solve_shooting(config, constants,
                                                nodes=128, scheme=scheme,
                                                start=momentum),
                  "cold": solver.solve_shooting(config, constants,
                                                nodes=128, scheme=scheme)}
        signed_zeros = 0
        for route, sol in routes.items():
            out = tmp_path / route
            write_solution(str(out), sol, None)
            csv = _export_csv(out, sol)
            assert csv.read_bytes() == _one_shot_table(sol), route
            table = sol.grid.table()
            signed_zeros += np.count_nonzero((table == 0) & np.signbit(table))
        # "-0" and "0" are both written
        assert signed_zeros > 0

    @pytest.mark.parametrize("scheme", ["chebyshev", "uniform"])
    def test_csv_reads_back_as_the_npy_table_bit_for_bit(
            self, kc_config, constants, tmp_path, scheme):
        momentum = solver.solve_momentum(kc_config, constants, nodes=128,
                                         scheme=scheme)
        routes = {"momentum": momentum,
                  "warm": solver.solve_shooting(kc_config, constants,
                                                nodes=128, scheme=scheme,
                                                start=momentum),
                  "cold": solver.solve_shooting(kc_config, constants,
                                                nodes=128, scheme=scheme)}
        for route, sol in routes.items():
            out = tmp_path / route
            write_solution(str(out), sol, None)
            table = np.load(out / f"profile_{sol.method}.npy")
            assert table.flags.c_contiguous and table.shape == (10, 129)
            exported = np.loadtxt(_export_csv(out, sol), delimiter=",",
                                  skiprows=1).T
            # bit for bit: -0.0 is not 0.0
            assert exported.tobytes() == table.tobytes(), route
            assert table.tobytes() == sol.grid.table().tobytes(), route

    def test_verify_and_stability_need_no_csv(self, pipeline, tmp_path):
        # a profile CSV left in a reused output directory is neither
        # rewritten by solve nor read by verify and stability
        assert not [name for name in os.listdir(pipeline["out"])
                    if name.endswith(".csv")]
        stale = tmp_path / "stale"
        stale.mkdir()
        for method in ("momentum", "shooting"):
            (stale / f"profile_{method}.csv").write_text("t,f\nstale,0\n")
        assert run("solve", "--config", pipeline["config"], "--constants",
                   pipeline["constants"], "--out", str(stale)) == 0
        for method in ("momentum", "shooting"):
            assert ((stale / f"profile_{method}.csv").read_text()
                    == "t,f\nstale,0\n")
            for cmd, name in (("verify", f"verify_{method}.json"),
                              ("stability", f"stability_{method}.csv")):
                outputs = []
                for sol_dir in (pipeline["out"], stale):
                    out = tmp_path / f"{cmd}-{method}-{len(outputs)}"
                    assert run(cmd, "--solution", str(sol_dir), "--method",
                               method, "--out", str(out)) == 0
                    outputs.append((out / name).read_bytes())
                assert outputs[0] == outputs[1]

    def test_npy_write_holds_only_the_table(self, constants, tmp_path,
                                            monkeypatch):
        # three factors at N = 4096: the .npy file is its header and the
        # (16, 4097) table's own buffer, with no copy of it on the way
        sol = solver.solve_momentum(BundleConfig(factors=STREAM_FACTORS),
                                    constants, nodes=4096)
        monkeypatch.setattr(cli, "_write_json", lambda path, payload: None)
        sol.to_dict()  # the residuals, computed on first use
        tracemalloc.start()
        try:
            write_solution(str(tmp_path), sol, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = np.load(tmp_path / "profile_momentum.npy")
        assert np.array_equal(table, sol.grid.table())
        assert peak < 1.1 * table.nbytes


# factors of the table tests: one, two or three of them
STREAM_FACTORS = (BaseFactor(d=2, p=2.0, q=1), BaseFactor(d=4, p=3.0, q=1),
                  BaseFactor(d=2, p=3.0, q=-1))


def _one_shot_table(sol) -> bytes:
    """The profile table formatted whole, every row's string at once."""
    cols = sol.grid.table()
    fmt = ",".join(["%.17g"] * cols.shape[0])
    lines = [profile_csv_header(sol.grid.nfactors)]
    lines += [fmt % tuple(row) for row in cols.T.tolist()]
    return ("\n".join(lines) + "\n").encode()


class TestStreamedTable:
    """README's recipe streams the .npy table to text one row at a time."""

    @pytest.mark.parametrize("rows", [255, 256, 257, 512, 513, 1025])
    @pytest.mark.parametrize("nfactors", [1, 2, 3])
    def test_blocks_equal_the_one_shot_table(self, constants, tmp_path,
                                             rows, nfactors):
        # row counts on both sides of powers of two
        config = BundleConfig(factors=STREAM_FACTORS[:nfactors])
        momentum = solver.solve_momentum(config, constants, nodes=rows - 1)
        shooting = solver.solve_shooting(config, constants, nodes=rows - 1,
                                         start=momentum)
        for sol in (momentum, shooting):
            assert sol.grid.t.size == rows
            write_solution(str(tmp_path), sol, None)
            assert _export_csv(tmp_path, sol).read_bytes() == \
                _one_shot_table(sol)

    def test_write_holds_one_block_of_strings(self, constants, tmp_path):
        # three factors at N = 4096: the (16, 4097) float table is 0.5 MB,
        # a string per cell would be about 4.5 MB; neither the solve's
        # write nor the recipe's export holds more than a row of strings
        sol = solver.solve_momentum(BundleConfig(factors=STREAM_FACTORS),
                                    constants, nodes=4096)
        sol.to_dict()  # the residuals, computed on first use
        tracemalloc.start()
        try:
            write_solution(str(tmp_path), sol, None)
            _export_csv(tmp_path, sol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6
        assert (tmp_path / "profile_momentum.csv").read_bytes() == \
            _one_shot_table(sol)

    def test_table_fills_one_array(self, constants):
        # three factors at N = 4096: the profile rows are copied once into
        # the (16, 4097) result, in the header's order
        g = solver.solve_momentum(BundleConfig(factors=STREAM_FACTORS),
                                  constants, nodes=4096).grid
        tracemalloc.start()
        try:
            table = g.table()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * table.nbytes
        factor_rows = [row for i in range(3)
                       for row in (g.l[i], g.dl[i], g.ddl[i])]
        assert np.array_equal(table, np.array([
            g.t, g.f, g.df, g.ddf, *factor_rows, g.u, g.du, g.ddu]))
