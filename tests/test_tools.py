import ast
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def digest_moves(monkeypatch):
    return _tool(monkeypatch, "digest_moves")


@pytest.fixture
def output_digests(monkeypatch):
    return _tool(monkeypatch, "output_digests")


def _listing(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


SHA = {k: k * 64 for k in "abcd"}


def test_moves_names_files_solutions_and_exit_codes(digest_moves, tmp_path,
                                                    capsys):
    # the layout output_digests.py prints: file digests, solution lines,
    # file modes, exit codes
    old = _listing(tmp_path / "old.txt", [
        f"kc/solve/profile_shooting.csv {SHA['a']}",
        f"kc/solve/solution_shooting.json {SHA['b']}",
        f"pin/seed0/constants.json {SHA['c']}",
        "kc/solve/solution_shooting.json c=0.5 T=3.25",
        "kc/solve/profile_shooting.csv mode 600",
        "kc/solve/solution_shooting.json mode 644",
        "pin/seed0/constants.json mode 600",
        "pin/seed0 exit 0",
        "kc/solve exit 0",
    ])
    new = _listing(tmp_path / "new.txt", [
        f"kc/solve/profile_shooting.csv {SHA['d']}",
        f"kc/solve/solution_shooting.json {SHA['b']}",
        f"pin/seed0/constants.json {SHA['c']}",
        f"kc/verify/verify_shooting.json {SHA['a']}",
        "kc/solve/solution_shooting.json c=0.625 T=3.25",
        "kc/solve/profile_shooting.csv mode 644",
        "kc/solve/solution_shooting.json mode 644",
        "kc/verify/verify_shooting.json mode 644",
        "pin/seed0/constants.json mode 600",
        "pin/seed0 exit 0",
        "kc/solve exit 3",
    ])
    assert digest_moves.main([old, new]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"kc/solve/profile_shooting.csv {SHA['a']} -> {SHA['d']}",
        "kc/solve/profile_shooting.csv mode 600 -> 644",
        f"kc/verify/verify_shooting.json added {SHA['a']} mode 644",
        "kc/solve/solution_shooting.json |dc|=0.12 |dT|=0",
        "kc/solve exit 0 -> 3",
        "1 file digests moved, 1 file modes changed, 1 files added, "
        "0 files removed, 1 c/T lines moved, 1 exit codes changed",
    ]


def test_added_and_removed_files_are_counted_on_their_own(
        digest_moves, tmp_path, capsys):
    # new outputs beside unchanged ones are no moved digest: only the
    # files in both listings can move
    old = _listing(tmp_path / "old.txt", [
        f"kc/solve/profile_momentum.csv {SHA['a']}",
        f"kc/solve/old_report.json {SHA['b']}",
        "kc/solve/profile_momentum.csv mode 644",
        "kc/solve/old_report.json mode 600",
        "kc/solve exit 0",
    ])
    new = _listing(tmp_path / "new.txt", [
        f"kc/solve/profile_momentum.csv {SHA['a']}",
        f"kc/solve/profile_momentum.npy {SHA['c']}",
        f"kc/solve/profile_shooting.npy {SHA['d']}",
        "kc/solve/profile_momentum.csv mode 644",
        "kc/solve/profile_momentum.npy mode 644",
        "kc/solve/profile_shooting.npy mode 644",
        "kc/solve exit 0",
    ])
    assert digest_moves.main([old, new]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"kc/solve/profile_momentum.npy added {SHA['c']} mode 644",
        f"kc/solve/profile_shooting.npy added {SHA['d']} mode 644",
        f"kc/solve/old_report.json removed {SHA['b']} mode 600",
        "0 file digests moved, 0 file modes changed, 2 files added, "
        "1 files removed, 0 c/T lines moved, 0 exit codes changed",
    ]


def test_mode_change_alone_is_not_a_digest_move(digest_moves, tmp_path,
                                                capsys):
    # equal bytes written with another mode: only the mode line moves
    old = _listing(tmp_path / "old.txt", [f"a.csv {SHA['a']}",
                                          "a.csv mode 600", "run exit 0"])
    new = _listing(tmp_path / "new.txt", [f"a.csv {SHA['a']}",
                                          "a.csv mode 644", "run exit 0"])
    assert digest_moves.main([old, new]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a.csv mode 600 -> 644",
        "0 file digests moved, 1 file modes changed, 0 files added, "
        "0 files removed, 0 c/T lines moved, 0 exit codes changed",
    ]


def test_digests_list_contents_solutions_then_modes(output_digests,
                                                    digest_moves, tmp_path):
    (tmp_path / "solve").mkdir()
    meta = tmp_path / "solve" / "solution_momentum.json"
    meta.write_text('{"c_slope": 0.5, "T": 3.25}')
    table = tmp_path / "solve" / "profile_momentum.csv"
    table.write_text("t,f\n")
    binary = tmp_path / "solve" / "profile_momentum.npy"
    np.save(binary, np.zeros((2, 3)))
    os.chmod(meta, 0o644)
    os.chmod(table, 0o600)
    os.chmod(binary, 0o640)
    lines = output_digests.digests(str(tmp_path))
    sha = {p: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in (meta, table, binary)}
    assert lines == [
        f"solve/profile_momentum.csv {sha[table]}",
        f"solve/profile_momentum.npy {sha[binary]}",
        f"solve/solution_momentum.json {sha[meta]}",
        "solve/solution_momentum.json c=0.5 T=3.25",
        "solve/profile_momentum.csv mode 600",
        "solve/profile_momentum.npy mode 640",
        "solve/solution_momentum.json mode 644",
    ]
    # and digest_moves reads every line of it back
    digests, modes, solutions, _ = digest_moves.parse(
        _listing(tmp_path / "listing.txt", lines))
    assert modes == {"solve/profile_momentum.csv": "600",
                     "solve/profile_momentum.npy": "640",
                     "solve/solution_momentum.json": "644"}
    assert len(digests) == 3 and len(solutions) == 1


def test_command_set_covers_fuzz_and_the_uniform_scheme(output_digests,
                                                       tmp_path):
    runs = dict(output_digests.commands(str(tmp_path)))
    for seed in (0, 42):
        argv = runs[f"fuzz/seed{seed}"]
        assert argv[:5] == ("fuzz-algebra", "--seed", seed, "--trials", 200)
    config = json.loads((tmp_path / "inputs" / "kc_uniform.json").read_text())
    assert config["grid"] == {"nodes": 256, "scheme": "uniform"}
    assert config["method"] == "both"
    # the large base and the two huge bases, each solved in its frame
    for name, factor in (("large_base", [2, 1e5, 1]),
                         ("huge_base", [2, 1e300, 1]),
                         ("huge_cp2_base", [4, 1e200, 1])):
        for method in ("both", "shooting"):
            config = json.loads(
                (tmp_path / "inputs" / f"{name}-{method}.json").read_text())
            assert config["grid"]["nodes"] == 128
            assert config["method"] == method
            assert [[f["dim"], f["einstein_constant"], f["twist"]]
                    for f in config["factors"]] == [factor]
            assert f"crosscheck/{name}-{method}" in runs
    labels = [k for k in runs if k.startswith("kc_uniform/")]
    assert labels == ["kc_uniform/solve"] + [
        f"kc_uniform/{cmd}-{method}{extra}"
        for cmd in ("verify", "stability")
        for method in ("momentum", "shooting") for extra in ("", "-config")]


@pytest.fixture
def stability_listing(output_digests, tmp_path, monkeypatch):
    """The stability layer run on one Koiso-Cao pipeline at N = 256 under
    tmp_path: the set of paths its listing names."""
    kc = [[2, 2.0, 1, 1.0]]
    monkeypatch.setattr(output_digests, "PIPELINES",
                        (("kc", kc, 256, "chebyshev"),))
    constants = tmp_path / "constants.json"
    assert output_digests.krs("pin-constants", "--seed", 0, "--out",
                              constants) == 0
    config = output_digests.run_config(str(tmp_path / "kc.json"), kc, 256,
                                       "both", "chebyshev")
    assert output_digests.krs("solve", "--config", config, "--constants",
                              constants, "--out",
                              tmp_path / "kc" / "solve") == 0
    output_digests.stability_layer(str(tmp_path))
    return {line.split()[0]
            for line in output_digests.digests(str(tmp_path))}


def test_listing_names_the_stability_layer_files(stability_listing,
                                                 tmp_path):
    names = stability_listing
    calls = ["0-T20", "1-T8", "2-T1", "3-T20"]
    for method in ("momentum", "shooting"):
        # the solve's table and metadata, and no profile CSV
        assert {f"kc/solve/profile_{method}.npy",
                f"kc/solve/solution_{method}.json"} <= names
        assert f"kc/solve/profile_{method}.csv" not in names
        vh = f"kc/vh-{method}"
        assert f"{vh}/spectrum.txt" in names
        for call in calls:
            assert {f"{vh}/{call}/{key}.txt" for key in (
                "v", "residual", "smallest_singular_value", "degree")} <= names
        # highest degree first, then prefixes of it, then a warm call
        assert [(tmp_path / vh / call / "degree.txt").read_text()
                for call in calls] == ["64\n", "32\n", "16\n", "64\n"]


def test_listing_names_the_pairing_constants_and_entropy(
        output_digests, stability_listing, tmp_path):
    # the rest of what a stability-vh case calls, each value as %.17g
    from krslab import cli, stability

    for method in ("momentum", "shooting"):
        vh = f"kc/vh-{method}"
        sol = cli.read_solution(str(tmp_path / "kc" / "solve"), method)
        nu = stability.nu_estimate(sol, stability.EntropyGauge())
        expected = {
            "c_anti_invariant": 0.0, "c_metric_direction": 1.0,
            "c_custom": stability.c_constant(sol, "custom",
                                             output_digests.custom_h(sol)),
            "nu_value": nu["value"],
            "nu_constancy_deviation": nu["constancy_deviation"]}
        for key, value in expected.items():
            assert f"{vh}/{key}.txt" in stability_listing
            text = (tmp_path / vh / f"{key}.txt").read_text()
            assert text == f"{value:.17g}\n"


def test_custom_h_varies_in_t_and_per_factor(output_digests):
    sol = SimpleNamespace(grid=SimpleNamespace(t=np.linspace(0.0, 2.0, 5),
                                               T=2.0),
                          config=SimpleNamespace(r=2))
    h = output_digests.custom_h(sol)
    assert h["h_NN"].shape == h["h_UU"].shape == (5,)
    assert h["h_i"].shape == (2, 5)
    assert np.ptp(h["h_NN"]) > 0 and np.ptp(h["h_UU"]) > 0
    assert np.all(h["h_i"][1] != h["h_i"][0])


def test_equal_listings_move_nothing(digest_moves, tmp_path, capsys):
    lines = [f"a.csv {SHA['a']}", "a.json c=1.0 T=2.0", "run exit 0"]
    path = _listing(tmp_path / "a.txt", lines)
    assert digest_moves.main([path, path]) == 0
    assert capsys.readouterr().out == (
        "0 file digests moved, 0 file modes changed, 0 files added, "
        "0 files removed, 0 c/T lines moved, 0 exit codes changed\n")


def test_foreign_line_rejected(digest_moves, tmp_path, capsys):
    good = _listing(tmp_path / "a.txt", ["run exit 0"])
    bad = _listing(tmp_path / "b.txt", ["run exit 0", "not a listing"])
    assert digest_moves.main([good, bad]) == 1
    assert "b.txt:2: not a digest listing line" in capsys.readouterr().err


# the benchmark's own checks: a change to src/ that breaks perfbench (a
# private name its tracer wraps, a workload's check) fails here; both
# write only under .perfbench-out/


def _perfbench(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


def test_perfbench_selftest_passes():
    done = _perfbench("perfbench/selftest.py")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "perfbench self-tests passed" in done.stdout


def test_perfbench_one_pass_of_each_workload_is_correct():
    done = _perfbench("perfbench/run.py", "--workload", "all", "--seed", "1",
                      "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith('{"correct": ')]
    assert len(results) == 3, done.stdout
    assert all(r["correct"] is True for r in results), done.stdout



def test_readme_library_use_block_runs(tmp_path):
    # the first fenced python block under README's "## Library use", run as
    # it stands; its first line prints the Koiso-Cao slope roots
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    script = tmp_path / "library_use.py"
    script.write_text(re.search(r"```python\n(.*?)```", section, re.S)[1])
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True,
        text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stdout + done.stderr
    roots = ast.literal_eval(done.stdout.splitlines()[0])
    assert len(roots) == 1
    assert abs(roots[0] - 0.5276195198969628) <= 1e-12
