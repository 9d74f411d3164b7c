import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def digest_moves(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "digest_moves", ROOT / "tools" / "digest_moves.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _listing(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


SHA = {k: k * 64 for k in "abcd"}


def test_moves_names_files_solutions_and_exit_codes(digest_moves, tmp_path,
                                                    capsys):
    # the layout output_digests.py prints: file digests, solution lines,
    # exit codes
    old = _listing(tmp_path / "old.txt", [
        f"kc/solve/profile_shooting.csv {SHA['a']}",
        f"kc/solve/solution_shooting.json {SHA['b']}",
        f"pin/seed0/constants.json {SHA['c']}",
        "kc/solve/solution_shooting.json c=0.5 T=3.25",
        "pin/seed0 exit 0",
        "kc/solve exit 0",
    ])
    new = _listing(tmp_path / "new.txt", [
        f"kc/solve/profile_shooting.csv {SHA['d']}",
        f"kc/solve/solution_shooting.json {SHA['b']}",
        f"pin/seed0/constants.json {SHA['c']}",
        f"kc/verify/verify_shooting.json {SHA['a']}",
        "kc/solve/solution_shooting.json c=0.625 T=3.25",
        "pin/seed0 exit 0",
        "kc/solve exit 3",
    ])
    assert digest_moves.main([old, new]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"kc/solve/profile_shooting.csv {SHA['a']} -> {SHA['d']}",
        f"kc/verify/verify_shooting.json - -> {SHA['a']}",
        "kc/solve/solution_shooting.json |dc|=0.12 |dT|=0",
        "kc/solve exit 0 -> 3",
        "2 file digests moved, 1 c/T lines moved, 1 exit codes changed",
    ]


def test_equal_listings_move_nothing(digest_moves, tmp_path, capsys):
    lines = [f"a.csv {SHA['a']}", "a.json c=1.0 T=2.0", "run exit 0"]
    path = _listing(tmp_path / "a.txt", lines)
    assert digest_moves.main([path, path]) == 0
    assert capsys.readouterr().out == (
        "0 file digests moved, 0 c/T lines moved, 0 exit codes changed\n")


def test_foreign_line_rejected(digest_moves, tmp_path, capsys):
    good = _listing(tmp_path / "a.txt", ["run exit 0"])
    bad = _listing(tmp_path / "b.txt", ["run exit 0", "not a listing"])
    assert digest_moves.main([good, bad]) == 1
    assert "b.txt:2: not a digest listing line" in capsys.readouterr().err
