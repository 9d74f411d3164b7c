"""Static hygiene checks on the package sources (stdlib ``ast`` only)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "krslab"
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict:
    """Names bound by module-level imports, mapped to their line numbers."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names listed in __all__ count as used (explicit re-exports)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted((line, name) for name, line in _imported_names(tree).items()
                  if name not in used)


def nested_imports(source: str) -> list:
    """(line, kind) of every import below module level and every
    ``__import__`` call."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
            found.append((node.lineno, "import"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "__import__"):
            found.append((node.lineno, "__import__"))
    return sorted(found)


def test_sources_found():
    assert {p.name for p in MODULES} >= {"grids.py", "solver.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_and_ignores_future():
    src = ("from __future__ import annotations\n"
           "import json\n"
           "import numpy as np\n"
           "import scipy.fft\n"
           "from dataclasses import dataclass, field\n"
           "x = np.zeros(3) + scipy.fft.dct(np.ones(2))\n"
           "@dataclass\nclass A:\n    y: int = 0\n")
    assert unused_imports(src) == [(2, "json"), (5, "field")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_detector_flags_nested_imports_and_dunder_import():
    src = ("import json\n"
           "def f():\n"
           "    from fractions import Fraction\n"
           "    return Fraction(1)\n"
           "class A:\n"
           "    def g(self):\n"
           "        import os\n"
           "        return __import__('math').pi\n")
    assert nested_imports(src) == [(3, "import"), (7, "import"),
                                   (8, "__import__")]


def dataclass_fields(source: str, classes: tuple) -> dict:
    """Annotated field names of the named classes, mapped to the class."""
    fields = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name in classes:
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    fields[stmt.target.id] = node.name
    return fields


def attributes_read(sources) -> set:
    """Every attribute name read (``x.name`` in load context) in the
    sources."""
    return {node.attr for src in sources for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_fields(config_source: str, classes: tuple, other_sources) -> list:
    read = attributes_read(other_sources)
    return sorted(f"{cls}.{name}" for name, cls in
                  dataclass_fields(config_source, classes).items()
                  if name not in read)


def test_every_run_config_field_is_read():
    """A RunConfig or Tolerances field that no other module reads is a
    config option that does nothing."""
    config = SRC / "config.py"
    others = [p.read_text() for p in MODULES if p != config]
    assert unread_fields(config.read_text(), ("RunConfig", "Tolerances"),
                         others) == []


def test_detector_flags_unread_fields():
    config = ("class RunConfig:\n"
              "    nodes: int = 1\n"
              "    knob: float = 2.0\n"
              "    def check(self):\n"
              "        return self.knob\n"
              "class Other:\n"
              "    extra: int = 0\n")
    user = ("def solve(run):\n"
            "    run.knob_count = 3\n"
            "    return run.nodes\n")
    assert unread_fields(config, ("RunConfig",), [user]) == ["RunConfig.knob"]


TRACER = SRC.parents[1] / "perfbench" / "tracer.py"
TRACER_TABLES = ("PRIVATE_SPANS", "PRIVATE_COUNTS", "SCHEME_BUILDERS")


def module_constants(source: str, names: tuple) -> dict:
    """Values of the named module-level constants, by ``ast.literal_eval``."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    found[target.id] = ast.literal_eval(node.value)
    return found


def defined_functions(source: str) -> set:
    """Module-level functions, and ``Class.method`` for every method of a
    module-level class."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names |= {f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, ast.FunctionDef)}
    return names


def missing_traced_functions(tracer_source: str, sources: dict) -> list:
    """``module.function`` names the benchmark tracer wraps by name (its
    private spans and counts, the scheme builders, and the shooting RHS)
    that no package module defines; ``sources`` maps module name to
    source."""
    tables = module_constants(tracer_source, TRACER_TABLES)
    wanted = {f"{mod}.{fn}"
              for table in (tables["PRIVATE_SPANS"], tables["PRIVATE_COUNTS"])
              for mod, fns in table.items() for fn in fns}
    wanted |= {f"grids.Scheme.{b}" for b in tables["SCHEME_BUILDERS"]}
    wanted.add("solver._rhs")
    defined = {f"{mod}.{name}" for mod, src in sources.items()
               for name in defined_functions(src)}
    return sorted(wanted - defined)


def test_traced_private_functions_exist():
    """The benchmark's tracer finds these by name; renaming one breaks its
    per-layer metrics without failing any other test."""
    assert missing_traced_functions(
        TRACER.read_text(), {p.stem: p.read_text() for p in MODULES}) == []


def test_detector_flags_missing_traced_functions():
    tracer = ('PRIVATE_SPANS = {"solver": ("_match_residual", "_gone")}\n'
              'PRIVATE_COUNTS = {"oracle": ("_ricci_once",)}\n'
              'SCHEME_BUILDERS = ("chebyshev", "legendre")\n')
    sources = {
        "solver": "def _match_residual():\n    pass\n"
                  "def _rhs(config, constants):\n    pass\n",
        "oracle": "def _ricci_once():\n    pass\n",
        "grids": "class Scheme:\n    @staticmethod\n"
                 "    def chebyshev(n):\n        pass\n",
    }
    assert missing_traced_functions(tracer, sources) == [
        "grids.Scheme.legendre", "solver._gone"]
    del sources["solver"]
    assert "solver._rhs" in missing_traced_functions(tracer, sources)
