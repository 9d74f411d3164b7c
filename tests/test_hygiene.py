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


_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                    "Counter", "deque"}
_FILLING_METHODS = {"append", "appendleft", "extend", "insert", "update",
                    "setdefault", "add", "__setitem__"}


def _is_container(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return True
    func = value.func if isinstance(value, ast.Call) else None
    name = (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)
    return name in _CONTAINER_CALLS


def _memoized(node: ast.FunctionDef) -> bool:
    """A functools ``cache`` / ``lru_cache`` decorator on a function that
    takes arguments: a memo keyed by them, kept for the process."""
    names = set()
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        names.add(dec.id if isinstance(dec, ast.Name)
                  else dec.attr if isinstance(dec, ast.Attribute) else "")
    args = node.args
    takes = (args.posonlyargs or args.args or args.kwonlyargs
             or args.vararg or args.kwarg)
    return bool(names & {"cache", "lru_cache"}) and bool(takes)


def module_level_caches(source: str) -> list:
    """(line, name) of every module-level dict, list or set (a display, a
    comprehension or a constructor call) that a function of the module
    fills, by item assignment, a filling method or a ``global`` rebinding,
    and of every function memoized on its arguments.  Such a cache outlives
    the solutions it was filled from and grows with them; a cache belongs
    on the record it is computed from, where ``dataclasses.replace`` drops
    it."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if _is_container(value):
            bound.update((t.id, node.lineno) for t in targets
                         if isinstance(t, ast.Name))
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if _memoized(func):
            found.add((func.lineno, f"{func.name}()"))
        for node in ast.walk(func):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(node.value, ast.Name)):
                names = [node.value.id]
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _FILLING_METHODS
                  and isinstance(node.func.value, ast.Name)):
                names = [node.func.value.id]
            elif isinstance(node, ast.Global):
                names = node.names
            else:
                continue
            found.update((bound[n], n) for n in names if n in bound)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_caches(path):
    assert module_level_caches(path.read_text()) == []


def test_detector_flags_module_level_caches():
    src = ("import functools\n"
           "from functools import cache\n"
           "_MEMO = {}\n"
           "_SEEN: list = []\n"
           "_BY_N = dict()\n"
           "_TOTAL = []\n"
           "NAMES = {'a': 1}\n"
           "KINDS = ['x', 'y']\n"
           "def solve(key, sol):\n"
           "    if key not in _MEMO:\n"
           "        _MEMO[key] = sol\n"
           "    _SEEN.append(key)\n"
           "    _BY_N.setdefault(key, sol)\n"
           "    return NAMES[key], KINDS[0]\n"
           "def reset():\n"
           "    global _TOTAL\n"
           "    _TOTAL = _TOTAL + [1]\n"
           "@cache\n"
           "def frozen():\n"
           "    return 1\n"
           "@functools.lru_cache(maxsize=None)\n"
           "def grid(n):\n"
           "    return n\n"
           "class Record:\n"
           "    def measure(self):\n"
           "        local = {}\n"
           "        local['w'] = 1\n"
           "        return local\n")
    assert module_level_caches(src) == [
        (3, "_MEMO"), (4, "_SEEN"), (5, "_BY_N"), (6, "_TOTAL"),
        (22, "grid()")]


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


PERFBENCH = SRC.parents[1] / "perfbench"

# defaults that no call in the package or the benchmark sets, each with the
# reason it stays a parameter
UNSET_DEFAULTS = {
    "skew_pairing.check": "the acceptance gate passes it",
    "v_h_solve.kernel_tol": "the acceptance gate passes it",
}


def _decorated(node, name: str) -> bool:
    return any((isinstance(d, ast.Name) and d.id == name)
               or (isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                   and d.func.id == name) for d in node.decorator_list)


def settable_defaults(source: str) -> list:
    """(name, callee, receivers, (param, position)) for every parameter
    default and dataclass-field default.  name is ``[Class.]function.param`` or
    ``Class.field``; a call sets it when it names ``callee`` and passes
    ``param`` by keyword or reaches its position.  ``receivers`` restricts
    the ``x.callee(...)`` forms that count for a static or class method
    (``Class.m``, ``cls.m``); None accepts any call by that name."""
    found = []

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _decorated(child, "dataclass"):
                    fields = [s for s in child.body
                              if isinstance(s, ast.AnnAssign)
                              and isinstance(s.target, ast.Name)]
                    found.extend(
                        (f"{child.name}.{s.target.id}", child.name, None,
                         (s.target.id, pos))
                        for pos, s in enumerate(fields) if s.value is not None)
                visit(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                params = args.posonlyargs + args.args
                first = len(params) - len(args.defaults)
                receivers = None
                if owner is not None:
                    static = _decorated(child, "staticmethod")
                    if not static:  # drop self or cls
                        params, first = params[1:], first - 1
                    if static or _decorated(child, "classmethod"):
                        receivers = {owner, "cls"}
                for pos in range(first, len(params)):
                    found.append((f"{prefix}{child.name}.{params[pos].arg}",
                                  child.name, receivers,
                                  (params[pos].arg, pos)))
                found.extend(
                    (f"{prefix}{child.name}.{arg.arg}", child.name,
                     receivers, (arg.arg, None))
                    for arg, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None)
                visit(child, f"{prefix}{child.name}.", None)
            else:
                visit(child, prefix, owner)

    visit(ast.parse(source), "", None)
    return found


def calls_made(sources) -> list:
    """(callee, receiver, keys, complete) of every call: a plain
    ``callee(...)`` call has receiver None, ``a.b.callee(...)`` receiver
    ``b``; keys are the keywords it passes and the positions it reaches,
    and complete is False when a ``*`` or ``**`` argument may pass more."""
    found = []
    for src in sources:
        for node in ast.walk(ast.parse(src)):
            if not isinstance(node, ast.Call):
                continue
            func, receiver = node.func, None
            if isinstance(func, ast.Attribute):
                value = func.value
                receiver = (value.id if isinstance(value, ast.Name)
                            else value.attr if isinstance(value, ast.Attribute)
                            else "")
                callee = func.attr
            elif isinstance(func, ast.Name):
                callee = func.id
            else:
                continue
            keys = {k.arg for k in node.keywords if k.arg is not None}
            complete = len(keys) == len(node.keywords)
            for pos, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    complete = False
                    break
                keys.add(pos)
            found.append((callee, receiver, keys, complete))
    return found


def call_settings(sources) -> dict:
    """(callee, keyword or position) -> receivers of every call that sets
    it."""
    sets = {}
    for callee, receiver, keys, _ in calls_made(sources):
        for key in keys:
            sets.setdefault((callee, key), set()).add(receiver)
    return sets


def unset_defaults(package_sources, caller_sources) -> list:
    """Names of the defaults in the package that no call in the callers
    sets: a value only tests set is a constant, not an option."""
    sets = call_settings(caller_sources)
    unset = []
    for src in package_sources:
        for name, callee, receivers, (param, pos) in settable_defaults(src):
            seen = (sets.get((callee, param), set())
                    | sets.get((callee, pos), set()))
            if not (seen if receivers is None else seen & receivers):
                unset.append(name)
    return sorted(unset)


TOOLS = SRC.parents[1] / "tools"


def _callers() -> list:
    return [p.read_text() for p in MODULES + sorted(PERFBENCH.glob("*.py"))
            + sorted(TOOLS.glob("*.py"))]


def test_every_default_is_set_by_a_caller():
    assert unset_defaults([p.read_text() for p in MODULES],
                          _callers()) == sorted(UNSET_DEFAULTS)


# parameter defaults that every call in the package, the benchmark and the
# tools passes, each with the reason it stays a default
UNOMITTED_DEFAULTS = {
    "anti_invariant_facts.k": "acceptance test_08 calls it without k",
}


def unomitted_defaults(package_sources, caller_sources) -> list:
    """Names of the parameter defaults in the package that no call in the
    callers leaves out: a default that every caller overrides is a required
    argument spelled twice.  Dataclass-field defaults are not counted: a
    record's defaults are read by name (``RunConfig.nodes``) as well."""
    calls = calls_made(caller_sources)
    unomitted = []
    for src in package_sources:
        classes = {n.name for n in ast.walk(ast.parse(src))
                   if isinstance(n, ast.ClassDef)}
        for name, callee, receivers, (param, pos) in settable_defaults(src):
            if callee in classes:
                continue
            if not any(c == callee and complete and param not in keys
                       and pos not in keys
                       and (receivers is None or receiver in receivers)
                       for c, receiver, keys, complete in calls):
                unomitted.append(name)
    return sorted(unomitted)


def test_every_default_is_omitted_by_a_caller():
    assert unomitted_defaults([p.read_text() for p in MODULES],
                              _callers()) == sorted(UNOMITTED_DEFAULTS)


def test_detector_flags_unomitted_defaults():
    package = ("from dataclasses import dataclass\n"
               "@dataclass(frozen=True)\n"
               "class Gauge:\n"
               "    name: str\n"
               "    mode: str = 'ratio'\n"
               "class Scheme:\n"
               "    @staticmethod\n"
               "    def build(n, a=0.0, b=1.0):\n"
               "        pass\n"
               "    def scaled(self, k=2):\n"
               "        pass\n"
               "def solve(config, nodes=8, *, rtol=1e-12, seed=0):\n"
               "    def match(x, base=None):\n"
               "        pass\n"
               "    match(config, None)\n")
    caller = ("gauge = stability.Gauge('g', 'abs')\n"
              "Scheme.build(1, b=3)\n"
              "rng.build(1)\n"
              "grid.scaled()\n"
              "solver.solve(c, 16, rtol=1e-9)\n"
              "solver.solve(c, 32, *extra)\n"
              "solve(c, 64, **options)\n")
    # Gauge.mode is a record field; rng.build is not Scheme.build; a call
    # with *extra or **options may pass rtol
    assert unomitted_defaults([package], [package, caller]) == [
        "Scheme.build.b", "solve.match.base", "solve.nodes", "solve.rtol"]


# the package's settable values (parameter and dataclass-field defaults)
SETTABLE_CEILING = 23


def test_settable_values_do_not_grow():
    count = sum(len(settable_defaults(p.read_text())) for p in MODULES)
    assert count <= SETTABLE_CEILING, (
        f"{count} settable values, more than {SETTABLE_CEILING}: give each "
        "new one a reason in CHANGES.md and raise the ceiling with it")


def test_detector_flags_unset_defaults():
    package = ("from dataclasses import dataclass\n"
               "@dataclass(frozen=True)\n"
               "class Gauge:\n"
               "    name: str\n"
               "    mode: str = 'ratio'\n"
               "    V0: float = 1.0\n"
               "class Scheme:\n"
               "    @staticmethod\n"
               "    def build(n, a=0.0, b=1.0):\n"
               "        pass\n"
               "    @classmethod\n"
               "    def of(cls, n, a=0.0):\n"
               "        return cls.build(n, a)\n"
               "    def scaled(self, k=2):\n"
               "        pass\n"
               "def solve(config, nodes=8, *, rtol=1e-12, seed=0):\n"
               "    def match(x, base=None):\n"
               "        pass\n"
               "    match(config)\n")
    caller = ("gauge = stability.Gauge('g', 'abs')\n"
              "Scheme.of(4)\n"
              "rng.build(1, 2, 3)\n"
              "grid.scaled(3)\n"
              "solver.solve(c, seed=1, *extra)\n")
    assert unset_defaults([package], [package, caller]) == [
        "Gauge.V0", "Scheme.build.b", "Scheme.of.a", "solve.match.base",
        "solve.nodes", "solve.rtol"]


def test_detector_flags_a_restored_initial_guess():
    # solve_shooting(x0) selected a second cold start no caller asked for
    solver = SRC / "solver.py"
    old = "                   rtol: float = Tolerances.ode,\n"
    source = solver.read_text()
    assert old in source
    restored = source.replace(
        old, "                   x0: Optional[np.ndarray] = None,\n" + old)
    sources = [restored if p == solver else p.read_text() for p in MODULES]
    assert unset_defaults(sources, _callers()) == sorted(
        [*UNSET_DEFAULTS, "solve_shooting.x0"])


# functions that must give one point alone the bits it gets among many: a
# power can round differently for a float than for an array element, a
# product or a quotient cannot
PRODUCTS_ONLY = {"geometry": ("ricci_frame",),
                 "solver": ("_rhs", "_launch_state")}


def powers_in(source: str, names: tuple) -> list:
    """(function, line) of every ``**`` and ``**=`` in the named
    module-level functions, nested functions included."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            found.extend(
                (node.name, n.lineno) for n in ast.walk(node)
                if isinstance(n, (ast.BinOp, ast.AugAssign))
                and isinstance(n.op, ast.Pow))
    return sorted(found)


@pytest.mark.parametrize("module", sorted(PRODUCTS_ONLY))
def test_point_formulas_have_no_powers(module):
    source = (SRC / f"{module}.py").read_text()
    names = PRODUCTS_ONLY[module]
    assert set(names) <= defined_functions(source)
    assert powers_in(source, names) == []


def test_detector_flags_powers():
    source = ("def f(x):\n"
              "    return x * x\n"
              "def g(x):\n"
              "    def h(y):\n"
              "        return y ** 4\n"
              "    x **= 2\n"
              "    return h\n"
              "def k(x):\n"
              "    return x ** 2\n")
    assert powers_in(source, ("f", "g")) == [("g", 5), ("g", 6)]


# the reads a profile table could take besides the one mapped .npy reader,
# ``np.lib.format.open_memmap`` in ``cli.read_solution``
ARRAY_READERS = {"load", "loadtxt", "genfromtxt", "fromfile", "read_array"}


def array_readers(source: str) -> list:
    """(line, name) of every numpy array reader of ``ARRAY_READERS`` that
    the source calls through ``np`` or ``numpy`` (``np.lib.format.read_array``
    included) or imports from a numpy module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(
                ".")[0] == "numpy":
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name in ARRAY_READERS)
        elif isinstance(node, ast.Call) and isinstance(node.func,
                                                       ast.Attribute):
            parts, value = [], node.func
            while isinstance(value, ast.Attribute):
                parts.insert(0, value.attr)
                value = value.value
            if (isinstance(value, ast.Name) and value.id in ("np", "numpy")
                    and parts[-1] in ARRAY_READERS):
                found.append((node.lineno, ".".join([value.id, *parts])))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_table_reader(path):
    assert array_readers(path.read_text()) == []


def test_detector_flags_array_readers():
    source = ("import json\n"
              "import numpy as np\n"
              "from numpy import loadtxt, save\n"
              "from numpy.lib.format import read_array\n"
              "a = np.load('t.npy', allow_pickle=False)\n"
              "b = np.loadtxt('t.csv')\n"
              "c = np.fromfile('t.bin')\n"
              "d = np.lib.format.read_array(fh)\n"
              "e = numpy.genfromtxt('t.csv')\n"
              "f = np.lib.format.open_memmap('t.npy', mode='r')\n"
              "g = json.load(fh)\n"
              "np.save('t.npy', f)\n")
    assert array_readers(source) == [
        (3, "loadtxt"), (4, "read_array"), (5, "np.load"), (6, "np.loadtxt"),
        (7, "np.fromfile"), (8, "np.lib.format.read_array"),
        (9, "numpy.genfromtxt")]
