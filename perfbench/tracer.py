"""In-memory span tracer that wraps krslab's functions from outside.

`Tracer.install()` replaces every public module-level function of the eight
krslab modules (plus the few private ones the per-layer metrics need) with a
wrapper that records a span: name, start, end, parent span and case id.  A
function imported by name into another module (``from .geometry import
ricci_components``) is replaced there too, so every call site is seen.
`Tracer.uninstall()` puts every original back.  Nothing under ``src/`` is
edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter

import numpy as np

LAYERS = ("oracle", "grids", "solver", "geometry", "stability", "algebra",
          "config", "cli")

# private functions that carry a per-layer metric
PRIVATE_SPANS = {
    "solver": ("_match_residual", "_default_guess"),
    "cli": ("_write_atomic",),
}
# private functions that are only counted: they are called too often for
# a span each, or their caller's span already holds their time
PRIVATE_COUNTS = {
    "oracle": ("_ricci_once",),
    "solver": ("_phi_integral",),
}
# class-level constructors that are the grid layer's unit of work
SCHEME_BUILDERS = ("chebyshev", "uniform")

MARK = "__perfbench_wrapped__"


def _modules():
    return {name: importlib.import_module(f"krslab.{name}") for name in LAYERS}


class Tracer:
    """Spans and counts kept in memory until the benchmark writes them out.

    A span is ``[name, start, end, parent, case, error]``; ``parent`` is the
    index of the enclosing span or None, ``error`` the type and message of
    the exception that ended it, or None.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.case = "setup"
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def begin_case(self, case_id):
        self.case = case_id
        self.stack = []
        self.counts = Counter()

    def end_case(self) -> Counter:
        counts, self.counts = self.counts, Counter()
        self.stack = []
        return counts

    def spanned(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, self.clock(), None,
                   self.stack[-1] if self.stack else None, self.case, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = f"{type(exc).__name__}: {str(exc)[:80]}"
                raise
            finally:
                rec[2] = self.clock()
                if self.stack:
                    self.stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _counted(self, name, fn, when=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is None or when():
                self.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def _innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, mods, original, new):
        """Replace `original` in every krslab module that holds it."""
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = _modules()
        hooks = self._return_hooks()
        for layer, mod in mods.items():
            names = [n for n, v in vars(mod).items()
                     if inspect.isfunction(v) and v.__module__ == mod.__name__
                     and not n.startswith("_")]
            names += PRIVATE_SPANS.get(layer, ())
            for fname in names:
                fn = getattr(mod, fname)
                span = f"{layer}.{fname}"
                self._patch_everywhere(
                    mods, fn, self.spanned(span, fn, hooks.get(span)))
            for fname in PRIVATE_COUNTS.get(layer, ()):
                fn = getattr(mod, fname)
                when = None
                if fname == "_phi_integral":
                    def when():
                        return self._innermost() == "solver.find_slope_roots"
                self._patch_everywhere(
                    mods, fn, self._counted(f"{layer}.{fname}", fn, when))

        scheme = mods["grids"].Scheme
        for builder in SCHEME_BUILDERS:
            fn = getattr(scheme, builder)
            self._patch(scheme, builder, staticmethod(self.spanned(
                f"grids.Scheme.{builder}", fn, hooks["grids.Scheme"])))

        # the shooting RHS is a closure built per branch: count its calls
        solver = mods["solver"]
        make_rhs = solver._rhs

        @functools.wraps(make_rhs)
        def counted_rhs(*args, **kwargs):
            return self._counted("solver.rhs", make_rhs(*args, **kwargs))

        setattr(counted_rhs, MARK, True)
        self._patch_everywhere(mods, make_rhs, counted_rhs)

        # one Newton direction per least-squares solve inside the shooting
        lstsq = np.linalg.lstsq
        traced_lstsq = self.spanned("solver.newton_lstsq", lstsq)

        @functools.wraps(lstsq)
        def newton_lstsq(*args, **kwargs):
            if self._innermost() == "solver.solve_shooting":
                return traced_lstsq(*args, **kwargs)
            return lstsq(*args, **kwargs)

        setattr(newton_lstsq, MARK, True)
        self._patch(np.linalg, "lstsq", newton_lstsq)

    def _return_hooks(self):
        def dense(args, kwargs, result):
            n = kwargs.get("n", args[0] if args else None)
            self.counts["grids.dense_bytes"] += 8 * (int(n) + 1) ** 2

        def roots(args, kwargs, result):
            self.counts["solver.slope_roots"] += len(result)

        def written(args, kwargs, result):
            content = kwargs.get("content", args[1] if len(args) > 1 else "")
            self.counts["cli.bytes_written"] += len(content.encode())

        def vh_dense(args, kwargs, result):
            # D @ D, diag(.), diag(.) @ D, eye, L, and the SVD's copy of L
            k = result.v.size
            self.counts["stability.vh_dense_bytes"] += 6 * 8 * k * k

        return {"grids.Scheme": dense, "solver.find_slope_roots": roots,
                "cli._write_atomic": written, "stability.v_h_solve": vh_dense}

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @staticmethod
    def leftover_wrappers() -> list:
        """Names that still hold a tracer wrapper (empty after uninstall)."""
        left = []
        mods = _modules()
        owners = [*mods.items(), ("grids.Scheme", mods["grids"].Scheme),
                  ("numpy.linalg", np.linalg)]
        for label, owner in owners:
            for attr, value in vars(owner).items():
                inner = getattr(value, "__func__", value)
                if getattr(inner, MARK, False):
                    left.append(f"{label}.{attr}")
        return left


# ---------------------------------------------------------------------------
# reduction of spans to per-layer metrics


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def _outermost(spans, name_of):
    """Indices of spans with no ancestor that has the same key."""
    keep = []
    for i, s in enumerate(spans):
        key, p = name_of(s[0]), s[3]
        while p is not None and name_of(spans[p][0]) != key:
            p = spans[p][3]
        if p is None:
            keep.append(i)
    return keep


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def shooting_newton(spans, children) -> dict:
    """Newton bookkeeping of each shooting solve from its child spans.

    Inside one solve the children run as: the initial matching call, then
    per iteration nx Jacobian columns, one least-squares direction and the
    line-search trials.  nx is the number of matching calls before the first
    direction.  A solve that ended in a line-search stall accepted no step in
    its last iteration.  (A solve cut inside its Jacobian columns would
    over-count trials; no workload case ends that way.)
    """
    steps = trials = accepted = 0
    sample = 0.0
    for i, s in enumerate(spans):
        if s[0] != "solver.solve_shooting":
            continue
        kids = [spans[k] for k in children.get(i, ())]
        seq = [k[0] for k in kids]
        n_dir = seq.count("solver.newton_lstsq")
        n_match = seq.count("solver._match_residual")
        steps += n_dir
        if n_dir:
            first = seq.index("solver.newton_lstsq")
            nx = seq[:first].count("solver._match_residual") - 1
            trials += n_match - 1 - nx * n_dir
            stalled = s[5] is not None and "line search" in s[5]
            accepted += n_dir - (1 if stalled else 0)
        if s[5] is None:
            last = max((k[2] for k in kids
                        if k[0] == "solver._match_residual"), default=s[1])
            sample += s[2] - last
    return {"steps": steps, "trials": trials, "accepted": accepted,
            "sample_s": sample}


def per_layer(spans, counts: Counter, n_passes: int) -> dict:
    """Per-layer metrics over the given spans and counts, per pass."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s[3] is not None:
            children.setdefault(s[3], []).append(i)
    selfs = self_times(spans)

    by_name = _outermost(spans, lambda n: n)

    def busy(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name
                   if spans[i][0] == name)

    def self_of(name):
        return sum(selfs[i] for i, s in enumerate(spans) if s[0] == name)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    newton = shooting_newton(spans, children)
    m = {
        "grids.scheme_calls": (calls("grids.Scheme.chebyshev")
                               + calls("grids.Scheme.uniform"), "count"),
        "grids.scheme_s": (busy("grids.Scheme.chebyshev")
                           + busy("grids.Scheme.uniform"), "s"),
        "grids.diffmat_s": (busy("grids.cheb_lobatto"), "s"),
        "grids.ccweights_s": (busy("grids.clenshaw_curtis_weights"), "s"),
        "grids.dense_bytes": (counts["grids.dense_bytes"], "computed-bytes"),
        "solver.momentum_s": (busy("solver.solve_momentum"), "s"),
        "solver.momentum_self_s": (self_of("solver.solve_momentum"), "s"),
        "solver.slope_scan_s": (busy("solver.find_slope_roots"), "s"),
        "solver.slope_phi_evals": (counts["solver._phi_integral"], "count"),
        "solver.slope_roots": (counts["solver.slope_roots"], "count"),
        "solver.shooting_s": (busy("solver.solve_shooting"), "s"),
        "solver.guess_s": (busy("solver._default_guess"), "s"),
        "solver.match_calls": (calls("solver._match_residual"), "count"),
        "solver.match_s": (busy("solver._match_residual"), "s"),
        "solver.rhs_calls": (counts["solver.rhs"], "count"),
        "solver.newton_steps": (newton["steps"], "count"),
        "solver.linesearch_accept_ratio": (
            newton["accepted"] / newton["trials"] if newton["trials"] else 0.0,
            "ratio"),
        "solver.sample_s": (newton["sample_s"], "s"),
        "solver.cross_s": (busy("solver.cross_method_disagreement"), "s"),
        "geometry.ricci_calls": (calls("geometry.ricci_components"), "count"),
        "geometry.residual_calls": (calls("solver.residual_report"), "count"),
        "geometry.residual_s": (busy("solver.residual_report"), "s"),
        "stability.table_s": (busy("stability.sign_explorer"), "s"),
        "stability.c_constant_calls": (calls("stability.c_constant"), "count"),
        "stability.vh_s": (busy("stability.v_h_solve"), "s"),
        "stability.vh_dense_bytes": (counts["stability.vh_dense_bytes"],
                                     "computed-bytes"),
        "stability.nu_s": (busy("stability.nu_estimate"), "s"),
        "algebra.pairing_checks": (
            calls("algebra.anti_invariant_pairing_vanishes"), "count"),
        "algebra.pairing_s": (busy("algebra.anti_invariant_pairing_vanishes"),
                              "s"),
        "config.load_s": (busy("config.load_run_config"), "s"),
        "cli.write_s": (busy("cli.write_solution"), "s"),
        "cli.read_s": (self_of("cli.read_solution"), "s"),
        "cli.bytes_written": (counts["cli.bytes_written"], "bytes"),
    }
    by_layer = _outermost(spans, layer_of)
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = (sum(spans[i][2] - spans[i][1] for i in by_layer
                                    if layer_of(spans[i][0]) == layer), "s")
        m[f"{layer}.self_s"] = (sum(selfs[i] for i, s in enumerate(spans)
                                    if layer_of(s[0]) == layer), "s")
    out = {}
    for name, (value, unit) in m.items():
        if unit != "ratio":
            value = value / n_passes
        out[name] = {"value": value, "unit": unit}
    return out


def subset(spans, cases) -> list:
    """The spans of the given cases, with parent indices renumbered."""
    index, out = {}, []
    for i, s in enumerate(spans):
        if s[4] in cases:
            index[i] = len(out)
            out.append([*s[:3], index.get(s[3]), *s[4:]])
    return out


def check_spans(spans) -> list:
    """Problems with the span tree: negative self time, or self times that
    do not add up to the time covered by the root spans."""
    problems = []
    selfs = self_times(spans)
    tol = 1e-9 * max(1, len(spans))
    if any(s < -tol for s in selfs):
        problems.append(f"negative self time {min(selfs):.3e} s")
    if any(s[2] is None for s in spans):
        problems.append("unclosed span")
        return problems
    roots = sum(s[2] - s[1] for s in spans if s[3] is None)
    if not math.isclose(sum(selfs), roots, rel_tol=1e-9, abs_tol=tol):
        problems.append(f"self times sum to {sum(selfs):.9f} s, "
                        f"root spans cover {roots:.9f} s")
    return problems
