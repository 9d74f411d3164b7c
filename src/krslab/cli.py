"""Batch front door: pin-constants -> solve -> verify -> stability, plus the
randomized algebra fuzzer.

All outputs are JSON (reports), CSV (the stability table) or .npy (the
exact profile table that verify and stability map back), each written
through ``_atomic_file`` (temp file + rename), deterministic for a fixed
seed.  Exit codes: 0 ok, 1 config error (a usage error too), 2 oracle
failure, 3 no soliton found, 4 identity failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from .config import (SOLUTION_METHODS, ConfigError, Tolerances,
                     load_run_config, read_json)
from .geometry import PinnedConstants, TableMismatchError, TableShapeError
from .oracle import OracleError, pin_constants
from . import algebra, solver, stability

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ORACLE = 2
EXIT_NO_SOLITON = 3
EXIT_IDENTITY = 4


# ---------------------------------------------------------------------------
# atomic, deterministic file output


@contextlib.contextmanager
def _atomic_file(path: str, mode: str):
    """A file opened with ``mode`` ("w" or "wb") on a temp file beside
    ``path``, renamed over ``path`` when the block ends: a reader sees the
    old file or the whole new one, and on any exception the temp file is
    removed and ``path`` is left as it was.  The file gets mode 0o666 less
    the umask, as ``open`` would give it."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_atomic(path: str, content: str):
    """``content`` to ``path`` via ``_atomic_file``; perfbench's tracer spans
    it by name and counts ``content`` as ``cli.bytes_written``."""
    with _atomic_file(path, "w") as fh:
        fh.write(content)


def _write_json(path: str, payload: dict):
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# solution (de)serialization


def write_solution(out_dir: str, sol: solver.SolitonSolution,
                   cross_method: float | None):
    """Write ``profile_<method>.npy`` and ``solution_<method>.json``, with
    the pair's ``cross_method`` beside the residuals unless it is None (one
    route).  The .npy file is the float table ``grid.table()`` as it is, its
    header then its own buffer."""
    with _atomic_file(os.path.join(out_dir, f"profile_{sol.method}.npy"),
                      "wb") as fh:
        np.save(fh, sol.grid.table(), allow_pickle=False)
    meta = sol.to_dict()
    if cross_method is not None:
        meta["residuals"]["cross_method"] = cross_method
    _write_json(os.path.join(out_dir, f"solution_{sol.method}.json"), meta)


def read_solution(sol_dir: str, method: str) -> solver.SolitonSolution:
    """The solution ``write_solution`` wrote for ``method``, from its JSON
    and its ``.npy`` table, mapped in ``ProfileGrid.table``'s layout; the
    method stored must be the one the name says.  A table that is missing,
    not .npy (by its magic bytes), an object array, shorter than its header
    claims, not 2-D float64, non-finite or unfit for the metadata is a
    ConfigError naming it, unread where it can be; a T or node count that
    disagrees with it names both files."""
    meta_path = os.path.join(sol_dir, f"solution_{method}.json")
    meta = read_json(meta_path)
    path = os.path.join(sol_dir, f"profile_{method}.npy")
    try:
        # reads only .npy, never unpickles, maps no more than the file holds
        table = np.lib.format.open_memmap(path, mode="r")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if table.ndim != 2 or table.dtype != np.float64:
        raise ConfigError(f"{path} holds a {table.ndim}-D {table.dtype} "
                          "array, not a 2-D float64 table")
    try:
        sol = solver.SolitonSolution.from_dict(meta, table)
    except TableShapeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except TableMismatchError as exc:
        raise ConfigError(f"{meta_path} disagrees with {path}: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{meta_path}: {exc}") from exc
    if sol.method != method:
        raise ConfigError(f"{meta_path} holds a {sol.method!r} solution")
    return sol


# ---------------------------------------------------------------------------
# commands; main() maps a ConfigError to exit 1, an OracleError to exit 2,
# and any other OSError or ValueError (a failed precondition) or a
# MemoryError (an array too large to allocate) to exit 4


def cmd_pin_constants(args) -> int:
    try:
        pc = pin_constants(seed=args.seed)
    except OracleError as exc:
        _write_json(args.out, {"error": str(exc)})
        raise
    _write_json(args.out, pc.to_dict())
    print(f"pinned constants written to {args.out} "
          f"(A={pc.A}, B={pc.B}, max_rel_err={pc.max_rel_err:.3e})")
    return EXIT_OK


def cmd_solve(args) -> int:
    """Solve by the config's routes and write each solution; for method
    both, with the pair's disagreement read on that solution's nodes.

    Method both warm-starts shooting from the momentum solution, whose
    defect is already below Newton's tolerance: Newton takes no step, and
    the shooting solution's c and T are momentum's, bit for bit (on all
    twelve perfbench reference configs at N = 512).  So the pair's
    agreement in c and T compares momentum with itself; the warm route
    checks the profiles, the residuals and the warm defect on its own, and
    method shooting, the cold start, is the independent witness."""
    run = load_run_config(args.config)
    constants = (PinnedConstants.load(args.constants) if args.constants
                 else pin_constants(seed=run.seed))
    methods = SOLUTION_METHODS if run.method == "both" else (run.method,)
    sols = {}
    try:
        for method in methods:
            if method == "momentum":
                sols[method] = solver.solve_momentum(
                    run.bundle, constants, nodes=run.nodes, scheme=run.scheme)
            else:
                # method both warm-starts from momentum; shooting alone is
                # the cold, independent route (start None)
                sols[method] = solver.solve_shooting(
                    run.bundle, constants, nodes=run.nodes, scheme=run.scheme,
                    rtol=run.tolerances.ode, start=sols.get("momentum"))
    except (solver.NoSolitonFound, solver.SolverError) as exc:
        _write_json(os.path.join(args.out, "diagnostics.json"),
                    {"error": str(exc), "config": run.bundle.to_dict()})
        print(f"no soliton: {exc}", file=sys.stderr)
        return EXIT_NO_SOLITON
    cross = {}
    if len(sols) == 2:
        a, b = sols["momentum"], sols["shooting"]
        cross = {"momentum": solver.cross_method_disagreement(a, b),
                 "shooting": solver.cross_method_disagreement(b, a)}
    ok = True
    for sol in sols.values():
        cm = cross.get(sol.method)
        write_solution(args.out, sol, cm)
        if sol.residuals.max_equation_residual() >= run.tolerances.residual:
            ok = False
        if cm is not None and cm >= 1e-6:
            ok = False
        print(f"{sol.method}: c={sol.c_slope:.12f} T={sol.grid.T:.9f} "
              f"max_residual={sol.residuals.max_equation_residual():.3e}"
              + (f" cross={cm:.3e}" if cm is not None else ""))
    return EXIT_OK if ok else EXIT_IDENTITY


def cmd_verify(args) -> int:
    tol = (load_run_config(args.config).tolerances if args.config
           else Tolerances())
    report = solver.identity_suite(read_solution(args.solution, args.method))
    bounds = {
        "delta_uu_plus_2u": tol.identity,
        "trace_R_plus_lap_u_minus_n": tol.identity,
        "hamilton_constancy": tol.identity,
        "weighted_mean_u": 1e-10,
        "div_integral": tol.residual,
        "kaehler": tol.residual,
    }
    payload = {"residuals": report, "bounds": bounds,
               "passed": {k: report[k] < bounds[k] for k in bounds}}
    _write_json(os.path.join(args.out, f"verify_{args.method}.json"), payload)
    for k in bounds:
        print(f"{k}: {report[k]:.3e} (< {bounds[k]:.0e}: "
              f"{'ok' if payload['passed'][k] else 'FAIL'})")
    return EXIT_OK if all(payload["passed"].values()) else EXIT_IDENTITY


def cmd_stability(args) -> int:
    kinds = (load_run_config(args.config).stability_profiles if args.config
             else ())
    sol = read_solution(args.solution, args.method)
    reports = stability.sign_explorer(sol, kinds)
    lines = ["profile,value,sign,C_hg,v_h_norm"]
    for rep in reports:
        lines.append(f"{rep.profile},{rep.value:.17g},{rep.sign},"
                     f"{rep.C_hg:.17g},{rep.v_h_norm:.17g}")
        print(f"{rep.profile:12s} {rep.value:+.6e}  {rep.sign}")
    _write_atomic(os.path.join(args.out, f"stability_{args.method}.csv"),
                  "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_fuzz_algebra(args) -> int:
    report = algebra.fuzz_suite(seed=args.seed, trials=args.trials)
    _write_json(args.out, report)
    print(f"{report['trials']} trials, max residual "
          f"{report['max_residual']:.3e}")
    return EXIT_OK if report["max_residual"] < 1e-12 else EXIT_IDENTITY


# ---------------------------------------------------------------------------
# argument parsing


def _int_at_least(least: int):
    """An argparse type: an integer no less than ``least``."""
    def integer(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    return integer


def _build_parser() -> argparse.ArgumentParser:
    """The ``krs`` parser; ``command`` names the subcommand, whose handler
    is ``cmd_<command>`` with dashes as underscores."""
    parser = argparse.ArgumentParser(
        prog="krs",
        description="Cohomogeneity-one soliton laboratory: solve, verify "
                    "and probe stability of the circle-bundle ansatz.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pin-constants",
                       help="pin the ansatz curvature coefficients against "
                            "the finite-difference oracle")
    p.add_argument("--out", default="constants.json")
    p.add_argument("--seed", type=_int_at_least(0), default=0)

    p = sub.add_parser("solve", help="solve the soliton boundary-value "
                                     "problem for a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--constants", default=None,
                   help="pinned-constants JSON (default: re-pin with the "
                        "config's seed)")

    for name, text in (
            ("verify", "identity suite on a solved solution"),
            ("stability", "second-variation table on a solved solution")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--solution", required=True,
                       help="solve output directory")
        p.add_argument("--method", default="momentum",
                       choices=SOLUTION_METHODS)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default="out")

    p = sub.add_parser("fuzz-algebra", help="randomized pointwise-algebra "
                                            "suite")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--trials", type=_int_at_least(1), default=1000)
    p.add_argument("--out", default="fuzz_algebra.json")
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; argparse's usage errors exit 2, which is krs's
        # oracle failure, so a usage error is reported as a config error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    # looked up per call: a wrapper set on the module is the one that runs
    command = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (OSError, ValueError, MemoryError) as exc:
        print(f"{args.command} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_IDENTITY


if __name__ == "__main__":
    sys.exit(main())
