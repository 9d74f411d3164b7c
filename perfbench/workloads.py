"""The benchmark's three workloads: inputs, one case, and its checks.

Every case drives krslab through its public entry points (`cli.main`,
`solver.*`, `stability.*`), times only those calls, and then checks what
they produced against `reference.json`.  A case that raises, returns a
non-zero exit code, hits the per-case time limit or fails a check is a
failed case; `CaseResult.failure` names why.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import signal
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from krslab import cli, solver, stability
from krslab.config import BaseFactor, BundleConfig, Tolerances
from krslab.geometry import PinnedConstants

# Twice the slowest converging case (s2_p4_q1: about 9 s of cold-start
# shooting on a 2-core x86 host, 12 s when the host is busy) and above the
# slowest failure that ends on its own (cp3_q1: line-search stall near 10 s).
# Identical for every commit compared.
CASE_TIME_LIMIT_S = 20.0
REF_TOL = 1e-9          # |c - c_ref| and |T - T_ref|
CROSS_TOL = 1e-6        # cross-method sup-norm, as `krs solve` checks it
VH_REL_TOL = 1e-3       # interior v_h residual over max |source|
DIGITS_CAP = 17.0       # errors below 1e-17 read as 17 digits

# solver failure messages -> solver.fail_* class
FAILURE_CLASSES = (
    ("probe trajectory", "probe"),
    ("integration failed", "integration"),
    ("nonpositive collapse", "integration"),
    ("degenerate branch", "integration"),
    ("line search", "linesearch"),
    ("did not converge", "maxiter"),
)


class CaseTimeout(BaseException):
    """Raised by the interval timer when a case exceeds its time limit.

    A BaseException, so that no handler inside krslab swallows it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


@contextlib.contextmanager
def time_limit(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def classify(message: str) -> str:
    for text, klass in FAILURE_CLASSES:
        if text in message:
            return klass
    return "other"


def digits(err: Optional[float]) -> Optional[float]:
    if err is None:
        return None
    return min(DIGITS_CAP, -math.log10(max(err, 10.0 ** -DIGITS_CAP)))


def krs(*argv) -> tuple:
    """Run one `krs` command in-process; return (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def bundle(factors) -> BundleConfig:
    return BundleConfig(factors=tuple(
        BaseFactor(d=int(d), p=float(p), q=int(q)) for d, p, q in factors))


def write_run_config(path: str, factors, nodes: int, method: str):
    tol = Tolerances()
    payload = {
        "factors": [{"dim": d, "einstein_constant": p, "twist": q,
                     "deformation_norm2": 1.0} for d, p, q in factors],
        "grid": {"nodes": nodes, "scheme": "chebyshev"},
        "method": method,
        "tolerances": {"ode": tol.ode, "residual": tol.residual,
                       "identity": tol.identity},
        "stability": {"profiles": [{"kind": k} for k in
                                   ("constant", "u_plus", "u_minus", "abs_u")],
                      "prefactor": 2.0},
        "seed": 0,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


@dataclass
class CaseResult:
    label: str
    seconds: float
    failure: Optional[str] = None     # None: passed every check
    detail: str = ""
    identity_err: Optional[float] = None
    check_err: Optional[float] = None
    scored: bool = True               # errors count toward the digit metrics

    @property
    def passed(self) -> bool:
        return self.failure is None


class Workload:
    """One workload: `setup()` makes the inputs, `cases()` lists one pass,
    `run_case()` runs and checks one case."""

    name = ""
    # what check_digits measures on this workload
    check_name = ""
    # the solver.fail_* classes, reported by the traced run
    SOLVER_FAILURES = ("probe", "integration", "linesearch", "maxiter",
                       "timeout", "other")

    def __init__(self, work_dir: str, reference: dict,
                 rng: np.random.Generator):
        self.work = work_dir
        self.reference = reference
        self.rng = rng
        self.constants_path = os.path.join(work_dir, "constants.json")
        self._serial = 0

    def factors(self, name):
        return self.reference["configs"][name]["factors"]

    def setup(self):
        code, err = krs("pin-constants", "--out", self.constants_path)
        if code != 0:
            raise RuntimeError(f"krs pin-constants exited {code}: {err}")

    def cases(self) -> list:
        raise NotImplementedError

    def run_case(self, case) -> CaseResult:
        raise NotImplementedError

    def fresh_dir(self) -> str:
        self._serial += 1
        path = os.path.join(self.work, f"case{self._serial}")
        os.makedirs(path)
        return path

    def ref_error(self, name, c, T) -> float:
        ref = self.reference["configs"][name]
        return max(abs(c - ref["c"]), abs(T - ref["T"]))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _equation_residual(res: dict) -> float:
    return max(res["E_N"], res["E_U"], max(res["E_i"]), res["kaehler"])


class CliLadder(Workload):
    """`krs solve` (momentum) -> `krs verify` -> `krs stability` per case."""

    name = "cli-ladder"
    check_name = "identity_digits"
    CONFIGS = ("kc", "two_s2", "cp2_q1", "s2xs2_opp")
    NODES = (512, 1024, 2048, 4096)

    def setup(self):
        super().setup()
        self.paths = {}
        for name in self.CONFIGS:
            for n in self.NODES:
                path = os.path.join(self.work, f"{name}_{n}.json")
                write_run_config(path, self.factors(name), n, "momentum")
                self.paths[name, n] = path

    def cases(self):
        return [(name, n) for name in self.CONFIGS for n in self.NODES]

    def run_case(self, case):
        name, n = case
        cfg, out = self.paths[case], self.fresh_dir()
        label = f"{name}@{n}"
        steps = (("solve", "--config", cfg, "--constants",
                  self.constants_path, "--out", out),
                 ("verify", "--solution", out, "--config", cfg, "--out", out),
                 ("stability", "--solution", out, "--config", cfg,
                  "--out", out))
        t0 = time.perf_counter()
        try:
            with time_limit(CASE_TIME_LIMIT_S):
                for argv in steps:
                    code, err = krs(*argv)
                    if code != 0:
                        break
        except CaseTimeout:
            shutil.rmtree(out, ignore_errors=True)
            return CaseResult(label, time.perf_counter() - t0, "timeout")
        seconds = time.perf_counter() - t0
        try:
            if code != 0:
                return CaseResult(label, seconds, f"exit{code}",
                                  f"krs {argv[0]}: {err.strip()[:200]}")
            return self._check(label, seconds, name, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, label, seconds, name, out):
        tol = Tolerances()
        sol = _read_json(os.path.join(out, "solution_momentum.json"))
        verify = _read_json(os.path.join(out, "verify_momentum.json"))
        resid = _equation_residual(sol["residuals"])
        ids = verify["residuals"]
        identity_err = max(resid, *ids.values())
        res = CaseResult(label, seconds, identity_err=identity_err,
                         check_err=identity_err)
        with open(os.path.join(out, "stability_momentum.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        constant = [r[2] for r in rows if r[0] == "constant"]
        if self.ref_error(name, sol["c_slope"], sol["T"]) > REF_TOL:
            res.failure = "check:reference"
        elif resid >= tol.residual:
            res.failure = "check:residual"
        elif any(ids[k] >= verify["bounds"][k] for k in verify["bounds"]):
            res.failure = "check:identity"
        elif constant != ["zero"]:
            res.failure = "check:constant_profile"
        return res


class Crosscheck(Workload):
    """`krs solve` with method `both` (momentum and cold-start shooting)."""

    name = "crosscheck"
    check_name = "cross_digits"
    CONFIGS = ("kc", "kc_mirror", "kc_scaled", "s2_p4_q1", "s2_p3_q2",
               "two_s2", "s2xs2_opp", "three_s2", "cp2_q1", "cp2_q2",
               "cp3_q1", "s2_cp2")
    NODES = 512

    def setup(self):
        super().setup()
        self.baseline_failures = self.reference["baseline_failures"][self.name]
        self.paths = {}
        for name in self.CONFIGS:
            path = os.path.join(self.work, f"{name}.json")
            write_run_config(path, self.factors(name), self.NODES, "both")
            self.paths[name] = path

    def cases(self):
        return list(self.CONFIGS)

    def run_case(self, name):
        out = self.fresh_dir()
        scored = name not in self.baseline_failures
        t0 = time.perf_counter()
        try:
            with time_limit(CASE_TIME_LIMIT_S):
                code, err = krs("solve", "--config", self.paths[name],
                                "--constants", self.constants_path,
                                "--out", out)
        except CaseTimeout:
            shutil.rmtree(out, ignore_errors=True)
            return CaseResult(name, time.perf_counter() - t0, "timeout",
                              scored=scored)
        seconds = time.perf_counter() - t0
        try:
            if code == cli.EXIT_NO_SOLITON:
                diag = _read_json(os.path.join(out, "diagnostics.json"))
                return CaseResult(name, seconds, classify(diag["error"]),
                                  diag["error"][:200], scored=scored)
            if code != 0:
                return CaseResult(name, seconds, f"exit{code}",
                                  err.strip()[:200], scored=scored)
            return self._check(name, seconds, out, scored)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, name, seconds, out, scored):
        tol = Tolerances()
        res = CaseResult(name, seconds, scored=scored)
        identity, cross = [], []
        for method in ("momentum", "shooting"):
            sol = _read_json(os.path.join(out, f"solution_{method}.json"))
            r = sol["residuals"]
            resid = _equation_residual(r)
            ids = max(r["delta_uu"], r["trace"], r["hamilton"])
            identity.append(max(resid, ids))
            cross.append(r["cross_method"])
            if res.failure:
                continue
            if self.ref_error(name, sol["c_slope"], sol["T"]) > REF_TOL:
                res.failure = "check:reference"
            elif resid >= tol.residual:
                res.failure = "check:residual"
            elif ids >= tol.identity:
                res.failure = "check:identity"
            elif r["cross_method"] >= CROSS_TOL:
                res.failure = "check:cross_method"
        res.identity_err, res.check_err = max(identity), max(cross)
        return res


class StabilityVh(Workload):
    """`v_h_solve`, `sign_explorer`, `c_constant` and `nu_estimate` on
    momentum solutions built in setup."""

    name = "stability-vh"
    check_name = "vh_digits"
    CONFIGS = ("kc", "two_s2", "cp2_q1", "s2xs2_opp")
    NODES = (512, 1024)

    def setup(self):
        super().setup()
        constants = PinnedConstants.load(self.constants_path)
        self.fixtures = {}
        for name in self.CONFIGS:
            for n in self.NODES:
                sol = solver.solve_momentum(bundle(self.factors(name)),
                                            constants, nodes=n)
                if self.ref_error(name, sol.c_slope, sol.grid.T) > REF_TOL:
                    raise RuntimeError(f"fixture {name}@{n} disagrees with "
                                       "the reference c, T")
                self.fixtures[name, n] = sol

    def cases(self):
        return [(name, n) for name in self.CONFIGS for n in self.NODES]

    def run_case(self, case):
        name, n = case
        sol = self.fixtures[case]
        t, T = sol.grid.t, sol.grid.T
        # smooth even source: Neumann-compatible cosines, seeded per case
        coeffs = self.rng.standard_normal(4)
        source = sum(a * np.cos(k * np.pi * t / T)
                     for k, a in enumerate(coeffs))
        lam = float(self.rng.uniform(0.5, 2.0))
        h = {"h_NN": np.full_like(t, lam), "h_UU": np.full_like(t, lam),
             "h_i": np.full((sol.config.r, t.size), lam)}
        label = f"{name}@{n}"
        t0 = time.perf_counter()
        try:
            with time_limit(CASE_TIME_LIMIT_S):
                vh = stability.v_h_solve(sol, source)
                table = stability.sign_explorer(sol)
                cc = (stability.c_constant(sol, "anti_invariant"),
                      stability.c_constant(sol, "metric_direction"),
                      stability.c_constant(sol, "custom", h))
                nu = stability.nu_estimate(sol, stability.EntropyGauge())
        except CaseTimeout:
            return CaseResult(label, time.perf_counter() - t0, "timeout")
        except (stability.StabilityError, np.linalg.LinAlgError) as exc:
            return CaseResult(label, time.perf_counter() - t0,
                              f"raise:{type(exc).__name__}", str(exc)[:200])
        seconds = time.perf_counter() - t0

        vh_rel = vh.residual / float(np.abs(source).max())
        res = CaseResult(label, seconds, check_err=vh_rel,
                         identity_err=nu["constancy_deviation"])
        signs = {rep.profile: rep.sign for rep in table}
        if vh.near_kernel or not vh_rel < VH_REL_TOL:
            res.failure = "check:v_h"
        elif signs["constant"] != "zero":
            res.failure = "check:constant_profile"
        elif sol.c_slope != 0.0 and (signs["u_plus"], signs["u_minus"]) != (
                "positive", "negative"):
            res.failure = "check:sign_split"
        elif cc[0] != 0.0 or abs(cc[1] - 1.0) > 1e-12 \
                or abs(cc[2] - lam) > 1e-12 * lam:
            res.failure = "check:c_constant"
        elif not math.isfinite(nu["value"]):
            res.failure = "check:nu"
        return res


WORKLOADS = {w.name: w for w in (CliLadder, Crosscheck, StabilityVh)}
