"""krslab benchmark: time to a checked solution, per workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root.  Workloads: cli-ladder, crosscheck and
stability-vh (see workloads.py and BENCHMARK.json).  One process, one
closed-loop client: each case starts when the previous one has finished.
BLAS threads are pinned to 1 before numpy is imported.  The seed sets the
case order within each pass and the v_h sources; krslab sees only the
generated inputs.

A run measures whole passes over the workload's cases until `--seconds` have
passed (at least one pass), so every run measures the same mix of cases.

--trace 0 prints the end-to-end metrics that BENCHMARK.json gates, then the
ones only reported (case_s_p50, fail_frac, the workload's digit metric).
--trace 1 runs each case traced (every krslab function wrapped, see
tracer.py) and then untraced, prints the per-layer metrics per pass and the
tracing overhead, and writes the spans to .perfbench-out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every case
passed its checks or failed exactly as recorded for the baseline
(reference.json); otherwise 1.  Without krslab's sources it exits 2.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 5   # this process plus four fresh interpreters


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help="a workload name, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print the set-up time, exit")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        b = cfg["Build Dependencies"]["blas"]
        return {k: b.get(k) for k in ("name", "version",
                                      "openblas configuration")}

    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            threads = fn()
            break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_numpy": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh interpreter: import, pin-constants, fixtures."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_passes(wl, cases, seconds, rng, n_passes=None, case_fn=None):
    """Whole passes, in seeded order, until `seconds` have passed (or
    exactly `n_passes`)."""
    case_fn = case_fn or wl.run_case
    results = []
    passes = 0
    t0 = time.perf_counter()
    while (passes < n_passes if n_passes else
           passes == 0 or time.perf_counter() - t0 < seconds):
        for i in rng.permutation(len(cases)):
            results.append(case_fn(cases[i]))
        passes += 1
    return results, passes


def end_to_end(results, setup_samples, check_name) -> tuple:
    """The metrics BENCHMARK.json gates, and the ones only reported.

    case_s_p50 is reported, not gated: on these mixed-size workloads the
    median falls between two clusters of case sizes and moved by 25% between
    runs.  Digits are taken over passed cases whose config is not a recorded
    baseline failure."""
    from workloads import digits

    passed = sum(r.passed for r in results)
    scored = [r for r in results if r.passed and r.scored]
    check = digits(max((r.check_err for r in scored), default=None))
    gated = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "cases_per_s": (passed / sum(r.seconds for r in results), "1/s"),
        "pass_frac": (passed / len(results), "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "identity_digits": (digits(max((r.identity_err for r in scored),
                                       default=None)), "digits"),
        "check_digits": (check, "digits"),
    }
    times = [r.seconds for r in results]
    reported = {
        "case_s_p50": (statistics.median(times), "s"),
        "fail_frac": (1.0 - passed / len(results), "fraction"),
    }
    if check_name not in gated:
        reported[check_name] = (check, "digits")
    if len(times) >= 100:
        reported["case_s_p90"] = (statistics.quantiles(times, n=10)[-1], "s")
    return tuple({k: {"value": v, "unit": u} for k, (v, u) in m.items()}
                 for m in (gated, reported))


def failure_counts(results) -> Counter:
    return Counter(r.failure for r in results if r.failure)


def run_all(args, names) -> int:
    """Each workload in a fresh process, one after another; the exit code
    is the worst of theirs."""
    codes = []
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "krslab", "cli.py")):
        print(f"krslab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work) -> int:
    import numpy as np
    import workloads

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    rng = np.random.default_rng(args.seed)
    wl = workloads.WORKLOADS[args.workload](work, reference, rng)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        wl.setup()
    finally:
        if tracer:
            tracer.uninstall()
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(f"{setup_s!r}")
        return 0

    cases = wl.cases()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "case_time_limit_s": workloads.CASE_TIME_LIMIT_S,
              "environment": environment()}
    if args.trace:
        results, metrics, problems = _traced(args, wl, cases, rng, tracer,
                                             tracing, record)
    else:
        setup_samples = [setup_s] + [child_setup_seconds(args)
                                     for _ in range(SETUP_SAMPLES - 1)]
        results, passes = run_passes(wl, cases, args.seconds, rng)
        metrics, reported = end_to_end(results, setup_samples, wl.check_name)
        record.update(passes=passes, setup_samples=setup_samples,
                      reported=reported)
        problems = []

    baseline = reference["baseline_failures"].get(args.workload, {})
    problems += [f"unexpected failure: {r.label} ({r.failure}) {r.detail}"
                 for r in results if r.failure and r.label not in baseline]
    correct = not problems
    record.update(
        correct=correct, problems=problems,
        failures=dict(failure_counts(results)), metrics=metrics,
        cases=[{"case": r.label, "seconds": r.seconds, "failure": r.failure,
                "detail": r.detail, "identity_err": r.identity_err,
                "check_err": r.check_err} for r in results])
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    _report(args, record, results, path)
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": sum(1 for r in results if r.failure),
                      "metrics": metrics}))
    return 0 if correct else 1


def _traced(args, wl, cases, rng, tracer, tracing, record):
    """Each case traced, then again untraced unless the traced run hit the
    time limit; per-layer metrics per pass over the traced cases that ended
    within the limit."""
    setup_spans = tracer.spans
    setup_counts = tracer.end_case()
    tracer.spans = []
    traced_case = tracer.spanned("bench.case", wl.run_case)
    per_case = {}
    plain = []

    def both(case):
        cid = len(per_case)
        tracer.begin_case(cid)
        tracer.install()
        try:
            res = traced_case(case)
        finally:
            tracer.uninstall()
        per_case[cid] = (res, tracer.end_case())
        if res.failure != "timeout":
            plain.append(wl.run_case(case))
        return res

    traced, passes = run_passes(wl, cases, args.seconds, rng, case_fn=both)
    problems = [f"wrapper left installed: {n}"
                for n in tracer.leftover_wrappers()]
    problems += tracing.check_spans(tracer.spans)

    keep = {cid for cid, (res, _) in per_case.items()
            if res.failure != "timeout"}
    spans = tracing.subset(tracer.spans, keep)
    counts = sum((c for cid, (_, c) in per_case.items() if cid in keep),
                 Counter())
    metrics = tracing.per_layer(spans, counts, passes)
    breakdown = []
    for cid in sorted(keep):
        res, _ = per_case[cid]
        layers = tracing.per_layer(tracing.subset(spans, {cid}), Counter(), 1)
        breakdown.append({"case": res.label, "seconds": res.seconds, **{
            k: v["value"] for k, v in layers.items()
            if k == "grids.scheme_s" or k.endswith(".busy_s")}})
    pin = [s for s in setup_spans if s[0] == "oracle.pin_constants"]
    metrics["oracle.pin_s"] = {"value": sum(s[2] - s[1] for s in pin),
                               "unit": "s"}
    metrics["oracle.ricci_evals"] = {
        "value": setup_counts["oracle._ricci_once"], "unit": "count"}
    fails = failure_counts(traced)
    for klass in wl.SOLVER_FAILURES:
        metrics[f"solver.fail_{klass}"] = {"value": fails[klass] / passes,
                                           "unit": "count"}
    t_plain = sum(r.seconds for r in plain)
    t_traced = sum(per_case[cid][0].seconds for cid in keep)
    metrics["trace.overhead_frac"] = {"value": t_traced / t_plain - 1.0,
                                      "unit": "fraction"}
    metrics["trace.spans"] = {"value": len(tracer.spans) / passes,
                              "unit": "count"}

    span_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                                  "-spans.json")
    with open(span_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "case",
                              "error"],
                   "setup": setup_spans, "cases": tracer.spans}, fh)
    record.update(passes=passes, span_file=span_path,
                  case_layers=breakdown,
                  untraced_case_seconds=t_plain,
                  traced_case_seconds=t_traced)
    return traced + plain, metrics, problems


def _report(args, record, results, path):
    fails = record["failures"]
    n = len(results)
    print(f"krslab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  passes={record['passes']} cases={n} "
          f"passed={n - sum(fails.values())} failed={sum(fails.values())}"
          + (f" ({', '.join(f'{k} {v}' for k, v in sorted(fails.items()))})"
             if fails else ""))
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print("  reported, not gated:")
        for name, m in record["reported"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']} (n={n})")
        if "case_s_p90" not in record["reported"]:
            print(f"  case_s_p90 = not reported (n={n} < 100)")
    if args.trace and record["case_layers"]:
        slow = max(record["case_layers"], key=lambda c: c["seconds"])
        top = sorted((k for k in slow if k.endswith("_s")),
                     key=lambda k: -slow[k])[:3]
        print(f"  slowest traced case {slow['case']}: "
              f"{slow['seconds']:.3f} s; " + ", ".join(f"{k} {slow[k]:.3f} s "
                          f"({slow[k] / slow['seconds']:.0%})" for k in top))
    for p in record["problems"]:
        print(f"  PROBLEM: {p}")
    print(f"  result file: {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
