"""Self-tests of the benchmark's tracer and failure accounting.

Run from the repository root:  python3 perfbench/selftest.py
Exits 0 when every test passes.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from krslab import grids, oracle, solver  # noqa: E402


def _snapshot():
    owners = list(tracing._modules().values()) + [grids.Scheme, np.linalg]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_wrappers_removed():
    before = _snapshot()
    tr = tracing.Tracer()
    tr.install()
    assert solver.ricci_components is not before[(id(solver),
                                                 "ricci_components")]
    assert tracing.Tracer.leftover_wrappers()
    tr.uninstall()
    after = _snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed, f"attributes not restored: {changed}"
    assert tracing.Tracer.leftover_wrappers() == []


def _traced_kc_shooting(constants):
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.begin_case(0)
        solver.solve_shooting(workloads.bundle([[2, 2, 1]]), constants,
                              nodes=512)
        counts = tr.end_case()
    finally:
        tr.uninstall()
    m = tracing.per_layer(tr.spans, counts, 1)
    return tr.spans, {k: m[k]["value"] for k in
                      ("solver.match_calls", "solver.rhs_calls",
                       "solver.newton_steps")}


def test_counts_repeat_on_kc():
    constants = oracle.pin_constants()
    spans, first = _traced_kc_shooting(constants)
    _, second = _traced_kc_shooting(constants)
    assert first == second, (first, second)
    assert first["solver.match_calls"] > 0 and first["solver.rhs_calls"] > 0
    print(f"  kc shooting: {first}")
    return spans


def test_self_times(spans):
    assert tracing.check_spans(spans) == []
    selfs = tracing.self_times(spans)
    assert min(selfs) >= 0.0
    roots = sum(s[2] - s[1] for s in spans if s[3] is None)
    assert abs(sum(selfs) - roots) <= 1e-9 * len(spans)


def test_check_spans_flags_bad_tree():
    # a child longer than its parent gives the parent negative self time
    spans = [["a", 0.0, 1.0, None, 0, None], ["b", 0.0, 2.0, 0, 0, None]]
    assert tracing.check_spans(spans)


def test_failure_classes():
    messages = {
        "probe trajectory never approaches a second collapse": "probe",
        "branch integration failed: Required step size": "integration",
        "Newton line search stalled at |res|=8.461e+00": "linesearch",
        "Newton did not converge (|res|=4.287e+01)": "maxiter",
        "something new": "other",
    }
    for message, klass in messages.items():
        assert workloads.classify(message) == klass, message


def main():
    test_wrappers_removed()
    spans = test_counts_repeat_on_kc()
    test_self_times(spans)
    test_check_spans_flags_bad_tree()
    test_failure_classes()
    print("perfbench self-tests passed")


if __name__ == "__main__":
    main()
