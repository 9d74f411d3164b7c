"""Rewrite the reference slope c and length T of every config in
reference.json from the momentum solver (N = 1024).

Run from the repository root:  python3 perfbench/make_reference.py
Only the "c" and "T" entries change; the config table and the recorded
baseline failures are kept as they are.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from krslab import oracle, solver  # noqa: E402
from workloads import bundle  # noqa: E402


def main():
    path = os.path.join(HERE, "reference.json")
    with open(path) as fh:
        ref = json.load(fh)
    constants = oracle.pin_constants()
    for name, entry in ref["configs"].items():
        sol = solver.solve_momentum(bundle(entry["factors"]), constants,
                                    nodes=1024)
        entry["c"], entry["T"] = sol.c_slope, sol.grid.T
        print(f"{name:10s} c={sol.c_slope:.15f} T={sol.grid.T:.15f}")
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
