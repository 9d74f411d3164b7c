"""Digest every output of a fixed set of `krs` runs, to compare two trees.

    PYTHONPATH=src python tools/output_digests.py OUT_DIR

Runs `krs` in-process with the krslab that PYTHONPATH finds, writing into
OUT_DIR (which must be absent or empty), and prints one line per output
file, `path sha256` with the path relative to OUT_DIR, then one line per
solution file, `path c=<repr> T=<repr>` (its slope and length, so a diff
shows how far a moved solution moved), then one line per output file,
`path mode 644` (its permission bits in octal, which follow the umask),
then one line per command, `label exit code`.  Run it once per tree, under
the same umask, and diff the two listings: equal listings mean
byte-identical outputs, created with the same modes, and equal exit
codes.

The set: `krs pin-constants` with seeds 0 and 42; `krs fuzz-algebra` with
seeds 0 and 42, 200 trials each; Koiso-Cao and a two-factor bundle at
N = 1024 on the Chebyshev scheme, and Koiso-Cao at N = 256 on the uniform
scheme, through `solve` (method both), then `verify` and `stability` of
both solutions, with and without `--config`; and the twelve crosscheck
bundles of perfbench/reference.json at N = 512, solved
with method both and with method shooting alone (cold shooting takes
about 0.4 to 1.5 s per bundle, about 1 s on three S^2 factors, on a
2-vCPU host).  Every solve uses the seed-0 constants.
"""

import contextlib
import hashlib
import io
import json
import os
import stat
import sys

from krslab import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")

# (name, factors as [dim, einstein_constant, twist, deformation_norm2],
#  nodes, grid scheme)
PIPELINES = (
    ("kc", [[2, 2.0, 1, 1.0]], 1024, "chebyshev"),
    ("two_factor", [[2, 2.0, 1, 1.0], [4, 3.0, 1, 0.5]], 1024, "chebyshev"),
    ("kc_uniform", [[2, 2.0, 1, 1.0]], 256, "uniform"),
)


def run_config(path, factors, nodes, method, scheme):
    payload = {
        "factors": [{"dim": d, "einstein_constant": p, "twist": q,
                     "deformation_norm2": k} for d, p, q, k in factors],
        "grid": {"nodes": nodes, "scheme": scheme},
        "method": method,
        "stability": {"profiles": [{"kind": "constant"}, {"kind": "u_plus"},
                                   {"kind": "u_minus"}, {"kind": "abs_u"}]},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def krs(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


def commands(out):
    """(label, argv) of every command, in run order; writes the configs."""
    inputs = os.path.join(out, "inputs")
    os.makedirs(inputs)
    constants = os.path.join(out, "pin", "seed0", "constants.json")
    for seed in (0, 42):
        yield (f"pin/seed{seed}", ("pin-constants", "--seed", seed, "--out",
                                   os.path.join(out, "pin", f"seed{seed}",
                                                "constants.json")))
    for seed in (0, 42):
        yield (f"fuzz/seed{seed}", ("fuzz-algebra", "--seed", seed,
                                    "--trials", 200, "--out",
                                    os.path.join(out, "fuzz",
                                                 f"seed{seed}.json")))
    for name, factors, nodes, scheme in PIPELINES:
        cfg = run_config(os.path.join(inputs, f"{name}.json"), factors, nodes,
                         "both", scheme)
        sol = os.path.join(out, name, "solve")
        yield f"{name}/solve", ("solve", "--config", cfg, "--constants",
                                constants, "--out", sol)
        for cmd in ("verify", "stability"):
            for method in ("momentum", "shooting"):
                for extra in ((), ("--config", cfg)):
                    tag = f"{cmd}-{method}" + ("-config" if extra else "")
                    yield f"{name}/{tag}", (
                        cmd, "--solution", sol, "--method", method, *extra,
                        "--out", os.path.join(out, name, tag))
    with open(REFERENCE) as fh:
        reference = json.load(fh)["configs"]
    for name in sorted(reference):
        factors = [[d, p, q, 0.0] for d, p, q in reference[name]["factors"]]
        for method in ("both", "shooting"):
            cfg = run_config(os.path.join(inputs, f"{name}-{method}.json"),
                             factors, 512, method, "chebyshev")
            yield f"crosscheck/{name}-{method}", (
                "solve", "--config", cfg, "--constants", constants, "--out",
                os.path.join(out, "crosscheck", f"{name}-{method}"))


def digests(out) -> list:
    """`path sha256` of every file, then `path c=.. T=..` of every
    solution file, then `path mode ...` of every file, each block sorted."""
    lines, solutions, modes = [], [], []
    for directory, _, files in os.walk(out):
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                content = fh.read()
            label = os.path.relpath(path, out)
            lines.append(f"{label} {hashlib.sha256(content).hexdigest()}")
            mode = stat.S_IMODE(os.stat(path).st_mode)
            modes.append(f"{label} mode {mode:o}")
            if name.startswith("solution_") and name.endswith(".json"):
                meta = json.loads(content)
                solutions.append(f"{label} c={meta['c_slope']!r} "
                                 f"T={meta['T']!r}")
    return sorted(lines) + sorted(solutions) + sorted(modes)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = os.path.abspath(argv[0])
    if os.path.exists(out) and os.listdir(out):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    codes = [f"{label} exit {krs(*argv)}" for label, argv in commands(out)]
    print("\n".join(digests(out) + codes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
