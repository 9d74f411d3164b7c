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
both solutions, with and without `--config`; the twelve crosscheck
bundles of perfbench/reference.json at N = 512, and at N = 128 the large
base (d, p, q) = (2, 1e5, 1) and the huge bases (2, 1e300, 1) and
(4, 1e200, 1), which krslab solves in their power-of-4 frames (Einstein
constant p / 4^k in (1, 4]), each with method both and with method
shooting alone (cold shooting takes about 0.4 to 1.5 s per bundle, about
1 s on three S^2 factors, on a 2-vCPU host).  Every solve uses the seed-0
constants.  Each solve writes, per method, `profile_<m>.npy` (the exact
table that `verify`, `stability` and `cli.read_solution` read) and
`solution_<m>.json`, and the listing covers both.

No `krs` command reaches the v_h solve, so the stability layer is run
in-process on each pipeline's two solutions, read back with
`cli.read_solution`: `v_h_solve` on the sources of VH_SOURCES, which
settle at degrees 64, 32 and 16, in that order (the first builds the
cached nodal Vandermonde, the others read a prefix of it), then the first
again (a warm call), and `drift_spectrum(sol, 3)`; then the rest of what
a perfbench stability-vh case calls: `c_constant` for `anti_invariant`,
`metric_direction` and the fixed non-constant `custom` h of `custom_h`,
and `nu_estimate`.  Each v_h call's `v`, `residual`,
`smallest_singular_value` and `degree` are written as `%.17g` text files
under OUT/<pipeline>/vh-<method>/<call>-T<k>/; the spectrum, the three
pairing constants and nu's `value` and `constancy_deviation` go to
OUT/<pipeline>/vh-<method>/ as `spectrum.txt`, `c_<kind>.txt`,
`nu_value.txt` and `nu_constancy_deviation.txt`, so the `path sha256`
lines cover them (a StabilityError there stops the tool).
"""

import contextlib
import hashlib
import io
import json
import os
import stat
import sys

import numpy as np
from numpy.polynomial import chebyshev as cheb

from krslab import cli, stability

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")

# (name, factors as [dim, einstein_constant, twist, deformation_norm2],
#  nodes, grid scheme)
PIPELINES = (
    ("kc", [[2, 2.0, 1, 1.0]], 1024, "chebyshev"),
    ("two_factor", [[2, 2.0, 1, 1.0], [4, 3.0, 1, 0.5]], 1024, "chebyshev"),
    ("kc_uniform", [[2, 2.0, 1, 1.0]], 256, "uniform"),
)

# a crosscheck bundle beside perfbench/reference.json's (which are solved
# at N = 512): (name, factors as [dim, einstein_constant, twist], nodes)
LARGE_BASE = ("large_base", [[2, 1e5, 1]], 128)
# bases on which, unframed, l_i(0)^5 (1e750) and the momentum weight
# (q s + p - q)^{d/2} (1e400) are no floats; their frames are 4^498 and
# 4^332
HUGE_BASE = ("huge_base", [[2, 1e300, 1]], 128)
HUGE_CP2_BASE = ("huge_cp2_base", [[4, 1e200, 1]], 128)

# v_h sources, in the order they are solved: the Chebyshev polynomials T_k
# of the moment coordinate X = s - 1, which settle at degrees 64, 32 and 16
# on both methods' solutions (a source in t/T needs degree 256 on some
# shooting solutions, or does not resolve)
VH_SOURCES = (20, 8, 1)


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
    bundles = [(name, reference[name]["factors"], 512)
               for name in sorted(reference)] + [LARGE_BASE, HUGE_BASE,
                                                  HUGE_CP2_BASE]
    for name, raw, nodes in bundles:
        factors = [[d, p, q, 0.0] for d, p, q in raw]
        for method in ("both", "shooting"):
            cfg = run_config(os.path.join(inputs, f"{name}-{method}.json"),
                             factors, nodes, method, "chebyshev")
            yield f"crosscheck/{name}-{method}", (
                "solve", "--config", cfg, "--constants", constants, "--out",
                os.path.join(out, "crosscheck", f"{name}-{method}"))


def _write_values(directory, **values):
    os.makedirs(directory, exist_ok=True)
    for key, value in values.items():
        np.savetxt(os.path.join(directory, f"{key}.txt"),
                   np.atleast_1d(value), fmt="%.17g")


def custom_h(sol) -> dict:
    """A diagonal J-invariant h for ``c_constant``'s custom kind that is
    not constant in t and differs per factor."""
    x = sol.grid.t / sol.grid.T
    return {"h_NN": 1.0 + x, "h_UU": 2.0 - x,
            "h_i": np.array([(j + 1.0) * (1.0 + x * x)
                             for j in range(sol.config.r)])}


def stability_layer(out):
    """Run the v_h solves, the drift spectrum, the pairing constants and
    the entropy on every PIPELINES solution under ``out`` and write their
    values there."""
    for name, *_ in PIPELINES:
        for method in ("momentum", "shooting"):
            sol = cli.read_solution(os.path.join(out, name, "solve"), method)
            target = os.path.join(out, name, f"vh-{method}")
            X = stability._moment_coordinate(sol)
            for call, k in enumerate(VH_SOURCES + VH_SOURCES[:1]):
                src = cheb.Chebyshev.basis(k)(X)
                vh = stability.v_h_solve(sol, src)
                _write_values(
                    os.path.join(target, f"{call}-T{k}"),
                    v=vh.v, residual=vh.residual,
                    smallest_singular_value=vh.smallest_singular_value,
                    degree=vh.degree)
            nu = stability.nu_estimate(sol, stability.EntropyGauge())
            _write_values(
                target, spectrum=stability.drift_spectrum(sol, 3),
                c_anti_invariant=stability.c_constant(sol, "anti_invariant"),
                c_metric_direction=stability.c_constant(sol,
                                                        "metric_direction"),
                c_custom=stability.c_constant(sol, "custom", custom_h(sol)),
                nu_value=nu["value"],
                nu_constancy_deviation=nu["constancy_deviation"])


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
    stability_layer(out)
    print("\n".join(digests(out) + codes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
