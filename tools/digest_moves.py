"""Summarize how the outputs moved between two `output_digests.py` listings.

    python tools/digest_moves.py OLD NEW

OLD and NEW are the listings `tools/output_digests.py` printed for two
trees.  Prints one line per output file whose sha256 moved,
`path old_sha256 -> new_sha256` (a file in one listing only shows `-` for
the other), then one line per moved solution file,
`path |dc|=<g> |dT|=<g>`, then one line per command whose exit code
changed, `label exit old -> new`, and last a count of each.  Equal
listings print only the counts, all zero.
"""

import re
import sys

EXIT = re.compile(r"^(\S+) exit (-?\d+)$")
SOLUTION = re.compile(r"^(\S+) c=(\S+) T=(\S+)$")
DIGEST = re.compile(r"^(\S+) ([0-9a-f]{64})$")


def parse(path):
    """(digests, solutions, exits) of one listing: path -> sha256,
    path -> (c, T), label -> exit code."""
    digests, solutions, exits = {}, {}, {}
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if m := EXIT.match(line):
                exits[m[1]] = int(m[2])
            elif m := SOLUTION.match(line):
                solutions[m[1]] = (float(m[2]), float(m[3]))
            elif m := DIGEST.match(line):
                digests[m[1]] = m[2]
            else:
                raise ValueError(f"{path}:{number}: not a digest listing "
                                 f"line: {line!r}")
    return digests, solutions, exits


def moves(old, new) -> list:
    """The report lines for listings ``old`` and ``new`` (parsed)."""
    (dig_a, sol_a, exit_a), (dig_b, sol_b, exit_b) = old, new
    files = [f"{path} {dig_a.get(path, '-')} -> {dig_b.get(path, '-')}"
             for path in sorted(dig_a.keys() | dig_b.keys())
             if dig_a.get(path) != dig_b.get(path)]
    solutions = []
    for path in sorted(sol_a.keys() & sol_b.keys()):
        (c_a, T_a), (c_b, T_b) = sol_a[path], sol_b[path]
        if (c_a, T_a) != (c_b, T_b):
            solutions.append(f"{path} |dc|={abs(c_b - c_a):.2g} "
                             f"|dT|={abs(T_b - T_a):.2g}")
    exits = [f"{label} exit {exit_a.get(label, '-')} -> "
             f"{exit_b.get(label, '-')}"
             for label in sorted(exit_a.keys() | exit_b.keys())
             if exit_a.get(label) != exit_b.get(label)]
    return files + solutions + exits + [
        f"{len(files)} file digests moved, {len(solutions)} c/T lines "
        f"moved, {len(exits)} exit codes changed"]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        old, new = parse(argv[0]), parse(argv[1])
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1
    print("\n".join(moves(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
