"""Summarize how the outputs moved between two `output_digests.py` listings.

    python tools/digest_moves.py OLD NEW

OLD and NEW are the listings `tools/output_digests.py` printed for two
trees.  Prints one line per output file in both listings whose sha256
moved, `path old_sha256 -> new_sha256`, then one line per output file in
both whose mode changed, `path mode old -> new`, then one line per file in
NEW only, `path added <sha256> mode <mode>`, and per file in OLD only,
`path removed <sha256> mode <mode>` (`-` for a value the listing lacks),
then one line per moved solution file, `path |dc|=<g> |dT|=<g>`, then one
line per command whose exit code changed, `label exit old -> new` (`-` for
a command in one listing only), and last a count of each.  A file that is
added or removed is counted as that, not as a moved digest or a changed
mode.  Equal listings print only the counts, all zero.
"""

import re
import sys

EXIT = re.compile(r"^(\S+) exit (-?\d+)$")
SOLUTION = re.compile(r"^(\S+) c=(\S+) T=(\S+)$")
DIGEST = re.compile(r"^(\S+) ([0-9a-f]{64})$")
MODE = re.compile(r"^(\S+) mode ([0-7]+)$")


def parse(path):
    """(digests, modes, solutions, exits) of one listing: path -> sha256,
    path -> octal mode, path -> (c, T), label -> exit code."""
    digests, modes, solutions, exits = {}, {}, {}, {}
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
            elif m := MODE.match(line):
                modes[m[1]] = m[2]
            else:
                raise ValueError(f"{path}:{number}: not a digest listing "
                                 f"line: {line!r}")
    return digests, modes, solutions, exits


def _changed(old: dict, new: dict, kind: str, keys) -> list:
    """`key kind old -> new` for each of ``keys`` whose value differs, `-`
    for a key in one dict only."""
    return [f"{key} {kind}{old.get(key, '-')} -> {new.get(key, '-')}"
            for key in sorted(keys) if old.get(key) != new.get(key)]


def _one_side(digests: dict, modes: dict, paths, kind: str) -> list:
    """`path kind sha256 mode m` for each of ``paths``, in order."""
    return [f"{path} {kind} {digests.get(path, '-')} mode "
            f"{modes.get(path, '-')}" for path in paths]


def moves(old, new) -> list:
    """The report lines for listings ``old`` and ``new`` (parsed)."""
    (dig_a, mode_a, sol_a, exit_a), (dig_b, mode_b, sol_b, exit_b) = old, new
    paths_a = dig_a.keys() | mode_a.keys()
    paths_b = dig_b.keys() | mode_b.keys()
    files = _changed(dig_a, dig_b, "", paths_a & paths_b)
    modes = _changed(mode_a, mode_b, "mode ", paths_a & paths_b)
    added = _one_side(dig_b, mode_b, sorted(paths_b - paths_a), "added")
    removed = _one_side(dig_a, mode_a, sorted(paths_a - paths_b), "removed")
    solutions = []
    for path in sorted(sol_a.keys() & sol_b.keys()):
        (c_a, T_a), (c_b, T_b) = sol_a[path], sol_b[path]
        if (c_a, T_a) != (c_b, T_b):
            solutions.append(f"{path} |dc|={abs(c_b - c_a):.2g} "
                             f"|dT|={abs(T_b - T_a):.2g}")
    exits = _changed(exit_a, exit_b, "exit ", exit_a.keys() | exit_b.keys())
    return files + modes + added + removed + solutions + exits + [
        f"{len(files)} file digests moved, {len(modes)} file modes changed, "
        f"{len(added)} files added, {len(removed)} files removed, "
        f"{len(solutions)} c/T lines moved, {len(exits)} exit codes changed"]


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
