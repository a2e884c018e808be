#!/usr/bin/env python3
"""Line counter of the C++ sources, per top-level directory.

Counts the non-blank lines of every *.cpp / *.h file that are not `//`
comment lines, for src, tests, bench, baselines, examples and tools.
With --base REV it also counts the same directories at git revision REV
and prints the change.

    python3 tools/loc.py
    python3 tools/loc.py --base HEAD~1
"""

import argparse
import os
import subprocess
import sys

DIRS = ("src", "tests", "bench", "baselines", "examples", "tools")
SUFFIXES = (".cpp", ".h")


def count_lines(text):
    n = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            n += 1
    return n


def count_worktree(root):
    counts = {}
    for d in DIRS:
        total = 0
        for dirpath, _, files in os.walk(os.path.join(root, d)):
            for name in files:
                if name.endswith(SUFFIXES):
                    with open(os.path.join(dirpath, name),
                              encoding="utf-8", errors="replace") as f:
                        total += count_lines(f.read())
        counts[d] = total
    return counts


def git(root, *args):
    return subprocess.run(("git", "-C", root) + args, check=True,
                          capture_output=True, text=True).stdout


def count_revision(root, rev):
    counts = {d: 0 for d in DIRS}
    for path in git(root, "ls-tree", "-r", "--name-only", rev, "--",
                    *DIRS).splitlines():
        if path.endswith(SUFFIXES):
            counts[path.split("/", 1)[0]] += count_lines(
                git(root, "show", f"{rev}:{path}"))
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV",
                        help="also count at this git revision and print "
                             "the change")
    args = parser.parse_args()

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    now = count_worktree(root)
    base = count_revision(root, args.base) if args.base else None
    if base is None:
        print(f"{'dir':<10} {'lines':>7}")
    else:
        print(f"{'dir':<10} {args.base[:12]:>12} {'now':>7} {'change':>7}")
    for d in DIRS + ("total",):
        n = sum(now.values()) if d == "total" else now[d]
        if base is None:
            print(f"{d:<10} {n:>7}")
        else:
            b = sum(base.values()) if d == "total" else base[d]
            print(f"{d:<10} {b:>12} {n:>7} {n - b:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
