#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the repository root. Every argument is passed on to
perfbench/main.exe (see perfbench/README.md). Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Exits 2 without a result when the build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # The shared dune cache lives outside the checkout; build locally only.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--display", "quiet",
             "./perfbench/main.exe"],
            cwd=root, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
