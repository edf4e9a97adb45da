#!/usr/bin/env python3
"""Build the benchmark from source, then make one run of it.

Run from the repository root:

    python3 paperbench/run.py --workload adhoc_paper --seed 42 --seconds 30 --trace 0

The arguments go to paperbench/main.exe unchanged. Build output goes to
stderr, so the last line of stdout is the run's JSON result. The exit
code is the build's when it fails, else the run's.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Keep every build artefact inside the checkout: no shared dune cache.
ENV = dict(os.environ, DUNE_CACHE="disabled")


def run(argv, **kw):
    """Run a child to completion; a SIGTERM to us is passed on to it."""
    child = subprocess.Popen(argv, cwd=ROOT, env=ENV, **kw)

    def forward(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, forward)
    return child.wait()


def main():
    build = run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./paperbench/main.exe"],
        stdout=sys.stderr,
    )
    if build != 0:
        sys.exit(build)
    exe = os.path.join(ROOT, "_build", "default", "paperbench", "main.exe")
    sys.exit(run([exe] + sys.argv[1:]))


if __name__ == "__main__":
    main()
