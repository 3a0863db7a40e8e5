#!/usr/bin/env python3
"""Build and run the Corona end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 20 --trace 0

Builds only the benchmark's own executable (and the libraries it links)
with dune, inside this checkout, then runs it with the same arguments. The
last line of standard output is the result as one JSON object. The exit
code is non-zero when the build fails, a correctness check fails, or the
run overstays its time limit.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/corona_bench.exe"
RUN_TIMEOUT_S = 170


def main():
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ROOT, TARGET],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
