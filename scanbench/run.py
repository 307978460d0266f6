#!/usr/bin/env python3
"""Builds the scan benchmark from source and runs one workload.

    python3 scanbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a graphjs-cpp checkout. The graphjs libraries and the
benchmark binary (scanbench/scanbench.cpp) are compiled into
.bench_build/scanbench on first use and rebuilt incrementally afterwards;
build output goes to stderr. The last line of stdout is the binary's JSON
result. The process pool's scratch files go under .bench_build/tmp, so a
run reads and writes only inside the checkout.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "scanbench")
TMP = os.path.join(ROOT, ".bench_build", "tmp")
BINARY = os.path.join(BUILD, "scanbench")
# A run measures for --seconds and then checks its outputs; anything past
# this is a hang, not a slow run.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"scanbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no graphjs sources under {ROOT}/src; run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    configure = ["cmake", "-S", os.path.join(ROOT, "scanbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "scanbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except subprocess.CalledProcessError as err:
        fail(f"build failed: {err}")
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP)
    # Own process group, so a timeout also takes down pool workers.
    proc = subprocess.Popen([BINARY] + sys.argv[1:], env=env,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
