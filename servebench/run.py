#!/usr/bin/env python3
"""Build and run the FQ-BERT serving benchmark.

    python3 servebench/run.py --workload mini-default --seed 1 --seconds 35 --trace 0

Run from the repository root. Configures and builds servebench/ (which
builds the repository's fqbert library from source) under
.bench_build/servebench, runs the benchmark's arithmetic self-test, then
runs one measurement. The last line of standard output is the result
JSON; a failed build, self-test or correctness check exits nonzero.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = 4


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once, Release) and build; returns True on success."""
    tmp = os.path.join(BUILD, "tmp")  # compiler scratch stays in the checkout
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "w") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode:
                # Configure again next time instead of building a half cache.
                if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
                    os.remove(os.path.join(BUILD, "CMakeCache.txt"))
                return False, build_log
        cmd = ["cmake", "--build", BUILD, "-j", str(BUILD_JOBS),
               "--target", "servebench", "servebench_selftest"]
        ok = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                            env=env).returncode == 0
    return ok, build_log


def git_sha():
    # The checkout may not be a git repository; never look above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def src_digest():
    """sha256 over the library sources and build file (path + content)."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, names in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        files += [os.path.join(base, n) for n in sorted(names)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "fq_bert.h")):
        log("no FQ-BERT sources at " + ROOT + "; nothing to benchmark")
        return 2
    ok, build_log = build()
    if not ok:
        with open(build_log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        log("build failed (full log: " + build_log + ")")
        return 3
    if subprocess.run([os.path.join(BUILD, "servebench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        log("self-test failed")
        return 4
    cmd = [os.path.join(BUILD, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD, "run"),
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 5


if __name__ == "__main__":
    sys.exit(main())
