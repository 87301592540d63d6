#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload its-verify --seed 1 --seconds 20 --trace 0

Builds the library and the perfbench binary from this checkout's sources
into .bench_build/perfbench (configure once, incremental afterwards), then
runs one workload. The binary's last stdout line is the JSON result.

    python3 perfbench/run.py --selftest     # build and run the self-tests
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources (src/CMakeLists.txt) next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", "3"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd) + " (log: " + log_path + ")")
    return os.path.join(BUILD, target)


def git_sha():
    """HEAD of the checkout, with -dirty if the tree differs from it; read on
    every run, so a build tree reused across commits never reports a stale
    sha. "unknown" outside a git checkout."""
    def git(*args):
        r = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None
    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
            return "unknown"
        sha, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    except OSError:
        return "unknown"
    if not sha or status is None:
        return "unknown"
    return sha + ("-dirty" if status else "")


def main(argv):
    if argv == ["--selftest"]:
        return subprocess.run([build("perfbench_tests")]).returncode
    exe = build("perfbench")
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench-out")
    proc = subprocess.Popen([exe] + argv + ["--out", out_dir, "--git-sha", git_sha()])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
