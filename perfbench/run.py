#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Builds cmd/rallocd and the perfbench harness from the checkout's sources
into .bench_build/ (Go caches included, so nothing is written outside
the checkout), then runs the harness, whose last stdout line is the
JSON result. Exits non-zero on a build failure, a wrong output or an
overrun, without printing a result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve-hot", "serve-cold", "suite-batch")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    for d in ("gocache", "gopath", tmp):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def find_go():
    go = shutil.which("go")
    if go:
        return go
    goroot = os.environ.get("GOROOT")
    if goroot and os.path.exists(os.path.join(goroot, "bin", "go")):
        return os.path.join(goroot, "bin", "go")
    sys.exit("perfbench: no go toolchain on PATH")


def build(env):
    go = find_go()
    bin_dir = os.path.join(BUILD, "bin")
    steps = [
        ([go, "build", "-o", os.path.join(bin_dir, "rallocd"), "./cmd/rallocd"], ROOT),
        ([go, "build", "-o", os.path.join(bin_dir, "perfbench"), "."], os.path.join(ROOT, "perfbench")),
    ]
    for cmd, cwd in steps:
        try:
            done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            sys.exit(f"perfbench: build failed: {e}")
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    return bin_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    bin_dir = build(env)
    cmd = [
        os.path.join(bin_dir, "perfbench"),
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-rallocd", os.path.join(bin_dir, "rallocd"),
        "-out", BUILD,
    ]
    # The harness and the daemon it starts share a new process group, so
    # an overrun can stop both.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S}s")
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
