#!/usr/bin/env python3
"""Build and run the srmsort benchmark for one workload.

Run from the root of an srmsort checkout:

    python3 perfbench/run.py --workload mem-fixed16 --seed 1 --seconds 20 --trace 0

It builds the benchmark (perfbench/, a Go module of its own that imports
the repository's packages) and, for sortd-robust, the sortd server, with
every build and scratch file under .bench_build/ in the checkout. The last
line of standard output is the benchmark's JSON result; see
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("mem-fixed16", "file-varlen-async", "sortd-robust")


def go_env(build):
    """The Go toolchain environment: caches, temporaries and the toolchain's
    telemetry counters (kept under the user config directory) in the
    checkout, no network, no toolchain switching."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="-mod=mod -buildvcs=false",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "go.mod")) and os.path.isfile(os.path.join(root, "cmd", "sortd", "main.go"))):
        print("run.py: run from the root of an srmsort checkout (go.mod and cmd/sortd not found)", file=sys.stderr)
        return 2
    if shutil.which("go") is None:
        print("run.py: the go toolchain is not on PATH", file=sys.stderr)
        return 2

    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    work = os.path.join(build, "work", "%s-%d" % (args.workload, os.getpid()))
    traces = os.path.join(build, "traces")
    for d in (bindir, work, traces, os.path.join(build, "tmp")):
        os.makedirs(d, exist_ok=True)
    env = go_env(build)

    perfbench = os.path.join(bindir, "perfbench")
    builds = [(["go", "build", "-o", perfbench, "."], bench)]
    sortd = os.path.join(bindir, "sortd")
    if args.workload == "sortd-robust":
        builds.append((["go", "build", "-o", sortd, "./cmd/sortd"], root))
    for cmd, cwd in builds:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("run.py: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return 1

    cmd = [
        perfbench,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-sortd", sortd,
        "-workdir", work,
        "-tracedir", traces,
    ]
    try:
        return subprocess.run(cmd, cwd=root, env=env).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
