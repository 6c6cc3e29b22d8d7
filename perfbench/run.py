#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload mem-d50k --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The script builds the benchmark
(perfbench/, a Go module of its own) and the daemon it drives
(cmd/assocmined) from the checkout's sources into .bench_build/, with the
Go build cache, module cache and home directory there too, so nothing is
read from or written to outside the checkout besides the Go toolchain.
It then runs one workload; the last line of stdout is the result JSON.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def go_binary():
    go = shutil.which("go")
    if go is None and os.path.exists("/usr/local/go/bin/go"):
        go = "/usr/local/go/bin/go"  # where the official Go installer puts it
    if go is None:
        sys.exit("run.py: no go toolchain on PATH")
    return go


def go_env():
    home = os.path.join(BUILD, "home")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOTOOLCHAIN": "local",  # never download a toolchain
        "GOPROXY": "off",        # never fetch modules
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(home, exist_ok=True)
    return env


def build():
    """Builds both binaries; exits non-zero without output on failure."""
    go, env = go_binary(), go_env()
    bindir = os.path.join(BUILD, "bin")
    steps = [
        (HERE, [go, "build", "-o", os.path.join(bindir, "perfbench"), "."]),
        (ROOT, [go, "build", "-o", os.path.join(bindir, "assocmined"), "./cmd/assocmined"]),
    ]
    for cwd, cmd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd[1:]))
    return bindir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # A SIGTERM becomes an exception, so subprocess.run kills the
    # benchmark (whose daemon child dies with it) before we exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("run.py: terminated"))

    bindir = build()
    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    spans = os.path.join(BUILD, "spans", "%s-seed%d.jsonl" % (args.workload, args.seed))
    cmd = [os.path.join(bindir, "perfbench"),
           "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-workdir", work, "-spans", spans,
           "-daemon", os.path.join(bindir, "assocmined")]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, cwd=ROOT).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
