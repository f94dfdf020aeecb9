#!/usr/bin/env python3
"""Build and run bufir's benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench (a Go module of its own
that links the bufir module at the root) into the build directory, then
runs two processes: `prepare` derives every input from the seed (the
collection, the BUFIR2 files, the op sequence and the reference
answers) into a scratch work directory, and `serve` sets the
deployment up, replays the sequence, checks the answers and prints the
metrics, its last line one JSON object. Everything the run writes stays
under the build directory (`.bench_build`, or $CARGO_TARGET_DIR when
set); the work directory is removed afterwards.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("refine-disk", "adhoc-hot", "live-ingest")
BUDGET_S = 170  # a run must end within 180 s


def go_env(build):
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOMODCACHE"] = os.path.join(build, "gopath", "pkg", "mod")
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off", CGO_ENABLED="0")
    return env


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    root_mod = os.path.join(ROOT, "go.mod")
    if not os.path.isfile(root_mod) or "module bufir" not in open(root_mod).read():
        fail("no bufir module at %s; run from a bufir checkout" % ROOT)
    build = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    env = go_env(build)
    binary = os.path.join(build, "bin", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        fail("build failed")

    # The build does not count against the run's budget: the first run
    # in a checkout compiles the standard library too.
    start = time.monotonic()
    os.makedirs(os.path.join(build, "work"), exist_ok=True)
    os.makedirs(os.path.join(build, "records"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=os.path.join(build, "work"))
    record = os.path.join(build, "records", "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    common = ["--workload", args.workload, "--seconds", str(args.seconds), "--dir", work]
    try:
        prep = subprocess.run([binary, "prepare", "--seed", str(args.seed)] + common, env=env,
                              stdout=sys.stderr, stderr=sys.stderr, timeout=BUDGET_S)
        if prep.returncode != 0:
            fail("prepare failed")
        left = BUDGET_S - (time.monotonic() - start)
        out = subprocess.run([binary, "serve", "--trace", str(args.trace), "--record", record] + common,
                             env=env, stdout=subprocess.PIPE, stderr=sys.stderr, timeout=max(left, 1),
                             text=True)
        sys.stdout.write(out.stdout)
        sys.stdout.flush()
        sys.exit(out.returncode)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % BUDGET_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
