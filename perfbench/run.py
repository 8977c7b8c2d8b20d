#!/usr/bin/env python3
"""Build and run the sinr-connect end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-16k --seed 1 --seconds 30 --trace 0

Builds two variants of the `perfbench` package (untraced, and traced
with the simulator's `profile` feature) into `$CARGO_TARGET_DIR` (or
`perfbench/target`), prints one JSON line of host facts, then runs the
variant `--trace` selects. Its last stdout line is the result object.
With `--trace 1` the recorded spans are written to
`<target>/perfbench-spans/<workload>-seed<seed>.json`.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ("pipeline-16k", "tvc-512", "churn-2k")
# A run must end within this many seconds once the build is done.
RUN_LIMIT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(ROOT, t) if not os.path.isabs(t) else t


def build(features, dest):
    """Builds one variant and copies its binary to `dest`."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if features:
        cmd += ["--features", features]
    # Cargo's own output goes to stderr, so stdout stays the result.
    r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}", 3)
    shutil.copyfile(os.path.join(target_dir(), "release", "perfbench"), dest)
    os.chmod(dest, 0o755)


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest():
    """SHA-256 over the library and benchmark sources, so two checkouts
    can be compared without git."""
    h = hashlib.sha256()
    files = []
    for top in ("crates", "perfbench"):
        for d, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in names
                      if n.endswith((".rs", ".toml", ".lock", ".py"))]
    for f in ["Cargo.toml", "Cargo.lock"] + sorted(files):
        path = os.path.join(ROOT, f)
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--nodes", type=int, help="shrink the instance (self-test only)")
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the library sources (crates/) are missing; run from a full checkout")

    out_dir = os.path.join(target_dir(), "perfbench-bin")
    os.makedirs(out_dir, exist_ok=True)
    untraced = os.path.join(out_dir, "perfbench-untraced")
    traced = os.path.join(out_dir, "perfbench-traced")
    # Both variants every run: the second build of an up-to-date tree
    # is a no-op, and no later run pays for a first build.
    build(None, untraced)
    build("profile", traced)

    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "-V"]),
        "profile": "release",
        "features": "profile" if args.trace else "",
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "src_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(json.dumps({"host": host}), flush=True)

    cmd = [traced if args.trace else untraced,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.nodes:
        cmd += ["--nodes", str(args.nodes)]
    if args.trace:
        spans_dir = os.path.join(target_dir(), "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    start = time.monotonic()
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_LIMIT_S} s after {time.monotonic() - start:.0f} s", 4)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
