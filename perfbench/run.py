#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload train-cd0 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The build (CMake, Release) goes to $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; per-run records and Chrome traces go to
.bench_results/. Every run first runs the arithmetic self-test. The last
stdout line is the JSON result; any failure exits non-zero without one.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so stdout's last line stays the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return out


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """sha256 over the library's build file and sources and the benchmark's:
    identifies the code measured even where the checkout is not a git
    repository."""
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_child(cmd):
    """Runs `cmd`, echoes its stdout, and returns (exit code, last line)."""
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
        return 1, []
    lines = r.stdout.rstrip("\n").split("\n")
    return r.returncode, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["train-cd0", "serve-uniform", "serve-stream"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true", help="build and run the self-test only")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    out = build()
    if out is None:
        return 1
    code, lines = run_child([os.path.join(out, "perfbench_selftest")])
    print("\n".join(lines), file=sys.stderr)
    if code != 0:
        log("self-test failed")
        return 1
    if args.selftest:
        return 0

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", os.path.join(ROOT, ".bench_results"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    code, lines = run_child(cmd)
    if code != 0:
        print("\n".join(lines), file=sys.stderr)
        log(f"{args.workload} exited with {code}")
        return 1

    # The printed metric set must be exactly the one BENCHMARK.json declares.
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = declared_metrics(args.trace)
    if got != want:
        print("\n".join(lines), file=sys.stderr)
        log(f"printed metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
