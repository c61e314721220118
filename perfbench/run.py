#!/usr/bin/env python3
"""Serve-path benchmark of pulphd at the paper's operating point.

Run from the repository root:

    python3 perfbench/run.py --workload emg-text-n1 --seed 1 --seconds 10 --trace 0

Builds the `pulphd_cli` daemon and the `perfbench_client` load generator
from source (Release, into $CARGO_TARGET_DIR or .bench_build), then runs the
client, which trains the workload's models from the seeded EMG generator,
drives `pulphd_cli serve --workers 2 --threads 1` over a Unix socket, checks
every response byte-for-byte against the offline classifier and prints one
JSON result object as the last line of stdout. Build output goes to stderr.
Exit code 0 means the run completed and every output was correct.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over every file the daemon and client are built from."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "pulphd_cli",
                    "perfbench_client"], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(build_dir, "pulphd", "tools", "pulphd_cli"),
            os.path.join(build_dir, "perfbench_client"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="emg-text-n1, emg-binary-n4 or emg-stream-n4")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="self-test: make one expected response wrong; the run must fail")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"the pulphd sources are not in {ROOT}")
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.relpath(os.path.abspath(target), ROOT)
    try:
        cli, client = build(os.path.join(target, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    cmd = [client, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--cli", cli,
           "--out", os.path.join(target, "perfbench-out"), "--commit", commit(),
           "--source", source_digest()]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
