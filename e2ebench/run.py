#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see e2ebench/README.md).

    python3 e2ebench/run.py --workload solve-cold --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first run configures and builds the
benchmark package (e2ebench/CMakeLists.txt, which builds the repository's
library from source) under $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench); later runs rebuild only what changed.  The last line
of stdout is the result object; the exit code is 0 only when every answer
checked out.  A traced run (--trace 1) also validates its Chrome trace with
tools/check_trace.py and requires every span to carry a request id.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("solve-cold", "solve-wide", "serve-zipf")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message: str) -> None:
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


def build(root: Path, build_dir: Path) -> Path:
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            [cmake, "-S", str(root / "e2ebench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        [cmake, "--build", str(build_dir), "--target", "e2e_bench", "-j", jobs],
        check=True, stdout=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()))
    return build_dir / "e2e_bench"


def trace_problem(root: Path, trace: Path) -> str | None:
    """Why the trace fails validation, or None when it passes."""
    checker = root / "tools" / "check_trace.py"
    if checker.exists():
        done = subprocess.run(
            [sys.executable, str(checker), str(trace), "--require-request-ids",
             "--require-phase", "request"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
        if done.returncode != 0:
            return "tools/check_trace.py rejected the trace"
    with open(trace, "r", encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    if not events:
        return "the trace holds no spans"
    if any(event["args"]["request_id"] == 0 for event in events):
        return "a span carries request id 0"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    options = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        log(f"{root} holds no repository sources (CMakeLists.txt, src/) to build")
        return 2
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "e2ebench"
    try:
        binary = build(root, build_dir)
    except (RuntimeError, subprocess.SubprocessError) as error:
        log(f"build failed: {error}")
        return 2

    runs = build_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    trace = runs / f"{options.workload}-seed{options.seed}.trace.json"
    if options.trace == "1" and trace.exists():
        trace.unlink()
    command = [str(binary), "--workload", options.workload,
               "--seed", str(options.seed), "--seconds", str(options.seconds),
               "--trace", options.trace, "--trace-out", str(trace),
               "--state-dir", str(runs)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=root)
    except subprocess.TimeoutExpired:
        log(f"the run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        log(f"no result line (exit code {done.returncode})")
        return 1
    status = done.returncode
    problem = trace_problem(root, trace) if options.trace == "1" and status == 0 else None
    for line in lines[:-1]:
        print(line)
    if problem is None:
        print(lines[-1], flush=True)
        return status
    log(problem)
    result["correct"] = False
    print(json.dumps(result), flush=True)
    return 1


if __name__ == "__main__":
    sys.exit(main())
