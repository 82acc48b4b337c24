#!/usr/bin/env python3
"""Build the perfbench binary from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload mul8cmp_single_m2 --seed 1 \
        --seconds 20 --trace 0

The library and the benchmark are built with CMake under $CARGO_TARGET_DIR
(default .bench_build) on the first run and incrementally afterwards; the
build log goes to stderr. The binary's stdout is passed through unchanged, so
its last line is the run's JSON result. Trace files are kept next to the
build. Exits non-zero without a result when the sources, the build or the run
fail.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"perfbench: no matcha sources under {ROOT}", file=sys.stderr)
        return 2

    out_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out_root.is_absolute():
        out_root = ROOT / out_root
    try:
        exe = build(out_root / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    trace_dir = out_root / "perfbench-traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(trace_dir / f"{args.workload}-{args.seed}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
