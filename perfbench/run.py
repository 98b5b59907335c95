#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload paper_step --seed 1 --seconds 15 --trace 0

Configures and builds perfbench/CMakeLists.txt (the code generator from src/
plus the hcg_perfbench binary) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the binary with the given arguments.  The
binary prints one JSON result object as its last stdout line.  Temporary
files (generated C, compiled objects) go to a per-run directory under the
build directory, removed afterwards.

Exit codes: hcg_perfbench's own (0 measured, 1 crashed, 2 usage, 3 refused an
HCG_* knob), or 2 when the code generator sources are missing, 1 when the
build fails or the run exceeds its time limit.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build() -> Path:
    """Configures (once) and builds hcg_perfbench; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "hcg_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / "hcg_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--allow-knobs", action="store_true",
                        help="record HCG_* knobs and run anyway")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print(f"run.py: no code generator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    tmp = build_dir() / "tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.allow_knobs:
        cmd.append("--allow-knobs")
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
