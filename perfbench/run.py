#!/usr/bin/env python3
"""Build and run one workload of the AnnoPar benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the repository's libraries plus the annopar_bench driver) as an
optimized Release build in $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs reuse the build while the sources are unchanged. Build
output goes to stderr, so the last line on stdout is the result object
printed by annopar_bench. A copy of every run's record, with the
environment, lands in .bench_results/.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compile_suite", "serve_hot", "edit_loop", "run_suite")


def source_digest():
    """SHA-256 over the sources the driver is built from."""
    h = hashlib.sha256()
    files = [p for d in (ROOT / "src", HERE) for p in d.rglob("*") if p.is_file()]
    for p in sorted(files):
        if p.suffix in (".cpp", ".h", ".txt"):
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_revision():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir, digest):
    exe = build_dir / "annopar_bench"
    stamp = build_dir / "perfbench.stamp"
    if exe.exists() and stamp.exists() and stamp.read_text() == digest:
        return exe
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(build_dir), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    stamp.write_text(digest)
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: the AnnoPar sources (src/) are missing; "
                 "run from a full checkout")
    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not build_dir.is_absolute():
        build_dir = pathlib.Path.cwd() / build_dir
    digest = source_digest()
    exe = build(build_dir, digest)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--rev", git_revision(), "--src-digest", digest,
           "--results-dir", str(ROOT / ".bench_results")]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
