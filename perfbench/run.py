#!/usr/bin/env python3
"""Builds the csm libraries and the benchmark program from source, then runs
one benchmark workload (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the repository root. The build tree and the work files go
under $CARGO_TARGET_DIR (default .bench_build). The last line of standard
output is the result object; the line before it is the run record. Build
output goes to standard error.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("q1_bounded", "q1_roomy", "netlog_live")
RUN_TIMEOUT_S = 170


def out_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no csm sources at %s/src" % ROOT)
    build_dir = out_dir() / "perfbench-cmake"
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "check": True}
    try:
        if not (build_dir / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B",
                            str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                           **quiet)
        subprocess.run(["cmake", "--build", str(build_dir), "--target",
                        "csm_perfbench", "-j", str(os.cpu_count() or 1)],
                       **quiet)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("run.py: build failed: %s" % err)
    return build_dir / "csm_perfbench"


def source_digest():
    """sha256 over the benchmark's and the library's source files."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run(binary, workload, seed, seconds, trace, corrupt=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    work_dir = out_dir() / "perfbench-work"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work_dir), "--commit", commit(),
           "--source-digest", source_digest()]
    if corrupt:
        cmd.append("--corrupt-output")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out" % workload, file=sys.stderr)
        return 1, []
    finally:
        for facts in work_dir.glob("*.facts.bin"):
            facts.unlink()
    return proc.returncode, proc.stdout.splitlines()


def self_test(binary):
    """A clean run must pass the reference check and a run whose first
    checked output is corrupted must fail it."""
    verdicts = {}
    for corrupt in (False, True):
        code, lines = run(binary, "netlog_live", 1, 1, 0, corrupt)
        if code != 0 or not lines:
            print("self-test: run failed (corrupt=%s)" % corrupt,
                  file=sys.stderr)
            return 1
        verdicts[corrupt] = json.loads(lines[-1])
    clean, bad = verdicts[False], verdicts[True]
    ok = (clean["correct"] and clean["failed"] == 0 and
          not bad["correct"] and bad["failed"] > 0)
    print("self-test: clean failed=%d/%d, corrupted failed=%d/%d: %s" %
          (clean["failed"], clean["attempted"], bad["failed"],
           bad["attempted"], "ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)
    code, lines = run(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    if code != 0:
        return code if code > 0 else 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
