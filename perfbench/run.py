#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first call configures and compiles the
m3d library plus the benchmark binary (RelWithDebInfo, as the repository's
default build) under $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls only check that the build is current. The binary then runs
with M3D_THREADS set to the number of usable cores (unless already set;
ldpc_iso always runs on a serial pool) and its standard output is passed
through: provenance, digests, failures and,
as the last line, the JSON result. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ldpc_iso", "des_sweep", "char_lib")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(out, jobs):
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "m3d_perfbench",
           "-j", str(jobs)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "m3d_perfbench"


def revision():
    """The git commit when ROOT is a work tree, plus a hash of the sources
    the benchmark compiles, which identifies a checkout without git."""
    rev = "no-git"
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            rev = "git:" + head.stdout.strip()[:12]
    h = hashlib.sha1()
    files = [ROOT / "tests" / "test_fixtures.hpp"]
    for d in (ROOT / "src", HERE):
        files += [p for p in d.rglob("*") if p.is_file()]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return f"{rev}+src:{h.hexdigest()[:12]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no m3d sources under {ROOT}")

    jobs = len(os.sched_getaffinity(0))
    out = build_dir()
    binary = build(out, jobs)
    env = dict(os.environ)
    env.setdefault("M3D_THREADS", str(jobs))
    for var in ("M3D_STORE", "M3D_TRACE"):  # would change what is measured
        env.pop(var, None)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", str(out / "scratch"), "--revision", revision()]
    try:
        rc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
