#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload row_replay --seed 7 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
simulator library and the perfbench binary from source into
.bench_build/perfbench (Release); later calls rebuild incrementally. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's detail
(host, sample counts, checks, trace breakdown). Every run also appends a
record to .bench_build/results.jsonl, the input of perfbench/compare.py.

Other modes:
    python3 perfbench/run.py --selftest             benchmark self-tests
    python3 perfbench/run.py --record-golden        rewrite golden.txt (seed 1)
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden.txt"
WORKLOADS = ("row_replay", "row_rewrite", "array64")
# A run must end within 180 s; stop the binary well before that.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binaries; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configured = (BUILD / "build.ninja").exists() or (BUILD / "Makefile").exists()
    if not configured:
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        log("configuring " + " ".join(cmd))
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs,
           "--target", "perfbench", "perfbench_selftest"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_sha():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_binary(args):
    """Runs the perfbench binary; returns (exit code, stdout lines)."""
    try:
        r = subprocess.run([str(BUILD / "perfbench")] + args,
                           stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, []
    return r.returncode, r.stdout.splitlines()


def bench(a):
    spans_dir = ROOT / ".bench_build" / "spans"
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--golden", str(GOLDEN)]
    if a.trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
        args += ["--spans", str(spans_dir / f"{a.workload}-{a.seed}.jsonl")]
    rc, lines = run_binary(args)
    if rc != 0 or len(lines) < 2:
        log(f"perfbench failed (exit {rc})")
        return rc or 1
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    detail["host"]["git_sha"] = git_sha()
    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
              "trace": a.trace, "detail": detail, "result": result}
    with open(ROOT / ".bench_build" / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0


def selftest():
    r = subprocess.run([str(BUILD / "perfbench_selftest")])
    py = subprocess.run([sys.executable, "-B", "-m", "unittest", "-q",
                         "test_compare"], cwd=HERE)
    return 0 if r.returncode == 0 and py.returncode == 0 else 1


def record_golden():
    if GOLDEN.exists():
        GOLDEN.unlink()
    for w in WORKLOADS:
        rc, _ = run_binary(["--workload", w, "--seed", "1", "--seconds", "1",
                            "--trace", "0", "--record-golden", str(GOLDEN)])
        if rc != 0:
            return rc
    log(f"wrote {GOLDEN}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record-golden", action="store_true")
    a = p.parse_args()
    if not a.selftest and not a.record_golden and a.workload is None:
        p.error("--workload is required")
    if not build():
        log("build failed")
        return 1
    if a.selftest:
        return selftest()
    if a.record_golden:
        return record_golden()
    return bench(a)


if __name__ == "__main__":
    sys.exit(main())
