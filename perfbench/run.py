#!/usr/bin/env python3
"""Build and run the GekkoFS end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles the GekkoFS libraries from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
one workload from the repository root. Daemon roots go to .bench_work/
and traced-run spans to .bench_out/. The last line of stdout is the
JSON result: {"correct", "attempted", "failed", "metrics"}.

--self-test runs every workload briefly in both modes and checks the
output against BENCHMARK.json, and that a corrupted read counts as a
failed op.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "perfbench"


def source_digest():
    """sha256 over the sources the benchmark builds, for provenance
    where no git metadata is available."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "none"


def run(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (result dict, full stdout)."""
    # Shipped defaults only: no GEKKO_* tuning leaks in from the caller.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GEKKO_")}
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-sha", git_sha(), "--source-digest", source_digest(),
           *extra]
    p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                       text=True, timeout=RUN_TIMEOUT_S)
    if p.returncode != 0:
        raise RuntimeError(f"{workload}: benchmark exited {p.returncode}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        raise RuntimeError(f"{workload}: malformed result line")
    return result, p.stdout


def self_test(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in spec["workloads"]:
        name = wl["name"]
        spans = ROOT / ".bench_out" / f"{name}-seed7.spans.json"
        spans.unlink(missing_ok=True)
        for trace in (0, 1):
            result, _ = run(binary, name, 7, 1, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = expected[trace]
            if got != want:
                wrong_unit = sorted(k for k in got.keys() & want.keys()
                                    if got[k] != want[k])
                problems.append(
                    f"{name} trace={trace}: missing "
                    f"{sorted(want.keys() - got.keys())}, extra "
                    f"{sorted(got.keys() - want.keys())}, wrong unit "
                    f"{wrong_unit}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: failed ops")
        if not spans.exists():
            problems.append(f"{name}: traced run wrote no spans")
    corrupted, _ = run(binary, "ior_loopback", 7, 1, 0,
                       ["--inject-corruption"])
    if corrupted["correct"] or corrupted["failed"] < 1:
        problems.append("a corrupted read was not counted as failed")
    for p in problems:
        print("FAIL:", p)
    print("self-test", "failed" if problems else "ok")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test(binary)
        _, stdout = run(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
