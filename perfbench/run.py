#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The first call configures and builds
perfbench/ (the library from src/ plus the measuring program) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
check that the build is current.

With --trace 0 the program runs untraced and the result carries every
end-to-end metric BENCHMARK.json names (for any of the three workloads,
including serve_mixed, which BENCHMARK.json does not gate); set-up is measured in several
fresh processes and reported as their median. With --trace 1 it runs the
traced variant and the result carries every per-layer metric, and the spans
are written as Chrome trace-event JSON under <build>/traces/.

Every run's full record (all metrics, the op accounting and the host
stamp, with the git commit read when the run starts) is written to
<build>/results/<workload>-seed<n>-trace<t>-<commit>.json. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
With --workload all the workloads run in turn, each followed by its own
result line. The exit code is 0 only when every operation was correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
# Every workload the program runs. BENCHMARK.json lists the ones a change is
# judged by; serve_mixed is left out there because its throughput and tail
# swing several-fold with hypervisor steal on small shared hosts.
WORKLOADS = ("paper_apps", "compose_small", "serve_mixed")
# Extra fresh processes that only set up, so set-up time is a median.
SETUP_REPEATS = 4
BUILD_TIMEOUT_S = 840
RUN_MARGIN_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def git_commit():
    """HEAD of the tree the benchmark runs from, with "-dirty" when tracked
    files differ from it; "unknown" when the tree is not a git checkout."""
    def git(*args):
        done = subprocess.run(["git", "-C", ROOT, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30,
                              check=True)
        return done.stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != os.path.realpath(ROOT):
            return "unknown"
        commit = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return commit + ("-dirty" if dirty else "")


def build(build_dir):
    """Configure once, then bring the build up to date; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return False
        if done.returncode != 0:
            log(f"build step failed with exit code {done.returncode}: {' '.join(cmd)}")
            return False
    return True


def run_program(cmd, timeout_s, echo):
    """Run the measuring program; return its record (its last stdout line)."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout_s, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"run failed: {err}")
        return None
    lines = done.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no record from {' '.join(cmd)} (exit code {done.returncode})")
        return None
    record["exit_code"] = done.returncode
    return record


def run_workload(spec, build_dir, commit, workload, seed, seconds, trace):
    """Run one workload; return its result object, or None if it did not run."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    exe = os.path.join(build_dir, "perfbench")
    base = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    timeout_s = seconds + RUN_MARGIN_S

    records = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            rec = run_program(base + ["--setup-only"], timeout_s, echo=False)
            if rec is None:
                return None
            records.append(rec)
    main_cmd = base + ["--trace", str(trace)]
    trace_path = None
    if trace:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        trace_path = os.path.join(build_dir, "traces",
                                  f"{workload}-seed{seed}-{commit[:12]}.json")
        main_cmd += ["--trace-out", trace_path]
    rec = run_program(main_cmd, timeout_s, echo=True)
    if rec is None:
        return None
    records.append(rec)

    setup_samples = [r["setup_s"] for r in records]
    values = dict(rec["metrics"])
    values["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    metrics = {}
    missing = []
    for m in wanted:
        got = values.get(m["name"])
        if got is None or got["value"] is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if missing:
        log(f"metrics not reported: {', '.join(missing)}")

    attempted = sum(r["ops"] for r in records)
    failed = sum(r["ops_failed"] for r in records)
    correct = failed == 0 and not missing and all(r["exit_code"] == 0 for r in records)

    os.makedirs(os.path.join(build_dir, "results"), exist_ok=True)
    record_path = os.path.join(build_dir, "results",
                               f"{workload}-seed{seed}-trace{trace}-{commit[:12]}.json")
    host = dict(rec["host"], git_commit=commit)
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "setup_s_samples": setup_samples,
                   "attempted": attempted, "failed": failed, "correct": correct,
                   "trace_file": trace_path, "metrics": rec["metrics"],
                   "host": host, "notes": rec["notes"]}, f, indent=1)
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(SPEC_PATH, encoding="utf-8") as f:
        spec = json.load(f)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    commit = git_commit()
    ok = True
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        result = run_workload(spec, build_dir, commit, workload, args.seed, args.seconds,
                              args.trace)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
