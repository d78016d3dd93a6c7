#!/usr/bin/env python3
"""hymem end-to-end benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and with it the hymem
libraries from src/) into .bench_build/perfbench, runs one workload in one
process, checks its output and prints the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The line before it is the run manifest (seed,
scale, workers, nproc, compiler, build type, git describe). The full report
and, for traced runs, the spans are written under .bench_build/perfbench/.

Checks: every cell must pass the seed-independent checks made by the
binary (hits + faults == accesses, fills == faults, accesses == scaled
Table III reads + writes, identical rows on every repetition, traced rows ==
untraced rows). For the default seed each cell's science-CSV row must also
match the digest pinned in perfbench/pinned_seed42.json. Every failing cell
execution counts as a failed operation.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PINNED = os.path.join(HERE, "pinned_seed42.json")
PINNED_SEED = 42
WORKLOADS = ("table3-grid", "replay-read", "replay-write")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once and rebuilds (a no-op when nothing changed)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "hymem_perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "hymem_perfbench")


def git_describe():
    """The checkout's revision, or a note saying there is none."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return "unavailable (not a git checkout)"
        return subprocess.run(["git", "-C", ROOT, "describe", "--always",
                               "--dirty", "--tags"], capture_output=True,
                              text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable (not a git checkout)"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed:", e)
        return 1
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(results, stem + ".spans.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log("hymem_perfbench exited with", proc.returncode)
        return 1
    report = json.loads(proc.stdout)

    pinned_rows = None
    if args.seed == PINNED_SEED:
        with open(PINNED) as f:
            pinned = json.load(f)[args.workload]
        pinned_rows = pinned["rows"]
        if len(pinned_rows) != len(report["cells"]):
            log("pinned digest table has %d rows, run has %d cells"
                % (len(pinned_rows), len(report["cells"])))
            return 1
        if report["csv_digest"] != pinned["csv_digest"]:
            # Rows are compared one by one below; a whole-CSV mismatch with
            # matching rows means the header changed, which fails every cell.
            log("science CSV digest %s != pinned %s"
                % (report["csv_digest"], pinned["csv_digest"]))
            if all(c["digest"] == r for c, r in zip(report["cells"], pinned_rows)):
                pinned_rows = [None] * len(pinned_rows)

    attempted = failed = 0
    for cell in report["cells"]:
        attempted += cell["runs"]
        bad = cell["failed"]
        if pinned_rows is not None and cell["digest"] != pinned_rows[cell["id"]]:
            bad = cell["runs"]
            cell["reason"] = cell["reason"] or "science CSV row != pinned digest"
        failed += bad
        if bad:
            log("cell %d %s/%s failed %d/%d: %s" % (
                cell["id"], cell["workload"], cell["policy"], bad,
                cell["runs"], cell["reason"]))

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            log("metric %s missing or has the wrong unit: %r" % (m["name"], got))
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    manifest = dict(report["manifest"], workload=args.workload,
                    git_describe=git_describe())
    report["manifest"] = manifest
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(report, f, indent=1)

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
