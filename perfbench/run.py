#!/usr/bin/env python3
"""The repository benchmark: builds sgnn_perfbench from this checkout and runs it.

Run one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload fig3_train --seed 1 --seconds 25 --trace 0

The last stdout line is the result {"correct", "attempted", "failed",
"metrics"}; the line before it is the record (host fingerprint, workload
facts, exact counts, output checks), which is also saved under
.bench_build/results/.

Run every workload once and print each end-to-end metric by name and unit:

    python3 perfbench/run.py all [--seed 1] [--seconds 25] [--trace 0|1]

Compare two sets of saved records (directories or files), e.g. a parent
commit against a change. Timings are compared only between records whose
host fingerprints match; exact counts must repeat for equal seeds:

    python3 perfbench/run.py compare OLD NEW
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "results"
BINARY = BUILD / "sgnn_perfbench"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark binary; build output goes
    to stderr so stdout carries only the result."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no sgnn sources under {ROOT}; run from a full checkout")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DSGNN_WERROR=OFF"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "sgnn_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)


def run_once(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines, record, result)."""
    scratch = ROOT / ".bench_build" / "tmp" / f"{workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scratch", str(scratch)]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 124, [], None, None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.splitlines()
    record = result = None
    if len(lines) >= 2:
        try:
            record = json.loads(lines[-2])["record"]
            result = json.loads(lines[-1])
        except (ValueError, KeyError):
            record = result = None
    if record is not None:
        RESULTS.mkdir(parents=True, exist_ok=True)
        name = f"{workload}-s{seed}-t{trace}-{time.time_ns()}.json"
        with open(RESULTS / name, "w", encoding="utf-8") as f:
            json.dump({"record": record, "result": result}, f)
    return proc.returncode, lines, record, result


def main_run(argv):
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    build()
    code, lines, _, _ = run_once(args.workload, args.seed, args.seconds,
                                 args.trace)
    for line in lines:
        print(line)
    return code


def main_all(argv):
    parser = argparse.ArgumentParser(prog="run.py all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    build()
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        code, _, record, result = run_once(name, args.seed, args.seconds,
                                           args.trace)
        if result is None:
            print(f"{name}: no result (exit {code})")
            status = 1
            continue
        verdict = "correct" if result["correct"] else "INCORRECT"
        print(f"{name}: {verdict}, {result['attempted']} attempted, "
              f"{result['failed']} failed, fingerprint "
              f"{json.dumps(record['fingerprint'])}")
        for key in record["check_failures"] + record["invalid"]:
            print(f"  ! {key}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:38s} {value['value']:>16.6g} {value['unit']}")
        if code != 0 or not result["correct"]:
            status = 1
    return status


def load_records(paths):
    records = []
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            with open(file, encoding="utf-8") as f:
                records.append(json.load(f))
    return records


def main_compare(argv):
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old, new = load_records([args.old]), load_records([args.new])
    if not old or not new:
        log("nothing to compare")
        return 2
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        a = [r for r in old if r["record"]["workload"] == workload]
        b = [r for r in new if r["record"]["workload"] == workload]
        if not a or not b:
            continue
        prints = {json.dumps(r["record"]["fingerprint"], sort_keys=True)
                  for r in a + b}
        if len(prints) > 1:
            print(f"{workload}: REFUSED, records come from different hosts "
                  f"or settings: {sorted(prints)}")
            status = 2
            continue
        # Exact counts repeat bit for bit for equal inputs.
        for ra in a:
            for rb in b:
                same_run = all(ra["record"][k] == rb["record"][k]
                               for k in ("seed", "seconds", "trace"))
                if same_run and ra["record"]["counts"] != rb["record"]["counts"]:
                    for key, value in ra["record"]["counts"].items():
                        other = rb["record"]["counts"].get(key)
                        if other != value:
                            print(f"{workload} seed {ra['record']['seed']}: "
                                  f"count {key} {value} -> {other}")
                    status = max(status, 1)
        for name, meta in bounds.items():
            va = [r["result"]["metrics"][name]["value"] for r in a
                  if name in r["result"].get("metrics", {})]
            vb = [r["result"]["metrics"][name]["value"] for r in b
                  if name in r["result"].get("metrics", {})]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma
            worse = change > 0 if meta["better"] == "lower" else change < 0
            verdict = "REGRESSION" if worse and abs(change) > meta["bound"] else "ok"
            if verdict != "ok":
                status = max(status, 1)
            print(f"{workload:12s} {name:22s} {ma:14.6g} -> {mb:14.6g} "
                  f"{meta['unit']:8s} {change:+8.2%} (bound {meta['bound']:.0%}, "
                  f"n={len(va)}/{len(vb)}) {verdict}")
    return status


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "all":
        return main_all(argv[1:])
    if argv and argv[0] == "compare":
        return main_compare(argv[1:])
    return main_run(argv)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as error:
        log(f"build failed: {error}")
        sys.exit(2)
