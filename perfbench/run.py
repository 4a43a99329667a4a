#!/usr/bin/env python3
"""Repository benchmark runner (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds davinci_serverd and the load
generator from source into .bench_build/perfbench (Release), runs one
workload against a daemon child process, checks its answers, prints every
metric by name with its unit and sample count, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
`--workload all` runs every workload in turn and ends with one JSON line
whose metrics are named <workload>/<metric>.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
LOADGEN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "davinci_serverd.cc")):
        fail("run from the repository root: src/server/davinci_serverd.cc not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_loadgen",
                  "davinci_serverd", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return (os.path.join(BUILD, "perfbench_loadgen"),
            os.path.join(BUILD, "repo", "src", "davinci_serverd"))


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(loadgen, daemon, workload, args, wanted):
    """Runs one workload; prints its report and returns its result dict."""
    command = [loadgen, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--daemon", daemon, "--out-dir", OUT, "--commit", commit()]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=LOADGEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("load generator exceeded %d s" % LOADGEN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail("load generator printed no result (exit %d)" % run.returncode)
    report = json.loads(lines[-1])

    params = report.get("params", {})
    print("run: " + json.dumps({k: v for k, v in params.items()
                                if not k.startswith("ladder_")}, sort_keys=True))
    for key in sorted(k for k in params if k.startswith("ladder_")):
        print("ladder " + params[key])
    for name, m in sorted(report["metrics"].items()):
        print("metric %-40s %.6g %s (n=%d%s)" % (name, m["value"], m["unit"], m["samples"],
                                                 ", " + m["detail"] if m["detail"] else ""))
    for error in report.get("errors", []):
        print("error " + error)

    metrics = {}
    missing = []
    for metric in wanted:
        got = report["metrics"].get(metric["name"])
        if got is None:
            missing.append(metric["name"])
            continue
        metrics[metric["name"]] = {"value": got["value"], "unit": metric["unit"]}
    if missing:
        print("error metrics missing from this run: " + ", ".join(missing))
    return {"correct": bool(report["correct"]) and run.returncode == 0 and not missing,
            "attempted": int(report["attempted"]), "failed": int(report["failed"]),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found in " + ROOT)
    with open(spec_path) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    loadgen, daemon = build()
    if args.workload != "all":
        result = run_workload(loadgen, daemon, args.workload, args, wanted)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            print("== " + name)
            one = run_workload(loadgen, daemon, name, args, wanted)
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for metric, value in one["metrics"].items():
                result["metrics"][name + "/" + metric] = value
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
