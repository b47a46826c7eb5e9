#!/usr/bin/env python3
"""Builds and runs the end-to-end + per-layer benchmark (see README.md here).

Builds the benchmark (a standalone CMake project that compiles the engine
from the repository root), then for each workload runs one process that
writes the model and its bit-exact reference outputs, one that times the
load against them, and SETUP_REPS that each time one set-up, half of them
before the timed process and half after it.

  python3 bench/e2e/run.py --workload quicknet_l_1t --seed 3 --seconds 20 --trace 0
      one workload; the last stdout line is one JSON object with the keys
      correct, attempted, failed and metrics (end-to-end metrics, or the
      per-layer ones with --trace 1)
  python3 bench/e2e/run.py --seed 3
      every workload; prints every metric as "workload metric value unit"
      and writes a results file for compare.py (see --out)
  python3 bench/e2e/run.py --seed 3 --trace 1
      the traced run of every workload (Chrome trace + per-layer table)
  python3 bench/e2e/run.py --smoke
      every workload for 2 s, traced and untraced, checking that every
      metric named in BENCHMARK.json is emitted and finite

Exit status is non-zero when a build or run fails, when an output differs
from the reference, or when a metric is missing.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# Exit status of e2e_bench for a run that measured nothing trustworthy
# (dropped spans, wrong thread count); retried once.
INVALID_RUN = 3
# Set-up is timed once in each of this many fresh processes, half before
# the timed run and half after it, and the metrics are medians over them.
# Slow set-ups come in bursts of a second or two: medians of ten back-to-back
# set-ups of int8_rn18_1t ranged over 62-90 ms within six seconds. Per
# --trace value: metric -> (key of the `e2e_bench setup` line, unit).
SETUP_REPS = 20
SETUP_METRICS = {
    0: {"setup_s": ("total_s", "s")},
    1: {"converter.deserialize_ms": ("deserialize_ms", "ms"),
        "graph.compile_ms": ("compile_ms", "ms"),
        "graph.variants_ms": ("runtime_ms", "ms"),
        "graph.first_invoke_ms": ("first_ms", "ms")},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("run.py: " + msg)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e"


def build(bdir):
    """Configures once, then builds incrementally; returns the binary."""
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if shutil.which("cmake") is None:
            fail("cmake not found")
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "-j",
                      str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                log(proc.stdout[-4000:])
                fail("build step failed: " + " ".join(cmd))
    binary = bdir / "e2e_bench"
    if not binary.exists():
        fail("build produced no e2e_bench")
    return binary


def time_setups(binary, common, workload, trace, reps):
    """Times `reps` set-ups, each in a fresh process; returns their lines."""
    lines = []
    for _ in range(reps):
        try:
            proc = subprocess.run([str(binary), "setup"] + common +
                                  ["--trace", str(trace)],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=60)
        except subprocess.TimeoutExpired:
            fail("%s: set-up timed out" % workload)
        if proc.returncode != 0:
            log(proc.stderr)
            fail("%s: set-up failed (exit %d)" % (workload, proc.returncode))
        try:
            lines.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        except (IndexError, ValueError):
            fail("%s: unreadable set-up line" % workload)
    return lines


def run_workload(binary, bdir, workload, seed, seconds, trace):
    """Reference process, then the timed process between two halves of the
    set-up processes. Returns (result, the lines it printed).
    """
    wdir = bdir / "runs" / ("%s-trace%d" % (workload, trace))
    wdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--dir", str(wdir)]
    try:
        ref = subprocess.run([str(binary), "reference"] + common,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, timeout=60)
    except subprocess.TimeoutExpired:
        fail("%s: reference timed out" % workload)
    if ref.returncode != 0:
        log(ref.stderr)
        fail("%s: reference failed (exit %d)" % (workload, ref.returncode))
    setups = time_setups(binary, common, workload, trace, SETUP_REPS // 2)
    cmd = [str(binary), "run"] + common + [
        "--seconds", repr(float(seconds)), "--trace", str(trace)]
    for attempt in (1, 2):
        result_path = wdir / "result.json"
        if result_path.exists():
            result_path.unlink()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=2 * seconds + 60)
        except subprocess.TimeoutExpired:
            fail("%s: run timed out" % workload)
        if proc.returncode == INVALID_RUN and attempt == 1:
            log("%s: invalid run, retrying: %s" % (workload, proc.stderr.strip()))
            continue
        if proc.returncode != 0:
            log(proc.stderr)
            fail("%s: run failed (exit %d)" % (workload, proc.returncode))
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError) as e:
            fail("%s: unreadable result: %s" % (workload, e))
        setups += time_setups(binary, common, workload, trace,
                              SETUP_REPS - len(setups))
        setup = {name: {"value": statistics.median(r[key] for r in setups),
                        "unit": unit, "samples": len(setups)}
                 for name, (key, unit) in SETUP_METRICS[trace].items()}
        wrong = sum(not r["ok"] for r in setups)
        result["metrics"].update(setup)
        result["metrics"]["output_mismatches"]["value"] += wrong
        result["failed"] += wrong
        result["correct"] = result["correct"] and wrong == 0
        text = proc.stdout + "".join(
            "%s %s %.6g %s (n=%d)\n" % (workload, name, m["value"], m["unit"],
                                        m["samples"])
            for name, m in setup.items())
        return result, text
    fail("%s: invalid twice" % workload)


def check_metrics(spec, result, trace):
    """The metrics BENCHMARK.json names for this mode, each present and finite."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    out = {}
    for m in wanted:
        v = got.get(m["name"])
        if v is None or not isinstance(v.get("value"), (int, float)) \
                or not math.isfinite(v["value"]):
            fail("%s: metric %s missing or not finite" % (result["workload"], m["name"]))
        if v["unit"] != m["unit"]:
            fail("%s: metric %s has unit %s, BENCHMARK.json says %s"
                 % (result["workload"], m["name"], v["unit"], m["unit"]))
        out[m["name"]] = {"value": v["value"], "unit": m["unit"]}
    return out


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1])
    ap.add_argument("--smoke", action="store_true",
                    help="2 s per workload, traced and untraced, checks only")
    ap.add_argument("--out", help="results.json path for the all-workload mode")
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)

    if args.smoke:
        for w in [args.workload] if args.workload else names:
            for trace in (0, 1):
                result, text = run_workload(binary, bdir, w, args.seed, 2.0, trace)
                check_metrics(spec, result, trace)
                if not result["correct"]:
                    fail("%s: outputs differ from the reference" % w)
                log("smoke %s trace=%d: ok, %d metrics"
                    % (w, trace, len(result["metrics"])))
        print(json.dumps({"smoke": "ok"}))
        return 0

    if args.workload:
        result, text = run_workload(binary, bdir, args.workload, args.seed,
                                    args.seconds, args.trace)
        sys.stdout.write(text)
        metrics = check_metrics(spec, result, args.trace)
        print(json.dumps({"correct": bool(result["correct"]),
                          "attempted": int(result["attempted"]),
                          "failed": int(result["failed"]),
                          "metrics": metrics}))
        return 0 if result["correct"] else 1

    results = {}
    for w in names:
        result, text = run_workload(binary, bdir, w, args.seed, args.seconds,
                                    args.trace)
        sys.stdout.write(text)
        check_metrics(spec, result, args.trace)
        results[w] = result
    out = Path(args.out) if args.out else \
        bdir / "results" / ("seed%d-trace%d.json" % (args.seed, args.trace))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                               "trace": args.trace, "time": time.time(),
                               "workloads": results}, indent=1) + "\n")
    log("wrote " + str(out))
    if args.trace:
        for w in names:
            log("trace of %s: %s" % (w, bdir / "runs" / ("%s-trace1" % w)))
    wrong = [w for w, r in results.items() if not r["correct"]]
    if wrong:
        log("outputs differ from the reference: " + ", ".join(wrong))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
