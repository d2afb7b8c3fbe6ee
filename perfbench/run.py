#!/usr/bin/env python3
"""The repository benchmark: builds the driver from source, runs one
workload through the public API, checks its outputs and prints its metrics.

  python3 perfbench/run.py --workload train --seed 1 --seconds 12 --trace 0 \\
      --serve-rate 70 --serve-outstanding 8 --slo-ms 250 --step-limit-ms 2000

Run it from the repository root; BENCHMARK.json there names the workloads
and metrics and fixes the constants above. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
with --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The build tree, the driver's raw measurements,
the Chrome trace of a traced run and a result file with provenance land in
.bench_build/. Exits non-zero when the build, a self-test or a correctness
check fails.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
BUILD_TYPE = "RelWithDebInfo"
DRIVER_TIMEOUT_S = 170
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def self_test():
    """The benchmark's own arithmetic must pass its tests before it reports."""
    suite = unittest.defaultTestLoader.loadTestsFromName("test_metrics")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    return result.wasSuccessful()


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(DRIVER)


def source_digest():
    """sha256 over the program's sources (the checkout may not be a git
    repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_driver(args, out_dir):
    raw_path = os.path.join(out_dir, "raw.json")
    trace_path = os.path.join(out_dir, "trace.json")
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path,
           "--serve-rate", str(args.serve_rate),
           "--serve-outstanding", str(args.serve_outstanding)]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    for stale in (raw_path, trace_path):
        if os.path.exists(stale):
            os.remove(stale)
    env = dict(os.environ)
    env.pop("SCALEFOLD_TRACE", None)  # the driver decides what is traced
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        return None, None
    with open(raw_path) as f:
        raw = json.load(f)
    events = None
    if args.trace:
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
    return raw, events


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--serve-rate", type=float, required=True,
                    help="open-loop offered rate, requests per second")
    ap.add_argument("--serve-outstanding", type=int, required=True,
                    help="requests kept in flight by the closed loop")
    ap.add_argument("--slo-ms", type=float, required=True,
                    help="serving latency limit for slo_met_frac")
    ap.add_argument("--step-limit-ms", type=float, required=True,
                    help="training step latency limit for slo_met_frac")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log("unknown workload %r (BENCHMARK.json has %s)" % (args.workload, workloads))
        return 2
    if not self_test():
        log("benchmark self-test failed")
        return 3
    if not build():
        log("build failed")
        return 2
    os.sync()  # flush the build's writes before anything is timed

    out_dir = os.path.join(BUILD, "results", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    os.makedirs(out_dir, exist_ok=True)
    raw, events = run_driver(args, out_dir)
    if raw is None:
        log("driver failed")
        return 1

    checks = {}
    for c in raw["checks"]:  # a check recorded once per pass must hold in each
        checks[c["name"]] = checks.get(c["name"], True) and c["ok"]
    if args.workload in ("train", "dap4"):
        # The driver replays the trainer's recycling draws; if the replay
        # were out of step with the trainer, the two groups' step times
        # would not separate.
        steps = raw["passes"][0]["steps"]
        groups = {r: [s["wall"] for s in steps if s["r"] == r] for r in (1, 2)}
        checks["recycle_replay"] = bool(groups[1] and groups[2]) and (
            metrics.median(groups[2]) > 1.1 * metrics.median(groups[1]))

    limits = {"serve_rate": args.serve_rate, "slo_ms": args.slo_ms,
              "step_limit_ms": args.step_limit_ms}
    spans = metrics.build_spans(events) if args.trace else []
    if args.trace:
        listed = spec["per_layer"]
        values = metrics.per_layer(args.workload, raw, spans,
                                   [m["name"] for m in listed])
    else:
        listed = spec["end_to_end"]
        values = metrics.end_to_end(args.workload, raw, limits)
    result_metrics = {}
    for m in listed:
        v = values.get(m["name"])
        ok = isinstance(v, (int, float)) and math.isfinite(v)
        checks["metric_" + m["name"]] = ok
        result_metrics[m["name"]] = {"value": float(v) if ok else 0.0,
                                     "unit": m["unit"]}

    accounting = metrics.step_accounting(spans)
    attempted, failed = metrics.attempted_failed(args.workload, raw)
    correct = all(checks.values())
    provenance = dict(raw["provenance"], git_commit=git_commit(),
                      source_sha256=source_digest(), seconds=args.seconds,
                      trace=args.trace, limits=limits)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        details = {k: v for k, v in values.items() if k.startswith("detail.")}
        json.dump(dict(result, provenance=provenance, checks=checks,
                       accounting=accounting, details=details), f, indent=1)

    print("provenance " + json.dumps(provenance, sort_keys=True))
    if accounting:
        print("step accounting (ms per step) " + json.dumps(accounting))
    for name, ok in sorted(checks.items()):
        if not ok:
            print("FAILED check %s" % name)
    for name, v in result_metrics.items():
        print("%-32s %14.6g %s" % (name, v["value"], v["unit"]))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
