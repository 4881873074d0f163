#!/usr/bin/env python3
"""The repository benchmark: builds `perfbench` from source and runs one workload.

    python3 perfbench/run.py --workload cosim|sampled|campaign \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
`.bench_build/perfbench` (the simulator libraries from src/ plus the
benchmark binary in this directory); later runs rebuild incrementally.

It prints a human-readable report, then as its last line one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end metrics listed in
BENCHMARK.json, with `--trace 1` its per-layer metrics; a per-layer
metric whose layer does not run in the chosen workload reads 0. The
traced run also writes its spans as Chrome trace_event JSON to
`.bench_build/traces/<workload>-<seed>.json`.

Host capacity (one copy of a fixed compute kernel against N
concurrent copies), core count, build type and revision are printed
beside the metrics and never folded into them.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("cosim", "sampled", "campaign")

# What `work_per_s` counts on each workload.
WORK_ITEM = {
    "cosim": "DiffTest-checked commits (cosim_commits_per_s)",
    "sampled": "SimPoint slices taken from profile to reduction",
    "campaign": "fuzz jobs (campaign_jobs_per_s)",
}

# A run must end within 180 s of its start, build excluded.
RUN_LIMIT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=850, env=env)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build failed")


def revision():
    head = os.path.join(ROOT, ".git")
    if not os.path.isdir(head):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def run_binary(args, trace_out, deadline):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("perfbench output is not JSON")


def select_metrics(spec, out, trace):
    """The metrics BENCHMARK.json names for this mode, checked."""
    got = out["metrics"]
    chosen = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name not in got:
            if not trace:
                fail(f"end-to-end metric {name} missing")
            chosen[name] = {"value": 0.0, "unit": unit}
            continue
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            fail(f"{name}: unit {got[name]['unit']} != {unit}")
        if not math.isfinite(value) or (not trace and value <= 0):
            fail(f"{name}: bad value {value}")
        chosen[name] = {"value": value, "unit": unit}
    extra = set(got) - set(chosen)
    if extra:
        fail(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return chosen


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    trace_out = None
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir,
                                 f"{args.workload}-{args.seed}.json")
    out = run_binary(args, trace_out, deadline)
    metrics = select_metrics(spec, out, args.trace)

    host = out["host"]
    attempted, failed = out["attempted"], out["failed"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"workers {out['workers']}  trace {args.trace}")
    print(f"host: {host['cores']} cores, one of N kernel copies runs at "
          f"{host['per_thread']:.2f}x a lone copy "
          f"({host['effective_cores']:.2f} effective cores), "
          f"build {host['build']}, rev {revision()}")
    print(f"work_per_s counts {WORK_ITEM[args.workload]}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print("simulated (exact for a seed):")
    for name, m in sorted(out["sim"].items()):
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"failed_ops_pct {100.0 * failed / max(attempted, 1):.3f} "
          f"({failed} of {attempted})")
    for f in out["failures"]:
        print(f"  FAILED: {f}")
    if trace_out:
        print(f"spans: {os.path.relpath(trace_out, ROOT)}")

    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
