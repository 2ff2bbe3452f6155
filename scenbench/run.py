#!/usr/bin/env python3
"""Scenario benchmark entry point.

    python3 scenbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Run from the repository root. Builds the simulator libraries and the driver
into .bench_build/scenbench on first use (CMake, RelWithDebInfo like the
repository's default build), then runs one workload in one process and
passes the driver's output through. The last stdout line is the result:
one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.
--smoke cuts every workload to a few flows (used by smoke_test.py).
Without --seed a workload runs at its config's own seed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "scenbench")
DRIVER = os.path.join(BUILD, "scenbench_driver")

# replicas: consecutive seeds seed..seed+replicas-1 whose scenario_s and
#   simulated FCTs are averaged. One seed's FCT tail is a few flows, so it
#   swings by tens of percent between seeds; the replica counts below keep
#   the spread across --seed values well inside the metrics' bounds.
# setup_per_run: buildFatTree calls per scenario run, made between the runs;
#   their median is setup_s. A k=16 build takes about a second, a k=8 one
#   about 8 ms.
# trace_flows: flow cap of the traced run (0 = the whole config), chosen so
#   the flight recorder holds every record in a few hundred MB.
WORKLOADS = {
    "setup_k16": dict(replicas=24, setup_per_run=0.2, trace_flows=0),
    "sketch_k8": dict(replicas=10, setup_per_run=5, trace_flows=150),
    "incast_tpp_k8": dict(replicas=1, setup_per_run=6, trace_flows=384),
}
SMOKE = dict(replicas=2, setup_per_run=1, max_flows=24)

RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the driver (a no-op after the first run, under a
    second); build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "scenbench_driver",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(DRIVER)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")

    if not build():
        print("scenbench: build failed", file=sys.stderr)
        return 1

    params = dict(WORKLOADS[args.workload])
    if args.smoke:
        params.update(SMOKE)
    spans_dir = os.path.join(ROOT, ".bench_build", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    seed_tag = "default" if args.seed is None else str(args.seed)
    cmd = [DRIVER,
           "--scn", os.path.join(HERE, "workloads", args.workload + ".scn"),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--replicas", str(params["replicas"]),
           "--setup-per-run", str(params["setup_per_run"]),
           "--trace-flows", str(params["trace_flows"]),
           "--spans", os.path.join(
               spans_dir, f"{args.workload}-seed{seed_tag}-trace{args.trace}.json")]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if "max_flows" in params:
        cmd += ["--max-flows", str(params["max_flows"])]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"scenbench: driver exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
