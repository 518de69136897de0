#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <name>|all --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. It builds `concord` (workspace package
`concord-cli`) and the benchmark's helper `perfbench/tool` in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), generates the
workload's inputs from `--seed`, measures for `--seconds`, verifies the
outputs after the timed region and prints, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With `--trace 0`
the metrics are the end-to-end metrics of BENCHMARK.json; with
`--trace 1` they are its per-layer metrics. The lines before it are a
human report: the workload's own named metrics, every layer metric it
measured (traced) and the host and run fingerprint. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import fingerprint, fs_type  # noqa: E402
from workloads import WORKLOADS, Ctx  # noqa: E402

def build(root, target):
    """Builds both binaries; exits non-zero (printing no result) on failure."""
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit("perfbench: no Cargo.toml at the checkout root; nothing to build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (["cargo", "build", "--release", "-p", "concord-cli", "--bin", "concord"],
                 ["cargo", "build", "--release", "--manifest-path",
                  os.path.join("perfbench", "tool", "Cargo.toml")]):
        proc = subprocess.run(argv, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(argv)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "concord"), os.path.join(release, "perfbench-tool")


def run_one(root, bins, name, seed, seconds, trace, smoke):
    """Runs one workload in a fresh work directory under `.bench_work`."""
    work = os.path.join(root, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Ctx(root=root, concord=bins[0], tool=bins[1], work=work, workload=name, seed=seed,
              seconds=seconds, trace=trace, smoke=smoke)
    try:
        result = WORKLOADS[name](ctx)
        state_fs = fs_type(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result, state_fs


def report(name, seed, result, state_fs, root):
    """The human lines printed before the result object."""
    print(f"# workload {name}")
    for key, (value, unit) in result.named.items():
        print(f"  {key:<40} {value:>14.6g} {unit}")
    for key, (value, unit) in sorted(result.layers.items()):
        print(f"  layer {key:<34} {value:>14.6g} {unit}")
    print("  notes " + json.dumps(result.notes, sort_keys=True))
    print("  fingerprint " + json.dumps(fingerprint(root, seed, state_fs), sort_keys=True))


def result_line(name, result, trace, bench):
    """The result object over BENCHMARK.json's end-to-end (untraced) or
    per-layer (traced) metrics. A declared workload must have measured
    every one; batch_table3 and fleet_edit, which it does not declare,
    report the declared metrics they measure."""
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    metrics = result.layers if trace else result.metrics
    declared = name in {w["name"] for w in bench["workloads"]}
    missing = [k for k in names if k not in metrics]
    if missing and declared:
        sys.exit(f"perfbench: {name} did not measure {missing}")
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in names if k in metrics},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (the smoke test); results are not comparable")
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        sys.exit("perfbench: run from the checkout root (BENCHMARK.json not found)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bins = build(root, os.path.join(root, target))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        start = time.perf_counter()
        result, state_fs = run_one(root, bins, name, args.seed, args.seconds, bool(args.trace),
                                   args.smoke)
        report(name, args.seed, result, state_fs, root)
        line = result_line(name, result, args.trace, bench)
        print(f"  run_s {time.perf_counter() - start:.3f}")
        if len(names) == 1:
            combined = line
        else:
            combined["correct"] &= line["correct"]
            combined["attempted"] += line["attempted"]
            combined["failed"] += line["failed"]
            for k, v in line["metrics"].items():
                combined["metrics"][f"{name}.{k}"] = v
    sys.stdout.flush()
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
