#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py        (from the checkout root)

For every workload run.py knows (the declared ones and the undeclared
batch_table3 and fleet_edit), untraced and traced, it runs
`run.py --smoke` for one second and asserts that the result line of a
declared workload carries exactly the metrics BENCHMARK.json declares
(an undeclared workload's, only declared ones), each with its declared
unit, that every output was verified (`correct`, no failures, `ok_frac`
= 1.0) and that the human report names each of the workload's own
metrics with a unit.
"""

import json
import os
import subprocess
import sys

NAMED = {
    "batch_table3": ["setup_s", "peak_rss_mb", "ok_frac", "learn_s", "check_s"],
    "serve_edit": ["setup_s", "peak_rss_mb", "ok_frac", "edit_ms", "edit_tail_ms", "check_ms",
                   "learn_ms", "cycles_per_s"],
    "fleet_edit": ["setup_s", "peak_rss_mb", "ok_frac", "edit_ms", "edit_tail_ms", "check_ms",
                   "learn_ms", "cycles_per_s"],
    "serve_read": ["setup_s", "peak_rss_mb", "ok_frac", "read_ops_per_s", "gen_ms", "check_ms",
                   "stats_ms", "read_tail_ms"],
}
TRACED_EXTRA = {
    "serve_edit": ["serve.overhead_ms.UPSERT", "fleet.shard_write_balance", "fleet.checkpoints",
                   "fleet.edit_ms", "fleet.learn_ms"],
    "fleet_edit": ["serve.overhead_ms.UPSERT", "fleet.shard_write_balance", "fleet.checkpoints"],
    "serve_read": ["serve.overhead_ms.GEN", "serve.overhead_ms.STATS"],
}


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    declared_workloads = {w["name"] for w in bench["workloads"]}
    failures = []
    for name in NAMED:
        for trace in (0, 1):
            argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", name,
                    "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
            out = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            tag = f"{name} trace={trace}"
            if out.returncode != 0:
                failures.append(f"{tag}: exit {out.returncode}: {out.stderr[-400:]}")
                continue
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            if name in declared_workloads and set(metrics) != set(declared[trace]):
                failures.append(f"{tag}: metrics {sorted(metrics)} != declared")
            for metric, value in metrics.items():
                if value.get("unit") != declared[trace].get(metric):
                    failures.append(f"{tag}: {metric} is undeclared or lacks its unit")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{tag}: not verified: {lines[-1][:200]}")
            if trace == 0 and metrics.get("ok_frac", {}).get("value") != 1.0:
                failures.append(f"{tag}: ok_frac != 1.0")
            # Report lines read `  [layer ]<name> <value> <unit>`.
            report = {}
            for ln in lines[:-1]:
                words = ln.removeprefix("  layer ").split()
                if ln.startswith("  ") and len(words) == 3:
                    report[words[0]] = words
            for metric in NAMED[name] + (TRACED_EXTRA.get(name, []) if trace else []):
                if metric not in report:
                    failures.append(f"{tag}: report lacks {metric} with a value and a unit")
            print(f"ok {tag}: {result['attempted']} ops verified")
    for f in failures:
        print("FAIL " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
