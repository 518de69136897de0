"""Shared helpers of the perfbench benchmark: statistics, child processes,
the host fingerprint and the FNV-1a digest the verifier compares."""

import os
import platform
import subprocess
import time

FNV_OFFSET = 0xCBF29CE484222325


def fnv1a(data, h=FNV_OFFSET):
    """FNV-1a 64 over bytes, chained through `h` (matches perfbench-tool)."""
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def median(values):
    values = sorted(values)
    if not values:
        raise ValueError("median of no samples")
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2.0


def tail(values, candidates=(99.9, 99.5, 99.0, 98.0, 97.0, 95.0, 90.0, 80.0, 50.0),
         slow_share=None):
    """The highest candidate percentile with at least ten samples beyond it.

    `slow_share` is the share of samples in a slow second mode, if any:
    in the edit workloads one UPSERT in ~62 carries a checkpoint, ~1.6%.
    A percentile whose tail share lies within a factor of 1.5 of it (for
    1.6%, between p97.6 and p98.9: only p98 of the candidates) would sit
    on the boundary between the two modes, so it is skipped; p99 and
    above then fall inside the slow mode, p97 and below inside the fast
    one. Returns (percentile, value, beyond, n).
    """
    values = sorted(values)
    n = len(values)
    for p in candidates:
        share = (100.0 - p) / 100.0
        if slow_share and slow_share / 1.5 < share < slow_share * 1.5:
            continue
        idx = min(n - 1, int(p / 100.0 * n))
        beyond = n - idx - 1
        if beyond >= 10:
            return p, values[idx], beyond, n
    return 50.0, median(values), n // 2, n


def run_child(argv, stdout=subprocess.DEVNULL):
    """Runs a child to completion; returns (exit code, seconds, max RSS KiB).

    The child's peak resident set comes from wait4's rusage, so it is the
    process that runs the program, not this Python process.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


def fs_type(path):
    """Filesystem type of `path` from /proc/self/mounts (longest prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 3 and path.startswith(parts[1]) and len(parts[1]) > len(best):
                    best, kind = parts[1], parts[2]
    except OSError:
        pass
    return kind


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def commit_id(root):
    """The checked-out commit, when the checkout is a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "not a git checkout"


def fingerprint(root, seed, state_dir_fs):
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "rustc": rustc_version(),
        "commit": commit_id(root),
        "seed": seed,
        "state_dir_fs": state_dir_fs,
        "flush_policy": "WAL fsync per acknowledged write; checkpoint every 64 appends (defaults)",
    }
