"""The four perfbench workloads.

Each workload function takes a `Ctx` and returns a `Result`: the
end-to-end metrics (the generic names declared in BENCHMARK.json), the
workload's own named metrics for the human report, the per-layer
metrics when traced, and the op counts. Outputs are verified after the
timed region; every mismatch is a failed op.
"""

import json
import os
import pickle
import random
import re
import subprocess
import time
import zlib
from dataclasses import dataclass, field, replace

from common import fnv1a, median, run_child, tail
from serve_client import Client, Server, clear_dir, upsert_payload

# Sizes: (full run, smoke run).
BATCH_SCALE = (2.0, 0.1)          # ten roles, ~67k lines at 2.0
EDIT_DEVICES = (160, 8)           # one W2 role, ~190 lines per device
READ_DEVICES = (960, 16)
SETUP_REPS = (5, 1)               # set-up repetitions; setup_s is their median
MIN_PASSES = 3                    # batch passes measured even on a short run
EDITS_PER_LEARN = 32
CHECKPOINT_EVERY = 64             # serve default appends per checkpoint
WARMUP_STEPS = 16                 # edit cycles before the first measured epoch
READ_WARMUP = 200                 # untimed reads per client
REPLAY_EPOCHS = 2                 # checkpoint epochs in a layer-probe replay
READ_REPLAY_OPS = 2000
FLEET_PROBE_S = 3                 # measured seconds of the traced fleet probe
READ_MIX = (("GEN", 0.80), ("CHECK", 0.10), ("STATS", 0.05), ("CONTRACTS", 0.05))
NUMBER = re.compile(rb"\d+")


@dataclass
class Ctx:
    root: str
    concord: str
    tool: str
    work: str
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool

    def size(self, pair):
        return pair[1] if self.smoke else pair[0]

    def path(self, *parts):
        return os.path.join(self.work, *parts)


@dataclass
class Result:
    metrics: dict                      # end-to-end: name -> (value, unit)
    named: dict                        # workload's own metrics: name -> (value, unit)
    attempted: int
    failed: int
    layers: dict = field(default_factory=dict)    # per-layer: name -> (value, unit)
    notes: dict = field(default_factory=dict)


def gen_corpus(ctx, out, roles, scale, devices=None):
    argv = [ctx.tool, "gen", "--seed", str(ctx.seed), "--out", out, "--roles", roles,
            "--scale", str(scale)]
    if devices is not None:
        argv += ["--devices", str(devices)]
    lines = subprocess.run(argv, check=True, capture_output=True, text=True).stdout.splitlines()
    return [json.loads(line) for line in lines]


# --------------------------------------------------------------------------
# Batch: `concord learn` then `concord check` over the ten roles.


def role_args(corpus, role):
    args = ["--configs", os.path.join(corpus, role["role"], "cfg", "*.cfg")]
    if role["metadata"]:
        args += ["--metadata", os.path.join(corpus, role["role"], "meta", "*")]
    return args


def file_digest(path):
    with open(path, "rb") as fh:
        return fnv1a(fh.read())


def batch_pass(ctx, corpus, roles, out_dir, stats=False):
    """One learn pass then one check pass over every role.

    Returns learn/check wall seconds, peak RSS, per-invocation failures,
    output digests and, with `stats`, the parsed `--stats json` objects.
    """
    os.makedirs(out_dir, exist_ok=True)
    res = {"learn_s": 0.0, "check_s": 0.0, "rss_kib": 0, "failed": 0, "digests": {},
           "times": {}, "stats": []}
    extra = ["--stats", "json"] if stats else []
    for verb in ("learn", "check"):
        for role in roles:
            name = role["role"]
            contracts = os.path.join(out_dir, name + ".contracts.json")
            if verb == "learn":
                argv = [ctx.concord, "learn", *role_args(corpus, role), "--out", contracts]
                expect = (0,)
            else:
                argv = [ctx.concord, "check", *role_args(corpus, role), "--contracts",
                        contracts, "--out", os.path.join(out_dir, name + ".viol.json")]
                expect = (0, 1)         # 1 = violations found
            stdout_path = os.path.join(out_dir, f"{name}.{verb}.out")
            with open(stdout_path, "wb") as out:
                code, secs, rss = run_child(argv + extra, stdout=out)
            res[verb + "_s"] += secs
            res["times"][(verb, name)] = secs
            res["rss_kib"] = max(res["rss_kib"], rss)
            if code not in expect:
                res["failed"] += 1
                continue
            target = contracts if verb == "learn" else argv[-1]
            res["digests"][(verb, name)] = file_digest(target)
            if stats:
                with open(stdout_path) as fh:
                    res["stats"].append((verb, json.load(fh), secs))
    return res


def naive_matches(ctx, corpus, role, out_dir):
    """Whether `concord check`'s violations equal the naive checker's."""
    name = role["role"]
    oracle = os.path.join(out_dir, name + ".naive.json")
    subprocess.run([ctx.tool, "naive", *role_args(corpus, role), "--contracts",
                    os.path.join(out_dir, name + ".contracts.json"), "--out", oracle],
                   check=True)
    return file_digest(oracle) == file_digest(os.path.join(out_dir, name + ".viol.json"))


def batch_layers(passes_stats):
    """Per-layer metrics from the `--stats json` objects of one pass."""
    acc = dict.fromkeys(["lex", "intern", "hits", "lookups", "rel", "merge", "simple", "min",
                         "before", "after", "compile", "phases", "coverage", "probes",
                         "probe_hits", "wall", "attributed"], 0.0)
    for verb, st, wall in passes_stats:
        b = st["build"]
        acc["lex"] += b["lex_secs"]
        acc["intern"] += b["intern_secs"]
        acc["hits"] += b["cache"]["hits"]
        acc["lookups"] += b["cache"]["hits"] + b["cache"]["misses"]
        attributed = b["lex_secs"] + b["intern_secs"]
        if verb == "learn":
            l = st["learn"]
            acc["rel"] += l["relational_secs"]
            acc["merge"] += l["relational_merge_secs"]
            acc["simple"] += l["simple_miners_secs"]
            acc["min"] += l["minimize_secs"]
            acc["before"] += l["relational_before_minimization"]
            acc["after"] += l["relational_after_minimization"]
            # relational_secs includes its merge sub-phase.
            attributed += (l["view_secs"] + l["simple_miners_secs"] + l["relational_secs"]
                           + l["minimize_secs"])
        else:
            c = st["check"]
            cats = {x["name"]: x["secs"] for x in c["categories"]}
            acc["compile"] += c["compile_secs"]
            acc["coverage"] += cats.get("coverage", 0.0)
            acc["phases"] += sum(v for k, v in cats.items() if k != "coverage")
            acc["probes"] += c["witness"]["probes"]
            acc["probe_hits"] += c["witness"]["probe_hits"]
            attributed += c["check_secs"]
        acc["wall"] += wall
        acc["attributed"] += attributed
    other = acc["wall"] - acc["attributed"]
    ratio = lambda a, b: acc[a] / acc[b] if acc[b] else 0.0
    return {
        "lexer.lex_s": (acc["lex"], "s"),
        "lexer.cache_hit_frac": (ratio("hits", "lookups"), "fraction"),
        "ir.intern_s": (acc["intern"], "s"),
        "learn.relational_s": (acc["rel"], "s"),
        "learn.relational_merge_s": (acc["merge"], "s"),
        "learn.simple_miners_s": (acc["simple"], "s"),
        "learn.minimize_s": (acc["min"], "s"),
        "learn.relational_kept_frac": (ratio("after", "before"), "fraction"),
        "check.compile_s": (acc["compile"], "s"),
        "check.phases_s": (acc["phases"], "s"),
        "check.coverage_s": (acc["coverage"], "s"),
        "check.probe_hit_frac": (ratio("probe_hits", "probes"), "fraction"),
        "cli.other_s": (other, "s"),
        "cli.other_frac": (other / acc["wall"] if acc["wall"] else 0.0, "fraction"),
    }


def batch_table3(ctx):
    corpus = ctx.path("corpus")
    roles = gen_corpus(ctx, corpus, "all", ctx.size(BATCH_SCALE))
    lines = sum(r["lines"] for r in roles)
    setup = []
    first = None
    for i in range(ctx.size(SETUP_REPS)):
        p = batch_pass(ctx, corpus, roles, ctx.path(f"setup{i}"))
        setup.append(p["learn_s"] + p["check_s"])
        first = first or p
    # Traced, every second pass runs with `--stats json`, so the tracing
    # overhead is measured against the plain passes of the same run.
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < ctx.seconds:
        passes.append(batch_pass(ctx, corpus, roles, ctx.path(f"pass{len(passes)}"),
                                 stats=ctx.trace and len(passes) % 2 == 1))

    # Verification, outside the timed region: every pass reproduces the
    # first set-up pass byte for byte, and the first pass's violations
    # equal the independent naive checker's on its learned contracts.
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        failed += sum(1 for k, d in p["digests"].items() if first["digests"].get(k) != d)
    oracle_ok = all(naive_matches(ctx, corpus, r, ctx.path("setup0")) for r in roles)
    if not oracle_ok:
        failed += len(passes) * len(roles)
    attempted = 2 * len(roles) * len(passes)

    # A pass's time is the sum over roles of each command's median over
    # the passes, so one slow invocation does not move the whole pass.
    def pass_ms(verb):
        return 1e3 * sum(median([p["times"][(verb, r["role"])] for p in passes])
                         for r in roles)
    learn_ms, check_ms = pass_ms("learn"), pass_ms("check")
    rss_mb = max(p["rss_kib"] for p in passes + [first]) / 1024.0
    ok_frac = (attempted - failed) / attempted
    metrics = {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "ok_frac": (ok_frac, "fraction"),
        "op_ms": (learn_ms, "ms"),
        "check_ms": (check_ms, "ms"),
        "ops_per_s": (2 * lines / ((learn_ms + check_ms) / 1e3), "1/s"),
    }
    named = {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "ok_frac": (ok_frac, "fraction"),
        "learn_s": (learn_ms / 1e3, "s"),
        "check_s": (check_ms / 1e3, "s"),
        "lines_per_s": (2 * lines / ((learn_ms + check_ms) / 1e3), "1/s"),
        "corpus_lines": (lines, "lines"),
        "passes": (len(passes), "count"),
    }
    result = Result(metrics, named, attempted, failed)
    if ctx.trace:
        # Layers from the `--stats json` pass with the median learn+check time.
        wall = lambda p: p["learn_s"] + p["check_s"]
        traced = sorted((p for p in passes if p["stats"]), key=wall)
        plain = [wall(p) for p in passes if not p["stats"]]
        result.layers.update(batch_layers(traced[len(traced) // 2]["stats"]))
        result.layers["unattributed_frac"] = result.layers["cli.other_frac"]
        result.layers["trace.overhead_frac"] = (
            median([wall(p) for p in traced]) / median(plain) - 1, "fraction")
        result.layers.update(edit_probe(ctx, os.path.join(corpus, "W2", "cfg")))
    return result


# --------------------------------------------------------------------------
# Edit op stream, shared by serve_edit, fleet_edit and the engine replay.


def read_corpus(cfg_dir):
    corpus = {}
    for fname in sorted(os.listdir(cfg_dir)):
        if fname.endswith(".cfg"):
            with open(os.path.join(cfg_dir, fname), "rb") as fh:
                corpus[fname[:-4]] = fh.read().decode().splitlines()
    return corpus


class EditStream:
    """Seeded edits that keep the corpus stationary.

    Odd UPSERTs apply one seeded edit to a device's original text: ~90%
    change a number on an existing line, ~10% add or drop a line (which
    changes the pattern table). Even UPSERTs restore that device. At most
    one device differs from the generated corpus at any time, so the
    violation count and the contract set do not drift over a run, and a
    run's cost does not depend on how far through the stream it got.
    """

    def __init__(self, cfg_dir, seed):
        self.configs = read_corpus(cfg_dir)
        self.names = sorted(self.configs)
        self.rng = random.Random(seed)
        self.count = 0
        self.pending = None

    def next(self):
        self.count += 1
        if self.pending is not None:
            name, self.pending = self.pending, None
            return name, "".join(line + "\n" for line in self.configs[name])
        rng = self.rng
        name = rng.choice(self.names)
        lines = list(self.configs[name])
        self.pending = name
        if rng.random() < 0.9:
            for _ in range(16):
                i = rng.randrange(len(lines))
                spans = [m.span() for m in NUMBER.finditer(lines[i].encode())]
                if spans:
                    a, b = rng.choice(spans)
                    raw = lines[i].encode()
                    lines[i] = (raw[:a] + str(rng.randrange(250)).encode() + raw[b:]).decode()
                    break
        elif rng.random() < 0.5:
            del lines[rng.randrange(1, len(lines))]
        else:
            i = rng.randrange(1, len(lines))
            indent = lines[i - 1][: len(lines[i - 1]) - len(lines[i - 1].lstrip())]
            lines.insert(i, f"{indent}description perfbench-edit-{self.count}")
        return name, "".join(line + "\n" for line in lines)


def edit_ops(stream):
    """Yields steps forever: one UPSERT + CHECK cycle, with a LEARN after
    every EDITS_PER_LEARN UPSERTs."""
    upserts = 0
    while True:
        name, text = stream.next()
        upserts += 1
        step = [("UPSERT", name, text), ("CHECK", None, None)]
        if upserts % EDITS_PER_LEARN == 0:
            step.append(("LEARN", None, None))
        yield step


def write_ops(path, ops):
    with open(path, "wb") as fh:
        for verb, name, text in ops:
            if verb == "UPSERT":
                body = text.encode()
                fh.write(f"UPSERT {name} {len(body)}\n".encode() + body)
            elif verb == "GEN":
                fh.write(f"GEN {name}\n".encode())
            else:
                fh.write(verb.encode() + b"\n")


def run_replay(ctx, cfg_dir, ops, warmup, state_dir=None, trace=False):
    """Replays `ops` in process; returns (check lines, trace dict or None)."""
    ops_path = ctx.path(f"ops-{len(ops)}.bin")
    write_ops(ops_path, ops)
    argv = [ctx.tool, "replay", "--configs", cfg_dir, "--ops", ops_path, "--warmup",
            str(warmup)]
    if state_dir:
        clear_dir(state_dir)
        argv += ["--state-dir", state_dir]
    if trace:
        argv.append("--trace")
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout.splitlines()
    checks = [line for line in out if line.startswith("check ")]
    traced = [json.loads(line[6:]) for line in out if line.startswith("trace ")]
    return checks, (traced[0] if traced else None)


ENGINE_LAYERS = {
    "engine.upsert_ms": "ms", "engine.check_ms": "ms", "engine.check_reused_frac": "fraction",
    "engine.relearn_ms": "ms", "engine.learn_reused_frac": "fraction",
    "storage.wal_append_ms": "ms", "storage.checkpoint_ms": "ms",
    "storage.checkpoint_io_ms": "ms", "storage.checkpoint_cpu_ms": "ms",
    "storage.checkpoints": "count", "storage.segments_written_per_checkpoint": "count",
    "storage.fsyncs_per_edit": "count", "storage.bytes_per_edit": "B/B",
}


def edit_replay_ops(stream, epochs):
    """The set-up LEARN + CHECK, a warm-up up to the first checkpoint, then
    edit steps through `epochs` more checkpoints. Returns (ops, warm-up op
    count)."""
    ops = [("LEARN", None, None), ("CHECK", None, None)]
    appends, warmup, first_epoch = 1, None, 0
    for step in edit_ops(stream):
        before = appends // CHECKPOINT_EVERY
        ops += step
        appends += sum(1 for verb, _, _ in step if verb != "CHECK")
        epoch = appends // CHECKPOINT_EVERY
        if epoch > before:
            if warmup is None:
                warmup, first_epoch = len(ops), epoch
            elif epoch - first_epoch >= epochs:
                return ops, warmup


def edit_probe(ctx, cfg_dir):
    """Engine and storage layers: a durable, traced replay of a seeded
    edit stream over `cfg_dir` (the layer probe of workloads whose own
    traffic does not edit)."""
    ops, warmup = edit_replay_ops(EditStream(cfg_dir, ctx.seed), REPLAY_EPOCHS)
    _, traced = run_replay(ctx, cfg_dir, ops, warmup, state_dir=ctx.path("replay-state"),
                           trace=True)
    return {k: (traced[k], unit) for k, unit in ENGINE_LAYERS.items()}


def check_digest(response):
    """`check <n> <fnv>` for a whole CHECK response (violation lines, then
    the status line), as perfbench-tool prints it; None for an error."""
    lines = response.splitlines(keepends=True)
    m = re.match(rb"ok check (\d+) violations", lines[-1])
    if not m:
        return None
    return f"check {int(m.group(1))} {fnv1a(b''.join(lines[:-1])):016x}"


# --------------------------------------------------------------------------
# serve_edit / fleet_edit.


def boot(ctx, args, log_name):
    """Starts a server and sends the set-up LEARN + CHECK; returns
    (server, client, seconds, LEARN status, CHECK response bytes)."""
    start = time.perf_counter()
    server = Server(ctx.concord, args, ctx.path(log_name))
    client = Client(server.addr)
    learn, _, _ = client.request(b"LEARN\n")
    status, body, _ = client.request(b"CHECK\n", multiline=True)
    return server, client, time.perf_counter() - start, learn, b"".join(body) + status


def edit_workload(ctx, shards):
    corpus = ctx.path("corpus")
    gen_corpus(ctx, corpus, "W2", 1.0, devices=ctx.size(EDIT_DEVICES))
    cfg_dir = os.path.join(corpus, "W2", "cfg")
    state = ctx.path("state")
    # One closed-loop client: one executor thread, and --max-conns set
    # explicitly (see README, noise guards).
    args = ["--configs", os.path.join(cfg_dir, "*.cfg"), "--state-dir", state,
            "--workers", "1", "--max-conns", "2"]
    if shards > 1:
        args += ["--shards", str(shards)]
    setup = []
    for i in range(ctx.size(SETUP_REPS)):
        clear_dir(state)
        server, client, secs, learn, check = boot(ctx, args, f"serve{i}.log")
        setup.append(secs)
        if i + 1 < ctx.size(SETUP_REPS):
            client.close()
            server.stop()
    try:
        return edit_measure(ctx, server, client, cfg_dir, setup, (learn, check), shards)
    finally:
        client.close()
        server.stop()


def edit_measure(ctx, server, client, cfg_dir, setup, first, shards):
    ops = [("LEARN", None, None), ("CHECK", None, None)]
    checks = [first[1]]
    failed = 0 if first[0].startswith(b"ok learn") else 1
    samples = {"UPSERT": [], "CHECK": [], "LEARN": []}
    check_bytes, spans, span_s = [], [], 0.0
    appends, steps = 1, 0
    measuring, epochs, cycles = False, 0, 0
    t_start = t_end = None
    for step in edit_ops(EditStream(cfg_dir, ctx.seed)):
        before = appends // CHECKPOINT_EVERY
        for verb, name, text in step:
            payload = upsert_payload(name, text) if verb == "UPSERT" else verb.encode() + b"\n"
            t0 = time.perf_counter()
            status, body, rtt = client.request(payload, multiline=verb == "CHECK")
            ops.append((verb, name, text))
            if verb == "CHECK":
                checks.append(b"".join(body) + status)
            elif not status.startswith(b"ok " + verb.lower().encode()):
                failed += 1
            if measuring:
                samples[verb].append(rtt * 1e3)
                if verb == "CHECK":
                    check_bytes.append(len(checks[-1]))
                if ctx.trace:
                    t1 = time.perf_counter()
                    spans.append({"id": len(ops), "name": verb, "start": t0, "end": t0 + rtt,
                                  "bytes": len(payload) + len(status) + sum(map(len, body))})
                    span_s += time.perf_counter() - t1
            if verb != "CHECK":
                appends += 1
        steps += 1
        if measuring:
            cycles += 1
        if appends // CHECKPOINT_EVERY > before:
            # A checkpoint ran in this step: epochs start and end here so
            # the measured window holds whole checkpoint cycles.
            if not measuring and steps >= WARMUP_STEPS:
                measuring, t_start = True, time.perf_counter()
                warmup_ops = len(ops)
            elif measuring:
                epochs += 1
                if time.perf_counter() - t_start >= ctx.seconds:
                    t_end = time.perf_counter()
                    break
    rss_mb = server.peak_rss_kib() / 1024.0
    stats_line, _, _ = client.request(b"STATS\n")
    stats = json.loads(stats_line[len(b"ok stats "):])
    wall = t_end - t_start

    # Verification: every CHECK answer equals the in-process replay's.
    expected, _ = run_replay(ctx, cfg_dir, ops, warmup_ops)
    failed += sum(1 for got, want in zip(checks, expected) if check_digest(got) != want)
    failed += abs(len(checks) - len(expected))
    attempted = len(ops)
    ok_frac = (attempted - failed) / attempted

    edit_ms = median(samples["UPSERT"])
    check_ms = median(samples["CHECK"])
    # The measured window holds `epochs` checkpoints, each stalling one
    # append; nearly all appends are UPSERTs.
    stall_share = epochs / len(samples["UPSERT"])
    tp, tv, beyond, n = tail(samples["UPSERT"], slow_share=stall_share)
    metrics = {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "ok_frac": (ok_frac, "fraction"),
        "op_ms": (edit_ms, "ms"),
        "check_ms": (check_ms, "ms"),
        "ops_per_s": (cycles / wall, "1/s"),
    }
    named = {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "ok_frac": (ok_frac, "fraction"),
        "edit_ms": (edit_ms, "ms"),
        "edit_tail_ms": (tv, "ms"),
        "check_ms": (check_ms, "ms"),
        "learn_ms": (median(samples["LEARN"]), "ms"),
        "cycles_per_s": (cycles / wall, "1/s"),
    }
    result = Result(metrics, named, attempted, failed)
    result.notes.update({"edit_tail_percentile": tp, "edit_tail_beyond": beyond,
                         "edit_samples": n, "edit_tail_mode":
                         "checkpoint" if (100 - tp) / 100 < stall_share else "edit",
                         "checkpoint_share": round(stall_share, 5), "epochs": epochs,
                         "cycles": cycles})
    if ctx.trace:
        write_spans(ctx, spans)
        _, traced = run_replay(ctx, cfg_dir, ops, warmup_ops, state_dir=ctx.path("replay-state"),
                               trace=True)
        result.layers.update({k: (traced[k], u) for k, u in ENGINE_LAYERS.items()})
        result.layers.update(batch_layers(batch_probe(ctx, cfg_dir)))
        # The replay ran exactly the measured ops, checkpoints included.
        serve_wall = sum(samples["UPSERT"]) + sum(samples["CHECK"]) + sum(samples["LEARN"])
        result.layers["unattributed_frac"] = (1 - traced["replay.total_ms"] / serve_wall,
                                              "fraction")
        result.layers.update(serve_layers(stats, {
            "UPSERT": (edit_ms, traced["engine.upsert_total_ms"]),
            "CHECK": (check_ms, traced["engine.check_ms"])}))
        result.layers["serve.stats_bytes"] = (len(stats_line), "B")
        result.layers["serve.check_bytes"] = (median(check_bytes), "B")
        result.layers["trace.overhead_frac"] = (span_overhead(span_s, samples), "fraction")
    if shards > 1:
        result.layers.update(fleet_layers(stats))
    return result


def batch_probe(ctx, cfg_dir):
    """`concord learn` + `concord check --stats json` over a serve corpus:
    the lexer/IR/learn/check layers of the corpus the server boots from."""
    role = {"role": os.path.basename(os.path.dirname(cfg_dir)), "metadata": False}
    corpus = os.path.dirname(os.path.dirname(cfg_dir))
    return batch_pass(ctx, corpus, [role], ctx.path("probe"), stats=True)["stats"]


def serve_layers(stats, verbs):
    serve = stats["serve"]
    out = {}
    for verb, (rtt, engine) in verbs.items():
        out[f"serve.overhead_ms.{verb}"] = (rtt - engine, "ms")
    out["serve.shared_read_frac"] = (serve["shared_reads"] / max(1, serve["requests"]),
                                     "fraction")
    out["lexer.cache_hit_frac.serve"] = (
        stats["lex_cache"]["hits"] / max(1, stats["lex_cache"]["hits"]
                                         + stats["lex_cache"]["misses"]), "fraction")
    return out


def fleet_layers(stats):
    fleet = stats["fleet"]
    writes = [s["writes"] for s in fleet["shards"]]
    return {
        "fleet.shard_write_balance": (min(writes) / max(1, max(writes)), "fraction"),
        "fleet.checkpoints": (fleet["totals"]["robustness"]["checkpoints"], "count"),
    }


def span_overhead(span_s, samples):
    """Tracing overhead: the time spent recording client spans over the
    summed round trips they describe (samples in ms)."""
    rtt_s = sum(sum(v) for v in samples.values()) / 1e3
    return span_s / rtt_s


def write_spans(ctx, spans):
    os.makedirs(os.path.join(ctx.root, ".bench_work", "traces"), exist_ok=True)
    path = os.path.join(ctx.root, ".bench_work", "traces",
                        f"{ctx.workload}-seed{ctx.seed}-{os.getpid()}.jsonl")
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def serve_edit(ctx):
    result = edit_workload(ctx, shards=1)
    if ctx.trace:
        # The fleet layer, on the same op stream: a short 2-shard run whose
        # CHECK answers are verified against the same single-engine replay.
        os.makedirs(ctx.path("fleet"))
        fleet = edit_workload(replace(ctx, work=ctx.path("fleet"), trace=False,
                                      seconds=FLEET_PROBE_S), shards=2)
        result.attempted += fleet.attempted
        result.failed += fleet.failed
        result.layers.update(fleet.layers)
        for name in ("edit_ms", "check_ms", "learn_ms", "cycles_per_s"):
            result.layers[f"fleet.{name}"] = fleet.named[name]
    return result


def fleet_edit(ctx):
    return edit_workload(ctx, shards=2)


# --------------------------------------------------------------------------
# serve_read: two closed-loop clients, read-only mix.


def read_ops(names, seed, count):
    rng = random.Random(seed)
    verbs = [v for v, _ in READ_MIX]
    weights = [w for _, w in READ_MIX]
    for _ in range(count):
        verb = rng.choices(verbs, weights)[0]
        yield (verb, rng.choice(names) if verb == "GEN" else None)


def read_payload(verb, name):
    return f"{verb} {name}\n".encode() if name else f"{verb}\n".encode()


def read_client(addr, names, seed, seconds, trace, want, ready):
    """One client process: warm-up, then closed-loop reads for `seconds`.

    Answers are verified after the timed loop against `want` (the set-up
    CHECK response's CRC, the CONTRACTS answer and the corpus size).
    """
    client = Client(addr)
    ops = read_ops(names, seed, 1 << 62)
    for _ in range(READ_WARMUP):
        verb, name = next(ops)
        client.request(read_payload(verb, name), multiline=verb == "CHECK")
    ready()
    samples, answers, spans, span_s = [], [], [], 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        verb, name = next(ops)
        payload = read_payload(verb, name)
        t0 = time.perf_counter()
        status, body, rtt = client.request(payload, multiline=verb == "CHECK")
        samples.append((verb, rtt * 1e3))
        answers.append(zlib.crc32(b"".join(body) + status) if verb == "CHECK" else status)
        if trace:
            t1 = time.perf_counter()
            spans.append({"id": len(samples), "name": verb, "start": t0, "end": t0 + rtt,
                          "bytes": len(payload) + len(status) + sum(map(len, body))})
            span_s += time.perf_counter() - t1
    wall = time.perf_counter() - start
    client.close()
    return samples, verify_reads(samples, answers, names, seed, want), spans, span_s, wall


def verify_reads(samples, answers, names, seed, want):
    """Per-read verdicts: CHECK identical to set-up, GEN the known
    generation, STATS `configs` the corpus size, CONTRACTS unchanged."""
    ops = read_ops(names, seed, 1 << 62)
    for _ in range(READ_WARMUP):
        next(ops)
    verdicts = []
    for (verb, _), answer in zip(samples, answers):
        _, name = next(ops)
        if verb == "CHECK":
            ok = answer == want["check_crc"]
        elif verb == "GEN":
            ok = answer == f"ok gen {name} 0\n".encode()
        elif verb == "STATS":
            ok = (answer.startswith(b"ok stats ")
                  and json.loads(answer[len(b"ok stats "):])["configs"] == len(names))
        else:
            ok = answer == want["contracts"]
        verdicts.append(ok)
    return verdicts


def serve_read(ctx):
    corpus = ctx.path("corpus")
    gen_corpus(ctx, corpus, "W2", 1.0, devices=ctx.size(READ_DEVICES))
    cfg_dir = os.path.join(corpus, "W2", "cfg")
    names = sorted(read_corpus(cfg_dir))
    clients = min(2, os.cpu_count() or 1)
    # --max-conns explicitly: the clients plus the set-up connection.
    args = ["--configs", os.path.join(cfg_dir, "*.cfg"), "--workers", "2",
            "--max-conns", str(clients + 1)]
    setup = []
    for i in range(ctx.size(SETUP_REPS)):
        server, client, secs, learn, check = boot(ctx, args, f"serve{i}.log")
        setup.append(secs)
        if i + 1 < ctx.size(SETUP_REPS):
            client.close()
            server.stop()
    try:
        # The reference answers: the set-up CHECK re-checked everything, so
        # its `dirty=`/`reused=` tail differs from the cached CHECKs'.
        status, body, _ = client.request(b"CHECK\n", multiline=True)
        contracts, _, _ = client.request(b"CONTRACTS\n")
        client.close()
        cached_check = b"".join(body) + status
        want = {"check_crc": zlib.crc32(cached_check), "contracts": contracts}
        results = run_read_clients(ctx, server.addr, names, clients, want)
        rss_mb = server.peak_rss_kib() / 1024.0
        if ctx.trace:
            probe = Client(server.addr)
            stats_line, _, _ = probe.request(b"STATS\n")
            probe.close()
    finally:
        server.stop()

    attempted, failed = 0, 0 if learn.startswith(b"ok learn") else 1
    samples = {v: [] for v, _ in READ_MIX}
    all_samples, spans, span_s = [], [], 0.0
    for client_samples, verdicts, client_spans, client_span_s, _ in results:
        spans += client_spans
        span_s += client_span_s
        for (verb, ms), ok in zip(client_samples, verdicts):
            samples[verb].append(ms)
            all_samples.append(ms)
            attempted += 1
            failed += not ok
    wall = max(r[-1] for r in results)
    ok_frac = (attempted - failed) / attempted
    tp, tv, beyond, n = tail(all_samples)
    metrics = {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "ok_frac": (ok_frac, "fraction"),
        "op_ms": (median(samples["GEN"]), "ms"),
        "check_ms": (median(samples["CHECK"]), "ms"),
        "ops_per_s": (attempted / wall, "1/s"),
    }
    named = {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "ok_frac": (ok_frac, "fraction"),
        "read_ops_per_s": (attempted / wall, "1/s"),
        "gen_ms": (median(samples["GEN"]), "ms"),
        "check_ms": (median(samples["CHECK"]), "ms"),
        "stats_ms": (median(samples["STATS"]), "ms"),
        "read_tail_ms": (tv, "ms"),
    }
    result = Result(metrics, named, attempted, failed)
    result.notes.update({"read_tail_percentile": tp, "read_tail_beyond": beyond,
                         "read_samples": n, "clients": clients})
    if ctx.trace:
        write_spans(ctx, spans)
        read_stream = [(v, name, None) for v, name in read_ops(names, ctx.seed, READ_REPLAY_OPS)]
        _, traced = run_replay(ctx, cfg_dir, [("LEARN", None, None), ("CHECK", None, None)]
                               + read_stream, 2, trace=True)
        result.layers.update(edit_probe(ctx, cfg_dir))
        result.layers.update(batch_layers(batch_probe(ctx, cfg_dir)))
        # Same read mix, different draw: compare mean time per read.
        engine_ms = {v: traced[f"engine.read_{v.lower()}_ms"] for v, _ in READ_MIX}
        engine_mean = traced["replay.total_ms"] / traced["replay.ops"]
        serve_mean = sum(all_samples) / len(all_samples)
        result.layers["unattributed_frac"] = (1 - engine_mean / serve_mean, "fraction")
        stats = json.loads(stats_line[len(b"ok stats "):])
        result.layers.update(serve_layers(stats, {
            v: (median(samples[v]), engine_ms[v]) for v, _ in READ_MIX}))
        result.layers["serve.stats_bytes"] = (len(stats_line), "B")
        result.layers["serve.check_bytes"] = (len(cached_check), "B")
        result.layers["trace.overhead_frac"] = (span_overhead(span_s, samples), "fraction")
    return result


def run_read_clients(ctx, addr, names, clients, want):
    """Forks one process per client (no GIL sharing between clients).

    Each child connects and warms up, reports ready on its pipe, waits
    for the common start byte, measures, then sends its pickled results
    back. Pipes keep every byte of the exchange inside this process tree.
    """
    children = []
    for i in range(clients):
        up_r, up_w = os.pipe()
        go_r, go_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(up_r)
            os.close(go_w)
            code = 0
            try:
                def ready():
                    os.write(up_w, b"r")
                    os.read(go_r, 1)
                out = read_client(addr, names, ctx.seed * 1000 + i, ctx.seconds, ctx.trace,
                                  want, ready)
                with os.fdopen(up_w, "wb") as fh:
                    pickle.dump(out, fh)
            except BaseException:
                code = 1
            os._exit(code)
        os.close(up_w)
        os.close(go_r)
        children.append((pid, up_r, go_w))
    try:
        for _, up_r, _ in children:
            if os.read(up_r, 1) != b"r":
                raise RuntimeError("read client failed during warm-up")
        for _, _, go_w in children:
            os.write(go_w, b"g")
        results = []
        for _, up_r, _ in children:
            with os.fdopen(up_r, "rb", closefd=False) as fh:
                results.append(pickle.load(fh))
    finally:
        for pid, up_r, go_w in children:
            os.close(up_r)
            os.close(go_w)
            _, status = os.waitpid(pid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                raise RuntimeError(f"read client {pid} failed")
    return results


WORKLOADS = {
    "batch_table3": batch_table3,
    "serve_edit": serve_edit,
    "fleet_edit": fleet_edit,
    "serve_read": serve_read,
}
