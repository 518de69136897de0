//! In-process replay of a serve op stream on `ResilientEngine`.
//!
//! `replay --configs DIR --ops FILE [--warmup K] [--state-dir DIR] [--trace]`
//!
//! Builds the engine exactly as `concord serve` does with its default
//! flags (standard lexer, context embedding, serve's default lexeme
//! cache cap), runs every op of the stream and prints one
//! `check <violations> <fnv1a64>` line per CHECK, hashing the rendered
//! violation lines the way the serve protocol sends them.
//!
//! With `--state-dir` the engine is durable over a [`CountingVfs`]. The
//! flush policy is the serve default: every acknowledged write is
//! appended to the WAL and fsynced, and a checkpoint runs after every
//! 64 appends. The replay turns the engine's automatic cadence off and
//! calls the public `checkpoint` itself after the same 64th append, so
//! checkpoint time is measured on its own. With `--trace` the last line
//! is `trace {json}` with the engine and storage layer metrics over the
//! ops after the first `K`.

use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use concord_engine::{EngineOptions, ResilientEngine};
use concord_lexer::Lexer;

use crate::vfs::{Counters, CountingVfs, Snapshot};
use crate::{flag, num_flag, Flags};

/// The serve default checkpoint cadence (`ResilientEngine` appends per
/// checkpoint).
const CHECKPOINT_EVERY: u64 = 64;

enum Op {
    Upsert { name: String, text: String },
    Check,
    Learn,
    Gen(String),
    Stats,
    Contracts,
}

/// Parses the op file: `LEARN\n`, `CHECK\n`, `STATS\n`, `CONTRACTS\n`,
/// `GEN <name>\n` or `UPSERT <name> <len>\n` followed by exactly `len`
/// bytes of configuration text.
fn parse_ops(bytes: &[u8]) -> Result<Vec<Op>, String> {
    let mut ops = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let end = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| pos + i)
            .ok_or("op file: unterminated header")?;
        let header = std::str::from_utf8(&bytes[pos..end]).map_err(|e| e.to_string())?;
        pos = end + 1;
        let mut words = header.split(' ');
        match (words.next(), words.next(), words.next()) {
            (Some("LEARN"), None, None) => ops.push(Op::Learn),
            (Some("CHECK"), None, None) => ops.push(Op::Check),
            (Some("STATS"), None, None) => ops.push(Op::Stats),
            (Some("CONTRACTS"), None, None) => ops.push(Op::Contracts),
            (Some("GEN"), Some(name), None) => ops.push(Op::Gen(name.to_string())),
            (Some("UPSERT"), Some(name), Some(len)) => {
                let len: usize = len
                    .parse()
                    .map_err(|_| format!("bad length in {header:?}"))?;
                let body = bytes
                    .get(pos..pos + len)
                    .ok_or("op file: truncated UPSERT body")?;
                let text = String::from_utf8(body.to_vec()).map_err(|e| e.to_string())?;
                ops.push(Op::Upsert {
                    name: name.to_string(),
                    text,
                });
                pos += len;
            }
            _ => return Err(format!("op file: bad header {header:?}")),
        }
    }
    Ok(ops)
}

/// Reads `DIR/*.cfg` as `(file stem, text)` pairs sorted like serve's
/// `--configs` glob.
fn read_corpus(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let mut corpus = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|ext| ext == "cfg") {
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .ok_or("config without a file name")?;
            let text = fs::read_to_string(&path).map_err(|e| e.to_string())?;
            corpus.push((name, text));
        }
    }
    corpus.sort();
    Ok(corpus)
}

/// FNV-1a 64 — the benchmark's cheap digest of a CHECK's violation
/// lines (the Python client computes the same over the wire bytes).
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Per-call samples and totals over the measured (post-warm-up) ops.
#[derive(Default)]
struct Trace {
    upsert_total_ms: Vec<f64>,
    upsert_self_ms: Vec<f64>,
    wal_append_ms: Vec<f64>,
    check_ms: Vec<f64>,
    relearn_total_ms: Vec<f64>,
    relearn_self_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    checkpoint_io_ms: Vec<f64>,
    checkpoint_cpu_ms: Vec<f64>,
    gen_ms: Vec<f64>,
    stats_ms: Vec<f64>,
    contracts_ms: Vec<f64>,
    checked_dirty: u64,
    checked_reused: u64,
    learn_mined: u64,
    learn_reused: u64,
    segment_files: u64,
    syncs: u64,
    bytes_written: u64,
    bytes_upserted: u64,
    measured_ops: u64,
    total_nanos: u64,
}

impl Trace {
    fn render(mut self) -> String {
        let upserts = self.upsert_total_ms.len().max(1) as f64;
        let checkpoints = self.checkpoint_ms.len();
        let check_ms = median(&mut self.check_ms);
        let frac = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        format!(
            concat!(
                "{{\"upserts\":{},\"checks\":{},\"learns\":{},",
                "\"engine.upsert_total_ms\":{},\"engine.upsert_ms\":{},",
                "\"engine.check_ms\":{},\"engine.check_reused_frac\":{},",
                "\"engine.relearn_total_ms\":{},\"engine.relearn_ms\":{},",
                "\"engine.learn_reused_frac\":{},",
                "\"storage.wal_append_ms\":{},\"storage.checkpoint_ms\":{},",
                "\"storage.checkpoint_io_ms\":{},\"storage.checkpoint_cpu_ms\":{},",
                "\"storage.checkpoints\":{},\"storage.segments_written_per_checkpoint\":{},",
                "\"storage.fsyncs_per_edit\":{},\"storage.bytes_per_edit\":{},",
                "\"engine.read_gen_ms\":{},\"engine.read_check_ms\":{},",
                "\"engine.read_stats_ms\":{},\"engine.read_contracts_ms\":{},",
                "\"replay.ops\":{},\"replay.total_ms\":{}}}"
            ),
            self.upsert_total_ms.len(),
            self.check_ms.len(),
            self.relearn_total_ms.len(),
            median(&mut self.upsert_total_ms),
            median(&mut self.upsert_self_ms),
            check_ms,
            frac(
                self.checked_reused,
                self.checked_reused + self.checked_dirty
            ),
            median(&mut self.relearn_total_ms),
            median(&mut self.relearn_self_ms),
            frac(self.learn_reused, self.learn_reused + self.learn_mined),
            median(&mut self.wal_append_ms),
            median(&mut self.checkpoint_ms),
            median(&mut self.checkpoint_io_ms),
            median(&mut self.checkpoint_cpu_ms),
            checkpoints,
            frac(self.segment_files, checkpoints as u64),
            self.syncs as f64 / upserts,
            frac(self.bytes_written, self.bytes_upserted),
            median(&mut self.gen_ms),
            check_ms,
            median(&mut self.stats_ms),
            median(&mut self.contracts_ms),
            self.measured_ops,
            ms(self.total_nanos),
        )
    }
}

pub fn run(flags: &Flags) -> Result<(), String> {
    let corpus = read_corpus(Path::new(flag(flags, "configs")?))?;
    let ops = parse_ops(&fs::read(flag(flags, "ops")?).map_err(|e| e.to_string())?)?;
    let warmup: usize = match flags.get("warmup") {
        Some(_) => num_flag(flags, "warmup")?,
        None => 0,
    };
    // `concord serve`'s defaults: embedding on, parallelism 1, default
    // learn parameters, staleness 0.2, lexeme cache capped at 64 Ki.
    let options = EngineOptions {
        lex_cache_cap: 64 * 1024,
        ..EngineOptions::default()
    };
    let lexer = Lexer::standard();
    let vfs = Arc::new(CountingVfs::default());
    let counters: Arc<Counters> = vfs.counters();
    let durable = flags.get("state-dir").map(Path::new);
    let mut engine = match durable {
        Some(dir) => {
            let (mut engine, _) =
                ResilientEngine::with_store_vfs(&corpus, &[], lexer, options, dir, vfs)
                    .map_err(|e| e.to_string())?;
            engine.set_checkpoint_every(0);
            engine
        }
        None => ResilientEngine::new(&corpus, &[], lexer, options).map_err(|e| e.to_string())?,
    };

    let mut trace = Trace::default();
    let mut appends = 0u64;
    let mut out = String::new();
    for (i, op) in ops.iter().enumerate() {
        let measured = i >= warmup;
        let io_before = counters.snapshot();
        let start = Instant::now();
        match op {
            Op::Upsert { name, text } => {
                engine
                    .upsert(name, text)
                    .map_err(|e| format!("op {i}: {e:?}"))?;
                let total = start.elapsed().as_nanos() as u64;
                let io = counters.snapshot() - io_before;
                appends += 1;
                if measured {
                    trace.upsert_total_ms.push(ms(total));
                    trace
                        .upsert_self_ms
                        .push(ms(total.saturating_sub(io.nanos)));
                    trace.wal_append_ms.push(ms(io.nanos));
                    trace.bytes_upserted += text.len() as u64;
                }
            }
            Op::Check => {
                // Serve's order: the shared cached report when it is
                // provably current, else the exclusive incremental check.
                let report = match engine.check_shared() {
                    Some(report) => report,
                    None => engine.check().map_err(|e| format!("op {i}: {e:?}"))?,
                };
                let elapsed = start.elapsed().as_nanos() as u64;
                let mut digest = 0xcbf29ce484222325;
                for v in &report.report.violations {
                    digest = fnv1a(format!("{v}\n").as_bytes(), digest);
                }
                out.push_str(&format!(
                    "check {} {digest:016x}\n",
                    report.report.violations.len()
                ));
                if measured {
                    trace.check_ms.push(ms(elapsed));
                    trace.checked_dirty += report.engine.dirty_configs as u64;
                    trace.checked_reused += report.engine.reused_configs as u64;
                }
            }
            Op::Learn => {
                engine.relearn().map_err(|e| format!("op {i}: {e:?}"))?;
                let total = start.elapsed().as_nanos() as u64;
                let io = counters.snapshot() - io_before;
                appends += 1;
                if measured {
                    let delta = engine.learn_delta().map_err(|e| format!("op {i}: {e:?}"))?;
                    trace.relearn_total_ms.push(ms(total));
                    trace
                        .relearn_self_ms
                        .push(ms(total.saturating_sub(io.nanos)));
                    trace.learn_mined += delta.mined_last_learn;
                    trace.learn_reused += delta.reused_last_learn;
                }
            }
            Op::Gen(name) => {
                let generation = engine
                    .config_generation(name)
                    .map_err(|e| format!("op {i}: {e:?}"))?;
                std::hint::black_box(generation);
                if measured {
                    trace.gen_ms.push(ms(start.elapsed().as_nanos() as u64));
                }
            }
            Op::Stats => {
                let stats = match engine.stats_shared() {
                    Some(stats) => stats,
                    None => engine
                        .snapshot_stats()
                        .map_err(|e| format!("op {i}: {e:?}"))?,
                };
                std::hint::black_box(&stats);
                if measured {
                    trace.stats_ms.push(ms(start.elapsed().as_nanos() as u64));
                }
            }
            Op::Contracts => {
                let n = engine
                    .contracts_len()
                    .map_err(|e| format!("op {i}: {e:?}"))?;
                std::hint::black_box(n);
                if measured {
                    trace
                        .contracts_ms
                        .push(ms(start.elapsed().as_nanos() as u64));
                }
            }
        }
        if durable.is_some() && appends >= CHECKPOINT_EVERY {
            appends = 0;
            let io_before = counters.snapshot();
            let start = Instant::now();
            if !engine.checkpoint() {
                return Err(format!("op {i}: checkpoint failed"));
            }
            let total = start.elapsed().as_nanos() as u64;
            let io: Snapshot = counters.snapshot() - io_before;
            if measured {
                trace.checkpoint_ms.push(ms(total));
                trace.checkpoint_io_ms.push(ms(io.nanos));
                trace
                    .checkpoint_cpu_ms
                    .push(ms(total.saturating_sub(io.nanos)));
                trace.segment_files += io.segment_files;
            }
        }
        if measured {
            let io = counters.snapshot() - io_before;
            trace.syncs += io.syncs;
            trace.bytes_written += io.bytes;
            trace.measured_ops += 1;
            trace.total_nanos += start.elapsed().as_nanos() as u64;
        }
    }
    if flags.contains_key("trace") {
        out.push_str(&format!("trace {}\n", trace.render()));
    }
    print!("{out}");
    Ok(())
}
