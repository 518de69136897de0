//! Per-configuration miner sketches: the mergeable form of learning.
//!
//! Every miner in this module's siblings is structured as three phases —
//! *sketch* one configuration, *fold* sketches in config order into a
//! global accumulation, *emit* contracts from the accumulation — and
//! [`super::learn_with_stats`] is exactly sketch-fold-emit over every
//! config. A [`ConfigSketch`] bundles one config's per-miner sketches
//! (pattern occurrence set, constant-line set, follower pairs, type
//! histograms, sequence/unique/range accumulators, and the relational
//! sorted-run fragment), so an engine that caches sketches can relearn
//! after an edit by re-sketching only the changed config and re-running
//! fold + emit ([`finalize_sketches`]) — the exact same code path as a
//! full learn, hence byte-identical contracts by construction.
//!
//! Sketches persist in a compact binary form ([`ConfigSketch::encode`],
//! [`ConfigSketch::decode`]) against the dataset's [`PatternTable`].
//! Each sketch carries its own pattern dictionary — the text of every
//! pattern it references, once — and every other field refers to a
//! pattern by varint index into it, so a sketch survives snapshot and
//! restore, where pattern ids are reassigned, without spelling a
//! pattern out per reference. Witness hashes and diversity scores are
//! raw 8-byte `u64`/`f64` bit patterns. A W2 sketch of ~1,100
//! relational candidates encodes to a few tens of kilobytes; decoding
//! costs one table lookup per dictionary entry plus a linear scan.

use std::time::Instant;

use concord_types::{BigNum, ValueType};

use crate::codec::{put_bytes, put_u64, put_varint, Reader};
use crate::contract::{Contract, ContractSet};
use crate::fxhash::FxHashMap;
use crate::ir::{Dataset, PatternId, PatternTable};
use crate::learn::indexes::NodeKey;
use crate::learn::relational::NODE_PATTERN_SHIFT;
use crate::learn::LearnStats;
use crate::learn::{minimize, ordering, present, range, relational, sequence, typing, unique};
use crate::params::LearnParams;

/// Format version of the serialized sketch; bump on any layout change
/// so stale persisted sketches are dropped instead of misread.
pub const SKETCH_FORMAT_VERSION: u64 = 2;

/// One configuration's complete miner sketch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConfigSketch {
    /// Distinct pattern ids of the config — folds into the per-pattern
    /// config counts used by present, ordering, and relational emission.
    pub(crate) patterns: Vec<PatternId>,
    pub(crate) present: present::Sketch,
    pub(crate) ordering: ordering::Sketch,
    pub(crate) typing: typing::Sketch,
    pub(crate) sequence: sequence::Sketch,
    pub(crate) unique: unique::Sketch,
    pub(crate) range: range::Sketch,
    /// Relational sorted-run fragment (see [`relational`]).
    pub(crate) relational: relational::PartialRun,
    /// Witness records this config's relational pass dropped to the
    /// fan-out guard.
    pub(crate) relational_truncations: u64,
}

/// Sketches one configuration under `params`. Only the categories
/// enabled by `params` are accumulated, so the params fingerprint
/// ([`sketch_params_fingerprint`]) must match before a sketch is reused.
pub fn sketch_config(dataset: &Dataset, ci: usize, params: &LearnParams) -> ConfigSketch {
    let mut lines_by_pattern: crate::fxhash::FxHashMap<PatternId, Vec<usize>> =
        crate::fxhash::FxHashMap::default();
    for (i, &pattern) in dataset.configs[ci].patterns().iter().enumerate() {
        lines_by_pattern.entry(pattern).or_default().push(i);
    }
    let patterns: Vec<PatternId> = lines_by_pattern.keys().copied().collect();
    let (relational, relational_truncations) = if params.enable_relational {
        let outcome = relational::mine_config(dataset, ci, params);
        (outcome.partial, outcome.truncations)
    } else {
        (Vec::new(), 0)
    };
    ConfigSketch {
        patterns,
        present: if params.enable_present {
            present::sketch_config(dataset, ci, params)
        } else {
            present::Sketch::default()
        },
        ordering: if params.enable_ordering {
            ordering::sketch_config(dataset, ci)
        } else {
            ordering::Sketch::default()
        },
        typing: if params.enable_type {
            typing::sketch_config(dataset, ci)
        } else {
            typing::Sketch::default()
        },
        sequence: if params.enable_sequence {
            sequence::sketch_config(dataset, ci, &lines_by_pattern)
        } else {
            sequence::Sketch::default()
        },
        unique: if params.enable_unique {
            unique::sketch_config(dataset, ci, &lines_by_pattern)
        } else {
            unique::Sketch::default()
        },
        range: if params.enable_range {
            range::sketch_config(dataset, ci, &lines_by_pattern)
        } else {
            range::Sketch::default()
        },
        relational,
        relational_truncations,
    }
}

/// Folds `sketches` (one per config, *in config order*) and emits the
/// contract set — the same fold + emit code the full learner runs, so
/// the result is byte-identical to `learn_with_stats(dataset, params)`
/// whenever every sketch was produced by [`sketch_config`] under the
/// same params.
pub fn finalize_sketches(
    dataset: &Dataset,
    sketches: &[&ConfigSketch],
    params: &LearnParams,
) -> (ContractSet, LearnStats) {
    let mut stats = LearnStats::default();
    debug_assert_eq!(sketches.len(), dataset.configs.len());

    let t = Instant::now();
    let mut config_count = vec![0u32; dataset.table.len()];
    for sketch in sketches {
        for &pattern in &sketch.patterns {
            config_count[pattern.0 as usize] += 1;
        }
    }
    stats.view_time = t.elapsed();
    let num_configs = dataset.configs.len();

    let t_simple = Instant::now();
    let mut contracts: Vec<Contract> = Vec::new();
    let time_miner = |name: &str,
                      out: &mut Vec<Contract>,
                      mined: Vec<Contract>,
                      t: Instant,
                      stats: &mut LearnStats| {
        stats.miner_times.push((name.to_string(), t.elapsed()));
        out.extend(mined);
    };
    if params.enable_present {
        let t = Instant::now();
        let mut acc = present::Acc::default();
        for sketch in sketches {
            present::fold(&mut acc, &sketch.present);
        }
        let mined = present::emit(acc, dataset, &config_count, num_configs, params);
        time_miner("present", &mut contracts, mined, t, &mut stats);
    }
    if params.enable_ordering {
        let t = Instant::now();
        let mut acc = ordering::Acc::default();
        for sketch in sketches {
            ordering::fold(&mut acc, &sketch.ordering);
        }
        let mined = ordering::emit(acc, dataset, &config_count, params);
        time_miner("ordering", &mut contracts, mined, t, &mut stats);
    }
    if params.enable_type {
        let t = Instant::now();
        let mut acc = typing::Acc::default();
        for sketch in sketches {
            typing::fold(&mut acc, &sketch.typing);
        }
        let mined = typing::emit(acc, params);
        time_miner("type", &mut contracts, mined, t, &mut stats);
    }
    if params.enable_sequence {
        let t = Instant::now();
        let mut acc = sequence::Acc::default();
        for sketch in sketches {
            sequence::fold(&mut acc, &sketch.sequence);
        }
        let mined = sequence::emit(acc, dataset, params);
        time_miner("sequence", &mut contracts, mined, t, &mut stats);
    }
    if params.enable_unique {
        let t = Instant::now();
        let mut acc = unique::Acc::default();
        for sketch in sketches {
            unique::fold(&mut acc, &sketch.unique, params);
        }
        let mined = unique::emit(acc, dataset, num_configs, params);
        time_miner("unique", &mut contracts, mined, t, &mut stats);
    }
    if params.enable_range {
        let t = Instant::now();
        let mut acc = range::Acc::default();
        for sketch in sketches {
            range::fold(&mut acc, &sketch.range);
        }
        let mined = range::emit(acc, dataset, params);
        time_miner("range", &mut contracts, mined, t, &mut stats);
    }
    stats.simple_miners_time = t_simple.elapsed();
    stats.miner_parallelism = 1;

    let mut relational_before = 0;
    if params.enable_relational {
        let t = Instant::now();
        let tm = Instant::now();
        let mut global: relational::PartialRun = Vec::new();
        for sketch in sketches {
            stats.fanout_truncations += sketch.relational_truncations;
            global = relational::merge_partials(
                global,
                sketch.relational.clone(),
                params.max_score_witnesses,
            );
        }
        stats.relational_merge_time = tm.elapsed();
        let mined = relational::finalize(global, dataset, &config_count, params);
        stats.relational_time = t.elapsed();
        stats
            .miner_times
            .push(("relational".to_string(), stats.relational_time));
        relational_before = mined.len();
        let t = Instant::now();
        let reduced = if params.minimize {
            minimize::minimize(mined, params.parallelism)
        } else {
            mined
        };
        stats.minimize_time = t.elapsed();
        stats.relational_after_minimization = reduced.len();
        contracts.extend(reduced.into_iter().map(Contract::Relational));
    }
    stats.relational_before_minimization = relational_before;

    contracts.sort_by(|a, b| (a.category(), a.describe()).cmp(&(b.category(), b.describe())));
    contracts.dedup();

    (
        ContractSet {
            contracts,
            relational_before_minimization: relational_before,
        },
        stats,
    )
}

/// A deterministic fingerprint of every [`LearnParams`] field that can
/// change sketch contents or their interpretation. `parallelism` is
/// deliberately excluded: learning is pinned byte-identical across
/// parallelism levels, so sketches are reusable across it.
pub fn sketch_params_fingerprint(params: &LearnParams) -> String {
    format!(
        "v{SKETCH_FORMAT_VERSION};support={};confidence={:016x};score_threshold={:016x};\
         present={};ordering={};type={};sequence={};unique={};relational={};range={};\
         constants={};minimize={};max_witnesses_per_instance={};max_affix_fanout={};\
         max_score_witnesses={}",
        params.support,
        params.confidence.to_bits(),
        params.score_threshold.to_bits(),
        params.enable_present,
        params.enable_ordering,
        params.enable_type,
        params.enable_sequence,
        params.enable_unique,
        params.enable_relational,
        params.enable_range,
        params.learn_constants,
        params.minimize,
        params.max_witnesses_per_instance,
        params.max_affix_fanout,
        params.max_score_witnesses,
    )
}

/// The binary tag of each built-in [`ValueType`]; a custom type is
/// [`CUSTOM_TYPE_TAG`] followed by its name.
const BUILTIN_TYPES: [ValueType; 8] = [
    ValueType::Num,
    ValueType::Hex,
    ValueType::Bool,
    ValueType::Ip4,
    ValueType::Ip6,
    ValueType::Pfx4,
    ValueType::Pfx6,
    ValueType::Mac,
];
const CUSTOM_TYPE_TAG: u8 = BUILTIN_TYPES.len() as u8;

/// Mask of the pattern-independent low bits of a relational node code.
const NODE_LOCAL_MASK: u64 = (1 << NODE_PATTERN_SHIFT) - 1;

/// The per-sketch pattern dictionary built while encoding: each
/// referenced pattern id gets a dense index in first-reference order.
#[derive(Default)]
struct Dict {
    index: FxHashMap<PatternId, u64>,
    order: Vec<PatternId>,
}

impl Dict {
    fn idx(&mut self, pattern: PatternId) -> u64 {
        *self.index.entry(pattern).or_insert_with(|| {
            self.order.push(pattern);
            self.order.len() as u64 - 1
        })
    }

    fn node(&mut self, out: &mut Vec<u8>, node: NodeKey, extra_bits: u64, extra: u64) {
        put_varint(out, self.idx(node.pattern));
        put_varint(
            out,
            ((relational::node_code(node) & NODE_LOCAL_MASK) << extra_bits) | extra,
        );
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_type(out: &mut Vec<u8>, ty: &ValueType) {
    match BUILTIN_TYPES.iter().position(|b| b == ty) {
        Some(tag) => out.push(tag as u8),
        None => {
            out.push(CUSTOM_TYPE_TAG);
            if let ValueType::Custom(name) = ty {
                put_str(out, name);
            }
        }
    }
}

fn read_type(r: &mut Reader<'_>) -> Option<ValueType> {
    match r.byte()? {
        CUSTOM_TYPE_TAG => Some(ValueType::Custom(r.str()?.to_string())),
        tag => BUILTIN_TYPES.get(usize::from(tag)).cloned(),
    }
}

fn read_bignum(r: &mut Reader<'_>) -> Option<BigNum> {
    BigNum::from_decimal(r.str()?)
}

/// Reads a node: dictionary index plus the pattern-independent code
/// bits, the lowest `extra_bits` of which are returned separately.
fn read_node(r: &mut Reader<'_>, dict: &[PatternId], extra_bits: u32) -> Option<(NodeKey, u64)> {
    let pattern = *dict.get(usize::try_from(r.varint()?).ok()?)?;
    let bits = r.varint()?;
    let local = bits >> extra_bits;
    if local > NODE_LOCAL_MASK {
        return None;
    }
    let code = local | (u64::from(pattern.0) << NODE_PATTERN_SHIFT);
    Some((
        relational::decode_node(code),
        bits & ((1 << extra_bits) - 1),
    ))
}

fn read_list<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Option<T>,
) -> Option<Vec<T>> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(item(r)?);
    }
    Some(out)
}

impl ConfigSketch {
    /// Appends the binary encoding of this sketch to `out`. `table` is
    /// the table the sketch's pattern ids refer to.
    ///
    /// Layout (varints unless noted; see [`crate::codec`]): the format
    /// version, then the pattern dictionary — every referenced pattern's
    /// text once, in first-reference order — and then each miner's
    /// sketch with patterns as dictionary indices: pattern list,
    /// constants, ordering pairs, type groups, sequence, unique and
    /// range entries, the relational run (antecedent and consequent as
    /// index + pattern-independent code bits, relation folded into the
    /// consequent's low two bits, valid count, witnesses as raw 8-byte
    /// hash and `f64` bits), and the fan-out truncation count. Because
    /// patterns travel as text, a sketch survives table rebuilds that
    /// reassign ids.
    pub fn encode(&self, table: &PatternTable, out: &mut Vec<u8>) {
        let mut dict = Dict::default();
        let mut body = Vec::new();
        put_varint(&mut body, self.patterns.len() as u64);
        for &p in &self.patterns {
            put_varint(&mut body, dict.idx(p));
        }
        put_varint(&mut body, self.present.constants.len() as u64);
        for line in &self.present.constants {
            put_str(&mut body, line);
        }
        put_varint(&mut body, self.ordering.pairs.len() as u64);
        for &(p1, p2) in &self.ordering.pairs {
            put_varint(&mut body, dict.idx(p1));
            put_varint(&mut body, dict.idx(p2));
        }
        put_varint(&mut body, self.typing.groups.len() as u64);
        for (agnostic, holes) in &self.typing.groups {
            put_str(&mut body, agnostic);
            put_varint(&mut body, holes.len() as u64);
            for counts in holes {
                put_varint(&mut body, counts.len() as u64);
                for (ty, count) in counts {
                    put_type(&mut body, ty);
                    put_varint(&mut body, *count);
                }
            }
        }
        put_varint(&mut body, self.sequence.entries.len() as u64);
        for &(pattern, param, sequential) in &self.sequence.entries {
            put_varint(&mut body, dict.idx(pattern));
            put_varint(&mut body, u64::from(param));
            body.push(u8::from(sequential));
        }
        put_varint(&mut body, self.unique.entries.len() as u64);
        for ((pattern, param), ps) in &self.unique.entries {
            put_varint(&mut body, dict.idx(*pattern));
            put_varint(&mut body, u64::from(*param));
            put_varint(&mut body, ps.distinct.len() as u64);
            for (rendered, score) in &ps.distinct {
                put_str(&mut body, rendered);
                put_u64(&mut body, score.to_bits());
            }
            put_varint(&mut body, ps.instances);
            body.push(u8::from(ps.intra_dup) | (u8::from(ps.multi) << 1));
        }
        put_varint(&mut body, self.range.entries.len() as u64);
        for ((pattern, param), ps) in &self.range.entries {
            put_varint(&mut body, dict.idx(*pattern));
            put_varint(&mut body, u64::from(*param));
            put_str(&mut body, &ps.min.to_string());
            put_str(&mut body, &ps.max.to_string());
            put_varint(&mut body, ps.instances);
            put_varint(&mut body, ps.distinct.len() as u64);
            for value in &ps.distinct {
                put_str(&mut body, &value.to_string());
            }
        }
        put_varint(&mut body, self.relational.len() as u64);
        for (code, partial) in &self.relational {
            let key = relational::decode_cand(*code);
            dict.node(&mut body, key.antecedent, 0, 0);
            dict.node(&mut body, key.consequent, 2, key.relation as u64);
            put_varint(&mut body, u64::from(partial.valid));
            put_varint(&mut body, partial.witnesses.len() as u64);
            for &(hash, score) in &partial.witnesses {
                put_u64(&mut body, hash);
                put_u64(&mut body, score.to_bits());
            }
        }
        put_varint(&mut body, self.relational_truncations);

        put_varint(out, SKETCH_FORMAT_VERSION);
        put_varint(out, dict.order.len() as u64);
        for &p in &dict.order {
            put_str(out, table.text(p));
        }
        out.extend_from_slice(&body);
    }

    /// Decodes a sketch written by [`ConfigSketch::encode`] against
    /// `table`, mapping dictionary texts to the table's current ids.
    /// Returns `None` for another format version, any malformed or
    /// truncated input, trailing bytes, or a dictionary pattern that is
    /// not interned in `table` — callers treat that as "no sketch" and
    /// re-mine the config. Never panics.
    pub fn decode(bytes: &[u8], table: &PatternTable) -> Option<ConfigSketch> {
        let mut r = Reader::new(bytes);
        if r.varint()? != SKETCH_FORMAT_VERSION {
            return None;
        }
        let dict = read_list(&mut r, |r| table.get(r.str()?))?;
        let pattern = |r: &mut Reader<'_>| -> Option<PatternId> {
            dict.get(usize::try_from(r.varint()?).ok()?).copied()
        };

        let patterns = read_list(&mut r, pattern)?;
        let constants = read_list(&mut r, |r| Some(r.str()?.to_string()))?;
        let pairs = read_list(&mut r, |r| Some((pattern(r)?, pattern(r)?)))?;
        let groups = read_list(&mut r, |r| {
            let agnostic = r.str()?.to_string();
            let holes = read_list(r, |r| read_list(r, |r| Some((read_type(r)?, r.varint()?))))?;
            Some((agnostic, holes))
        })?;
        let sequence_entries = read_list(&mut r, |r| {
            let p = pattern(r)?;
            let param = r.u16()?;
            let sequential = match r.byte()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            Some((p, param, sequential))
        })?;
        let unique_entries = read_list(&mut r, |r| {
            let key = (pattern(r)?, r.u16()?);
            let distinct = read_list(r, |r| Some((r.str()?.to_string(), r.f64()?)))?;
            let instances = r.varint()?;
            let flags = r.byte()?;
            if flags > 0b11 {
                return None;
            }
            Some((
                key,
                unique::ParamSketch {
                    distinct,
                    instances,
                    intra_dup: flags & 1 != 0,
                    multi: flags & 2 != 0,
                },
            ))
        })?;
        let range_entries = read_list(&mut r, |r| {
            let key = (pattern(r)?, r.u16()?);
            let min = read_bignum(r)?;
            let max = read_bignum(r)?;
            let instances = r.varint()?;
            let distinct = read_list(r, read_bignum)?;
            Some((
                key,
                range::ParamSketch {
                    min,
                    max,
                    instances,
                    distinct,
                },
            ))
        })?;
        let mut relational_run = read_list(&mut r, |r| {
            let (antecedent, _) = read_node(r, &dict, 0)?;
            let (consequent, relation) = read_node(r, &dict, 2)?;
            let code = relational::cand_code(
                relational::node_code(antecedent),
                relation | (relational::node_code(consequent) << 2),
            );
            let valid = r.u32()?;
            let witnesses = read_list(r, |r| Some((r.u64()?, r.f64()?)))?;
            Some((
                code,
                relational::Partial {
                    valid,
                    witnesses,
                    seen: None,
                },
            ))
        })?;
        let relational_truncations = r.varint()?;
        if !r.is_empty() {
            return None;
        }
        // Ids may have been reassigned since the sketch was written:
        // restore the sorted-run invariant under the current encoding.
        // Candidates are distinct by construction; a repeat is corruption.
        relational_run.sort_unstable_by_key(|&(code, _)| code);
        if relational_run.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }

        Some(ConfigSketch {
            patterns,
            present: present::Sketch { constants },
            ordering: ordering::Sketch { pairs },
            typing: typing::Sketch { groups },
            sequence: sequence::Sketch {
                entries: sequence_entries,
            },
            unique: unique::Sketch {
                entries: unique_entries,
            },
            range: range::Sketch {
                entries: range_entries,
            },
            relational: relational_run,
            relational_truncations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learn::learn_with_stats;

    fn dataset(texts: &[String]) -> Dataset {
        let configs: Vec<(String, String)> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("dev{i}"), t.clone()))
            .collect();
        Dataset::from_named_texts(&configs, &[]).unwrap()
    }

    fn rich_texts() -> Vec<String> {
        (0..9)
            .map(|i| {
                format!(
                    "hostname DEV{i}\ninterface Loopback0\n ip address 10.14.14.{i}\n\
                     ip prefix-list lo\n seq 10 permit 10.14.14.{i}/32\n\
                     vlan {}\n rd 10.0.0.1:10{}\nvni {}\nmtu {}\n",
                    250 + i,
                    250 + i,
                    250 + i,
                    if i % 2 == 0 { 1500 } else { 9214 },
                )
            })
            .collect()
    }

    #[test]
    fn finalize_sketches_matches_full_learn() {
        let ds = dataset(&rich_texts());
        for (learn_constants, enable_range) in [(false, false), (true, true)] {
            let params = LearnParams {
                learn_constants,
                enable_range,
                ..LearnParams::default()
            };
            let sketches: Vec<ConfigSketch> = (0..ds.configs.len())
                .map(|ci| sketch_config(&ds, ci, &params))
                .collect();
            let refs: Vec<&ConfigSketch> = sketches.iter().collect();
            let (delta, delta_stats) = finalize_sketches(&ds, &refs, &params);
            let (full, full_stats) = learn_with_stats(&ds, &params);
            assert_eq!(delta.contracts, full.contracts);
            assert_eq!(
                delta.relational_before_minimization,
                full.relational_before_minimization
            );
            assert_eq!(
                delta_stats.fanout_truncations,
                full_stats.fanout_truncations
            );
            assert!(!delta.is_empty());
        }
    }

    #[test]
    fn sketch_round_trips_through_bytes() {
        let ds = dataset(&rich_texts());
        let params = LearnParams {
            learn_constants: true,
            enable_range: true,
            ..LearnParams::default()
        };
        for ci in 0..ds.configs.len() {
            let sketch = sketch_config(&ds, ci, &params);
            let mut bytes = Vec::new();
            sketch.encode(&ds.table, &mut bytes);
            let decoded = ConfigSketch::decode(&bytes, &ds.table).unwrap();
            assert_eq!(sketch, decoded, "sketch {ci} did not round-trip");
        }
    }

    #[test]
    fn decode_rejects_unknown_patterns_versions_and_trailing_bytes() {
        let ds = dataset(&rich_texts());
        let sketch = sketch_config(&ds, 0, &LearnParams::default());
        let mut bytes = Vec::new();
        sketch.encode(&ds.table, &mut bytes);
        // Decode against a table that lacks the patterns.
        let other = dataset(&["completely different\n".to_string()]);
        assert!(ConfigSketch::decode(&bytes, &other.table).is_none());
        let mut stale = bytes.clone();
        stale[0] = (SKETCH_FORMAT_VERSION - 1) as u8;
        assert!(ConfigSketch::decode(&stale, &ds.table).is_none());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(ConfigSketch::decode(&trailing, &ds.table).is_none());
    }

    #[test]
    fn fingerprint_tracks_semantic_params_only() {
        let base = LearnParams::default();
        let mut parallel = base.clone();
        parallel.parallelism = 8;
        assert_eq!(
            sketch_params_fingerprint(&base),
            sketch_params_fingerprint(&parallel)
        );
        let mut support = base.clone();
        support.support = 7;
        assert_ne!(
            sketch_params_fingerprint(&base),
            sketch_params_fingerprint(&support)
        );
    }
}
