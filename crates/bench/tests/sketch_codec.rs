//! The binary miner-sketch codec (`ConfigSketch::encode`/`decode`)
//! over sketches of all ten datagen roles (E1, E2, W1–W8).
//!
//! * Round trip across id reassignment: a sketch encoded against one
//!   pattern table and decoded against a table built in another order
//!   (different ids) re-encodes back to the original sketch.
//! * Damage: every truncation of an encoded sketch (of configs cut to
//!   their first lines, to bound the quadratic cost) is rejected, and a
//!   seeded sample of single-byte corruptions of full-size sketches
//!   decodes to `None` or to a well-formed sketch (one whose re-encoding
//!   is a fixed point); no input panics.
//! * A dictionary pattern missing from the decoding table yields `None`.

use concord_bench::seed;
use concord_core::{sketch_config, ConfigSketch, Dataset, LearnParams};
use concord_datagen::{generate_role, standard_roles, GeneratedRole};
use concord_rng::rngs::StdRng;
use concord_rng::{Rng, SeedableRng};

/// Configs sketched per role.
const CONFIGS_PER_ROLE: usize = 3;
/// Lines kept per config for the exhaustive truncation check, and the
/// sketch size the line count is halved down to.
const SHORT_LINES: usize = 24;
const SHORT_BYTES: usize = 4096;
/// Single-byte corruptions tried per sketch.
const FLIPS_PER_SKETCH: usize = 64;

fn params() -> LearnParams {
    LearnParams {
        learn_constants: true,
        enable_range: true,
        ..LearnParams::default()
    }
}

fn roles() -> Vec<GeneratedRole> {
    standard_roles(0.25)
        .iter()
        .map(|spec| generate_role(spec, seed()))
        .collect()
}

fn dataset(configs: &[(String, String)], metadata: &[(String, String)]) -> Dataset {
    Dataset::from_named_texts(configs, metadata).expect("dataset builds")
}

/// Index of the config named `name` (a linear scan: the reordered
/// dataset is not name-sorted, so `Dataset::config_index` does not
/// apply to it).
fn index_of(ds: &Dataset, name: &str) -> usize {
    ds.configs
        .iter()
        .position(|c| ds.name_of(c) == name)
        .expect("config present")
}

fn encode(sketch: &ConfigSketch, ds: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    sketch.encode(&ds.table, &mut out);
    out
}

/// Whether `sketch` is well formed: re-encoding it is a fixed point.
/// Compared as bytes, so a corrupted `f64` that decodes to NaN still
/// compares equal to itself.
fn is_fixed_point(sketch: &ConfigSketch, ds: &Dataset) -> bool {
    let bytes = encode(sketch, ds);
    ConfigSketch::decode(&bytes, &ds.table).is_some_and(|again| encode(&again, ds) == bytes)
}

/// `(role, dataset, dataset with reassigned ids, sketched config names)`
/// for every role, configs picked by a seeded rng.
fn cases() -> Vec<(String, Dataset, Dataset, Vec<String>)> {
    let mut rng = StdRng::seed_from_u64(seed() ^ 0x5EC0_DEC0);
    let roles = roles();
    roles
        .iter()
        .enumerate()
        .map(|(i, role)| {
            let ds = dataset(&role.configs, &role.metadata);
            // Interning another role's config first, then this role's
            // configs in reverse order, reassigns every pattern id.
            let filler = roles[(i + 1) % roles.len()].configs[0].clone();
            let reordered: Vec<(String, String)> = std::iter::once(filler)
                .chain(role.configs.iter().rev().cloned())
                .collect();
            let other = dataset(&reordered, &role.metadata);
            let names = (0..CONFIGS_PER_ROLE)
                .map(|_| role.configs[rng.gen_range(0..role.configs.len())].0.clone())
                .collect();
            (role.name.clone(), ds, other, names)
        })
        .collect()
}

#[test]
fn sketches_round_trip_across_reassigned_pattern_ids() {
    let params = params();
    for (role, ds, other, names) in cases() {
        let mut reassigned = false;
        for name in &names {
            let ci = index_of(&ds, name);
            let sketch = sketch_config(&ds, ci, &params);
            let bytes = encode(&sketch, &ds);
            assert_eq!(
                ConfigSketch::decode(&bytes, &ds.table).as_ref(),
                Some(&sketch),
                "{role}/{name}: same-table round trip"
            );
            let moved = ConfigSketch::decode(&bytes, &other.table)
                .unwrap_or_else(|| panic!("{role}/{name}: decodes against reassigned ids"));
            reassigned |= moved != sketch;
            let back = ConfigSketch::decode(&encode(&moved, &other), &ds.table);
            assert_eq!(
                back.as_ref(),
                Some(&sketch),
                "{role}/{name}: round trip through reassigned ids"
            );
        }
        assert!(reassigned, "{role}: reordered interning must move ids");
    }
}

#[test]
fn every_truncation_is_rejected() {
    // Truncation costs O(len²) decode steps per sketch, so each role's
    // configs are cut to their first lines — halving the line count
    // until the first config's sketch fits SHORT_BYTES. The sketches
    // stay small but still carry every section of the layout.
    let params = params();
    for role in roles() {
        let mut lines = SHORT_LINES;
        let ds = loop {
            let short: Vec<(String, String)> = role
                .configs
                .iter()
                .map(|(name, text)| {
                    let head: String = text.lines().take(lines).map(|l| format!("{l}\n")).collect();
                    (name.clone(), head)
                })
                .collect();
            let ds = dataset(&short, &role.metadata);
            if lines <= 4 || encode(&sketch_config(&ds, 0, &params), &ds).len() <= SHORT_BYTES {
                break ds;
            }
            lines /= 2;
        };
        for ci in [0, ds.configs.len() - 1] {
            let sketch = sketch_config(&ds, ci, &params);
            let bytes = encode(&sketch, &ds);
            assert_eq!(ConfigSketch::decode(&bytes, &ds.table), Some(sketch));
            for cut in 0..bytes.len() {
                assert!(
                    ConfigSketch::decode(&bytes[..cut], &ds.table).is_none(),
                    "{}/{ci}: truncation at {cut} of {} accepted",
                    role.name,
                    bytes.len()
                );
            }
        }
    }
}

#[test]
fn corrupted_bytes_decode_to_none_or_a_well_formed_sketch() {
    let params = params();
    let mut rng = StdRng::seed_from_u64(seed() ^ 0xF11F);
    for (role, ds, _, names) in cases() {
        for name in &names {
            let ci = index_of(&ds, name);
            let bytes = encode(&sketch_config(&ds, ci, &params), &ds);
            let mut accepted = 0;
            for _ in 0..FLIPS_PER_SKETCH {
                let mut damaged = bytes.clone();
                let at = rng.gen_range(0..damaged.len());
                damaged[at] ^= rng.gen_range(1..=255u32) as u8;
                if let Some(decoded) = ConfigSketch::decode(&damaged, &ds.table) {
                    accepted += 1;
                    assert!(
                        is_fixed_point(&decoded, &ds),
                        "{role}/{name}: flip at {at} decoded to a malformed sketch"
                    );
                }
            }
            // Most of a sketch is witness hashes and scores, which carry
            // no structure: some flips must decode.
            assert!(accepted > 0, "{role}/{name}: no flip decoded");
        }
    }
}

#[test]
fn a_pattern_missing_from_the_table_yields_none() {
    let params = params();
    let roles = roles();
    // Decode every role's sketches against the next role's table: they
    // decode exactly when every pattern of the config is interned there.
    for (i, role) in roles.iter().enumerate() {
        let ds = dataset(&role.configs, &role.metadata);
        let next = &roles[(i + 1) % roles.len()];
        let foreign = dataset(&next.configs, &next.metadata);
        let mut missing_seen = false;
        for ci in 0..ds.configs.len().min(CONFIGS_PER_ROLE) {
            let bytes = encode(&sketch_config(&ds, ci, &params), &ds);
            let all_present = ds.configs[ci]
                .patterns()
                .iter()
                .all(|&p| foreign.table.get(ds.table.text(p)).is_some());
            missing_seen |= !all_present;
            assert_eq!(
                ConfigSketch::decode(&bytes, &foreign.table).is_some(),
                all_present,
                "{}: config {ci} against {}'s table",
                role.name,
                next.name
            );
        }
        assert!(
            missing_seen,
            "{}: no config had a foreign pattern",
            role.name
        );
    }
}
