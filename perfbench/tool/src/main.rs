//! Helper binary of the perfbench benchmark (see `perfbench/README.md`).
//!
//! It holds the parts of the benchmark that need the repository's Rust
//! API rather than the `concord` binary:
//!
//! - `gen`: writes a seeded datagen corpus to disk,
//! - `naive`: the independent `check_naive` oracle over learned contracts,
//! - `replay`: the in-process replay of a serve op stream on
//!   `ResilientEngine`, used to verify serve answers and, with a state
//!   directory, to time the engine and storage layers through a counting
//!   `Vfs` wrapper.
//!
//! Output is plain text and flat JSON lines that `perfbench/run.py` reads.

mod replay;
mod vfs;

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use concord_datagen::{generate_role, standard_roles};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench-tool gen|naive|replay [--flag value]...");
        return ExitCode::from(2);
    };
    let flags = match parse_flags(rest) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("perfbench-tool: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "gen" => gen(&flags),
        "naive" => naive(&flags),
        "replay" => replay::run(&flags),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-tool {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--name value` pairs; a flag without a value (`--trace`) maps to "".
pub(crate) type Flags = BTreeMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut i = 0;
    while i < args.len() {
        let Some(name) = args[i].strip_prefix("--") else {
            return Err(format!("expected a --flag, got {:?}", args[i]));
        };
        match args.get(i + 1).filter(|v| !v.starts_with("--")) {
            Some(value) => {
                flags.insert(name.to_string(), value.clone());
                i += 2;
            }
            None => {
                flags.insert(name.to_string(), String::new());
                i += 1;
            }
        }
    }
    Ok(flags)
}

pub(crate) fn flag<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}"))
}

pub(crate) fn num_flag<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<T, String> {
    flag(flags, name)?
        .parse()
        .map_err(|_| format!("--{name} expects a number"))
}

/// `gen --seed S --out DIR --roles all|R1,R2 --scale F [--devices N]`
///
/// Writes `DIR/<role>/cfg/<device>.cfg` (and `DIR/<role>/meta/<file>`
/// for roles with metadata) and prints one JSON line per role.
/// `--devices` overrides the device count of every selected role.
fn gen(flags: &Flags) -> Result<(), String> {
    let seed: u64 = num_flag(flags, "seed")?;
    let scale: f64 = num_flag(flags, "scale")?;
    let out = Path::new(flag(flags, "out")?);
    let roles = flag(flags, "roles")?;
    let devices: Option<usize> = match flags.get("devices") {
        Some(_) => Some(num_flag(flags, "devices")?),
        None => None,
    };
    for mut spec in standard_roles(scale) {
        if roles != "all" && !roles.split(',').any(|r| r == spec.name) {
            continue;
        }
        if let Some(n) = devices {
            spec.devices = n;
        }
        let role = generate_role(&spec, seed);
        let cfg_dir = out.join(&role.name).join("cfg");
        fs::create_dir_all(&cfg_dir).map_err(|e| e.to_string())?;
        let mut bytes = 0usize;
        for (name, text) in &role.configs {
            fs::write(cfg_dir.join(format!("{name}.cfg")), text).map_err(|e| e.to_string())?;
            bytes += text.len();
        }
        if !role.metadata.is_empty() {
            let meta_dir = out.join(&role.name).join("meta");
            fs::create_dir_all(&meta_dir).map_err(|e| e.to_string())?;
            for (name, text) in &role.metadata {
                fs::write(meta_dir.join(name), text).map_err(|e| e.to_string())?;
            }
        }
        println!(
            "{{\"role\":\"{}\",\"devices\":{},\"lines\":{},\"bytes\":{},\"metadata\":{}}}",
            role.name,
            role.configs.len(),
            role.total_lines(),
            bytes,
            !role.metadata.is_empty()
        );
    }
    Ok(())
}

/// `naive --configs GLOB [--metadata GLOB] --contracts FILE --out FILE`
///
/// Loads the dataset exactly as `concord check` does (standard lexer,
/// context embedding on) and writes the violations of the independent
/// naive checker in the format of `concord check --out`.
fn naive(flags: &Flags) -> Result<(), String> {
    let dataset = concord_cli::load_dataset(
        flag(flags, "configs")?,
        flags.get("metadata").map(String::as_str),
        None,
        true,
        1,
    )
    .map_err(|e| e.to_string())?;
    let contracts_path = flag(flags, "contracts")?;
    let json = fs::read_to_string(contracts_path).map_err(|e| format!("{contracts_path}: {e}"))?;
    let contracts = concord_core::ContractSet::from_json(&json)
        .map_err(|e| format!("{contracts_path}: {e}"))?;
    let report = concord_core::check_naive(&contracts, &dataset);
    let rendered = concord_json::to_string_pretty(&report.violations).map_err(|e| e.to_string())?;
    fs::write(flag(flags, "out")?, rendered).map_err(|e| e.to_string())?;
    Ok(())
}
