//! Migration of a state directory written with JSON (`v1`) segments.
//!
//! `tests/fixtures/v1-state/` holds a `--state-dir` written by a build
//! whose segments were JSON records carrying JSON miner sketches (see
//! the fixture's README.md for how it was made). Today's loader reads
//! those segments for their texts, ids and generations and drops their
//! sketches. This test pins what that means at the protocol surface:
//!
//! * the directory boots and answers GEN and CHECK exactly as the
//!   writing build did on its own reboot (`reboot.txt`);
//! * the next LEARN re-mines every config (`mined=4 reused=0`) and
//!   yields exactly the contracts of a cold learn over the same corpus;
//! * the next checkpoint writes binary (`v2`) segments for every config
//!   the manifest pins, and a further reboot reuses every sketch.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use concord_json::Json;

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-state")
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// Runs `concord serve <args>` over a stdin script; returns stdout.
fn serve(args: &[&str], script: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_concord"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("concord starts");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("script written");
    let out = child.wait_with_output().expect("concord exits");
    assert!(out.status.success(), "serve {args:?} failed");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The header magic of every segment the live manifest pins.
fn pinned_segment_magics(state: &Path) -> Vec<String> {
    let manifest = std::fs::read_to_string(state.join("manifest.json")).unwrap();
    let (_, payload) = manifest.split_once('\n').expect("manifest header");
    let json = Json::parse(payload.trim_end()).expect("manifest parses");
    let configs = json.get("configs").and_then(Json::as_array).expect("refs");
    configs
        .iter()
        .map(|r| {
            let id = r.get("id").and_then(Json::as_u64).expect("id");
            let generation = r.get("generation").and_then(Json::as_u64).expect("gen");
            let sketch = r.get("sketch").and_then(Json::as_bool).expect("sketch");
            let name = format!("cfg-{id:016x}-{generation:016x}-{}.seg", u8::from(sketch));
            let bytes = std::fs::read(state.join("segments").join(name)).expect("segment");
            let end = bytes.iter().position(|&b| b == b' ').expect("header");
            String::from_utf8_lossy(&bytes[..end]).into_owned()
        })
        .collect()
}

#[test]
fn json_segment_state_dir_boots_relearns_and_rewrites_binary() {
    let work = std::env::temp_dir().join(format!("concord-v1-migration-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let state = work.join("state");
    copy_dir(&fixture().join("state"), &state);
    let state_arg = state.to_str().expect("utf-8 path");
    let params = ["--support", "2"];

    let migrated = serve(
        &["--state-dir", state_arg, params[0], params[1]],
        "GEN leaf1\nGEN leaf2\nGEN leaf3\nGEN leaf4\nCHECK\nLEARN\nCONTRACTS\nCHECKPOINT\nQUIT\n",
    );

    // GEN and CHECK answer exactly as the writing build did.
    let reboot = std::fs::read_to_string(fixture().join("reboot.txt")).unwrap();
    let (want_reads, _) = reboot.split_once("ok learn").expect("reboot transcript");
    assert!(
        migrated.starts_with(want_reads),
        "reads differ after migration:\n{migrated}\nwant prefix:\n{want_reads}"
    );

    // LEARN re-mines every config (the JSON sketches were dropped) and
    // matches a cold learn over the same corpus, contracts included.
    let corpus = format!("{}/corpus/*.cfg", fixture().display());
    let cold = serve(
        &["--configs", &corpus, params[0], params[1]],
        "LEARN\nCONTRACTS\nQUIT\n",
    );
    assert!(
        cold.starts_with("ok learn 78 contracts mined=4 reused=0\n"),
        "{cold}"
    );
    let cold_learn = cold.strip_suffix("ok bye\n").expect("cold session ends");
    assert_eq!(
        &migrated[want_reads.len()..],
        format!("{cold_learn}ok checkpoint\nok bye\n"),
        "migrated LEARN/CONTRACTS differ from a cold learn"
    );

    // The checkpoint rewrote every pinned segment as a binary record.
    let magics = pinned_segment_magics(&state);
    assert_eq!(magics.len(), 4);
    assert!(
        magics.iter().all(|m| m == "concord-engine-segment/v2"),
        "{magics:?}"
    );

    // A further reboot restores every sketch from the binary segments.
    let again = serve(
        &["--state-dir", state_arg, params[0], params[1]],
        "LEARN\nQUIT\n",
    );
    assert_eq!(again, "ok learn 78 contracts mined=0 reused=4\nok bye\n");
    let _ = std::fs::remove_dir_all(&work);
}
