//! The `depkit validate` transcript, pinned byte-for-byte: the real
//! binary seeds `tests/data/referential.dep`, streams the three batches of
//! `tests/data/referential.deltas` (break the IND, repair it, break the
//! `DEPT: DNO -> MGR` key), and must print exactly
//! `tests/data/referential.validate.stdout` and exit 1 — the script ends
//! on a violated dependency.

use std::path::PathBuf;
use std::process::Command;

fn data(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data")
        .join(name)
}

#[test]
fn validate_transcript_is_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_depkit"))
        .arg("validate")
        .arg(data("referential.dep"))
        .arg(data("referential.deltas"))
        .output()
        .expect("depkit runs");
    let expected = std::fs::read_to_string(data("referential.validate.stdout")).unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
