//! Tier-1 pin of the canonical batch report. `slc batch` over the full
//! matrix must hash to the digest checked in as `BENCH_batch.sha256` (the
//! CI gates compare against the same file), and the exact-scheduler run
//! to the digest pinned here. Any change to either report must say why
//! and update the pin.

use slc::pipeline::sha256_hex;
use std::process::Command;

/// SHA-256 of `slc batch --scheduler exact --out FILE`.
const EXACT_DIGEST: &str = "092f06e635bf98998f645ea92f7025ee1e92f9868ba0852cc93d535c073043ba";

/// Digest of the report `slc batch ARGS --out FILE` writes.
fn batch_digest(name: &str, args: &[&str]) -> String {
    let path = std::env::temp_dir().join(format!(
        "slc_batch_digest_{name}_{}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_slc"))
        .arg("batch")
        .args(args)
        .arg("--out")
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "slc batch {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    sha256_hex(&bytes)
}

#[test]
fn sha256_known_vectors() {
    assert_eq!(
        sha256_hex(b""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        sha256_hex(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    let long = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    assert_eq!(
        sha256_hex(long),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

#[test]
fn default_batch_report_matches_checked_in_digest() {
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_batch.sha256");
    let pinned = std::fs::read_to_string(file).expect("BENCH_batch.sha256 is checked in");
    // the CLI's own gate accepts the checked-in file, and agrees with us
    assert_eq!(
        batch_digest("default", &["--check-digest", file]),
        pinned.trim()
    );
}

#[test]
fn exact_batch_report_matches_pinned_digest() {
    assert_eq!(
        batch_digest("exact", &["--scheduler", "exact"]),
        EXACT_DIGEST
    );
}

#[test]
fn check_digest_rejects_a_wrong_or_missing_pin() {
    let dir = std::env::temp_dir();
    let missing = dir.join(format!("slc_no_such_digest_{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_slc"))
        .args(["batch", "--check-digest"])
        .arg(&missing)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "missing digest file must exit 1"
    );

    let wrong = dir.join(format!("slc_wrong_digest_{}", std::process::id()));
    std::fs::write(&wrong, format!("{EXACT_DIGEST}\n")).unwrap();
    let report = dir.join(format!("slc_wrong_digest_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_slc"))
        .args(["batch", "--check-digest"])
        .arg(&wrong)
        .arg("--out")
        .arg(&report)
        .output()
        .unwrap();
    std::fs::remove_file(&wrong).ok();
    std::fs::remove_file(&report).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("DIGEST MISMATCH"), "{stderr}");
}
