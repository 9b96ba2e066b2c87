//! Helpers shared by the golden-snapshot tests of every crate. A test
//! outside the root package includes this file with
//! `#[path = "../../../tests/common/mod.rs"] mod common;`, so each
//! crate's `CARGO_MANIFEST_DIR` names its own `tests/golden/`.

// Each test target uses part of the module.
#![allow(dead_code)]

use std::path::PathBuf;

/// 64-bit FNV-1a of `bytes`: the digest the golden snapshots print.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Compare `actual` byte-for-byte against `tests/golden/<name>`, or
/// rewrite that file when `UPDATE_GOLDEN` is set.
pub fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "snapshot {name} diverged; if intentional, rerun with UPDATE_GOLDEN=1"
    );
}
