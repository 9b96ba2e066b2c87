//! Helpers shared by the root golden-snapshot tests.

use std::path::PathBuf;

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
