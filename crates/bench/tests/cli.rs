//! The `fig9` binary rejects a targeted fault on a page its curve's
//! fabric does not have with exit status 2, instead of running a curve
//! in which the fault strikes nothing.

use std::process::Command;

#[test]
fn fault_on_a_missing_page_exits_2_naming_the_clause_and_page_count() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig9"))
        .args(["--smoke", "--no-cache", "--faults", "at=5000,page=16"])
        .output()
        .expect("fig9 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("page=16"), "must name the clause: {stderr}");
    assert!(
        stderr.contains("16 pages"),
        "must name the page count: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no curve may be printed");
}
