//! Golden snapshot of `cgra-lint`'s findings: one line per analyzed
//! artifact — fabric, kernel, artifact label, then the analyzer's report
//! folded onto the same line — compared byte-for-byte against
//! `tests/golden/`.
//!
//! This pins both which artifacts the linter audits, in which order,
//! and what the analyzer says about each one. If a change is
//! intentional, refresh the snapshots with `UPDATE_GOLDEN=1 cargo test
//! --release --test golden_lint -- --include-ignored`.
//!
//! The default test lints the 4×4 fabric with 4-PE pages. The full
//! paper grid is `#[ignore]`d: run it in release with
//! `--include-ignored`.

use cgra_bench::lint::{lint, LintFinding};
use std::fmt::Write as _;

mod common;
use common::check_golden;

fn snapshot(findings: &[LintFinding]) -> String {
    let mut out = String::new();
    for f in findings {
        let (dim, page) = f.config;
        let report = f.report.render();
        let report = report.trim_end().replace('\n', " | ");
        let _ = writeln!(
            out,
            "{dim}x{dim}/p{page} {} {}: {report}",
            f.kernel, f.artifact
        );
    }
    out
}

#[test]
fn lint_4x4_page4() {
    let findings = lint(4, 4, false).expect("4x4/p4 is a fabric");
    check_golden("lint_4x4_p4.txt", &snapshot(&findings));
}

#[test]
#[ignore = "full paper grid: slow in debug; run in release with --include-ignored"]
fn lint_full_grid() {
    let findings = lint(4, 4, true).expect("the paper grid names only fabrics");
    check_golden("lint_grid.txt", &snapshot(&findings));
}
