//! Golden JSON snapshot of the analyzer's diagnostics for one
//! seeded-broken FIR mapping (the `shift-producer-late` mutant under
//! seed 42). Pins the exact codes, spans, severities and message text —
//! renderer drift and code renumbering both show up as byte diffs.
//!
//! Refresh intentionally with
//! `UPDATE_GOLDEN=1 cargo test -p cgra-analyze --test golden_diagnostics`.

#[path = "../../../tests/common/mod.rs"]
mod common;
use common::check_golden;

#[test]
fn broken_fir_diagnostics_match_golden() {
    let report = cgra_analyze::mutate::broken_fir_report(42);
    assert!(report.has_errors(), "the mutant must not analyze clean");
    let mut json = report.to_json().pretty();
    json.push('\n');
    check_golden("fir_broken.json", &json);
    // The human renderer is pinned too — one line per diagnostic.
    check_golden("fir_broken.txt", &report.render());
}
