//! End-to-end analyzer gate: every artifact the compile stage produces
//! for every kernel in the suite must analyze clean — both mappings,
//! the page-level schedule, every halving-chain shrink plan and the
//! profile. This audits [`Compiled`], the same artifacts `cgra-lint`
//! reports and the figures' profiles come from.

use std::sync::OnceLock;

use cgra_mt::arch::fabric;
use cgra_mt::prelude::*;
use cgra_mt::sim::Compiled;

/// `(kernel, artifact, report)` for every kernel compiled on the 8×8
/// fabric with 2-PE pages — the longest halving chain of the paper grid.
/// Compiled once and shared by the tests below.
fn audits() -> &'static [(String, String, Report)] {
    static AUDITS: OnceLock<Vec<(String, String, Report)>> = OnceLock::new();
    AUDITS.get_or_init(|| {
        let cgra = fabric(8, 2).expect("8x8/p2 is a fabric");
        let mut out = Vec::new();
        for dfg in cgra_mt::dfg::kernels::all() {
            let compiled = Compiled::new(&dfg, &cgra, &MapOptions::default(), &Tracer::off())
                .unwrap_or_else(|e| panic!("{}: compile failed: {e}", dfg.name));
            for (artifact, rep) in compiled.audit(&cgra) {
                out.push((dfg.name.clone(), artifact, rep));
            }
        }
        out
    })
}

/// Assert every audited artifact accepted by `select` is error-free and
/// return how many there were.
fn assert_clean(select: impl Fn(&str) -> bool) -> usize {
    let mut n = 0;
    for (kernel, artifact, rep) in audits() {
        if !select(artifact) {
            continue;
        }
        n += 1;
        assert!(!rep.has_errors(), "{kernel} {artifact}:\n{}", rep.render());
    }
    n
}

/// Both mappings (the unconstrained baseline and the paper's
/// ring-constrained mode), the paged schedule and the profile of every
/// kernel analyze clean.
#[test]
fn all_kernels_analyze_clean_in_both_modes() {
    let kernels = cgra_mt::dfg::kernels::all().len();
    for artifact in [
        "baseline-mapping",
        "constrained-mapping",
        "paged-schedule",
        "profile",
    ] {
        assert_eq!(assert_clean(|a| a == artifact), kernels, "{artifact}");
    }
}

/// Every halving-chain shrink of every kernel must also analyze clean —
/// the transform's output is audited by code that shares none of its
/// logic.
#[test]
fn all_shrink_plans_analyze_clean() {
    let plans = assert_clean(|a| a.starts_with("plan-m"));
    assert!(plans > 0, "no kernel needed a shrink plan");
}

/// A seeded mutation must *not* analyze clean — the gate has teeth.
#[test]
fn analyzer_rejects_a_seeded_break() {
    let report = cgra_mt::analyze::mutate::broken_fir_report(7);
    assert!(report.has_errors());
    assert!(report.codes().contains(&Code::A005BadDataflow));
}
