//! Semantic integrity analysis of a compiled kernel profile — the
//! summary the simulator runs on instead of the mappings.
//!
//! A profile is a pure summary (`name`, baseline/constrained IIs, page
//! footprint, the `(M, II_q)` table over the halving chain), so the
//! analyzer cannot re-derive the numbers themselves without recompiling;
//! what it *can* re-derive are the invariants every honestly compiled
//! profile satisfies:
//!
//! * all IIs are positive — a zero II means a free kernel (A401);
//! * the paging constraints only ever cost performance, so
//!   `II_constrained ≥ II_baseline` (A402);
//! * the II table enumerates exactly the halving-chain budgets
//!   `N, N/2, …, 1` in order (A403) — the chain is re-derived locally,
//!   not imported from the code that built the profile;
//! * shrinking pages never speeds a kernel up: the table's IIs are
//!   weakly increasing as `M` falls (A404);
//! * the claimed page footprint fits the fabric: `1 ≤ used ≤ N` (A405).
//!
//! Any violation means the compile stage that built the profile is
//! wrong; the runtime must not be handed it.

use crate::diag::{Code, Diagnostic, Report, Span};

/// The allocator's halving chain `N, N/2, …, 1`, re-derived locally so
/// this pass stays independent of the simulator crate.
fn halving_chain(n: u16) -> Vec<u16> {
    let mut chain = Vec::new();
    let mut m = n;
    while m >= 1 {
        chain.push(m);
        if m == 1 {
            break;
        }
        m /= 2;
    }
    chain
}

/// Analyze a kernel profile's fields against a fabric with `n` pages.
///
/// Takes plain fields rather than the simulator's `KernelProfile` type
/// so the analyzer does not depend on the crate whose output it audits.
pub fn analyze_profile(
    name: &str,
    ii_baseline: u32,
    ii_constrained: u32,
    used_pages: u16,
    ii_by_pages: &[(u16, u32)],
    n: u16,
) -> Report {
    let mut diagnostics = Vec::new();
    let span = Span::Global;

    if ii_baseline == 0 || ii_constrained == 0 {
        diagnostics.push(Diagnostic::new(
            Code::A401ProfileBadIi,
            span,
            format!("{name}: zero II (baseline {ii_baseline}, constrained {ii_constrained})"),
        ));
    }
    for &(m, ii) in ii_by_pages {
        if ii == 0 {
            diagnostics.push(Diagnostic::new(
                Code::A401ProfileBadIi,
                span,
                format!("{name}: zero II at M={m}"),
            ));
        }
    }
    if ii_constrained < ii_baseline {
        diagnostics.push(Diagnostic::new(
            Code::A402ProfileConstraintInverted,
            span,
            format!(
                "{name}: constrained II {ii_constrained} below baseline {ii_baseline} — \
                 either the baseline search under-performed or a profile field is swapped"
            ),
        ));
    }
    let ms: Vec<u16> = ii_by_pages.iter().map(|&(m, _)| m).collect();
    if ms != halving_chain(n) {
        diagnostics.push(Diagnostic::new(
            Code::A403ProfileOffChain,
            span,
            format!(
                "{name}: II table budgets {ms:?} differ from the halving chain {:?}",
                halving_chain(n)
            ),
        ));
    }
    for w in ii_by_pages.windows(2) {
        if w[1].1 < w[0].1 {
            diagnostics.push(Diagnostic::new(
                Code::A404ProfileNotMonotone,
                span,
                format!(
                    "{name}: II falls from {} to {} as pages shrink {} -> {}",
                    w[0].1, w[1].1, w[0].0, w[1].0
                ),
            ));
        }
    }
    if used_pages == 0 || used_pages > n {
        diagnostics.push(Diagnostic::new(
            Code::A405ProfileUsedPagesOutOfRange,
            span,
            format!("{name}: claims {used_pages} used pages on a {n}-page fabric"),
        ));
    }

    Report::from_diagnostics(diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> (u32, u32, u16, Vec<(u16, u32)>) {
        (3, 4, 2, vec![(4, 4), (2, 4), (1, 8)])
    }

    #[test]
    fn honest_profile_is_clean() {
        let (b, c, u, t) = good();
        let rep = analyze_profile("k", b, c, u, &t, 4);
        assert!(rep.is_clean(), "{}", rep.render());
    }

    #[test]
    fn each_invariant_is_enforced() {
        type Case = (u32, u32, u16, Vec<(u16, u32)>, Code);
        let (b, c, u, t) = good();
        let cases: [Case; 5] = [
            (0, c, u, t.clone(), Code::A401ProfileBadIi),
            (5, 4, u, t.clone(), Code::A402ProfileConstraintInverted),
            (
                b,
                c,
                u,
                vec![(4, 4), (3, 5), (1, 8)],
                Code::A403ProfileOffChain,
            ),
            (
                b,
                c,
                u,
                vec![(4, 8), (2, 4), (1, 8)],
                Code::A404ProfileNotMonotone,
            ),
            (b, c, 9, t, Code::A405ProfileUsedPagesOutOfRange),
        ];
        for (b, c, u, t, code) in cases {
            let rep = analyze_profile("k", b, c, u, &t, 4);
            assert!(rep.codes().contains(&code), "{code:?}: {}", rep.render());
        }
    }
}
