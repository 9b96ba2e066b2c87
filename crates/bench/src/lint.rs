//! `cgra-lint` — run the whole-pipeline static analyzer over every
//! kernel and every artifact the compilation pipeline produces.
//!
//! For each `(fabric, kernel)` pair the linter rebuilds the full
//! pipeline — baseline mapping, ring-constrained mapping, extracted
//! page-level schedule, every halving-chain shrink plan, a one-dead-page
//! degradation, and the assembled kernel profile — and hands each
//! artifact to `cgra-analyze`. Every artifact yields one labeled
//! [`Report`]; an error diagnostic anywhere is a pipeline bug (or a
//! genuinely unmappable kernel, which the mapper reports separately).
//!
//! Used by the `cgra-lint` binary and the `analyze-smoke` CI job.

use cgra_analyze::{
    analyze_degraded, analyze_mapping, analyze_paged, analyze_plan, analyze_profile, Report,
};
use cgra_arch::{fabric, FabricError, FaultMap, PageHealth};
use cgra_core::transform::{transform, Strategy};
use cgra_core::{transform_degraded, PagedSchedule};
use cgra_mapper::{map_baseline, map_constrained, MapOptions};
use cgra_sim::halving_chain;

/// One analyzed artifact: where it came from and what the analyzer said.
pub struct LintFinding {
    /// `dim`, `page_size` of the fabric.
    pub config: (u16, usize),
    /// Kernel name.
    pub kernel: String,
    /// Which pipeline artifact was analyzed (`baseline-mapping`,
    /// `constrained-mapping`, `paged-schedule`, `plan-m2`, …).
    pub artifact: String,
    /// The analyzer's report.
    pub report: Report,
}

/// Lint every kernel on one fabric. Kernels the mapper itself cannot
/// place are skipped (the mapper's error is its own diagnostic channel);
/// everything the pipeline *did* produce must analyze clean.
///
/// # Errors
/// [`FabricError`] if `(dim, page_size)` names no fabric.
pub fn lint_config(dim: u16, page_size: usize) -> Result<Vec<LintFinding>, FabricError> {
    let cgra = fabric(dim, page_size)?;
    let opts = MapOptions::default();
    let n = cgra.layout().num_pages() as u16;
    let mut out = Vec::new();
    let mut push = |kernel: &str, artifact: &str, report: Report| {
        out.push(LintFinding {
            config: (dim, page_size),
            kernel: kernel.to_string(),
            artifact: artifact.to_string(),
            report,
        });
    };

    for dfg in cgra_dfg::kernels::all() {
        let name = dfg.name.clone();

        let Ok(base) = map_baseline(&dfg, &cgra, &opts) else {
            continue;
        };
        push(
            &name,
            "baseline-mapping",
            analyze_mapping(&base.mdfg, &cgra, &base.mapping, base.mode),
        );

        let Ok(cons) = map_constrained(&dfg, &cgra, &opts) else {
            continue;
        };
        push(
            &name,
            "constrained-mapping",
            analyze_mapping(&cons.mdfg, &cgra, &cons.mapping, cons.mode),
        );

        let Ok(paged) = PagedSchedule::from_mapping(&cons, &cgra) else {
            continue;
        };
        let paged = paged.trimmed();
        push(
            &name,
            "paged-schedule",
            analyze_paged(&paged, cgra.rf().size()),
        );

        let used = paged.num_pages;
        let mut ii_by_pages = Vec::new();
        let mut transforms_ok = true;
        for m in halving_chain(n) {
            if m >= used {
                ii_by_pages.push((m, cons.ii()));
                continue;
            }
            match transform(&paged, m, Strategy::Auto) {
                Ok(plan) => {
                    push(&name, &format!("plan-m{m}"), analyze_plan(&paged, &plan));
                    ii_by_pages.push((m, plan.ii_q_ceil()));
                }
                Err(_) => {
                    transforms_ok = false;
                    break;
                }
            }
        }
        if transforms_ok {
            push(
                &name,
                "profile",
                analyze_profile(&name, base.ii(), cons.ii(), used, &ii_by_pages, n),
            );
        }

        // One dead page at the far end of the schedule's footprint: the
        // canonical survivable degradation.
        if used >= 2 {
            let mut faults = FaultMap::new(used);
            faults.mark_page(0, PageHealth::Dead);
            if let Ok(d) = transform_degraded(&paged, &faults, used, Strategy::Auto) {
                push(
                    &name,
                    "degraded-dead0",
                    analyze_degraded(&paged, &d, &faults),
                );
            }
        }
    }
    Ok(out)
}

/// Lint one or all grid configurations; `grid = false` lints only
/// `(dim, page_size)`.
///
/// # Errors
/// [`FabricError`] if `grid = false` and `(dim, page_size)` names no
/// fabric.
pub fn lint(dim: u16, page_size: usize, grid: bool) -> Result<Vec<LintFinding>, FabricError> {
    if !grid {
        return lint_config(dim, page_size);
    }
    let mut out = Vec::new();
    for &(d, sizes) in &crate::GRID {
        for &s in sizes {
            out.extend(lint_config(d, s)?);
        }
    }
    Ok(out)
}

/// Render findings for humans: every non-clean artifact in full, then a
/// one-line summary. Returns `(text, error_count)`.
pub fn render(findings: &[LintFinding]) -> (String, usize) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut errors = 0;
    let mut warnings = 0;
    for f in findings {
        if f.report.is_clean() {
            continue;
        }
        if f.report.has_errors() {
            errors += 1;
        } else {
            warnings += 1;
        }
        let (dim, page) = f.config;
        let _ = writeln!(
            out,
            "{dim}x{dim} page {page} {} [{}]:",
            f.kernel, f.artifact
        );
        for line in f.report.render().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    let _ = writeln!(
        out,
        "{} artifacts analyzed: {} clean, {warnings} with warnings, {errors} with errors",
        findings.len(),
        findings.len() - warnings - errors,
    );
    (out, errors)
}

/// Render findings as one JSON document.
pub fn render_json(findings: &[LintFinding]) -> String {
    use cgra_obs::jsonio::Json;
    let arr = findings
        .iter()
        .map(|f| {
            Json::obj([
                ("dim", Json::Int(i64::from(f.config.0))),
                ("page_size", Json::Int(f.config.1 as i64)),
                ("kernel", Json::Str(f.kernel.clone())),
                ("artifact", Json::Str(f.artifact.clone())),
                ("report", f.report.to_json()),
            ])
        })
        .collect();
    Json::Arr(arr).pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_geometry_is_an_error_not_a_panic() {
        assert_eq!(lint(5, 3, false).err(), Some(FabricError::Dim(5)));
        assert_eq!(lint(4, 3, false).err(), Some(FabricError::PageSize(4, 3)));
    }
}
