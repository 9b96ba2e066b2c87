//! `cgra-lint` — run the whole-pipeline static analyzer over every
//! kernel and every artifact the compilation pipeline produces.
//!
//! The linter has no pipeline of its own. For each `(fabric, kernel)`
//! pair it compiles the kernel once through [`Compiled::new`], the same
//! compile stage the figures' profiles come from, and reports
//! [`Compiled::audit`]: the baseline mapping, the ring-constrained
//! mapping, the extracted page-level schedule, every halving-chain
//! shrink plan and the assembled kernel profile. To these it adds a
//! one-dead-page degradation of the compiled page-level schedule. Every
//! artifact yields one labeled [`Report`]; an error diagnostic anywhere
//! is a pipeline bug.
//!
//! Used by the `cgra-lint` binary and the `analyze-smoke` CI job.

use cgra_analyze::{analyze_degraded, Report};
use cgra_arch::{fabric, FabricError, FaultMap, PageHealth};
use cgra_core::transform::Strategy;
use cgra_core::transform_degraded;
use cgra_mapper::MapOptions;
use cgra_obs::Tracer;
use cgra_sim::Compiled;

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

/// Lint every kernel on one fabric. A kernel that fails to compile is
/// named on stderr with its error and skipped; everything the pipeline
/// *did* produce must analyze clean.
///
/// # Errors
/// [`FabricError`] if `(dim, page_size)` names no fabric.
pub fn lint_config(dim: u16, page_size: usize) -> Result<Vec<LintFinding>, FabricError> {
    let cgra = fabric(dim, page_size)?;
    let opts = MapOptions::default();
    let mut out = Vec::new();
    for dfg in cgra_dfg::kernels::all() {
        let c = match Compiled::new(&dfg, &cgra, &opts, &Tracer::off()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cgra-lint: {dim}x{dim} page {page_size} {}: {e}", dfg.name);
                continue;
            }
        };
        let mut artifacts = c.audit(&cgra);
        // One dead page at the far end of the schedule's footprint: the
        // canonical survivable degradation.
        let used = c.paged.num_pages;
        if used >= 2 {
            let mut faults = FaultMap::new(used);
            faults.mark_page(0, PageHealth::Dead);
            if let Ok(d) = transform_degraded(&c.paged, &faults, used, Strategy::Auto) {
                artifacts.push((
                    "degraded-dead0".to_string(),
                    analyze_degraded(&c.paged, &d, &faults),
                ));
            }
        }
        out.extend(artifacts.into_iter().map(|(artifact, report)| LintFinding {
            config: (dim, page_size),
            kernel: dfg.name.clone(),
            artifact,
            report,
        }));
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
    for &(d, sizes) in &cgra_arch::PAPER_GRID {
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
