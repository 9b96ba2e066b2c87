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
//! is a pipeline bug. So is a kernel that fails to compile or to degrade:
//! lint stops with a [`LintError`] naming the fabric, the kernel and the
//! error, instead of auditing less than the pipeline should produce.
//!
//! Used by the `cgra-lint` binary and the `analyze-smoke` CI job.

use cgra_analyze::{analyze_degraded, Report};
use cgra_arch::{fabric, CgraConfig, FabricError, FaultMap, PageHealth};
use cgra_core::transform::Strategy;
use cgra_core::transform_degraded;
use cgra_dfg::Dfg;
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

/// Why lint could not audit everything it was asked to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintError {
    /// The requested `(dim, page_size)` names no fabric.
    Fabric(FabricError),
    /// The pipeline failed to build an artifact lint audits.
    Kernel {
        /// `dim`, `page_size` of the fabric.
        config: (u16, usize),
        /// Kernel name.
        kernel: String,
        /// The stage that failed: `compile` or `degrade-dead0`.
        stage: &'static str,
        /// The stage's error.
        error: String,
    },
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Fabric(e) => e.fmt(f),
            LintError::Kernel {
                config: (dim, page),
                kernel,
                stage,
                error,
            } => write!(
                f,
                "{dim}x{dim} page {page} {kernel}: {stage} failed: {error}"
            ),
        }
    }
}

/// Lint one kernel on one fabric: compile it through [`Compiled::new`]
/// under `opts`, audit what the compile built, and add a one-dead-page
/// degradation of its page-level schedule.
///
/// # Errors
/// [`LintError::Kernel`] if the compile or the degradation fails.
pub fn lint_kernel(
    dfg: &Dfg,
    cgra: &CgraConfig,
    opts: &MapOptions,
) -> Result<Vec<LintFinding>, LintError> {
    let config = (cgra.mesh().rows(), cgra.layout().shape().size());
    let failed = |stage, error: String| LintError::Kernel {
        config,
        kernel: dfg.name.clone(),
        stage,
        error,
    };
    let c = Compiled::new(dfg, cgra, opts, &Tracer::off())
        .map_err(|e| failed("compile", e.to_string()))?;
    let mut artifacts = c.audit(cgra);
    // One dead page at the far end of the schedule's footprint: the
    // canonical survivable degradation.
    let used = c.paged.num_pages;
    if used >= 2 {
        let mut faults = FaultMap::new(used);
        faults.mark_page(0, PageHealth::Dead);
        let d = transform_degraded(&c.paged, &faults, used, Strategy::Auto)
            .map_err(|e| failed("degrade-dead0", e.to_string()))?;
        artifacts.push((
            "degraded-dead0".to_string(),
            analyze_degraded(&c.paged, &d, &faults),
        ));
    }
    Ok(artifacts
        .into_iter()
        .map(|(artifact, report)| LintFinding {
            config,
            kernel: dfg.name.clone(),
            artifact,
            report,
        })
        .collect())
}

/// Lint every kernel on one fabric at default options; everything the
/// pipeline produces must analyze clean.
///
/// # Errors
/// [`LintError::Fabric`] if `(dim, page_size)` names no fabric, and
/// [`LintError::Kernel`] for the first kernel that fails to compile or
/// to degrade.
pub fn lint_config(dim: u16, page_size: usize) -> Result<Vec<LintFinding>, LintError> {
    let cgra = fabric(dim, page_size).map_err(LintError::Fabric)?;
    let opts = MapOptions::default();
    let mut out = Vec::new();
    for dfg in cgra_dfg::kernels::all() {
        out.extend(lint_kernel(&dfg, &cgra, &opts)?);
    }
    Ok(out)
}

/// Lint one or all grid configurations; `grid = false` lints only
/// `(dim, page_size)`.
///
/// # Errors
/// As [`lint_config`]; with `grid = true` the fabric is never wrong.
pub fn lint(dim: u16, page_size: usize, grid: bool) -> Result<Vec<LintFinding>, LintError> {
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
        assert_eq!(
            lint(5, 3, false).err(),
            Some(LintError::Fabric(FabricError::Dim(5)))
        );
        assert_eq!(
            lint(4, 3, false).err(),
            Some(LintError::Fabric(FabricError::PageSize(4, 3)))
        );
    }

    /// With no restarts the mapper tries nothing, so the compile fails;
    /// lint reports it instead of skipping the kernel.
    #[test]
    fn a_kernel_that_fails_to_compile_is_an_error() {
        let cgra = fabric(4, 4).unwrap();
        let opts = MapOptions {
            restarts: 0,
            ..Default::default()
        };
        let e = lint_kernel(&cgra_dfg::kernels::mpeg2(), &cgra, &opts)
            .err()
            .expect("no restarts cannot map");
        let LintError::Kernel {
            config,
            kernel,
            stage,
            ..
        } = &e
        else {
            panic!("{e:?}");
        };
        assert_eq!(
            (*config, kernel.as_str(), *stage),
            ((4, 4), "mpeg2", "compile")
        );
        let text = e.to_string();
        assert!(
            text.starts_with("4x4 page 4 mpeg2: compile failed: ") && text.contains("II="),
            "{text}"
        );
    }
}
