//! Figure 8 — performance impact of the paging constraints.
//!
//! "We first take a set of benchmarks and map them to a CGRA using an
//! unmodified compiler to determine a baseline II_b. We then modify the
//! compiler to follow our compile time constraints and compare this II to
//! the baseline II_b." Performance = `100 · II_b / II_c` (%); 100 means
//! identical performance, below 100 is a slowdown.
//!
//! Execution goes through the sweep [`Engine`] at `(dim, page_size,
//! kernel)` granularity, and both IIs come from the content-keyed
//! [`MapCache`] — the same per-kernel profiles the Fig. 9 simulations
//! consume, so a combined report compiles each kernel exactly once.

use crate::engine::Engine;
use crate::grid_fabric;
use crate::mapcache::{CompileError, MapCache};
use cgra_mapper::{map_constrained_strict, MapOptions};
use cgra_obs::{InOrder, Tracer};
use serde::{Deserialize, Serialize};

/// One bar of Figure 8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Point {
    /// CGRA dimension (4, 6 or 8).
    pub dim: u16,
    /// Page size in PEs.
    pub page_size: usize,
    /// Kernel name.
    pub kernel: String,
    /// Unconstrained (baseline) II.
    pub ii_baseline: u32,
    /// Paging-constrained II.
    pub ii_constrained: u32,
}

impl Fig8Point {
    /// `100 · II_b / II_c` — the y-axis of Fig. 8.
    pub fn performance_pct(&self) -> f64 {
        100.0 * self.ii_baseline as f64 / self.ii_constrained as f64
    }
}

fn point(
    cache: &MapCache,
    dim: u16,
    page_size: usize,
    kernel: &cgra_dfg::Dfg,
    tracer: &Tracer,
) -> Result<Fig8Point, CompileError> {
    let cgra = grid_fabric(dim, page_size);
    let profile = cache
        .profile(kernel, &cgra, &MapOptions::default(), tracer)
        .map_err(|error| CompileError::new(kernel, &cgra, error))?;
    Ok(Fig8Point {
        dim,
        page_size,
        kernel: profile.name.clone(),
        ii_baseline: profile.ii_baseline,
        ii_constrained: profile.ii_constrained,
    })
}

/// Run the Fig. 8 sweep for one `(dim, page_size)` sub-figure.
///
/// # Errors
/// The first kernel, in kernel order, that does not compile.
///
/// # Panics
/// Panics if `(dim, page_size)` names no fabric (see [`fabric`](cgra_arch::fabric)).
pub fn run_config(
    engine: &Engine,
    cache: &MapCache,
    dim: u16,
    page_size: usize,
) -> Result<Vec<Fig8Point>, CompileError> {
    let kernels = cgra_dfg::kernels::all();
    engine
        .run(&kernels, |k| {
            point(cache, dim, page_size, k, &Tracer::off())
        })
        .into_iter()
        .collect()
}

/// Ablation: the strict 1-step discipline (Algorithm 1's input form)
/// against the default stable-column discipline, on one fabric. Returns
/// `(kernel, ii_stable, Option<ii_strict>)` — `None` when the kernel does
/// not fit under strict rules. The stable II comes from the cache; the
/// strict mapping is ablation-only and always computed fresh. Profile
/// compilations reach `tracer` in kernel order on any number of workers.
///
/// # Errors
/// The first kernel, in kernel order, whose stable profile does not
/// compile.
///
/// # Panics
/// Panics if `(dim, page_size)` names no fabric (see [`fabric`](cgra_arch::fabric)).
pub fn strict_ablation(
    engine: &Engine,
    cache: &MapCache,
    dim: u16,
    page_size: usize,
    tracer: &Tracer,
) -> Result<Vec<(String, u32, Option<u32>)>, CompileError> {
    let fabric = grid_fabric(dim, page_size);
    let opts = MapOptions::default();
    let kernels: Vec<(usize, cgra_dfg::Dfg)> =
        cgra_dfg::kernels::all().into_iter().enumerate().collect();
    let in_order = InOrder::new(tracer);
    engine
        .run(&kernels, |(i, k)| {
            let stable = in_order
                .batched(*i, |t| cache.profile(k, &fabric, &opts, t))
                .map_err(|error| CompileError::new(k, &fabric, error))?
                .ii_constrained;
            let strict = map_constrained_strict(k, &fabric, &opts).ok();
            Ok((k.name.clone(), stable, strict.map(|r| r.ii())))
        })
        .into_iter()
        .collect()
}

/// Run the complete Fig. 8 grid (all sub-figures), flattened to
/// `(dim, page_size, kernel)` points so every mapping is an
/// independently scheduled unit of work. Compilations reach `tracer` in
/// point order on any number of workers.
///
/// # Errors
/// The first point, in point order, whose kernel does not compile.
pub fn run_all(
    engine: &Engine,
    cache: &MapCache,
    tracer: &Tracer,
) -> Result<Vec<Fig8Point>, CompileError> {
    let kernels = cgra_dfg::kernels::all();
    let mut points: Vec<(u16, usize, &cgra_dfg::Dfg)> = Vec::new();
    for &(dim, sizes) in &cgra_arch::PAPER_GRID {
        for &s in sizes {
            for k in &kernels {
                points.push((dim, s, k));
            }
        }
    }
    let numbered: Vec<(usize, _)> = points.into_iter().enumerate().collect();
    let in_order = InOrder::new(tracer);
    engine
        .run(&numbered, |&(i, (dim, s, k))| {
            in_order.batched(i, |t| point(cache, dim, s, k, t))
        })
        .into_iter()
        .collect()
}

/// Geometric-mean performance per `(dim, page_size)` — the summary rows
/// EXPERIMENTS.md tracks.
pub fn summary(points: &[Fig8Point]) -> Vec<(u16, usize, f64)> {
    let mut keys: Vec<(u16, usize)> = points.iter().map(|p| (p.dim, p.page_size)).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|(dim, s)| {
            let perf: Vec<f64> = points
                .iter()
                .filter(|p| p.dim == dim && p.page_size == s)
                .map(|p| p.performance_pct())
                .collect();
            let gm = (perf.iter().map(|x| x.ln()).sum::<f64>() / perf.len() as f64).exp();
            (dim, s, gm)
        })
        .collect()
}

/// Render one sub-figure as a table (kernels × performance%).
pub fn render(points: &[Fig8Point], dim: u16) -> String {
    let sizes: Vec<usize> = {
        let mut v: Vec<usize> = points
            .iter()
            .filter(|p| p.dim == dim)
            .map(|p| p.page_size)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut headers = vec!["kernel".to_string()];
    for s in &sizes {
        headers.push(format!("page {s} perf%"));
        headers.push(format!("II {s} (b/c)"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for name in cgra_dfg::kernels::NAMES {
        let mut row = vec![name.to_string()];
        for &s in &sizes {
            if let Some(p) = points
                .iter()
                .find(|p| p.dim == dim && p.page_size == s && p.kernel == name)
            {
                row.push(format!("{:.0}", p.performance_pct()));
                row.push(format!("{}/{}", p.ii_baseline, p.ii_constrained));
            } else {
                row.push("-".into());
                row.push("-".into());
            }
        }
        rows.push(row);
    }
    crate::table::markdown(&header_refs, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(dim: u16, page_size: usize) -> Vec<Fig8Point> {
        run_config(&Engine::default(), &MapCache::default(), dim, page_size).unwrap()
    }

    #[test]
    fn fig8_4x4_page4_shape() {
        let points = config(4, 4);
        assert_eq!(points.len(), 11);
        for p in &points {
            assert!(p.ii_constrained >= p.ii_baseline, "{}", p.kernel);
            assert!(p.performance_pct() <= 100.0 + 1e-9);
            assert!(p.performance_pct() >= 25.0, "{} too degraded", p.kernel);
        }
    }

    #[test]
    fn larger_pages_do_not_hurt() {
        // Page size 8 on the 4x4 (2 pages) should be nearly lossless.
        let p8 = config(4, 8);
        let gm = summary(&p8)[0].2;
        assert!(gm > 85.0, "geomean {gm:.1}% at page size 8");
    }

    #[test]
    fn render_contains_all_kernels() {
        let points = config(4, 4);
        let s = render(&points, 4);
        for name in cgra_dfg::kernels::NAMES {
            assert!(s.contains(name));
        }
    }

    #[test]
    fn serial_and_parallel_runs_agree() {
        let cache = MapCache::default();
        let serial = run_config(&Engine::with_jobs(1), &cache, 4, 2);
        let parallel = run_config(&Engine::with_jobs(4), &cache, 4, 2);
        assert_eq!(serial, parallel);
    }
}
