//! Figure 9 — system-level throughput improvement from multithreading.
//!
//! For each CGRA size, page size, CGRA need (50/75/87.5 %), and thread
//! count (1–16), simulate the same randomly generated workload on the
//! single-threaded FCFS baseline and on the multithreaded page-multiplexed
//! CGRA, and report the percentage improvement in completion time,
//! averaged over seeds. The fault curves are the same experiment at one
//! operating point, varying only the fault spec injected into the
//! multithreaded runs.
//!
//! Every experiment goes through one [`sweep`] over [`Coord`]s, in two
//! [`Engine`] phases: first the kernel library of every distinct fabric
//! among the points is compiled (in parallel, deduplicated by the
//! mapping cache), then the points run in parallel. Workload seeds
//! derive from point *coordinates* via [`crate::engine::point_seed`], so
//! `--jobs N` output is byte-identical for every `N`.

use crate::engine::{point_seed, Engine};
use crate::grid_fabric;
use crate::mapcache::{CompileError, MapCache};
use cgra_arch::{FaultSpec, PAPER_GRID};
use cgra_mapper::MapOptions;
use cgra_obs::{InOrder, Tracer};
use cgra_sim::{
    generate, improvement_percent, simulate_baseline, simulate_multithreaded_faulty_traced,
    CgraNeed, ExpandPolicy, FaultStats, MtConfig, SimError, SimReport, WorkloadParams,
};
use serde::{Deserialize, Serialize};

/// Why one Fig. 9 point has no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointError {
    /// A kernel of the point's fabric does not compile.
    Compile(CompileError),
    /// The multithreaded simulation failed.
    Sim(SimError),
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointError::Compile(e) => e.fmt(f),
            PointError::Sim(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PointError {}

impl From<CompileError> for PointError {
    fn from(e: CompileError) -> Self {
        PointError::Compile(e)
    }
}

impl From<SimError> for PointError {
    fn from(e: SimError) -> Self {
        PointError::Sim(e)
    }
}

/// One bar of Figure 9 (mean over seeds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Point {
    /// CGRA dimension.
    pub dim: u16,
    /// Page size in PEs.
    pub page_size: usize,
    /// CGRA need operating point.
    pub need: CgraNeed,
    /// Number of threads.
    pub threads: usize,
    /// Mean improvement % over the baseline system.
    pub improvement_pct: f64,
    /// Mean shrink transformations per run.
    pub mean_shrinks: f64,
    /// Mean baseline makespan (cycles).
    pub base_makespan: f64,
    /// Mean multithreaded makespan (cycles).
    pub mt_makespan: f64,
    /// Fault counters summed over the point's seeds (all zero for a
    /// fault-free point).
    pub faults: FaultStats,
}

/// Where a Fig. 9 point sits: the fabric, the operating point, and the
/// fault schedule injected into its multithreaded runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coord {
    /// CGRA dimension.
    pub dim: u16,
    /// Page size in PEs.
    pub page_size: usize,
    /// CGRA need operating point.
    pub need: CgraNeed,
    /// Number of threads.
    pub threads: usize,
    /// Fault schedule of every multithreaded run (the baseline stays
    /// fault-free as the fixed reference). MTBF specs are reseeded per
    /// point and seed, so timelines are independent but reproducible.
    pub faults: FaultSpec,
}

impl Coord {
    /// A fault-free point.
    pub fn new(dim: u16, page_size: usize, need: CgraNeed, threads: usize) -> Self {
        Coord {
            dim,
            page_size,
            need,
            threads,
            faults: FaultSpec::Off,
        }
    }
}

/// Sweep parameters shared by every point.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Params {
    /// Seeds averaged per point.
    pub seeds: u64,
    /// Nominal work per thread in cycles.
    pub work_per_thread: u64,
    /// CGRA bursts per thread.
    pub bursts: usize,
    /// Multithreaded-system knobs.
    pub mt: MtConfig,
}

impl Default for Fig9Params {
    fn default() -> Self {
        Fig9Params {
            seeds: crate::DEFAULT_SEEDS,
            work_per_thread: 60_000,
            bursts: 4,
            mt: MtConfig::default(),
        }
    }
}

/// Measure one Fig. 9 point, emitting the compilation of its fabric's
/// library (if it is not cached yet) and every multithreaded run to
/// `tracer` (the baseline FCFS runs stay untraced — they are the fixed
/// reference).
///
/// # Errors
///
/// [`PointError::Compile`] when a kernel of the fabric does not compile;
/// otherwise the first [`SimError`] from the multithreaded simulator —
/// e.g. a fault schedule that starves a thread. A poisoned point fills
/// its own result slot; the rest of the sweep completes.
///
/// # Panics
/// Panics if `(at.dim, at.page_size)` names no fabric (see
/// [`fabric`](cgra_arch::fabric)).
pub fn run_point(
    cache: &MapCache,
    at: &Coord,
    params: &Fig9Params,
    tracer: &Tracer,
) -> Result<Fig9Point, PointError> {
    let lib = cache.library(
        &grid_fabric(at.dim, at.page_size),
        &MapOptions::default(),
        tracer,
    )?;
    let runs = (0..params.seeds)
        .map(|seed| {
            // Seeded from the point's coordinates only — never from
            // worker identity or execution order (the engine's
            // determinism contract).
            let wl_seed = point_seed(&[
                at.dim as u64,
                at.page_size as u64,
                at.need as u64,
                at.threads as u64,
                seed,
            ]);
            let workload = WorkloadParams {
                threads: at.threads,
                need: at.need,
                work_per_thread: params.work_per_thread,
                bursts: params.bursts,
                seed: wl_seed,
            };
            let threads = generate(&lib, &workload);
            let events = at.faults.reseeded(wl_seed).schedule(lib.num_pages);
            Ok((
                simulate_baseline(&lib, &threads),
                simulate_multithreaded_faulty_traced(&lib, &threads, params.mt, &events, tracer)?,
            ))
        })
        .collect::<Result<Vec<(SimReport, SimReport)>, SimError>>()?;
    let mean = |f: fn(&(SimReport, SimReport)) -> f64| {
        runs.iter().map(f).sum::<f64>() / params.seeds as f64
    };
    let mut faults = FaultStats::default();
    for (_, mt) in &runs {
        faults.absorb(&mt.faults);
    }
    Ok(Fig9Point {
        dim: at.dim,
        page_size: at.page_size,
        need: at.need,
        threads: at.threads,
        improvement_pct: mean(|(base, mt)| improvement_percent(base.makespan, mt.makespan)),
        mean_shrinks: mean(|(_, mt)| mt.shrinks as f64),
        base_makespan: mean(|(base, _)| base.makespan as f64),
        mt_makespan: mean(|(_, mt)| mt.makespan as f64),
        faults,
    })
}

/// Run `points` through `engine`, every compilation and multithreaded
/// run emitted to `tracer`. Each fabric's compilation, then each point,
/// forms one contiguous batch, and the batches reach `tracer` in point
/// order whatever order the workers finish in, so a traced sweep writes
/// the same trace on any number of workers.
///
/// Each point carries its own `Result`: one poisoned point (a fault
/// schedule that starves a thread, a profile hole, a kernel that does not
/// compile) reports its [`PointError`] in its slot while every other
/// point completes.
///
/// # Panics
/// Panics if a point names no fabric (see [`fabric`](cgra_arch::fabric)).
pub fn sweep(
    engine: &Engine,
    cache: &MapCache,
    points: &[Coord],
    params: &Fig9Params,
    tracer: &Tracer,
) -> Vec<Result<Fig9Point, PointError>> {
    // Phase 1: compile each distinct fabric's library once, in point
    // order. Parallel across fabrics (no two share a profile), and each
    // fabric's compile events reach `tracer` in that order.
    let mut fabrics: Vec<(u16, usize)> = Vec::new();
    for p in points {
        if !fabrics.contains(&(p.dim, p.page_size)) {
            fabrics.push((p.dim, p.page_size));
        }
    }
    let numbered: Vec<(usize, &(u16, usize))> = fabrics.iter().enumerate().collect();
    let in_order = InOrder::new(tracer);
    engine.run(&numbered, |&(i, &(dim, s))| {
        in_order.batched(i, |t| {
            // A fabric that does not compile reports the error in each of
            // its points, from the cache.
            let _compiled = cache.library(&grid_fabric(dim, s), &MapOptions::default(), t);
        });
    });

    // Phase 2: the simulation points, self-scheduled across workers.
    let numbered: Vec<(usize, &Coord)> = points.iter().enumerate().collect();
    let in_order = InOrder::new(tracer);
    engine.run(&numbered, |&(i, at)| {
        in_order.batched(i, |tracer| run_point(cache, at, params, tracer))
    })
}

/// The full Fig. 9 grid: every fabric of [`PAPER_GRID`] × CGRA need ×
/// [`crate::THREAD_COUNTS`], fault-free.
pub fn grid() -> Vec<Coord> {
    let mut points = Vec::new();
    for &(dim, sizes) in &PAPER_GRID {
        for &s in sizes {
            for need in CgraNeed::ALL {
                for &t in &crate::THREAD_COUNTS {
                    points.push(Coord::new(dim, s, need, t));
                }
            }
        }
    }
    points
}

/// Split sweep results into the completed points and `(index, error)`
/// pairs for the poisoned ones, preserving point order.
pub fn partition_results(
    results: Vec<Result<Fig9Point, PointError>>,
) -> (Vec<Fig9Point>, Vec<(usize, PointError)>) {
    let mut points = Vec::with_capacity(results.len());
    let mut errors = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(p) => points.push(p),
            Err(e) => errors.push((i, e)),
        }
    }
    (points, errors)
}

/// Render one sub-figure (one CGRA size): rows = thread counts × needs.
pub fn render(points: &[Fig9Point], dim: u16) -> String {
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
    let mut headers: Vec<String> = vec!["threads".into(), "need".into()];
    for s in &sizes {
        headers.push(format!("page {s}: improv%"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for &t in &crate::THREAD_COUNTS {
        for need in CgraNeed::ALL {
            let mut row = vec![t.to_string(), need.label().to_string()];
            for &s in &sizes {
                match points
                    .iter()
                    .find(|p| p.dim == dim && p.page_size == s && p.need == need && p.threads == t)
                {
                    Some(p) => row.push(format!("{:+.1}", p.improvement_pct)),
                    None => row.push("-".into()),
                }
            }
            rows.push(row);
        }
    }
    crate::table::markdown(&header_refs, &rows)
}

/// The headline averages: mean improvement per CGRA size at the highest
/// contention (16 threads, all needs, best page size), which the abstract
/// summarises as "over 30%, 75%, and 150% on 4x4, 6x6, and 8x8".
pub fn headline(points: &[Fig9Point]) -> Vec<(u16, f64)> {
    [4u16, 6, 8]
        .iter()
        .map(|&dim| {
            let best = points
                .iter()
                .filter(|p| p.dim == dim && p.threads == 16)
                .map(|p| p.improvement_pct)
                .fold(f64::MIN, f64::max);
            (dim, best)
        })
        .collect()
}

/// Ablation A1: improvement vs switch-transformation overhead. The
/// fabric's compilation is emitted to `tracer`; the runs are untraced.
///
/// # Errors
/// The first [`PointError`] of the ablation's points.
pub fn ablation_overhead(
    cache: &MapCache,
    dim: u16,
    page_size: usize,
    tracer: &Tracer,
) -> Result<Vec<(u64, f64)>, PointError> {
    let at = Coord::new(dim, page_size, CgraNeed::High, 8);
    cache.library(&grid_fabric(dim, page_size), &MapOptions::default(), tracer)?;
    [0u64, 10, 100, 1_000, 10_000]
        .iter()
        .map(|&overhead| {
            let params = Fig9Params {
                mt: MtConfig {
                    switch_overhead: overhead,
                    ..Default::default()
                },
                ..Default::default()
            };
            let p = run_point(cache, &at, &params, &Tracer::off())?;
            Ok((overhead, p.improvement_pct))
        })
        .collect()
}

/// Ablation A2: improvement vs expansion policy. The fabric's
/// compilation is emitted to `tracer`; the runs are untraced.
///
/// # Errors
/// The first [`PointError`] of the ablation's points.
pub fn ablation_policy(
    cache: &MapCache,
    dim: u16,
    page_size: usize,
    tracer: &Tracer,
) -> Result<Vec<(String, f64)>, PointError> {
    let at = Coord::new(dim, page_size, CgraNeed::High, 8);
    cache.library(&grid_fabric(dim, page_size), &MapOptions::default(), tracer)?;
    [
        ("smallest-first", ExpandPolicy::SmallestFirst),
        ("largest-first", ExpandPolicy::LargestFirst),
        ("no-expansion", ExpandPolicy::None),
    ]
    .iter()
    .map(|(name, policy)| {
        let params = Fig9Params {
            mt: MtConfig {
                expand: *policy,
                ..Default::default()
            },
            ..Default::default()
        };
        let p = run_point(cache, &at, &params, &Tracer::off())?;
        Ok((name.to_string(), p.improvement_pct))
    })
    .collect()
}

/// Fault-rate scale factors of the degradation curve: 0 is the
/// fault-free reference row, then the base spec's rate ×1, ×2, ×4, ×8.
pub const CURVE_SCALES: [u64; 5] = [0, 1, 2, 4, 8];

/// MTTR scale factors of the recovery curve: each row multiplies the
/// base spec's repair interval, descending so the table reads as
/// "repairs get faster, throughput returns".
pub const RECOVERY_MTTR_SCALES: [u64; 4] = [8, 4, 2, 1];

/// The labelled rows of a fault curve at the operating point `at`, whose
/// `faults` is the curve's base spec.
///
/// Without an `mttr=` clause this is the throughput-vs-fault-rate
/// *degradation* curve: row `"0"` is the fault-free reference, and each
/// following row scales the base MTBF spec's fault rate by
/// [`CURVE_SCALES`] (for `At` specs the rate axis collapses, but the
/// off-vs-on comparison still stands).
///
/// With one it is the throughput-vs-repair-speed *recovery* curve: the
/// `fault-free` reference, the same schedule with repair disabled
/// (`no-repair`, every transient made permanent), then the same strikes
/// repaired with the base mttr scaled by [`RECOVERY_MTTR_SCALES`] — as
/// the repair interval shrinks, throughput returns toward the reference.
pub fn curve(at: Coord) -> Vec<(String, Coord)> {
    let base = at.faults;
    let rows: Vec<(String, FaultSpec)> = match base.mttr() {
        None => CURVE_SCALES
            .iter()
            .map(|&scale| {
                let spec = if scale == 0 {
                    FaultSpec::Off
                } else {
                    base.scaled(scale)
                };
                (scale.to_string(), spec)
            })
            .collect(),
        Some(mttr) => {
            let mut rows = vec![
                ("fault-free".to_string(), FaultSpec::Off),
                ("no-repair".to_string(), base.permanent()),
            ];
            rows.extend(RECOVERY_MTTR_SCALES.iter().map(|&scale| {
                (
                    format!("mttr x{scale}"),
                    base.with_mttr(mttr.saturating_mul(scale)),
                )
            }));
            rows
        }
    };
    rows.into_iter()
        .map(|(label, faults)| (label, Coord { faults, ..at }))
        .collect()
}

/// Render a fault curve of base spec `base` as a markdown table, one
/// row per `(label, point)` with its result (errors in-row).
///
/// A recovery curve (`base` has an `mttr=` clause) heads its label
/// column `row` and has no `degraded` column: `FaultSpec::parse` rejects
/// `degrade` together with `mttr=`, so no page ever degrades. A
/// degradation curve heads it `rate x`.
pub fn render_curve(
    base: &FaultSpec,
    rows: &[(String, Coord)],
    results: &[Result<Fig9Point, PointError>],
) -> String {
    let recovery = base.mttr().is_some();
    let mut headers = vec![
        if recovery { "row" } else { "rate x" },
        "spec",
        "improv%",
        "mt makespan",
        "killed",
        "degraded",
        "remapped",
        "revoked",
        "repairs",
        "reexpand",
        "recovery cyc",
    ];
    if recovery {
        headers.retain(|&h| h != "degraded");
    }
    let body: Vec<Vec<String>> = rows
        .iter()
        .zip(results)
        .map(|((label, at), r)| {
            let mut row = vec![label.clone(), at.faults.to_string()];
            match r {
                Ok(p) => {
                    let f = &p.faults;
                    row.push(format!("{:+.1}", p.improvement_pct));
                    row.push(format!("{:.0}", p.mt_makespan));
                    row.push(f.pages_killed.to_string());
                    if !recovery {
                        row.push(f.pages_degraded.to_string());
                    }
                    row.extend(
                        [
                            f.threads_remapped,
                            f.threads_revoked,
                            f.repairs,
                            f.reexpansions,
                            f.recovery_cycles,
                        ]
                        .map(|n| n.to_string()),
                    );
                }
                Err(e) => {
                    row.push(format!("error: {e}"));
                    row.resize(headers.len(), "-".into());
                }
            }
            row
        })
        .collect();
    crate::table::markdown(&headers, &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_obs::RingSink;
    use std::sync::Arc;

    fn quick_params() -> Fig9Params {
        Fig9Params {
            seeds: 2,
            work_per_thread: 20_000,
            bursts: 2,
            mt: MtConfig::default(),
        }
    }

    fn point(cache: &MapCache, at: Coord) -> Result<Fig9Point, PointError> {
        run_point(cache, &at, &quick_params(), &Tracer::off())
    }

    /// The 4x4/page-4 operating point of the fault curves under test.
    fn at(faults: FaultSpec) -> Coord {
        Coord {
            faults,
            ..Coord::new(4, 4, CgraNeed::High, 8)
        }
    }

    /// Run the fault curve of `base` on `jobs` workers: its results and
    /// rendered table.
    fn run_curve(base: FaultSpec, jobs: usize) -> (Vec<Result<Fig9Point, PointError>>, String) {
        let rows = curve(at(base));
        let points: Vec<Coord> = rows.iter().map(|(_, p)| *p).collect();
        let cache = MapCache::in_memory();
        let engine = Engine::with_jobs(jobs);
        let results = sweep(&engine, &cache, &points, &quick_params(), &Tracer::off());
        let rendered = render_curve(&base, &rows, &results);
        (results, rendered)
    }

    #[test]
    fn single_thread_improvement_is_small() {
        let cache = MapCache::in_memory();
        let p = point(&cache, Coord::new(4, 4, CgraNeed::High, 1)).unwrap();
        // One thread cannot benefit; constrained II may even cost a bit.
        assert!(p.improvement_pct <= 5.0, "{}", p.improvement_pct);
    }

    #[test]
    fn contention_brings_improvement_on_8x8() {
        let cache = MapCache::in_memory();
        let p = point(&cache, Coord::new(8, 4, CgraNeed::High, 16)).unwrap();
        assert!(p.improvement_pct > 50.0, "got {:.1}%", p.improvement_pct);
    }

    #[test]
    fn improvement_grows_with_array_size() {
        let cache = MapCache::in_memory();
        let p4 = point(&cache, Coord::new(4, 4, CgraNeed::High, 16)).unwrap();
        let p8 = point(&cache, Coord::new(8, 4, CgraNeed::High, 16)).unwrap();
        assert!(
            p8.improvement_pct > p4.improvement_pct,
            "8x8 {:.1}% <= 4x4 {:.1}%",
            p8.improvement_pct,
            p4.improvement_pct
        );
    }

    #[test]
    fn render_has_all_thread_counts() {
        let cache = MapCache::in_memory();
        let pts = vec![point(&cache, Coord::new(4, 4, CgraNeed::Low, 2)).unwrap()];
        let s = render(&pts, 4);
        // The measured cell is rendered signed; everything else is "-".
        assert!(s.contains("50%"));
        assert!(s.lines().count() > crate::THREAD_COUNTS.len() * CgraNeed::ALL.len());
    }

    #[test]
    fn parallel_traces_follow_point_order() {
        // A slow point (16 threads) before a fast one (1 thread): on two
        // workers the fast point finishes first, and its events must
        // still follow the slow point's, as they do on one worker.
        let points = [
            Coord::new(8, 4, CgraNeed::High, 16),
            Coord::new(8, 4, CgraNeed::High, 1),
        ];
        let trace = |jobs| {
            let ring = Arc::new(RingSink::unbounded());
            let tracer = Tracer::new(ring.clone());
            let results = sweep(
                &Engine::with_jobs(jobs),
                &MapCache::in_memory(),
                &points,
                &quick_params(),
                &tracer,
            );
            assert!(results.iter().all(Result::is_ok));
            ring.drain()
        };
        let serial = trace(1);
        assert!(!serial.is_empty());
        for round in 0..3 {
            assert!(
                trace(2) == serial,
                "round {round}: -j 2 trace differs from -j 1"
            );
        }
    }

    #[test]
    fn run_point_is_deterministic() {
        let cache = MapCache::in_memory();
        let at = Coord::new(4, 2, CgraNeed::Medium, 4);
        assert_eq!(point(&cache, at), point(&cache, at));
        assert!(!point(&cache, at).unwrap().faults.any());
    }

    #[test]
    fn grid_covers_every_fabric_need_and_thread_count() {
        let points = grid();
        let fabrics: usize = PAPER_GRID.iter().map(|(_, sizes)| sizes.len()).sum();
        assert_eq!(
            points.len(),
            fabrics * CgraNeed::ALL.len() * crate::THREAD_COUNTS.len()
        );
        assert!(points.iter().all(|p| p.faults.is_off()));
    }

    #[test]
    fn faulty_point_reports_counters_and_degrades() {
        let cache = MapCache::in_memory();
        let clean = Coord::new(8, 4, CgraNeed::High, 8);
        let faults = FaultSpec::Mtbf {
            mean: 5_000,
            count: 3,
            seed: 7,
            kind: cgra_arch::FaultKind::Kill,
        };
        let faulty = point(&cache, Coord { faults, ..clean }).unwrap();
        let clean = point(&cache, clean).unwrap();
        assert!(faulty.faults.any());
        assert!(faulty.faults.pages_killed > 0);
        assert!(
            faulty.mt_makespan >= clean.mt_makespan,
            "killing pages should not speed the system up: {} < {}",
            faulty.mt_makespan,
            clean.mt_makespan
        );
    }

    #[test]
    fn recovery_curve_shows_throughput_returning() {
        let base = FaultSpec::Mtbf {
            mean: 10_000,
            count: 2,
            seed: 1,
            kind: cgra_arch::FaultKind::Transient { repair_after: 500 },
        };
        let (results, rendered) = run_curve(base, 2);
        assert_eq!(results.len(), 2 + RECOVERY_MTTR_SCALES.len());
        let reference = results[0].as_ref().unwrap();
        assert!(!reference.faults.any());
        let no_repair = results[1].as_ref().unwrap();
        assert_eq!(no_repair.faults.repairs, 0, "repair disabled in row 1");
        assert!(no_repair.faults.pages_killed > 0);
        let fastest = results.last().unwrap().as_ref().unwrap();
        assert!(fastest.faults.repairs > 0, "mttr rows repair pages");
        // The headline: with repair, throughput returns toward the
        // fault-free reference — the recovered system beats no-repair
        // and sits between it and the clean run.
        assert!(
            fastest.mt_makespan <= no_repair.mt_makespan,
            "repair must not be slower than no repair: {} vs {}",
            fastest.mt_makespan,
            no_repair.mt_makespan
        );
        // Close to the fault-free reference (shrink/expand reshuffles
        // allocation order, so a repaired run may even land a hair
        // under it — a scheduling anomaly, not a free lunch).
        assert!(
            fastest.mt_makespan >= reference.mt_makespan * 0.95,
            "repaired run should track the fault-free reference: {} vs {}",
            fastest.mt_makespan,
            reference.mt_makespan
        );
        assert!(rendered.starts_with("| row "));
        assert!(!rendered.contains("degraded"));
        assert!(rendered.contains("| fault-free | off "));
        assert!(rendered.contains("no-repair"));
        assert!(rendered.contains("mttr x1"));
        assert_eq!(rendered.lines().count(), results.len() + 2);
    }

    #[test]
    fn recovery_curve_rows_are_deterministic() {
        let base = FaultSpec::Mtbf {
            mean: 8_000,
            count: 2,
            seed: 3,
            kind: cgra_arch::FaultKind::Transient { repair_after: 400 },
        };
        assert_eq!(run_curve(base, 1).1, run_curve(base, 4).1);
    }

    #[test]
    fn degradation_curve_has_fault_free_reference_row() {
        let base = FaultSpec::Mtbf {
            mean: 10_000,
            count: 2,
            seed: 1,
            kind: cgra_arch::FaultKind::Kill,
        };
        let labels: Vec<String> = curve(at(base)).into_iter().map(|(l, _)| l).collect();
        assert_eq!(labels, ["0", "1", "2", "4", "8"]);
        let (results, rendered) = run_curve(base, 2);
        let reference = results[0].as_ref().unwrap();
        assert!(!reference.faults.any());
        assert!(rendered.contains("| 0      | off "));
        assert!(rendered.starts_with("| rate x |"));
        assert!(rendered.contains("degraded"));
        // Every row rendered, errors included in-slot.
        assert_eq!(rendered.lines().count(), CURVE_SCALES.len() + 2);
    }
}
