//! Benchmark of the CGRA multithreading pipeline, timed end to end and
//! per crate.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile|sweep|adapt|faults> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run first sets up the paper grid, [`SETUP_REPS`] times: the 11
//! benchmark kernels are mapped and compiled into kernel profiles on all
//! 9 fabrics, each profile is audited by the analyzer, and each fabric's
//! runtime is smoke-tested once. The median set-up time is `setup_s`.
//! Then the seed draws the workload's inputs, and passes over them run in
//! a closed loop, one operation at a time, until `--seconds` have passed
//! (see [`closed_loop`]). Every result is checked outside the timed
//! region. The last line on stdout is one JSON object.
//!
//! With `--trace 0` the run reports end-to-end host times, scaled to
//! reference speed by a calibration kernel timed in the same run (see
//! [`calibration_kernel`]). With `--trace 1` every call into a crate is
//! wrapped in a span, and the run reports each layer's mean host time
//! per call instead, unscaled, with the calibration time beside them.

use cgra_analyze::{analyze_degraded, analyze_plan, analyze_profile, analyze_recovery};
use cgra_arch::{CgraConfig, FaultEvent, FaultKind, FaultMap, FaultSpec, PageHealth};
use cgra_core::transform::{transform, Strategy};
use cgra_core::{
    plan_recovery, transform_degraded, DegradedPlan, PagedSchedule, RecoveryPlan, RepairedPage,
    ShrinkPlan,
};
use cgra_dfg::Dfg;
use cgra_mapper::{map_baseline, map_constrained, MapOptions};
use cgra_obs::{check_trace, RingSink, Tracer};
use cgra_sim::{
    generate, halving_chain, simulate_baseline, simulate_multithreaded_faulty,
    simulate_multithreaded_faulty_traced, CgraNeed, KernelLibrary, KernelProfile, MtConfig,
    SimError, SimReport, ThreadSpec, WorkloadParams,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// The paper's fabric grid (§VII-A): `(dimension, page sizes)`.
const GRID: [(u16, &[usize]); 3] = [(4, &[2, 4, 8]), (6, &[2, 4, 9]), (8, &[2, 4, 8])];
/// Thread counts of Fig. 9.
const THREAD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
/// Workload seeds per Fig. 9 point, and the point's workload size.
const FIG9_SEEDS: u64 = 5;
const WORK_PER_THREAD: u64 = 60_000;
const BURSTS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Repair timing of an adaptation episode (cycles).
const REPAIR_AT: u64 = 10_000;
const QUARANTINE: u64 = 64;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Cold compile: map, extract and transform one kernel profile.
    Compile,
    /// Warm simulation sweep: one Fig. 9 point on compiled libraries.
    Sweep,
    /// Runtime adaptation: every schedule resident on one fabric shrinks,
    /// is remapped around a dead page, and re-expands after repair.
    Adapt,
    /// Multithreaded runs under transient faults with repair.
    Faults,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "compile" => Workload::Compile,
            "sweep" => Workload::Sweep,
            "adapt" => Workload::Adapt,
            "faults" => Workload::Faults,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One layer of the pipeline, named after the crate call it wraps.
#[derive(Clone, Copy)]
enum Layer {
    /// `cgra-mapper`: one modulo-scheduling search.
    Map,
    /// `cgra-core`: page extraction of a constrained mapping.
    Extract,
    /// `cgra-core`: one PageMaster shrink transform.
    Transform,
    /// `cgra-core`: one remap around dead pages.
    Degrade,
    /// `cgra-core`: one re-expansion onto repaired pages.
    Recover,
    /// `cgra-analyze`: one analyzer pass.
    Analyze,
    /// `cgra-sim`: one workload generation.
    Workload,
    /// `cgra-sim`: one single-threaded FCFS baseline run.
    SimBaseline,
    /// `cgra-sim`: one multithreaded run.
    SimMt,
}

const LAYER_METRICS: [&str; 9] = [
    "map_us",
    "extract_us",
    "transform_us",
    "degrade_us",
    "recover_us",
    "analyze_us",
    "workload_us",
    "sim_baseline_us",
    "sim_mt_us",
];

/// Per-layer spans: total host time and calls per layer, plus the size
/// of every schedule plan built. Records nothing when off.
struct Spans {
    on: bool,
    nanos: [u128; LAYER_METRICS.len()],
    calls: [u64; LAYER_METRICS.len()],
    plan_cells: u64,
    plans: u64,
}

impl Spans {
    fn new(on: bool) -> Self {
        Spans {
            on,
            nanos: [0; LAYER_METRICS.len()],
            calls: [0; LAYER_METRICS.len()],
            plan_cells: 0,
            plans: 0,
        }
    }

    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.nanos[layer as usize] += t.elapsed().as_nanos();
        self.calls[layer as usize] += 1;
        r
    }

    fn count_plan(&mut self, plan: &ShrinkPlan) {
        if self.on {
            self.plan_cells += plan.placements.iter().map(|p| p.len() as u64).sum::<u64>();
            self.plans += 1;
        }
    }
}

/// SplitMix64: the benchmark's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One fabric of the grid with everything compiled for it.
struct Fabric {
    dim: u16,
    page_size: usize,
    cgra: CgraConfig,
    lib: KernelLibrary,
    /// Trimmed paged schedule of each kernel's constrained mapping, in
    /// library order.
    paged: Vec<PagedSchedule>,
    /// A synthetic canonical schedule on the whole page ring: the
    /// largest plan the runtime can be asked for on this fabric.
    ring: PagedSchedule,
}

/// Compile one kernel profile through the crate calls that
/// [`KernelProfile::compile`] makes, each in its own span, keeping the
/// paged schedule the runtime transforms.
fn compile_profile(
    dfg: &Dfg,
    cgra: &CgraConfig,
    spans: &mut Spans,
) -> Result<(KernelProfile, PagedSchedule), String> {
    let opts = MapOptions::default();
    let name = &dfg.name;
    let base = spans
        .time(Layer::Map, || map_baseline(dfg, cgra, &opts))
        .map_err(|e| format!("{name}: baseline mapping: {e}"))?;
    let cons = spans
        .time(Layer::Map, || map_constrained(dfg, cgra, &opts))
        .map_err(|e| format!("{name}: constrained mapping: {e}"))?;
    let paged = spans
        .time(Layer::Extract, || {
            PagedSchedule::from_mapping(&cons, cgra).map(|p| p.trimmed())
        })
        .map_err(|e| format!("{name}: page extraction: {e}"))?;
    let n = cgra.layout().num_pages() as u16;
    let mut ii_by_pages = Vec::new();
    for m in halving_chain(n) {
        let ii = if m >= paged.num_pages {
            cons.ii()
        } else {
            let plan = spans
                .time(Layer::Transform, || transform(&paged, m, Strategy::Auto))
                .map_err(|e| format!("{name}: transform to {m} pages: {e:?}"))?;
            spans.count_plan(&plan);
            plan.ii_q_ceil()
        };
        ii_by_pages.push((m, ii));
    }
    let profile = KernelProfile {
        name: name.clone(),
        ii_baseline: base.ii(),
        ii_constrained: cons.ii(),
        used_pages: paged.num_pages,
        ii_by_pages,
    };
    Ok((profile, paged))
}

fn check_profile(p: &KernelProfile, n: u16, spans: &mut Spans) -> Result<(), String> {
    let report = spans.time(Layer::Analyze, || {
        analyze_profile(
            &p.name,
            p.ii_baseline,
            p.ii_constrained,
            p.used_pages,
            &p.ii_by_pages,
            n,
        )
    });
    if report.has_errors() {
        return Err(format!("{} profile:\n{}", p.name, report.render()));
    }
    Ok(())
}

/// Compile, audit and smoke-test the whole grid.
fn setup(kernels: &[Dfg], spans: &mut Spans) -> Result<Vec<Fabric>, String> {
    let mut fabrics = Vec::new();
    for (dim, sizes) in GRID {
        for &page_size in sizes {
            let cgra = CgraConfig::square(dim)
                .with_page_size(page_size)
                .map_err(|e| format!("{dim}x{dim} page {page_size}: {e}"))?;
            let n = cgra.layout().num_pages() as u16;
            let mut profiles = Vec::new();
            let mut paged = Vec::new();
            for k in kernels {
                let (profile, schedule) = compile_profile(k, &cgra, spans)?;
                check_profile(&profile, n, spans)?;
                profiles.push(profile);
                paged.push(schedule);
            }
            let fabric = Fabric {
                dim,
                page_size,
                cgra,
                lib: KernelLibrary {
                    profiles,
                    num_pages: n,
                },
                paged,
                ring: PagedSchedule::synthetic_canonical(n, 1, false),
            };
            smoke_test(&fabric, spans)?;
            fabrics.push(fabric);
        }
    }
    Ok(fabrics)
}

/// One small Fig. 9 point and one adaptation episode on `f`, so every
/// layer runs in every workload's set-up.
fn smoke_test(f: &Fabric, spans: &mut Spans) -> Result<(), String> {
    let runs = sweep_point(f, CgraNeed::Medium, 4, 0, spans).map_err(|e| e.to_string())?;
    for run in &runs {
        check_run(run)?;
    }
    let k = (0..f.paged.len()).find(|&k| f.paged[k].num_pages >= 2);
    let ps = adapt_schedule(f, k);
    let episode = adapt_episode(ps, &shrink_targets(f, ps), 0, 1, spans)
        .map_err(|e| format!("{}: {e:?}", ps.name))?;
    check_episode(f, k, &episode, spans)
}

/// A simulated multithreaded run with its inputs.
struct SimRun {
    threads: Vec<ThreadSpec>,
    faults: Vec<FaultEvent>,
    base: Option<SimReport>,
    mt: SimReport,
}

fn point_seed(coords: &[u64]) -> u64 {
    let mut rng = Rng(0x5EED_CA11_0C0F_FEE5);
    for &c in coords {
        rng.0 ^= c;
        rng.next();
    }
    rng.next()
}

/// One Fig. 9 point: FIG9_SEEDS workloads, each on the FCFS baseline
/// and the multithreaded fabric.
fn sweep_point(
    f: &Fabric,
    need: CgraNeed,
    threads: usize,
    seed: u64,
    spans: &mut Spans,
) -> Result<Vec<SimRun>, SimError> {
    (0..FIG9_SEEDS)
        .map(|s| {
            let params = WorkloadParams {
                threads,
                need,
                work_per_thread: WORK_PER_THREAD,
                bursts: BURSTS,
                seed: point_seed(&[
                    seed,
                    f.dim as u64,
                    f.page_size as u64,
                    need as u64,
                    threads as u64,
                    s,
                ]),
            };
            let wl = spans.time(Layer::Workload, || generate(&f.lib, &params));
            let base = spans.time(Layer::SimBaseline, || simulate_baseline(&f.lib, &wl));
            let mt = spans.time(Layer::SimMt, || {
                simulate_multithreaded_faulty(&f.lib, &wl, MtConfig::default(), &[])
            })?;
            Ok(SimRun {
                threads: wl,
                faults: Vec::new(),
                base: Some(base),
                mt,
            })
        })
        .collect()
}

/// One multithreaded run under a transient-fault schedule.
fn faulty_run(
    f: &Fabric,
    threads: usize,
    spec: &FaultSpec,
    seed: u64,
    spans: &mut Spans,
) -> Result<SimRun, SimError> {
    let params = WorkloadParams {
        threads,
        need: CgraNeed::High,
        work_per_thread: WORK_PER_THREAD,
        bursts: BURSTS,
        seed,
    };
    let wl = spans.time(Layer::Workload, || generate(&f.lib, &params));
    let faults = spec.schedule(f.lib.num_pages);
    let mt = spans.time(Layer::SimMt, || {
        simulate_multithreaded_faulty(&f.lib, &wl, MtConfig::default(), &faults)
    })?;
    Ok(SimRun {
        threads: wl,
        faults,
        base: None,
        mt,
    })
}

/// Every thread finishes, the makespan is the last finish, and every
/// kernel iteration of the workload is accounted exactly once, faults or
/// not.
fn check_run(run: &SimRun) -> Result<(), String> {
    let work: u64 = run
        .threads
        .iter()
        .flat_map(|t| &t.segments)
        .map(|s| match s {
            cgra_sim::Segment::Cgra { iterations, .. } => *iterations,
            cgra_sim::Segment::Cpu(_) => 0,
        })
        .sum();
    let mt = &run.mt;
    if mt.thread_finish.len() != run.threads.len() {
        return Err(format!(
            "{} of {} threads finished",
            mt.thread_finish.len(),
            run.threads.len()
        ));
    }
    if mt.thread_finish.iter().max() != Some(&mt.makespan) {
        return Err(format!("makespan {} is not the last finish", mt.makespan));
    }
    if mt.cgra_iterations != work {
        return Err(format!(
            "multithreaded run executed {} iterations of {work}",
            mt.cgra_iterations
        ));
    }
    if let Some(base) = &run.base {
        if base.cgra_iterations != work {
            return Err(format!(
                "baseline executed {} iterations of {work}",
                base.cgra_iterations
            ));
        }
    }
    if mt.faults.repairs > mt.faults.pages_killed {
        return Err(format!(
            "{} repairs of {} killed pages",
            mt.faults.repairs, mt.faults.pages_killed
        ));
    }
    Ok(())
}

/// Replay `run` with tracing on: the traced run must match the untraced
/// one and its trace must satisfy the ownership/accounting oracle.
fn check_oracle(f: &Fabric, run: &SimRun) -> Result<(), String> {
    let ring = Arc::new(RingSink::unbounded());
    let traced = simulate_multithreaded_faulty_traced(
        &f.lib,
        &run.threads,
        MtConfig::default(),
        &run.faults,
        &Tracer::new(ring.clone()),
    )
    .map_err(|e| format!("traced replay: {e}"))?;
    if traced != run.mt {
        return Err("traced replay differs from the untraced run".into());
    }
    check_trace(&ring.drain())
        .map(|_| ())
        .map_err(|e| format!("trace oracle: {e:?}"))
}

/// Budgets on the halving chain a thread running `ps` can be shrunk to.
fn shrink_targets(f: &Fabric, ps: &PagedSchedule) -> Vec<u16> {
    halving_chain(f.lib.num_pages)
        .into_iter()
        .filter(|&m| m < ps.num_pages)
        .collect()
}

/// A schedule resident in an adaptation round: the kernel (`None` for
/// the ring), the page that dies, and the iterations done at re-expansion.
type Resident = (Option<usize>, u16, u64);

/// The runtime plans of one adaptation episode.
struct Episode {
    /// One plan per budget of [`shrink_targets`], in chain order.
    shrinks: Vec<ShrinkPlan>,
    struck: FaultMap,
    degraded: DegradedPlan,
    healed: FaultMap,
    recovery: RecoveryPlan,
}

/// Shrink a thread running `ps` to each budget in `targets`; then page
/// `dead` of its full ring dies, the thread is remapped around it, the
/// page is repaired, and the thread re-expands after `completed`
/// iterations.
fn adapt_episode(
    ps: &PagedSchedule,
    targets: &[u16],
    dead: u16,
    completed: u64,
    spans: &mut Spans,
) -> Result<Episode, cgra_core::TransformError> {
    let shrinks = targets
        .iter()
        .map(|&m| spans.time(Layer::Transform, || transform(ps, m, Strategy::Auto)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut struck = FaultMap::new(ps.num_pages);
    struck.mark_page(dead, PageHealth::Dead);
    let degraded = spans.time(Layer::Degrade, || {
        transform_degraded(ps, &struck, ps.num_pages, Strategy::Auto)
    })?;
    let mut healed = struck.clone();
    healed.begin_repair(dead);
    healed.complete_repair(dead);
    let repaired = [RepairedPage {
        page: dead,
        repaired_at: REPAIR_AT,
        activated_at: REPAIR_AT + QUARANTINE,
    }];
    let recovery = spans.time(Layer::Recover, || {
        plan_recovery(
            ps,
            &degraded,
            &healed,
            &repaired,
            QUARANTINE,
            completed,
            Strategy::Auto,
        )
    })?;
    for plan in shrinks.iter().chain([&degraded.plan, &recovery.plan]) {
        spans.count_plan(plan);
    }
    Ok(Episode {
        shrinks,
        struck,
        degraded,
        healed,
        recovery,
    })
}

/// The schedule kernel `k` runs on `f`, or the fabric's ring for `None`.
fn adapt_schedule(f: &Fabric, k: Option<usize>) -> &PagedSchedule {
    k.map_or(&f.ring, |k| &f.paged[k])
}

/// A kernel's shrinks match its compiled profile's rates, every plan
/// passes the independent analyzer, and the recovery returns the thread
/// to its full ring without losing an iteration.
fn check_episode(
    f: &Fabric,
    k: Option<usize>,
    e: &Episode,
    spans: &mut Spans,
) -> Result<(), String> {
    let ps = adapt_schedule(f, k);
    let name = &ps.name;
    let mut reports = Vec::new();
    for plan in &e.shrinks {
        let want = k.map(|k| f.lib.profiles[k].try_ii_at(plan.m));
        if want.is_some_and(|ii| ii != Some(plan.ii_q_ceil())) {
            return Err(format!(
                "{name}: shrink to {} pages runs at II {} but the profile says {want:?}",
                plan.m,
                plan.ii_q_ceil()
            ));
        }
        reports.push(spans.time(Layer::Analyze, || analyze_plan(ps, plan)));
    }
    reports.push(spans.time(Layer::Analyze, || {
        analyze_degraded(ps, &e.degraded, &e.struck)
    }));
    reports.push(spans.time(Layer::Analyze, || {
        analyze_recovery(ps, &e.recovery, &e.healed)
    }));
    if let Some(r) = reports.iter().find(|r| r.has_errors()) {
        return Err(format!("{name}:\n{}", r.render()));
    }
    if !e.recovery.is_full_ring(ps) || e.recovery.iterations_lost() != 0 {
        return Err(format!(
            "{name}: recovered onto {} of {} pages, {} iterations lost",
            e.recovery.plan.m,
            ps.num_pages,
            e.recovery.iterations_lost()
        ));
    }
    Ok(())
}

/// Calibration time, in milliseconds, that defines reference speed: the
/// [`calibration_kernel`] on a 2-vCPU Xeon VM in its fast state.
const CAL_NOMINAL_MS: f64 = 0.65;
/// Host time between calibration samples inside a pass.
const CAL_EVERY_S: f64 = 0.05;
/// Calibration samples taken before and after each set-up.
const CAL_BURST: usize = 3;
/// Earlier calibration samples that also scale a pass.
const CAL_WINDOW: usize = 10;

/// A fixed computation that does not depend on the repository: hash-map
/// churn, an event heap and small allocations, the kinds of work the
/// pipeline's hot paths do. A shared host runs for seconds to minutes
/// at a time up to 1.7x slower; this kernel slows down nearly as much,
/// so dividing by its time cancels most of the host's state.
fn calibration_kernel() -> u64 {
    let mut rng = Rng(42);
    let mut map: HashMap<(u16, u32), u64> = HashMap::new();
    for i in 0..6_000 {
        let key = ((rng.below(64)) as u16, rng.below(512) as u32);
        *map.entry(key).or_insert(0) += i;
    }
    let mut acc = 0u64;
    for _ in 0..6_000 {
        let key = ((rng.below(64)) as u16, rng.below(512) as u32);
        acc = acc.wrapping_add(map.get(&key).copied().unwrap_or(1));
    }
    let mut heap = BinaryHeap::new();
    for i in 0..4_000u32 {
        heap.push(Reverse((rng.below(100_000), i)));
        if i % 3 == 0 {
            if let Some(Reverse((t, _))) = heap.pop() {
                acc ^= t;
            }
        }
    }
    let rows: Vec<Vec<u32>> = (0..500).map(|i| (0..i % 17).collect()).collect();
    acc ^ rows.iter().map(|r| r.len() as u64).sum::<u64>()
}

/// Calibration samples of one run, in milliseconds.
struct Calibration {
    samples_ms: Vec<f64>,
    last: Instant,
}

impl Calibration {
    fn new() -> Self {
        Calibration {
            samples_ms: Vec::new(),
            last: Instant::now(),
        }
    }

    fn sample(&mut self) {
        let (_, ms) = timed(calibration_kernel);
        self.samples_ms.push(ms);
        self.last = Instant::now();
    }

    fn sample_if_due(&mut self) {
        if self.last.elapsed().as_secs_f64() >= CAL_EVERY_S {
            self.sample();
        }
    }

    /// Median calibration time of the samples from index `from` on.
    fn median_since(&self, from: usize) -> f64 {
        let mut recent = self.samples_ms[from..].to_vec();
        recent.sort_by(f64::total_cmp);
        quantile(&recent, 0.5)
    }

    /// The factor that scales host time measured since sample `from` to
    /// reference speed.
    fn scale_since(&self, from: usize) -> f64 {
        CAL_NOMINAL_MS / self.median_since(from)
    }
}

/// What a workload's loop measured.
struct Tally {
    /// Each input's latencies over the passes, in milliseconds at
    /// reference speed.
    samples_ms: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Each input's median latency over the passes, sorted.
    fn medians_ms(&self) -> Vec<f64> {
        let mut medians: Vec<f64> = self
            .samples_ms
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.sort_by(f64::total_cmp);
                quantile(&s, 0.5)
            })
            .collect();
        medians.sort_by(f64::total_cmp);
        medians
    }
}

/// Run `op` on every input of `inputs`, in a freshly shuffled order each
/// pass, until `seconds` have passed. `op` gets the input and whether it
/// is the first of its pass, and returns its own timed latency and the
/// check result.
///
/// Between operations the host is calibrated; each pass's latencies are
/// scaled by the calibration samples of that pass and the
/// [`CAL_WINDOW`] before it. Every pass repeats the same inputs, so each
/// input's median over the passes filters out the noise that
/// calibration leaves while the mix of inputs stays fixed.
fn closed_loop<I>(
    inputs: &[I],
    rng: &mut Rng,
    seconds: f64,
    cal: &mut Calibration,
    mut op: impl FnMut(&I, bool) -> (f64, Result<(), String>),
) -> Tally {
    assert!(!inputs.is_empty(), "workload has no inputs");
    let start = Instant::now();
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut pass_ms = vec![0.0; inputs.len()];
    let mut tally = Tally {
        samples_ms: vec![Vec::new(); inputs.len()],
        attempted: 0,
        failed: 0,
    };
    while start.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut order);
        let from = cal.samples_ms.len().saturating_sub(CAL_WINDOW);
        for (i, &idx) in order.iter().enumerate() {
            let (ms, checked) = op(&inputs[idx], i == 0);
            pass_ms[idx] = ms;
            tally.attempted += 1;
            if let Err(e) = checked {
                if tally.failed == 0 {
                    eprintln!("check failed: {e}");
                }
                tally.failed += 1;
            }
            cal.sample_if_due();
        }
        let scale = cal.scale_since(from);
        for (samples, ms) in tally.samples_ms.iter_mut().zip(&pass_ms) {
            samples.push(ms * scale);
        }
    }
    tally
}

/// Time `f`, returning its result and the elapsed milliseconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = black_box(f());
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Fault schedules drawn per `faults` point.
const FAULT_SPECS: usize = 8;

fn run_workload(
    w: Workload,
    fabrics: &[Fabric],
    kernels: &[Dfg],
    rng: &mut Rng,
    seconds: f64,
    cal: &mut Calibration,
    spans: &mut Spans,
) -> Tally {
    match w {
        Workload::Compile => {
            let pairs: Vec<(usize, usize)> = (0..fabrics.len())
                .flat_map(|fi| (0..kernels.len()).map(move |k| (fi, k)))
                .collect();
            let opts = MapOptions::default();
            closed_loop(&pairs, rng, seconds, cal, |&(fi, k), _| {
                let f = &fabrics[fi];
                let (compiled, ms) = timed(|| {
                    if spans.on {
                        compile_profile(&kernels[k], &f.cgra, spans).map(|(p, _)| p)
                    } else {
                        KernelProfile::compile(&kernels[k], &f.cgra, &opts)
                            .map_err(|e| e.to_string())
                    }
                });
                let checked = compiled.and_then(|p| {
                    if p != f.lib.profiles[k] {
                        return Err(format!("{}: profile differs from set-up", p.name));
                    }
                    check_profile(&p, f.lib.num_pages, spans)
                });
                (ms, checked)
            })
        }
        Workload::Sweep => {
            let mut points = Vec::new();
            for fi in 0..fabrics.len() {
                for need in CgraNeed::ALL {
                    for t in THREAD_COUNTS {
                        points.push((fi, need, t, rng.next()));
                    }
                }
            }
            closed_loop(&points, rng, seconds, cal, |&(fi, need, t, seed), first| {
                let f = &fabrics[fi];
                let (runs, ms) = timed(|| sweep_point(f, need, t, seed, spans));
                let checked = runs.map_err(|e| e.to_string()).and_then(|runs| {
                    runs.iter().try_for_each(check_run)?;
                    if first {
                        check_oracle(f, &runs[0])?;
                    }
                    Ok(())
                });
                (ms, checked)
            })
        }
        Workload::Adapt => {
            // One input per fabric: a round in which every resident
            // schedule (each kernel using two pages or more, and the
            // full-ring schedule) shrinks to every budget on the chain,
            // loses a page and re-expands after repair. Kernels lose a
            // seeded page; the ring loses page 0, so its survivors form
            // an N-1 page run — the paper's Fig. 7 case of M not
            // dividing N.
            let rounds: Vec<(usize, Vec<Resident>)> = fabrics
                .iter()
                .enumerate()
                .map(|(fi, f)| {
                    let mut residents: Vec<Resident> = Vec::new();
                    for k in (0..kernels.len()).filter(|&k| f.paged[k].num_pages >= 2) {
                        let dead = rng.below(f.paged[k].num_pages as u64) as u16;
                        residents.push((Some(k), dead, rng.below(100_000)));
                    }
                    residents.push((None, 0, rng.below(100_000)));
                    (fi, residents)
                })
                .collect();
            closed_loop(&rounds, rng, seconds, cal, |(fi, residents), _| {
                let f = &fabrics[*fi];
                let (episodes, ms) = timed(|| {
                    residents
                        .iter()
                        .map(|&(k, dead, completed)| {
                            let ps = adapt_schedule(f, k);
                            adapt_episode(ps, &shrink_targets(f, ps), dead, completed, spans)
                        })
                        .collect::<Vec<_>>()
                });
                let checked = residents
                    .iter()
                    .zip(episodes)
                    .try_for_each(|(&(k, ..), e)| {
                        let e = e.map_err(|e| format!("{}: {e:?}", adapt_schedule(f, k).name))?;
                        check_episode(f, k, &e, spans)
                    });
                (ms, checked)
            })
        }
        Workload::Faults => {
            let mut runs = Vec::new();
            for fi in (0..fabrics.len()).filter(|&fi| fabrics[fi].lib.num_pages >= 4) {
                for t in [8, 16] {
                    for _ in 0..FAULT_SPECS {
                        let spec = FaultSpec::Mtbf {
                            mean: 5_000 + rng.below(20_000),
                            count: 2 + rng.below(3) as u32,
                            seed: rng.next(),
                            kind: FaultKind::Transient {
                                repair_after: 500 + rng.below(3_500),
                            },
                        };
                        runs.push((fi, t, spec, rng.next()));
                    }
                }
            }
            closed_loop(&runs, rng, seconds, cal, |&(fi, t, spec, seed), first| {
                let f = &fabrics[fi];
                let (run, ms) = timed(|| faulty_run(f, t, &spec, seed, spans));
                let checked = run.map_err(|e| e.to_string()).and_then(|run| {
                    check_run(&run)?;
                    if first {
                        check_oracle(f, &run)?;
                    }
                    Ok(())
                });
                (ms, checked)
            })
        }
    }
}

/// Linear-interpolated quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <compile|sweep|adapt|faults> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new(args.trace);
    let kernels = cgra_dfg::kernels::all();

    // Each set-up is scaled by the calibration samples taken just before
    // and just after it.
    let mut cal = Calibration::new();
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut fabrics = Vec::new();
    for _ in 0..CAL_BURST {
        cal.sample();
    }
    for rep in 0..SETUP_REPS {
        let from = cal.samples_ms.len() - CAL_BURST;
        let t = Instant::now();
        let built = match setup(&kernels, &mut spans) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let secs = t.elapsed().as_secs_f64();
        for _ in 0..CAL_BURST {
            cal.sample();
        }
        setup_secs.push(secs * cal.scale_since(from));
        if rep > 0
            && built
                .iter()
                .zip(&fabrics)
                .any(|(a, b): (&Fabric, &Fabric)| a.lib != b.lib)
        {
            eprintln!("perfbench: set-up is not deterministic");
            return ExitCode::FAILURE;
        }
        fabrics = built;
    }
    setup_secs.sort_by(f64::total_cmp);

    let mut rng = Rng(args.seed ^ ((args.workload as u64) << 56));
    let tally = run_workload(
        args.workload,
        &fabrics,
        &kernels,
        &mut rng,
        args.seconds,
        &mut cal,
        &mut spans,
    );
    if tally.attempted == 0 {
        eprintln!("perfbench: no operation completed in {} s", args.seconds);
        return ExitCode::FAILURE;
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        for (i, name) in LAYER_METRICS.iter().enumerate() {
            let calls = spans.calls[i].max(1);
            metrics.push((
                name.to_string(),
                spans.nanos[i] as f64 / calls as f64 / 1e3,
                "us",
            ));
        }
        metrics.push(("calibration_us".into(), cal.median_since(0) * 1e3, "us"));
        metrics.push((
            "plan_cells".into(),
            spans.plan_cells as f64 / spans.plans.max(1) as f64,
            "count",
        ));
    } else {
        let medians = tally.medians_ms();
        let total_s = medians.iter().sum::<f64>() / 1e3;
        metrics.push(("op_p50_ms".into(), quantile(&medians, 0.5), "ms"));
        metrics.push(("op_p90_ms".into(), quantile(&medians, 0.9), "ms"));
        metrics.push(("ops_per_s".into(), medians.len() as f64 / total_s, "1/s"));
        metrics.push(("setup_s".into(), quantile(&setup_secs, 0.5), "s"));
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
