//! Pre-compiled kernel profiles — what the OS knows about each kernel.
//!
//! Compilation happens once, offline (§V: "threads are to be compiled
//! independently of each other"); at runtime the OS only consults the
//! profile: the baseline II, the paging-constrained II, the number of
//! pages the schedule actually occupies, and the transformed II for every
//! page budget on the halving chain.
//!
//! [`Compiled::new`] is the one compile stage. It builds every artifact
//! of one kernel, in this order: the baseline and ring-constrained
//! mappings, the trimmed page-level schedule, one shrink plan per
//! halving-chain budget below the schedule's footprint (largest first),
//! and the profile. [`Compiled::audit`] hands each artifact to the
//! independent static analyzer: `cgra-lint` reports those audits, and
//! debug builds assert them clean in [`Compiled::into_profile`].

use cgra_analyze::{analyze_mapping, analyze_paged, analyze_plan, analyze_profile, Report};
use cgra_arch::CgraConfig;
use cgra_core::transform::{transform_traced, Strategy};
use cgra_core::{PagedSchedule, ShrinkPlan};
use cgra_mapper::{
    cores, map_baseline_traced, map_constrained_traced, MapError, MapOptions, MapResult,
};
use cgra_obs::{RingSink, Tracer};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The page budgets the allocator hands out: `N, N/2, N/4, …, 1`
/// (integer halving, §VII-B.1's policy).
pub fn halving_chain(n: u16) -> Vec<u16> {
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

/// Everything the runtime needs to know about one compiled kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Kernel name.
    pub name: String,
    /// II of the *unconstrained* mapping (the single-threaded baseline
    /// system runs at this rate).
    pub ii_baseline: u32,
    /// II of the paging-constrained mapping (full-array rate in the
    /// multithreaded system).
    pub ii_constrained: u32,
    /// Pages the constrained schedule actually occupies.
    pub used_pages: u16,
    /// `(M, II_q)` for every budget on the halving chain, from the actual
    /// PageMaster/block transform (not the analytic formula).
    pub ii_by_pages: Vec<(u16, u32)>,
}

impl KernelProfile {
    /// Compile a kernel for `cgra` and derive its profile.
    pub fn compile(
        dfg: &cgra_dfg::Dfg,
        cgra: &CgraConfig,
        opts: &MapOptions,
    ) -> Result<Self, MapError> {
        Ok(Compiled::new(dfg, cgra, opts, &Tracer::off())?.into_profile(cgra))
    }

    /// The smallest halving-chain budget that covers the kernel's
    /// footprint — what the thread asks the allocator for.
    pub fn wanted_pages(&self, n: u16) -> u16 {
        // The chain descends, so the budgets covering the footprint are a
        // prefix of it: walk it and keep the last one (`n` if none is).
        let (mut want, mut m) = (n, n);
        while m >= self.used_pages.max(1) {
            want = m;
            m /= 2;
        }
        want
    }

    /// Cycles per kernel iteration with `m` pages allocated, or `None`
    /// if `m` is off the halving chain the profile was built for. The
    /// simulator's fault paths use this to report a typed
    /// [`SimError`](crate::error::SimError) instead of panicking.
    pub fn try_ii_at(&self, m: u16) -> Option<u32> {
        self.ii_by_pages
            .iter()
            .find(|&&(pm, _)| pm == m)
            .map(|&(_, ii)| ii)
    }
}

/// Every artifact of one kernel's compilation for one fabric.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The unconstrained mapping (the single-threaded baseline).
    pub base: MapResult,
    /// The paging-constrained mapping.
    pub cons: MapResult,
    /// The page-level schedule of `cons`, trimmed to the pages it uses.
    pub paged: PagedSchedule,
    /// One shrink plan per halving-chain budget `M < paged.num_pages`,
    /// largest first. Budgets covering the footprint need no transform.
    pub plans: Vec<ShrinkPlan>,
    /// The profile assembled from the artifacts above.
    pub profile: KernelProfile,
}

/// Where [`Compiled::new`] runs its baseline search.
#[derive(Debug, Clone, Copy)]
enum Baseline {
    /// Beside the constrained search when a core is idle, else before it.
    OnIdleCore,
    /// Before the constrained search, on the calling thread.
    #[cfg(test)]
    First,
    /// Beside the constrained search on a pool worker, whatever the
    /// budget.
    #[cfg(test)]
    Beside,
}

impl Compiled {
    /// Compile `dfg` for `cgra`: both mapper searches and every
    /// halving-chain transform, each emitted to `tracer`.
    ///
    /// The baseline search runs beside the constrained one when the
    /// process has an idle core ([`cores::take_idle`]): on a pool worker
    /// holding that core, while the constrained search runs on the calling
    /// thread. Whichever ends first gives its core back, and the other
    /// search takes it for a helper. With no idle core the baseline search
    /// runs first, on the calling thread. Either way the result, the
    /// events and the error are those of running the baseline search and
    /// then the constrained one: side by side, each search buffers its
    /// events, and the baseline's reach `tracer` first, then the
    /// constrained's. If the baseline search fails, its events are
    /// forwarded and its error returned, and the constrained search's
    /// events are dropped, as the serial order never runs it.
    ///
    /// # Errors
    /// The mapper's [`MapError`] if either search fails (the baseline's
    /// if both do); [`MapError::Unmappable`] if the page-level schedule
    /// cannot be extracted or a transform fails.
    pub fn new(
        dfg: &cgra_dfg::Dfg,
        cgra: &CgraConfig,
        opts: &MapOptions,
        tracer: &Tracer,
    ) -> Result<Self, MapError> {
        Self::compile(dfg, cgra, opts, tracer, Baseline::OnIdleCore)
    }

    /// [`Compiled::new`], with the baseline search run as `baseline`
    /// says.
    fn compile(
        dfg: &cgra_dfg::Dfg,
        cgra: &CgraConfig,
        opts: &MapOptions,
        tracer: &Tracer,
        baseline: Baseline,
    ) -> Result<Self, MapError> {
        let (base, cons) = map_both(dfg, cgra, opts, tracer, baseline)?;
        let paged = PagedSchedule::from_mapping(&cons, cgra)
            .map_err(|e| MapError::Unmappable {
                reason: e.to_string(),
            })?
            .trimmed();
        let used = paged.num_pages;
        let mut plans = Vec::new();
        let mut ii_by_pages = Vec::new();
        for m in halving_chain(cgra.layout().num_pages() as u16) {
            let ii_q = if m >= used {
                // §VII-B.1: schedules not using the entire CGRA need no
                // transformation for budgets covering their footprint.
                cons.ii()
            } else {
                let plan = transform_traced(&paged, m, Strategy::Auto, tracer).map_err(|e| {
                    MapError::Unmappable {
                        reason: format!("transform to {m} pages: {e}"),
                    }
                })?;
                let ii_q = plan.ii_q_ceil();
                plans.push(plan);
                ii_q
            };
            ii_by_pages.push((m, ii_q));
        }
        let profile = KernelProfile {
            name: dfg.name.clone(),
            ii_baseline: base.ii(),
            ii_constrained: cons.ii(),
            used_pages: used,
            ii_by_pages,
        };
        Ok(Compiled {
            base,
            cons,
            paged,
            plans,
            profile,
        })
    }

    /// The static analyzer's report on every artifact, labelled and in
    /// compile order: `baseline-mapping`, `constrained-mapping`,
    /// `paged-schedule`, `plan-m<M>` per shrink plan, `profile`.
    pub fn audit(&self, cgra: &CgraConfig) -> Vec<(String, Report)> {
        let mapping = |r: &MapResult| analyze_mapping(&r.mdfg, cgra, &r.mapping, r.mode);
        let mut out = vec![
            ("baseline-mapping".to_string(), mapping(&self.base)),
            ("constrained-mapping".to_string(), mapping(&self.cons)),
            (
                "paged-schedule".to_string(),
                analyze_paged(&self.paged, cgra.rf().size()),
            ),
        ];
        for plan in &self.plans {
            out.push((format!("plan-m{}", plan.m), analyze_plan(&self.paged, plan)));
        }
        let p = &self.profile;
        out.push((
            "profile".to_string(),
            analyze_profile(
                &p.name,
                p.ii_baseline,
                p.ii_constrained,
                p.used_pages,
                &p.ii_by_pages,
                cgra.layout().num_pages() as u16,
            ),
        ));
        out
    }

    /// The profile, all the runtime keeps. Debug builds first assert
    /// that every [`audit`](Self::audit) report is free of errors;
    /// release builds trust the producing code.
    pub fn into_profile(self, cgra: &CgraConfig) -> KernelProfile {
        #[cfg(debug_assertions)]
        for (artifact, rep) in self.audit(cgra) {
            debug_assert!(
                !rep.has_errors(),
                "{} {artifact} failed analysis:\n{}",
                self.profile.name,
                rep.render()
            );
        }
        let _ = cgra;
        self.profile
    }
}

#[cfg(test)]
thread_local! {
    /// Makes the side-by-side baseline job of every compile this thread
    /// starts panic, on the pool worker, with the payload `"baseline"`.
    static PANIC_BASELINE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The baseline and constrained mappings of `dfg`, the baseline search
/// run as `baseline` says (see [`Compiled::new`]).
fn map_both(
    dfg: &cgra_dfg::Dfg,
    cgra: &CgraConfig,
    opts: &MapOptions,
    tracer: &Tracer,
    baseline: Baseline,
) -> Result<(MapResult, MapResult), MapError> {
    let core = match baseline {
        Baseline::OnIdleCore => cores::take_idle().map(Some),
        #[cfg(test)]
        Baseline::First => None,
        #[cfg(test)]
        Baseline::Beside => Some(None),
    };
    let one_then_the_other = || {
        let base = map_baseline_traced(dfg, cgra, opts, tracer)?;
        Ok((base, map_constrained_traced(dfg, cgra, opts, tracer)?))
    };
    let Some(core) = core else {
        return one_then_the_other();
    };
    // Side by side, each search buffers its events, forwarded in order.
    let buffer = || tracer.is_on().then(|| Arc::new(RingSink::unbounded()));
    let (base_events, cons_events) = (buffer(), buffer());
    let to = |events: &Option<Arc<RingSink>>| {
        events
            .as_ref()
            .map_or_else(Tracer::off, |ring| Tracer::new(ring.clone()))
    };
    let base_tracer = to(&base_events);
    let (job_dfg, job_cgra, job_opts) = (dfg.clone(), cgra.clone(), *opts);
    let baseline = move || map_baseline_traced(&job_dfg, &job_cgra, &job_opts, &base_tracer);
    #[cfg(test)]
    let baseline = {
        let panics = PANIC_BASELINE.get();
        move || {
            assert!(!panics, "baseline");
            baseline()
        }
    };
    let Some(pending) = cores::spawn(core, baseline) else {
        return one_then_the_other();
    };
    let cons = map_constrained_traced(dfg, cgra, opts, &to(&cons_events));
    let forward = |events: Option<Arc<RingSink>>| {
        for event in events.map(|ring| ring.drain()).unwrap_or_default() {
            tracer.emit(|| event);
        }
    };
    let base = pending.wait();
    forward(base_events);
    let base = base?;
    forward(cons_events);
    Ok((base, cons?))
}

/// The compiled library: one profile per benchmark kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelLibrary {
    /// Profiles in `cgra_dfg::kernels::NAMES` order.
    pub profiles: Vec<KernelProfile>,
    /// Pages in the fabric the library was compiled for.
    pub num_pages: u16,
}

impl KernelLibrary {
    /// Compile all 11 benchmark kernels for a fabric, every kernel's
    /// compilation emitted to `tracer` (one `MapBegin`/`MapEnd` segment
    /// per mapper search, in `cgra_dfg::kernels::NAMES` order).
    pub fn compile_benchmarks(
        cgra: &CgraConfig,
        opts: &MapOptions,
        tracer: &Tracer,
    ) -> Result<Self, MapError> {
        let profiles = cgra_dfg::kernels::all()
            .iter()
            .map(|k| Compiled::new(k, cgra, opts, tracer).map(|c| c.into_profile(cgra)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(KernelLibrary {
            profiles,
            num_pages: cgra.layout().num_pages() as u16,
        })
    }

    /// Number of kernels.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Profile by index.
    pub fn profile(&self, kernel: usize) -> &KernelProfile {
        &self.profiles[kernel]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use cgra_obs::TraceEvent;

    /// Compile `dfg` with its baseline search run as `baseline`, and the
    /// events it traced.
    fn recorded(
        dfg: &cgra_dfg::Dfg,
        cgra: &CgraConfig,
        opts: &MapOptions,
        baseline: Baseline,
    ) -> (Result<Compiled, MapError>, Vec<TraceEvent>) {
        let ring = Arc::new(RingSink::unbounded());
        let compiled = Compiled::compile(dfg, cgra, opts, &Tracer::new(ring.clone()), baseline);
        (compiled, ring.drain())
    }

    /// Every kernel on 4x4 and on 8x8/p2: the baseline search beside the
    /// constrained one (on a pool worker, and on an idle core when there
    /// is one) gives the same mappings, schedule, plans and profile, and
    /// the same events, as running it first.
    #[test]
    fn side_by_side_matches_one_then_the_other() {
        let opts = MapOptions::default();
        for cgra in [CgraConfig::square(4), cgra_arch::fabric(8, 2).unwrap()] {
            for kernel in cgra_dfg::kernels::all() {
                let why = format!("{} on {} pages", kernel.name, cgra.layout().num_pages());
                let (want, want_events) = recorded(&kernel, &cgra, &opts, Baseline::First);
                let want = format!("{:?}", want.expect("compiles"));
                for baseline in [Baseline::Beside, Baseline::OnIdleCore] {
                    let (got, events) = recorded(&kernel, &cgra, &opts, baseline);
                    let why = format!("{why}, baseline {baseline:?}");
                    assert_eq!(format!("{:?}", got.expect("compiles")), want, "{why}");
                    assert_eq!(events, want_events, "{why}");
                }
            }
        }
    }

    /// mpeg2 on 4x4 with one attempt at the MII: the baseline search
    /// fails and the constrained one maps (after spilling). Beside it or
    /// first, the compile returns the baseline's error with its events
    /// only.
    #[test]
    fn a_failed_baseline_search_returns_its_error_and_its_events_only() {
        let cgra = CgraConfig::square(4);
        let kernel = cgra_dfg::kernels::mpeg2();
        let opts = MapOptions {
            max_ii_slack: 0,
            restarts: 1,
            ..MapOptions::default()
        };
        assert!(cgra_mapper::map_constrained(&kernel, &cgra, &opts).is_ok());
        let (want, want_events) = recorded(&kernel, &cgra, &opts, Baseline::First);
        let want = want.expect_err("the baseline search fails");
        let (got, events) = recorded(&kernel, &cgra, &opts, Baseline::Beside);
        assert_eq!(got.expect_err("the baseline search fails"), want);
        assert_eq!(events, want_events);
        let modes: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::MapBegin { mode, .. } => Some(mode.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(modes, ["Baseline"], "no constrained-search events");
    }

    /// A side-by-side baseline job that panics reaches the caller with
    /// its own payload, as the serial order would raise it; no core stays
    /// held, and the next compile of the kernel is the serial order's.
    #[test]
    fn a_panicking_baseline_job_reraises_its_payload_and_leaves_the_budget_whole() {
        let cgra = CgraConfig::square(4);
        let kernel = cgra_dfg::kernels::fir();
        let opts = MapOptions::default();
        let (want, _) = recorded(&kernel, &cgra, &opts, Baseline::First);
        let want = format!("{:?}", want.expect("compiles"));
        PANIC_BASELINE.set(true);
        let payload = std::panic::catch_unwind(|| {
            Compiled::compile(&kernel, &cgra, &opts, &Tracer::off(), Baseline::Beside)
        })
        .map(|_| ())
        .expect_err("the baseline job panicked");
        PANIC_BASELINE.set(false);
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"baseline"));
        // Other tests hold cores for a while at most; a core the unwind
        // left held never comes back.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while cores::idle() != cores::available() {
            assert!(std::time::Instant::now() < deadline, "a core stays held");
            std::thread::yield_now();
        }
        let (got, _) = recorded(&kernel, &cgra, &opts, Baseline::Beside);
        assert_eq!(format!("{:?}", got.expect("compiles")), want);
    }

    #[test]
    fn halving_chains() {
        assert_eq!(halving_chain(16), vec![16, 8, 4, 2, 1]);
        assert_eq!(halving_chain(9), vec![9, 4, 2, 1]);
        assert_eq!(halving_chain(4), vec![4, 2, 1]);
        assert_eq!(halving_chain(1), vec![1]);
    }

    #[test]
    fn profile_compiles_for_mpeg2_on_4x4() {
        let cgra = CgraConfig::square(4);
        let p = KernelProfile::compile(&cgra_dfg::kernels::mpeg2(), &cgra, &MapOptions::default())
            .expect("compiles");
        assert!(p.ii_constrained >= p.ii_baseline);
        assert!(p.used_pages >= 1 && p.used_pages <= 4);
        // Rates weakly degrade as pages shrink.
        let iis: Vec<u32> = p.ii_by_pages.iter().map(|&(_, ii)| ii).collect();
        for w in iis.windows(2) {
            assert!(w[1] >= w[0], "rates not monotone: {iis:?}");
        }
        // One page executes the used pages sequentially.
        let one = p.try_ii_at(1).expect("1 is on every halving chain");
        assert!(one >= p.ii_constrained * p.used_pages as u32 / 2);
    }

    #[test]
    fn wanted_pages_covers_footprint() {
        let cgra = CgraConfig::square(4);
        let p = KernelProfile::compile(&cgra_dfg::kernels::sor(), &cgra, &MapOptions::default())
            .expect("compiles");
        let want = p.wanted_pages(4);
        assert!(want >= p.used_pages);
        assert!(halving_chain(4).contains(&want));
    }

    #[test]
    fn wanted_pages_is_the_least_chain_budget_covering_the_footprint() {
        for n in 0..=64u16 {
            for used in 0..=n + 1 {
                let p = KernelProfile {
                    name: String::new(),
                    ii_baseline: 1,
                    ii_constrained: 1,
                    used_pages: used,
                    ii_by_pages: Vec::new(),
                };
                let chain_filter = halving_chain(n)
                    .into_iter()
                    .filter(|&m| m >= used)
                    .min()
                    .unwrap_or(n);
                assert_eq!(p.wanted_pages(n), chain_filter, "n={n} used={used}");
            }
        }
    }

    #[test]
    fn try_ii_at_off_chain_is_none() {
        let cgra = CgraConfig::square(4);
        let p =
            KernelProfile::compile(&cgra_dfg::kernels::laplace(), &cgra, &MapOptions::default())
                .expect("compiles");
        assert_eq!(p.try_ii_at(3), None);
    }
}
