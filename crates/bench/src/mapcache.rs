//! Per-process mapping / II-table cache.
//!
//! Compiling a kernel — baseline mapping, constrained mapping, and the
//! PageMaster transform at every halving-chain budget — is the expensive
//! step of both figure sweeps, and the grids revisit identical
//! `(kernel, fabric, options)` configurations constantly. This cache
//! computes each [`KernelProfile`] and each fabric's [`KernelLibrary`]
//! **once per process**, in memory: every run compiles afresh, so no
//! result outlives the code that computed it.
//!
//! An entry is keyed by everything that determines the result: the
//! kernel's structural fingerprint ([`cgra_dfg::Dfg::fingerprint`] —
//! name, ops, edges), the fabric geometry (`dim`, `page_size`) and the
//! [`MapOptions`] (every knob, including the search seed).
//!
//! A kernel that does not compile is an error: [`MapCache::profile`]
//! returns the mapper's [`MapError`] and [`MapCache::library`] a
//! [`CompileError`] naming the kernel and the fabric. Both are kept like
//! a profile, so a later lookup returns them without compiling again.
//!
//! ## Concurrency
//!
//! Reads go through an `RwLock`ed map of per-key `OnceLock` cells:
//! many sweep workers can hit the cache concurrently, and when several
//! miss the same key at once exactly one computes while the rest block
//! on the cell — no duplicated mapper work.

use cgra_arch::CgraConfig;
use cgra_dfg::Dfg;
use cgra_mapper::{MapError, MapOptions};
use cgra_obs::Tracer;
use cgra_sim::{Compiled, KernelLibrary, KernelProfile};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Cache-hit counters (all monotone; read with [`MapCache::stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Served from memory.
    pub mem_hits: u64,
    /// Computed from scratch.
    pub misses: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    dfg_fp: u64,
    dim: u16,
    page_size: usize,
    opts: MapOptions,
}

/// A kernel that does not compile on a fabric: what a sweep reports
/// when it cannot build a fabric's [`KernelLibrary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// The kernel's name.
    pub kernel: String,
    /// The fabric's side length.
    pub dim: u16,
    /// PEs per page.
    pub page_size: usize,
    /// Why the compilation failed.
    pub error: MapError,
}

impl CompileError {
    /// `kernel` failed with `error` on `cgra`, named by its side length
    /// and page size.
    pub fn new(kernel: &Dfg, cgra: &CgraConfig, error: MapError) -> Self {
        CompileError {
            kernel: kernel.name.clone(),
            dim: mesh_dim(cgra),
            page_size: cgra.layout().shape().size(),
            error,
        }
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kernel {} does not compile on the {2}x{2} page-{3} fabric: {1}",
            self.kernel, self.error, self.dim, self.page_size
        )
    }
}

impl std::error::Error for CompileError {}

/// A once-computed outcome shared by every lookup of its key.
type Cell<T, E> = Arc<OnceLock<Result<Arc<T>, E>>>;

/// The cells of one kind of entry, by key.
type Table<K, T, E> = RwLock<HashMap<K, Cell<T, E>>>;

/// Process-wide cache of compiled kernel profiles and libraries.
#[derive(Debug, Default)]
pub struct MapCache {
    profiles: Table<Key, KernelProfile, MapError>,
    libraries: Table<(u16, usize, MapOptions), KernelLibrary, CompileError>,
    mem_hits: AtomicU64,
    misses: AtomicU64,
}

impl MapCache {
    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// The compiled profile for `dfg` on a `dim × dim` fabric with
    /// `page_size`-PE pages under `opts` — computed at most once per
    /// process per key.
    ///
    /// A compilation emits its mapper and transform events to `tracer`.
    /// Cache hits emit nothing: the events describe a search, and a hit
    /// means no search ran. When calls race on one key, the events go to
    /// the tracer of the call that compiles, so a parallel sweep that
    /// wants a reproducible trace gives each key to one numbered batch
    /// ([`cgra_obs::InOrder`]).
    ///
    /// # Errors
    /// The [`MapError`] of [`Compiled::new`] when the kernel does not
    /// compile under `opts`; a later lookup of the key returns it again
    /// without compiling.
    pub fn profile(
        &self,
        dfg: &Dfg,
        cgra: &CgraConfig,
        opts: &MapOptions,
        tracer: &Tracer,
    ) -> Result<Arc<KernelProfile>, MapError> {
        let key = Key {
            dfg_fp: dfg.fingerprint(),
            dim: mesh_dim(cgra),
            page_size: cgra.layout().shape().size(),
            opts: *opts,
        };
        let cell = cell(&self.profiles, &key);
        if let Some(hit) = cell.get() {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        cell.get_or_init(|| {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let profile = Compiled::new(dfg, cgra, opts, tracer)?.into_profile(cgra);
            Ok(Arc::new(profile))
        })
        .clone()
    }

    /// The full benchmark library for a fabric, assembled from (and
    /// sharing) the per-kernel profile cache; compilations emit to
    /// `tracer` in kernel order, as in [`MapCache::profile`].
    ///
    /// # Errors
    /// A [`CompileError`] naming the first kernel, in kernel order, that
    /// does not compile; the kernels after it are not compiled.
    pub fn library(
        &self,
        cgra: &CgraConfig,
        opts: &MapOptions,
        tracer: &Tracer,
    ) -> Result<Arc<KernelLibrary>, CompileError> {
        let (dim, page_size) = (mesh_dim(cgra), cgra.layout().shape().size());
        cell(&self.libraries, &(dim, page_size, *opts))
            .get_or_init(|| {
                let profiles = cgra_dfg::kernels::all()
                    .iter()
                    .map(|k| {
                        self.profile(k, cgra, opts, tracer)
                            .map(|profile| (*profile).clone())
                            .map_err(|error| CompileError::new(k, cgra, error))
                    })
                    .collect::<Result<_, _>>()?;
                Ok(Arc::new(KernelLibrary {
                    profiles,
                    num_pages: cgra.layout().num_pages() as u16,
                }))
            })
            .clone()
    }
}

/// The cell for `key`, inserted empty on first sight. Lookups take the
/// read lock; only a first sight takes the write lock.
fn cell<K: Clone + Eq + std::hash::Hash, T, E>(map: &Table<K, T, E>, key: &K) -> Cell<T, E> {
    if let Some(cell) = map.read().expect("cache lock").get(key) {
        return cell.clone();
    }
    map.write()
        .expect("cache lock")
        .entry(key.clone())
        .or_default()
        .clone()
}

fn mesh_dim(cgra: &CgraConfig) -> u16 {
    // All fabrics in this crate are square; recover the side length.
    (cgra.num_pes() as f64).sqrt().round() as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::fabric;

    /// A kernel that does not compile is a typed error, not a panic.
    /// 8×8/p2 `swim` has MII 2, while its baseline search needs II 3 and
    /// its constrained one II 11; with no II slack, one restart and no
    /// spill round, its profile is the mapper's error, kept in memory
    /// like a profile, and the fabric's library names the first kernel
    /// that fails and the fabric.
    #[test]
    fn unmappable_kernel_is_a_typed_error() {
        let cache = MapCache::default();
        let fabric = fabric(8, 2).unwrap();
        let opts = MapOptions {
            max_ii_slack: 0,
            restarts: 1,
            spill_rounds: 0,
            ..Default::default()
        };
        let swim = cgra_dfg::kernels::swim();
        let expected = MapError::NoScheduleFound {
            mii: 2,
            max_ii_tried: 2,
        };
        for _ in 0..2 {
            let err = cache.profile(&swim, &fabric, &opts, &Tracer::off());
            assert_eq!(err, Err(expected.clone()));
        }
        let s = cache.stats();
        assert_eq!((s.misses, s.mem_hits), (1, 1));
        // `mpeg2`, first in kernel order, already needs II 2 (MII 1).
        let err = cache.library(&fabric, &opts, &Tracer::off()).unwrap_err();
        assert_eq!(
            err,
            CompileError {
                kernel: "mpeg2".into(),
                dim: 8,
                page_size: 2,
                error: MapError::NoScheduleFound {
                    mii: 1,
                    max_ii_tried: 1
                },
            }
        );
        assert!(
            err.to_string()
                .starts_with("kernel mpeg2 does not compile on the 8x8 page-2 fabric: "),
            "{err}"
        );
    }

    #[test]
    fn memory_cache_computes_once() {
        let cache = MapCache::default();
        let fabric = fabric(4, 4).unwrap();
        let opts = MapOptions::default();
        let k = cgra_dfg::kernels::mpeg2();
        let a = cache.profile(&k, &fabric, &opts, &Tracer::off()).unwrap();
        let b = cache.profile(&k, &fabric, &opts, &Tracer::off()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.misses, s.mem_hits), (1, 1));
    }

    #[test]
    fn library_shares_profile_cache() {
        let cache = MapCache::default();
        let fabric = fabric(4, 4).unwrap();
        let opts = MapOptions::default();
        // Warm one kernel's profile, then build the library: only the
        // remaining kernels should be misses.
        cache
            .profile(&cgra_dfg::kernels::mpeg2(), &fabric, &opts, &Tracer::off())
            .unwrap();
        let lib = cache.library(&fabric, &opts, &Tracer::off()).unwrap();
        assert_eq!(lib.len(), cgra_dfg::kernels::all().len());
        assert_eq!(cache.stats().misses, lib.len() as u64);
        // Same Arc on the second library request.
        assert!(Arc::ptr_eq(
            &lib,
            &cache.library(&fabric, &opts, &Tracer::off()).unwrap()
        ));
    }

    #[test]
    fn different_opts_are_different_entries() {
        let cache = MapCache::default();
        let fabric = fabric(4, 4).unwrap();
        let k = cgra_dfg::kernels::sobel();
        cache
            .profile(&k, &fabric, &MapOptions::default(), &Tracer::off())
            .unwrap();
        cache
            .profile(&k, &fabric, &MapOptions::fast(), &Tracer::off())
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
    }
}
