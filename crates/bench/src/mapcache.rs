//! Content-keyed mapping / II-table cache.
//!
//! Compiling a kernel — baseline mapping, constrained mapping, and the
//! PageMaster transform at every halving-chain budget — is the expensive
//! step of both figure sweeps, and the grids revisit identical
//! `(kernel, fabric, options)` configurations constantly. This cache
//! computes each [`KernelProfile`] **once per process** and optionally
//! persists it to `target/mapcache/*.json` so later runs skip the mapper
//! entirely.
//!
//! ## Keying and invalidation
//!
//! An entry is keyed by the *content* of everything that determines the
//! result:
//!
//! * the kernel's structural fingerprint ([`cgra_dfg::Dfg::fingerprint`]
//!   — name, ops, edges; a kernel edit changes the key),
//! * the fabric geometry (`dim`, `page_size`),
//! * the mapper option fingerprint ([`cgra_mapper::MapOptions::fingerprint`]
//!   — any knob change, including the search seed, changes the key),
//! * a format version ([`SCHEMA`]), bumped whenever the mapper or
//!   transform *algorithms* change meaning — the one hazard content
//!   keys cannot see. Bump it in the same commit as such a change.
//!
//! Stale, corrupt, truncated or unreadable disk entries are never
//! errors: the profile recomputes and the entry is rewritten. A kernel
//! that does not compile is: [`MapCache::profile`] returns the mapper's
//! [`MapError`] and [`MapCache::library`] a [`CompileError`] naming the
//! kernel and the fabric. Both are kept in memory like a profile, and
//! never written to disk. Delete
//! `target/mapcache/` to force a cold run; `--no-cache` selects a
//! memory-only cache, which neither reads nor writes the disk.
//!
//! ## Concurrency
//!
//! Reads go through an `RwLock`ed map of per-key `OnceLock` cells:
//! many sweep workers can hit the cache concurrently, and when several
//! miss the same key at once exactly one computes while the rest block
//! on the cell — no duplicated mapper work, no torn disk writes (files
//! are written to a temp name and renamed into place).

use crate::engine::EngineConfig;
use cgra_arch::CgraConfig;
use cgra_dfg::Dfg;
use cgra_mapper::{MapError, MapOptions};
use cgra_obs::jsonio::Json;
use cgra_obs::Tracer;
use cgra_sim::{Compiled, KernelLibrary, KernelProfile};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// On-disk format version. Bump when mapper/transform semantics change
/// in ways a content key cannot capture; old entries are then ignored.
pub const SCHEMA: u32 = 1;

/// Cache-hit counters (all monotone; read with [`MapCache::stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Served from memory.
    pub mem_hits: u64,
    /// Served from a valid disk entry.
    pub disk_hits: u64,
    /// Computed from scratch.
    pub misses: u64,
    /// Disk entries that existed but were rejected (corrupt, stale
    /// schema, key mismatch) and recomputed.
    pub disk_rejects: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    kernel: String,
    dfg_fp: u64,
    dim: u16,
    page_size: usize,
    opts_fp: u64,
}

impl Key {
    /// Stable digest used in the cache file name.
    fn digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(self.kernel.as_bytes());
        eat(&self.dfg_fp.to_le_bytes());
        eat(&self.dim.to_le_bytes());
        eat(&(self.page_size as u64).to_le_bytes());
        eat(&self.opts_fp.to_le_bytes());
        h
    }

    fn file_name(&self) -> String {
        format!(
            "profile-{}-{}x{}-p{}-{:016x}.json",
            self.kernel,
            self.dim,
            self.dim,
            self.page_size,
            self.digest()
        )
    }
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
pub struct MapCache {
    profiles: Table<Key, KernelProfile, MapError>,
    libraries: Table<(u16, usize, u64), KernelLibrary, CompileError>,
    /// `None` = memory only; `Some(dir)` = also read/write JSON entries.
    disk_dir: Option<PathBuf>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    disk_rejects: AtomicU64,
}

impl std::fmt::Debug for MapCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapCache")
            .field("disk_dir", &self.disk_dir)
            .field("stats", &self.stats())
            .finish()
    }
}

impl MapCache {
    fn with(disk_dir: Option<PathBuf>) -> Self {
        MapCache {
            profiles: RwLock::new(HashMap::new()),
            libraries: RwLock::new(HashMap::new()),
            disk_dir,
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_rejects: AtomicU64::new(0),
        }
    }

    /// Memory-only cache (the default for tests and library use).
    pub fn in_memory() -> Self {
        Self::with(None)
    }

    /// Cache persisted under `dir` (created on first write).
    pub fn persistent_at(dir: impl Into<PathBuf>) -> Self {
        Self::with(Some(dir.into()))
    }

    /// The cache a sweep binary runs on: persisted under
    /// `$CGRA_MAPCACHE_DIR` if set, else `target/mapcache` relative to the
    /// working directory, and memory-only under `--no-cache`.
    pub fn for_config(cfg: EngineConfig) -> Self {
        Self::with(cfg.use_cache.then(|| {
            std::env::var_os("CGRA_MAPCACHE_DIR")
                .map_or_else(|| PathBuf::from("target/mapcache"), PathBuf::from)
        }))
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_rejects: self.disk_rejects.load(Ordering::Relaxed),
        }
    }

    /// The compiled profile for `dfg` on a `dim × dim` fabric with
    /// `page_size`-PE pages under `opts` — computed at most once per
    /// process per key.
    ///
    /// A compilation emits its mapper and transform events to `tracer`.
    /// Cache hits (memory or disk) emit nothing: the events describe a
    /// search, and a hit means no search ran. When calls race on one
    /// key, the events go to the tracer of the call that compiles, so a
    /// parallel sweep that wants a reproducible trace gives each key to
    /// one numbered batch ([`cgra_obs::InOrder`]).
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
        let dim = mesh_dim(cgra);
        let key = Key {
            kernel: dfg.name.clone(),
            dfg_fp: dfg.fingerprint(),
            dim,
            page_size: cgra.layout().shape().size(),
            opts_fp: opts.fingerprint(),
        };
        let cell = cell(&self.profiles, &key);
        if let Some(hit) = cell.get() {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        cell.get_or_init(|| {
            if let Some(profile) = self.load(&key) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::new(profile));
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            let profile = Compiled::new(dfg, cgra, opts, tracer)?.into_profile(cgra);
            self.store(&key, &profile);
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
        cell(&self.libraries, &(dim, page_size, opts.fingerprint()))
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

    /// Best-effort disk read; any failure (missing, corrupt, stale) is a
    /// miss, never an error.
    fn load(&self, key: &Key) -> Option<KernelProfile> {
        let dir = self.disk_dir.as_ref()?;
        let path = dir.join(key.file_name());
        let text = std::fs::read_to_string(&path).ok()?;
        match parse_entry(&text, key) {
            Some(profile) => Some(profile),
            None => {
                self.disk_rejects.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Best-effort atomic disk write (temp file + rename); failures are
    /// reported on stderr and otherwise ignored.
    fn store(&self, key: &Key, profile: &KernelProfile) {
        let Some(dir) = self.disk_dir.as_ref() else {
            return;
        };
        if let Err(e) = write_entry(dir, key, profile) {
            eprintln!("mapcache: could not persist {}: {e}", key.file_name());
        }
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

fn u64_json(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn u64_from(j: Option<&Json>) -> Option<u64> {
    u64::from_str_radix(j?.as_str()?, 16).ok()
}

fn write_entry(dir: &Path, key: &Key, profile: &KernelProfile) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let doc = Json::obj([
        ("schema", Json::Int(SCHEMA as i64)),
        ("kernel", Json::Str(key.kernel.clone())),
        ("dfg_fp", u64_json(key.dfg_fp)),
        ("dim", Json::Int(key.dim as i64)),
        ("page_size", Json::Int(key.page_size as i64)),
        ("opts_fp", u64_json(key.opts_fp)),
        ("profile", profile_to_json(profile)),
    ]);
    let path = dir.join(key.file_name());
    let tmp = dir.join(format!(".{}.tmp-{}", key.file_name(), std::process::id()));
    std::fs::write(&tmp, doc.pretty())?;
    std::fs::rename(&tmp, &path)
}

fn parse_entry(text: &str, key: &Key) -> Option<KernelProfile> {
    let doc = Json::parse(text).ok()?;
    // Every key component must match; a mismatch means a digest
    // collision or a hand-edited file — reject either way.
    (doc.get("schema")?.as_int()? == SCHEMA as i64).then_some(())?;
    (doc.get("kernel")?.as_str()? == key.kernel).then_some(())?;
    (u64_from(doc.get("dfg_fp"))? == key.dfg_fp).then_some(())?;
    (doc.get("dim")?.as_int()? == key.dim as i64).then_some(())?;
    (doc.get("page_size")?.as_int()? == key.page_size as i64).then_some(())?;
    (u64_from(doc.get("opts_fp"))? == key.opts_fp).then_some(())?;
    let profile = profile_from_json(doc.get("profile")?)?;
    // Key match only proves the entry is *for* this request; the profile
    // itself may still have been corrupted on disk. Re-derive its
    // invariants before trusting it.
    let n = (key.dim as usize * key.dim as usize / key.page_size) as u16;
    let report = cgra_analyze::analyze_profile(
        &profile.name,
        profile.ii_baseline,
        profile.ii_constrained,
        profile.used_pages,
        &profile.ii_by_pages,
        n,
    );
    (!report.has_errors()).then_some(profile)
}

/// Explicit JSON encoding of a [`KernelProfile`] (the workspace `serde`
/// is an offline marker shim — see `crates/serde`).
pub fn profile_to_json(p: &KernelProfile) -> Json {
    Json::obj([
        ("name", Json::Str(p.name.clone())),
        ("ii_baseline", Json::Int(p.ii_baseline as i64)),
        ("ii_constrained", Json::Int(p.ii_constrained as i64)),
        ("used_pages", Json::Int(p.used_pages as i64)),
        (
            "ii_by_pages",
            Json::Arr(
                p.ii_by_pages
                    .iter()
                    .map(|&(m, ii)| Json::Arr(vec![Json::Int(m as i64), Json::Int(ii as i64)]))
                    .collect(),
            ),
        ),
    ])
}

/// Inverse of [`profile_to_json`]; `None` on any shape or range error.
pub fn profile_from_json(j: &Json) -> Option<KernelProfile> {
    let int = |name: &str| j.get(name)?.as_int();
    let ii_by_pages = j
        .get("ii_by_pages")?
        .as_arr()?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            Some((
                u16::try_from(pair[0].as_int()?).ok()?,
                u32::try_from(pair[1].as_int()?).ok()?,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(KernelProfile {
        name: j.get("name")?.as_str()?.to_string(),
        ii_baseline: u32::try_from(int("ii_baseline")?).ok()?,
        ii_constrained: u32::try_from(int("ii_constrained")?).ok()?,
        used_pages: u16::try_from(int("used_pages")?).ok()?,
        ii_by_pages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::fabric;

    fn sample_profile() -> KernelProfile {
        KernelProfile {
            name: "k".into(),
            ii_baseline: 2,
            ii_constrained: 3,
            used_pages: 2,
            ii_by_pages: vec![(4, 3), (2, 5), (1, 9)],
        }
    }

    #[test]
    fn profile_json_round_trip() {
        let p = sample_profile();
        assert_eq!(profile_from_json(&profile_to_json(&p)), Some(p));
    }

    /// A kernel that does not compile is a typed error, not a panic.
    /// 8×8/p2 `swim` has MII 2, while its baseline search needs II 3 and
    /// its constrained one II 11; with no II slack, one restart and no
    /// spill round, its profile is the mapper's error, kept in memory
    /// like a profile, and the fabric's library names the first kernel
    /// that fails and the fabric.
    #[test]
    fn unmappable_kernel_is_a_typed_error() {
        let cache = MapCache::in_memory();
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
        let cache = MapCache::in_memory();
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
    fn disk_round_trip_and_corruption_fallback() {
        let dir = std::env::temp_dir().join(format!("mapcache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fabric = fabric(4, 4).unwrap();
        let opts = MapOptions::default();
        let k = cgra_dfg::kernels::fir();

        let first = MapCache::persistent_at(&dir);
        let computed = first.profile(&k, &fabric, &opts, &Tracer::off()).unwrap();
        assert_eq!(first.stats().misses, 1);

        // A fresh cache instance must serve the same profile from disk.
        let second = MapCache::persistent_at(&dir);
        let loaded = second.profile(&k, &fabric, &opts, &Tracer::off()).unwrap();
        assert_eq!(*computed, *loaded);
        assert_eq!(second.stats().disk_hits, 1);
        assert_eq!(second.stats().misses, 0);

        // Corrupt every entry: the cache must recompute, not error.
        for entry in std::fs::read_dir(&dir).unwrap() {
            std::fs::write(entry.unwrap().path(), "{not json").unwrap();
        }
        let third = MapCache::persistent_at(&dir);
        let recomputed = third.profile(&k, &fabric, &opts, &Tracer::off()).unwrap();
        assert_eq!(*computed, *recomputed);
        let s = third.stats();
        assert_eq!((s.misses, s.disk_rejects), (1, 1));

        // And the rewrite healed the entry.
        let fourth = MapCache::persistent_at(&dir);
        fourth.profile(&k, &fabric, &opts, &Tracer::off()).unwrap();
        assert_eq!(fourth.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_from_a_crashed_writer_is_rejected_and_recomputed() {
        // The crash-safety contract: entries are written to a temp name
        // and renamed into place, so a visible entry is either whole or
        // absent. This test models the failure the contract defends
        // against — a file cut off mid-write — and checks the read path
        // treats it as a miss, not an error, even with a stale temp file
        // from the dead writer still sitting in the directory.
        let dir = std::env::temp_dir().join(format!("mapcache-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fabric = fabric(4, 4).unwrap();
        let opts = MapOptions::default();
        let k = cgra_dfg::kernels::fir();

        let first = MapCache::persistent_at(&dir);
        let computed = first.profile(&k, &fabric, &opts, &Tracer::off()).unwrap();

        // Truncate every entry mid-file and plant a stale temp file, as
        // a writer killed between `write` and `rename` would leave.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.len() > 16, "entry must be long enough to truncate");
            std::fs::write(&path, &text[..text.len() / 2]).unwrap();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            std::fs::write(dir.join(format!(".{name}.tmp-0")), &text[..8]).unwrap();
        }

        // The sweep must recompute, not fail.
        let second = MapCache::persistent_at(&dir);
        let recomputed = second.profile(&k, &fabric, &opts, &Tracer::off()).unwrap();
        assert_eq!(*computed, *recomputed);
        let s = second.stats();
        assert_eq!((s.misses, s.disk_rejects), (1, 1));

        // The recompute healed the entry in place; the stale temp file
        // is inert (it is never a cache key) and must not be served.
        let third = MapCache::persistent_at(&dir);
        assert_eq!(
            *computed,
            *third.profile(&k, &fabric, &opts, &Tracer::off()).unwrap()
        );
        assert_eq!(third.stats().disk_hits, 1);
        assert_eq!(third.stats().disk_rejects, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn semantically_corrupt_entry_is_rejected_by_the_analyzer() {
        // Well-formed JSON with matching key fields, but a profile whose
        // numbers an analyzer pass can prove wrong: only the semantic
        // check in `parse_entry` can catch this.
        let dir = std::env::temp_dir().join(format!("mapcache-sem-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fabric = fabric(4, 4).unwrap();
        let opts = MapOptions::default();
        let k = cgra_dfg::kernels::fir();

        let first = MapCache::persistent_at(&dir);
        let computed = first.profile(&k, &fabric, &opts, &Tracer::off()).unwrap();

        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            // 99 used pages on a 4-page fabric — A405 on load.
            let broken = text.replace(
                &format!("\"used_pages\": {}", computed.used_pages),
                "\"used_pages\": 99",
            );
            assert_ne!(broken, text, "corruption must actually hit the entry");
            std::fs::write(&path, broken).unwrap();
        }

        let second = MapCache::persistent_at(&dir);
        let recomputed = second.profile(&k, &fabric, &opts, &Tracer::off()).unwrap();
        assert_eq!(*computed, *recomputed);
        let s = second.stats();
        assert_eq!((s.misses, s.disk_rejects), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn library_shares_profile_cache() {
        let cache = MapCache::in_memory();
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
        let cache = MapCache::in_memory();
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
