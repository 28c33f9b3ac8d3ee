//! Shared, optionally disk-backed dictionary caching for serving
//! workloads.
//!
//! A diagnosis *server* answers thousands of `signature → candidates`
//! lookups against a handful of distinct `(universe, program, poly)`
//! configurations. Building a [`FaultDictionary`] simulates the whole
//! universe — milliseconds to minutes — while a lookup is one hash
//! probe; the gap is what [`DictionaryStore`] closes: every distinct
//! configuration is built **once**, `Arc`-shared between all concurrent
//! readers, optionally persisted to disk so a restart pays a file read
//! instead of a re-simulation, and every prefix compression of it is
//! cached as a cheap re-index of the shared observations.
//!
//! Cache keys are [`FaultDictionary::fingerprint`] values — the hash of
//! everything that determines the observation table — so two requests
//! collide exactly when their dictionaries would be bit-identical, and a
//! foreign or stale disk file is *refused* (fingerprint mismatch), never
//! silently adopted. There is no invalidation protocol beyond that: a
//! changed universe, program or polynomial changes the fingerprint,
//! which is a different key and a different file.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::{DiagError, FaultDictionary};
use prt_gf::Poly2;
use prt_ram::{FaultUniverse, TestProgram};
use prt_sim::Parallelism;

/// A concurrent cache of built dictionaries, keyed by
/// [`FaultDictionary::fingerprint`], with an optional disk tier.
///
/// # Example
///
/// ```
/// use prt_diag::DictionaryStore;
/// use prt_gf::Poly2;
/// use prt_march::{library, Executor};
/// use prt_ram::{FaultUniverse, Geometry, UniverseSpec};
/// use prt_sim::Parallelism;
///
/// let geom = Geometry::bom(8);
/// let universe = FaultUniverse::enumerate(geom, &UniverseSpec::single_cell());
/// let program = Executor::new().compile(&library::march_diag(), geom);
/// let poly = Poly2::from_bits(0b1_0001_1011);
///
/// let store = DictionaryStore::in_memory();
/// let first = store.get_or_build(&universe, &program, poly, Parallelism::Auto)?;
/// let second = store.get_or_build(&universe, &program, poly, Parallelism::Auto)?;
/// assert!(std::sync::Arc::ptr_eq(&first, &second)); // one probe, zero rebuilds
/// assert_eq!(store.builds(), 1);
/// # Ok::<(), prt_diag::DiagError>(())
/// ```
#[derive(Debug)]
pub struct DictionaryStore {
    /// Disk tier: `dict-{fingerprint:016x}.ckpt` files under this
    /// directory, in the [`FaultDictionary::persist`] format. `None`
    /// keeps the store purely in-memory.
    dir: Option<PathBuf>,
    /// Full-signature dictionaries by fingerprint.
    full: Mutex<HashMap<u64, Arc<FaultDictionary>>>,
    /// Prefix compressions by `(fingerprint, bits)` — re-indexes of the
    /// shared observations, never separate simulations.
    compressed: Mutex<HashMap<(u64, u32), Arc<FaultDictionary>>>,
    /// Universe simulations actually run — the build-counter hook the
    /// cache tests (and the service's cache-health reporting) assert
    /// against. Loads from disk do **not** count.
    builds: AtomicUsize,
}

impl DictionaryStore {
    /// A store with no disk tier: dictionaries live as long as the store.
    pub fn in_memory() -> DictionaryStore {
        DictionaryStore {
            dir: None,
            full: Mutex::new(HashMap::new()),
            compressed: Mutex::new(HashMap::new()),
            builds: AtomicUsize::new(0),
        }
    }

    /// A store persisting every built dictionary under `dir` (created on
    /// first persist). A later store — e.g. after a service restart —
    /// pointed at the same directory reloads instead of rebuilding.
    pub fn persistent(dir: impl Into<PathBuf>) -> DictionaryStore {
        DictionaryStore { dir: Some(dir.into()), ..DictionaryStore::in_memory() }
    }

    /// Number of real universe simulations this store has run. A cache
    /// hit — memory or disk — leaves the counter unchanged, which is the
    /// observable tests use to prove "repeated query ⇒ no rebuild".
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// The disk path for `fingerprint`, when a disk tier is configured.
    fn disk_path(&self, fingerprint: u64) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("dict-{fingerprint:016x}.ckpt")))
    }

    /// The dictionary for `(universe, program, poly)`: from memory when
    /// already resident, else from disk when a persisted file matches,
    /// else built (and persisted, when a disk tier is configured). The
    /// returned `Arc` is shared — every concurrent caller of the same
    /// configuration gets the same allocation.
    ///
    /// Misses are serialized per store (the build happens under the map
    /// lock), so a thundering herd of identical first-time queries runs
    /// **one** simulation, not one per caller.
    ///
    /// # Errors
    ///
    /// [`DiagError::Lfsr`] for a degenerate `poly`;
    /// [`DiagError::Checkpoint`] when the disk tier holds a corrupt file
    /// for this fingerprint or a persist fails.
    ///
    /// # Panics
    ///
    /// As [`FaultDictionary::build`] on a universe/program geometry
    /// mismatch.
    pub fn get_or_build(
        &self,
        universe: &FaultUniverse,
        program: &TestProgram,
        poly: Poly2,
        parallelism: Parallelism,
    ) -> Result<Arc<FaultDictionary>, DiagError> {
        let fingerprint = FaultDictionary::fingerprint(universe, program, poly);
        self.full_dictionary(fingerprint, universe, program, poly, parallelism)
    }

    /// [`DictionaryStore::get_or_build`] for the caller that already
    /// holds the configuration's `fingerprint`, which formats every fault
    /// of the universe and is too dear to compute twice per lookup.
    fn full_dictionary(
        &self,
        fingerprint: u64,
        universe: &FaultUniverse,
        program: &TestProgram,
        poly: Poly2,
        parallelism: Parallelism,
    ) -> Result<Arc<FaultDictionary>, DiagError> {
        let mut full = self.full.lock().expect("dictionary store lock");
        if let Some(dict) = full.get(&fingerprint) {
            return Ok(Arc::clone(dict));
        }
        if let Some(path) = self.disk_path(fingerprint) {
            if let Some(dict) = FaultDictionary::load(universe, program, poly, &path)? {
                let dict = Arc::new(dict);
                full.insert(fingerprint, Arc::clone(&dict));
                return Ok(dict);
            }
        }
        let dict = FaultDictionary::build(universe, program, poly, parallelism)?;
        self.builds.fetch_add(1, Ordering::Relaxed);
        if let Some(path) = self.disk_path(fingerprint) {
            if let Some(parent) = path.parent() {
                // Best-effort: a failed create surfaces as the persist
                // error below, with the path in it.
                let _ = std::fs::create_dir_all(parent);
            }
            dict.persist(&path)?;
        }
        let dict = Arc::new(dict);
        full.insert(fingerprint, Arc::clone(&dict));
        Ok(dict)
    }

    /// The `bits`-bit prefix compression of the `(universe, program,
    /// poly)` dictionary, cached by `(fingerprint, bits)`. The full
    /// dictionary is resolved through [`DictionaryStore::get_or_build`]
    /// first (possibly building it); the compression itself is a cheap
    /// re-index sharing the full dictionary's observations, so it never
    /// bumps [`DictionaryStore::builds`].
    ///
    /// # Errors
    ///
    /// As [`DictionaryStore::get_or_build`].
    ///
    /// # Panics
    ///
    /// As [`FaultDictionary::compress`] when `bits` is 0 or exceeds the
    /// MISR width.
    pub fn get_compressed(
        &self,
        universe: &FaultUniverse,
        program: &TestProgram,
        poly: Poly2,
        parallelism: Parallelism,
        bits: u32,
    ) -> Result<Arc<FaultDictionary>, DiagError> {
        let fingerprint = FaultDictionary::fingerprint(universe, program, poly);
        if let Some(dict) =
            self.compressed.lock().expect("dictionary store lock").get(&(fingerprint, bits))
        {
            return Ok(Arc::clone(dict));
        }
        let full = self.full_dictionary(fingerprint, universe, program, poly, parallelism)?;
        let dict = Arc::new(full.compress(bits));
        self.compressed
            .lock()
            .expect("dictionary store lock")
            .insert((fingerprint, bits), Arc::clone(&dict));
        Ok(dict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prt_march::{library, Executor};
    use prt_ram::{Geometry, UniverseSpec};

    fn poly8() -> Poly2 {
        Poly2::from_bits(0b1_0001_1011)
    }

    fn fixture() -> (FaultUniverse, TestProgram) {
        let geom = Geometry::bom(8);
        let universe = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
        let program = Executor::new().compile(&library::march_diag(), geom);
        (universe, program)
    }

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("prt-diag-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn repeated_query_shares_one_build() {
        let (universe, program) = fixture();
        let store = DictionaryStore::in_memory();
        let a = store.get_or_build(&universe, &program, poly8(), Parallelism::Auto).unwrap();
        let b = store.get_or_build(&universe, &program, poly8(), Parallelism::Auto).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "repeat query must share the allocation");
        assert_eq!(store.builds(), 1, "repeat query must not rebuild");
        // A different polynomial is a different fingerprint: real build.
        let c = store
            .get_or_build(&universe, &program, Poly2::from_bits(0b1_1000_0011), Parallelism::Auto)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(store.builds(), 2);
    }

    #[test]
    fn compressions_are_cached_and_free() {
        let (universe, program) = fixture();
        let store = DictionaryStore::in_memory();
        let c4 = store.get_compressed(&universe, &program, poly8(), Parallelism::Auto, 4).unwrap();
        assert_eq!(c4.prefix_bits(), Some(4));
        assert_eq!(store.builds(), 1, "compression builds the full dictionary once");
        let again =
            store.get_compressed(&universe, &program, poly8(), Parallelism::Auto, 4).unwrap();
        assert!(Arc::ptr_eq(&c4, &again));
        let c6 = store.get_compressed(&universe, &program, poly8(), Parallelism::Auto, 6).unwrap();
        assert_eq!(c6.prefix_bits(), Some(6));
        assert_eq!(store.builds(), 1, "every width re-indexes the one simulation");
        // The widths share the underlying observations with the full
        // dictionary (Arc bumps, not copies).
        let full = store.get_or_build(&universe, &program, poly8(), Parallelism::Auto).unwrap();
        assert_eq!(c4.observations(), full.observations());
        assert_eq!(store.builds(), 1);
    }

    #[test]
    fn persistent_store_reloads_across_restarts() {
        let (universe, program) = fixture();
        let dir = temp_dir("reload");
        let first = DictionaryStore::persistent(&dir);
        let built = first.get_or_build(&universe, &program, poly8(), Parallelism::Auto).unwrap();
        assert_eq!(first.builds(), 1);
        // "Restart": a fresh store over the same directory loads the
        // persisted observations instead of re-simulating.
        let second = DictionaryStore::persistent(&dir);
        let loaded = second.get_or_build(&universe, &program, poly8(), Parallelism::Auto).unwrap();
        assert_eq!(second.builds(), 0, "disk hit must not count as a build");
        assert_eq!(loaded.observations(), built.observations());
        assert_eq!(loaded.stats(), built.stats());
        assert_eq!(loaded.reference(), built.reference());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_load_round_trip_is_bit_identical() {
        let (universe, program) = fixture();
        let dict = FaultDictionary::build(&universe, &program, poly8(), Parallelism::Auto).unwrap();
        let dir = temp_dir("roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dict.ckpt");
        dict.persist(&path).unwrap();
        let loaded = FaultDictionary::load(&universe, &program, poly8(), &path)
            .unwrap()
            .expect("persisted file must load");
        assert_eq!(loaded.observations(), dict.observations());
        assert_eq!(loaded.stats(), dict.stats());
        // A foreign configuration must refuse the file, loudly.
        let err =
            FaultDictionary::load(&universe, &program, Poly2::from_bits(0b1_1000_0011), &path)
                .unwrap_err();
        assert!(matches!(err, DiagError::Checkpoint(_)), "expected refusal, got {err:?}");
        // Missing file: a cold Ok(None), not an error.
        assert!(FaultDictionary::load(&universe, &program, poly8(), dir.join("nope.ckpt"))
            .unwrap()
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
