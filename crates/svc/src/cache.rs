//! The compiled-program cache.
//!
//! Compiling a March test to a [`TestProgram`] walks the notation once
//! per `(test, geometry, background)` — cheap, but a busy server sees
//! the same handful of configurations thousands of times, and concurrent
//! jobs would otherwise each recompile. [`ProgramCache`] compiles each
//! key **once** and `Arc`-shares the program with every job that needs
//! it; cached programs are the *same allocation*, so
//! "cached verdicts equal freshly-compiled verdicts" holds by
//! construction and is additionally asserted over the wire in
//! `tests/service.rs`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use prt_march::{Executor, MarchTest};
use prt_ram::{Geometry, TestProgram};

/// A concurrent `(test name, geometry, background) → compiled program`
/// cache with a compile counter (the cache-health observable the service
/// smoke tests assert against).
#[derive(Debug, Default)]
pub struct ProgramCache {
    programs: Mutex<HashMap<(String, Geometry, u64), Arc<TestProgram>>>,
    compiles: AtomicUsize,
}

impl ProgramCache {
    /// An empty cache.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// Number of real compilations this cache has run; a cache hit
    /// leaves the counter unchanged.
    pub fn compiles(&self) -> usize {
        self.compiles.load(Ordering::Relaxed)
    }

    /// The compiled program for `(test, geom, background)` — compiled on
    /// first request, shared (`Arc`) afterwards.
    pub fn get(&self, test: &MarchTest, geom: Geometry, background: u64) -> Arc<TestProgram> {
        let key = (test.name().to_string(), geom, background);
        let mut map = self.programs.lock().expect("program cache lock");
        if let Some(program) = map.get(&key) {
            return Arc::clone(program);
        }
        let program = Arc::new(Executor::new().with_background(background).compile(test, geom));
        self.compiles.fetch_add(1, Ordering::Relaxed);
        map.insert(key, Arc::clone(&program));
        Arc::clone(&program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prt_march::library;
    use prt_ram::{FaultUniverse, UniverseSpec};
    use prt_sim::{Campaign, ProgramBank};

    #[test]
    fn repeat_get_shares_one_compile() {
        let cache = ProgramCache::new();
        let geom = Geometry::bom(16);
        let a = cache.get(&library::march_c_minus(), geom, 0);
        let b = cache.get(&library::march_c_minus(), geom, 0);
        assert!(Arc::ptr_eq(&a, &b), "repeat get must share the allocation");
        assert_eq!(cache.compiles(), 1);
        // Different background, geometry or test ⇒ different key.
        cache.get(&library::march_c_minus(), geom, 1);
        cache.get(&library::march_c_minus(), Geometry::bom(8), 0);
        cache.get(&library::mats_plus(), geom, 0);
        assert_eq!(cache.compiles(), 4);
    }

    #[test]
    fn cached_programs_match_fresh_compilation() {
        // Bit-identical verdicts: a campaign driven by cache-shared
        // programs equals one driven by freshly compiled programs.
        let geom = Geometry::bom(12);
        let universe = FaultUniverse::enumerate(geom, &UniverseSpec::full());
        let cache = ProgramCache::new();
        let backgrounds = [0u64, 0b1];
        let bank = ProgramBank::new(
            backgrounds.map(|bg| (bg, cache.get(&library::march_c_minus(), geom, bg))),
        );
        let cached = Campaign::new(&universe, &bank).with_backgrounds(&backgrounds).detections();
        let fresh_bank = ProgramBank::new(backgrounds.map(|bg| {
            (bg, Executor::new().with_background(bg).compile(&library::march_c_minus(), geom))
        }));
        let fresh =
            Campaign::new(&universe, &fresh_bank).with_backgrounds(&backgrounds).detections();
        assert_eq!(cached, fresh);
        assert_eq!(cache.compiles(), backgrounds.len());
    }
}
