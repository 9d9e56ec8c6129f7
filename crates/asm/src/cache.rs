//! Content-addressed, in-memory measurement cache.
//!
//! Verification re-measures the *same* compiled programs repeatedly —
//! once per served repeat request, once per re-verified edit that left
//! `main` alone, once per refinement sweep. A [`Measurement`] is a pure
//! function of `(program, entry function, arguments, stack size, fuel)`,
//! so it can be memoized under a content-addressed key:
//!
//! ```text
//! key = FNV-1a-128(program ‖ fname ‖ args ‖ sz ‖ fuel)
//! ```
//!
//! computed as the two [`Fnv64::pair`] streams over the `Hash` encoding
//! of the inputs (different offset bases, so a collision must defeat
//! both streams at once). The cache is `Sync` — a `Mutex` around a
//! plain `HashMap` — and the lock is never held across a machine run, so
//! the `sbound serve` workers share one cache. Hits and misses are
//! published as the `obs` counters `asm/cache_hit` / `asm/cache_miss` and
//! mirrored in [`MeasureCache::stats`] for harnesses that run without a
//! recorder installed.

use crate::{measure_function, AsmProgram, MachineError, Measurement};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A 64-bit FNV-1a stream, usable as a [`Hasher`] so keys can be fed
/// through `#[derive(Hash)]`.
///
/// The workspace's content keys are 128 bits wide: the two streams of
/// [`Fnv64::pair`] over the same bytes. This cache keys measurements that
/// way, and so does `vcache`, whose keys are persisted on disk.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The two streams of a 128-bit key: the standard FNV-1a offset
    /// basis, and a second basis that is the first hashed by itself. Any
    /// fixed distinct value works; the streams see the same bytes but
    /// never agree on state, so a collision must defeat both at once.
    pub fn pair() -> [Fnv64; 2] {
        [0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0142].map(|state| Fnv64 { state })
    }
}

impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(Fnv64::PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// The 128-bit composite content key of one measurement request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key(u64, u64);

fn key(program: &AsmProgram, fname: &str, args: &[u32], sz: u32, fuel: u64) -> Key {
    let [mut h1, mut h2] = Fnv64::pair();
    for h in [&mut h1, &mut h2] {
        program.hash(h);
        fname.hash(h);
        args.hash(h);
        sz.hash(h);
        fuel.hash(h);
    }
    Key(h1.finish(), h2.finish())
}

/// A thread-safe memo table for [`measure_function`] results.
///
/// # Examples
///
/// ```
/// use asm::{AsmFunction, AsmProgram, Instr, MeasureCache, Operand, Reg};
///
/// let f = AsmFunction::new("f", 0, vec![
///     Instr::Mov(Reg::Eax, Operand::Imm(3)),
///     Instr::Ret,
/// ]);
/// let prog = AsmProgram {
///     target: asm::Target::Sz32, globals: vec![], externals: vec![], functions: vec![f],
/// };
/// let cache = MeasureCache::new();
/// let a = cache.measure_function(&prog, "f", &[], 64, 1000).unwrap();
/// let b = cache.measure_function(&prog, "f", &[], 64, 1000).unwrap();
/// assert_eq!(a, b);
/// assert_eq!(cache.stats(), (1, 1)); // one hit, one miss
/// ```
#[derive(Default)]
pub struct MeasureCache {
    map: Mutex<HashMap<Key, Measurement>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MeasureCache {
    /// Creates an empty cache.
    pub fn new() -> MeasureCache {
        MeasureCache::default()
    }

    /// Number of distinct measurements stored.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` since the cache was created.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// The fraction of lookups that hit, or `None` before any lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let (hits, misses) = self.stats();
        let total = hits + misses;
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// [`measure_function`] through the cache. Setup errors (unknown
    /// function, stack too small for the arguments) are never cached: they
    /// are cheap to recompute and carry no measurement.
    ///
    /// # Errors
    ///
    /// Exactly those of [`measure_function`].
    pub fn measure_function(
        &self,
        program: &AsmProgram,
        fname: &str,
        args: &[u32],
        sz: u32,
        fuel: u64,
    ) -> Result<Measurement, MachineError> {
        let k = key(program, fname, args, sz, fuel);
        if let Some(m) = self.map.lock().unwrap().get(&k) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::counter("asm/cache_hit", 1);
            return Ok(m.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::counter("asm/cache_miss", 1);
        let m = measure_function(program, fname, args, sz, fuel)?;
        // Two workers racing on the same key insert the same value; last
        // write wins and both results are identical by construction.
        self.map.lock().unwrap().insert(k, m.clone());
        Ok(m)
    }

    /// [`crate::measure_main`] through the cache.
    ///
    /// # Errors
    ///
    /// Exactly those of [`crate::measure_main`].
    pub fn measure_main(
        &self,
        program: &AsmProgram,
        sz: u32,
        fuel: u64,
    ) -> Result<Measurement, MachineError> {
        self.measure_function(program, "main", &[], sz, fuel)
    }
}

impl std::fmt::Debug for MeasureCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses) = self.stats();
        f.debug_struct("MeasureCache")
            .field("entries", &self.len())
            .field("hits", &hits)
            .field("misses", &misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Target;
    use crate::{AsmFunction, Instr, Operand, Reg};

    #[test]
    fn hit_rate_tracks_lookups() {
        let f = AsmFunction::new(
            "f",
            0,
            vec![Instr::Mov(Reg::Eax, Operand::Imm(3)), Instr::Ret],
        );
        let prog = AsmProgram {
            target: Target::Sz32,
            globals: vec![],
            externals: vec![],
            functions: vec![f],
        };
        let cache = MeasureCache::new();
        assert_eq!(cache.hit_rate(), None);
        cache.measure_function(&prog, "f", &[], 64, 1000).unwrap();
        assert_eq!(cache.hit_rate(), Some(0.0));
        cache.measure_function(&prog, "f", &[], 64, 1000).unwrap();
        assert_eq!(cache.hit_rate(), Some(0.5));
        assert_eq!(cache.len(), 1);
    }

    /// 10k randomized, pairwise-distinct programs under equal fuel must
    /// produce 10k distinct dual-FNV keys: the 128-bit construction makes
    /// accidental collisions (which would silently return another
    /// program's measurement) astronomically unlikely, and this sweep
    /// would catch a structural mistake in the key derivation — e.g.
    /// dropping the program from the hash or correlating the streams.
    #[test]
    fn ten_thousand_distinct_programs_never_collide() {
        // Deterministic xorshift so the sweep is reproducible.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };

        let mut keys = std::collections::HashSet::new();
        for i in 0..10_000u32 {
            // Distinct by construction: instruction payloads mix the index
            // `i` with random bits, and frame sizes / arg vectors vary.
            let r = next();
            let f = AsmFunction::new(
                "f",
                ((r >> 32) as u32 % 64) * 4,
                vec![
                    Instr::Mov(Reg::Eax, Operand::Imm(i)),
                    Instr::Mov(Reg::Ebx, Operand::Imm(r as u32)),
                    Instr::Ret,
                ],
            );
            let prog = AsmProgram {
                target: Target::Sz32,
                globals: vec![(format!("g{}", r % 7), 4, vec![i])],
                externals: vec![],
                functions: vec![f],
            };
            let args: Vec<u32> = (0..(r % 4)).map(|j| (r >> j) as u32).collect();
            let k = key(&prog, "f", &args, 1024, 1_000_000);
            assert!(keys.insert(k), "dual-FNV key collision at program {i}");
        }
        assert_eq!(keys.len(), 10_000);
    }
}
