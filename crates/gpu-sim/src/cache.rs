//! L2 cache models.
//!
//! Two models live here:
//!
//! * [`OccupancyL2`] — the analytical, aggregate-occupancy model the engine
//!   uses. Each CUDA context owns a number of resident bytes (split into
//!   global-clean / global-dirty / texture pools); insertions evict other
//!   contexts' bytes proportionally, preferring the same pool kind (texture
//!   data competes with texture data first). Evicted *dirty* bytes must be
//!   written back — that is the write channel of the side-channel.
//! * [`SetAssocCache`] — a reference sectored set-associative cache with LRU
//!   replacement, used in tests to validate that the analytical model's
//!   eviction proportions are sane (see `tests/cache_calibration.rs`), and
//!   available for fine-grained microbenchmarks.

use serde::{Deserialize, Serialize};

/// Which pool an insertion lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertKind {
    /// Global-memory data, clean (read).
    GlobalClean,
    /// Global-memory data, dirty (written, needs write-back when evicted).
    GlobalDirty,
    /// Texture-path data (always clean).
    Tex,
}

/// Resident bytes of one context.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CtxOccupancy {
    /// Clean global-memory bytes.
    pub global_clean: f64,
    /// Dirty global-memory bytes.
    pub global_dirty: f64,
    /// Texture-tagged bytes (clean).
    pub tex: f64,
}

impl CtxOccupancy {
    /// Total resident bytes.
    pub fn total(&self) -> f64 {
        self.global_clean + self.global_dirty + self.tex
    }

    /// Total global-memory bytes (clean + dirty).
    pub fn global(&self) -> f64 {
        self.global_clean + self.global_dirty
    }
}

/// Aggregate per-context L2 occupancy model.
#[derive(Debug, Clone)]
pub struct OccupancyL2 {
    capacity: f64,
    contexts: Vec<CtxOccupancy>,
}

impl OccupancyL2 {
    /// Creates an empty cache of the given byte capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "cache capacity must be positive");
        OccupancyL2 {
            capacity,
            contexts: Vec::new(),
        }
    }

    /// Registers a context; returns its index.
    pub fn add_context(&mut self) -> usize {
        self.contexts.push(CtxOccupancy::default());
        self.contexts.len() - 1
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Occupancy of one context.
    pub fn occupancy(&self, ctx: usize) -> CtxOccupancy {
        self.contexts[ctx]
    }

    /// Total resident bytes across all contexts.
    pub fn total(&self) -> f64 {
        self.contexts.iter().map(CtxOccupancy::total).sum()
    }

    /// Converts up to `max_bytes` of `ctx`'s dirty pool to clean (an idle
    /// write-back drain). Returns the number of bytes drained.
    pub fn drain_dirty(&mut self, ctx: usize, max_bytes: f64) -> f64 {
        let occ = &mut self.contexts[ctx];
        // Proportional eviction can leave sub-epsilon negative residue;
        // clamp before draining.
        occ.global_dirty = occ.global_dirty.max(0.0);
        let drained = occ.global_dirty.min(max_bytes.max(0.0));
        occ.global_dirty -= drained;
        occ.global_clean += drained;
        drained
    }

    /// Inserts `bytes` of data for `ctx` into the given pool, evicting other
    /// contexts as needed. Eviction priority:
    ///
    /// 1. other contexts' same-kind pools (proportional to size),
    /// 2. other contexts' remaining pools (proportional),
    /// 3. the inserting context's own clean pools,
    /// 4. the inserting context's own dirty pool.
    ///
    /// Clears `dirty_evicted`, then appends `(context, dirty bytes)` for
    /// every dirty pool the insert evicted from, which its owner must write
    /// back: phase 1 in context order, then phase 2 in context order, then
    /// the inserting context's own dirty pool (phase 4). The engine books
    /// write-backs and draws counter noise in this order. The caller owns
    /// the buffer, so a warm one makes an insert allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is unknown or `bytes` is negative/non-finite.
    pub fn insert(
        &mut self,
        ctx: usize,
        kind: InsertKind,
        bytes: f64,
        dirty_evicted: &mut Vec<(usize, f64)>,
    ) {
        assert!(ctx < self.contexts.len(), "unknown context {}", ctx);
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "invalid insert size {}",
            bytes
        );
        dirty_evicted.clear();
        if bytes == 0.0 {
            return;
        }
        // An insertion can never exceed the whole cache.
        let bytes = bytes.min(self.capacity);

        let free = (self.capacity - self.total()).max(0.0);
        let mut need = (bytes - free).max(0.0);

        if need > 0.0 {
            // Phase 1: other contexts, same kind.
            need = self.evict_phase(ctx, kind, need, dirty_evicted, EvictPhase::OthersSameKind);
        }
        if need > 0.0 {
            // Phase 2: other contexts, any kind.
            need = self.evict_phase(ctx, kind, need, dirty_evicted, EvictPhase::OthersAnyKind);
        }
        if need > 0.0 {
            // Phase 3: own clean pools.
            let occ = &mut self.contexts[ctx];
            for pool in [&mut occ.global_clean, &mut occ.tex] {
                let take = pool.min(need);
                *pool -= take;
                need -= take;
                if need <= 0.0 {
                    break;
                }
            }
        }
        if need > 0.0 {
            // Phase 4: own dirty pool (self write-back).
            let occ = &mut self.contexts[ctx];
            let take = occ.global_dirty.min(need);
            if take > 0.0 {
                occ.global_dirty -= take;
                dirty_evicted.push((ctx, take));
            }
            need -= take;
        }
        let _ = need; // any residual means the insert itself shrinks below

        // Place the new bytes (cannot exceed remaining room).
        let room = (self.capacity - self.total()).max(0.0);
        let placed = bytes.min(room);
        let occ = &mut self.contexts[ctx];
        match kind {
            InsertKind::GlobalClean => occ.global_clean += placed,
            InsertKind::GlobalDirty => occ.global_dirty += placed,
            InsertKind::Tex => occ.tex += placed,
        }
    }

    /// Evicts up to `need` bytes from the other contexts' pools that
    /// `phase` makes eligible, proportionally to their sizes, and appends
    /// the dirty takes to `dirty_evicted`. Returns the bytes still needed.
    ///
    /// Two passes walk the same (context, pool) order. The first sums the
    /// non-empty pools left to right from 0.0. The second reads each pool
    /// once, just before taking from it, and a take never touches another
    /// pool, so it reads the sizes the sum saw.
    fn evict_phase(
        &mut self,
        ctx: usize,
        kind: InsertKind,
        mut need: f64,
        dirty_evicted: &mut Vec<(usize, f64)>,
        phase: EvictPhase,
    ) -> f64 {
        let pools = phase.pools(kind);
        let mut total = 0.0;
        for (i, occ) in self.contexts.iter().enumerate() {
            if i == ctx {
                continue;
            }
            for &p in pools {
                let sz = p.size(occ);
                if sz > 0.0 {
                    total += sz;
                }
            }
        }
        if total <= 0.0 {
            return need;
        }
        let take_total = need.min(total);
        for (i, occ) in self.contexts.iter_mut().enumerate() {
            if i == ctx {
                continue;
            }
            for &p in pools {
                let pool = p.size_mut(occ);
                let sz = *pool;
                if sz > 0.0 {
                    let take = take_total * (sz / total);
                    *pool = (sz - take).max(0.0);
                    if p == PoolRef::GlobalDirty && take > 0.0 {
                        dirty_evicted.push((i, take));
                    }
                }
            }
        }
        need -= take_total;
        need.max(0.0)
    }
}

#[derive(Debug, Clone, Copy)]
enum EvictPhase {
    OthersSameKind,
    OthersAnyKind,
}

impl EvictPhase {
    /// The pools of another context this phase may evict from, in the
    /// order the phase walks them.
    fn pools(self, kind: InsertKind) -> &'static [PoolRef] {
        match self {
            EvictPhase::OthersSameKind => match kind {
                InsertKind::Tex => &[PoolRef::Tex],
                InsertKind::GlobalClean | InsertKind::GlobalDirty => {
                    &[PoolRef::GlobalClean, PoolRef::GlobalDirty]
                }
            },
            EvictPhase::OthersAnyKind => {
                &[PoolRef::GlobalClean, PoolRef::GlobalDirty, PoolRef::Tex]
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PoolRef {
    GlobalClean,
    GlobalDirty,
    Tex,
}

impl PoolRef {
    fn size(self, occ: &CtxOccupancy) -> f64 {
        match self {
            PoolRef::GlobalClean => occ.global_clean,
            PoolRef::GlobalDirty => occ.global_dirty,
            PoolRef::Tex => occ.tex,
        }
    }

    fn size_mut(self, occ: &mut CtxOccupancy) -> &mut f64 {
        match self {
            PoolRef::GlobalClean => &mut occ.global_clean,
            PoolRef::GlobalDirty => &mut occ.global_dirty,
            PoolRef::Tex => &mut occ.tex,
        }
    }
}

// ---------------------------------------------------------------------------
// Reference set-associative cache
// ---------------------------------------------------------------------------

/// Result of one access to the [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The sector was resident.
    Hit,
    /// The sector missed; if an occupied line was replaced, reports whether
    /// it was dirty (needs write-back).
    Miss {
        /// A line was evicted and it was dirty.
        evicted_dirty: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    owner: u16,
    dirty: bool,
    lru: u64,
}

/// A sectored set-associative cache with true LRU replacement and per-line
/// owner tracking, used as ground truth for the analytical model.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    sector_bytes: u64,
    lines: Vec<Option<Line>>,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl SetAssocCache {
    /// Creates a cache with `sets` x `ways` sectors of `sector_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(sets: usize, ways: usize, sector_bytes: u64) -> Self {
        assert!(
            sets > 0 && ways > 0 && sector_bytes > 0,
            "cache geometry must be non-zero"
        );
        SetAssocCache {
            sets,
            ways,
            sector_bytes,
            lines: vec![None; sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * self.sector_bytes
    }

    /// Accesses `addr` on behalf of `owner`; `write` marks the line dirty.
    pub fn access(&mut self, owner: u16, addr: u64, write: bool) -> Access {
        self.tick += 1;
        let sector = addr / self.sector_bytes;
        let set = (sector % self.sets as u64) as usize;
        let tag = sector / self.sets as u64;
        let base = set * self.ways;
        // Hit?
        for line in self.lines[base..base + self.ways].iter_mut().flatten() {
            if line.tag == tag && line.owner == owner {
                line.lru = self.tick;
                line.dirty |= write;
                self.hits += 1;
                return Access::Hit;
            }
        }
        // Miss: fill an empty way or evict LRU.
        self.misses += 1;
        let mut victim: Option<usize> = None;
        for (i, slot) in self.lines[base..base + self.ways].iter().enumerate() {
            match slot {
                None => {
                    victim = Some(i);
                    break;
                }
                Some(line) => {
                    if victim
                        .is_none_or(|v| self.lines[base + v].is_none_or(|vl| line.lru < vl.lru))
                        && self.lines[base + i].is_some()
                    {
                        // Track the least-recently-used occupied way unless an
                        // empty way is found above.
                        victim = match victim {
                            None => Some(i),
                            Some(v) => {
                                let v_lru = self.lines[base + v].map(|l| l.lru).unwrap_or(0);
                                if line.lru < v_lru {
                                    Some(i)
                                } else {
                                    Some(v)
                                }
                            }
                        };
                    }
                }
            }
        }
        let way = victim.expect("ways > 0");
        let evicted_dirty = match self.lines[base + way] {
            Some(old) if old.dirty => {
                self.writebacks += 1;
                true
            }
            _ => false,
        };
        self.lines[base + way] = Some(Line {
            tag,
            owner,
            dirty: write,
            lru: self.tick,
        });
        Access::Miss { evicted_dirty }
    }

    /// Number of resident sectors owned by `owner`.
    pub fn resident_sectors(&self, owner: u16) -> usize {
        self.lines
            .iter()
            .flatten()
            .filter(|l| l.owner == owner)
            .count()
    }

    /// Resident bytes owned by `owner`.
    pub fn resident_bytes(&self, owner: u16) -> u64 {
        self.resident_sectors(owner) as u64 * self.sector_bytes
    }

    /// (hits, misses, write-backs) so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.writebacks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_insert_and_evict_proportionally() {
        let mut l2 = OccupancyL2::new(1000.0);
        let mut evicted = Vec::new();
        let a = l2.add_context();
        let b = l2.add_context();
        let c = l2.add_context();
        l2.insert(a, InsertKind::GlobalClean, 600.0, &mut evicted);
        l2.insert(b, InsertKind::GlobalClean, 300.0, &mut evicted);
        assert!((l2.total() - 900.0).abs() < 1e-9);
        // c inserts 300: 100 free, 200 must come from a and b 2:1.
        l2.insert(c, InsertKind::GlobalClean, 300.0, &mut evicted);
        assert!(evicted.is_empty());
        let oa = l2.occupancy(a).total();
        let ob = l2.occupancy(b).total();
        assert!((oa - (600.0 - 200.0 * 2.0 / 3.0)).abs() < 1e-6, "{}", oa);
        assert!((ob - (300.0 - 200.0 / 3.0)).abs() < 1e-6, "{}", ob);
        assert!((l2.total() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn dirty_eviction_is_reported_to_owner() {
        let mut l2 = OccupancyL2::new(100.0);
        let mut evicted = Vec::new();
        let spy = l2.add_context();
        let victim = l2.add_context();
        l2.insert(spy, InsertKind::GlobalDirty, 80.0, &mut evicted);
        l2.insert(victim, InsertKind::GlobalClean, 60.0, &mut evicted);
        let spy_dirty_lost: f64 = evicted
            .iter()
            .filter(|(c, _)| *c == spy)
            .map(|(_, b)| b)
            .sum();
        assert!((spy_dirty_lost - 40.0).abs() < 1e-6, "{}", spy_dirty_lost);
        assert!((l2.occupancy(spy).global_dirty - 40.0).abs() < 1e-6);
    }

    #[test]
    fn tex_insert_prefers_tex_victims() {
        let mut l2 = OccupancyL2::new(100.0);
        let mut evicted = Vec::new();
        let spy = l2.add_context();
        let victim = l2.add_context();
        l2.insert(spy, InsertKind::Tex, 50.0, &mut evicted);
        l2.insert(spy, InsertKind::GlobalClean, 50.0, &mut evicted);
        // Victim inserts 30 tex; all must come from spy's tex pool first.
        l2.insert(victim, InsertKind::Tex, 30.0, &mut evicted);
        let occ = l2.occupancy(spy);
        assert!((occ.tex - 20.0).abs() < 1e-6, "tex {}", occ.tex);
        assert!((occ.global_clean - 50.0).abs() < 1e-6);
    }

    #[test]
    fn self_eviction_reaches_own_dirty_last() {
        let mut l2 = OccupancyL2::new(100.0);
        let mut evicted = Vec::new();
        let only = l2.add_context();
        l2.insert(only, InsertKind::GlobalDirty, 60.0, &mut evicted);
        l2.insert(only, InsertKind::GlobalClean, 40.0, &mut evicted);
        // Insert 50 more clean: evicts own clean 40 then own dirty 10.
        l2.insert(only, InsertKind::GlobalClean, 50.0, &mut evicted);
        let dirty: f64 = evicted.iter().map(|(_, b)| b).sum();
        assert!((dirty - 10.0).abs() < 1e-6, "{:?}", evicted);
        assert!(l2.total() <= 100.0 + 1e-9);
    }

    #[test]
    fn dirty_evictions_are_listed_phase_by_phase_in_context_order() {
        // Context 1 inserts; 0, 2 and 3 hold dirty and texture pools.
        let mut l2 = OccupancyL2::new(64.0);
        let mut evicted = Vec::new();
        for _ in 0..4 {
            l2.add_context();
        }
        for (ctx, dirty, other) in [(0, 1.0, 1.0), (1, 4.0, 2.0), (2, 13.0, 1.0), (3, 9.0, 1.0)] {
            l2.insert(ctx, InsertKind::GlobalDirty, dirty, &mut evicted);
            let kind = if ctx == 1 {
                InsertKind::GlobalClean
            } else {
                InsertKind::Tex
            };
            l2.insert(ctx, kind, other, &mut evicted);
        }
        assert!(evicted.is_empty(), "the set-up fits: {evicted:?}");

        // 61 bytes with 32 free: phase 1 takes the other dirty pools (23),
        // phase 2 the texture pools (3), phase 3 the own clean pool (2) and
        // phase 4 one byte of the own dirty pool. 23 * (13 / 23) rounds one
        // ulp short of 13, so context 2 keeps a residue that phase 2 takes:
        // it owes two write-backs, which the engine adds in this order.
        l2.insert(1, InsertKind::GlobalClean, 61.0, &mut evicted);
        let phase_1 = [(0, 1.0), (2, 12.999999999999998), (3, 9.0)];
        let phase_2 = [(2, 1.7763568394002505e-15)];
        let phase_4 = [(1, 0.9999999999999982)];
        assert_eq!(evicted, [&phase_1[..], &phase_2, &phase_4].concat());

        // The buffer is cleared even when an insert evicts nothing.
        l2.insert(3, InsertKind::Tex, 0.0, &mut evicted);
        assert!(evicted.is_empty(), "{evicted:?}");
    }

    #[test]
    fn drain_converts_dirty_to_clean() {
        let mut l2 = OccupancyL2::new(100.0);
        let c = l2.add_context();
        l2.insert(c, InsertKind::GlobalDirty, 30.0, &mut Vec::new());
        let drained = l2.drain_dirty(c, 20.0);
        assert!((drained - 20.0).abs() < 1e-9);
        let occ = l2.occupancy(c);
        assert!((occ.global_dirty - 10.0).abs() < 1e-9);
        assert!((occ.global_clean - 20.0).abs() < 1e-9);
        // Total unchanged.
        assert!((occ.total() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_insert_is_capped_at_capacity() {
        let mut l2 = OccupancyL2::new(100.0);
        let c = l2.add_context();
        l2.insert(c, InsertKind::GlobalClean, 1e9, &mut Vec::new());
        assert!(l2.total() <= 100.0 + 1e-6);
    }

    // --- reference cache ---

    #[test]
    fn set_assoc_hit_after_fill() {
        let mut c = SetAssocCache::new(4, 2, 32);
        assert!(matches!(c.access(0, 0, false), Access::Miss { .. }));
        assert_eq!(c.access(0, 0, false), Access::Hit);
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = SetAssocCache::new(1, 2, 32);
        // Addresses 0, 32, 64 all map to the single set.
        c.access(0, 0, false);
        c.access(0, 32, false);
        c.access(0, 0, false); // refresh 0 -> 32 is LRU
        c.access(0, 64, false); // evicts 32
        assert_eq!(c.access(0, 0, false), Access::Hit);
        assert!(matches!(c.access(0, 32, false), Access::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = SetAssocCache::new(1, 1, 32);
        c.access(0, 0, true); // dirty fill
        let acc = c.access(0, 32, false); // evicts dirty line
        assert_eq!(
            acc,
            Access::Miss {
                evicted_dirty: true
            }
        );
        assert_eq!(c.stats().2, 1);
    }

    #[test]
    fn owner_tracking_separates_contexts() {
        let mut c = SetAssocCache::new(8, 4, 32);
        for s in 0..8u64 {
            c.access(1, s * 32, false);
        }
        for s in 0..8u64 {
            c.access(2, s * 32 + 8 * 32, false);
        }
        assert_eq!(c.resident_sectors(1), 8);
        assert_eq!(c.resident_sectors(2), 8);
        assert_eq!(c.resident_bytes(1), 256);
    }

    #[test]
    fn same_address_different_owner_does_not_hit() {
        let mut c = SetAssocCache::new(4, 2, 32);
        c.access(1, 0, false);
        assert!(matches!(c.access(2, 0, false), Access::Miss { .. }));
    }

    #[test]
    fn capacity_bytes() {
        let c = SetAssocCache::new(16, 4, 32);
        assert_eq!(c.capacity_bytes(), 16 * 4 * 32);
    }
}
