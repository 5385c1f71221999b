//! Calibration test: the engine's analytical L2 occupancy model must agree
//! qualitatively with the reference set-associative cache on the behaviours
//! the side-channel depends on — proportional cross-context eviction and
//! dirty write-back on eviction.

use gpu_sim::cache::{Access, InsertKind, OccupancyL2, SetAssocCache};

/// Streams `sectors` distinct addresses for `owner` through the cache.
fn stream(cache: &mut SetAssocCache, owner: u16, base: u64, sectors: u64, write: bool) -> u64 {
    let mut writebacks = 0;
    for i in 0..sectors {
        if let Access::Miss {
            evicted_dirty: true,
        } = cache.access(owner, base + i * 32, write)
        {
            writebacks += 1;
        }
    }
    writebacks
}

#[test]
fn analytical_eviction_matches_reference_proportions() {
    // Reference: 1024 sets x 8 ways x 32 B = 256 KiB.
    let mut real = SetAssocCache::new(1024, 8, 32);
    let capacity = real.capacity_bytes() as f64;

    // Context A fills 3/4 of the cache; context B streams half a cache of
    // fresh data. A's residency must drop roughly proportionally.
    let a_sectors = (capacity as u64 / 32) * 3 / 4;
    stream(&mut real, 0, 0, a_sectors, false);
    let a_before = real.resident_bytes(0) as f64;
    stream(&mut real, 1, 1 << 30, a_sectors / 2, false);
    let a_after = real.resident_bytes(0) as f64;
    let real_loss = (a_before - a_after) / a_before;

    let mut model = OccupancyL2::new(capacity);
    let a = model.add_context();
    let b = model.add_context();
    let mut evicted = Vec::new();
    model.insert(
        a,
        InsertKind::GlobalClean,
        a_sectors as f64 * 32.0,
        &mut evicted,
    );
    let m_before = model.occupancy(a).total();
    model.insert(
        b,
        InsertKind::GlobalClean,
        (a_sectors / 2) as f64 * 32.0,
        &mut evicted,
    );
    let m_after = model.occupancy(a).total();
    let model_loss = (m_before - m_after) / m_before;

    // Random-index set-associative eviction is noisier than the analytical
    // proportional model, but both must see a substantial, same-order loss.
    assert!(
        real_loss > 0.15 && model_loss > 0.15,
        "both models must evict: real {:.2} model {:.2}",
        real_loss,
        model_loss
    );
    assert!(
        (real_loss - model_loss).abs() < 0.35,
        "losses diverge: real {:.2} vs model {:.2}",
        real_loss,
        model_loss
    );
}

#[test]
fn dirty_writebacks_happen_in_both_models() {
    let mut real = SetAssocCache::new(256, 4, 32);
    let capacity = real.capacity_bytes();
    // Fill completely with dirty data, then let another context stream the
    // same volume: roughly everything must be written back.
    let sectors = capacity / 32;
    stream(&mut real, 0, 0, sectors, true);
    let wb = stream(&mut real, 1, 1 << 30, sectors, false);
    assert!(
        wb as f64 > 0.8 * sectors as f64,
        "reference write-backs {} of {}",
        wb,
        sectors
    );

    let mut model = OccupancyL2::new(capacity as f64);
    let a = model.add_context();
    let b = model.add_context();
    let mut evicted = Vec::new();
    model.insert(a, InsertKind::GlobalDirty, capacity as f64, &mut evicted);
    model.insert(b, InsertKind::GlobalClean, capacity as f64, &mut evicted);
    let model_wb: f64 = evicted
        .iter()
        .filter(|(c, _)| *c == a)
        .map(|(_, x)| x)
        .sum();
    assert!(
        model_wb > 0.8 * capacity as f64,
        "analytical write-backs {} of {}",
        model_wb,
        capacity
    );
}

#[test]
fn small_working_sets_survive_streams_in_both_models() {
    // A tiny hot set must mostly survive a moderate foreign stream — this is
    // why hog kernels (8 KiB working sets) barely disturb the sampler.
    let mut real = SetAssocCache::new(1024, 8, 32);
    let capacity = real.capacity_bytes();
    let hot_sectors = 256u64; // 8 KiB
    stream(&mut real, 0, 0, hot_sectors, false);
    // Re-touch to keep it most-recently used, then a foreign stream of 1/4
    // the cache.
    stream(&mut real, 0, 0, hot_sectors, false);
    stream(&mut real, 1, 1 << 30, capacity / 32 / 4, false);
    let survived = real.resident_sectors(0) as f64 / hot_sectors as f64;
    assert!(survived > 0.6, "reference survival {:.2}", survived);

    let mut model = OccupancyL2::new(capacity as f64);
    let a = model.add_context();
    let b = model.add_context();
    let mut evicted = Vec::new();
    model.insert(
        a,
        InsertKind::GlobalClean,
        hot_sectors as f64 * 32.0,
        &mut evicted,
    );
    model.insert(
        b,
        InsertKind::GlobalClean,
        capacity as f64 / 4.0,
        &mut evicted,
    );
    // Cache not full -> no eviction at all in the analytical model.
    let kept = model.occupancy(a).total() / (hot_sectors as f64 * 32.0);
    assert!(kept > 0.99, "analytical survival {:.2}", kept);
}
