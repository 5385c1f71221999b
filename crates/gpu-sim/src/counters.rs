//! Hardware performance counters.
//!
//! The ten counters here are exactly the ones the paper selects (Table IV):
//! texture cache sector queries (2), DRAM read/write sectors per
//! sub-partition (4), and L2 read/write sector misses per slice (4).
//! Counters accumulate per CUDA context; the CUPTI layer reads deltas.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// Identifier for one hardware event counter. The declaration order is
/// [`CounterId::ALL`]'s order, which [`CounterId::index`] relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum CounterId {
    Tex0CacheSectorQueries,
    Tex1CacheSectorQueries,
    FbSubp0ReadSectors,
    FbSubp1ReadSectors,
    FbSubp0WriteSectors,
    FbSubp1WriteSectors,
    L2Subp0ReadSectorMisses,
    L2Subp1ReadSectorMisses,
    L2Subp0WriteSectorMisses,
    L2Subp1WriteSectorMisses,
}

impl CounterId {
    /// All counters in canonical (feature-vector) order.
    pub const ALL: [CounterId; 10] = [
        CounterId::Tex0CacheSectorQueries,
        CounterId::Tex1CacheSectorQueries,
        CounterId::FbSubp0ReadSectors,
        CounterId::FbSubp1ReadSectors,
        CounterId::FbSubp0WriteSectors,
        CounterId::FbSubp1WriteSectors,
        CounterId::L2Subp0ReadSectorMisses,
        CounterId::L2Subp1ReadSectorMisses,
        CounterId::L2Subp0WriteSectorMisses,
        CounterId::L2Subp1WriteSectorMisses,
    ];

    /// The CUPTI event name, as it appears in the Nvidia documentation.
    pub fn event_name(self) -> &'static str {
        match self {
            CounterId::Tex0CacheSectorQueries => "tex0_cache_sector_queries",
            CounterId::Tex1CacheSectorQueries => "tex1_cache_sector_queries",
            CounterId::FbSubp0ReadSectors => "fb_subp0_read_sectors",
            CounterId::FbSubp1ReadSectors => "fb_subp1_read_sectors",
            CounterId::FbSubp0WriteSectors => "fb_subp0_write_sectors",
            CounterId::FbSubp1WriteSectors => "fb_subp1_write_sectors",
            CounterId::L2Subp0ReadSectorMisses => "l2_subp0_read_sector_misses",
            CounterId::L2Subp1ReadSectorMisses => "l2_subp1_read_sector_misses",
            CounterId::L2Subp0WriteSectorMisses => "l2_subp0_write_sector_misses",
            CounterId::L2Subp1WriteSectorMisses => "l2_subp1_write_sector_misses",
        }
    }

    /// Position in [`CounterId::ALL`] / feature vectors.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for CounterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.event_name())
    }
}

/// A full vector of counter values (fractional internally; hardware exposes
/// integers — use [`CounterValues::rounded`]).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CounterValues {
    values: [f64; 10],
}

impl CounterValues {
    /// All-zero counters.
    pub fn zero() -> Self {
        CounterValues::default()
    }

    /// Reads one counter.
    pub fn get(&self, id: CounterId) -> f64 {
        self.values[id.index()]
    }

    /// Adds to one counter.
    pub fn add_to(&mut self, id: CounterId, amount: f64) {
        self.values[id.index()] += amount;
    }

    /// The raw vector in [`CounterId::ALL`] order.
    pub fn as_array(&self) -> [f64; 10] {
        self.values
    }

    /// Integer-rounded copy (what the hardware would report).
    pub fn rounded(&self) -> [u64; 10] {
        let mut out = [0u64; 10];
        for (o, v) in out.iter_mut().zip(self.values.iter()) {
            *o = v.max(0.0).round() as u64;
        }
        out
    }

    /// Feature vector as `f32` in canonical order.
    pub fn to_features(self) -> Vec<f32> {
        self.values.iter().map(|&v| v as f32).collect()
    }

    /// Sum of all ten counters (a quick activity magnitude).
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Total DRAM read sectors across sub-partitions.
    pub fn dram_reads(&self) -> f64 {
        self.get(CounterId::FbSubp0ReadSectors) + self.get(CounterId::FbSubp1ReadSectors)
    }

    /// Total DRAM write sectors across sub-partitions.
    pub fn dram_writes(&self) -> f64 {
        self.get(CounterId::FbSubp0WriteSectors) + self.get(CounterId::FbSubp1WriteSectors)
    }

    /// Total texture cache sector queries.
    pub fn tex_queries(&self) -> f64 {
        self.get(CounterId::Tex0CacheSectorQueries) + self.get(CounterId::Tex1CacheSectorQueries)
    }
}

impl Add for CounterValues {
    type Output = CounterValues;

    fn add(mut self, rhs: CounterValues) -> CounterValues {
        self += rhs;
        self
    }
}

impl AddAssign for CounterValues {
    fn add_assign(&mut self, rhs: CounterValues) {
        for (a, b) in self.values.iter_mut().zip(rhs.values.iter()) {
            *a += b;
        }
    }
}

impl Sub for CounterValues {
    type Output = CounterValues;

    fn sub(mut self, rhs: CounterValues) -> CounterValues {
        for (a, b) in self.values.iter_mut().zip(rhs.values.iter()) {
            *a -= b;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_ids_have_unique_names() {
        let names: std::collections::HashSet<&str> =
            CounterId::ALL.iter().map(|c| c.event_name()).collect();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn index_is_the_position_in_all() {
        // `index` casts the discriminant, so this pins the declaration order
        // to ALL's order.
        for (i, c) in CounterId::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c}");
        }
    }

    #[test]
    fn arithmetic_and_accessors() {
        let mut a = CounterValues::zero();
        a.add_to(CounterId::FbSubp0ReadSectors, 10.0);
        a.add_to(CounterId::FbSubp1ReadSectors, 5.0);
        a.add_to(CounterId::FbSubp0WriteSectors, 2.0);
        a.add_to(CounterId::Tex0CacheSectorQueries, 3.0);
        assert_eq!(a.dram_reads(), 15.0);
        assert_eq!(a.dram_writes(), 2.0);
        assert_eq!(a.tex_queries(), 3.0);
        assert_eq!(a.total(), 20.0);

        let b = a + a;
        assert_eq!(b.dram_reads(), 30.0);
        let c = b - a;
        assert_eq!(c.dram_reads(), 15.0);
    }

    #[test]
    fn rounding_clamps_negative_noise() {
        let mut a = CounterValues::zero();
        a.add_to(CounterId::Tex0CacheSectorQueries, -0.4);
        a.add_to(CounterId::Tex1CacheSectorQueries, 2.6);
        let r = a.rounded();
        assert_eq!(r[0], 0);
        assert_eq!(r[1], 3);
    }

    #[test]
    fn feature_vector_order_is_canonical() {
        let mut a = CounterValues::zero();
        a.add_to(CounterId::L2Subp1WriteSectorMisses, 7.0);
        let f = a.to_features();
        assert_eq!(f.len(), 10);
        assert_eq!(f[9], 7.0);
        assert!(f[..9].iter().all(|&v| v == 0.0));
    }
}
