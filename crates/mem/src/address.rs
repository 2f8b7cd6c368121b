//! Physical address decomposition.
//!
//! Addresses interleave across L2 slices at cache-line granularity, so a
//! streaming kernel touches every memory partition — the property the
//! paper's synthetic benchmark relies on ("ensures that all memory
//! partitions … are accessed", §3.2) and which keeps the L2 slices out of
//! the bottleneck so that the *interconnect* is the contended resource.

use gnc_common::fastdiv::FastDivisor;
use gnc_common::ids::{McId, SliceId};
use gnc_common::GpuConfig;

/// Maps byte addresses to L2 slices, sets, and DRAM coordinates.
///
/// Every decomposition runs on each packet the simulator creates or
/// services, so the divisors are strength-reduced at construction
/// ([`FastDivisor`]) instead of paying a hardware divide per call.
#[derive(Debug, Clone)]
pub struct AddressMap {
    line_bytes: u64,
    /// `log2(line_bytes)`; line size is validated as a power of two.
    line_shift: u32,
    num_slices: FastDivisor,
    num_sets: FastDivisor,
    slices_per_mc: u64,
    banks_per_mc: FastDivisor,
}

impl AddressMap {
    /// Builds the map for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the L2 slice geometry does not yield at least one set or
    /// the line size is not a power of two (caught earlier by
    /// `GpuConfig::validate` in normal use).
    pub fn new(cfg: &GpuConfig) -> Self {
        let line_bytes = u64::from(cfg.mem.line_bytes);
        assert!(
            line_bytes.is_power_of_two(),
            "cache line size must be a power of two"
        );
        let slice_bytes = u64::from(cfg.mem.l2_slice_kb) * 1024;
        let num_sets = slice_bytes / (line_bytes * cfg.mem.l2_assoc as u64);
        assert!(num_sets > 0, "L2 slice must hold at least one set");
        Self {
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            num_slices: FastDivisor::new(cfg.mem.num_l2_slices as u64),
            num_sets: FastDivisor::new(num_sets),
            slices_per_mc: (cfg.mem.num_l2_slices / cfg.mem.num_mcs) as u64,
            banks_per_mc: FastDivisor::new(cfg.mem.banks_per_mc as u64),
        }
    }

    /// The cache line index of `addr`.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// The base byte address of the line containing `addr`.
    #[inline]
    pub fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// The L2 slice holding `addr` (line interleaving).
    #[inline]
    pub fn slice_of(&self, addr: u64) -> SliceId {
        SliceId::new(self.num_slices.rem(self.line_of(addr)) as usize)
    }

    /// The set index of `addr` within its slice.
    #[inline]
    pub fn set_of(&self, addr: u64) -> usize {
        self.num_sets.rem(self.num_slices.div(self.line_of(addr))) as usize
    }

    /// The tag of `addr` (line bits above the set index).
    #[inline]
    pub fn tag_of(&self, addr: u64) -> u64 {
        self.num_sets.div(self.num_slices.div(self.line_of(addr)))
    }

    /// `(set_of, tag_of)` of `addr` with the shared division done once —
    /// the L2 lookup path needs both.
    #[inline]
    pub fn set_tag_of(&self, addr: u64) -> (usize, u64) {
        let (tag, set) = self
            .num_sets
            .div_rem(self.num_slices.div(self.line_of(addr)));
        (set as usize, tag)
    }

    /// The memory controller behind `slice`.
    #[inline]
    pub fn mc_of_slice(&self, slice: SliceId) -> McId {
        McId::new(slice.index() / self.slices_per_mc as usize)
    }

    /// The DRAM bank (within its MC) servicing `addr`.
    #[inline]
    pub fn bank_of(&self, addr: u64) -> usize {
        self.banks_per_mc
            .rem(self.num_slices.div(self.line_of(addr))) as usize
    }

    /// The DRAM row (within its bank) holding `addr`.
    #[inline]
    pub fn row_of(&self, addr: u64) -> u64 {
        self.banks_per_mc
            .div(self.num_slices.div(self.line_of(addr)))
    }

    /// Number of sets per slice.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.num_sets.divisor() as usize
    }

    /// Cache line size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// An address guaranteed to map to `slice`, offset by `nth` lines
    /// within that slice (each increment moves to the next set).
    ///
    /// Used by workload generators that need to target or avoid specific
    /// slices deterministically.
    pub fn addr_in_slice(&self, slice: SliceId, nth: u64) -> u64 {
        (nth * self.num_slices.divisor() + slice.index() as u64) * self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddressMap {
        AddressMap::new(&GpuConfig::volta_v100())
    }

    #[test]
    fn volta_geometry() {
        let m = map();
        // 96 KiB / (128 B × 16 ways) = 48 sets.
        assert_eq!(m.num_sets(), 48);
        assert_eq!(m.line_bytes(), 128);
    }

    #[test]
    fn consecutive_lines_interleave_across_all_slices() {
        let m = map();
        let mut seen = [false; 48];
        for i in 0..48u64 {
            seen[m.slice_of(i * 128).index()] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "48 consecutive lines must cover all slices"
        );
    }

    #[test]
    fn same_line_maps_identically() {
        let m = map();
        assert_eq!(m.slice_of(0x1000), m.slice_of(0x107F));
        assert_eq!(m.set_of(0x1000), m.set_of(0x107F));
        assert_eq!(m.tag_of(0x1000), m.tag_of(0x107F));
        assert_eq!(m.line_base(0x107F), 0x1000);
    }

    #[test]
    fn tag_set_slice_reconstruct_line() {
        let m = map();
        for addr in (0..(1 << 22)).step_by(12_347) {
            let line = m.line_of(addr);
            let reconstructed = (m.tag_of(addr) * m.num_sets() as u64 + m.set_of(addr) as u64)
                * m.num_slices.divisor()
                + m.slice_of(addr).index() as u64;
            assert_eq!(line, reconstructed, "addr {addr:#x}");
            let (set, tag) = m.set_tag_of(addr);
            assert_eq!((set, tag), (m.set_of(addr), m.tag_of(addr)));
        }
    }

    #[test]
    fn addr_in_slice_round_trips() {
        let m = map();
        for s in [0usize, 7, 47] {
            for nth in [0u64, 1, 47, 48, 1000] {
                let addr = m.addr_in_slice(SliceId::new(s), nth);
                assert_eq!(m.slice_of(addr), SliceId::new(s));
            }
        }
    }

    #[test]
    fn addr_in_slice_distinct_nths_hit_distinct_lines() {
        let m = map();
        let a = m.addr_in_slice(SliceId::new(3), 0);
        let b = m.addr_in_slice(SliceId::new(3), 1);
        assert_ne!(m.line_of(a), m.line_of(b));
        // First num_sets entries land in distinct sets.
        let sets: std::collections::HashSet<usize> = (0..48)
            .map(|n| m.set_of(m.addr_in_slice(SliceId::new(3), n)))
            .collect();
        assert_eq!(sets.len(), 48);
    }

    #[test]
    fn mc_mapping_groups_two_slices() {
        let m = map();
        assert_eq!(m.mc_of_slice(SliceId::new(0)), McId::new(0));
        assert_eq!(m.mc_of_slice(SliceId::new(1)), McId::new(0));
        assert_eq!(m.mc_of_slice(SliceId::new(2)), McId::new(1));
        assert_eq!(m.mc_of_slice(SliceId::new(47)), McId::new(23));
    }

    #[test]
    fn banks_and_rows_are_in_range() {
        let cfg = GpuConfig::volta_v100();
        let m = AddressMap::new(&cfg);
        for addr in (0..(1 << 24)).step_by(52_813) {
            assert!(m.bank_of(addr) < cfg.mem.banks_per_mc);
            let _ = m.row_of(addr); // must not panic
        }
    }
}
