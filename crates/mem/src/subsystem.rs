//! The assembled memory system: 48 L2 slices over 24 DRAM controllers.
//!
//! The engine pushes requests popped from the request fabric into the
//! owning slice, ticks the subsystem once per cycle, and drains ready
//! replies into the reply fabric (with backpressure — replies stay queued
//! in the slice until the fabric accepts them).

use crate::address::AddressMap;
use crate::dram::DramController;
use crate::l2::{L2Slice, L2Stats};
use gnc_common::ids::{GpcId, SliceId};
use gnc_common::telemetry::{NullProbe, Probe};
use gnc_common::{Cycle, GpuConfig};
use gnc_noc::event::{ComponentId, EventCalendar, NextEvent, Wake};
use gnc_noc::fabric::ReplyFabric;
use gnc_noc::packet::Packet;
use gnc_noc::OccupancyMask;

/// All L2 slices and memory controllers of the GPU.
#[derive(Debug)]
pub struct MemorySubsystem {
    slices: Vec<L2Slice>,
    drams: Vec<DramController>,
    map: AddressMap,
    slices_per_mc: usize,
    /// Per-slice wake-up calendar (mirrors [`L2Slice::next_tick`]):
    /// slices due every cycle sit in the busy set, quiet ones park a
    /// timed entry, drained ones cost nothing. The tick walks the due
    /// bits in slice order — the same ascending order the old full scan
    /// visited — so it touches only slices whose tick can have an
    /// effect, without rescanning the other 47 wake cycles.
    cal: EventCalendar,
    /// Ready replies waiting at each slice's port (dense mirror of
    /// [`L2Slice::reply_len`], same skip-without-touching purpose).
    reply_counts: Vec<u32>,
    /// Bit `s` set iff `reply_counts[s] > 0`: the drain walks set bits
    /// in slice order instead of scanning all 48 counters.
    reply_mask: OccupancyMask,
    /// Sum of `reply_counts`: lets the reply-drain phase and the
    /// drained check skip the per-slice scan entirely.
    total_replies: usize,
}

impl MemorySubsystem {
    /// Builds the memory system for `cfg`.
    pub fn new(cfg: &GpuConfig) -> Self {
        let slices = (0..cfg.mem.num_l2_slices)
            .map(|s| L2Slice::new(SliceId::new(s), cfg))
            .collect();
        let drams = (0..cfg.mem.num_mcs)
            .map(|_| DramController::new(&cfg.mem))
            .collect();
        Self {
            slices,
            drams,
            map: AddressMap::new(cfg),
            slices_per_mc: cfg.mem.num_l2_slices / cfg.mem.num_mcs,
            cal: EventCalendar::new(cfg.mem.num_l2_slices),
            reply_counts: vec![0; cfg.mem.num_l2_slices],
            reply_mask: OccupancyMask::new(cfg.mem.num_l2_slices),
            total_replies: 0,
        }
    }

    /// Attaches a fault plan to every L2 slice (hot-spot stalls). Wake
    /// cycles are re-derived from [`L2Slice::next_tick`]: hot-spot
    /// windows only matter while a lookup is pending, so drained slices
    /// still sleep.
    pub fn set_fault_plan(&mut self, plan: &std::sync::Arc<gnc_common::fault::FaultPlan>) {
        for (s, slice) in self.slices.iter_mut().enumerate() {
            slice.set_fault_plan(std::sync::Arc::clone(plan));
            let next = slice.next_tick();
            self.cal.reschedule(
                s as ComponentId,
                if next == Cycle::MAX {
                    NextEvent::Idle
                } else {
                    NextEvent::At(next)
                },
            );
        }
    }

    /// The address map shared with the rest of the GPU.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Number of slices.
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// Routes a request popped from the fabric into its slice at `now`.
    pub fn push_request(&mut self, packet: Packet, now: Cycle) {
        let s = packet.slice.index();
        self.slices[s].push_request(packet, now);
        // New work can only move a slice's wake-up earlier. A wake at or
        // before `now` means the slice must tick in this very cycle's
        // memory phase, which the busy bit guarantees.
        let next = self.slices[s].next_tick();
        if next <= now {
            self.cal.make_busy(s as ComponentId);
        } else if next != Cycle::MAX {
            self.cal.notify_at(s as ComponentId, next);
        }
    }

    /// Warms the line containing `addr` in its owning slice.
    pub fn preload(&mut self, addr: u64) {
        let slice = self.map.slice_of(addr);
        self.slices[slice.index()].preload(addr);
    }

    /// Warms `lines` consecutive cache lines starting at `base`.
    pub fn preload_range(&mut self, base: u64, lines: u64) {
        let lb = self.map.line_bytes();
        for i in 0..lines {
            self.preload(base + i * lb);
        }
    }

    /// Whether `addr`'s line is resident in its slice.
    pub fn contains(&self, addr: u64) -> bool {
        self.slices[self.map.slice_of(addr).index()].contains(addr)
    }

    /// Advances every slice that is due at `now` by one cycle. Slices
    /// whose wake cycle lies in the future are skipped — their tick is
    /// provably a no-op (see [`L2Slice::next_tick`]), fault injection
    /// included.
    pub fn tick(&mut self, now: Cycle) {
        self.tick_probed(now, &mut NullProbe);
    }

    /// [`tick`](Self::tick) with telemetry: each slice reports lookup
    /// outcomes, MSHR occupancy, and DRAM bank activity to `probe`.
    pub fn tick_probed<P: Probe>(&mut self, now: Cycle, probe: &mut P) {
        self.cal.promote_due(now);
        for w in 0..self.cal.busy_words().len() {
            // Snapshot one word: a slice's reschedule may clear its own
            // (already-visited) bit, never set another slice's.
            let mut bits = self.cal.busy_words()[w];
            while bits != 0 {
                let s = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slice = &mut self.slices[s];
                let mc = s / self.slices_per_mc;
                let dram = &mut self.drams[mc];
                let before = self.reply_counts[s] as usize;
                slice.tick_probed(now, dram, mc, probe);
                let after = slice.reply_len();
                self.total_replies += after - before;
                self.reply_counts[s] = after as u32;
                if before == 0 && after > 0 {
                    self.reply_mask.set(s);
                }
                let next = slice.next_tick();
                self.cal.reschedule_near(
                    s as ComponentId,
                    if next == Cycle::MAX {
                        NextEvent::Idle
                    } else {
                        NextEvent::At(next)
                    },
                    now,
                );
            }
        }
    }

    /// Whether `slice` has a ready reply waiting at its port.
    pub fn has_reply(&self, slice: SliceId) -> bool {
        self.reply_counts[slice.index()] > 0
    }

    /// A reference to the oldest reply waiting at `slice`.
    pub fn peek_reply(&self, slice: SliceId) -> Option<&Packet> {
        self.slices[slice.index()].peek_reply()
    }

    /// Removes the oldest reply waiting at `slice`.
    pub fn pop_reply(&mut self, slice: SliceId) -> Option<Packet> {
        self.pop_reply_for(slice, |_| true)
    }

    /// Removes the oldest reply at `slice` whose destination GPC
    /// `has_room` admits (see [`L2Slice::pop_reply_for`]): the slice's
    /// reply port keeps a virtual channel per destination GPC, so one
    /// congested GPC must not head-of-line-block replies bound for the
    /// others.
    pub fn pop_reply_for(
        &mut self,
        slice: SliceId,
        has_room: impl FnMut(GpcId) -> bool,
    ) -> Option<Packet> {
        let popped = self.slices[slice.index()].pop_reply_for(has_room);
        if popped.is_some() {
            self.reply_counts[slice.index()] -= 1;
            self.total_replies -= 1;
            if self.reply_counts[slice.index()] == 0 {
                self.reply_mask.clear(slice.index());
            }
        }
        popped
    }

    /// Injects every ready reply the reply fabric will currently accept,
    /// slice by slice in id order — the engine's reply-inject phase,
    /// batched here so quiet machines skip it with one counter read.
    /// Within a slice the reply port keeps a virtual channel per
    /// destination GPC (see [`pop_reply_for`](Self::pop_reply_for)): one
    /// congested GPC must not head-of-line-block the others, and a
    /// blocked slice costs one room query per non-empty channel rather
    /// than one per queued reply.
    pub fn drain_replies_probed<P: Probe>(&mut self, fabric: &mut ReplyFabric, probe: &mut P) {
        if self.total_replies == 0 {
            return;
        }
        for w in 0..self.reply_mask.words().len() {
            // Snapshot one word: injections may clear bits of visited
            // slices, never set new ones.
            let mut bits = self.reply_mask.words()[w];
            while bits != 0 {
                let s = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slice_id = SliceId::new(s);
                while let Some(p) =
                    self.pop_reply_for(slice_id, |gpc| fabric.has_room(slice_id, gpc))
                {
                    fabric
                        .inject_at_slice_probed(slice_id, p, probe)
                        .expect("room just checked");
                }
            }
        }
    }

    /// Restores the subsystem to its just-constructed state in place:
    /// every slice and controller resets (fault plans detach), the wake
    /// calendar empties, and the reply mirrors zero. Allocations are
    /// retained for reuse.
    pub fn reset(&mut self) {
        for slice in &mut self.slices {
            slice.reset();
        }
        for dram in &mut self.drams {
            dram.reset();
        }
        self.cal.reset();
        self.reply_counts.fill(0);
        self.reply_mask.clear_all();
        self.total_replies = 0;
    }

    /// Counter snapshot for `slice`.
    pub fn slice_stats(&self, slice: SliceId) -> L2Stats {
        self.slices[slice.index()].stats()
    }

    /// Aggregated counters over all slices.
    pub fn total_stats(&self) -> L2Stats {
        let mut total = L2Stats::default();
        for s in &self.slices {
            let st = s.stats();
            total.accesses += st.accesses;
            total.hits += st.hits;
            total.misses += st.misses;
            total.mshr_merges += st.mshr_merges;
            total.writebacks += st.writebacks;
            total.mshr_stalls += st.mshr_stalls;
        }
        total
    }

    /// True when every slice is idle and reply-free. Two counter reads
    /// decide it: a slice with any in-flight request keeps a finite wake
    /// cycle (MSHRs always have a pending fill), and replies are summed
    /// in `total_replies`. A positive claim is cross-checked against the
    /// full per-slice scan even in release builds — the check is off the
    /// hot path (it only runs when the machine looks idle) and a
    /// corrupted wake-cycle mirror here would silently end a simulation
    /// early, the worst possible failure mode for a timing study.
    pub fn is_drained(&self) -> bool {
        if self.total_replies != 0 || !self.cal.is_idle() {
            return false;
        }
        assert!(
            self.slices.iter().all(L2Slice::is_drained),
            "memory wake cycles claim drained but a slice holds requests"
        );
        true
    }

    /// The earliest [`NextEvent`] across every slice. Pending replies
    /// need service every cycle (Busy); otherwise the slice calendar's
    /// earliest wake-up is exact. A stalled lookup reports wake cycle 0,
    /// i.e. a timestamp never in the future — the driver treats it as
    /// due every cycle, matching the old per-slice Busy report.
    pub fn next_event(&mut self) -> NextEvent {
        if self.total_replies > 0 {
            return NextEvent::Busy;
        }
        match self.cal.next_wake() {
            Wake::Now => NextEvent::Busy,
            Wake::At(c) => NextEvent::At(c),
            Wake::Never => NextEvent::Idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnc_common::ids::{SmId, WarpId};
    use gnc_noc::packet::{PacketId, PacketKind};

    fn cfg() -> GpuConfig {
        GpuConfig::volta_v100()
    }

    fn request(mem: &MemorySubsystem, addr: u64, id: u64, kind: PacketKind) -> Packet {
        Packet {
            id: PacketId(id),
            kind,
            sm: SmId::new(0),
            warp: WarpId::new(0),
            slice: mem.address_map().slice_of(addr),
            addr,
            data_bytes: 128,
            injected_at: 0,
            group: id,
        }
    }

    #[test]
    fn requests_route_to_owning_slice() {
        let cfg = cfg();
        let mut mem = MemorySubsystem::new(&cfg);
        mem.preload(0);
        mem.preload(128);
        let r0 = request(&mem, 0, 1, PacketKind::ReadRequest);
        let r1 = request(&mem, 128, 2, PacketKind::ReadRequest);
        assert_ne!(r0.slice, r1.slice);
        let (s0, s1) = (r0.slice, r1.slice);
        mem.push_request(r0, 0);
        mem.push_request(r1, 0);
        let mut got = Vec::new();
        for now in 0..2000 {
            mem.tick(now);
            for s in [s0, s1] {
                if let Some(p) = mem.pop_reply(s) {
                    got.push(p.id);
                }
            }
            if got.len() == 2 {
                break;
            }
        }
        got.sort();
        assert_eq!(got, vec![PacketId(1), PacketId(2)]);
        assert!(mem.is_drained());
    }

    #[test]
    fn preload_range_warms_every_line() {
        let cfg = cfg();
        let mut mem = MemorySubsystem::new(&cfg);
        mem.preload_range(0, 96);
        for i in 0..96u64 {
            assert!(mem.contains(i * 128), "line {i} must be warm");
        }
        assert!(!mem.contains(96 * 128));
    }

    #[test]
    fn preloaded_hits_never_touch_dram() {
        let cfg = cfg();
        let mut mem = MemorySubsystem::new(&cfg);
        mem.preload_range(0, 480);
        for i in 0..480u64 {
            let p = request(&mem, i * 128, i, PacketKind::WriteRequest);
            mem.push_request(p, 0);
        }
        for now in 0..5000 {
            mem.tick(now);
            for s in 0..mem.num_slices() {
                while mem.pop_reply(SliceId::new(s)).is_some() {}
            }
        }
        let total = mem.total_stats();
        assert_eq!(total.hits, 480);
        assert_eq!(total.misses, 0);
        assert!(mem.is_drained());
    }

    #[test]
    fn stats_aggregate_across_slices() {
        let cfg = cfg();
        let mut mem = MemorySubsystem::new(&cfg);
        mem.preload(0);
        mem.push_request(request(&mem, 0, 1, PacketKind::ReadRequest), 0);
        for now in 0..400 {
            mem.tick(now);
        }
        let slice = mem.address_map().slice_of(0);
        assert_eq!(mem.slice_stats(slice).hits, 1);
        assert_eq!(mem.total_stats().hits, 1);
    }
}
