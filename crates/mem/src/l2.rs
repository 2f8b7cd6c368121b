//! One L2 cache slice.
//!
//! Each slice is set-associative with true-LRU replacement, a fixed-depth
//! access pipeline (the ~150-cycle L2 latency that dominates the paper's
//! 200–250-cycle round trip), MSHR-based miss handling with same-line
//! merging, and write-allocate semantics. Covert-channel kernels preload
//! their working set (see [`L2Slice::preload`]) so every timed access is
//! a hit — the paper loads all data into the L2 so that latency varies
//! only with NoC contention (§4.2).

use crate::address::AddressMap;
use crate::dram::DramController;
use gnc_common::hash::FastHashMap;
use gnc_common::ids::{GpcId, SliceId, SmId};
use gnc_common::telemetry::{NullProbe, Probe};
use gnc_common::{Cycle, GpuConfig};
use gnc_noc::delay::DelayLine;
use gnc_noc::event::NextEvent;
use gnc_noc::packet::{Packet, PacketKind};
use gnc_noc::OccupancyMask;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    dirty: bool,
    lru: u64,
}

/// Counters exposed by a slice for instrumentation and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct L2Stats {
    /// Lookups performed (hits + misses, excluding MSHR merges).
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed and allocated an MSHR.
    pub misses: u64,
    /// Lookups that missed but merged into an in-flight MSHR.
    pub mshr_merges: u64,
    /// Dirty evictions written back to DRAM.
    pub writebacks: u64,
    /// Cycles the lookup stage stalled for a free MSHR.
    pub mshr_stalls: u64,
}

/// The waiters of one in-flight MSHR: the request that allocated the
/// miss inline, plus any later same-line merges. The dominant case —
/// a miss with no merges — allocates nothing (`Vec::new` is
/// allocation-free); merge overflow vectors are recycled through the
/// slice's waiter pool so steady-state merging is allocation-free too.
#[derive(Debug, Clone)]
struct WaiterList {
    first: Packet,
    rest: Vec<Packet>,
}

/// A single banked L2 slice backed by (a share of) one DRAM controller.
#[derive(Debug)]
pub struct L2Slice {
    id: SliceId,
    map: AddressMap,
    sets: Vec<Vec<Way>>,
    assoc: usize,
    lru_clock: u64,
    pipeline: DelayLine<Packet>,
    /// Lookup that could not allocate an MSHR, retried before the pipeline.
    stalled: Option<Packet>,
    mshrs: FastHashMap<u64, WaiterList>,
    mshr_capacity: usize,
    /// Recycled `WaiterList::rest` vectors (capacity > 0 only), so
    /// same-line merges reuse buffers instead of allocating per miss.
    waiter_pool: Vec<Vec<Packet>>,
    pending_fills: BinaryHeap<Reverse<(Cycle, u64)>>,
    /// Ready replies at the port, one FIFO (virtual channel) per
    /// destination GPC. Each entry carries its port-wide arrival
    /// sequence number, so the oldest reply is the lowest-sequence head.
    reply_vcs: Vec<VecDeque<(u64, Packet)>>,
    /// Bit `g` set iff `reply_vcs[g]` is non-empty.
    reply_vc_mask: OccupancyMask,
    /// Sequence number of the next reply to arrive.
    reply_seq: u64,
    /// Replies queued over all virtual channels.
    reply_len: usize,
    /// Destination GPC of each SM's replies (reply VC routing).
    gpc_of_sm: Vec<GpcId>,
    stats: L2Stats,
    /// Optional fault injection: hot-spot windows during which this
    /// slice's lookup stage stalls (a co-tenant hammering the slice).
    fault: Option<std::sync::Arc<gnc_common::fault::FaultPlan>>,
}

impl L2Slice {
    /// Creates slice `id` under configuration `cfg`.
    pub fn new(id: SliceId, cfg: &GpuConfig) -> Self {
        let map = AddressMap::new(cfg);
        let num_sets = map.num_sets();
        Self {
            id,
            map,
            sets: vec![Vec::new(); num_sets],
            assoc: cfg.mem.l2_assoc,
            lru_clock: 0,
            pipeline: DelayLine::new(cfg.mem.l2_access_latency),
            stalled: None,
            mshrs: FastHashMap::default(),
            mshr_capacity: cfg.mem.l2_mshrs,
            waiter_pool: Vec::new(),
            pending_fills: BinaryHeap::new(),
            reply_vcs: (0..cfg.num_gpcs).map(|_| VecDeque::new()).collect(),
            reply_vc_mask: OccupancyMask::new(cfg.num_gpcs),
            reply_seq: 0,
            reply_len: 0,
            gpc_of_sm: (0..cfg.num_sms())
                .map(|s| cfg.gpc_of_sm(SmId::new(s)))
                .collect(),
            stats: L2Stats::default(),
            fault: None,
        }
    }

    /// Attaches a fault plan; the plan's hot-spot windows for this
    /// slice's id will stall the lookup stage.
    pub fn set_fault_plan(&mut self, plan: std::sync::Arc<gnc_common::fault::FaultPlan>) {
        self.fault = Some(plan);
    }

    /// This slice's identifier.
    pub fn id(&self) -> SliceId {
        self.id
    }

    /// Accepts a request packet arriving from the request fabric at `now`.
    /// It emerges from the lookup pipeline `l2_access_latency` cycles
    /// later.
    pub fn push_request(&mut self, packet: Packet, now: Cycle) {
        debug_assert!(packet.kind.is_request(), "slices only take requests");
        debug_assert_eq!(
            self.map.slice_of(packet.addr),
            self.id,
            "packet routed to wrong slice"
        );
        self.pipeline.push(now, packet);
    }

    /// Installs the line containing `addr` as clean and warm, bypassing
    /// DRAM. Models the kernels' working-set preload (§4.2: "all memory
    /// requests access data that is loaded into the L2 cache").
    pub fn preload(&mut self, addr: u64) {
        let (set, tag) = self.map.set_tag_of(addr);
        self.lru_clock += 1;
        let lru = self.lru_clock;
        let ways = &mut self.sets[set];
        if let Some(way) = ways.iter_mut().find(|w| w.tag == tag) {
            way.lru = lru;
            return;
        }
        if ways.len() < self.assoc {
            ways.push(Way {
                tag,
                dirty: false,
                lru,
            });
        } else {
            let victim = ways
                .iter_mut()
                .min_by_key(|w| w.lru)
                .expect("assoc > 0 so a victim exists");
            *victim = Way {
                tag,
                dirty: false,
                lru,
            };
        }
    }

    /// Whether the line containing `addr` is currently resident.
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.map.set_tag_of(addr);
        self.sets[set].iter().any(|w| w.tag == tag)
    }

    fn touch_hit(&mut self, addr: u64, write: bool) -> bool {
        let (set, tag) = self.map.set_tag_of(addr);
        self.lru_clock += 1;
        let lru = self.lru_clock;
        if let Some(way) = self.sets[set].iter_mut().find(|w| w.tag == tag) {
            way.lru = lru;
            way.dirty |= write;
            true
        } else {
            false
        }
    }

    fn install_fill<P: Probe>(
        &mut self,
        line: u64,
        dram: &mut DramController,
        now: Cycle,
        mc: usize,
        probe: &mut P,
    ) {
        let addr = line * self.map.line_bytes();
        let (set, tag) = self.map.set_tag_of(addr);
        self.lru_clock += 1;
        let lru = self.lru_clock;
        let mut writeback_tag = None;
        let ways = &mut self.sets[set];
        if let Some(way) = ways.iter_mut().find(|w| w.tag == tag) {
            way.lru = lru; // racing preload already installed it
        } else if ways.len() < self.assoc {
            ways.push(Way {
                tag,
                dirty: false,
                lru,
            });
        } else {
            let victim = ways
                .iter_mut()
                .min_by_key(|w| w.lru)
                .expect("assoc > 0 so a victim exists");
            if victim.dirty {
                writeback_tag = Some(victim.tag);
            }
            *victim = Way {
                tag,
                dirty: false,
                lru,
            };
        }
        if let Some(victim_tag) = writeback_tag {
            // Fire-and-forget writeback: occupies a DRAM bank + bus.
            let victim_addr = self.reconstruct_addr(victim_tag, set);
            let bank = self.map.bank_of(victim_addr);
            let row = self.map.row_of(victim_addr);
            let acc = dram.access_traced(bank, row, now);
            probe.dram_access(now, mc, bank, acc.start, acc.done, acc.row_hit);
            self.stats.writebacks += 1;
        }
    }

    /// Rebuilds a resident line's byte address from its tag and set
    /// (inverse of the AddressMap decomposition for this slice).
    fn reconstruct_addr(&self, tag: u64, set: usize) -> u64 {
        let nth = tag * self.map.num_sets() as u64 + set as u64;
        self.map.addr_in_slice(self.id, nth)
    }

    /// Advances the slice one cycle: completes ready fills, then performs
    /// at most one lookup.
    pub fn tick(&mut self, now: Cycle, dram: &mut DramController) {
        self.tick_probed(now, dram, 0, &mut NullProbe);
    }

    /// [`tick`](Self::tick) with telemetry: lookup outcomes, MSHR
    /// occupancy, and DRAM accesses (demand fills and writebacks) report
    /// to `probe`. `mc` is the index of `dram` within the subsystem
    /// (only used to label DRAM telemetry; pass 0 when standalone).
    pub fn tick_probed<P: Probe>(
        &mut self,
        now: Cycle,
        dram: &mut DramController,
        mc: usize,
        probe: &mut P,
    ) {
        // 1. Fills whose DRAM access has completed.
        while let Some(&Reverse((ready, line))) = self.pending_fills.peek() {
            if ready > now {
                break;
            }
            self.pending_fills.pop();
            self.install_fill(line, dram, now, mc, probe);
            if let Some(mut waiters) = self.mshrs.remove(&line) {
                // Reply order matches the old Vec walk: the allocating
                // request first, then merges in arrival order.
                let write = waiters.first.kind == PacketKind::WriteRequest;
                self.touch_hit(waiters.first.addr, write);
                self.push_reply(waiters.first.to_reply(now));
                for req in waiters.rest.drain(..) {
                    let write = req.kind == PacketKind::WriteRequest;
                    self.touch_hit(req.addr, write);
                    self.push_reply(req.to_reply(now));
                }
                if waiters.rest.capacity() > 0 {
                    self.waiter_pool.push(waiters.rest);
                }
            }
        }
        // 2. One lookup per cycle, preferring a stalled retry. The
        // hot-spot probe is only consulted when a lookup is actually
        // pending: an idle lookup stage has nothing to stall, and
        // skipping the probe there is what lets `next_event` report
        // exact wake times under fault injection instead of Busy.
        if self.stalled.is_none() && self.pipeline.peek_ready(now).is_none() {
            return;
        }
        // A fault-injected hot-spot claims the lookup stage for the
        // cycle without consuming the candidate (fills above still
        // land, so no request is ever lost — everything behind the
        // hot-spot just waits and retries next cycle).
        if let Some(plan) = &self.fault {
            if plan.l2_stall(self.id.index() as u64, now) {
                return;
            }
        }
        let candidate = if self.stalled.is_some() {
            self.stalled.take()
        } else {
            self.pipeline.pop_ready(now)
        };
        let Some(req) = candidate else {
            return;
        };
        let line = self.map.line_of(req.addr);
        let write = req.kind == PacketKind::WriteRequest;
        if let Some(waiters) = self.mshrs.get_mut(&line) {
            // Merge into the in-flight miss; reply when the fill lands.
            self.stats.mshr_merges += 1;
            if waiters.rest.capacity() == 0 {
                if let Some(pooled) = self.waiter_pool.pop() {
                    waiters.rest = pooled;
                }
            }
            waiters.rest.push(req);
            return;
        }
        self.stats.accesses += 1;
        if self.touch_hit(req.addr, write) {
            self.stats.hits += 1;
            probe.l2_access(now, self.id.index(), true);
            self.push_reply(req.to_reply(now));
            return;
        }
        if self.mshrs.len() >= self.mshr_capacity {
            self.stats.accesses -= 1; // retried next cycle; count once
            self.stats.mshr_stalls += 1;
            self.stalled = Some(req);
            return;
        }
        self.stats.misses += 1;
        probe.l2_access(now, self.id.index(), false);
        let bank = self.map.bank_of(req.addr);
        let row = self.map.row_of(req.addr);
        let acc = dram.access_traced(bank, row, now);
        probe.dram_access(now, mc, bank, acc.start, acc.done, acc.row_hit);
        self.mshrs.insert(
            line,
            WaiterList {
                first: req,
                rest: Vec::new(),
            },
        );
        probe.mshr_occupancy(self.id.index(), self.mshrs.len());
        self.pending_fills.push(Reverse((acc.done, line)));
    }

    /// Queues a ready reply on its destination GPC's virtual channel.
    fn push_reply(&mut self, reply: Packet) {
        let g = self.gpc_of_sm[reply.sm.index()].index();
        if self.reply_vcs[g].is_empty() {
            self.reply_vc_mask.set(g);
        }
        self.reply_vcs[g].push_back((self.reply_seq, reply));
        self.reply_seq += 1;
        self.reply_len += 1;
    }

    /// The virtual channel whose head is the oldest reply among the
    /// GPCs `eligible` admits. `eligible` is only asked about channels
    /// whose head would beat the best found so far, so it must be pure.
    /// Head sequence numbers are read only once a second candidate
    /// appears: the common single-channel case never touches the queue.
    fn oldest_vc(&self, mut eligible: impl FnMut(GpcId) -> bool) -> Option<usize> {
        let head_seq = |g: usize| self.reply_vcs[g].front().map_or(u64::MAX, |&(seq, _)| seq);
        let mut best: Option<usize> = None;
        for (w, &word) in self.reply_vc_mask.words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let g = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if best.is_some_and(|b| head_seq(g) > head_seq(b)) {
                    continue;
                }
                if eligible(GpcId::new(g)) {
                    best = Some(g);
                }
            }
        }
        best
    }

    /// Number of ready replies waiting at the port.
    pub fn reply_len(&self) -> usize {
        self.reply_len
    }

    /// The destination GPCs with replies waiting: bit `g` is set iff the
    /// port's virtual channel for GPC `g` is non-empty.
    pub(crate) fn reply_gpcs(&self) -> &OccupancyMask {
        &self.reply_vc_mask
    }

    /// A reference to the oldest ready reply, if any.
    pub fn peek_reply(&self) -> Option<&Packet> {
        let g = self.oldest_vc(|_| true)?;
        self.reply_vcs[g].front().map(|(_, reply)| reply)
    }

    /// Removes the oldest ready reply (whole-port arrival order).
    pub fn pop_reply(&mut self) -> Option<Packet> {
        self.pop_reply_for(|_| true)
    }

    /// Removes the oldest ready reply whose destination GPC `has_room`
    /// admits. The port keeps a virtual channel per destination GPC, so
    /// a blocked GPC never head-of-line-blocks replies bound for the
    /// others. Because admission depends on the GPC alone, the result is
    /// the first reply in arrival order that can be injected, found with
    /// at most one `has_room` query per non-empty channel. `has_room`
    /// must be pure: it may be skipped for channels that cannot win.
    pub fn pop_reply_for(&mut self, has_room: impl FnMut(GpcId) -> bool) -> Option<Packet> {
        self.pop_reply_vc(has_room).map(|(_, reply)| reply)
    }

    /// [`pop_reply_for`](Self::pop_reply_for), also naming the virtual
    /// channel the reply left.
    pub(crate) fn pop_reply_vc(
        &mut self,
        has_room: impl FnMut(GpcId) -> bool,
    ) -> Option<(GpcId, Packet)> {
        let g = self.oldest_vc(has_room)?;
        let (_, reply) = self.reply_vcs[g].pop_front()?;
        if self.reply_vcs[g].is_empty() {
            self.reply_vc_mask.clear(g);
        }
        self.reply_len -= 1;
        Some((GpcId::new(g), reply))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> L2Stats {
        self.stats
    }

    /// Restores the slice to its just-constructed state in place: cache
    /// contents, pipeline, MSHRs, pending fills, replies, and stats all
    /// clear; any fault plan detaches. Allocations (sets, hash-map
    /// capacity, the waiter pool, the reply VCs) and the SM → GPC reply
    /// routing table are retained for reuse.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.lru_clock = 0;
        self.pipeline.clear();
        self.stalled = None;
        self.mshrs.clear();
        self.pending_fills.clear();
        for vc in &mut self.reply_vcs {
            vc.clear();
        }
        self.reply_vc_mask.clear_all();
        self.reply_seq = 0;
        self.reply_len = 0;
        self.stats = L2Stats::default();
        self.fault = None;
    }

    /// True when no request is in flight anywhere in the slice.
    pub fn is_drained(&self) -> bool {
        self.pipeline.is_empty()
            && self.stalled.is_none()
            && self.mshrs.is_empty()
            && self.pending_fills.is_empty()
            && self.reply_len == 0
    }

    /// The earliest cycle at which [`tick`](Self::tick) can have an
    /// effect, or `Cycle::MAX` when ticking is a no-op until new
    /// requests arrive. A stalled lookup retries every cycle (reported
    /// as cycle 0 — always due). Pending replies do *not* force ticks:
    /// ticking never touches the reply queue, it only appends to it.
    /// Fault injection needs no special case — a hot-spot stall leaves
    /// the blocked lookup's ready cycle in the past, so the slice stays
    /// due until the lookup finally issues.
    pub fn next_tick(&self) -> Cycle {
        if self.stalled.is_some() {
            return 0;
        }
        let pipeline = self.pipeline.next_ready_cycle().unwrap_or(Cycle::MAX);
        match self.pending_fills.peek() {
            Some(&Reverse((ready, _))) => pipeline.min(ready),
            None => pipeline,
        }
    }

    /// When this slice next has actionable work (see [`NextEvent`]).
    ///
    /// Pending replies and a stalled lookup need service every cycle; an
    /// otherwise-quiet slice sleeps until the earlier of the next
    /// pipeline exit and the next DRAM fill. Fault injection needs no
    /// special case: a hot-spot stall leaves the blocked lookup in
    /// place, so its ready cycle stays in the past and the slice keeps
    /// reporting it until the lookup finally issues.
    pub fn next_event(&self) -> NextEvent {
        if self.reply_len != 0 || self.stalled.is_some() {
            return NextEvent::Busy;
        }
        let pipeline = match self.pipeline.next_ready_cycle() {
            Some(ready) => NextEvent::At(ready),
            None => NextEvent::Idle,
        };
        match self.pending_fills.peek() {
            Some(&Reverse((ready, _))) => pipeline.merge(NextEvent::At(ready)),
            None => pipeline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnc_common::config::MemConfig;
    use gnc_common::ids::{SmId, WarpId};
    use gnc_noc::packet::PacketId;

    fn cfg() -> GpuConfig {
        GpuConfig::volta_v100()
    }

    fn slice_and_dram(cfg: &GpuConfig) -> (L2Slice, DramController) {
        (
            L2Slice::new(SliceId::new(0), cfg),
            DramController::new(&cfg.mem),
        )
    }

    fn req_for(slice: &L2Slice, nth: u64, kind: PacketKind, id: u64) -> Packet {
        let addr = slice.map.addr_in_slice(slice.id, nth);
        Packet {
            id: PacketId(id),
            kind,
            sm: SmId::new(0),
            warp: WarpId::new(0),
            slice: slice.id,
            addr,
            data_bytes: 128,
            injected_at: 0,
            group: id,
        }
    }

    /// Ticks until a reply pops, returning (cycle, reply).
    fn run_until_reply(
        slice: &mut L2Slice,
        dram: &mut DramController,
        start: Cycle,
        limit: Cycle,
    ) -> (Cycle, Packet) {
        for now in start..limit {
            slice.tick(now, dram);
            if let Some(r) = slice.pop_reply() {
                return (now, r);
            }
        }
        panic!("no reply within {limit} cycles");
    }

    #[test]
    fn preloaded_read_hits_after_pipeline_latency() {
        let cfg = cfg();
        let (mut slice, mut dram) = slice_and_dram(&cfg);
        let req = req_for(&slice, 0, PacketKind::ReadRequest, 1);
        slice.preload(req.addr);
        slice.push_request(req, 0);
        let (when, reply) = run_until_reply(&mut slice, &mut dram, 0, 1000);
        assert_eq!(when, u64::from(cfg.mem.l2_access_latency));
        assert_eq!(reply.kind, PacketKind::ReadReply);
        assert_eq!(slice.stats().hits, 1);
        assert_eq!(slice.stats().misses, 0);
        assert!(slice.is_drained());
    }

    #[test]
    fn cold_miss_goes_to_dram_and_fills() {
        let cfg = cfg();
        let (mut slice, mut dram) = slice_and_dram(&cfg);
        let req = req_for(&slice, 0, PacketKind::ReadRequest, 1);
        let addr = req.addr;
        slice.push_request(req, 0);
        let (when, reply) = run_until_reply(&mut slice, &mut dram, 0, 5000);
        assert!(
            when > u64::from(cfg.mem.l2_access_latency),
            "miss must be slower than a hit"
        );
        assert_eq!(reply.kind, PacketKind::ReadReply);
        assert_eq!(slice.stats().misses, 1);
        assert!(slice.contains(addr), "line must be resident after fill");
        assert!(slice.is_drained());
    }

    #[test]
    fn same_line_misses_merge_in_mshr() {
        let cfg = cfg();
        let (mut slice, mut dram) = slice_and_dram(&cfg);
        let a = req_for(&slice, 0, PacketKind::ReadRequest, 1);
        let mut b = a.clone();
        b.id = PacketId(2);
        slice.push_request(a, 0);
        slice.push_request(b, 1);
        let mut replies = Vec::new();
        for now in 0..5000 {
            slice.tick(now, &mut dram);
            while let Some(r) = slice.pop_reply() {
                replies.push(r.id);
            }
            if replies.len() == 2 {
                break;
            }
        }
        assert_eq!(replies.len(), 2);
        assert_eq!(slice.stats().misses, 1, "only one DRAM access");
        assert_eq!(slice.stats().mshr_merges, 1);
        assert_eq!(dram.accesses(), 1);
    }

    #[test]
    fn write_marks_line_dirty_and_acks() {
        let cfg = cfg();
        let (mut slice, mut dram) = slice_and_dram(&cfg);
        let req = req_for(&slice, 0, PacketKind::WriteRequest, 1);
        slice.preload(req.addr);
        slice.push_request(req, 0);
        let (_, reply) = run_until_reply(&mut slice, &mut dram, 0, 1000);
        assert_eq!(reply.kind, PacketKind::WriteAck);
        assert_eq!(slice.stats().hits, 1);
    }

    #[test]
    fn capacity_eviction_writes_back_dirty_lines() {
        let cfg = cfg();
        let (mut slice, mut dram) = slice_and_dram(&cfg);
        // Dirty one line in set 0, then stream enough distinct lines
        // through the same set to evict it.
        let hot = req_for(&slice, 0, PacketKind::WriteRequest, 0);
        slice.preload(hot.addr);
        slice.push_request(hot, 0);
        let sets = slice.map.num_sets() as u64;
        for k in 1..=cfg.mem.l2_assoc as u64 {
            // nth = k * num_sets keeps the same set with a different tag.
            let req = req_for(&slice, k * sets, PacketKind::ReadRequest, k);
            slice.push_request(req, k - 1);
        }
        for t in 0..20_000 {
            slice.tick(t, &mut dram);
            while slice.pop_reply().is_some() {}
        }
        assert!(
            slice.stats().writebacks >= 1,
            "dirty eviction must write back"
        );
    }

    #[test]
    fn mshr_exhaustion_stalls_lookups() {
        let mut cfg = cfg();
        cfg.mem.l2_mshrs = 2;
        let (mut slice, mut dram) = slice_and_dram(&cfg);
        for k in 0..4u64 {
            let req = req_for(&slice, k, PacketKind::ReadRequest, k);
            slice.push_request(req, 0);
        }
        for now in 0..20_000 {
            slice.tick(now, &mut dram);
            while slice.pop_reply().is_some() {}
        }
        assert!(slice.stats().mshr_stalls > 0, "expected MSHR stalls");
        assert_eq!(slice.stats().misses, 4, "all four lines eventually fetched");
        assert!(slice.is_drained());
    }

    #[test]
    fn lru_keeps_recently_used_lines() {
        let cfg = cfg();
        let (mut slice, _) = slice_and_dram(&cfg);
        let sets = slice.map.num_sets() as u64;
        // Fill one set to capacity.
        let addrs: Vec<u64> = (0..cfg.mem.l2_assoc as u64)
            .map(|k| slice.map.addr_in_slice(slice.id, k * sets))
            .collect();
        for &a in &addrs {
            slice.preload(a);
        }
        // Touch line 0 again, then insert a new line: victim must be
        // line 1 (the least recently used), not line 0.
        slice.preload(addrs[0]);
        let newcomer = slice
            .map
            .addr_in_slice(slice.id, cfg.mem.l2_assoc as u64 * sets);
        slice.preload(newcomer);
        assert!(slice.contains(addrs[0]));
        assert!(!slice.contains(addrs[1]));
        assert!(slice.contains(newcomer));
    }

    #[test]
    fn distinct_mem_config_changes_pipeline_latency() {
        let mut cfg = cfg();
        cfg.mem = MemConfig {
            l2_access_latency: 10,
            ..cfg.mem
        };
        let (mut slice, mut dram) = slice_and_dram(&cfg);
        let req = req_for(&slice, 0, PacketKind::ReadRequest, 1);
        slice.preload(req.addr);
        slice.push_request(req, 0);
        let (when, _) = run_until_reply(&mut slice, &mut dram, 0, 100);
        assert_eq!(when, 10);
    }
}
