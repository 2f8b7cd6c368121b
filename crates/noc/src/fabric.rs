//! The assembled request and reply networks.
//!
//! The request subnet concentrates upward through the hierarchy the paper
//! reverse-engineered (Fig 1): each pair of SMs shares a TPC mux, each
//! GPC's TPCs share a GPC mux with speedup, and the GPC channels meet the
//! L2 slices over a crossbar. The reply subnet carries data back: slices
//! feed a per-GPC reply channel (the bandwidth the GPC *read* channel
//! contends for, §3.4), which fans out to per-SM ejection ports (so read
//! replies do not contend *within* a TPC, matching Fig 5(a)).
//!
//! The configured arbitration policy (§6) applies to the **TPC request
//! muxes** — the concentration point between co-located SMs that the
//! paper attacks and then defends with strict round-robin. The GPC mux,
//! crossbar, and reply subnet always use locally-fair round-robin: the
//! GPC mux has speedup (6 flit/cycle over seven 1-flit/cycle inputs), so
//! time-slicing it would cap every TPC at 6/7 of its own channel rate
//! and re-introduce a demand-dependent observable — the opposite of the
//! countermeasure's intent — while time-partitioning 48 slice ports has
//! no correspondence to the paper's per-core temporal partitioning.

use crate::arbiter::OccupancyMask;
use crate::crossbar::Crossbar;
use crate::event::NextEvent;
use crate::mux::ConcentratorMux;
use crate::packet::Packet;
use gnc_common::config::Arbitration;
use gnc_common::fault::FaultPlan;
use gnc_common::ids::{GpcId, SliceId, SmId, TpcId};
use gnc_common::telemetry::{Component, NullProbe, Probe};
use gnc_common::{Cycle, GpuConfig};
use std::sync::Arc;

/// The SM → L2 request network.
#[derive(Debug)]
pub struct RequestFabric {
    tpc_muxes: Vec<ConcentratorMux>,
    gpc_muxes: Vec<ConcentratorMux>,
    xbar: Crossbar,
    /// For each TPC: (owning GPC, input index at that GPC's mux).
    gpc_port_of_tpc: Vec<(GpcId, usize)>,
    sms_per_tpc: usize,
    /// Packets injected but not yet popped at a slice. Zero means every
    /// queue and delay line in the subnet is empty, so ticks are no-ops.
    in_flight: usize,
    /// Packets inside each TPC mux (queued + output pipeline). A zero
    /// entry proves that mux's tick, pop, and next_event are no-ops, so
    /// the hot loops skip the mux without touching it.
    tpc_busy: Vec<u32>,
    /// Bit `t` set iff `tpc_busy[t] > 0`: the per-cycle loops walk set
    /// bits in index order instead of scanning all 40 counters.
    tpc_mask: OccupancyMask,
    /// Packets inside each GPC mux (same contract as `tpc_busy`; only a
    /// handful of GPCs, so a plain counter scan stays cheap).
    gpc_busy: Vec<u32>,
}

impl RequestFabric {
    /// Wires the request network for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation invariants this fabric relies on
    /// (call [`GpuConfig::validate`] first for a graceful error).
    pub fn new(cfg: &GpuConfig) -> Self {
        let noc = &cfg.noc;
        let tpc_muxes = (0..cfg.num_tpcs())
            .map(|t| {
                let mut mux = ConcentratorMux::new(
                    cfg.sms_per_tpc,
                    noc.tpc_request_bw,
                    noc.sm_to_tpc_latency,
                    noc.input_queue_depth,
                    noc.arbitration,
                    noc,
                );
                mux.set_label(Component::tpc_mux(t));
                mux
            })
            .collect();
        let mut gpc_port_of_tpc = vec![(GpcId::new(0), 0); cfg.num_tpcs()];
        let mut gpc_muxes = Vec::with_capacity(cfg.num_gpcs);
        for g in 0..cfg.num_gpcs {
            let members = cfg.tpcs_of_gpc(GpcId::new(g));
            for (port, tpc) in members.iter().enumerate() {
                gpc_port_of_tpc[tpc.index()] = (GpcId::new(g), port);
            }
            let mut gpc_mux = ConcentratorMux::new(
                members.len().max(1),
                noc.gpc_request_bw,
                noc.tpc_to_gpc_latency,
                noc.input_queue_depth,
                Arbitration::RoundRobin,
                noc,
            );
            gpc_mux.set_label(Component::gpc_req_mux(g));
            gpc_muxes.push(gpc_mux);
        }
        let xbar = Crossbar::new(
            cfg.num_gpcs,
            cfg.mem.num_l2_slices,
            1,
            noc.gpc_to_slice_latency,
            noc.input_queue_depth,
            Arbitration::RoundRobin,
            noc,
        );
        Self {
            tpc_muxes,
            gpc_muxes,
            xbar,
            gpc_port_of_tpc,
            sms_per_tpc: cfg.sms_per_tpc,
            in_flight: 0,
            tpc_busy: vec![0; cfg.num_tpcs()],
            tpc_mask: OccupancyMask::new(cfg.num_tpcs()),
            gpc_busy: vec![0; cfg.num_gpcs],
        }
    }

    /// Attaches a fault plan to every shared mux of the request subnet.
    ///
    /// Each mux gets a distinct stable site id (TPC muxes at
    /// `0x1_0000 + t`, GPC muxes at `0x2_0000 + g`) so the plan's
    /// hashed burst schedule differs per mux but is reproducible
    /// per seed.
    pub fn set_fault_plan(&mut self, plan: &Arc<FaultPlan>) {
        for (t, mux) in self.tpc_muxes.iter_mut().enumerate() {
            mux.set_fault_plan(Arc::clone(plan), 0x1_0000 + t as u64);
        }
        for (g, mux) in self.gpc_muxes.iter_mut().enumerate() {
            mux.set_fault_plan(Arc::clone(plan), 0x2_0000 + g as u64);
        }
    }

    /// Number of SM injection ports.
    pub fn num_sm_ports(&self) -> usize {
        self.tpc_muxes.len() * self.sms_per_tpc
    }

    fn tpc_port_of_sm(&self, sm: SmId) -> (usize, usize) {
        (sm.index() / self.sms_per_tpc, sm.index() % self.sms_per_tpc)
    }

    /// Whether `sm` can inject another packet this cycle.
    pub fn can_inject(&self, sm: SmId) -> bool {
        let (tpc, port) = self.tpc_port_of_sm(sm);
        self.tpc_muxes[tpc].can_accept(port)
    }

    /// Injects a request packet from `sm`.
    ///
    /// # Errors
    ///
    /// Returns the packet when the TPC mux input is full (the SM's LSU
    /// must stall, which is itself part of the contention the channel
    /// measures).
    pub fn inject(&mut self, sm: SmId, packet: Packet) -> Result<(), Packet> {
        self.inject_probed(sm, packet, &mut NullProbe)
    }

    /// [`inject`](Self::inject) with telemetry: the TPC mux reports
    /// refused pushes and queue depth under its [`Component::tpc_mux`]
    /// label.
    ///
    /// # Errors
    ///
    /// Returns the packet when the TPC mux input is full.
    pub fn inject_probed<P: Probe>(
        &mut self,
        sm: SmId,
        packet: Packet,
        probe: &mut P,
    ) -> Result<(), Packet> {
        let (tpc, port) = self.tpc_port_of_sm(sm);
        let pushed =
            self.tpc_muxes[tpc].try_push_probed(port, packet, Component::tpc_mux(tpc), probe);
        if pushed.is_ok() {
            self.in_flight += 1;
            if self.tpc_busy[tpc] == 0 {
                self.tpc_mask.set(tpc);
            }
            self.tpc_busy[tpc] += 1;
        }
        pushed
    }

    /// Advances the whole request subnet by one cycle. Stages whose busy
    /// counter is zero are provably no-ops and are skipped untouched.
    pub fn tick(&mut self, now: Cycle) {
        self.tick_probed(now, &mut NullProbe);
    }

    /// [`tick`](Self::tick) with telemetry: every mux reports grants,
    /// forwards, queue depths, and head-of-line blocking to `probe`.
    pub fn tick_probed<P: Probe>(&mut self, now: Cycle, probe: &mut P) {
        self.xbar.tick_probed(now, probe);
        // GPC outputs → crossbar inputs.
        for g in 0..self.gpc_muxes.len() {
            if self.gpc_busy[g] == 0 {
                continue;
            }
            while let Some(head) = self.gpc_muxes[g].peek_delivered(now) {
                let out = head.slice.index();
                if !self.xbar.can_accept(g, out) {
                    // Head-of-line blocking until the queue drains: the
                    // GPC channel's delivered packet could not enter the
                    // crossbar this cycle.
                    probe.push_denied(Component::xbar_out(out), g);
                    break;
                }
                let packet = self.gpc_muxes[g]
                    .pop_delivered(now)
                    .expect("peeked packet exists");
                self.gpc_busy[g] -= 1;
                self.xbar
                    .try_push_probed(g, out, packet, probe)
                    .expect("capacity just checked");
            }
        }
        for (g, mux) in self.gpc_muxes.iter_mut().enumerate() {
            if self.gpc_busy[g] > 0 {
                mux.tick_probed(now, Component::gpc_req_mux(g), probe);
            }
        }
        // TPC outputs → GPC inputs. Walk busy TPCs only, one snapshot
        // word at a time: transfers may clear bits of visited TPCs,
        // never set new ones.
        for w in 0..self.tpc_mask.words().len() {
            let mut bits = self.tpc_mask.words()[w];
            while bits != 0 {
                let t = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (gpc, port) = self.gpc_port_of_tpc[t];
                loop {
                    if self.tpc_muxes[t].peek_delivered(now).is_none() {
                        break;
                    }
                    if !self.gpc_muxes[gpc.index()].can_accept(port) {
                        probe.push_denied(Component::gpc_req_mux(gpc.index()), port);
                        break;
                    }
                    let packet = self.tpc_muxes[t]
                        .pop_delivered(now)
                        .expect("peeked packet exists");
                    self.tpc_busy[t] -= 1;
                    if self.tpc_busy[t] == 0 {
                        self.tpc_mask.clear(t);
                    }
                    self.gpc_muxes[gpc.index()]
                        .try_push_probed(port, packet, Component::gpc_req_mux(gpc.index()), probe)
                        .expect("capacity just checked");
                    self.gpc_busy[gpc.index()] += 1;
                }
            }
        }
        for t in self.tpc_mask.iter_set() {
            self.tpc_muxes[t].tick_probed(now, Component::tpc_mux(t), probe);
        }
    }

    /// Removes the next request arriving at `slice`, if ready at `now`.
    pub fn pop_at_slice(&mut self, slice: SliceId, now: Cycle) -> Option<Packet> {
        let popped = self.xbar.pop_delivered(slice.index(), now);
        if popped.is_some() {
            self.in_flight -= 1;
        }
        popped
    }

    /// Pops every request already delivered at any slice port (in slice
    /// order) into `sink`. Equivalent to a [`pop_at_slice`]
    /// (Self::pop_at_slice) sweep over all slices, but walks only busy
    /// crossbar outputs.
    pub fn drain_arrivals<F: FnMut(Packet)>(&mut self, now: Cycle, mut sink: F) {
        let mut drained = 0usize;
        self.xbar.drain_delivered(now, |p| {
            drained += 1;
            sink(p);
        });
        self.in_flight -= drained;
    }

    /// Packets injected but not yet delivered to a slice. When zero the
    /// whole subnet is empty and [`tick`](Self::tick) is a no-op.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The earliest [`NextEvent`] across every stage of the subnet.
    /// Empty muxes report [`NextEvent::Idle`] (the merge identity), so
    /// only busy ones are consulted; [`NextEvent::Busy`] dominates the
    /// merge, so the scan stops at the first busy stage — same result,
    /// O(1) under load.
    pub fn next_event(&self) -> NextEvent {
        let mut ev = self.xbar.next_event();
        if ev == NextEvent::Busy {
            return NextEvent::Busy;
        }
        for (g, mux) in self.gpc_muxes.iter().enumerate() {
            if self.gpc_busy[g] > 0 {
                match mux.next_event() {
                    NextEvent::Busy => return NextEvent::Busy,
                    e => ev = ev.merge(e),
                }
            }
        }
        for t in self.tpc_mask.iter_set() {
            match self.tpc_muxes[t].next_event() {
                NextEvent::Busy => return NextEvent::Busy,
                e => ev = ev.merge(e),
            }
        }
        ev
    }

    /// The TPC-level mux of `tpc` (stats inspection).
    pub fn tpc_mux(&self, tpc: TpcId) -> &ConcentratorMux {
        &self.tpc_muxes[tpc.index()]
    }

    /// The GPC-level mux of `gpc` (stats inspection).
    pub fn gpc_mux(&self, gpc: GpcId) -> &ConcentratorMux {
        &self.gpc_muxes[gpc.index()]
    }

    /// True when no packet is queued or in flight anywhere in the subnet.
    ///
    /// # Panics
    ///
    /// Panics — release builds included — when the in-flight counter
    /// claims the subnet is drained but a component still holds packets.
    /// Declaring idle with packets in flight would silently truncate
    /// every result derived from the run, so the conservation check must
    /// not compile out; it is cheap because the full component scan runs
    /// only on claimed-drained evaluations, which the engine reaches a
    /// handful of times per run. (The inverse desync — a nonzero counter
    /// over empty components — wedges the run instead, which the cycle
    /// budget catches.)
    pub fn is_drained(&self) -> bool {
        if self.in_flight != 0 {
            return false;
        }
        assert!(
            self.tpc_muxes.iter().all(ConcentratorMux::is_drained)
                && self.gpc_muxes.iter().all(ConcentratorMux::is_drained)
                && self.xbar.is_drained(),
            "request-fabric in-flight counter out of sync: \
             counter claims drained but a component holds packets"
        );
        true
    }

    /// Test-only hook: zeroes the in-flight counter without touching the
    /// muxes, desynchronising counter and ground truth so the release-mode
    /// conservation check in [`is_drained`](Self::is_drained) can be
    /// exercised. Hidden from docs; never call outside tests.
    #[doc(hidden)]
    pub fn corrupt_in_flight_counter_for_test(&mut self) {
        self.in_flight = 0;
    }

    /// Restores the subnet to its just-constructed state in place: every
    /// mux resets (dropping packets and fault plans, keeping
    /// allocations), counters zero, masks clear. The config-derived
    /// wiring tables (`gpc_port_of_tpc`, `sms_per_tpc`) are retained.
    pub fn reset(&mut self) {
        for mux in &mut self.tpc_muxes {
            mux.reset();
        }
        for mux in &mut self.gpc_muxes {
            mux.reset();
        }
        self.xbar.reset();
        self.in_flight = 0;
        self.tpc_busy.fill(0);
        self.tpc_mask.clear_all();
        self.gpc_busy.fill(0);
    }
}

/// The L2 → SM reply network.
#[derive(Debug)]
pub struct ReplyFabric {
    /// One reply channel per GPC, fed by all L2 slices.
    gpc_muxes: Vec<ConcentratorMux>,
    /// Per-SM fan-out buffers between the GPC channel and the ejection
    /// ports. The GPC reply channel demultiplexes per destination SM, so
    /// a backed-up ejector must not head-of-line-block replies bound for
    /// *other* SMs — otherwise SMs that share nothing but the GPC would
    /// falsely contend (violating Fig 5's flat-to-3-TPCs read curve).
    sm_staging: Vec<std::collections::VecDeque<Packet>>,
    /// Per-SM ejection ports.
    sm_ejectors: Vec<ConcentratorMux>,
    /// Ground-truth GPC of each SM (reply routing).
    gpc_of_sm: Vec<GpcId>,
    /// Replies injected but not yet popped at an SM. Zero means the
    /// whole subnet is empty, so ticks are no-ops.
    in_flight: usize,
    /// Replies inside each GPC reply mux (queued + output pipeline). A
    /// zero entry proves that mux's tick, pop, and next_event are
    /// no-ops, so the hot loops skip the mux without touching it.
    gpc_busy: Vec<u32>,
    /// Replies inside each SM's staging buffer + ejection port (same
    /// contract as `gpc_busy`).
    sm_busy: Vec<u32>,
    /// Bit `s` set iff `sm_busy[s] > 0`: the per-cycle loops walk set
    /// bits in index order instead of scanning all 80 counters twice.
    sm_mask: OccupancyMask,
}

impl ReplyFabric {
    /// Wires the reply network for `cfg`.
    pub fn new(cfg: &GpuConfig) -> Self {
        let noc = &cfg.noc;
        let gpc_muxes = (0..cfg.num_gpcs)
            .map(|g| {
                let mut mux = ConcentratorMux::new(
                    cfg.mem.num_l2_slices,
                    noc.gpc_reply_bw,
                    noc.gpc_to_slice_latency,
                    noc.input_queue_depth,
                    Arbitration::RoundRobin,
                    noc,
                );
                mux.set_label(Component::gpc_reply_mux(g));
                mux
            })
            .collect();
        let sm_ejectors = (0..cfg.num_sms())
            .map(|s| {
                let mut mux = ConcentratorMux::new(
                    1,
                    noc.sm_reply_bw,
                    noc.tpc_to_gpc_latency + noc.sm_to_tpc_latency,
                    noc.input_queue_depth,
                    Arbitration::RoundRobin,
                    noc,
                );
                mux.set_label(Component::sm_ejector(s));
                mux
            })
            .collect();
        let gpc_of_sm = (0..cfg.num_sms())
            .map(|s| cfg.gpc_of_sm(SmId::new(s)))
            .collect();
        Self {
            gpc_muxes,
            sm_staging: (0..cfg.num_sms())
                .map(|_| std::collections::VecDeque::new())
                .collect(),
            sm_ejectors,
            gpc_of_sm,
            in_flight: 0,
            gpc_busy: vec![0; cfg.num_gpcs],
            sm_busy: vec![0; cfg.num_sms()],
            sm_mask: OccupancyMask::new(cfg.num_sms()),
        }
    }

    /// Attaches a fault plan to the shared reply channels (GPC reply
    /// muxes at site `0x3_0000 + g`, SM ejection ports at
    /// `0x4_0000 + s`).
    pub fn set_fault_plan(&mut self, plan: &Arc<FaultPlan>) {
        for (g, mux) in self.gpc_muxes.iter_mut().enumerate() {
            mux.set_fault_plan(Arc::clone(plan), 0x3_0000 + g as u64);
        }
        for (s, ej) in self.sm_ejectors.iter_mut().enumerate() {
            ej.set_fault_plan(Arc::clone(plan), 0x4_0000 + s as u64);
        }
    }

    /// Whether `slice`'s input to `gpc`'s reply channel has room, i.e.
    /// whether `slice` can inject a reply destined for any SM of `gpc`.
    /// Room depends on the (slice, GPC) pair alone, which is what lets
    /// the slice's reply port keep one virtual channel per GPC.
    pub fn has_room(&self, slice: SliceId, gpc: GpcId) -> bool {
        self.gpc_muxes[gpc.index()].can_accept(slice.index())
    }

    /// The slices whose input to `gpc`'s reply channel is full, one bit
    /// per slice in [`OccupancyMask`] word layout (see
    /// [`ConcentratorMux::full_inputs`]). A set bit stays set until that
    /// channel grants the slice's head reply, so the reply-inject drain
    /// can skip the (slice, GPC) pair without asking [`has_room`]
    /// (Self::has_room) every cycle.
    pub fn full_words(&self, gpc: GpcId) -> &[u64] {
        self.gpc_muxes[gpc.index()].full_inputs().words()
    }

    /// Injects a reply packet at `slice`.
    ///
    /// # Errors
    ///
    /// Returns the packet when the GPC reply channel input is full; the
    /// slice holds the reply and retries (backpressure into L2).
    pub fn inject_at_slice(&mut self, slice: SliceId, packet: Packet) -> Result<(), Packet> {
        self.inject_at_slice_probed(slice, packet, &mut NullProbe)
    }

    /// [`inject_at_slice`](Self::inject_at_slice) with telemetry: the
    /// GPC reply channel reports refused pushes and queue depth under
    /// its [`Component::gpc_reply_mux`] label.
    ///
    /// # Errors
    ///
    /// Returns the packet when the GPC reply channel input is full.
    pub fn inject_at_slice_probed<P: Probe>(
        &mut self,
        slice: SliceId,
        packet: Packet,
        probe: &mut P,
    ) -> Result<(), Packet> {
        let gpc = self.gpc_of_sm[packet.sm.index()];
        let pushed = self.gpc_muxes[gpc.index()].try_push_probed(
            slice.index(),
            packet,
            Component::gpc_reply_mux(gpc.index()),
            probe,
        );
        if pushed.is_ok() {
            self.in_flight += 1;
            self.gpc_busy[gpc.index()] += 1;
        }
        pushed
    }

    /// Advances the reply subnet by one cycle. Stages whose busy counter
    /// is zero are provably no-ops and are skipped untouched.
    pub fn tick(&mut self, now: Cycle) {
        self.tick_probed(now, &mut NullProbe);
    }

    /// [`tick`](Self::tick) with telemetry: the GPC reply channels and
    /// SM ejection ports report grants, forwards, and queue depths.
    pub fn tick_probed<P: Probe>(&mut self, now: Cycle, probe: &mut P) {
        for sm in self.sm_mask.iter_set() {
            self.sm_ejectors[sm].tick_probed(now, Component::sm_ejector(sm), probe);
        }
        // GPC reply channel → per-SM staging (fan-out, no HOL blocking).
        // The batched drain delivers the same FIFO sequence as repeated
        // pops, retiring the mux's arena slots in one batch.
        let sm_staging = &mut self.sm_staging;
        let sm_busy = &mut self.sm_busy;
        let sm_mask = &mut self.sm_mask;
        for (g, mux) in self.gpc_muxes.iter_mut().enumerate() {
            if self.gpc_busy[g] == 0 {
                continue;
            }
            let drained = mux.drain_delivered(now, |packet| {
                let sm = packet.sm.index();
                if sm_busy[sm] == 0 {
                    sm_mask.set(sm);
                }
                sm_busy[sm] += 1;
                sm_staging[sm].push_back(packet);
            });
            self.gpc_busy[g] -= u32::try_from(drained).expect("queue depths fit u32");
        }
        // Staging → ejection ports, per busy SM (a set bit with an empty
        // staging buffer just means the reply already sits in the
        // ejector; the `front()` probe skips it at one load).
        for sm in self.sm_mask.iter_set() {
            while let Some(head) = self.sm_staging[sm].front() {
                if !self.sm_ejectors[sm].can_accept(0) {
                    probe.push_denied(Component::sm_ejector(sm), 0);
                    break;
                }
                let _ = head;
                let packet = self.sm_staging[sm].pop_front().expect("front exists");
                self.sm_ejectors[sm]
                    .try_push_probed(0, packet, Component::sm_ejector(sm), probe)
                    .expect("capacity just checked");
            }
        }
        for (g, mux) in self.gpc_muxes.iter_mut().enumerate() {
            if self.gpc_busy[g] > 0 {
                mux.tick_probed(now, Component::gpc_reply_mux(g), probe);
            }
        }
    }

    /// Removes the next reply arriving at `sm`, if ready at `now`.
    pub fn pop_at_sm(&mut self, sm: SmId, now: Cycle) -> Option<Packet> {
        if self.sm_busy[sm.index()] == 0 {
            return None;
        }
        let popped = self.sm_ejectors[sm.index()].pop_delivered(now);
        if popped.is_some() {
            self.in_flight -= 1;
            self.sm_busy[sm.index()] -= 1;
            if self.sm_busy[sm.index()] == 0 {
                self.sm_mask.clear(sm.index());
            }
        }
        popped
    }

    /// Pops every reply already delivered at any ejection port (in SM
    /// order) into `sink`. Equivalent to a [`pop_at_sm`](Self::pop_at_sm)
    /// sweep over every SM with replies in flight, but walks only busy
    /// ones. Replies only target SMs whose requesting blocks are still
    /// resident, so the busy set is a subset of any active-SM sweep.
    pub fn deliver_ready<F: FnMut(usize, Packet)>(&mut self, now: Cycle, mut sink: F) {
        for w in 0..self.sm_mask.words().len() {
            // Snapshot one word: pops may clear bits of already-visited
            // SMs, never set new ones.
            let mut bits = self.sm_mask.words()[w];
            while bits != 0 {
                let sm = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                while let Some(p) = self.pop_at_sm(SmId::new(sm), now) {
                    sink(sm, p);
                }
            }
        }
    }

    /// Replies injected but not yet delivered to an SM. When zero the
    /// whole subnet is empty and [`tick`](Self::tick) is a no-op.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The earliest [`NextEvent`] across every stage of the subnet.
    /// Empty stages report [`NextEvent::Idle`] (the merge identity), so
    /// only busy ones are consulted.
    pub fn next_event(&self) -> NextEvent {
        let mut ev = NextEvent::Idle;
        for (g, mux) in self.gpc_muxes.iter().enumerate() {
            if self.gpc_busy[g] > 0 {
                match mux.next_event() {
                    NextEvent::Busy => return NextEvent::Busy,
                    e => ev = ev.merge(e),
                }
            }
        }
        for sm in self.sm_mask.iter_set() {
            if !self.sm_staging[sm].is_empty() {
                return NextEvent::Busy;
            }
            match self.sm_ejectors[sm].next_event() {
                NextEvent::Busy => return NextEvent::Busy,
                e => ev = ev.merge(e),
            }
        }
        ev
    }

    /// The reply channel of `gpc` (stats inspection).
    pub fn gpc_mux(&self, gpc: GpcId) -> &ConcentratorMux {
        &self.gpc_muxes[gpc.index()]
    }

    /// True when nothing is queued or in flight anywhere in the subnet.
    ///
    /// # Panics
    ///
    /// Panics — release builds included — when the in-flight counter
    /// claims the subnet is drained but a component still holds replies
    /// (same always-on conservation contract as
    /// [`RequestFabric::is_drained`]).
    pub fn is_drained(&self) -> bool {
        if self.in_flight != 0 {
            return false;
        }
        assert!(
            self.gpc_muxes.iter().all(ConcentratorMux::is_drained)
                && self
                    .sm_staging
                    .iter()
                    .all(std::collections::VecDeque::is_empty)
                && self.sm_ejectors.iter().all(ConcentratorMux::is_drained),
            "reply-fabric in-flight counter out of sync: \
             counter claims drained but a component holds replies"
        );
        true
    }

    /// Test-only hook: zeroes the in-flight counter without touching the
    /// muxes (see [`RequestFabric::corrupt_in_flight_counter_for_test`]).
    #[doc(hidden)]
    pub fn corrupt_in_flight_counter_for_test(&mut self) {
        self.in_flight = 0;
    }

    /// Restores the subnet to its just-constructed state in place (same
    /// contract as [`RequestFabric::reset`]); the `gpc_of_sm` routing
    /// table is config-derived and retained.
    pub fn reset(&mut self) {
        for mux in &mut self.gpc_muxes {
            mux.reset();
        }
        for staging in &mut self.sm_staging {
            staging.clear();
        }
        for ejector in &mut self.sm_ejectors {
            ejector.reset();
        }
        self.in_flight = 0;
        self.gpc_busy.fill(0);
        self.sm_busy.fill(0);
        self.sm_mask.clear_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketId, PacketKind};
    use gnc_common::ids::WarpId;

    fn cfg() -> GpuConfig {
        GpuConfig::volta_v100()
    }

    fn req(id: u64, sm: usize, slice: usize, kind: PacketKind, now: Cycle) -> Packet {
        Packet {
            id: PacketId(id),
            kind,
            sm: SmId::new(sm),
            warp: WarpId::new(0),
            slice: SliceId::new(slice),
            addr: id * 128,
            data_bytes: 128,
            injected_at: now,
            group: id,
        }
    }

    /// Runs the fabric until the packet with `id` pops at `slice`,
    /// returning the arrival cycle.
    fn run_until_arrival(
        fabric: &mut RequestFabric,
        slice: SliceId,
        id: PacketId,
        limit: Cycle,
    ) -> Cycle {
        for now in 0..limit {
            fabric.tick(now);
            while let Some(p) = fabric.pop_at_slice(slice, now) {
                if p.id == id {
                    return now;
                }
            }
        }
        panic!("packet {id} never arrived within {limit} cycles");
    }

    #[test]
    fn request_traverses_all_three_stages() {
        let cfg = cfg();
        let mut fabric = RequestFabric::new(&cfg);
        fabric
            .inject(SmId::new(0), req(1, 0, 7, PacketKind::ReadRequest, 0))
            .unwrap();
        let arrival = run_until_arrival(&mut fabric, SliceId::new(7), PacketId(1), 200);
        // Pipeline latencies 2 + 5 + 15 plus one serialization cycle per
        // stage: arrival in the low tens of cycles.
        assert!((20..60).contains(&arrival), "arrival at {arrival}");
        assert!(fabric.is_drained());
    }

    #[test]
    fn sibling_sms_share_a_tpc_mux() {
        let cfg = cfg();
        let fabric = RequestFabric::new(&cfg);
        assert_eq!(fabric.num_sm_ports(), 80);
        assert_eq!(fabric.tpc_port_of_sm(SmId::new(0)), (0, 0));
        assert_eq!(fabric.tpc_port_of_sm(SmId::new(1)), (0, 1));
        assert_eq!(fabric.tpc_port_of_sm(SmId::new(12)), (6, 0));
    }

    #[test]
    fn reply_reaches_the_issuing_sm() {
        let cfg = cfg();
        let mut fabric = ReplyFabric::new(&cfg);
        let reply = req(9, 5, 3, PacketKind::ReadReply, 0);
        fabric.inject_at_slice(SliceId::new(3), reply).unwrap();
        let mut arrived = None;
        for now in 0..200 {
            fabric.tick(now);
            if let Some(p) = fabric.pop_at_sm(SmId::new(5), now) {
                arrived = Some((now, p));
                break;
            }
        }
        let (when, p) = arrived.expect("reply must arrive");
        assert_eq!(p.id, PacketId(9));
        assert!(when < 60, "reply took {when} cycles");
        assert!(fabric.is_drained());
    }

    #[test]
    fn replies_route_by_destination_sm_not_slice() {
        let cfg = cfg();
        let mut fabric = ReplyFabric::new(&cfg);
        // Same slice, two SMs in different GPCs.
        fabric
            .inject_at_slice(SliceId::new(0), req(1, 0, 0, PacketKind::WriteAck, 0))
            .unwrap();
        fabric
            .inject_at_slice(SliceId::new(0), req(2, 2, 0, PacketKind::WriteAck, 0))
            .unwrap();
        let mut got = Vec::new();
        for now in 0..200 {
            fabric.tick(now);
            if let Some(p) = fabric.pop_at_sm(SmId::new(0), now) {
                got.push((p.id, 0));
            }
            if let Some(p) = fabric.pop_at_sm(SmId::new(2), now) {
                got.push((p.id, 2));
            }
        }
        got.sort();
        assert_eq!(got, vec![(PacketId(1), 0), (PacketId(2), 2)]);
    }

    #[test]
    fn fabric_honours_config_tpc_gpc_wiring() {
        let cfg = cfg();
        let fabric = RequestFabric::new(&cfg);
        // TPC39 lives in GPC5 per the ground truth; its port index is 5
        // (sixth member of the GPC after 5, 11, 17, 23, 29).
        assert_eq!(fabric.gpc_port_of_tpc[39], (GpcId::new(5), 5));
        assert_eq!(fabric.gpc_port_of_tpc[0], (GpcId::new(0), 0));
        assert_eq!(fabric.gpc_port_of_tpc[6], (GpcId::new(0), 1));
    }

    #[test]
    fn read_requests_do_not_saturate_the_tpc_channel() {
        // Reads are single-flit requests: two sibling SMs issuing reads
        // at LSU rate leave the 1 flit/cycle TPC channel unsaturated
        // relative to write traffic — the §3.4 asymmetry at fabric level.
        let cfg = cfg();
        let throughput = |kind: PacketKind, data: u32| -> u64 {
            let mut fabric = RequestFabric::new(&cfg);
            let mut delivered = 0u64;
            let mut next_id = 0u64;
            for now in 0..2000u64 {
                for sm in [0usize, 1] {
                    let slice = (next_id % 48) as usize;
                    let mut p = req(next_id, sm, slice, kind, now);
                    p.data_bytes = data;
                    if fabric.inject(SmId::new(sm), p).is_ok() {
                        next_id += 1;
                    }
                }
                fabric.tick(now);
                for s in 0..48 {
                    while fabric.pop_at_slice(SliceId::new(s), now).is_some() {
                        delivered += 1;
                    }
                }
            }
            delivered
        };
        let reads = throughput(PacketKind::ReadRequest, 4);
        let writes = throughput(PacketKind::WriteRequest, 4);
        // 1-flit reads move ~2x as many packets as 2-flit writes through
        // the same channel.
        assert!(
            reads as f64 > writes as f64 * 1.7,
            "reads {reads} vs writes {writes}"
        );
    }

    #[test]
    fn reply_fabric_has_no_head_of_line_coupling() {
        // SM0's ejector is deliberately left undrained; replies bound for
        // SM2 (same GPC) must keep flowing — per-SM staging prevents
        // head-of-line blocking (the Fig 5a flat-read guarantee).
        let cfg = cfg();
        let mut fabric = ReplyFabric::new(&cfg);
        let mut next_id = 0u64;
        let mut sm2_got = 0u64;
        for now in 0..600u64 {
            for sm in [0usize, 2] {
                let slice = (next_id % 48) as usize;
                let mut p = req(next_id, sm, slice, PacketKind::ReadReply, now);
                p.data_bytes = 4;
                if fabric.inject_at_slice(SliceId::new(slice), p).is_ok() {
                    next_id += 1;
                }
            }
            fabric.tick(now);
            // Never pop SM0; always pop SM2.
            while fabric.pop_at_sm(SmId::new(2), now).is_some() {
                sm2_got += 1;
            }
        }
        // SM2 drains at its ejector rate (~0.5 pkt/cycle for 2-flit
        // replies) despite SM0's stall.
        assert!(sm2_got > 200, "SM2 only received {sm2_got} replies");
    }

    #[test]
    fn concurrent_writes_from_siblings_halve_throughput() {
        // End-to-end Fig 2 mechanism at fabric level: saturating writers
        // on SM0+SM1 (same TPC) vs SM0+SM12 (different TPC and GPC).
        let cfg = cfg();
        let throughput = |other_sm: usize| -> u64 {
            let mut fabric = RequestFabric::new(&cfg);
            let mut delivered = 0u64;
            let mut next_id = 0u64;
            for now in 0..3000u64 {
                for sm in [0usize, other_sm] {
                    // Spray across slices like the paper's benchmark.
                    let slice = (next_id % 48) as usize;
                    let p = req(next_id, sm, slice, PacketKind::WriteRequest, now);
                    if fabric.inject(SmId::new(sm), p).is_ok() {
                        next_id += 1;
                    }
                }
                fabric.tick(now);
                for s in 0..48 {
                    while let Some(p) = fabric.pop_at_slice(SliceId::new(s), now) {
                        if p.sm == SmId::new(0) {
                            delivered += 1;
                        }
                    }
                }
            }
            delivered
        };
        let shared = throughput(1);
        let isolated = throughput(12);
        let ratio = isolated as f64 / shared as f64;
        assert!(
            (1.8..2.2).contains(&ratio),
            "expected ~2x TPC-sharing penalty, got {ratio:.2} ({shared} vs {isolated})"
        );
    }
}
