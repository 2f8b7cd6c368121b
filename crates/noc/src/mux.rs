//! The concentrating mux — the shared resource at the heart of the paper.
//!
//! A [`ConcentratorMux`] joins N bounded input FIFOs onto one output
//! channel of B flits/cycle through an arbitration policy, then delays
//! completed packets by the channel pipeline latency. Instances of this
//! one component model the shared concentration points of Figure 1 of
//! the paper: the 2:1 SM→TPC mux, the 7:1 TPC→GPC mux with speedup,
//! each crossbar output, and the GPC reply channel. The per-SM ejection
//! port has a single input and nothing to arbitrate, so it is scheduled
//! in closed form instead (see [`crate::eject`]).

use crate::arbiter::{InlineArbiter, OccupancyMask};
use crate::arena::PacketArena;
use crate::delay::DelayLine;
use crate::event::NextEvent;
use crate::packet::Packet;
use crate::ring::InputQueues;
use gnc_common::config::{Arbitration, NocConfig};
use gnc_common::fault::FaultPlan;
use gnc_common::telemetry::{Component, NullProbe, Probe};
use gnc_common::Cycle;
use std::sync::Arc;

/// An N-input, single-output concentrating mux with bounded input queues,
/// per-flit arbitration, and an output pipeline delay.
///
/// # Flow control
///
/// [`try_push`](Self::try_push) refuses packets when the target input
/// queue is at capacity, returning the packet to the caller; upstream
/// stages keep it queued, which yields credit-based backpressure through
/// the whole fabric.
///
/// # Internal layout
///
/// Packets live in a slab arena for their entire residence; the input
/// queues and the output delay line carry 4-byte slot ids. Arbitration
/// state is structure-of-arrays: an occupancy bitmask plus per-input
/// head columns (remaining flits, age, group), so the per-flit grant
/// loop is bit scans over a few small arrays and never touches packet
/// memory. Externally nothing changed: packets go in and come out by
/// value, and grant decisions are bit-identical to the boxed
/// [`Arbiter`](crate::arbiter::Arbiter) implementations.
///
/// # Example
///
/// ```
/// use gnc_common::config::{Arbitration, NocConfig};
/// use gnc_noc::mux::ConcentratorMux;
///
/// let noc = NocConfig::default();
/// let mux = ConcentratorMux::new(2, 1, 0, 8, Arbitration::RoundRobin, &noc);
/// assert_eq!(mux.num_inputs(), 2);
/// assert!(mux.can_accept(0));
/// ```
#[derive(Debug)]
pub struct ConcentratorMux {
    /// Per-input FIFOs of arena slot ids, flattened into one ring slab.
    inputs: InputQueues,
    bandwidth: u32,
    arbiter: InlineArbiter,
    /// Packet storage for everything queued or in the output pipeline.
    arena: PacketArena,
    /// Which inputs have a head flit ready to arbitrate.
    occ: OccupancyMask,
    /// Which inputs are at depth (bit `i` set iff `!can_accept(i)`). A
    /// full input stays full until arbitration completes its head, so
    /// upstream stages can skip it without asking again every cycle.
    full: OccupancyMask,
    /// Flits left to transmit for each input's head packet. Only indices
    /// whose occupancy bit is set are meaningful.
    head_remaining: Vec<u32>,
    /// Injection age of each input's head packet (age-based policy).
    head_age: Vec<Cycle>,
    /// Arbitration group of each input's head packet (CRR policy).
    head_group: Vec<u64>,
    output: DelayLine<u32>,
    noc: NocConfig,
    granted_flits: Vec<u64>,
    /// Reusable slot-id buffer for [`drain_delivered`]
    /// (Self::drain_delivered): delivered slots are collected here, then
    /// retired through the arena in one batch. Always empty between
    /// calls.
    retire_scratch: Vec<u32>,
    forwarded_packets: u64,
    /// Total packets across all input queues (fast idle check).
    queued: usize,
    /// Optional fault injection: background-traffic bursts at this mux
    /// steal output flit slots. The `u64` is this mux's stable site id
    /// within the fault plan's hash space.
    fault: Option<(Arc<FaultPlan>, u64)>,
    /// Telemetry label reported by the unprobed [`try_push`]
    /// (Self::try_push) / [`tick`](Self::tick) wrappers; the fabric sets
    /// it to the slot this mux fills (see [`set_label`](Self::set_label)).
    label: Component,
    /// Whether the active policy reads the head age/group columns.
    /// Coarse-RR and age-based arbitration do; plain and strict RR never
    /// look at them, so head refreshes skip loading the packet struct.
    head_meta: bool,
    /// Cached flit-slot steal for the current fault burst window, valid
    /// for cycles `< burst_until`. `burst_until == 0` forces a re-probe.
    burst_value: u32,
    burst_until: Cycle,
    /// Cross-cycle grant run: for cycles `< run_until`, input
    /// `run_winner` is the lone occupant and wins `run_budget` flit
    /// slots per cycle without re-arbitrating or re-probing the fault
    /// plan. `run_until == 0` means no active run; any occupancy or
    /// fault-window change clears it.
    run_winner: usize,
    run_budget: u32,
    run_until: Cycle,
}

impl ConcentratorMux {
    /// Creates a mux.
    ///
    /// * `n_inputs` — number of input ports.
    /// * `bandwidth` — output channel bandwidth in flits per cycle.
    /// * `latency` — pipeline latency in cycles between a packet's last
    ///   flit crossing the mux and the packet appearing at the output.
    /// * `depth` — per-input queue capacity in packets.
    /// * `policy` — arbitration policy (§6).
    ///
    /// # Panics
    ///
    /// Panics if `n_inputs`, `bandwidth`, or `depth` is zero.
    pub fn new(
        n_inputs: usize,
        bandwidth: u32,
        latency: u32,
        depth: usize,
        policy: Arbitration,
        noc: &NocConfig,
    ) -> Self {
        assert!(n_inputs > 0, "mux needs at least one input");
        assert!(bandwidth > 0, "mux needs nonzero bandwidth");
        assert!(depth > 0, "mux needs nonzero queue depth");
        Self {
            inputs: InputQueues::new(n_inputs, depth),
            bandwidth,
            arbiter: InlineArbiter::new(policy),
            arena: PacketArena::new(),
            occ: OccupancyMask::new(n_inputs),
            full: OccupancyMask::new(n_inputs),
            head_remaining: vec![0; n_inputs],
            head_age: vec![0; n_inputs],
            head_group: vec![0; n_inputs],
            output: DelayLine::new(latency),
            noc: noc.clone(),
            granted_flits: vec![0; n_inputs],
            retire_scratch: Vec::new(),
            forwarded_packets: 0,
            queued: 0,
            fault: None,
            label: Component::tpc_mux(0),
            head_meta: matches!(
                policy,
                Arbitration::CoarseRoundRobin | Arbitration::AgeBased
            ),
            burst_value: 0,
            burst_until: 0,
            run_winner: 0,
            run_budget: 0,
            run_until: 0,
        }
    }

    /// Sets the component label the unprobed [`try_push`](Self::try_push)
    /// and [`tick`](Self::tick) wrappers report telemetry under. The
    /// fabric calls this once per mux at construction so probe events can
    /// never misattribute a GPC mux or crossbar output to `tpc_mux(0)`.
    pub fn set_label(&mut self, label: Component) {
        self.label = label;
    }

    /// Refreshes the SoA head columns of `input` from the packet in
    /// `slot`, which just became the queue head. The age/group columns
    /// are only maintained for policies that read them (coarse-RR,
    /// age-based); under plain/strict RR they go stale and are never
    /// consulted.
    #[inline]
    fn set_head(&mut self, input: usize, slot: u32) {
        self.occ.set(input);
        self.head_remaining[input] = self.arena.flits(slot);
        if self.head_meta {
            let packet = self.arena.get(slot);
            self.head_age[input] = packet.injected_at;
            self.head_group[input] = packet.group;
        }
    }

    /// Attaches a fault plan; background-traffic bursts decided by the
    /// plan for `site` will steal output flit slots from this mux.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>, site: u64) {
        self.fault = Some((plan, site));
        self.burst_value = 0;
        self.burst_until = 0;
        self.run_until = 0;
    }

    /// Number of input ports.
    pub fn num_inputs(&self) -> usize {
        self.inputs.num_queues()
    }

    /// Output bandwidth in flits per cycle.
    pub fn bandwidth(&self) -> u32 {
        self.bandwidth
    }

    /// Whether input `input` has room for another packet.
    #[inline]
    pub fn can_accept(&self, input: usize) -> bool {
        self.inputs.can_accept(input)
    }

    /// The inputs that are at depth: bit `i` is set iff
    /// [`can_accept(i)`](Self::can_accept) is false. A push that fills an
    /// input sets its bit; only arbitration completing that input's head
    /// (or [`reset`](Self::reset)) clears it.
    #[inline]
    pub fn full_inputs(&self) -> &OccupancyMask {
        &self.full
    }

    /// Queues `packet` at `input`.
    ///
    /// # Errors
    ///
    /// Returns the packet back when the input queue is full; the caller
    /// must retry on a later cycle (backpressure).
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    #[inline]
    pub fn try_push(&mut self, input: usize, packet: Packet) -> Result<(), Packet> {
        let label = self.label;
        self.try_push_probed(input, packet, label, &mut NullProbe)
    }

    /// [`try_push`](Self::try_push) with telemetry: reports the refused
    /// push or the new queue depth to `probe` under the caller-supplied
    /// `comp` label (the mux doesn't know which fabric slot it fills).
    ///
    /// # Errors
    ///
    /// Returns the packet back when the input queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    #[inline]
    pub fn try_push_probed<P: Probe>(
        &mut self,
        input: usize,
        packet: Packet,
        comp: Component,
        probe: &mut P,
    ) -> Result<(), Packet> {
        if !self.can_accept(input) {
            probe.push_denied(comp, input);
            return Err(packet);
        }
        let flits = packet.flits(&self.noc).max(1);
        if self.inputs.is_empty(input) {
            // The packet becomes the queue head; fill the SoA head
            // columns from the value in hand rather than reloading it
            // from the arena.
            self.occ.set(input);
            self.head_remaining[input] = flits;
            if self.head_meta {
                self.head_age[input] = packet.injected_at;
                self.head_group[input] = packet.group;
            }
            // Occupancy changed: a cross-cycle grant run assumed its
            // winner was the lone occupant, so it must re-arbitrate.
            // (A push onto an already-occupied queue can't change any
            // grant decision — arbitration only sees queue heads.)
            self.run_until = 0;
        }
        let slot = self.arena.insert(packet, flits);
        self.inputs.push_back(input, slot);
        if !self.inputs.can_accept(input) {
            self.full.set(input);
        }
        self.queued += 1;
        probe.queue_depth(comp, input, self.inputs.len(input));
        Ok(())
    }

    /// Advances the mux by one cycle: arbitrates up to `bandwidth` flit
    /// slots and moves fully transmitted packets into the output pipeline.
    ///
    /// When a fault plan is attached, background-traffic bursts occupy
    /// some (or all) of this cycle's flit slots before the queued
    /// traffic gets to arbitrate — exactly the contention a co-tenant
    /// kernel sharing the mux would create.
    #[inline]
    pub fn tick(&mut self, now: Cycle) {
        let label = self.label;
        self.tick_probed(now, label, &mut NullProbe);
    }

    /// [`tick`](Self::tick) with telemetry: reports each granted flit
    /// slot and each fully forwarded packet to `probe` under the
    /// caller-supplied `comp` label. With [`NullProbe`] this
    /// monomorphises to exactly the probe-free tick.
    ///
    /// Internally this is the batched grant engine: within a cycle,
    /// [`InlineArbiter::grant_run`] grants whole runs of consecutive flit
    /// slots in closed form instead of re-arbitrating per slot; across
    /// cycles, a stable lone-occupant mux replays a validated run
    /// ([`run_tick`](Self::run_tick)) without touching the arbiter's scan
    /// or the fault plan's hash. Grant decisions, probe event sequences,
    /// and fault statistics are bit-identical to the per-flit loop —
    /// the decision is batched, the events are replayed per flit.
    #[inline]
    pub fn tick_probed<P: Probe>(&mut self, now: Cycle, comp: Component, probe: &mut P) {
        if self.queued == 0 {
            return;
        }
        if now < self.run_until {
            self.run_tick(now, comp, probe);
        } else {
            self.tick_full(now, comp, probe);
        }
    }

    /// The general per-cycle path: probes the fault plan (through the
    /// per-window cache), then grants this cycle's flit slots in closed-
    /// form runs. Afterwards, tries to arm a cross-cycle run for the
    /// cycles ahead.
    fn tick_full<P: Probe>(&mut self, now: Cycle, comp: Component, probe: &mut P) {
        let budget = self.bandwidth.saturating_sub(self.burst_steal(now));
        if budget == 0 {
            return;
        }
        // Hoisted out of the grant loop: slots within the cycle are
        // `slot_base + used`, no per-slot multiply.
        let slot_base = now * u64::from(self.bandwidth);
        let mut used = 0u32;
        let mut last_winner = usize::MAX;
        while used < budget {
            if self.queued == 0 {
                // No arbiter can grant an idle mux; strict RR would waste
                // the remaining slots anyway.
                break;
            }
            let Some(run) = self.arbiter.grant_run(
                slot_base + u64::from(used),
                budget - used,
                &self.occ,
                &self.head_remaining,
                &self.head_age,
                &self.head_group,
            ) else {
                // Nothing grantable in the remaining slots (strict RR
                // wasting the tail of the cycle).
                break;
            };
            let winner = run.winner;
            last_winner = winner;
            self.head_remaining[winner] -= run.flits;
            self.granted_flits[winner] += u64::from(run.flits);
            if P::ENABLED {
                for _ in 0..run.flits {
                    probe.flit_granted(now, comp, winner);
                }
            }
            used += run.slots;
            if self.head_remaining[winner] == 0 {
                self.complete_head(winner, now, comp, probe);
            }
        }
        // O(1) lone-occupant gate: an input's occupancy bit is set iff
        // its queue is non-empty, so a lone set bit means the last
        // winner holds every queued packet. Only then is the (rarely
        // taken) run-arming worth entering.
        if last_winner != usize::MAX && self.occ.is_lone(last_winner) {
            self.maybe_start_run(now, last_winner);
        }
    }

    /// Replays a validated cross-cycle run for one cycle: the winner is
    /// known to be the lone occupant and the burst steal constant, so
    /// this grants `run_budget` flits with no arbiter scan, no occupancy
    /// scan, and no fault-plan hash. The arbiter's pointer state is
    /// normalised lazily per granted head via
    /// [`InlineArbiter::note_uncontested_grant`], exactly mirroring what
    /// the per-flit loop would have done — so invalidating the run at any
    /// cycle boundary leaves state the per-flit loop could have produced.
    fn run_tick<P: Probe>(&mut self, now: Cycle, comp: Component, probe: &mut P) {
        if self.burst_value > 0 {
            if let Some((plan, _)) = &self.fault {
                // Keep `FaultStats` identical to probing the plan every
                // busy cycle of the (already decided) burst window.
                plan.note_burst_cycles(1);
            }
        }
        let winner = self.run_winner;
        let n = self.inputs.num_queues();
        let mut avail = self.run_budget;
        loop {
            // Invariants: `avail >= 1` and the winner's occupancy bit is
            // set, so `head_remaining[winner] >= 1`.
            let take = avail.min(self.head_remaining[winner]);
            // The per-flit loop rescans on the first granted flit of each
            // head; replay that transition (idempotent within a head).
            self.arbiter
                .note_uncontested_grant(winner, self.head_group[winner], n);
            self.head_remaining[winner] -= take;
            self.granted_flits[winner] += u64::from(take);
            if P::ENABLED {
                for _ in 0..take {
                    probe.flit_granted(now, comp, winner);
                }
            }
            avail -= take;
            if self.head_remaining[winner] == 0 {
                self.complete_head(winner, now, comp, probe);
                if !self.occ.get(winner) {
                    // Queue drained: the run is over.
                    self.run_until = 0;
                    break;
                }
            }
            if avail == 0 {
                break;
            }
        }
    }

    /// Pops the completed head packet of `winner` into the output
    /// pipeline and refreshes the head columns.
    #[inline(always)]
    fn complete_head<P: Probe>(
        &mut self,
        winner: usize,
        now: Cycle,
        comp: Component,
        probe: &mut P,
    ) {
        let done = self.inputs.pop_front(winner);
        self.full.clear(winner);
        if P::ENABLED {
            let packet = self.arena.get(done);
            probe.packet_forwarded(
                now,
                comp,
                winner,
                packet.id.0,
                packet.sm.index(),
                packet.slice.index(),
                self.arena.flits(done),
            );
        }
        self.output.push(now, done);
        self.forwarded_packets += 1;
        self.queued -= 1;
        // Only the winner's queue head changed; refresh just it.
        match self.inputs.front(winner) {
            Some(next) => self.set_head(winner, next),
            None => self.occ.clear(winner),
        }
    }

    /// This cycle's burst steal, via a per-window cache: the fault plan's
    /// decision is constant within a burst window
    /// ([`FaultPlan::burst_stable_until`]), so the splitmix hash runs
    /// once per window instead of once per busy cycle. Cache hits on
    /// firing windows feed [`FaultPlan::note_burst_cycles`] so the plan's
    /// statistics stay identical to per-cycle probing.
    #[inline]
    fn burst_steal(&mut self, now: Cycle) -> u32 {
        let Some((plan, site)) = &self.fault else {
            return 0;
        };
        if now >= self.burst_until {
            self.burst_value = plan.burst_flits(*site, now);
            self.burst_until = plan.burst_stable_until(*site, now).unwrap_or(Cycle::MAX);
        } else if self.burst_value > 0 {
            plan.note_burst_cycles(1);
        }
        self.burst_value
    }

    /// Arms a cross-cycle grant run if the closed form holds from the
    /// next cycle on: a lone occupant input (established by the caller's
    /// O(1) gate) under a policy whose grant is then unconditional
    /// (anything but strict RR, which wastes idle owners' slots), with a
    /// nonzero budget that stays constant until the next fault burst
    /// window boundary. The run is invalidated by any [`try_push`]
    /// (Self::try_push) that changes occupancy, by draining the winner,
    /// and by the window boundary itself.
    #[inline(never)]
    fn maybe_start_run(&mut self, now: Cycle, winner: usize) {
        if matches!(self.arbiter, InlineArbiter::StrictRoundRobin) {
            return;
        }
        let until = match &self.fault {
            None => Cycle::MAX,
            // `None` from the plan means bursts can never fire.
            Some((plan, site)) => plan.burst_stable_until(*site, now).unwrap_or(Cycle::MAX),
        };
        let budget = self.bandwidth.saturating_sub(self.burst_value);
        if budget == 0 {
            return;
        }
        self.run_winner = winner;
        self.run_budget = budget;
        self.run_until = until;
    }

    /// A reference to the next delivered packet, if one has cleared the
    /// output pipeline by `now`.
    pub fn peek_delivered(&self, now: Cycle) -> Option<&Packet> {
        self.output
            .peek_ready(now)
            .map(|&slot| self.arena.get(slot))
    }

    /// Removes and returns the next delivered packet, if ready at `now`.
    #[inline]
    pub fn pop_delivered(&mut self, now: Cycle) -> Option<Packet> {
        let slot = self.output.pop_ready(now)?;
        Some(self.arena.take(slot))
    }

    /// Pops every delivered packet ready at `now` into `sink` (FIFO
    /// order — identical to repeated [`pop_delivered`]
    /// (Self::pop_delivered) calls), retiring their arena slots in one
    /// batch instead of one free-list push per packet. Returns the
    /// number of packets delivered.
    pub fn drain_delivered<F: FnMut(Packet)>(&mut self, now: Cycle, sink: F) -> usize {
        debug_assert!(self.retire_scratch.is_empty());
        while let Some(slot) = self.output.pop_ready(now) {
            self.retire_scratch.push(slot);
        }
        let drained = self.retire_scratch.len();
        self.arena.take_batch(&self.retire_scratch, sink);
        self.retire_scratch.clear();
        drained
    }

    /// Restores the mux to its just-constructed state in place: drops
    /// every queued and in-flight packet, rewinds arbitration, zeroes
    /// counters, and detaches any fault plan — keeping every allocation.
    pub fn reset(&mut self) {
        self.inputs.clear();
        self.arbiter.reset();
        self.arena.clear();
        self.occ.clear_all();
        self.full.clear_all();
        self.head_remaining.fill(0);
        self.head_age.fill(0);
        self.head_group.fill(0);
        self.output.clear();
        self.granted_flits.fill(0);
        self.retire_scratch.clear();
        self.forwarded_packets = 0;
        self.queued = 0;
        self.fault = None;
        self.burst_value = 0;
        self.burst_until = 0;
        self.run_winner = 0;
        self.run_budget = 0;
        self.run_until = 0;
    }

    /// Flits granted to each input since construction (fairness metric).
    pub fn granted_flits(&self) -> &[u64] {
        &self.granted_flits
    }

    /// Packets fully forwarded since construction.
    pub fn forwarded_packets(&self) -> u64 {
        self.forwarded_packets
    }

    /// True when no packets are queued or in the output pipeline.
    pub fn is_drained(&self) -> bool {
        self.queued == 0 && self.output.is_empty()
    }

    /// When this mux next has actionable work (see [`NextEvent`]).
    ///
    /// Queued packets need arbitration every cycle; an empty mux with
    /// packets in the output pipeline sleeps until the front one is
    /// deliverable.
    pub fn next_event(&self) -> NextEvent {
        if self.queued > 0 {
            return NextEvent::Busy;
        }
        match self.output.next_ready_cycle() {
            Some(ready) => NextEvent::At(ready),
            None => NextEvent::Idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketId, PacketKind};
    use gnc_common::ids::{SliceId, SmId, WarpId};

    fn noc() -> NocConfig {
        NocConfig::default()
    }

    fn pkt(id: u64, kind: PacketKind, group: u64, age: Cycle) -> Packet {
        Packet {
            id: PacketId(id),
            kind,
            sm: SmId::new(0),
            warp: WarpId::new(0),
            slice: SliceId::new(0),
            addr: id * 128,
            data_bytes: 128, // full line: 5 flits for writes at 40 B flits
            injected_at: age,
            group,
        }
    }

    fn mux(policy: Arbitration, bandwidth: u32, latency: u32) -> ConcentratorMux {
        ConcentratorMux::new(2, bandwidth, latency, 8, policy, &noc())
    }

    #[test]
    fn background_bursts_steal_flit_slots() {
        use gnc_common::fault::FaultConfig;

        let drain = |fault: Option<Arc<FaultPlan>>| -> Cycle {
            let mut m = mux(Arbitration::RoundRobin, 1, 0);
            if let Some(plan) = fault {
                m.set_fault_plan(plan, 0x1_0000);
            }
            for id in 0..8 {
                m.try_push((id % 2) as usize, pkt(id, PacketKind::WriteRequest, 0, 0))
                    .unwrap();
            }
            let mut now = 0;
            let mut delivered = 0;
            while delivered < 8 {
                m.tick(now);
                while m.pop_delivered(now).is_some() {
                    delivered += 1;
                }
                now += 1;
                assert!(now < 10_000, "mux wedged");
            }
            now
        };

        let clean = drain(None);
        let noop = drain(Some(FaultPlan::new(FaultConfig::off())));
        assert_eq!(clean, noop, "a no-op plan must not perturb timing");
        let jam = FaultConfig {
            noc_burst_rate: 0.5,
            noc_burst_cycles: 8,
            noc_burst_flits: 1,
            ..FaultConfig::off()
        };
        let noisy = drain(Some(FaultPlan::new(jam)));
        assert!(
            noisy > clean,
            "bursts must slow the drain ({noisy} vs {clean} cycles)"
        );
        // Determinism: the same plan yields the same drain time.
        let jam2 = FaultConfig {
            noc_burst_rate: 0.5,
            noc_burst_cycles: 8,
            noc_burst_flits: 1,
            ..FaultConfig::off()
        };
        assert_eq!(noisy, drain(Some(FaultPlan::new(jam2))));
    }

    #[test]
    fn single_write_packet_takes_its_flit_count() {
        let mut m = mux(Arbitration::RoundRobin, 1, 0);
        m.try_push(0, pkt(1, PacketKind::WriteRequest, 0, 0))
            .unwrap();
        // 5 flits at 1 flit/cycle: delivered after the tick at cycle 4.
        for now in 0..4 {
            m.tick(now);
            assert!(m.peek_delivered(now).is_none(), "too early at {now}");
        }
        m.tick(4);
        assert_eq!(m.pop_delivered(4).unwrap().id, PacketId(1));
    }

    #[test]
    fn latency_delays_delivery() {
        let mut m = mux(Arbitration::RoundRobin, 1, 10);
        m.try_push(0, pkt(1, PacketKind::ReadRequest, 0, 0))
            .unwrap();
        m.tick(0); // single flit crosses at cycle 0
        assert!(m.pop_delivered(9).is_none());
        assert!(m.pop_delivered(10).is_some());
    }

    #[test]
    fn two_saturating_writers_share_bandwidth_equally() {
        // The Fig 2 mechanism: two SMs streaming writes through one TPC
        // mux each get half the channel.
        let mut m = mux(Arbitration::RoundRobin, 1, 0);
        let mut delivered = [0u32; 2];
        let mut next_id = 0u64;
        for now in 0..1000u64 {
            for input in 0..2 {
                if m.can_accept(input) {
                    let mut p = pkt(next_id, PacketKind::WriteRequest, next_id, now);
                    p.sm = SmId::new(input);
                    if m.try_push(input, p).is_ok() {
                        next_id += 1;
                    }
                }
            }
            m.tick(now);
            while let Some(p) = m.pop_delivered(now) {
                delivered[p.sm.index()] += 1;
            }
        }
        let total: u32 = delivered.iter().sum();
        // 1000 cycles / 5 flits ≈ 200 packets total, split evenly.
        assert!((195..=200).contains(&total), "total {total}");
        let diff = delivered[0].abs_diff(delivered[1]);
        assert!(diff <= 1, "unfair split {delivered:?}");
    }

    #[test]
    fn lone_writer_gets_full_bandwidth_under_rr() {
        let mut m = mux(Arbitration::RoundRobin, 1, 0);
        let mut delivered = 0u32;
        let mut next_id = 0;
        for now in 0..1000u64 {
            if m.can_accept(0) {
                m.try_push(0, pkt(next_id, PacketKind::WriteRequest, next_id, now))
                    .unwrap();
                next_id += 1;
            }
            m.tick(now);
            while m.pop_delivered(now).is_some() {
                delivered += 1;
            }
        }
        assert!((195..=200).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn lone_writer_is_halved_under_srr() {
        // The countermeasure property: SRR wastes the idle input's slots,
        // so a lone writer gets only half the channel…
        let mut m = mux(Arbitration::StrictRoundRobin, 1, 0);
        let mut delivered = 0u32;
        let mut next_id = 0;
        for now in 0..1000u64 {
            if m.can_accept(0) {
                m.try_push(0, pkt(next_id, PacketKind::WriteRequest, next_id, now))
                    .unwrap();
                next_id += 1;
            }
            m.tick(now);
            while m.pop_delivered(now).is_some() {
                delivered += 1;
            }
        }
        // …: 500 usable flit slots / 5 flits = 100 packets.
        assert!((95..=100).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn srr_throughput_is_independent_of_other_input() {
        // Run SRR twice: once with input 1 idle, once saturating. Input
        // 0's delivered count must not change — no leakage.
        let run = |other_busy: bool| -> u32 {
            let mut m = mux(Arbitration::StrictRoundRobin, 1, 0);
            let mut delivered = 0u32;
            let mut next_id = 0u64;
            for now in 0..2000u64 {
                if m.can_accept(0) {
                    let mut p = pkt(next_id, PacketKind::WriteRequest, next_id, now);
                    p.sm = SmId::new(0);
                    m.try_push(0, p).unwrap();
                    next_id += 1;
                }
                if other_busy && m.can_accept(1) {
                    let mut p = pkt(next_id, PacketKind::WriteRequest, next_id, now);
                    p.sm = SmId::new(1);
                    m.try_push(1, p).unwrap();
                    next_id += 1;
                }
                m.tick(now);
                while let Some(p) = m.pop_delivered(now) {
                    if p.sm == SmId::new(0) {
                        delivered += 1;
                    }
                }
            }
            delivered
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn backpressure_returns_packet() {
        let mut m = ConcentratorMux::new(1, 1, 0, 2, Arbitration::RoundRobin, &noc());
        assert!(m
            .try_push(0, pkt(0, PacketKind::WriteRequest, 0, 0))
            .is_ok());
        assert!(m
            .try_push(0, pkt(1, PacketKind::WriteRequest, 0, 0))
            .is_ok());
        assert!(!m.can_accept(0));
        let rejected = m.try_push(0, pkt(2, PacketKind::WriteRequest, 0, 0));
        assert_eq!(rejected.unwrap_err().id, PacketId(2));
    }

    #[test]
    fn wide_channel_moves_multiple_flits_per_cycle() {
        // Bandwidth 6: a 5-flit write completes within a single tick.
        let mut m = mux(Arbitration::RoundRobin, 6, 0);
        m.try_push(0, pkt(1, PacketKind::WriteRequest, 0, 0))
            .unwrap();
        m.tick(0);
        assert!(m.pop_delivered(0).is_some());
    }

    #[test]
    fn granted_flit_accounting() {
        let mut m = mux(Arbitration::RoundRobin, 1, 0);
        m.try_push(0, pkt(1, PacketKind::WriteRequest, 0, 0))
            .unwrap();
        m.try_push(1, pkt(2, PacketKind::ReadRequest, 1, 0))
            .unwrap();
        for now in 0..6 {
            m.tick(now);
        }
        assert_eq!(m.granted_flits(), &[5, 1]);
        assert_eq!(m.forwarded_packets(), 2);
        while m.pop_delivered(6).is_some() {}
        assert!(m.is_drained());
    }

    #[test]
    fn fifo_within_one_input() {
        let mut m = mux(Arbitration::RoundRobin, 1, 0);
        m.try_push(0, pkt(1, PacketKind::ReadRequest, 0, 0))
            .unwrap();
        m.try_push(0, pkt(2, PacketKind::ReadRequest, 0, 0))
            .unwrap();
        m.tick(0);
        m.tick(1);
        assert_eq!(m.pop_delivered(1).unwrap().id, PacketId(1));
        assert_eq!(m.pop_delivered(1).unwrap().id, PacketId(2));
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn zero_inputs_rejected() {
        let _ = ConcentratorMux::new(0, 1, 0, 1, Arbitration::RoundRobin, &noc());
    }

    #[test]
    fn cross_cycle_run_is_invalidated_by_same_cycle_push() {
        // Cycle 0 arms a cross-cycle grant run for lone-occupant input 0.
        // A push onto (previously empty) input 1 must cancel the run in
        // the same cycle: round-robin's pointer sits past input 0, so the
        // newcomer wins cycle 1 immediately. A stale run would keep
        // granting input 0 without re-arbitrating.
        let mut m = mux(Arbitration::RoundRobin, 1, 0);
        for id in 0..4 {
            let mut p = pkt(id, PacketKind::ReadRequest, id, 0);
            p.sm = SmId::new(0);
            m.try_push(0, p).unwrap();
        }
        m.tick(0); // grants id 0; arms the run for input 0
        assert_eq!(m.pop_delivered(0).unwrap().id, PacketId(0));

        let mut newcomer = pkt(100, PacketKind::ReadRequest, 100, 1);
        newcomer.sm = SmId::new(1);
        m.try_push(1, newcomer).unwrap();
        m.tick(1);
        assert_eq!(
            m.pop_delivered(1).unwrap().id,
            PacketId(100),
            "same-cycle push must invalidate the run and win the RR grant"
        );
        m.tick(2);
        assert_eq!(m.pop_delivered(2).unwrap().id, PacketId(1));
    }

    #[test]
    fn age_based_prefers_older_packet_across_inputs() {
        let mut m = mux(Arbitration::AgeBased, 1, 0);
        m.try_push(0, pkt(1, PacketKind::ReadRequest, 0, 100))
            .unwrap();
        m.try_push(1, pkt(2, PacketKind::ReadRequest, 1, 50))
            .unwrap();
        m.tick(0);
        assert_eq!(m.pop_delivered(0).unwrap().id, PacketId(2));
    }
}
