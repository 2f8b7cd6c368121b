//! The per-SM reply ejection port.
//!
//! Each SM owns one port between its GPC's reply channel and the SM
//! itself (Figure 1). Nothing else feeds it, so it adds only
//! serialization (`sm_reply_bw` flits/cycle) and pipeline latency — the
//! property Fig 5(a)'s flat read curve depends on. A single-input FIFO
//! server needs no arbitration, so instead of ticking a mux every cycle
//! the port schedules each reply's whole service in closed form the
//! moment the GPC reply channel hands it over:
//!
//! * **enter** — the cycle it joins the port's bounded queue:
//!   `max(arrival, done of the reply depth places ahead)`. A full
//!   queue frees a slot in the same cycle its head completes, and the
//!   reply waits in front of the queue (staged) until then.
//! * **done** — the cycle its last flit crosses. Service starts at
//!   `max(enter + 1, done of the reply ahead)`: a reply that entered
//!   before its predecessor's last cycle inherits that cycle's leftover
//!   flit budget, one that entered later starts a cycle after entering.
//!   Each cycle's budget is the bandwidth minus the fault plan's burst
//!   steal for `(site, cycle)`, constant within a fault window, so the
//!   walk takes one step per window rather than per cycle.
//! * **ready** — the cycle it is delivered: `done + max(latency, 1)`.
//!   The engine delivers replies before it ticks the reply network, so a
//!   reply completing in cycle `done` is seen by its SM one cycle later
//!   even at zero latency.
//!
//! This reproduces a one-input [`ConcentratorMux`](crate::mux::
//! ConcentratorMux) fed from an unbounded staging queue and ticked every
//! cycle, side effects included: the busy cycles that fall in firing
//! burst windows reach [`FaultPlan::note_burst_cycles`] once each (a
//! reply's when it is forwarded, or up to the end of a run cut at its
//! cycle budget via [`EjectionPort::settle_faults`]), and a
//! probed port replays the mux's per-flit grants, forwards, queue depths
//! and refused pushes in the mux's order, each stamped with its real
//! cycle. Only a forward's own cycle matters to a trace, so the port's
//! events are its next forward and its next delivery
//! ([`EjectionPort::next_forward`], [`EjectionPort::next_delivery`]); it
//! replays pending probe events when ticked at a forward, and cycles in
//! which ports merely serve can be skipped.

use crate::delay::DelayLine;
use crate::packet::Packet;
use gnc_common::config::NocConfig;
use gnc_common::fault::FaultPlan;
use gnc_common::telemetry::{Component, Probe};
use gnc_common::Cycle;
use std::sync::Arc;

/// One reply and its closed-form schedule.
#[derive(Debug)]
struct Slot {
    packet: Packet,
    flits: u32,
    /// Cycle the GPC reply channel handed the reply over.
    arrive: Cycle,
    /// Cycle it joined the bounded queue (later than `arrive` while the
    /// queue was full).
    enter: Cycle,
    /// First cycle of its service, and the flits granted in it (0 when
    /// the predecessor used that cycle's whole budget).
    start: Cycle,
    first: u32,
    /// Cycle its last flit crossed, and the flits granted in it.
    done: Cycle,
    last: u32,
    /// Its busy cycles not yet reported to the fault plan run from
    /// `fresh_from` to `done` (a predecessor finishing in `start` reports
    /// that cycle); `bursts` of them fall in firing burst windows.
    fresh_from: Cycle,
    bursts: u32,
}

/// A per-SM reply ejection port: a bounded single-input FIFO server
/// whose every delivery cycle is computed when the reply arrives.
///
/// # Example
///
/// ```
/// use gnc_common::config::NocConfig;
/// use gnc_common::ids::{SliceId, SmId, WarpId};
/// use gnc_common::telemetry::{Component, NullProbe};
/// use gnc_noc::eject::EjectionPort;
/// use gnc_noc::packet::{Packet, PacketId, PacketKind};
///
/// let noc = NocConfig::default();
/// let mut port = EjectionPort::new(1, 3, 8, &noc);
/// let reply = Packet {
///     id: PacketId(1),
///     kind: PacketKind::WriteAck,
///     sm: SmId::new(0),
///     warp: WarpId::new(0),
///     slice: SliceId::new(0),
///     addr: 0,
///     data_bytes: 0,
///     injected_at: 0,
///     group: 0,
/// };
/// port.accept(10, reply);
/// // One flit crosses in cycle 11; three cycles of latency follow.
/// port.tick(11, Component::sm_ejector(0), &mut NullProbe);
/// assert!(port.pop_ready(13).is_none());
/// assert_eq!(port.pop_ready(14).unwrap().id, PacketId(1));
/// ```
#[derive(Debug)]
pub struct EjectionPort {
    bandwidth: u32,
    /// `max(latency, 1)`: cycles from a reply's done to its delivery.
    delay: Cycle,
    depth: usize,
    noc: NocConfig,
    /// Burst faults steal flit slots; the `u64` is this port's site.
    fault: Option<(Arc<FaultPlan>, u64)>,
    /// The burst steal cached for cycles `[window_from, window_until)`,
    /// which lie in one fault window. Services start in nondecreasing
    /// cycles, so consecutive replies mostly reuse it instead of hashing.
    window_from: Cycle,
    window_until: Cycle,
    window_steal: u32,
    /// Every reply not yet delivered, keyed by delivery cycle.
    line: DelayLine<Slot>,
    /// Flits granted in the last slot's `done` cycle, by every reply
    /// completing in it.
    tail_used: u32,
    /// Index of the first slot whose done cycle has not been ticked.
    unforwarded: usize,
    /// `done` of slot `unforwarded`, `Cycle::MAX` when there is none.
    next_forward: Cycle,
    /// Probe replay cursor: every event of cycles before `replay_at`
    /// has been reported, and those of the tick phase of `replay_at`
    /// too when `replay_ticked`.
    replay_at: Cycle,
    replay_ticked: bool,
    /// Index of the first slot whose queue entry has not been reported.
    unreported: usize,
}

impl EjectionPort {
    /// Creates a port serving `bandwidth` flits per cycle with `latency`
    /// cycles of pipeline behind it and a queue of `depth` replies.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` or `depth` is zero.
    pub fn new(bandwidth: u32, latency: u32, depth: usize, noc: &NocConfig) -> Self {
        assert!(bandwidth > 0, "ejection port needs nonzero bandwidth");
        assert!(depth > 0, "ejection port needs nonzero queue depth");
        Self {
            bandwidth,
            delay: Cycle::from(latency.max(1)),
            depth,
            noc: noc.clone(),
            fault: None,
            window_from: 0,
            window_until: 0,
            window_steal: 0,
            line: DelayLine::new(0),
            tail_used: 0,
            unforwarded: 0,
            next_forward: Cycle::MAX,
            replay_at: 0,
            replay_ticked: false,
            unreported: 0,
        }
    }

    /// Attaches a fault plan; bursts the plan decides for `site` steal
    /// flit slots from this port.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>, site: u64) {
        self.fault = Some((plan, site));
        self.window_until = 0;
    }

    /// Whether the port holds no reply (queued, staged, in service or in
    /// the pipeline).
    pub fn is_empty(&self) -> bool {
        self.line.is_empty()
    }

    /// The burst steal in force at cycle `at` and the first later cycle
    /// at which it may change.
    fn steal_window(&self, at: Cycle) -> (u32, Cycle) {
        match &self.fault {
            None => (0, Cycle::MAX),
            Some((plan, site)) => (
                plan.burst_steal(*site, at),
                plan.burst_stable_until(*site, at).unwrap_or(Cycle::MAX),
            ),
        }
    }

    /// [`steal_window`](Self::steal_window) through the window cache.
    #[inline]
    fn cached_steal_window(&mut self, at: Cycle) -> (u32, Cycle) {
        if !(self.window_from..self.window_until).contains(&at) {
            let (steal, until) = self.steal_window(at);
            self.window_from = at;
            self.window_until = until;
            self.window_steal = steal;
        }
        (self.window_steal, self.window_until)
    }

    /// Takes over `packet` from the GPC reply channel in cycle `now`
    /// (after this cycle's [`tick`](Self::tick)) and schedules its
    /// service and delivery.
    pub fn accept(&mut self, now: Cycle, packet: Packet) {
        let flits = packet.flits(&self.noc).max(1);
        let len = self.line.len();
        let mut enter = now;
        if len >= self.depth {
            enter = enter.max(self.slot(len - self.depth).done);
        }
        let prev_done = len.checked_sub(1).map(|i| self.slot(i).done);
        // Leftover budget of the predecessor's last cycle passes on only
        // if this reply was already queued in that cycle.
        let (start, mut used) = match prev_done {
            Some(done) if enter < done => (done, self.tail_used),
            _ => (enter + 1, 0),
        };
        // The predecessor already counted its own last cycle as busy.
        let fresh_from = if prev_done == Some(start) {
            start + 1
        } else {
            start
        };
        let mut at = start;
        let mut rem = flits;
        let mut first = None;
        let mut bursts: u64 = 0;
        let (done, last) = loop {
            let (steal, until) = self.cached_steal_window(at);
            let budget = self.bandwidth.saturating_sub(steal);
            let take = budget.saturating_sub(used).min(rem);
            first.get_or_insert(take);
            used = 0;
            // Cycles `(at, until)` grant the full budget.
            let span = until - at - 1;
            let finish = if take == rem {
                Some((at, take))
            } else {
                rem -= take;
                let need = match budget {
                    0 => u64::MAX,
                    b => u64::from(rem.div_ceil(b)),
                };
                (need <= span).then(|| {
                    let before = u32::try_from(need - 1).expect("fits: < rem") * budget;
                    (at + need, rem - before)
                })
            };
            let end = finish.map_or(until - 1, |(done, _)| done);
            if steal > 0 {
                bursts += (end + 1).saturating_sub(at.max(fresh_from));
            }
            if let Some(finish) = finish {
                break finish;
            }
            rem -= u32::try_from(span * u64::from(budget)).expect("fits: < rem");
            at = until;
        };
        self.tail_used = if prev_done == Some(done) {
            self.tail_used + last
        } else {
            last
        };
        if self.unforwarded == len {
            self.next_forward = done;
        }
        let slot = Slot {
            packet,
            flits,
            arrive: now,
            enter,
            start,
            first: first.expect("the walk visits the start cycle"),
            done,
            last,
            fresh_from,
            bursts: u32::try_from(bursts).expect("burst cycles of one reply fit u32"),
        };
        self.line.push_ready_at(done + self.delay, slot);
    }

    fn slot(&self, index: usize) -> &Slot {
        self.line.get(index).expect("slot index in range")
    }

    /// The tick phase of cycle `now`: replies whose last flit crosses in
    /// `now` are forwarded. A no-op unless `now` reaches the port's next
    /// forward. With an enabled probe this is also where the port
    /// reports, under `comp` and in the one-input mux's order, every
    /// event of the cycles since its last report (grants, forwards,
    /// queue depths, refused pushes) and this cycle's grants and
    /// forwards.
    #[inline]
    pub fn tick<P: Probe>(&mut self, now: Cycle, comp: Component, probe: &mut P) {
        if now < self.next_forward {
            return;
        }
        // Each forwarded reply reports its burst cycles.
        let mut bursts = 0;
        if P::ENABLED {
            let from = self.unforwarded;
            self.replay(now, comp, probe);
            bursts = (from..self.unforwarded)
                .map(|i| u64::from(self.slot(i).bursts))
                .sum();
        } else {
            while let Some(slot) = self.line.get(self.unforwarded).filter(|s| s.done <= now) {
                bursts += u64::from(slot.bursts);
                self.unforwarded += 1;
            }
        }
        self.next_forward = self
            .line
            .get(self.unforwarded)
            .map_or(Cycle::MAX, |s| s.done);
        if bursts > 0 {
            if let Some((plan, _)) = &self.fault {
                plan.note_burst_cycles(bursts);
            }
        }
    }

    /// Reports to the fault plan the burst cycles before `end` of every
    /// reply still in service, as a mux ticked up to `end` would have:
    /// a run that stops at its cycle budget calls this so `FaultStats`
    /// match the per-cycle count. The rest is reported at each forward.
    pub fn settle_faults(&mut self, end: Cycle) {
        let Some((plan, site)) = &self.fault else {
            return;
        };
        let mut settled = 0;
        for i in self.unforwarded..self.line.len() {
            let slot = self.line.get_mut(i).expect("slot index in range");
            let last = slot.done.min(end.saturating_sub(1));
            let mut at = slot.fresh_from;
            while at <= last {
                let until = plan.burst_stable_until(*site, at).unwrap_or(Cycle::MAX);
                if plan.burst_steal(*site, at) > 0 {
                    let cycles = last.min(until - 1) + 1 - at;
                    slot.bursts -= u32::try_from(cycles).expect("within the reply's count");
                    settled += cycles;
                }
                at = until;
            }
            slot.fresh_from = slot.fresh_from.max(last + 1);
        }
        if settled > 0 {
            plan.note_burst_cycles(settled);
        }
    }

    /// Reports every event of cycles before `now`, then the tick-phase
    /// events of `now`. Events of `now`'s stage phase (queue entries of
    /// replies accepted later this cycle) wait for the next replay.
    fn replay<P: Probe>(&mut self, now: Cycle, comp: Component, probe: &mut P) {
        loop {
            let at = self.replay_at;
            if !self.replay_ticked {
                self.replay_tick(at, comp, probe);
                self.replay_ticked = true;
            }
            if at >= now {
                return;
            }
            self.replay_stage(at, comp, probe);
            // Skip to the next cycle with events: the next grant or the
            // next reply waiting to enter.
            let from = at + 1;
            let serve = self.line.get(self.unforwarded).map(|s| s.start.max(from));
            let stage = self.line.get(self.unreported).map(|s| s.arrive.max(from));
            self.replay_at = serve.into_iter().chain(stage).fold(now, Cycle::min);
            self.replay_ticked = false;
        }
    }

    /// The mux tick of cycle `at`: grants to the replies in service, in
    /// FIFO order, and the forward of each one completing.
    fn replay_tick<P: Probe>(&mut self, at: Cycle, comp: Component, probe: &mut P) {
        while let Some(s) = self.line.get(self.unforwarded) {
            if s.start > at {
                return;
            }
            let granted = if at == s.done {
                s.last
            } else if at == s.start {
                s.first
            } else {
                self.bandwidth.saturating_sub(self.steal_window(at).0)
            };
            for _ in 0..granted {
                probe.flit_granted(at, comp, 0);
            }
            if s.done != at {
                return;
            }
            probe.packet_forwarded(
                at,
                comp,
                0,
                s.packet.id.0,
                s.packet.sm.index(),
                s.packet.slice.index(),
                s.flits,
            );
            self.unforwarded += 1;
        }
    }

    /// The staging move of cycle `at`: the queue depth after each reply
    /// entering, then one refused push if a reply is still staged.
    fn replay_stage<P: Probe>(&mut self, at: Cycle, comp: Component, probe: &mut P) {
        while self
            .line
            .get(self.unreported)
            .is_some_and(|s| s.enter <= at)
        {
            probe.queue_depth(comp, 0, self.unreported - self.unforwarded + 1);
            self.unreported += 1;
        }
        if self
            .line
            .get(self.unreported)
            .is_some_and(|s| s.arrive <= at)
        {
            probe.push_denied(comp, 0);
        }
    }

    /// Removes and returns the next reply delivered by `now`, if any.
    #[inline]
    pub fn pop_ready(&mut self, now: Cycle) -> Option<Packet> {
        let slot = self.line.pop_ready(now)?;
        debug_assert!(self.unforwarded > 0, "reply delivered before its forward");
        self.unforwarded = self.unforwarded.saturating_sub(1);
        self.unreported = self.unreported.saturating_sub(1);
        Some(slot.packet)
    }

    /// The cycle of the port's next forward (the next tick that is not
    /// a no-op), `Cycle::MAX` when every held reply has been forwarded.
    #[inline]
    pub fn next_forward(&self) -> Cycle {
        self.next_forward
    }

    /// The cycle of the port's next delivery, `Cycle::MAX` when empty.
    /// With [`next_forward`](Self::next_forward) this is all the port
    /// ever needs a driver for: cycles in which it merely serves are
    /// never events.
    #[inline]
    pub fn next_delivery(&self) -> Cycle {
        self.line.next_ready_cycle().unwrap_or(Cycle::MAX)
    }

    /// Drops every reply and the fault plan, keeping allocations.
    pub(crate) fn reset(&mut self) {
        self.fault = None;
        self.window_until = 0;
        self.line.clear();
        self.tail_used = 0;
        self.unforwarded = 0;
        self.next_forward = Cycle::MAX;
        self.replay_at = 0;
        self.replay_ticked = false;
        self.unreported = 0;
    }
}
