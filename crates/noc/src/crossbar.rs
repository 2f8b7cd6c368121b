//! Input-queued crossbar between the GPC channels and the L2 slices.
//!
//! Publicly available block diagrams of NVIDIA GPUs show a crossbar in the
//! middle of the chip; the paper concludes it interconnects the GPCs with
//! the partitioned L2 (§3.1). It is modelled as one [`ConcentratorMux`]
//! per output port: output contention is arbitrated, distinct outputs are
//! independent (non-blocking fabric).

use crate::arbiter::OccupancyMask;
use crate::event::NextEvent;
use crate::mux::ConcentratorMux;
use crate::packet::Packet;
use gnc_common::config::{Arbitration, NocConfig};
use gnc_common::telemetry::{Component, NullProbe, Probe};
use gnc_common::Cycle;

/// An `n_in × n_out` crossbar with per-output arbitration.
#[derive(Debug)]
pub struct Crossbar {
    outputs: Vec<ConcentratorMux>,
    n_inputs: usize,
    /// Packets inside each output mux (queued + output pipeline). Zero
    /// proves that output's tick, pop, and next_event are no-ops, so the
    /// hot loops skip the mux without touching it.
    busy: Vec<u32>,
    /// Bit `o` set iff `busy[o] > 0`: the per-cycle loops walk set bits
    /// in index order instead of scanning every counter.
    mask: OccupancyMask,
    /// Total packets resident anywhere in the crossbar (the sum of
    /// `busy`), so [`is_drained`](Self::is_drained) is one compare
    /// instead of a sweep over every output mux.
    resident: u32,
}

impl Crossbar {
    /// Creates a crossbar.
    ///
    /// * `n_inputs` / `n_outputs` — port counts.
    /// * `bandwidth` — per-output bandwidth in flits/cycle.
    /// * `latency` — traversal latency in cycles.
    /// * `depth` — per-(input, output) queue depth in packets.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero (delegated to [`ConcentratorMux`]).
    pub fn new(
        n_inputs: usize,
        n_outputs: usize,
        bandwidth: u32,
        latency: u32,
        depth: usize,
        policy: Arbitration,
        noc: &NocConfig,
    ) -> Self {
        assert!(n_outputs > 0, "crossbar needs at least one output");
        Self {
            outputs: (0..n_outputs)
                .map(|o| {
                    let mut mux =
                        ConcentratorMux::new(n_inputs, bandwidth, latency, depth, policy, noc);
                    mux.set_label(Component::xbar_out(o));
                    mux
                })
                .collect(),
            n_inputs,
            busy: vec![0; n_outputs],
            mask: OccupancyMask::new(n_outputs),
            resident: 0,
        }
    }

    /// Number of input ports.
    pub fn num_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of output ports.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Whether `(input, output)` can take another packet.
    #[inline]
    pub fn can_accept(&self, input: usize, output: usize) -> bool {
        self.outputs[output].can_accept(input)
    }

    /// Queues `packet` from `input` toward `output`.
    ///
    /// # Errors
    ///
    /// Returns the packet when the virtual queue is full (backpressure).
    #[inline]
    pub fn try_push(&mut self, input: usize, output: usize, packet: Packet) -> Result<(), Packet> {
        self.try_push_probed(input, output, packet, &mut NullProbe)
    }

    /// [`try_push`](Self::try_push) with telemetry: the output mux
    /// reports under the [`Component::xbar_out`] label.
    ///
    /// # Errors
    ///
    /// Returns the packet when the virtual queue is full (backpressure).
    pub fn try_push_probed<P: Probe>(
        &mut self,
        input: usize,
        output: usize,
        packet: Packet,
        probe: &mut P,
    ) -> Result<(), Packet> {
        let pushed =
            self.outputs[output].try_push_probed(input, packet, Component::xbar_out(output), probe);
        if pushed.is_ok() {
            if self.busy[output] == 0 {
                self.mask.set(output);
            }
            self.busy[output] += 1;
            self.resident += 1;
        }
        pushed
    }

    /// Advances every output arbiter that holds a packet by one cycle
    /// (empty outputs tick to a no-op and are skipped).
    #[inline]
    pub fn tick(&mut self, now: Cycle) {
        self.tick_probed(now, &mut NullProbe);
    }

    /// [`tick`](Self::tick) with telemetry: per-port grants and forwards
    /// report under the [`Component::xbar_out`] label.
    pub fn tick_probed<P: Probe>(&mut self, now: Cycle, probe: &mut P) {
        for o in self.mask.iter_set() {
            self.outputs[o].tick_probed(now, Component::xbar_out(o), probe);
        }
    }

    /// Removes the next packet delivered at `output`, if ready at `now`.
    #[inline]
    pub fn pop_delivered(&mut self, output: usize, now: Cycle) -> Option<Packet> {
        let popped = self.outputs[output].pop_delivered(now);
        if popped.is_some() {
            self.busy[output] -= 1;
            if self.busy[output] == 0 {
                self.mask.clear(output);
            }
            self.resident -= 1;
        }
        popped
    }

    /// Pops every packet already delivered at any output (in output
    /// order) into `sink`. Equivalent to a full `pop_delivered` sweep
    /// over all outputs, but walks only busy ones and retires each
    /// output's delivered slots through the arena in one batch.
    pub fn drain_delivered<F: FnMut(Packet)>(&mut self, now: Cycle, mut sink: F) {
        for w in 0..self.mask.words().len() {
            // Snapshot one word: pops may clear bits of already-visited
            // outputs, never set new ones.
            let mut bits = self.mask.words()[w];
            while bits != 0 {
                let o = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let drained = self.outputs[o].drain_delivered(now, &mut sink);
                if drained > 0 {
                    let drained = u32::try_from(drained).expect("queue depths fit u32");
                    self.busy[o] -= drained;
                    self.resident -= drained;
                    if self.busy[o] == 0 {
                        self.mask.clear(o);
                    }
                }
            }
        }
    }

    /// Restores the crossbar to its just-constructed state in place
    /// (see [`ConcentratorMux::reset`]).
    pub fn reset(&mut self) {
        for mux in &mut self.outputs {
            mux.reset();
        }
        self.busy.fill(0);
        self.mask.clear_all();
        self.resident = 0;
    }

    /// True when nothing is queued or in flight anywhere. O(1): the
    /// resident counter tracks every push, pop, and drain.
    pub fn is_drained(&self) -> bool {
        self.resident == 0
    }

    /// The earliest [`NextEvent`] across every output mux.
    /// [`NextEvent::Busy`] dominates the merge, so the scan stops at the
    /// first busy output — same result, O(1) under load.
    pub fn next_event(&self) -> NextEvent {
        let mut ev = NextEvent::Idle;
        for o in self.mask.iter_set() {
            match self.outputs[o].next_event() {
                NextEvent::Busy => return NextEvent::Busy,
                e => ev = ev.merge(e),
            }
        }
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketId, PacketKind};
    use gnc_common::ids::{SliceId, SmId, WarpId};

    fn pkt(id: u64) -> Packet {
        Packet {
            id: PacketId(id),
            kind: PacketKind::ReadRequest,
            sm: SmId::new(0),
            warp: WarpId::new(0),
            slice: SliceId::new(0),
            addr: 0,
            data_bytes: 128,
            injected_at: 0,
            group: id,
        }
    }

    fn xbar() -> Crossbar {
        Crossbar::new(
            2,
            3,
            1,
            0,
            4,
            Arbitration::RoundRobin,
            &NocConfig::default(),
        )
    }

    #[test]
    fn distinct_outputs_do_not_interfere() {
        let mut x = xbar();
        x.try_push(0, 0, pkt(1)).unwrap();
        x.try_push(1, 2, pkt(2)).unwrap();
        x.tick(0);
        // Both single-flit packets cross in the same cycle because they
        // target different outputs.
        assert_eq!(x.pop_delivered(0, 0).unwrap().id, PacketId(1));
        assert_eq!(x.pop_delivered(2, 0).unwrap().id, PacketId(2));
        assert!(x.pop_delivered(1, 0).is_none());
        assert!(x.is_drained());
    }

    #[test]
    fn same_output_serialises() {
        let mut x = xbar();
        x.try_push(0, 1, pkt(1)).unwrap();
        x.try_push(1, 1, pkt(2)).unwrap();
        x.tick(0);
        assert!(x.pop_delivered(1, 0).is_some());
        assert!(x.pop_delivered(1, 0).is_none()); // second flit next cycle
        x.tick(1);
        assert!(x.pop_delivered(1, 1).is_some());
    }

    #[test]
    fn backpressure_per_virtual_queue() {
        let mut x = Crossbar::new(
            1,
            1,
            1,
            0,
            1,
            Arbitration::RoundRobin,
            &NocConfig::default(),
        );
        x.try_push(0, 0, pkt(1)).unwrap();
        assert!(!x.can_accept(0, 0));
        assert!(x.try_push(0, 0, pkt(2)).is_err());
    }

    #[test]
    fn dimensions_are_reported() {
        let x = xbar();
        assert_eq!(x.num_inputs(), 2);
        assert_eq!(x.num_outputs(), 3);
    }
}
