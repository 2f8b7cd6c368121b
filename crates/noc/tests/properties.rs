//! Property-based tests for the NoC building blocks.

use gnc_common::config::{Arbitration, NocConfig};
use gnc_common::fault::{FaultConfig, FaultPlan};
use gnc_common::ids::{SliceId, SmId, WarpId};
use gnc_common::telemetry::{Component, Probe};
use gnc_common::Cycle;
use gnc_noc::arbiter::{make_arbiter, ArbHead, Arbiter};
use gnc_noc::delay::DelayLine;
use gnc_noc::mux::ConcentratorMux;
use gnc_noc::packet::{Packet, PacketId, PacketKind};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

fn packet(id: u64, input: usize, kind: PacketKind, data_bytes: u32, now: u64) -> Packet {
    Packet {
        id: PacketId(id),
        kind,
        sm: SmId::new(input),
        warp: WarpId::new(0),
        slice: SliceId::new(0),
        addr: id * 128,
        data_bytes,
        injected_at: now,
        group: id,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No arbiter ever grants an empty input, and every grant is in
    /// range.
    #[test]
    fn arbiters_grant_only_requesting_inputs(
        policy in prop::sample::select(Arbitration::ALL.to_vec()),
        occupancy in proptest::collection::vec(any::<bool>(), 1..12),
        slots in 1u64..200,
    ) {
        let mut arb = make_arbiter(policy);
        let heads: Vec<Option<ArbHead>> = occupancy
            .iter()
            .enumerate()
            .map(|(i, &busy)| busy.then_some(ArbHead { age: i as u64, group: i as u64 }))
            .collect();
        for s in 0..slots {
            if let Some(winner) = arb.grant(s, &heads) {
                prop_assert!(winner < heads.len());
                prop_assert!(heads[winner].is_some(), "{:?} granted idle input {}", policy, winner);
            }
        }
    }

    /// Work-conserving arbiters (everything except strict RR) always
    /// grant when at least one input is busy.
    #[test]
    fn work_conserving_arbiters_never_waste_slots(
        policy in prop::sample::select(vec![
            Arbitration::RoundRobin,
            Arbitration::CoarseRoundRobin,
            Arbitration::AgeBased,
        ]),
        busy_input in 0usize..8,
        n_inputs in 1usize..8,
    ) {
        let n = n_inputs.max(busy_input + 1);
        let mut arb = make_arbiter(policy);
        let heads: Vec<Option<ArbHead>> = (0..n)
            .map(|i| (i == busy_input).then_some(ArbHead { age: 0, group: 0 }))
            .collect();
        for s in 0..(2 * n as u64) {
            prop_assert_eq!(arb.grant(s, &heads), Some(busy_input));
        }
    }

    /// Packet conservation: everything pushed into a mux eventually pops
    /// out exactly once, in per-input FIFO order.
    #[test]
    fn mux_conserves_packets(
        policy in prop::sample::select(Arbitration::ALL.to_vec()),
        sizes in proptest::collection::vec(prop::sample::select(vec![4u32, 32, 128]), 1..24),
    ) {
        let noc = NocConfig::default();
        let mut mux = ConcentratorMux::new(3, 2, 1, 64, policy, &noc);
        let mut pushed_per_input: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for (i, &bytes) in sizes.iter().enumerate() {
            let input = i % 3;
            let p = packet(i as u64, input, PacketKind::WriteRequest, bytes, 0);
            mux.try_push(input, p).expect("deep queues");
            pushed_per_input[input].push(i as u64);
        }
        let mut popped_per_input: Vec<Vec<u64>> = vec![Vec::new(); 3];
        let mut total = 0usize;
        for now in 0..10_000u64 {
            mux.tick(now);
            while let Some(p) = mux.pop_delivered(now) {
                popped_per_input[p.sm.index()].push(p.id.0);
                total += 1;
            }
            if total == sizes.len() {
                break;
            }
        }
        prop_assert_eq!(total, sizes.len(), "packets lost under {:?}", policy);
        prop_assert_eq!(popped_per_input, pushed_per_input);
        prop_assert!(mux.is_drained());
    }

    /// The mux never outpaces its configured bandwidth: delivering P
    /// packets of F flits each takes at least ceil(total_flits / bw)
    /// cycles.
    #[test]
    fn mux_respects_bandwidth(
        bw in 1u32..4,
        n_packets in 1usize..16,
    ) {
        let noc = NocConfig::default();
        let mut mux = ConcentratorMux::new(1, bw, 0, 64, Arbitration::RoundRobin, &noc);
        for i in 0..n_packets {
            let p = packet(i as u64, 0, PacketKind::WriteRequest, 128, 0);
            mux.try_push(0, p).expect("deep queue");
        }
        let total_flits = 5 * n_packets as u64;
        let min_cycles = total_flits.div_ceil(u64::from(bw));
        let mut done_at = None;
        for now in 0..10_000u64 {
            mux.tick(now);
            while mux.pop_delivered(now).is_some() {}
            if mux.is_drained() {
                done_at = Some(now + 1);
                break;
            }
        }
        let done = done_at.expect("drained");
        prop_assert!(done >= min_cycles, "drained in {done} < {min_cycles}");
        // And it should not be grossly slower either (work conserving).
        prop_assert!(done <= min_cycles + 4);
    }

    /// Delay lines preserve order and never deliver early.
    #[test]
    fn delay_line_is_fifo_and_punctual(
        latency in 0u32..20,
        gaps in proptest::collection::vec(0u64..5, 1..32),
    ) {
        let mut line = DelayLine::new(latency);
        let mut now = 0u64;
        let mut expected = Vec::new();
        for (i, &gap) in gaps.iter().enumerate() {
            now += gap;
            line.push(now, i);
            expected.push((now + u64::from(latency), i));
        }
        let mut got = Vec::new();
        for t in 0..=(now + u64::from(latency)) {
            while let Some(item) = line.pop_ready(t) {
                got.push((t, item));
            }
        }
        // Items emerge in push order…
        let order: Vec<usize> = got.iter().map(|&(_, i)| i).collect();
        prop_assert_eq!(order, (0..gaps.len()).collect::<Vec<_>>());
        // …and never before their readiness time (FIFO may delay an item
        // behind a later-pushed-but-earlier-ready head; never the
        // reverse).
        for ((t, _), (ready, _)) in got.iter().zip(&expected) {
            prop_assert!(t >= ready, "delivered at {t} before ready {ready}");
        }
        prop_assert!(line.is_empty());
    }

    /// Strict RR gives a saturating input exactly bandwidth/n throughput
    /// regardless of what the other inputs do.
    #[test]
    fn srr_throughput_is_invariant(other_busy in any::<bool>(), n_inputs in 2usize..5) {
        let noc = NocConfig::default();
        let run = |busy: bool| -> u64 {
            let mut mux = ConcentratorMux::new(n_inputs, 1, 0, 8,
                Arbitration::StrictRoundRobin, &noc);
            let mut next = 0u64;
            let mut delivered = 0u64;
            for now in 0..2_000u64 {
                if mux.can_accept(0) {
                    mux.try_push(0, packet(next, 0, PacketKind::WriteRequest, 4, now)).unwrap();
                    next += 1;
                }
                if busy {
                    for input in 1..n_inputs {
                        if mux.can_accept(input) {
                            next += 1;
                            let p = packet(next, input, PacketKind::WriteRequest, 4, now);
                            mux.try_push(input, p).unwrap();
                        }
                    }
                }
                mux.tick(now);
                while let Some(p) = mux.pop_delivered(now) {
                    if p.sm.index() == 0 {
                        delivered += 1;
                    }
                }
            }
            delivered
        };
        prop_assert_eq!(run(other_busy), run(false));
    }
}

/// Everything a probed mux reports, in order — the observable the
/// batched grant engine must reproduce bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    Flit {
        now: Cycle,
        input: usize,
    },
    Fwd {
        now: Cycle,
        input: usize,
        id: u64,
        flits: u32,
    },
    Denied {
        input: usize,
    },
    Depth {
        input: usize,
        depth: usize,
    },
    Pop {
        now: Cycle,
        id: u64,
    },
}

#[derive(Debug, Default)]
struct Recorder(Vec<Ev>);

impl Probe for Recorder {
    const ENABLED: bool = true;

    fn flit_granted(&mut self, now: Cycle, _comp: Component, input: usize) {
        self.0.push(Ev::Flit { now, input });
    }

    fn packet_forwarded(
        &mut self,
        now: Cycle,
        _comp: Component,
        input: usize,
        packet: u64,
        _sm: usize,
        _slice: usize,
        flits: u32,
    ) {
        self.0.push(Ev::Fwd {
            now,
            input,
            id: packet,
            flits,
        });
    }

    fn push_denied(&mut self, _comp: Component, input: usize) {
        self.0.push(Ev::Denied { input });
    }

    fn queue_depth(&mut self, _comp: Component, input: usize, depth: usize) {
        self.0.push(Ev::Depth { input, depth });
    }
}

/// Per-flit reference mux: bounded FIFOs of whole packets, one boxed
/// [`Arbiter`] call per flit slot, no occupancy masks, no grant runs,
/// no fault caching — the obviously-correct semantics the batched
/// engine in [`ConcentratorMux`] must be decision-identical to.
struct ReferenceMux {
    queues: Vec<VecDeque<(Packet, u32)>>,
    /// Flits of each queue head already granted.
    sent: Vec<u32>,
    arb: Box<dyn Arbiter>,
    output: VecDeque<(Cycle, Packet)>,
    bandwidth: u32,
    latency: u32,
    depth: usize,
    noc: NocConfig,
    fault: Option<(Arc<FaultPlan>, u64)>,
    events: Vec<Ev>,
}

impl ReferenceMux {
    fn new(
        n_inputs: usize,
        bandwidth: u32,
        latency: u32,
        depth: usize,
        policy: Arbitration,
        noc: &NocConfig,
    ) -> Self {
        Self {
            queues: vec![VecDeque::new(); n_inputs],
            sent: vec![0; n_inputs],
            arb: make_arbiter(policy),
            output: VecDeque::new(),
            bandwidth,
            latency,
            depth,
            noc: noc.clone(),
            fault: None,
            events: Vec::new(),
        }
    }

    fn try_push(&mut self, input: usize, packet: Packet) -> Result<(), Packet> {
        if self.queues[input].len() >= self.depth {
            self.events.push(Ev::Denied { input });
            return Err(packet);
        }
        let flits = packet.flits(&self.noc).max(1);
        self.queues[input].push_back((packet, flits));
        self.events.push(Ev::Depth {
            input,
            depth: self.queues[input].len(),
        });
        Ok(())
    }

    fn tick(&mut self, now: Cycle) {
        if self.queues.iter().all(VecDeque::is_empty) {
            return;
        }
        let steal = self
            .fault
            .as_ref()
            .map_or(0, |(plan, site)| plan.burst_flits(*site, now));
        let budget = self.bandwidth.saturating_sub(steal);
        for slot in 0..budget {
            let heads: Vec<Option<ArbHead>> = self
                .queues
                .iter()
                .map(|q| {
                    q.front().map(|(p, _)| ArbHead {
                        age: p.injected_at,
                        group: p.group,
                    })
                })
                .collect();
            let global_slot = now * u64::from(self.bandwidth) + u64::from(slot);
            let Some(winner) = self.arb.grant(global_slot, &heads) else {
                // Under strict RR the slot's owner may be idle (the slot
                // is wasted, not reassigned); later slots can still be
                // granted, so keep scanning.
                continue;
            };
            self.events.push(Ev::Flit { now, input: winner });
            self.sent[winner] += 1;
            if self.sent[winner] == self.queues[winner].front().expect("granted head").1 {
                let (packet, flits) = self.queues[winner].pop_front().expect("granted head");
                self.sent[winner] = 0;
                self.events.push(Ev::Fwd {
                    now,
                    input: winner,
                    id: packet.id.0,
                    flits,
                });
                self.output
                    .push_back((now + Cycle::from(self.latency), packet));
            }
        }
    }

    fn pop_delivered(&mut self, now: Cycle) -> Option<Packet> {
        match self.output.front() {
            Some(&(ready, _)) if ready <= now => self.output.pop_front().map(|(_, p)| p),
            _ => None,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole equivalence property: the batched grant engine
    /// (closed-form grant runs within a cycle, validated lone-occupant
    /// runs across cycles, cached fault windows) produces the *identical*
    /// observable sequence — every granted flit slot, forwarded packet,
    /// refused push, queue-depth report, and delivered packet, in order —
    /// as a per-flit reference mux driving the boxed [`Arbiter`]
    /// implementations one flit slot at a time, across all four policies,
    /// random traffic, backpressure, and fault-stolen slots.
    #[test]
    fn batched_mux_is_decision_identical_to_per_flit_reference(
        policy in prop::sample::select(Arbitration::ALL.to_vec()),
        n_inputs in 1usize..6,
        bandwidth in 1u32..5,
        latency in 0u32..3,
        depth in 1usize..5,
        seed in 1u64..u64::MAX,
        fault_on in any::<bool>(),
    ) {
        let noc = NocConfig::default();
        let mut real = ConcentratorMux::new(n_inputs, bandwidth, latency, depth, policy, &noc);
        let mut reference = ReferenceMux::new(n_inputs, bandwidth, latency, depth, policy, &noc);
        if fault_on {
            let cfg = FaultConfig {
                noc_burst_rate: 0.5,
                noc_burst_cycles: 4,
                noc_burst_flits: 1 + (seed % 2) as u32,
                ..FaultConfig::off()
            };
            // Two identical plans: the hash decisions are pure functions
            // of (config, site, window), so both muxes see the same
            // steals without sharing statistics counters.
            real.set_fault_plan(FaultPlan::new(cfg.clone()), 0xB00);
            reference.fault = Some((FaultPlan::new(cfg), 0xB00));
        }
        let comp = Component::tpc_mux(3);
        let mut probe = Recorder::default();
        let mut rng = seed;
        let mut next_id = 0u64;
        let mut xorshift = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for now in 0..400u64 {
            for input in 0..n_inputs {
                let r = xorshift();
                // Push with probability 1/2; skew toward short packets so
                // heads change often (the run-invalidation hot case).
                if r % 2 == 0 {
                    let (kind, bytes) = match (r >> 8) % 4 {
                        0 => (PacketKind::ReadRequest, 4),
                        1 => (PacketKind::WriteRequest, 4),
                        2 => (PacketKind::WriteRequest, 32),
                        _ => (PacketKind::WriteRequest, 128),
                    };
                    let mut p = packet(next_id, input, kind, bytes, now);
                    p.group = next_id / 3; // consecutive ids share CRR groups
                    let a = real.try_push_probed(input, p.clone(), comp, &mut probe);
                    let b = reference.try_push(input, p);
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "push divergence at {}", now);
                    if a.is_ok() {
                        next_id += 1;
                    }
                }
            }
            real.tick_probed(now, comp, &mut probe);
            reference.tick(now);
            loop {
                let a = real.pop_delivered(now);
                let b = reference.pop_delivered(now);
                match (&a, &b) {
                    (Some(pa), Some(pb)) => {
                        prop_assert_eq!(pa.id, pb.id, "pop order diverged at {}", now);
                        probe.0.push(Ev::Pop { now, id: pa.id.0 });
                        reference.events.push(Ev::Pop { now, id: pb.id.0 });
                    }
                    (None, None) => break,
                    _ => prop_assert!(false, "pop presence diverged at {}: {:?} vs {:?}", now, a, b),
                }
            }
        }
        prop_assert_eq!(&probe.0, &reference.events, "probe event stream diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The mux's full mask mirrors backpressure exactly: after every
    /// push, tick, delivery drain and reset, bit `i` is set iff input `i`
    /// refuses a push. Covers all four policies, queue depths 1-4, fault-
    /// stolen flit slots, and input counts whose mask spans two or three
    /// words.
    #[test]
    fn mux_full_mask_mirrors_can_accept(
        policy in prop::sample::select(Arbitration::ALL.to_vec()),
        n_inputs in prop::sample::select(vec![1usize, 2, 7, 48, 64, 65, 96, 130]),
        depth in 1usize..5,
        bandwidth in 1u32..4,
        fault_on in any::<bool>(),
        ops in proptest::collection::vec((0u8..16, any::<u16>()), 1..400),
    ) {
        let noc = NocConfig::default();
        let mut mux = ConcentratorMux::new(n_inputs, bandwidth, 1, depth, policy, &noc);
        let attach_faults = |mux: &mut ConcentratorMux| {
            if fault_on {
                let cfg = FaultConfig {
                    noc_burst_rate: 0.5,
                    noc_burst_cycles: 4,
                    noc_burst_flits: 1,
                    ..FaultConfig::off()
                };
                mux.set_fault_plan(FaultPlan::new(cfg), 0xF00);
            }
        };
        attach_faults(&mut mux);
        let (mut now, mut next_id) = (0u64, 0u64);
        for (op, arg) in ops {
            match op {
                // A burst of up to four pushes at one input, so inputs
                // reach depth (and refuse) often.
                0..=9 => {
                    let input = usize::from(arg) % n_inputs;
                    let kind = if arg & 0x800 == 0 {
                        PacketKind::ReadRequest
                    } else {
                        PacketKind::WriteRequest
                    };
                    for _ in 0..=(arg >> 12) % 4 {
                        let p = packet(next_id, input, kind, 32, now);
                        if mux.try_push(input, p).is_ok() {
                            next_id += 1;
                        }
                    }
                }
                10..=13 => {
                    mux.tick(now);
                    now += 1;
                }
                14 => {
                    mux.drain_delivered(now, |_| {});
                }
                _ => {
                    mux.reset();
                    attach_faults(&mut mux);
                }
            }
            let full = mux.full_inputs();
            prop_assert_eq!(full.len(), n_inputs);
            for i in 0..n_inputs {
                prop_assert_eq!(full.get(i), !mux.can_accept(i), "input {} after op {}", i, op);
            }
            // Bits past the last input stay clear.
            prop_assert_eq!(full.iter_set().count(), (0..n_inputs).filter(|&i| !mux.can_accept(i)).count());
        }
    }
}

/// The conservation checks in `is_drained` are plain `assert!`s — they
/// must fire in release builds too, where a silently wrong in-flight
/// counter would otherwise end a run with packets still queued. Corrupt
/// the counter behind the fabric's back and confirm the check catches
/// the lie in whatever profile this test compiles under.
mod conservation_checks_are_always_on {
    use super::packet;
    use gnc_common::ids::SliceId;
    use gnc_common::GpuConfig;
    use gnc_noc::fabric::{ReplyFabric, RequestFabric};
    use gnc_noc::packet::PacketKind;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn request_fabric_detects_corrupted_in_flight_counter() {
        let cfg = GpuConfig::volta_v100();
        let mut fabric = RequestFabric::new(&cfg);
        let sm = gnc_common::ids::SmId::new(0);
        fabric
            .inject(sm, packet(1, 0, PacketKind::ReadRequest, 4, 0))
            .expect("empty fabric accepts");
        assert!(!fabric.is_drained(), "a queued packet means not drained");
        fabric.corrupt_in_flight_counter_for_test();
        let err = catch_unwind(AssertUnwindSafe(|| fabric.is_drained()))
            .expect_err("corrupted counter must trip the conservation check");
        assert!(
            panic_message(err).contains("counter claims drained"),
            "panic must name the counter desync"
        );
    }

    #[test]
    fn reply_fabric_detects_corrupted_in_flight_counter() {
        let cfg = GpuConfig::volta_v100();
        let mut fabric = ReplyFabric::new(&cfg);
        fabric
            .inject_at_slice(SliceId::new(0), packet(1, 0, PacketKind::ReadReply, 32, 0))
            .expect("empty fabric accepts");
        assert!(!fabric.is_drained(), "a queued reply means not drained");
        fabric.corrupt_in_flight_counter_for_test();
        let err = catch_unwind(AssertUnwindSafe(|| fabric.is_drained()))
            .expect_err("corrupted counter must trip the conservation check");
        assert!(
            panic_message(err).contains("counter claims drained"),
            "panic must name the counter desync"
        );
    }
}
