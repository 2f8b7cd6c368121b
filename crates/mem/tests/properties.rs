//! Property-based tests for the memory system.

use gnc_common::config::MemConfig;
use gnc_common::ids::{GpcId, SliceId, SmId, WarpId};
use gnc_common::telemetry::{Component, ComponentKind, Probe};
use gnc_common::{Cycle, GpuConfig};
use gnc_mem::address::AddressMap;
use gnc_mem::dram::DramController;
use gnc_mem::l2::L2Slice;
use gnc_mem::subsystem::MemorySubsystem;
use gnc_noc::fabric::ReplyFabric;
use gnc_noc::packet::{Packet, PacketId, PacketKind};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// Slices in the reply-port equivalence test.
const PORT_SLICES: usize = 3;
/// Distinct preloaded lines per slice in that test.
const PORT_LINES: u64 = 256;

/// One L2 slice beside the reply port its per-GPC virtual channels
/// replace: a single arrival-order FIFO drained by a first-fit scan for
/// an injectable reply, kept here as the oracle for `pop_reply_for`.
struct PortPair {
    slice: L2Slice,
    dram: DramController,
    /// Requests not yet replied to, in request order.
    pending: VecDeque<(PacketId, GpcId)>,
    /// The oracle port's queue, in arrival order.
    oracle: VecDeque<(PacketId, GpcId)>,
}

impl PortPair {
    fn new(s: usize, cfg: &GpuConfig, map: &AddressMap) -> Self {
        let mut slice = L2Slice::new(SliceId::new(s), cfg);
        for nth in 0..PORT_LINES {
            slice.preload(map.addr_in_slice(SliceId::new(s), nth));
        }
        Self {
            slice,
            dram: DramController::new(&cfg.mem),
            pending: VecDeque::new(),
            oracle: VecDeque::new(),
        }
    }

    /// Ticks the slice and queues its new replies at the oracle port.
    /// Preloaded hits leave the lookup pipeline in request order, so the
    /// new arrivals are the oldest pending requests.
    fn tick(&mut self, now: u64) {
        self.slice.tick(now, &mut self.dram);
        for _ in self.oracle.len()..self.slice.reply_len() {
            let reply = self.pending.pop_front().expect("a reply implies a request");
            self.oracle.push_back(reply);
        }
    }

    /// The oracle's first-fit scan.
    fn oracle_pop_where(&mut self, has_room: impl Fn(GpcId) -> bool) -> Option<(PacketId, GpcId)> {
        let idx = self.oracle.iter().position(|&(_, gpc)| has_room(gpc))?;
        self.oracle.remove(idx)
    }
}

/// Room of `slice`'s input to each GPC's reply channel this cycle: 0, 1
/// or 3 credits per (slice, GPC) pair from two bits each of `bits`,
/// none half the time so replies back up behind blocked GPCs.
fn port_credits(bits: u64, slice: usize, num_gpcs: usize) -> Vec<u32> {
    (0..num_gpcs)
        .map(|g| [0, 0, 1, 3][((bits >> (2 * ((slice * num_gpcs + g) % 32))) & 3) as usize])
        .collect()
}

/// One probe event of the memory system or the reply fabric.
#[derive(Debug, Clone, PartialEq)]
enum Ev {
    Granted(Cycle, Component, usize),
    Forwarded(Cycle, Component, usize, u64),
    Denied(Cycle, Component, usize),
    Depth(Cycle, Component, usize, usize),
    L2(Cycle, usize, bool),
    Mshr(Cycle, usize, usize),
    Dram(Cycle, usize, usize, Cycle, Cycle, bool),
}

/// Records every event, plus each reply injection as `(cycle, slice,
/// packet id)`. An injection shows up as a queue-depth report of a GPC
/// reply mux; its packet id is filled in when that mux forwards the
/// packet, since each mux input is a FIFO.
#[derive(Default)]
struct Recorder {
    now: Cycle,
    events: Vec<Ev>,
    injections: Vec<(Cycle, usize, Option<u64>)>,
    /// Unforwarded injections per (GPC, slice), as `injections` indices.
    queued: HashMap<(usize, usize), VecDeque<usize>>,
}

impl Probe for Recorder {
    const ENABLED: bool = true;

    fn flit_granted(&mut self, now: Cycle, comp: Component, input: usize) {
        self.events.push(Ev::Granted(now, comp, input));
    }

    fn packet_forwarded(
        &mut self,
        now: Cycle,
        comp: Component,
        input: usize,
        packet: u64,
        _sm: usize,
        _slice: usize,
        _flits: u32,
    ) {
        self.events.push(Ev::Forwarded(now, comp, input, packet));
        if comp.kind == ComponentKind::GpcReplyMux {
            let at = self
                .queued
                .get_mut(&(comp.index, input))
                .and_then(VecDeque::pop_front)
                .expect("forwarded reply was injected");
            self.injections[at].2 = Some(packet);
        }
    }

    fn push_denied(&mut self, comp: Component, input: usize) {
        self.events.push(Ev::Denied(self.now, comp, input));
    }

    fn queue_depth(&mut self, comp: Component, input: usize, depth: usize) {
        self.events.push(Ev::Depth(self.now, comp, input, depth));
        if comp.kind == ComponentKind::GpcReplyMux {
            self.queued
                .entry((comp.index, input))
                .or_default()
                .push_back(self.injections.len());
            self.injections.push((self.now, input, None));
        }
    }

    fn l2_access(&mut self, now: Cycle, slice: usize, hit: bool) {
        self.events.push(Ev::L2(now, slice, hit));
    }

    fn mshr_occupancy(&mut self, slice: usize, occupied: usize) {
        self.events.push(Ev::Mshr(self.now, slice, occupied));
    }

    fn dram_access(
        &mut self,
        now: Cycle,
        mc: usize,
        bank: usize,
        start: Cycle,
        done: Cycle,
        row_hit: bool,
    ) {
        self.events
            .push(Ev::Dram(now, mc, bank, start, done, row_hit));
    }
}

/// A memory system, its reply fabric and their recorded history.
struct Machine {
    mem: MemorySubsystem,
    fabric: ReplyFabric,
    probe: Recorder,
    /// Replies popped at the SMs: `(cycle, sm, packet id)`.
    delivered: Vec<(Cycle, usize, u64)>,
}

impl Machine {
    fn new(cfg: &GpuConfig, warm_lines: u64) -> Self {
        let mut mem = MemorySubsystem::new(cfg);
        mem.preload_range(0, warm_lines);
        Self {
            mem,
            fabric: ReplyFabric::new(cfg),
            probe: Recorder::default(),
            delivered: Vec::new(),
        }
    }

    /// One cycle in engine phase order: requests arrive, the memory
    /// system ticks, ready replies are drained into the reply fabric
    /// (by the subsystem's drain, or by `reference_drain`), and the
    /// fabric moves and delivers only when `tick_fabric` is set.
    fn cycle(&mut self, now: Cycle, requests: &[Packet], reference: bool, tick_fabric: bool) {
        self.probe.now = now;
        for p in requests {
            self.mem.push_request(p.clone(), now);
        }
        self.mem.tick_probed(now, &mut self.probe);
        if reference {
            reference_drain(&mut self.mem, &mut self.fabric, &mut self.probe);
        } else {
            self.mem
                .drain_replies_probed(&mut self.fabric, &mut self.probe);
        }
        if tick_fabric && self.fabric.in_flight() > 0 {
            self.fabric.tick_probed(now, &mut self.probe);
            let delivered = &mut self.delivered;
            self.fabric
                .deliver_ready(now, |sm, p| delivered.push((now, sm, p.id.0)));
        }
    }

    fn is_drained(&self) -> bool {
        self.mem.is_drained() && self.fabric.is_drained()
    }
}

/// The reply-inject drain without its skip masks: every slice, in
/// ascending order, pops and injects while the fabric has room for the
/// oldest reply of some non-empty virtual channel. `pop_reply_for`
/// returns `None` at an empty port.
fn reference_drain(mem: &mut MemorySubsystem, fabric: &mut ReplyFabric, probe: &mut Recorder) {
    for s in 0..mem.num_slices() {
        let slice = SliceId::new(s);
        while let Some(p) = mem.pop_reply_for(slice, |gpc| fabric.has_room(slice, gpc)) {
            fabric
                .inject_at_slice_probed(slice, p, probe)
                .expect("room just checked");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Address decomposition is a bijection on line indices.
    #[test]
    fn address_map_round_trips(addr in 0u64..(1 << 40)) {
        let cfg = GpuConfig::volta_v100();
        let map = AddressMap::new(&cfg);
        let line = map.line_of(addr);
        let rebuilt = (map.tag_of(addr) * map.num_sets() as u64 + map.set_of(addr) as u64)
            * cfg.mem.num_l2_slices as u64
            + map.slice_of(addr).index() as u64;
        prop_assert_eq!(line, rebuilt);
        prop_assert!(map.slice_of(addr).index() < cfg.mem.num_l2_slices);
        prop_assert!(map.set_of(addr) < map.num_sets());
    }

    /// DRAM access completion times are strictly increasing per bank and
    /// never precede the issue time.
    #[test]
    fn dram_times_are_causal(
        ops in proptest::collection::vec((0usize..4, 0u64..8), 1..40),
    ) {
        let mut ctrl = DramController::new(&MemConfig::default());
        let mut last_done = [0u64; 4];
        let mut now = 0u64;
        for (bank, row) in ops {
            let done = ctrl.access(bank, row, now);
            prop_assert!(done > now, "completion {done} not after issue {now}");
            prop_assert!(done > last_done[bank], "bank {bank} reordered");
            last_done[bank] = done;
            now += 3;
        }
    }

    /// Every request pushed into an L2 slice produces exactly one reply
    /// with a matching id and the right reply kind, regardless of
    /// hit/miss mix.
    #[test]
    fn l2_replies_once_per_request(
        requests in proptest::collection::vec((0u64..64, any::<bool>(), any::<bool>()), 1..32),
    ) {
        let cfg = GpuConfig::volta_v100();
        let mut slice = L2Slice::new(SliceId::new(0), &cfg);
        let mut dram = DramController::new(&cfg.mem);
        let map = AddressMap::new(&cfg);
        let mut expected = Vec::new();
        for (i, &(nth, write, preload)) in requests.iter().enumerate() {
            let addr = map.addr_in_slice(SliceId::new(0), nth);
            if preload {
                slice.preload(addr);
            }
            let kind = if write { PacketKind::WriteRequest } else { PacketKind::ReadRequest };
            slice.push_request(
                Packet {
                    id: PacketId(i as u64),
                    kind,
                    sm: SmId::new(0),
                    warp: WarpId::new(0),
                    slice: SliceId::new(0),
                    addr,
                    data_bytes: 4,
                    injected_at: 0,
                    group: i as u64,
                },
                i as u64,
            );
            expected.push((PacketId(i as u64), kind.reply_kind()));
        }
        let mut got = Vec::new();
        for now in 0..100_000u64 {
            slice.tick(now, &mut dram);
            while let Some(r) = slice.pop_reply() {
                got.push((r.id, r.kind));
            }
            if got.len() == expected.len() && slice.is_drained() {
                break;
            }
        }
        got.sort_by_key(|(id, _)| id.0);
        prop_assert_eq!(got, expected);
        prop_assert!(slice.is_drained());
    }

    /// Cache residency: after a fill, re-accessing the same line is a
    /// hit (stats monotonicity).
    #[test]
    fn second_access_hits(nth in 0u64..256) {
        let cfg = GpuConfig::volta_v100();
        let mut slice = L2Slice::new(SliceId::new(0), &cfg);
        let mut dram = DramController::new(&cfg.mem);
        let map = AddressMap::new(&cfg);
        let addr = map.addr_in_slice(SliceId::new(0), nth);
        for round in 0..2u64 {
            slice.push_request(
                Packet {
                    id: PacketId(round),
                    kind: PacketKind::ReadRequest,
                    sm: SmId::new(0),
                    warp: WarpId::new(0),
                    slice: SliceId::new(0),
                    addr,
                    data_bytes: 4,
                    injected_at: 0,
                    group: round,
                },
                round * 10_000,
            );
            for now in (round * 10_000)..((round + 1) * 10_000) {
                slice.tick(now, &mut dram);
                if slice.pop_reply().is_some() {
                    break;
                }
            }
        }
        let stats = slice.stats();
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.hits, 1);
    }

    /// The per-destination-GPC reply virtual channels inject exactly
    /// what a single arrival-order FIFO with a first-fit scan injects:
    /// the same (cycle, slice, packet) sequence under room that varies
    /// per (slice, GPC) pair and from cycle to cycle (and shrinks as
    /// replies are injected), and the same whole-port order from
    /// `pop_reply`/`peek_reply`.
    #[test]
    fn reply_vcs_match_first_fit_scan(
        schedule in proptest::collection::vec(
            (
                proptest::collection::vec((0..PORT_SLICES, 0usize..80), 0..5),
                any::<u64>(),
                any::<u8>(),
            ),
            1..240,
        ),
    ) {
        // A short lookup pipeline, so replies reach the port while the
        // schedule still varies room and pop modes.
        let mut cfg = GpuConfig::volta_v100();
        cfg.mem.l2_access_latency = 3;
        let map = AddressMap::new(&cfg);
        let mut ports: Vec<PortPair> = (0..PORT_SLICES).map(|s| PortPair::new(s, &cfg, &map)).collect();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut next_id = 0u64;
        let mut now = 0u64;
        for (arrivals, room_bits, modes) in &schedule {
            for &(s, sm) in arrivals {
                let sm = SmId::new(sm);
                let addr = map.addr_in_slice(SliceId::new(s), next_id % PORT_LINES);
                ports[s].slice.push_request(
                    Packet {
                        id: PacketId(next_id),
                        kind: PacketKind::ReadRequest,
                        sm,
                        warp: WarpId::new(0),
                        slice: SliceId::new(s),
                        addr,
                        data_bytes: 4,
                        injected_at: now,
                        group: next_id,
                    },
                    now,
                );
                ports[s].pending.push_back((PacketId(next_id), cfg.gpc_of_sm(sm)));
                next_id += 1;
            }
            for (s, port) in ports.iter_mut().enumerate() {
                port.tick(now);
                if modes & (1 << s) != 0 {
                    // Whole-port order: one plain pop.
                    let peeked = port.slice.peek_reply().map(|p| p.id);
                    let popped = port.slice.pop_reply().map(|p| p.id);
                    let expected = port.oracle.pop_front().map(|(id, _)| id);
                    prop_assert_eq!(peeked, expected);
                    prop_assert_eq!(popped, expected);
                    got.extend(popped.map(|id| (now, s, id)));
                    want.extend(expected.map(|id| (now, s, id)));
                } else {
                    // Reply-inject drain: each injection uses up a credit.
                    let mut credits = port_credits(*room_bits, s, cfg.num_gpcs);
                    while let Some(p) = port.slice.pop_reply_for(|g| credits[g.index()] > 0) {
                        credits[cfg.gpc_of_sm(p.sm).index()] -= 1;
                        got.push((now, s, p.id));
                    }
                    let mut credits = port_credits(*room_bits, s, cfg.num_gpcs);
                    while let Some((id, g)) = port.oracle_pop_where(|g| credits[g.index()] > 0) {
                        credits[g.index()] -= 1;
                        want.push((now, s, id));
                    }
                }
                prop_assert_eq!(port.slice.reply_len(), port.oracle.len());
            }
            now += 1;
        }
        // Empty every port in whole-port order.
        while ports.iter().any(|p| !p.pending.is_empty() || !p.oracle.is_empty()) {
            for (s, port) in ports.iter_mut().enumerate() {
                port.tick(now);
                while let Some(p) = port.slice.pop_reply() {
                    got.push((now, s, p.id));
                }
                want.extend(port.oracle.drain(..).map(|(id, _)| (now, s, id)));
            }
            now += 1;
            prop_assert!(now < 1_000_000, "ports never emptied");
        }
        prop_assert_eq!(got.len() as u64, next_id, "every request replied exactly once");
        prop_assert_eq!(got, want);
        for port in &ports {
            prop_assert_eq!(port.slice.stats().misses, 0, "arrival order assumes hits only");
            prop_assert!(port.slice.is_drained());
        }
    }

    /// The masked reply-inject drain (per-GPC pending masks against the
    /// reply muxes' full masks) injects exactly what a visit of every
    /// slice injects: the same `(cycle, slice, packet id)` sequence, the
    /// same probe event stream and the same deliveries at the SMs. The
    /// traffic is reads from random SMs of every GPC, hits and misses,
    /// with bursts from one GPC's SMs and cycles on which the reply
    /// fabric is not ticked, so reply-mux inputs stay full for many
    /// cycles; queue depths 1-3 make full inputs common. `wide` gives 96
    /// slices, which `GpuConfig::validate` accepts, so the masks span
    /// two words.
    #[test]
    fn masked_reply_drain_matches_visiting_every_slice(
        wide in any::<bool>(),
        depth in 1usize..4,
        schedule in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..80, any::<u16>(), any::<bool>()), 0..4),
                (0u8..100, 0usize..6, 4usize..40),
                0u8..4,
            ),
            1..200,
        ),
    ) {
        let mut cfg = GpuConfig::volta_v100();
        cfg.noc.input_queue_depth = depth;
        if wide {
            cfg.mem.num_l2_slices = 96;
        }
        prop_assert!(cfg.validate().is_ok());
        let slices = cfg.mem.num_l2_slices as u64;
        let line = cfg.mem.line_bytes as u64;
        // Half the lines a request may touch are warm (hits), the rest
        // go to DRAM.
        let warm_lines = 4 * slices;
        let sms_of_gpc: Vec<Vec<usize>> = (0..cfg.num_gpcs)
            .map(|g| {
                (0..cfg.num_sms())
                    .filter(|&s| cfg.gpc_of_sm(SmId::new(s)) == GpcId::new(g))
                    .collect()
            })
            .collect();
        let mut masked = Machine::new(&cfg, warm_lines);
        let mut reference = Machine::new(&cfg, warm_lines);
        let map = masked.mem.address_map().clone();
        let mut next_id = 0u64;
        let mut read = |sm: usize, pick: u64, big: bool, now: Cycle| {
            let addr = (pick % (2 * warm_lines)) * line;
            next_id += 1;
            Packet {
                id: PacketId(next_id),
                kind: PacketKind::ReadRequest,
                sm: SmId::new(sm),
                warp: WarpId::new(0),
                slice: map.slice_of(addr),
                addr,
                data_bytes: if big { 128 } else { 4 },
                injected_at: now,
                group: next_id,
            }
        };
        let mut now = 0;
        for (arrivals, burst, skip) in &schedule {
            let mut requests: Vec<Packet> = arrivals
                .iter()
                .map(|&(sm, pick, big)| read(sm, u64::from(pick), big, now))
                .collect();
            // A burst in about one cycle of seven.
            if let &(0..=14, g, n) = burst {
                let sms = &sms_of_gpc[g];
                for k in 0..n {
                    // Few distinct slices, so one GPC's inputs at them
                    // fill and stay full.
                    let pick = (now + k as u64 * 7) % 12;
                    requests.push(read(sms[k % sms.len()], pick, true, now));
                }
            }
            let tick_fabric = *skip != 0;
            masked.cycle(now, &requests, false, tick_fabric);
            reference.cycle(now, &requests, true, tick_fabric);
            now += 1;
        }
        while !(masked.is_drained() && reference.is_drained()) {
            masked.cycle(now, &[], false, true);
            reference.cycle(now, &[], true, true);
            now += 1;
            prop_assert!(now < 1_000_000, "machines never drained");
        }
        prop_assert!(masked.probe.injections.iter().all(|i| i.2.is_some()));
        prop_assert_eq!(masked.probe.injections.len() as u64, next_id);
        prop_assert_eq!(&masked.probe.injections, &reference.probe.injections);
        prop_assert_eq!(&masked.delivered, &reference.delivered);
        prop_assert!(masked.probe.events == reference.probe.events, "probe event streams diverged");
    }
}
