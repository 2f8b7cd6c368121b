//! Property-based tests for the memory system.

use gnc_common::config::MemConfig;
use gnc_common::ids::{GpcId, SliceId, SmId, WarpId};
use gnc_common::GpuConfig;
use gnc_mem::address::AddressMap;
use gnc_mem::dram::DramController;
use gnc_mem::l2::L2Slice;
use gnc_noc::packet::{Packet, PacketId, PacketKind};
use proptest::prelude::*;
use std::collections::VecDeque;

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
        let mut last_done = vec![0u64; 4];
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
}
