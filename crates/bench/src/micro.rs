//! Per-cycle microbenchmarks of the engine's hottest component loops —
//! a saturated 2:1 mux, a lone saturated sender (the fig 3/8
//! covert-channel shape), a 6×8 crossbar with spread traffic, an L2
//! slice streaming misses, and the L2 reply ports backed up behind one
//! saturated GPC reply channel — shared between the Criterion benches
//! (`benches/engine_hot_paths.rs`), the CLI's bench reports, and CI's
//! perf-smoke gate.
//!
//! The loops are the workloads the recorded BENCH_pr*.json trajectory
//! was measured on; keep their shapes fixed or the trajectory stops
//! being comparable. [`measure_trio`] reports the *minimum* ns/cycle
//! over several repetitions: on shared/virtualised hardware the minimum
//! tracks the true cost while means absorb host steal.

use gnc_common::config::{Arbitration, NocConfig};
use gnc_common::ids::{SliceId, SmId, WarpId};
use gnc_common::telemetry::NullProbe;
use gnc_common::GpuConfig;
use gnc_mem::dram::DramController;
use gnc_mem::l2::L2Slice;
use gnc_mem::subsystem::MemorySubsystem;
use gnc_noc::crossbar::Crossbar;
use gnc_noc::fabric::ReplyFabric;
use gnc_noc::mux::ConcentratorMux;
use gnc_noc::packet::{Packet, PacketId, PacketKind};
use serde::Serialize;
use std::time::Instant;

fn packet(id: u64, input: usize, slice: usize, kind: PacketKind, now: u64) -> Packet {
    Packet {
        id: PacketId(id),
        kind,
        sm: SmId::new(input),
        warp: WarpId::new(0),
        slice: SliceId::new(slice),
        addr: id * 128,
        data_bytes: 32,
        injected_at: now,
        group: id,
    }
}

/// A 2:1 TPC-style mux kept saturated: every cycle pays arbitration,
/// a flit drain, and a delay-line hop — the request fabric ticks 46 of
/// these per cycle. Returns packets delivered (a throughput invariant
/// the callers assert on).
pub fn mux_saturated(cycles: u64) -> u64 {
    let noc = NocConfig::default();
    let mut mux = ConcentratorMux::new(2, 1, 2, 8, Arbitration::RoundRobin, &noc);
    let mut next = 0u64;
    let mut delivered = 0u64;
    for now in 0..cycles {
        for input in 0..2 {
            if mux.can_accept(input) {
                let p = packet(next, input, 0, PacketKind::WriteRequest, now);
                if mux.try_push(input, p).is_ok() {
                    next += 1;
                }
            }
        }
        mux.tick(now);
        while mux.pop_delivered(now).is_some() {
            delivered += 1;
        }
    }
    delivered
}

/// A 6-input crossbar with traffic spread over 8 outputs — the shape of
/// the request fabric's GPC → slice stage under an all-SMs streaming
/// workload (occupied outputs tick, empty ones are mask-skipped).
pub fn crossbar_spread(cycles: u64) -> u64 {
    let noc = NocConfig::default();
    let mut xbar = Crossbar::new(6, 8, 1, 2, 8, Arbitration::RoundRobin, &noc);
    let mut next = 0u64;
    let mut delivered = 0u64;
    for now in 0..cycles {
        for input in 0..6 {
            let output = (next % 8) as usize;
            if xbar.can_accept(input, output) {
                let p = packet(next, input, output, PacketKind::ReadRequest, now);
                if xbar.try_push(input, output, p).is_ok() {
                    next += 1;
                }
            }
        }
        xbar.tick(now);
        for output in 0..8 {
            while xbar.pop_delivered(output, now).is_some() {
                delivered += 1;
            }
        }
    }
    delivered
}

/// The fig 3/8 sender shape: one SM of a TPC pair streams alone while
/// its sibling stays quiet — the covert channel's `1`-bit phase and the
/// saturated figures' per-sender steady state. The mux sees a lone
/// occupant with a stable head, which is exactly the closed-form
/// cross-cycle grant-run path of the batched arbitration engine.
pub fn mux_lone_sender(cycles: u64) -> u64 {
    let noc = NocConfig::default();
    let mut mux = ConcentratorMux::new(2, 1, 2, 8, Arbitration::RoundRobin, &noc);
    let mut next = 0u64;
    let mut delivered = 0u64;
    for now in 0..cycles {
        if mux.can_accept(0) {
            let p = packet(next, 0, 0, PacketKind::WriteRequest, now);
            if mux.try_push(0, p).is_ok() {
                next += 1;
            }
        }
        mux.tick(now);
        while mux.pop_delivered(now).is_some() {
            delivered += 1;
        }
    }
    delivered
}

/// One L2 slice streaming misses: every request walks the lookup
/// pipeline, allocates an MSHR, round-trips the DRAM controller, and
/// retires through the batched fill path.
// `next` is packet identity (it feeds ids and addresses), not a loop
// counter — keep the loop shape identical to the other hot loops.
#[allow(clippy::explicit_counter_loop)]
pub fn l2_miss_stream(cycles: u64) -> u64 {
    let cfg = GpuConfig::volta_v100();
    let mut slice = L2Slice::new(SliceId::new(0), &cfg);
    let mut dram = DramController::new(&cfg.mem);
    let mut next = 0u64;
    let mut replies = 0u64;
    for now in 0..cycles {
        // One fresh line per cycle (addresses stride a whole slice set
        // apart so every access misses).
        let p = Packet {
            addr: next * 128 * 48,
            ..packet(next, 0, 0, PacketKind::ReadRequest, now)
        };
        slice.push_request(p, now);
        next += 1;
        slice.tick(now, &mut dram);
        while slice.pop_reply().is_some() {
            replies += 1;
        }
    }
    replies
}

/// The GPC-channel receiver shape (the `hardened_send` benchmark
/// workload): the SMs of GPC0 keep preloaded reads outstanding on all
/// 48 slices, more than GPC0's reply-channel inputs can hold, so that
/// 3 flit/cycle channel stays saturated and replies back up at every
/// slice's reply port. Nearly every slice's reply-inject drain then
/// finds its GPC0 input full and injects nothing — the blocked-drain
/// path. Returns replies delivered to the SMs.
pub fn reply_port_blocked(cycles: u64) -> u64 {
    let cfg = GpuConfig::volta_v100();
    let mut mem = MemorySubsystem::new(&cfg);
    let mut fabric = ReplyFabric::new(&cfg);
    let readers: Vec<SmId> = (0..cfg.num_sms())
        .map(SmId::new)
        .filter(|&sm| cfg.gpc_of_sm(sm).index() == 0)
        .collect();
    let slices = cfg.mem.num_l2_slices as u64;
    let lines = 8 * slices;
    mem.preload_range(0, lines);
    // Three times what the GPC0 reply mux's 48 slice inputs hold: in
    // steady state each slice port holds about ten blocked replies, the
    // backlog the GPC-channel benchmark workload builds.
    let max_outstanding = 3 * slices * cfg.noc.input_queue_depth as u64;
    let mut next = 0u64;
    let mut delivered = 0u64;
    for now in 0..cycles {
        for &sm in &readers {
            if next - delivered >= max_outstanding {
                break;
            }
            let addr = (next % lines) * 128;
            let p = Packet {
                sm,
                slice: mem.address_map().slice_of(addr),
                addr,
                ..packet(next, sm.index(), 0, PacketKind::ReadRequest, now)
            };
            mem.push_request(p, now);
            next += 1;
        }
        mem.tick(now);
        mem.drain_replies_probed(&mut fabric, &mut NullProbe);
        fabric.tick(now);
        fabric.deliver_ready(now, |_, _| delivered += 1);
    }
    delivered
}

/// Best-observed ns/cycle for the three hot loops. Serialized into
/// bench reports so BENCH files are self-describing.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MicroTrio {
    /// Saturated 2:1 mux, ns per simulated cycle.
    pub mux_ns_per_cycle: f64,
    /// 6×8 spread crossbar, ns per simulated cycle.
    pub crossbar_ns_per_cycle: f64,
    /// L2 miss stream, ns per simulated cycle.
    pub l2_ns_per_cycle: f64,
}

impl MicroTrio {
    /// `mux 18.5 / xbar 227.0 / l2 68.7 ns/cycle` — the format the CLI
    /// prints next to wall-clock numbers.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "mux {:.1} / xbar {:.1} / l2 {:.1} ns/cycle",
            self.mux_ns_per_cycle, self.crossbar_ns_per_cycle, self.l2_ns_per_cycle
        )
    }
}

/// Minimum observed ns/cycle of `f(cycles)` over `reps` repetitions.
fn min_ns_per_cycle(reps: u32, cycles: u64, f: impl Fn(u64) -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let sink = f(cycles);
        let dt = t0.elapsed().as_nanos() as f64 / cycles as f64;
        // Keep the call from being optimised out.
        assert!(sink > 0, "hot loop delivered nothing");
        if dt < best {
            best = dt;
        }
    }
    best
}

/// Measures the trio at `cycles` simulated cycles per repetition,
/// `reps` repetitions each, reporting the per-loop minima.
#[must_use]
pub fn measure_trio(reps: u32, cycles: u64) -> MicroTrio {
    MicroTrio {
        mux_ns_per_cycle: min_ns_per_cycle(reps, cycles, mux_saturated),
        crossbar_ns_per_cycle: min_ns_per_cycle(reps, cycles, crossbar_spread),
        l2_ns_per_cycle: min_ns_per_cycle(reps, cycles, l2_miss_stream),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_loops_sustain_expected_throughput() {
        // The loops are throughput-pinned: wrong arbitration or queue
        // bookkeeping shows up as a delivery deficit, not just a slower
        // benchmark.
        assert_eq!(mux_saturated(1000), 498);
        assert_eq!(mux_lone_sender(1000), 499);
        assert_eq!(crossbar_spread(1000), 5988);
        assert_eq!(l2_miss_stream(1000), 100);
        assert_eq!(reply_port_blocked(1000), 1215);
    }

    #[test]
    fn trio_summary_mentions_all_three_stages() {
        let trio = measure_trio(1, 1000);
        let s = trio.summary();
        assert!(
            s.contains("mux") && s.contains("xbar") && s.contains("l2"),
            "{s}"
        );
    }
}
