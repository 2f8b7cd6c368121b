//! Allocation audits: the engine's zero-alloc steady-state contract,
//! enforced with a counting global allocator.
//!
//! Two contracts are gated here:
//!
//! 1. **Zero heap operations per steady-state cycle.** The three hot
//!    component loops of `benches/engine_hot_paths.rs` — a saturated
//!    concentrator mux, a spread crossbar, and an L2 slice streaming
//!    misses — must perform *no* allocator calls once warmed up: every
//!    queue, arena slot, delay line, and MSHR waiter list is recycled.
//! 2. **Bounded per-trial allocations under reset-reuse.** A pooled
//!    sweep trial (`gnc_sim::with_pooled_gpu` + `Gpu::reset`) must
//!    allocate a small fraction of what a fresh construction does —
//!    the reset path recycles the machine instead of rebuilding it.
//!
//! The counters only exist when the `alloc-audit` feature installs the
//! counting allocator, and they are process-wide, so CI runs this suite
//! as:
//!
//! ```text
//! cargo test --release --features alloc-audit --test alloc_audit -- --test-threads=1
//! ```
//!
//! Without the feature the loops still run (keeping the test compiled
//! and honest) but the allocation assertions are skipped.

use gpu_noc_covert::common::alloc_audit;
use gpu_noc_covert::common::bits::BitVec;
use gpu_noc_covert::common::config::{Arbitration, NocConfig};
use gpu_noc_covert::common::ids::{SliceId, SmId, WarpId};
use gpu_noc_covert::common::GpuConfig;
use gpu_noc_covert::covert::channel::ChannelPlan;
use gpu_noc_covert::covert::protocol::ProtocolConfig;
use gpu_noc_covert::mem::dram::DramController;
use gpu_noc_covert::mem::l2::L2Slice;
use gpu_noc_covert::noc::crossbar::Crossbar;
use gpu_noc_covert::noc::mux::ConcentratorMux;
use gpu_noc_covert::noc::packet::{Packet, PacketId, PacketKind};

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

/// Asserts `measured` performed zero heap operations, with a useful
/// message; a no-op when the audit allocator is not installed.
fn assert_zero_alloc(what: &str, delta: alloc_audit::AllocCounts) {
    if !alloc_audit::is_active() {
        eprintln!("alloc-audit feature off; skipping zero-alloc assertion for {what}");
        return;
    }
    assert_eq!(
        delta.total_ops(),
        0,
        "{what} steady state must be allocation-free, saw {delta:?}"
    );
}

#[test]
fn mux_steady_state_is_allocation_free() {
    let noc = NocConfig::default();
    let mut mux = ConcentratorMux::new(2, 1, 2, 8, Arbitration::RoundRobin, &noc);
    let mut next = 0u64;
    let mut delivered = 0u64;
    let mut drive = |mux: &mut ConcentratorMux, span: std::ops::Range<u64>| {
        for now in span {
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
    };
    // Warm-up: queues, arena, and delay lines reach their high-water mark.
    drive(&mut mux, 0..2_000);
    let ((), delta) = alloc_audit::allocation_delta(|| drive(&mut mux, 2_000..12_000));
    assert!(delivered > 0, "mux must actually move traffic");
    assert_zero_alloc("concentrator mux", delta);
}

#[test]
fn crossbar_steady_state_is_allocation_free() {
    let noc = NocConfig::default();
    let mut xbar = Crossbar::new(6, 8, 1, 2, 8, Arbitration::RoundRobin, &noc);
    let mut next = 0u64;
    let mut delivered = 0u64;
    let mut drive = |xbar: &mut Crossbar, span: std::ops::Range<u64>| {
        for now in span {
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
    };
    drive(&mut xbar, 0..2_000);
    let ((), delta) = alloc_audit::allocation_delta(|| drive(&mut xbar, 2_000..12_000));
    assert!(delivered > 0, "crossbar must actually move traffic");
    assert_zero_alloc("crossbar", delta);
}

#[test]
fn l2_miss_stream_steady_state_is_allocation_free() {
    let cfg = GpuConfig::volta_v100();
    let mut slice = L2Slice::new(SliceId::new(0), &cfg);
    let mut dram = DramController::new(&cfg.mem);
    let mut next = 0u64;
    let mut replies = 0u64;
    let mut drive = |slice: &mut L2Slice, dram: &mut DramController, span: std::ops::Range<u64>| {
        for now in span {
            // Bounded outstanding requests, like the LSU that feeds the
            // real slice: unbounded injection would grow the lookup
            // pipeline's queue without limit, which is not a steady
            // state. Addresses stride a whole slice set apart so every
            // access misses and allocates (then recycles) an MSHR. The
            // requesting SM cycles through all 80, so replies use every
            // GPC's reply virtual channel.
            if next - replies < 48 {
                let p = Packet {
                    addr: next * 128 * 48,
                    ..packet(next, (next % 80) as usize, 0, PacketKind::ReadRequest, now)
                };
                slice.push_request(p, now);
                next += 1;
            }
            slice.tick(now, dram);
            while slice.pop_reply().is_some() {
                replies += 1;
            }
        }
    };
    // Long warm-up: the L2 sets fill, the MSHR map and fill queues reach
    // their steady occupancy, and the waiter-Vec pool is primed.
    drive(&mut slice, &mut dram, 0..20_000);
    let ((), delta) =
        alloc_audit::allocation_delta(|| drive(&mut slice, &mut dram, 20_000..40_000));
    assert!(replies > 0, "L2 slice must actually serve misses");
    assert_zero_alloc("L2 miss stream", delta);
}

#[test]
fn reset_reuse_trials_have_bounded_allocation_budget() {
    let cfg = GpuConfig::volta_v100();
    let plan = ChannelPlan::tpc(&cfg, ProtocolConfig::tpc(4), &[0]);
    let payload = BitVec::from_bytes(b"au");

    // Trial 0 constructs the machine (cold pool on this thread).
    let (report, build_delta) =
        alloc_audit::allocation_delta(|| plan.transmit(&cfg, &payload, 1000));
    assert_eq!(report.errors, 0);

    // Trials 1..: the pooled machine is reset in place. Each must cost a
    // small fraction of construction.
    let mut worst_reset = alloc_audit::AllocCounts::default();
    for seed in 1001..1006u64 {
        let (report, delta) = alloc_audit::allocation_delta(|| plan.transmit(&cfg, &payload, seed));
        assert_eq!(report.errors, 0, "seed {seed}");
        if delta.total_ops() > worst_reset.total_ops() {
            worst_reset = delta;
        }
    }

    if !alloc_audit::is_active() {
        eprintln!("alloc-audit feature off; skipping per-trial budget assertion");
        return;
    }
    eprintln!(
        "construction trial: {} heap ops / {} bytes; worst reset trial: {} heap ops / {} bytes",
        build_delta.total_ops(),
        build_delta.bytes,
        worst_reset.total_ops(),
        worst_reset.bytes
    );
    assert!(
        build_delta.total_ops() > 0,
        "construction must show up in the audit"
    );
    // The budget: a reset trial may allocate (kernel/warp bring-up is per
    // trial) but must stay well under construction cost — the machine's
    // queues, arenas, calendars, and cache arrays are all recycled.
    assert!(
        worst_reset.total_ops() * 4 <= build_delta.total_ops(),
        "reset trial heap ops ({}) must be <= 1/4 of construction ({})",
        worst_reset.total_ops(),
        build_delta.total_ops()
    );
}
