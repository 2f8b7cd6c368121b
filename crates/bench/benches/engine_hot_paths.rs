//! Microbench: the per-cycle cost of the engine's hottest component
//! ticks — a saturated concentrator mux, a lone saturated sender (the
//! fig 3/8 covert-channel shape), a saturated crossbar, an L2 slice
//! streaming misses through its DRAM controller, L2 reply ports backed
//! up behind one saturated GPC reply channel, and one GPC's per-SM
//! ejection ports fed below that channel's saturation. These are the paths
//! the event-calendar engine pays on every *processed* cycle, so their
//! cost bounds the simulator's throughput once fast-forwarding has
//! removed the dead cycles.
//!
//! The loop bodies live in [`gnc_bench::micro`] so the Criterion
//! benches, the CLI's bench reports, and CI's perf-smoke gate all
//! measure the exact same workloads.

use criterion::{criterion_group, criterion_main, Criterion};
use gnc_bench::micro::{
    crossbar_spread, l2_miss_stream, mux_lone_sender, mux_saturated, reply_ejection_fanout,
    reply_port_blocked,
};
use gnc_common::GpuConfig;
use gnc_sim::gpu::Gpu;

/// Per-trial machine bring-up, both ways: constructing a full 80-SM
/// Volta from scratch versus restoring a pooled machine with
/// `Gpu::reset`. The gap between these two is exactly what the
/// build-once/reset-many sweep engine saves on every trial after the
/// first.
fn construction_vs_reset(c: &mut Criterion) {
    let cfg = GpuConfig::volta_v100();
    let mut group = c.benchmark_group("construction_vs_reset");
    group.sample_size(20);
    group.bench_function("construct_volta", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            Gpu::with_clock_seed(cfg.clone(), seed).expect("valid config")
        });
    });
    group.bench_function("reset_volta", |b| {
        let mut gpu = Gpu::with_clock_seed(cfg.clone(), 0).expect("valid config");
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            gpu.reset(seed);
        });
    });
    group.finish();
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_hot_paths");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(10));
    group.warm_up_time(std::time::Duration::from_secs(2));
    group.bench_function("mux_saturated_10k_cycles", |b| {
        b.iter(|| mux_saturated(10_000));
    });
    group.bench_function("mux_lone_sender_10k_cycles", |b| {
        b.iter(|| mux_lone_sender(10_000));
    });
    group.bench_function("crossbar_spread_10k_cycles", |b| {
        b.iter(|| crossbar_spread(10_000));
    });
    group.bench_function("l2_miss_stream_10k_cycles", |b| {
        b.iter(|| l2_miss_stream(10_000));
    });
    group.bench_function("reply_port_blocked_10k_cycles", |b| {
        b.iter(|| reply_port_blocked(10_000));
    });
    group.bench_function("reply_ejection_fanout_10k_cycles", |b| {
        b.iter(|| reply_ejection_fanout(10_000));
    });
    group.finish();
}

criterion_group!(benches, bench, construction_vs_reset);
criterion_main!(benches);
