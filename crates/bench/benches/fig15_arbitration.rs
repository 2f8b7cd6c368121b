//! Bench: regenerate Fig 15 (arbitration policy comparison).

use criterion::{criterion_group, criterion_main, Criterion};
use gnc_bench::platform;
use gnc_common::config::Arbitration;
use gnc_covert::countermeasure::arbitration_sweep;

fn bench(c: &mut Criterion) {
    let cfg = platform();
    let mut group = c.benchmark_group("fig15");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(20));
    group.warm_up_time(std::time::Duration::from_secs(2));
    group.bench_function("rr_crr_srr_sweep", |b| {
        b.iter(|| {
            arbitration_sweep(
                &cfg,
                &[
                    Arbitration::RoundRobin,
                    Arbitration::CoarseRoundRobin,
                    Arbitration::StrictRoundRobin,
                ],
                &[0.5, 1.0],
                24,
                0,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
