//! Criterion bench: incremental repair vs full recompute as the churn rate
//! sweeps. One measurement = stabilizing an instance and then absorbing a
//! whole event trace; the `repair/` and `recompute/` groups differ only in
//! whether each event restarts the protocol from the dirty set or from
//! every node, so their gap is pure wasted wake-ups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use td_bench::churn::churn_registry;
use td_local::churn::RepairMode;

fn bench_churn(c: &mut Criterion) {
    for sc in churn_registry() {
        let size = match sc.kind() {
            td_bench::ScenarioKind::Orientation => 96,
            _ => 8,
        };
        for (label, mode) in [
            ("repair", RepairMode::Incremental),
            ("recompute", RepairMode::FullRecompute),
        ] {
            let mut group = c.benchmark_group(format!("churn-{label}/{}", sc.name()));
            group.sample_size(10);
            for events in [4u32, 16, 64] {
                group.bench_with_input(
                    BenchmarkId::from_parameter(events),
                    &events,
                    |b, &events| b.iter(|| sc.run(size, events, 42, mode, false)),
                );
            }
            group.finish();
        }
    }
}

criterion_group!(benches, bench_churn);
criterion_main!(benches);
