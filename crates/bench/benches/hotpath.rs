//! Criterion profile of the zero-copy message spine (the shared
//! `eesmr_core::Block` handle): the broadcast storm from
//! `eesmr_bench::hotpath`, swept over commands per block, payload bytes,
//! and shard counts. A hop clone is a refcount bump, so throughput
//! should stay flat as the payload grows.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use eesmr_bench::hotpath::{run_storm, StormSpec};
use eesmr_net::{MetricsConfig, TraceLevel};

fn bench_commands_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_commands");
    group.sample_size(10);
    for commands in [1usize, 16, 64] {
        let spec = StormSpec {
            n: 32,
            k: 4,
            commands,
            payload_bytes: 32,
            budget: 4,
            shards: 1,
            trace: TraceLevel::Off,
            metrics: MetricsConfig::off(),
        };
        group.bench_function(spec.label(), |b| b.iter(|| black_box(run_storm(&spec))));
    }
    group.finish();
}

fn bench_payload_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_payload");
    group.sample_size(10);
    for payload_bytes in [16usize, 256, 1024] {
        let spec = StormSpec {
            n: 32,
            k: 4,
            commands: 16,
            payload_bytes,
            budget: 4,
            shards: 1,
            trace: TraceLevel::Off,
            metrics: MetricsConfig::off(),
        };
        group.bench_function(spec.label(), |b| b.iter(|| black_box(run_storm(&spec))));
    }
    group.finish();
}

fn bench_shard_sweep(c: &mut Criterion) {
    let reference = run_storm(&StormSpec::headline());
    let mut group = c.benchmark_group("hotpath_shards_n128");
    group.throughput(Throughput::Elements(reference.deliveries));
    group.sample_size(3);
    for shards in [1usize, 2, 4] {
        let spec = StormSpec { shards, ..StormSpec::headline() };
        assert_eq!(
            reference.fingerprint(),
            run_storm(&spec).fingerprint(),
            "{shards} shards diverged"
        );
        group.bench_function(spec.label(), |b| b.iter(|| black_box(run_storm(&spec))));
    }
    group.finish();
}

criterion_group!(benches, bench_commands_sweep, bench_payload_sweep, bench_shard_sweep);
criterion_main!(benches);
