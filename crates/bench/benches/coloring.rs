//! Criterion micro-benchmark: parallel speculative coloring vs serial greedy
//! (§5.2 preprocessing cost), on uniform and skewed degree distributions
//! and on the cached ~1.15 M-edge RMAT graph (the build/active/refine
//! benches' shared cache entry), whose dense hub core takes ~60 rounds.
//!
//! `cargo bench --bench coloring` emits `BENCH_coloring.json`; CI's perf
//! gate compares it with the committed baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grappolo_bench::cached_graph;
use grappolo_coloring::{color_greedy_serial, color_parallel, ParallelColoringConfig};
use grappolo_graph::gen::{erdos_renyi, rmat, ErConfig, RmatConfig};
use grappolo_graph::CsrGraph;

fn inputs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "uniform",
            erdos_renyi(&ErConfig {
                num_vertices: 20_000,
                num_edges: 120_000,
                seed: 1,
            }),
        ),
        (
            "skewed",
            rmat(&RmatConfig {
                scale: 14,
                num_edges: 120_000,
                ..Default::default()
            }),
        ),
        (
            "rmat1150k",
            cached_graph("rmat_s18_m1200k_seed1", || {
                rmat(&RmatConfig {
                    scale: 18,
                    num_edges: 1_200_000,
                    seed: 1,
                    ..Default::default()
                })
            }),
        ),
    ]
}

fn bench_coloring(c: &mut Criterion) {
    let mut group = c.benchmark_group("coloring");
    let cfg = ParallelColoringConfig { serial_cutoff: 0 };
    for (name, g) in inputs() {
        group.throughput(Throughput::Elements(g.num_adjacency_entries() as u64));
        group.bench_with_input(BenchmarkId::new("parallel", name), &g, |b, g| {
            b.iter(|| color_parallel(g, &cfg));
        });
        group.bench_with_input(BenchmarkId::new("serial_greedy", name), &g, |b, g| {
            b.iter(|| color_greedy_serial(g));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_coloring
}
criterion_main!(benches);
