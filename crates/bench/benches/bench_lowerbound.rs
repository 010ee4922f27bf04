//! Wall-clock benches of the lower-bound machinery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gossip_lowerbound::diameter::{bounds, diameter_at_most, exact};
use gossip_lowerbound::graph::sample_union_graph;
use gossip_lowerbound::theorem3::trial;

fn bench_graph_and_diameter(c: &mut Criterion) {
    let mut g = c.benchmark_group("lowerbound");
    g.sample_size(10);
    for n in [1usize << 12, 1 << 14] {
        g.bench_with_input(BenchmarkId::new("sample_union", n), &n, |b, &n| {
            b.iter(|| sample_union_graph(n, 4, 1).edge_count());
        });
        g.bench_with_input(BenchmarkId::new("diameter_bounds", n), &n, |b, &n| {
            let graph = sample_union_graph(n, 4, 1);
            b.iter(|| bounds(&graph, 3));
        });
        g.bench_with_input(BenchmarkId::new("decision", n), &n, |b, &n| {
            let graph = sample_union_graph(n, 4, 1);
            b.iter(|| diameter_at_most(&graph, 16));
        });
        // T = 3 against budget 2^3: the bounds straddle, so these two
        // reach the word-parallel scan (`decision` above never does).
        g.bench_with_input(BenchmarkId::new("decision_borderline", n), &n, |b, &n| {
            let graph = sample_union_graph(n, 3, 1);
            b.iter(|| diameter_at_most(&graph, 8));
        });
        g.bench_with_input(BenchmarkId::new("exact", n), &n, |b, &n| {
            let graph = sample_union_graph(n, 3, 1);
            b.iter(|| exact(&graph));
        });
    }
    g.bench_function("theorem3_trial", |b| {
        b.iter(|| trial(1 << 12, 3, 7));
    });
    g.finish();
}

criterion_group!(benches, bench_graph_and_diameter);
criterion_main!(benches);
