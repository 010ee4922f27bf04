//! Wall-clock benches of the cluster coordination primitives.

use criterion::{criterion_group, criterion_main, Criterion};
use gossip_core::primitives::{
    collect_members, grow_push_round, merge_iteration, resize, sample_singletons, share_rumor,
    size_round, Merge, Who,
};
use gossip_core::{ClusterSim, CommonConfig};

fn prepared_sim(n: usize, singleton_p: f64) -> ClusterSim {
    let mut sim = ClusterSim::new(n, &CommonConfig::default());
    sample_singletons(&mut sim, singleton_p);
    sim
}

fn bench_primitives(c: &mut Criterion) {
    let n = 1usize << 13;
    let mut g = c.benchmark_group("primitives");
    g.sample_size(10);

    g.bench_function("cluster_size", |b| {
        let mut sim = prepared_sim(n, 0.01);
        for _ in 0..4 {
            grow_push_round(&mut sim, Who::AllClustered);
        }
        b.iter(|| {
            collect_members(&mut sim, Who::AllClustered);
            size_round(&mut sim, Who::AllClustered, None);
        });
    });

    g.bench_function("resize", |b| {
        let mut sim = prepared_sim(n, 0.01);
        for _ in 0..5 {
            grow_push_round(&mut sim, Who::AllClustered);
        }
        b.iter(|| resize(&mut sim, 8, Who::AllClustered));
    });

    g.bench_function("merge_iteration", |b| {
        let mut sim = prepared_sim(n, 1.0);
        b.iter(|| {
            merge_iteration(&mut sim, Merge::All);
        });
    });

    g.bench_function("share_rumor", |b| {
        let mut sim = prepared_sim(n, 0.01);
        for _ in 0..8 {
            grow_push_round(&mut sim, Who::AllClustered);
        }
        b.iter(|| share_rumor(&mut sim));
    });

    g.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
