//! Micro-benchmarks for the partitioning substrate.
//!
//! These are the costs behind Figure 4's "METIS-CPS" series and Figure 6's
//! partition-time comparison: multilevel coarsening, full k-way
//! partitioning, and the two mini-batch generation strategies end-to-end.
//! Also covers ablation D2 (CPS pivot count q).
//!
//! `ladder_dbp1m` is the op-level row for one partition level at a size
//! where the partitioner's growth shows (the groups above stop at 1 500
//! vertices): `partition_kway` at K = 20 on the source graph of
//! DBP1M(EN-FR) scale 0.025 — the shape of the `dbp1m-partition` benchmark
//! workload — reported as edges/s, and `initial_partition` alone on the
//! graph coarsening hands it.

use largeea_common::bench::Bench;
use largeea_data::Preset;
use largeea_partition::coarsen::{coarsen_once, coarsen_to};
use largeea_partition::initial::initial_partition;
use largeea_partition::{metis_cps, partition_kway, vps, CpsConfig, PartGraph, PartitionConfig};

fn bench_partitioner(bench: &mut Bench) {
    let pair = Preset::Ids15kEnFr.spec(0.1).generate();
    let g = PartGraph::from_kg(&pair.source);
    let mut group = bench.group("fig4_partitioner");
    group.bench_function("coarsen_once_1500v", |b| b.iter(|| coarsen_once(&g, 7)));
    for k in [5usize, 20] {
        group.bench_function(format!("kway_1500v/{k}"), |b| {
            b.iter(|| partition_kway(&g, &PartitionConfig::new(k)))
        });
    }
    group.finish();
}

fn bench_minibatch_generation(bench: &mut Bench) {
    let pair = Preset::Ids15kEnFr.spec(0.1).generate();
    let seeds = pair.split_seeds(0.2, 1);
    let mut group = bench.group("table5_minibatch_generation");
    group.bench_function("metis_cps_k5", |b| {
        b.iter(|| metis_cps(&pair, &seeds, &CpsConfig::new(5)))
    });
    group.bench_function("vps_k5", |b| b.iter(|| vps(&pair, &seeds, 5, 1)));
    group.finish();
}

fn bench_cps_pivots(bench: &mut Bench) {
    // Ablation D2: the paper fixes q = 1; measure what larger q costs.
    let pair = Preset::Ids15kEnFr.spec(0.1).generate();
    let seeds = pair.split_seeds(0.2, 2);
    let mut group = bench.group("ablation_d2_cps_q");
    for q in [1usize, 3, 8] {
        group.bench_function(q, |b| {
            let mut cfg = CpsConfig::new(5);
            cfg.q = q;
            b.iter(|| metis_cps(&pair, &seeds, &cfg))
        });
    }
    group.finish();
}

fn bench_refinement(bench: &mut Bench) {
    // Ablation D1: what the k-way boundary refinement costs and saves.
    let pair = Preset::Ids15kEnFr.spec(0.1).generate();
    let g = PartGraph::from_kg(&pair.source);
    let mut group = bench.group("ablation_d1_refinement");
    for passes in [0usize, 4] {
        group.bench_function(format!("kway_k5_refine_passes/{passes}"), |b| {
            let mut cfg = PartitionConfig::new(5);
            cfg.refine_passes = passes;
            b.iter(|| partition_kway(&g, &cfg))
        });
    }
    group.finish();
}

fn bench_ladder(bench: &mut Bench) {
    const K: usize = 20;
    let pair = Preset::Dbp1mEnFr.spec(0.025).generate();
    let g = PartGraph::from_kg(&pair.source);
    let cfg = PartitionConfig::new(K);
    // what `partition_kway` coarsens to and seeds its initial partition with
    let levels = coarsen_to(&g, (K * cfg.coarsen_factor).max(64), cfg.seed);
    let coarsest = &levels.last().expect("45 000 vertices coarsen").graph;

    let mut group = bench.group("ladder_dbp1m");
    let kway = group
        .bench_measured(format!("partition_kway_{}v/{K}", g.nv()), |b| {
            b.iter(|| partition_kway(&g, &cfg))
        })
        .expect("measured");
    group.bench_function(format!("initial_partition_{}v/{K}", coarsest.nv()), |b| {
        b.iter(|| initial_partition(coarsest, K, cfg.seed.wrapping_add(97)))
    });
    group.finish();

    let edges_per_s = g.ne() as f64 / (kway.median_ns * 1e-9);
    let graph = format!(
        "dbp1m-en-fr@0.025 source: {} vertices, {} edges, K={K}; coarsest {} vertices, {} edges",
        g.nv(),
        g.ne(),
        coarsest.nv(),
        coarsest.ne()
    );
    println!("\npartition_kway on {graph}: {edges_per_s:.0} edges/s");
}

fn main() {
    let mut bench = Bench::new().sample_size(10);
    bench_partitioner(&mut bench);
    bench_minibatch_generation(&mut bench);
    bench_cps_pivots(&mut bench);
    bench_refinement(&mut bench);
    bench_ladder(&mut bench);
}
