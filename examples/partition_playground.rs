//! Mini-batch generation under the microscope: compare METIS-CPS, VPS and
//! raw multilevel partitioning on one dataset.
//!
//! ```sh
//! cargo run --release --example partition_playground
//! ```
//!
//! Prints, for each strategy and several K: seed retention (the Table 5
//! metric), edge-cut rate `R_ec` (the Figure 7 metric), balance, and
//! generation time — the quantities that explain *why* METIS-CPS is the
//! right mini-batch generator for EA.

use largeea::common::obs::Recorder;
use largeea::data::Preset;
use largeea::partition::{
    edge_cut, metis_cps, partition_kway, vps, CpsConfig, PartGraph, PartitionConfig,
};
use std::time::Instant;

fn main() {
    let pair = Preset::Ids100kEnFr.spec(0.02).generate();
    let seeds = pair.split_seeds(0.2, 9);
    println!(
        "IDS100K-shaped pair at 2% scale: |E|={}+{}, |T|={}+{}, {} train seeds\n",
        pair.source.num_entities(),
        pair.target.num_entities(),
        pair.source.num_triples(),
        pair.target.num_triples(),
        seeds.train.len()
    );

    // Raw partitioner quality on the source KG alone.
    let g = PartGraph::from_kg(&pair.source);
    println!("raw multilevel k-way partitioner on the source KG:");
    for k in [2, 5, 10] {
        let t = Instant::now();
        let p = partition_kway(&g, &PartitionConfig::new(k));
        println!(
            "  K={k:<3} cut={:<8.0} balance={:.3}  ({:.0} ms)",
            edge_cut(&g, &p.assignment),
            p.balance(&g),
            t.elapsed().as_secs_f64() * 1e3
        );
    }

    println!("\nmini-batch generation (retention% total/train/test, R_ec):");
    for k in [5usize, 10, 20] {
        let t = Instant::now();
        let cps = metis_cps(&pair, &seeds, &CpsConfig::new(k));
        let cps_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let v = vps(&pair, &seeds, k, 11, &Recorder::disabled());
        let vps_ms = t.elapsed().as_secs_f64() * 1e3;

        let rc = cps.retention(&seeds);
        let rv = v.retention(&seeds);
        println!(
            "  K={k:<3} METIS-CPS  {:5.1}/{:5.1}/{:5.1}  R_ec={:.3}  ({cps_ms:.0} ms)",
            100.0 * rc.total,
            100.0 * rc.train,
            100.0 * rc.test,
            cps.edge_cut_rate(&pair),
        );
        println!(
            "        VPS        {:5.1}/{:5.1}/{:5.1}  R_ec={:.3}  ({vps_ms:.0} ms)",
            100.0 * rv.total,
            100.0 * rv.train,
            100.0 * rv.test,
            v.edge_cut_rate(&pair),
        );
        assert!(
            rc.test >= rv.test,
            "METIS-CPS should keep more test pairs together"
        );
    }
}
