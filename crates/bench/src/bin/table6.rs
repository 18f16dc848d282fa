//! Table 6: peak memory usage of the name channel vs the structure channel
//! (LargeEA-R / LargeEA-G), with METIS-CPS partitioning and without
//! partitioning.
//!
//! The reproduced claims: (i) partitioning cuts the structure channel's
//! peak memory by a large factor; (ii) on the large datasets the structure
//! channel dominates the name channel; (iii) without partitioning the
//! DBP1M-scale structure channel does not fit — reported as `-`, as in the
//! paper (we additionally skip running it at harness scale to mirror the
//! full-scale OOM).
//!
//! Every column is a channel's measured heap peak: the `alloc.peak` of its
//! `name_channel` / `structure_channel` span under the counting allocator
//! (the structure channel's covers every batch's tape, parameters, Adam
//! moments, embeddings and similarity block).
//!
//! Flags: `--scale <f>`, `--epochs <n>` (memory is epoch-independent; a few
//! epochs suffice).

use largeea_bench::{channel_peak_bytes, make_dataset};
use largeea_common::fmt_bytes;
use largeea_common::json::{Json, ToJson};
use largeea_common::obs::Recorder;
use largeea_core::pipeline::RunCtx;
use largeea_core::structure_channel::{Partitioner, StructureChannel, StructureChannelConfig};
use largeea_core::{NameChannel, NameChannelConfig};
use largeea_data::Preset;
use largeea_kg::AlignmentSeeds;
use largeea_models::{ModelKind, TrainConfig};

struct MemRow {
    dataset: String,
    direction: String,
    name_channel: usize,
    rrea_partitioned: usize,
    rrea_unpartitioned: Option<usize>,
    gcn_partitioned: usize,
    gcn_unpartitioned: Option<usize>,
}

impl ToJson for MemRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dataset", self.dataset.to_json()),
            ("direction", self.direction.to_json()),
            ("name_channel", self.name_channel.to_json()),
            ("rrea_partitioned", self.rrea_partitioned.to_json()),
            ("rrea_unpartitioned", self.rrea_unpartitioned.to_json()),
            ("gcn_partitioned", self.gcn_partitioned.to_json()),
            ("gcn_unpartitioned", self.gcn_unpartitioned.to_json()),
        ])
    }
}

fn structure_peak(
    pair: &largeea_kg::KgPair,
    seeds: &AlignmentSeeds,
    model: ModelKind,
    partitioner: Partitioner,
    k: usize,
) -> usize {
    let cfg = StructureChannelConfig {
        k,
        partitioner,
        model,
        train: TrainConfig {
            epochs: largeea_bench::arg_usize("epochs", 3),
            ..TrainConfig::default()
        },
        top_k: 50,
        ..StructureChannelConfig::default()
    };
    let rec = Recorder::from_env();
    StructureChannel::new(cfg)
        .run_in(pair, seeds, &mut RunCtx::in_memory(&rec))
        .expect("memory backing, no budget, no checkpoint: no RunError has a source");
    channel_peak_bytes(&rec.trace())
}

fn main() {
    println!(
        "{:<18} {:<8} {:>12} {:>14} {:>14} {:>14} {:>14}",
        "Dataset", "Dir", "NameChannel", "R (CPS)", "R (w/o p.)", "G (CPS)", "G (w/o p.)"
    );
    let mut json_rows = Vec::new();
    for preset in Preset::all() {
        let (_, pair, seeds) = make_dataset(preset, None);
        let reversed = pair.reversed();
        let seeds_rev = AlignmentSeeds {
            train: seeds.train.iter().map(|&(s, t)| (t, s)).collect(),
            test: seeds.test.iter().map(|&(s, t)| (t, s)).collect(),
        };
        let k = preset.default_k();
        for (p, s) in [(&pair, &seeds), (&reversed, &seeds_rev)] {
            let dir = format!("{}→{}", p.source.name(), p.target.name());
            let rec = Recorder::from_env();
            NameChannel::new(NameChannelConfig::default())
                .run_in(&p.source, &p.target, &mut RunCtx::in_memory(&rec))
                .expect("memory backing, no budget, no checkpoint: no RunError has a source");
            let name_peak = channel_peak_bytes(&rec.trace());
            let r_cps = structure_peak(p, s, ModelKind::Rrea, Partitioner::MetisCps, k);
            let g_cps = structure_peak(p, s, ModelKind::GcnAlign, Partitioner::MetisCps, k);
            // The paper's unpartitioned RREA OOMs beyond IDS15K and
            // unpartitioned training is impossible on DBP1M entirely.
            let (r_raw, g_raw) = if preset.is_large() {
                (None, None)
            } else {
                (
                    Some(structure_peak(p, s, ModelKind::Rrea, Partitioner::None, 1)),
                    Some(structure_peak(
                        p,
                        s,
                        ModelKind::GcnAlign,
                        Partitioner::None,
                        1,
                    )),
                )
            };
            let fmt_opt = |v: Option<usize>| v.map_or("-".to_owned(), fmt_bytes);
            println!(
                "{:<18} {:<8} {:>12} {:>14} {:>14} {:>14} {:>14}",
                preset.name(),
                dir,
                fmt_bytes(name_peak),
                fmt_bytes(r_cps),
                fmt_opt(r_raw),
                fmt_bytes(g_cps),
                fmt_opt(g_raw),
            );
            json_rows.push(MemRow {
                dataset: preset.name().to_owned(),
                direction: dir,
                name_channel: name_peak,
                rrea_partitioned: r_cps,
                rrea_unpartitioned: r_raw,
                gcn_partitioned: g_cps,
                gcn_unpartitioned: g_raw,
            });
        }
    }
    println!("--- json ---");
    for row in &json_rows {
        println!("{}", row.to_json_string());
    }
}
