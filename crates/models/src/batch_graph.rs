//! The per-mini-batch training context.
//!
//! Inside one mini-batch the model sees a single graph: the batch's source
//! subgraph and target subgraph placed side by side in one local id space
//! (`0..n_source` = source entities, `n_source..n_total` = target entities).
//! The two components share no edges — the alignment loss over the batch's
//! seed pairs is the only bridge, exactly as in GCN-Align/RREA training.

use largeea_kg::{EntityId, KgPair};
use largeea_partition::MiniBatch;
use largeea_tensor::{SpOp, SparseMatrix};
use std::collections::HashMap;
use std::rc::Rc;

/// The triple-level message structure returned by [`BatchGraph::messages`]:
/// `(agg, heads, rels, tails)`.
pub type Messages = (Rc<SpOp>, Vec<u32>, Vec<u32>, Vec<u32>);

/// A mini-batch lowered to dense local ids, ready for GNN training.
#[derive(Debug, Clone)]
pub struct BatchGraph {
    /// Number of source entities (locals `0..n_source`).
    pub n_source: usize,
    /// Number of target entities (locals `n_source..n_source + n_target`).
    pub n_target: usize,
    /// Global source id of each source local.
    pub source_ids: Vec<EntityId>,
    /// Global target id of each target local (offset by `n_source`).
    pub target_ids: Vec<EntityId>,
    /// Triples in local ids `(head, relation, tail)`; target-KG relation ids
    /// are offset by the source KG's relation count.
    pub triples: Vec<(u32, u32, u32)>,
    /// Size of the combined relation vocabulary.
    pub num_relations: usize,
    /// Training seeds as local `(source_local, target_local)` pairs
    /// (target locals already offset).
    pub train_pairs: Vec<(u32, u32)>,
}

impl BatchGraph {
    /// Lowers `batch` of `pair` into local ids.
    pub fn from_mini_batch(pair: &KgPair, batch: &MiniBatch) -> Self {
        let n_source = batch.source_entities.len();
        let n_target = batch.target_entities.len();
        let mut src_local: HashMap<EntityId, u32> = HashMap::with_capacity(n_source);
        for (i, &e) in batch.source_entities.iter().enumerate() {
            src_local.insert(e, i as u32);
        }
        let mut tgt_local: HashMap<EntityId, u32> = HashMap::with_capacity(n_target);
        for (i, &e) in batch.target_entities.iter().enumerate() {
            tgt_local.insert(e, (n_source + i) as u32);
        }

        let src_rels = pair.source.num_relations();
        let mut triples = Vec::new();
        for t in pair.source.triples() {
            if let (Some(&h), Some(&tl)) = (src_local.get(&t.head), src_local.get(&t.tail)) {
                triples.push((h, t.relation.0, tl));
            }
        }
        for t in pair.target.triples() {
            if let (Some(&h), Some(&tl)) = (tgt_local.get(&t.head), tgt_local.get(&t.tail)) {
                triples.push((h, src_rels as u32 + t.relation.0, tl));
            }
        }

        let train_pairs = batch
            .train_pairs
            .iter()
            .map(|&(s, t)| (src_local[&s], tgt_local[&t]))
            .collect();

        Self {
            n_source,
            n_target,
            source_ids: batch.source_entities.clone(),
            target_ids: batch.target_entities.clone(),
            triples,
            num_relations: src_rels + pair.target.num_relations(),
            train_pairs,
        }
    }

    /// Total number of local entities.
    pub fn n_total(&self) -> usize {
        self.n_source + self.n_target
    }

    /// Symmetrically normalised adjacency `D^{-1/2}(A+I)D^{-1/2}` over the
    /// combined graph, wrapped for autograd `spmm`.
    pub fn adjacency(&self) -> Rc<SpOp> {
        let n = self.n_total();
        let coo: Vec<(u32, u32, f32)> = self
            .triples
            .iter()
            .flat_map(|&(h, _, t)| [(h, t, 1.0), (t, h, 1.0)])
            .collect();
        let a = SparseMatrix::from_coo(n, n, coo);
        SpOp::symmetric(a.gcn_normalized())
    }

    /// The triple-level message structure for relational models (RREA):
    /// `(agg, heads, rels, tails)` where the directed message list contains
    /// every triple in both directions (reverse messages use relation id
    /// `num_relations + r`), `tails[m]`/`rels[m]` index message `m`'s source
    /// entity and relation, and `agg` is the `n × messages` mean-aggregation
    /// matrix onto each head.
    pub fn messages(&self) -> Messages {
        let n = self.n_total();
        let m = self.triples.len() * 2;
        let mut heads = Vec::with_capacity(m);
        let mut rels = Vec::with_capacity(m);
        let mut tails = Vec::with_capacity(m);
        for &(h, r, t) in &self.triples {
            heads.push(h);
            rels.push(r);
            tails.push(t);
            // reverse message with the inverse relation embedding
            heads.push(t);
            rels.push(self.num_relations as u32 + r);
            tails.push(h);
        }
        let mut indeg = vec![0u32; n];
        for &h in &heads {
            indeg[h as usize] += 1;
        }
        let coo: Vec<(u32, u32, f32)> = heads
            .iter()
            .enumerate()
            .map(|(msg, &h)| (h, msg as u32, 1.0 / indeg[h as usize] as f32))
            .collect();
        let agg = SparseMatrix::from_coo(n, m, coo);
        (SpOp::new(agg), heads, rels, tails)
    }

    /// Local target indices (`n_source..n_total`) as a gather list. The
    /// library reads the sides in place (`row_range`); this and
    /// [`BatchGraph::source_locals`] stay because the benchmark harness's
    /// probes bind them.
    pub fn target_locals(&self) -> Vec<u32> {
        (self.n_source as u32..self.n_total() as u32).collect()
    }

    /// Local source indices (`0..n_source`) as a gather list (see
    /// [`BatchGraph::target_locals`]).
    pub fn source_locals(&self) -> Vec<u32> {
        (0..self.n_source as u32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_kg::{AlignmentSeeds, KnowledgeGraph};
    use largeea_partition::MiniBatches;

    fn setup() -> (KgPair, MiniBatch) {
        let mut s = KnowledgeGraph::new("EN");
        s.add_triple_by_name("a", "r1", "b");
        s.add_triple_by_name("b", "r2", "c");
        let mut t = KnowledgeGraph::new("FR");
        t.add_triple_by_name("x", "q1", "y");
        let alignment = vec![
            (s.entity_id("a").unwrap(), t.entity_id("x").unwrap()),
            (s.entity_id("b").unwrap(), t.entity_id("y").unwrap()),
        ];
        let pair = KgPair::new(s, t, alignment.clone());
        let seeds = AlignmentSeeds {
            train: alignment,
            test: vec![],
        };
        let mb = MiniBatches::from_assignments(&pair, &seeds, &[0, 0, 0], &[0, 0], 1);
        (pair, mb.batches[0].clone())
    }

    #[test]
    fn lowering_offsets_targets_and_relations() {
        let (pair, batch) = setup();
        let bg = BatchGraph::from_mini_batch(&pair, &batch);
        assert_eq!(bg.n_source, 3);
        assert_eq!(bg.n_target, 2);
        assert_eq!(bg.n_total(), 5);
        assert_eq!(bg.num_relations, 3); // r1, r2 + q1
                                         // target triple uses offset relation id 2 and locals 3,4
        assert!(bg.triples.contains(&(3, 2, 4)));
        assert_eq!(bg.train_pairs, vec![(0, 3), (1, 4)]);
    }

    #[test]
    fn adjacency_is_square_and_normalised() {
        let (pair, batch) = setup();
        let bg = BatchGraph::from_mini_batch(&pair, &batch);
        let sp = bg.adjacency();
        assert_eq!(sp.mat.rows(), 5);
        assert_eq!(sp.mat.cols(), 5);
        // self-loops present for every vertex
        for v in 0..5 {
            assert!(sp.mat.row(v).any(|(c, _)| c as usize == v));
        }
    }

    #[test]
    fn messages_cover_both_directions() {
        let (pair, batch) = setup();
        let bg = BatchGraph::from_mini_batch(&pair, &batch);
        let (agg, heads, rels, tails) = bg.messages();
        assert_eq!(heads.len(), bg.triples.len() * 2);
        assert_eq!(agg.mat.rows(), 5);
        assert_eq!(agg.mat.cols(), heads.len());
        // reverse messages use offset relation ids
        assert!(rels.iter().any(|&r| r >= bg.num_relations as u32));
        assert_eq!(tails.len(), heads.len());
        // mean aggregation: each non-isolated head's row sums to 1
        for v in 0..5usize {
            let s: f32 = agg.mat.row(v).map(|(_, w)| w).sum();
            if s > 0.0 {
                assert!((s - 1.0).abs() < 1e-5, "row {v} sums to {s}");
            }
        }
    }

    #[test]
    fn locals_are_contiguous() {
        let (pair, batch) = setup();
        let bg = BatchGraph::from_mini_batch(&pair, &batch);
        assert_eq!(bg.source_locals(), vec![0, 1, 2]);
        assert_eq!(bg.target_locals(), vec![3, 4]);
    }
}
