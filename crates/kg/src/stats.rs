//! Size and degree statistics, as reported in the paper's Table 1.

use crate::graph::KnowledgeGraph;

/// Summary statistics of one knowledge graph.
#[derive(Debug, Clone, PartialEq)]
pub struct KgStats {
    /// `|E|`.
    pub entities: usize,
    /// `|R|`.
    pub relations: usize,
    /// `|T|`.
    pub triples: usize,
    /// Mean undirected degree.
    pub mean_degree: f64,
    /// Maximum undirected degree.
    pub max_degree: usize,
    /// Number of entities with no incident triple.
    pub isolated: usize,
}

impl KgStats {
    /// Computes statistics for `kg`.
    pub fn of(kg: &KnowledgeGraph) -> Self {
        let adj = kg.adjacency();
        let mut max_degree = 0;
        let mut isolated = 0;
        for e in kg.entity_ids() {
            let d = adj.degree(e);
            max_degree = max_degree.max(d);
            if d == 0 {
                isolated += 1;
            }
        }
        Self {
            entities: kg.num_entities(),
            relations: kg.num_relations(),
            triples: kg.num_triples(),
            mean_degree: adj.mean_degree(),
            max_degree,
            isolated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_small_graph() {
        let mut kg = KnowledgeGraph::new("EN");
        kg.add_triple_by_name("a", "r", "b");
        kg.add_triple_by_name("a", "r", "c");
        kg.add_entity("iso");
        let s = KgStats::of(&kg);
        assert_eq!(s.entities, 4);
        assert_eq!(s.relations, 1);
        assert_eq!(s.triples, 2);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.isolated, 1);
        assert!((s.mean_degree - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_graph() {
        let kg = KnowledgeGraph::new("EN");
        let s = KgStats::of(&kg);
        assert_eq!(s.entities, 0);
        assert_eq!(s.max_degree, 0);
    }
}
