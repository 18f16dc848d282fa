//! The [`KnowledgeGraph`] container.

use crate::adjacency::Adjacency;
use crate::error::KgError;
use crate::ids::{EntityId, RelationId};
use crate::interner::Interner;
use crate::triple::Triple;
use largeea_common::names::{NameSlice, Names};

/// A knowledge graph `G = (E, R, T)`: entities, relations and triples.
///
/// Entities carry two strings: a unique *key* (think URI) used for identity
/// and IO, and a human-readable *label* used by the name channel. When no
/// label is provided the key doubles as the label, mirroring how DBpedia
/// URIs embed the entity name. Keys live in one [`Names`] arena (the
/// entity interner's), labels in a second one — which exists only once
/// some label differs from its key, so a KG whose labels are its keys
/// stores each name once.
///
/// Construction is append-only; ids are dense and stable, so every
/// per-entity array downstream (embeddings, partitions, similarity rows) is
/// indexed by [`EntityId::idx`].
#[derive(Debug, Clone, Default)]
pub struct KnowledgeGraph {
    name: String,
    entities: Interner,
    /// `labels[id]` is entity `id`'s label; `None` while every label is
    /// its key.
    labels: Option<Names>,
    relations: Interner,
    triples: Vec<Triple>,
}

impl KnowledgeGraph {
    /// Creates an empty KG tagged with `name` (e.g. `"EN"`, `"FR"`).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Creates an empty KG with capacity hints.
    pub fn with_capacity(name: impl Into<String>, entities: usize, triples: usize) -> Self {
        Self {
            name: name.into(),
            entities: Interner::with_capacity(entities),
            labels: None,
            relations: Interner::new(),
            triples: Vec::with_capacity(triples),
        }
    }

    /// Assembles a KG the loader built piecewise; `labels[id]` belongs to
    /// entity `id`, and `None` means every label is its key.
    pub(crate) fn from_parts(
        name: &str,
        entities: Interner,
        labels: Option<Names>,
        relations: Interner,
        triples: Vec<Triple>,
    ) -> Self {
        let n = labels.as_ref().map_or(entities.len(), Names::len);
        assert_eq!(n, entities.len(), "one label per entity");
        Self {
            name: name.to_owned(),
            entities,
            labels,
            relations,
            triples,
        }
    }

    /// The KG's tag (language code in the cross-lingual benchmarks).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Interns an entity by key, using the key itself as the label.
    pub fn add_entity(&mut self, key: &str) -> EntityId {
        self.add_entity_with_label(key, key)
    }

    /// Interns an entity by key with an explicit human-readable label.
    ///
    /// If the key already exists its id is returned and the stored label is
    /// left unchanged (first label wins).
    pub fn add_entity_with_label(&mut self, key: &str, label: &str) -> EntityId {
        let before = self.entities.len();
        let id = self.entities.intern(key);
        if self.entities.len() > before && (self.labels.is_some() || label != key) {
            // the first label that is not its key: the keys so far become
            // the labels so far
            let keys = self.entities.names().as_slice().rows(0..before);
            let labels = self.labels.get_or_insert_with(|| keys.to_names());
            labels.push(label).expect("labels fit in 4 GiB");
        }
        EntityId(id)
    }

    /// Interns a relation by name.
    pub fn add_relation(&mut self, name: &str) -> RelationId {
        RelationId(self.relations.intern(name))
    }

    /// Appends a triple, validating that its ids exist.
    pub fn add_triple(&mut self, t: Triple) -> Result<(), KgError> {
        if t.head.idx() >= self.entities.len() {
            return Err(KgError::UnknownEntity(t.head.0));
        }
        if t.tail.idx() >= self.entities.len() {
            return Err(KgError::UnknownEntity(t.tail.0));
        }
        if t.relation.idx() >= self.relations.len() {
            return Err(KgError::UnknownRelation(t.relation.0));
        }
        self.triples.push(t);
        Ok(())
    }

    /// Interns all three components of a `(head, relation, tail)` string
    /// triple and appends it. Convenience for builders and IO.
    pub fn add_triple_by_name(&mut self, head: &str, relation: &str, tail: &str) -> Triple {
        let h = self.add_entity(head);
        let r = self.add_relation(relation);
        let t = self.add_entity(tail);
        let triple = Triple {
            head: h,
            relation: r,
            tail: t,
        };
        self.triples.push(triple);
        triple
    }

    /// Number of entities `|E|`.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Number of relations `|R|`.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Number of triples `|T|`.
    pub fn num_triples(&self) -> usize {
        self.triples.len()
    }

    /// The triple store, in insertion order.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// Looks up an entity id by key.
    pub fn entity_id(&self, key: &str) -> Option<EntityId> {
        self.entities.get(key).map(EntityId)
    }

    /// Resolves an entity id back to its key.
    pub fn entity_key(&self, id: EntityId) -> &str {
        self.entities.resolve(id.0)
    }

    /// The human-readable label of an entity (used by the name channel).
    pub fn entity_label(&self, id: EntityId) -> &str {
        self.labels().get(id.idx())
    }

    /// All entity labels, indexed by entity id.
    pub fn labels(&self) -> NameSlice<'_> {
        self.labels
            .as_ref()
            .unwrap_or(self.entities.names())
            .as_slice()
    }

    /// Looks up a relation id by name.
    pub fn relation_id(&self, name: &str) -> Option<RelationId> {
        self.relations.get(name).map(RelationId)
    }

    /// Resolves a relation id back to its name.
    pub fn relation_name(&self, id: RelationId) -> &str {
        self.relations.resolve(id.0)
    }

    /// Iterates entity ids `0..|E|`.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> {
        (0..self.entities.len() as u32).map(EntityId)
    }

    /// Builds the undirected CSR adjacency over entities.
    pub fn adjacency(&self) -> Adjacency {
        Adjacency::undirected(self.num_entities(), &self.triples)
    }

    /// Extracts the subgraph induced by `members` (old entity ids).
    ///
    /// Returns the new KG (entities renumbered densely, in the order given
    /// by `members`) plus the old id of each new entity. Triples with either
    /// endpoint outside `members` are dropped; relation ids are re-interned
    /// so only relations that survive appear.
    pub fn induced_subgraph(&self, members: &[EntityId]) -> (KnowledgeGraph, Vec<EntityId>) {
        let mut old_to_new = vec![u32::MAX; self.num_entities()];
        let mut sub = KnowledgeGraph::with_capacity(self.name.clone(), members.len(), 0);
        for &old in members {
            let new = sub.add_entity_with_label(self.entity_key(old), self.entity_label(old));
            old_to_new[old.idx()] = new.0;
        }
        for t in &self.triples {
            let h = old_to_new[t.head.idx()];
            let tl = old_to_new[t.tail.idx()];
            if h != u32::MAX && tl != u32::MAX {
                let r = sub.add_relation(self.relation_name(t.relation));
                sub.triples.push(Triple {
                    head: EntityId(h),
                    relation: r,
                    tail: EntityId(tl),
                });
            }
        }
        (sub, members.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new("EN");
        kg.add_triple_by_name("a", "r1", "b");
        kg.add_triple_by_name("b", "r1", "c");
        kg.add_triple_by_name("c", "r2", "a");
        kg
    }

    #[test]
    fn build_and_counts() {
        let kg = toy();
        assert_eq!(kg.num_entities(), 3);
        assert_eq!(kg.num_relations(), 2);
        assert_eq!(kg.num_triples(), 3);
        assert_eq!(kg.name(), "EN");
    }

    #[test]
    fn entity_key_and_label_default_to_same() {
        let kg = toy();
        let a = kg.entity_id("a").unwrap();
        assert_eq!(kg.entity_key(a), "a");
        assert_eq!(kg.entity_label(a), "a");
    }

    #[test]
    fn explicit_label_first_wins() {
        let mut kg = KnowledgeGraph::new("EN");
        let id = kg.add_entity_with_label("http://x/Paris", "Paris");
        let id2 = kg.add_entity_with_label("http://x/Paris", "NotParis");
        assert_eq!(id, id2);
        assert_eq!(kg.entity_label(id), "Paris");
    }

    #[test]
    fn labels_fall_back_to_keys_until_one_differs() {
        let mut kg = KnowledgeGraph::new("EN");
        kg.add_entity("a");
        kg.add_entity_with_label("b", "b");
        assert!(kg.labels.is_none(), "labels that are keys are not stored");
        kg.add_entity_with_label("c", "Cee");
        kg.add_entity("d");
        kg.add_entity_with_label("a", "not a");
        let labels = kg.labels();
        assert_eq!(labels.iter().collect::<Vec<_>>(), ["a", "b", "Cee", "d"]);
        assert_eq!(labels.rows(1..3).iter().collect::<Vec<_>>(), ["b", "Cee"]);
        assert_eq!(labels.rows(2..4).get(1), "d");
        assert_eq!(labels.rows(2..4).text_len(), 4);
        assert!(labels.rows(4..4).is_empty());
        assert_eq!(kg.entity_key(EntityId(2)), "c");
    }

    #[test]
    fn add_triple_validates_ids() {
        let mut kg = KnowledgeGraph::new("EN");
        kg.add_entity("a");
        let err = kg.add_triple(Triple::new(0, 0, 1)).unwrap_err();
        assert!(matches!(err, KgError::UnknownEntity(1)));
        kg.add_entity("b");
        let err = kg.add_triple(Triple::new(0, 0, 1)).unwrap_err();
        assert!(matches!(err, KgError::UnknownRelation(0)));
        kg.add_relation("r");
        assert!(kg.add_triple(Triple::new(0, 0, 1)).is_ok());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let kg = toy();
        let a = kg.entity_id("a").unwrap();
        let b = kg.entity_id("b").unwrap();
        let (sub, old_ids) = kg.induced_subgraph(&[a, b]);
        assert_eq!(sub.num_entities(), 2);
        // only a->b survives; b->c and c->a are cut
        assert_eq!(sub.num_triples(), 1);
        assert_eq!(old_ids, vec![a, b]);
        assert_eq!(sub.entity_key(EntityId(0)), "a");
        assert_eq!(sub.num_relations(), 1);
    }

    #[test]
    fn induced_subgraph_of_empty_member_set() {
        let kg = toy();
        let (sub, old_ids) = kg.induced_subgraph(&[]);
        assert_eq!(sub.num_entities(), 0);
        assert_eq!(sub.num_triples(), 0);
        assert!(old_ids.is_empty());
    }

    #[test]
    fn entity_ids_are_dense() {
        let kg = toy();
        let ids: Vec<_> = kg.entity_ids().collect();
        assert_eq!(ids, vec![EntityId(0), EntityId(1), EntityId(2)]);
    }
}
