//! The assembled graph and its parts: per-vertex data, per-partition
//! [`SubGraph`]s and the merged [`DeBruijnGraph`].
//!
//! # Shards
//!
//! MSP partitions are disjoint by k-mer: every occurrence of a vertex
//! shares its canonical minimizer and therefore its partition. A graph
//! built with [`DeBruijnGraph::partitioned`] keeps one hash map (a
//! *shard*) per MSP partition and puts each vertex in the shard of the
//! partition Step 1 routed it to:
//! `PartitionRouter::route_minimizer(&minimizer_of_kmer(kmer, p))`,
//! computed by [`msp::PartitionRouter::route_kmer`]. A partition's
//! subgraph then lands in one small map, reserved once to its exact size,
//! instead of growing one map over the whole vertex set through a chain
//! of doubling rehashes. [`DeBruijnGraph::new`] keeps a single shard.
//!
//! The shard is a storage detail, never trusted from a caller: every
//! insert and lookup routes its own vertex, so a subgraph holding
//! vertices of several partitions (or a foreign one) still lands where
//! lookups will find it. Equality compares content, so a partitioned
//! graph equals the single-shard graph of the same vertices.

use std::collections::HashMap;

use dna::{Base, Kmer, Orientation};
use msp::PartitionRouter;

/// Which side of a canonical vertex an edge leaves from.
///
/// A vertex of the bi-directed De Bruijn graph stores eight edge
/// multiplicities: for each base `x`, how often the canonical k-mer was
/// observed extended on the right by `x` ([`EdgeDir::Out`]) and how often
/// it was preceded on the left by `x` ([`EdgeDir::In`]). This is the
/// paper's `<vertex, list of edges>` entry with the adjacent vertex
/// represented by its one non-overlapping character.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeDir {
    /// Right extension of the canonical k-mer.
    Out,
    /// Left extension of the canonical k-mer.
    In,
}

impl EdgeDir {
    /// The slot index (0–7) of `(self, base)` in a [`VertexData::edges`]
    /// array.
    #[inline]
    pub fn slot(self, base: Base) -> usize {
        match self {
            EdgeDir::Out => base.code() as usize,
            EdgeDir::In => 4 + base.code() as usize,
        }
    }
}

/// Per-vertex payload: occurrence count plus the eight edge multiplicities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VertexData {
    /// How many k-mer occurrences merged into this vertex (its
    /// *duplicity*; used post-construction to filter sequencing errors).
    pub count: u32,
    /// Edge multiplicities, indexed by [`EdgeDir::slot`].
    pub edges: [u32; 8],
}

impl VertexData {
    /// Multiplicity of the edge `(dir, base)`.
    pub fn edge(&self, dir: EdgeDir, base: Base) -> u32 {
        self.edges[dir.slot(base)]
    }

    /// Number of distinct outgoing (right) neighbours.
    pub fn out_degree(&self) -> usize {
        self.edges[..4].iter().filter(|&&c| c > 0).count()
    }

    /// Number of distinct incoming (left) neighbours.
    pub fn in_degree(&self) -> usize {
        self.edges[4..].iter().filter(|&&c| c > 0).count()
    }

    /// Sum of all eight edge multiplicities.
    pub fn total_edge_multiplicity(&self) -> u64 {
        self.edges.iter().map(|&c| c as u64).sum()
    }

    /// Adds another vertex record (same vertex seen in another subgraph or
    /// by another builder).
    pub fn merge(&mut self, other: &VertexData) {
        self.count += other.count;
        for (a, b) in self.edges.iter_mut().zip(other.edges.iter()) {
            *a += b;
        }
    }
}

/// One partition's constructed subgraph: the contents of a hash table
/// after Step 2, in no particular order.
///
/// All subgraphs of a run together constitute the entire De Bruijn graph
/// (the MSP cut keeps duplicate vertices within one partition, so keys are
/// disjoint across subgraphs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubGraph {
    k: usize,
    entries: Vec<(Kmer, VertexData)>,
}

impl SubGraph {
    /// Wraps a list of `(canonical k-mer, data)` entries.
    pub fn new(k: usize, entries: Vec<(Kmer, VertexData)>) -> SubGraph {
        SubGraph { k, entries }
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of distinct vertices in this subgraph.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the subgraph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, unordered.
    pub fn entries(&self) -> &[(Kmer, VertexData)] {
        &self.entries
    }

    /// Consumes the subgraph, returning its entries.
    pub fn into_entries(self) -> Vec<(Kmer, VertexData)> {
        self.entries
    }
}

/// The full De Bruijn graph: canonical k-mer → vertex data, assembled by
/// absorbing per-partition [`SubGraph`]s, stored in one hash map per
/// shard (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use hashgraph::{build_subgraph_serial, DeBruijnGraph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let reads = vec![PackedSeq::from_ascii(b"ACGTACGTAC")];
/// let parts = msp::partition_in_memory(&reads, 4, 2, 2)?;
/// let mut g = DeBruijnGraph::new(4);
/// let mut sharded = DeBruijnGraph::partitioned(4, 2, 2);
/// for p in &parts {
///     g.absorb(build_subgraph_serial(p, 4)?);
///     sharded.absorb(build_subgraph_serial(p, 4)?);
/// }
/// // 7 k-mer occurrences; ACGT-periodic so few distinct vertices.
/// assert_eq!(g.total_kmer_occurrences(), 7);
/// assert!(g.distinct_vertices() < 7);
/// assert_eq!(sharded, g);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DeBruijnGraph {
    k: usize,
    /// Minimizer length of the shard route (unused with one shard).
    p: usize,
    /// Vertex → shard, over `shards.len()` shards.
    router: PartitionRouter,
    shards: Vec<HashMap<Kmer, VertexData>>,
}

impl DeBruijnGraph {
    /// An empty graph for k-mers of length `k`, stored in one shard.
    pub fn new(k: usize) -> DeBruijnGraph {
        DeBruijnGraph::partitioned(k, 1, 1)
    }

    /// An empty graph for k-mers of length `k` with one shard per MSP
    /// partition: a vertex lives in the shard of the partition that
    /// `p`-length minimizers over `partitions` partitions route it to.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is 0 or `p` is not in `1..=k`.
    pub fn partitioned(k: usize, p: usize, partitions: usize) -> DeBruijnGraph {
        assert!((1..=k).contains(&p), "invalid minimizer length {p} for k={k}");
        let router = PartitionRouter::new(partitions).expect("at least one shard");
        DeBruijnGraph { k, p, router, shards: vec![HashMap::new(); partitions] }
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The shard holding `kmer`.
    #[inline]
    fn shard_of(&self, kmer: &Kmer) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            self.router.route_kmer(kmer, self.p)
        }
    }

    /// Merges a subgraph into the graph. Vertices already present (only
    /// possible when two builders are combined on overlapping inputs) have
    /// their counts merged.
    ///
    /// Room for the whole subgraph is reserved in its first vertex's
    /// shard, the one a single partition's subgraph fills; every vertex
    /// is still routed on its own.
    ///
    /// # Panics
    ///
    /// Panics if the subgraph was built for a different `k`.
    pub fn absorb(&mut self, sub: SubGraph) {
        assert_eq!(sub.k(), self.k, "cannot absorb a k={} subgraph into a k={} graph", sub.k(), self.k);
        let entries = sub.into_entries();
        let Some((first, _)) = entries.first() else {
            return;
        };
        let home = self.shard_of(first);
        self.shards[home].reserve(entries.len());
        for (kmer, data) in entries {
            let shard = self.shard_of(&kmer);
            self.shards[shard].entry(kmer).or_default().merge(&data);
        }
    }

    /// Merges one vertex record.
    pub fn merge_vertex(&mut self, kmer: Kmer, data: VertexData) {
        debug_assert!(kmer.is_canonical(), "vertices must be canonical k-mers");
        let shard = self.shard_of(&kmer);
        self.shards[shard].entry(kmer).or_default().merge(&data);
    }

    /// The data for a canonical k-mer, if present.
    pub fn get(&self, kmer: &Kmer) -> Option<&VertexData> {
        if kmer.k() != self.k {
            return None;
        }
        self.shards[self.shard_of(kmer)].get(kmer)
    }

    /// Number of distinct vertices (the paper's graph-size metric).
    pub fn distinct_vertices(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }

    /// Total k-mer occurrences merged into the graph.
    pub fn total_kmer_occurrences(&self) -> u64 {
        self.iter().map(|(_, v)| v.count as u64).sum()
    }

    /// Occurrences that were duplicates of an already-present vertex
    /// (Table I's "# Duplicate vertices").
    pub fn duplicate_vertices(&self) -> u64 {
        self.total_kmer_occurrences() - self.distinct_vertices() as u64
    }

    /// Sum of all edge multiplicities over all vertices.
    pub fn total_edge_multiplicity(&self) -> u64 {
        self.iter().map(|(_, v)| v.total_edge_multiplicity()).sum()
    }

    /// Iterates over `(canonical k-mer, data)` in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Kmer, &VertexData)> {
        self.shards.iter().flat_map(HashMap::iter)
    }

    /// The canonical successors of `kmer` when read in orientation
    /// `orient`, with edge multiplicities: follows the recorded
    /// right-extensions of the oriented string.
    ///
    /// Successor vertices are returned in canonical form with the
    /// orientation the walk continues in.
    pub fn successors(&self, kmer: &Kmer, orient: Orientation) -> Vec<(Kmer, Orientation, u32)> {
        let Some(data) = self.get(kmer) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for base in Base::ALL {
            // Right-extension of the oriented string maps to Out for
            // forward reading, In (complemented) for reverse reading.
            let mult = match orient {
                Orientation::Forward => data.edge(EdgeDir::Out, base),
                Orientation::Reverse => data.edge(EdgeDir::In, base.complement()),
            };
            if mult == 0 {
                continue;
            }
            let oriented = match orient {
                Orientation::Forward => *kmer,
                Orientation::Reverse => kmer.revcomp(),
            };
            let next = oriented.push_right(base);
            let (canon, o) = next.canonical();
            out.push((canon, o, mult));
        }
        out
    }

    /// The canonical predecessors of `kmer` read in orientation `orient`.
    pub fn predecessors(&self, kmer: &Kmer, orient: Orientation) -> Vec<(Kmer, Orientation, u32)> {
        let Some(data) = self.get(kmer) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for base in Base::ALL {
            let mult = match orient {
                Orientation::Forward => data.edge(EdgeDir::In, base),
                Orientation::Reverse => data.edge(EdgeDir::Out, base.complement()),
            };
            if mult == 0 {
                continue;
            }
            let oriented = match orient {
                Orientation::Forward => *kmer,
                Orientation::Reverse => kmer.revcomp(),
            };
            let prev = oriented.push_left(base);
            let (canon, o) = prev.canonical();
            out.push((canon, o, mult));
        }
        out
    }

    /// Removes one vertex, returning whether it was present. Edges on
    /// other vertices that referenced it become dangling, exactly as with
    /// [`filter_min_count`](Self::filter_min_count); traversals ignore
    /// them.
    pub fn remove_vertex(&mut self, kmer: &Kmer) -> bool {
        if kmer.k() != self.k {
            return false;
        }
        let shard = self.shard_of(kmer);
        self.shards[shard].remove(kmer).is_some()
    }

    /// Removes vertices whose occurrence count is below `min_count` (the
    /// post-construction error filter the paper describes), returning how
    /// many were removed. Edges referencing removed vertices remain as
    /// dangling multiplicities on the survivors, as in the paper's output
    /// ("invalid vertices filtered").
    pub fn filter_min_count(&mut self, min_count: u32) -> usize {
        let before = self.distinct_vertices();
        for shard in &mut self.shards {
            shard.retain(|_, v| v.count >= min_count);
        }
        before - self.distinct_vertices()
    }

    /// Approximate in-memory footprint in bytes (used by the memory
    /// accounting in the Table III experiment).
    pub fn approx_bytes(&self) -> usize {
        self.distinct_vertices() * (std::mem::size_of::<Kmer>() + std::mem::size_of::<VertexData>())
    }
}

/// Content equality: the same `k` and the same vertex → data map,
/// whatever the shard layout of either side.
impl PartialEq for DeBruijnGraph {
    fn eq(&self, other: &DeBruijnGraph) -> bool {
        self.k == other.k
            && self.distinct_vertices() == other.distinct_vertices()
            && self.iter().all(|(kmer, data)| other.get(kmer) == Some(data))
    }
}

impl Eq for DeBruijnGraph {}

#[cfg(test)]
mod tests {
    use super::*;

    fn km(s: &str) -> Kmer {
        s.parse().unwrap()
    }

    #[test]
    fn edge_slot_layout() {
        assert_eq!(EdgeDir::Out.slot(Base::A), 0);
        assert_eq!(EdgeDir::Out.slot(Base::T), 3);
        assert_eq!(EdgeDir::In.slot(Base::A), 4);
        assert_eq!(EdgeDir::In.slot(Base::T), 7);
    }

    #[test]
    fn vertex_data_degrees_and_merge() {
        let mut v = VertexData { count: 3, ..Default::default() };
        v.edges[EdgeDir::Out.slot(Base::G)] = 2;
        v.edges[EdgeDir::In.slot(Base::A)] = 1;
        assert_eq!(v.out_degree(), 1);
        assert_eq!(v.in_degree(), 1);
        assert_eq!(v.total_edge_multiplicity(), 3);
        assert_eq!(v.edge(EdgeDir::Out, Base::G), 2);

        let mut w = VertexData { count: 1, ..Default::default() };
        w.edges[EdgeDir::Out.slot(Base::G)] = 5;
        v.merge(&w);
        assert_eq!(v.count, 4);
        assert_eq!(v.edge(EdgeDir::Out, Base::G), 7);
    }

    #[test]
    fn absorb_merges_disjoint_and_overlapping() {
        let mut g = DeBruijnGraph::new(3);
        let a = km("AAC").canonical().0;
        let b = km("ACC").canonical().0;
        assert_ne!(a, b, "test requires two distinct canonical vertices");
        let data = VertexData { count: 2, edges: [0; 8] };
        g.absorb(SubGraph::new(3, vec![(a, data), (b, data)]));
        assert_eq!(g.distinct_vertices(), 2);
        g.absorb(SubGraph::new(3, vec![(a, data)]));
        assert_eq!(g.distinct_vertices(), 2);
        assert_eq!(g.get(&a).unwrap().count, 4);
        assert_eq!(g.total_kmer_occurrences(), 6);
        assert_eq!(g.duplicate_vertices(), 4);
    }

    #[test]
    #[should_panic(expected = "cannot absorb")]
    fn absorb_rejects_mismatched_k() {
        DeBruijnGraph::new(3).absorb(SubGraph::new(4, Vec::new()));
    }

    #[test]
    fn successors_follow_out_edges() {
        // Record the edge TGATG → GATGG (paper's Fig 1): canonical form of
        // TGATG is CATCA (orientation Reverse), so the right-extension by G
        // lands in slot In(complement(G)) = In(C).
        let mut g = DeBruijnGraph::new(5);
        let (canon, orient) = km("TGATG").canonical();
        assert_eq!(orient, Orientation::Reverse);
        let mut data = VertexData { count: 2, edges: [0; 8] };
        data.edges[EdgeDir::In.slot(Base::G.complement())] = 2;
        g.merge_vertex(canon, data);

        // Walking TGATG forward (i.e. the canonical CATCA in Reverse).
        let succ = g.successors(&canon, Orientation::Reverse);
        assert_eq!(succ.len(), 1);
        let (next, _, mult) = succ[0];
        assert_eq!(next, km("GATGG").canonical().0);
        assert_eq!(mult, 2);
    }

    #[test]
    fn predecessors_mirror_successors() {
        // Edge ACGTA → CGTAT recorded on both endpoints.
        let u = km("ACGTA");
        let v = km("CGTAT");
        let (cu, ou) = u.canonical();
        let (cv, ov) = v.canonical();
        let mut g = DeBruijnGraph::new(5);

        let mut du = VertexData { count: 1, edges: [0; 8] };
        let slot_u = match ou {
            Orientation::Forward => EdgeDir::Out.slot(Base::T),
            Orientation::Reverse => EdgeDir::In.slot(Base::T.complement()),
        };
        du.edges[slot_u] = 1;
        g.merge_vertex(cu, du);

        let mut dv = VertexData { count: 1, edges: [0; 8] };
        let slot_v = match ov {
            Orientation::Forward => EdgeDir::In.slot(Base::A),
            Orientation::Reverse => EdgeDir::Out.slot(Base::A.complement()),
        };
        dv.edges[slot_v] = 1;
        g.merge_vertex(cv, dv);

        let succ = g.successors(&cu, ou);
        assert_eq!(succ.len(), 1);
        assert_eq!(succ[0].0, cv);
        let pred = g.predecessors(&cv, ov);
        assert_eq!(pred.len(), 1);
        assert_eq!(pred[0].0, cu);
    }

    #[test]
    fn filter_removes_low_count_vertices() {
        let mut g = DeBruijnGraph::new(3);
        g.merge_vertex(km("AAC").canonical().0, VertexData { count: 10, edges: [0; 8] });
        g.merge_vertex(km("ACG").canonical().0, VertexData { count: 1, edges: [0; 8] });
        assert_eq!(g.filter_min_count(2), 1);
        assert_eq!(g.distinct_vertices(), 1);
        assert_eq!(g.filter_min_count(2), 0);
    }

    #[test]
    fn missing_vertex_has_no_neighbours() {
        let g = DeBruijnGraph::new(5);
        assert!(g.successors(&km("ACGTA"), Orientation::Forward).is_empty());
        assert!(g.predecessors(&km("ACGTA"), Orientation::Forward).is_empty());
        assert!(g.get(&km("ACGTA")).is_none());
    }

    #[test]
    fn partitioned_graph_routes_every_vertex_and_equals_single_shard() {
        let (k, p, n) = (9, 4, 8);
        let reads: Vec<dna::PackedSeq> = [
            "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCACCGTATGCAATGCCGGA",
            "TTGACCAGTAGGCATTAGCCAGTACGGATCAAAAACCCCCGGGGGTTTTTACGTTGCATGG",
        ]
        .iter()
        .map(|s| dna::PackedSeq::from_ascii(s.as_bytes()))
        .collect();
        let parts = msp::partition_in_memory(&reads, k, p, n).unwrap();
        let mut single = DeBruijnGraph::new(k);
        let mut sharded = DeBruijnGraph::partitioned(k, p, n);
        for part in &parts {
            let sub = crate::build_subgraph_serial(part, k).unwrap();
            single.absorb(sub.clone());
            sharded.absorb(sub);
        }
        // One subgraph spanning every partition: absorb trusts no
        // caller and still routes each vertex to its own shard.
        let mut mixed = DeBruijnGraph::partitioned(k, p, n);
        mixed.absorb(SubGraph::new(k, single.iter().map(|(kmer, v)| (*kmer, *v)).collect()));

        assert_eq!(sharded, single);
        assert_eq!(mixed, single);
        assert_eq!(single, sharded, "equality is symmetric across layouts");
        let router = PartitionRouter::new(n).unwrap();
        for g in [&sharded, &mixed] {
            assert!(g.shards.iter().filter(|s| !s.is_empty()).count() > 1, "test needs spread");
            for (i, shard) in g.shards.iter().enumerate() {
                for kmer in shard.keys() {
                    assert_eq!(router.route_kmer(kmer, p), i, "{kmer} stored in the wrong shard");
                }
            }
            for (kmer, data) in single.iter() {
                assert_eq!(g.get(kmer), Some(data));
            }
        }

        // A graph missing one vertex, or holding different data, differs.
        let victim = *single.iter().next().unwrap().0;
        let mut fewer = sharded.clone();
        assert!(fewer.remove_vertex(&victim));
        assert_ne!(fewer, single);
        fewer.merge_vertex(victim, VertexData { count: 1, edges: [0; 8] });
        assert_eq!(fewer.distinct_vertices(), single.distinct_vertices());
        assert_ne!(fewer.get(&victim), single.get(&victim));
        assert_ne!(fewer, single);
    }

    #[test]
    fn lookups_of_another_k_miss_without_routing() {
        let mut g = DeBruijnGraph::partitioned(5, 3, 4);
        g.merge_vertex(km("ACGTA").canonical().0, VertexData::default());
        // A 2-mer is shorter than the minimizer: it must not be routed.
        assert!(g.get(&km("AC")).is_none());
        assert!(!g.remove_vertex(&km("AC")));
    }

    #[test]
    #[should_panic(expected = "invalid minimizer length")]
    fn partitioned_rejects_minimizer_longer_than_k() {
        DeBruijnGraph::partitioned(5, 6, 4);
    }

    #[test]
    fn approx_bytes_scales_with_vertices() {
        let mut g = DeBruijnGraph::new(3);
        let empty = g.approx_bytes();
        g.merge_vertex(km("AAC").canonical().0, VertexData::default());
        assert!(g.approx_bytes() > empty);
    }
}
