//! Lookup parity between a built graph and the single-threaded
//! reference: every query the graph answers must agree, not just its
//! vertex set. A graph stored in shards routes each lookup, so a vertex
//! stored in the wrong shard passes an iteration-only comparison and
//! fails here.
//!
//! Shared by several test crates through `#[path]`.

use dna::{Kmer, Orientation};
use hashgraph::DeBruijnGraph;

/// Asserts that `graph` answers `get`, `successors`, `predecessors`,
/// `remove_vertex` and `filter_min_count` exactly as `reference` does.
/// `what` names the build in failure messages.
pub fn assert_lookup_parity(graph: &DeBruijnGraph, reference: &DeBruijnGraph, what: &str) {
    assert_eq!(graph, reference, "{what}: graph content");
    assert!(reference.distinct_vertices() > 0, "{what}: reference graph is empty");
    let vertices: Vec<Kmer> = {
        let mut v: Vec<Kmer> = reference.iter().map(|(kmer, _)| *kmer).collect();
        v.sort_unstable();
        v
    };
    for kmer in &vertices {
        assert_lookups_agree(graph, reference, kmer, what);
        // A near miss: one base changed, present or not, must agree too.
        let (canon, _) = kmer.push_right(kmer.first_base().complement()).canonical();
        assert_lookups_agree(graph, reference, &canon, what);
    }

    // Remove every third vertex from both: each removal finds its vertex
    // once, and the lookups still agree afterwards.
    let (mut g, mut r) = (graph.clone(), reference.clone());
    for kmer in vertices.iter().step_by(3) {
        assert!(g.remove_vertex(kmer), "{what}: remove_vertex({kmer}) missed a vertex");
        assert!(r.remove_vertex(kmer));
        assert!(!g.remove_vertex(kmer), "{what}: remove_vertex({kmer}) removed twice");
        assert!(g.get(kmer).is_none(), "{what}: {kmer} still present after removal");
    }
    assert_eq!(g, r, "{what}: after remove_vertex");
    for kmer in vertices.iter().skip(1).step_by(3) {
        assert_lookups_agree(&g, &r, kmer, what);
    }

    // The error filter removes the same vertices, and survivors are
    // still found.
    let (mut g, mut r) = (graph.clone(), reference.clone());
    assert_eq!(g.filter_min_count(2), r.filter_min_count(2), "{what}: filter_min_count(2)");
    assert_eq!(g, r, "{what}: after filter_min_count");
    for kmer in &vertices {
        assert_eq!(g.get(kmer), r.get(kmer), "{what}: get({kmer}) after filter");
    }
}

fn assert_lookups_agree(graph: &DeBruijnGraph, reference: &DeBruijnGraph, kmer: &Kmer, what: &str) {
    assert_eq!(graph.get(kmer), reference.get(kmer), "{what}: get({kmer})");
    for orient in [Orientation::Forward, Orientation::Reverse] {
        assert_eq!(
            graph.successors(kmer, orient),
            reference.successors(kmer, orient),
            "{what}: successors({kmer}, {orient:?})"
        );
        assert_eq!(
            graph.predecessors(kmer, orient),
            reference.predecessors(kmer, orient),
            "{what}: predecessors({kmer}, {orient:?})"
        );
    }
}
