//! The e-seller graph of Section III-B: shops as nodes, typed edges for
//! supply-chain and same-owner/shareholder relationships, stored in CSR form.
//!
//! The paper treats the graph as homogeneous with the edge type carried as an
//! edge feature; we keep the type on each CSR entry for exactly that reason.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The two (three, counting shareholder separately) relationship kinds of
/// Fig. 1(b).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeType {
    /// Directed supplier → retailer relationship: the upstream seller's GMV
    /// leads the downstream retailer's.
    SupplyChain,
    /// Two shops registered to the same owner.
    SameOwner,
    /// Two shops sharing a shareholder.
    SameShareholder,
}

impl EdgeType {
    /// One-hot feature index carried on the edge (the paper makes the edge
    /// type an edge feature of the homogeneous graph).
    pub fn feature_index(self) -> usize {
        match self {
            EdgeType::SupplyChain => 0,
            EdgeType::SameOwner => 1,
            EdgeType::SameShareholder => 2,
        }
    }

    /// Number of distinct edge types.
    pub const COUNT: usize = 3;
}

/// A raw edge before CSR construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Source node (the supplier for [`EdgeType::SupplyChain`]).
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Relationship kind.
    pub ty: EdgeType,
}

/// One CSR adjacency entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Neighbor {
    /// The adjacent node id.
    pub node: u32,
    /// Relationship kind of the connecting edge.
    pub ty: EdgeType,
    /// True when the stored edge leaves this node (`self -> node`); supply
    /// chain direction matters for the inter temporal shift.
    pub outgoing: bool,
}

/// Compressed sparse-row e-seller graph. Edges are stored in both directions
/// so neighbourhood aggregation (Eq. 8) can traverse either way while the
/// `outgoing` flag preserves supply-chain directionality.
///
/// The CSR is immutable once built: both buffers sit behind an `Arc`, so
/// `clone()` is two refcount bumps and every clone reads the same storage.
/// A mutation of the world builds a fresh graph with
/// [`EsellerGraph::from_edges`]; it never edits a graph in place. A serving
/// snapshot therefore holds the world's graph without copying it, and a
/// republish whose burst changed no edge shares the previous snapshot's
/// graph.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EsellerGraph {
    n: usize,
    offsets: Arc<Vec<usize>>,
    entries: Arc<Vec<Neighbor>>,
    edge_count: usize,
}

impl EsellerGraph {
    /// Build a CSR graph over `n` nodes from an edge list. Self-loops are
    /// dropped (the ITA-GCN adds the intra/self term explicitly) and exact
    /// duplicates are deduplicated.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let mut adj: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
        // First-occurrence dedup on (src, dst, ty). Backward entries carry
        // `outgoing: false`, so the old linear `adj[src].contains(&fwd)` scan
        // could only ever match a previously-kept forward entry with the same
        // destination and type — the set membership below is the same
        // predicate in O(1) instead of O(degree) per edge.
        let mut seen: std::collections::HashSet<(u32, u32, EdgeType)> =
            std::collections::HashSet::with_capacity(edges.len());
        let mut kept = 0usize;
        for e in edges {
            assert!(
                (e.src as usize) < n && (e.dst as usize) < n,
                "edge {e:?} out of range (n={n})"
            );
            if e.src == e.dst {
                continue;
            }
            if !seen.insert((e.src, e.dst, e.ty)) {
                continue;
            }
            adj[e.src as usize].push(Neighbor { node: e.dst, ty: e.ty, outgoing: true });
            adj[e.dst as usize].push(Neighbor { node: e.src, ty: e.ty, outgoing: false });
            kept += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::new();
        offsets.push(0);
        for list in &mut adj {
            list.sort_by_key(|nb| nb.node);
            entries.extend_from_slice(list);
            offsets.push(entries.len());
        }
        Self { n, offsets: Arc::new(offsets), entries: Arc::new(entries), edge_count: kept }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of undirected (stored once) edges.
    pub fn num_edges(&self) -> usize {
        self.edge_count
    }

    /// Neighbourhood of a node (both incoming and outgoing entries).
    pub fn neighbors(&self, node: usize) -> &[Neighbor] {
        &self.entries[self.offsets[node]..self.offsets[node + 1]]
    }

    /// Degree of a node counting both directions.
    pub fn degree(&self, node: usize) -> usize {
        self.offsets[node + 1] - self.offsets[node]
    }

    /// Iterate all stored edges once (in their original direction).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.n).flat_map(move |src| {
            self.neighbors(src).iter().filter(|nb| nb.outgoing).map(move |nb| Edge {
                src: src as u32,
                dst: nb.node,
                ty: nb.ty,
            })
        })
    }

    /// Count of edges per type.
    pub fn edge_type_counts(&self) -> [usize; EdgeType::COUNT] {
        let mut counts = [0usize; EdgeType::COUNT];
        for e in self.edges() {
            counts[e.ty.feature_index()] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> EsellerGraph {
        // 0 -> 1 supply, 1 -- 2 same owner, 0 -> 3 supply.
        EsellerGraph::from_edges(
            4,
            &[
                Edge { src: 0, dst: 1, ty: EdgeType::SupplyChain },
                Edge { src: 1, dst: 2, ty: EdgeType::SameOwner },
                Edge { src: 0, dst: 3, ty: EdgeType::SupplyChain },
            ],
        )
    }

    #[test]
    fn csr_shapes() {
        let g = toy();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn direction_flags_preserved() {
        let g = toy();
        let from0: Vec<_> = g.neighbors(0).iter().collect();
        assert!(from0.iter().all(|nb| nb.outgoing));
        let at1 = g.neighbors(1);
        let incoming: Vec<_> = at1.iter().filter(|nb| !nb.outgoing).collect();
        assert_eq!(incoming.len(), 1);
        assert_eq!(incoming[0].node, 0);
        assert_eq!(incoming[0].ty, EdgeType::SupplyChain);
    }

    #[test]
    fn self_loops_and_duplicates_dropped() {
        let g = EsellerGraph::from_edges(
            2,
            &[
                Edge { src: 0, dst: 0, ty: EdgeType::SameOwner },
                Edge { src: 0, dst: 1, ty: EdgeType::SameOwner },
                Edge { src: 0, dst: 1, ty: EdgeType::SameOwner },
            ],
        );
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn edges_iterator_roundtrips() {
        let g = toy();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert!(edges.contains(&Edge { src: 0, dst: 1, ty: EdgeType::SupplyChain }));
    }

    #[test]
    fn type_counts() {
        let g = toy();
        let counts = g.edge_type_counts();
        assert_eq!(counts[EdgeType::SupplyChain.feature_index()], 2);
        assert_eq!(counts[EdgeType::SameOwner.feature_index()], 1);
    }

    #[test]
    fn clone_shares_both_csr_buffers() {
        let g = toy();
        let c = g.clone();
        assert!(Arc::ptr_eq(&g.offsets, &c.offsets));
        assert!(Arc::ptr_eq(&g.entries, &c.entries));
        for v in 0..g.num_nodes() {
            assert_eq!(g.neighbors(v).as_ptr(), c.neighbors(v).as_ptr(), "node {v}");
        }
    }

    #[test]
    fn serde_round_trip_preserves_the_csr() {
        let g = toy();
        let json = serde_json::to_string(&g).expect("serialize");
        let back: EsellerGraph = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.num_edges(), g.num_edges());
        assert_eq!(back.offsets, g.offsets);
        assert_eq!(back.entries, g.entries);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = EsellerGraph::from_edges(2, &[Edge { src: 0, dst: 5, ty: EdgeType::SameOwner }]);
    }

    /// Reference construction using the original O(degree) linear-scan dedup
    /// (`adj[src].contains(&fwd)`), kept verbatim so the hashed dedup in
    /// `from_edges` is pinned against it.
    fn from_edges_linear_scan(n: usize, edges: &[Edge]) -> EsellerGraph {
        let mut adj: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
        let mut kept = 0usize;
        for e in edges {
            if e.src == e.dst {
                continue;
            }
            let fwd = Neighbor { node: e.dst, ty: e.ty, outgoing: true };
            let bwd = Neighbor { node: e.src, ty: e.ty, outgoing: false };
            if adj[e.src as usize].contains(&fwd) {
                continue;
            }
            adj[e.src as usize].push(fwd);
            adj[e.dst as usize].push(bwd);
            kept += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::new();
        offsets.push(0);
        for list in &mut adj {
            list.sort_by_key(|nb| nb.node);
            entries.extend_from_slice(list);
            offsets.push(entries.len());
        }
        EsellerGraph { n, offsets: Arc::new(offsets), entries: Arc::new(entries), edge_count: kept }
    }

    #[test]
    fn hashed_dedup_matches_linear_scan_on_duplicate_heavy_input() {
        // Duplicate-heavy adversarial mix: every edge appears several times,
        // interleaved with self-loops, reversed copies (distinct edges — the
        // dedup key is directed), and same-pair edges of a different type.
        let n = 12usize;
        let mut edges = Vec::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        for round in 0..6 {
            for a in 0..n as u32 {
                for b in 0..n as u32 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(round + 1);
                    let pick = (state >> 33) % 5;
                    if pick == 4 {
                        continue;
                    }
                    let ty = match pick % 3 {
                        0 => EdgeType::SupplyChain,
                        1 => EdgeType::SameOwner,
                        _ => EdgeType::SameShareholder,
                    };
                    edges.push(Edge { src: a, dst: b, ty });
                    if pick == 3 {
                        edges.push(Edge { src: b, dst: a, ty });
                    }
                }
            }
        }
        let fast = EsellerGraph::from_edges(n, &edges);
        let reference = from_edges_linear_scan(n, &edges);
        assert_eq!(fast.num_edges(), reference.num_edges());
        assert_eq!(fast.offsets, reference.offsets);
        assert_eq!(fast.entries, reference.entries);
    }
}
