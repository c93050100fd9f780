//! Dirty-set closure for incremental republish: expand a set of mutated
//! nodes by an ego radius so every node whose ego subgraph can see a dirty
//! node is itself scheduled for recompute.
//!
//! Publish-time cache entries (embeddings and layer-0 projections) are pure
//! functions of one node's features, but the *serving* path draws a k-hop
//! ego around each request center. Expanding the dirty set by the same
//! radius keeps the invariant simple and auditable: after `publish_delta`,
//! every cache entry inside any ego that overlaps a mutation is freshly
//! recomputed, so delta-vs-full parity never depends on which neighbour a
//! stale entry happened to be read through.

use crate::graph::EsellerGraph;

/// Expand `dirty` by `radius` hops of (undirected) adjacency in `graph`.
///
/// Returns a sorted, deduplicated node list: the union of the `radius`-hop
/// egos of every dirty node, clipped at graph boundaries. `radius == 0`
/// returns the dirty set itself (sorted, deduplicated). Nodes outside the
/// graph (`>= num_nodes`, e.g. recorded before a shop was added and then
/// never materialised) are ignored rather than panicking so callers can pass
/// a dirty set recorded against a newer world revision.
///
/// A breadth-first walk that appends each node to the output the moment it
/// is first marked, so hop `h + 1`'s frontier is the output's tail after
/// hop `h`. The output is sorted at the end: the cost is the closure's size
/// and its edges, plus one zeroed `seen` flag per graph node, with no scan
/// of those flags. A property test pins it against a plain BFS reference.
pub fn dirty_closure(graph: &EsellerGraph, dirty: &[u32], radius: usize) -> Vec<u32> {
    let n = graph.num_nodes();
    let mut seen = vec![false; n];
    let mut out: Vec<u32> = Vec::new();
    for &d in dirty {
        let d_us = d as usize;
        if d_us < n && !seen[d_us] {
            seen[d_us] = true;
            out.push(d);
        }
    }
    let mut start = 0;
    for _hop in 0..radius {
        let end = out.len();
        if start == end {
            break;
        }
        for i in start..end {
            for nb in graph.neighbors(out[i] as usize) {
                let v = nb.node as usize;
                if !seen[v] {
                    seen[v] = true;
                    out.push(nb.node);
                }
            }
        }
        start = end;
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Edge, EdgeType};

    /// Path graph 0 - 1 - 2 - ... - (n-1), all same-owner edges.
    fn chain(n: usize) -> EsellerGraph {
        let edges: Vec<Edge> = (0..n - 1)
            .map(|i| Edge { src: i as u32, dst: i as u32 + 1, ty: EdgeType::SameOwner })
            .collect();
        EsellerGraph::from_edges(n, &edges)
    }

    #[test]
    fn radius_zero_is_the_dirty_set_sorted_deduped() {
        let g = chain(6);
        assert_eq!(dirty_closure(&g, &[4, 2, 4, 2], 0), vec![2, 4]);
    }

    #[test]
    fn ego_expansion_clips_at_graph_boundaries() {
        let g = chain(5);
        // Dirty node at the left boundary: radius 2 cannot walk past node 0.
        assert_eq!(dirty_closure(&g, &[0], 2), vec![0, 1, 2]);
        // Dirty node at the right boundary mirrors it.
        assert_eq!(dirty_closure(&g, &[4], 2), vec![2, 3, 4]);
        // Interior node expands both ways.
        assert_eq!(dirty_closure(&g, &[2], 1), vec![1, 2, 3]);
        // Radius larger than the diameter saturates at the whole component.
        assert_eq!(dirty_closure(&g, &[2], 99), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overlapping_dirty_egos_are_deduplicated() {
        let g = chain(7);
        // Egos of 2 and 4 at radius 1 both contain node 3; the union must
        // list it once and stay sorted.
        let closure = dirty_closure(&g, &[2, 4], 1);
        assert_eq!(closure, vec![1, 2, 3, 4, 5]);
        // Fully-overlapping egos collapse to one.
        assert_eq!(dirty_closure(&g, &[3, 3, 3], 1), vec![2, 3, 4]);
    }

    #[test]
    fn closure_follows_both_edge_directions() {
        // Supply edges are directed but the serving ego walks both ways, so
        // the closure must too: 0 -> 1 dirty at 1 still reaches 0.
        let g = EsellerGraph::from_edges(
            3,
            &[
                Edge { src: 0, dst: 1, ty: EdgeType::SupplyChain },
                Edge { src: 1, dst: 2, ty: EdgeType::SupplyChain },
            ],
        );
        assert_eq!(dirty_closure(&g, &[1], 1), vec![0, 1, 2]);
    }

    #[test]
    fn out_of_range_nodes_are_ignored() {
        let g = chain(3);
        assert_eq!(dirty_closure(&g, &[1, 17], 1), vec![0, 1, 2]);
    }

    #[test]
    fn empty_dirty_set_yields_empty_closure() {
        let g = chain(4);
        assert!(dirty_closure(&g, &[], 3).is_empty());
    }
}
