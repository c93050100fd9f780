//! Ego-subgraph extraction — the "instance generation" step of the AGL-style
//! deployment in Fig. 5. Training and online inference both operate on k-hop
//! ego subgraphs around a centre shop, with a fan-out cap so hub nodes do not
//! explode the tape.

use crate::graph::{EdgeType, EsellerGraph, Neighbor};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A k-hop neighbourhood around one centre node, with node ids relabelled to
/// a compact local index space (centre is always local id 0).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct EgoSubgraph {
    /// Original node ids; `nodes[0]` is the centre.
    pub nodes: Vec<u32>,
    /// Local adjacency: for each local node, its `(local neighbour, edge
    /// type, outgoing)` entries restricted to the subgraph.
    pub adj: Vec<Vec<LocalNeighbor>>,
    /// Hop distance of each local node from the centre.
    pub hops: Vec<u8>,
    /// True for a local node that was expanded (hop < `hops`) with
    /// `degree ≤ fanout`, so nothing was sampled away: every graph
    /// neighbour is in the subgraph and `adj` lists them all in CSR order,
    /// whatever the centre.
    pub complete: Vec<bool>,
}

/// A neighbour entry inside an [`EgoSubgraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalNeighbor {
    /// Local index of the adjacent node.
    pub local: u32,
    /// Edge type.
    pub ty: EdgeType,
    /// True when the underlying edge leaves this node.
    pub outgoing: bool,
}

impl EgoSubgraph {
    /// Number of nodes in the subgraph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the centre node is present.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Local neighbours of a local node.
    pub fn neighbors(&self, local: usize) -> &[LocalNeighbor] {
        &self.adj[local]
    }

    /// The centre's original id.
    pub fn center(&self) -> u32 {
        self.nodes[0]
    }
}

/// Extraction parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EgoConfig {
    /// Number of hops (the paper stacks 2 ITA-GCN layers → 2 hops).
    pub hops: usize,
    /// Maximum sampled neighbours per node per hop; `usize::MAX` disables the
    /// cap (the "full neighbourhood" bench ablation).
    pub fanout: usize,
}

impl Default for EgoConfig {
    fn default() -> Self {
        Self { hops: 2, fanout: 8 }
    }
}

/// Reusable workspace for repeated ego extraction — the BFS hash map,
/// frontier queues, the fan-out sample buffer and the output
/// [`EgoSubgraph`] itself all keep their allocations between calls. One
/// `EgoScratch` per serving worker removes every per-request allocation of
/// the extraction step (see [`extract_ego_into`]).
#[derive(Debug, Default)]
pub struct EgoScratch {
    local_of: std::collections::HashMap<u32, u32>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    sample: Vec<Neighbor>,
    adj_pool: Vec<Vec<LocalNeighbor>>,
    ego: EgoSubgraph,
}

impl EgoScratch {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The subgraph produced by the most recent [`extract_ego_into`] call.
    pub fn ego(&self) -> &EgoSubgraph {
        &self.ego
    }

    /// Move the most recent subgraph out of the workspace.
    pub fn into_ego(self) -> EgoSubgraph {
        self.ego
    }
}

/// Extract the ego subgraph of `center` by breadth-first expansion with
/// per-node fan-out sampling.
///
/// Allocates a fresh workspace per call; hot paths that extract repeatedly
/// should hold an [`EgoScratch`] and call [`extract_ego_into`] instead.
pub fn extract_ego<R: Rng>(
    graph: &EsellerGraph,
    center: usize,
    cfg: &EgoConfig,
    rng: &mut R,
) -> EgoSubgraph {
    let mut scratch = EgoScratch::new();
    extract_ego_into(graph, center, cfg, rng, &mut scratch);
    scratch.into_ego()
}

/// Allocation-free variant of [`extract_ego`]: the BFS state and the output
/// subgraph live in `scratch` and are reused across calls. The sampling RNG
/// stream is identical to [`extract_ego`]'s, so results are bit-equal for
/// the same seed.
pub fn extract_ego_into<'s, R: Rng>(
    graph: &EsellerGraph,
    center: usize,
    cfg: &EgoConfig,
    rng: &mut R,
    scratch: &'s mut EgoScratch,
) -> &'s EgoSubgraph {
    assert!(center < graph.num_nodes(), "center {center} out of range");
    scratch.local_of.clear();
    scratch.frontier.clear();
    scratch.next.clear();
    scratch.ego.nodes.clear();
    scratch.ego.hops.clear();
    scratch.ego.complete.clear();

    scratch.ego.nodes.push(center as u32);
    scratch.ego.hops.push(0);
    scratch.ego.complete.push(false);
    scratch.local_of.insert(center as u32, 0u32);
    scratch.frontier.push(center as u32);

    // Local id of `frontier[0]`: each hop's nodes are appended to `nodes`
    // in the order they enter the next frontier.
    let mut frontier_start = 0;
    for hop in 1..=cfg.hops {
        for i in 0..scratch.frontier.len() {
            let u = scratch.frontier[i];
            let nbs = graph.neighbors(u as usize);
            scratch.sample.clear();
            scratch.sample.extend_from_slice(nbs);
            if nbs.len() > cfg.fanout {
                scratch.sample.shuffle(rng);
                scratch.sample.truncate(cfg.fanout);
            } else {
                scratch.ego.complete[frontier_start + i] = true;
            }
            for nb in &scratch.sample {
                if let std::collections::hash_map::Entry::Vacant(slot) =
                    scratch.local_of.entry(nb.node)
                {
                    slot.insert(scratch.ego.nodes.len() as u32);
                    scratch.ego.nodes.push(nb.node);
                    scratch.ego.hops.push(hop as u8);
                    scratch.ego.complete.push(false);
                    scratch.next.push(nb.node);
                }
            }
        }
        frontier_start = scratch.ego.nodes.len() - scratch.next.len();
        std::mem::swap(&mut scratch.frontier, &mut scratch.next);
        scratch.next.clear();
        if scratch.frontier.is_empty() {
            break;
        }
    }

    // Resize the adjacency list to the node count, recycling inner vectors
    // (and their capacity) through the pool.
    let n = scratch.ego.nodes.len();
    for v in scratch.ego.adj.iter_mut() {
        v.clear();
    }
    if scratch.ego.adj.len() > n {
        let extra = scratch.ego.adj.drain(n..);
        scratch.adj_pool.extend(extra);
    }
    while scratch.ego.adj.len() < n {
        scratch.ego.adj.push(scratch.adj_pool.pop().unwrap_or_default());
    }

    // Induce adjacency on the selected node set.
    for local in 0..n {
        let orig = scratch.ego.nodes[local];
        for nb in graph.neighbors(orig as usize) {
            if let Some(&other) = scratch.local_of.get(&nb.node) {
                scratch.ego.adj[local].push(LocalNeighbor {
                    local: other,
                    ty: nb.ty,
                    outgoing: nb.outgoing,
                });
            }
        }
    }
    &scratch.ego
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Edge;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain(n: usize) -> EsellerGraph {
        let edges: Vec<Edge> = (0..n - 1)
            .map(|i| Edge { src: i as u32, dst: (i + 1) as u32, ty: EdgeType::SupplyChain })
            .collect();
        EsellerGraph::from_edges(n, &edges)
    }

    #[test]
    fn hops_limit_expansion() {
        let g = chain(10);
        let mut rng = StdRng::seed_from_u64(1);
        let ego = extract_ego(&g, 0, &EgoConfig { hops: 2, fanout: 16 }, &mut rng);
        // Chain from node 0: reachable within 2 hops = {0, 1, 2}.
        assert_eq!(ego.len(), 3);
        assert_eq!(ego.center(), 0);
        assert_eq!(ego.hops, vec![0, 1, 2]);
    }

    #[test]
    fn induced_adjacency_is_symmetric_and_local() {
        let g = chain(5);
        let mut rng = StdRng::seed_from_u64(2);
        let ego = extract_ego(&g, 2, &EgoConfig { hops: 1, fanout: 16 }, &mut rng);
        assert_eq!(ego.len(), 3); // nodes 2, 1, 3
        for (local, nbs) in ego.adj.iter().enumerate() {
            for nb in nbs {
                assert!((nb.local as usize) < ego.len());
                // Reverse entry exists.
                assert!(ego.adj[nb.local as usize].iter().any(|r| r.local as usize == local));
            }
        }
    }

    #[test]
    fn fanout_caps_neighbors() {
        // Star graph: center 0 with 20 leaves.
        let edges: Vec<Edge> =
            (1..21).map(|i| Edge { src: 0, dst: i as u32, ty: EdgeType::SameOwner }).collect();
        let g = EsellerGraph::from_edges(21, &edges);
        let mut rng = StdRng::seed_from_u64(3);
        let ego = extract_ego(&g, 0, &EgoConfig { hops: 1, fanout: 5 }, &mut rng);
        assert_eq!(ego.len(), 6); // center + 5 sampled leaves
    }

    #[test]
    fn fanout_sampling_is_seed_deterministic() {
        let edges: Vec<Edge> =
            (1..21).map(|i| Edge { src: 0, dst: i as u32, ty: EdgeType::SameOwner }).collect();
        let g = EsellerGraph::from_edges(21, &edges);
        let a =
            extract_ego(&g, 0, &EgoConfig { hops: 1, fanout: 5 }, &mut StdRng::seed_from_u64(9));
        let b =
            extract_ego(&g, 0, &EgoConfig { hops: 1, fanout: 5 }, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.nodes, b.nodes);
    }

    #[test]
    fn scratch_reuse_matches_fresh_extraction() {
        let edges: Vec<Edge> =
            (1..21).map(|i| Edge { src: 0, dst: i as u32, ty: EdgeType::SameOwner }).collect();
        let g = EsellerGraph::from_edges(21, &edges);
        let cfg = EgoConfig { hops: 2, fanout: 5 };
        let mut scratch = EgoScratch::new();
        // Reuse the same workspace over varying centres; every extraction
        // must match the allocating path bit for bit (same RNG stream).
        for center in [0usize, 7, 0, 13, 2] {
            let fresh = extract_ego(&g, center, &cfg, &mut StdRng::seed_from_u64(99));
            let reused =
                extract_ego_into(&g, center, &cfg, &mut StdRng::seed_from_u64(99), &mut scratch);
            assert_eq!(fresh.nodes, reused.nodes);
            assert_eq!(fresh.hops, reused.hops);
            assert_eq!(fresh.adj, reused.adj);
        }
    }

    #[test]
    fn scratch_shrinks_correctly_after_large_extraction() {
        // Big star first, then a singleton: the reused adjacency list must
        // shrink to exactly one entry.
        let edges: Vec<Edge> =
            (1..30).map(|i| Edge { src: 0, dst: i as u32, ty: EdgeType::SameOwner }).collect();
        let g = EsellerGraph::from_edges(31, &edges);
        let mut scratch = EgoScratch::new();
        let cfg = EgoConfig { hops: 1, fanout: 64 };
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(extract_ego_into(&g, 0, &cfg, &mut rng, &mut scratch).len(), 30);
        let single = extract_ego_into(&g, 30, &cfg, &mut rng, &mut scratch);
        assert_eq!(single.len(), 1);
        assert_eq!(single.adj.len(), 1);
        assert!(single.adj[0].is_empty());
    }

    /// `complete` marks exactly the expanded nodes whose whole neighbour
    /// list fits under the fan-out, and their in-ego adjacency is their
    /// full CSR list in CSR order — for every centre that reaches them.
    #[test]
    fn complete_nodes_keep_their_full_csr_adjacency() {
        // 0 — {1, 2, 3}; 1 is a hub with ten more leaves; 2 — 3.
        let mut edges: Vec<Edge> =
            (1..4).map(|i| Edge { src: 0, dst: i, ty: EdgeType::SameOwner }).collect();
        edges.extend((4..14).map(|i| Edge { src: 1, dst: i, ty: EdgeType::SupplyChain }));
        edges.push(Edge { src: 2, dst: 3, ty: EdgeType::SameShareholder });
        let g = EsellerGraph::from_edges(14, &edges);
        let cfg = EgoConfig { hops: 2, fanout: 5 };
        for center in [0usize, 2, 3, 5] {
            let ego = extract_ego(&g, center, &cfg, &mut StdRng::seed_from_u64(center as u64));
            assert_eq!(ego.complete.len(), ego.len());
            for local in 0..ego.len() {
                let orig = ego.nodes[local] as usize;
                let expanded = (ego.hops[local] as usize) < cfg.hops;
                let want = expanded && g.degree(orig) <= cfg.fanout;
                assert_eq!(ego.complete[local], want, "centre {center}, node {orig}");
                if want {
                    let got: Vec<(u32, EdgeType)> = ego
                        .neighbors(local)
                        .iter()
                        .map(|nb| (ego.nodes[nb.local as usize], nb.ty))
                        .collect();
                    let csr: Vec<(u32, EdgeType)> =
                        g.neighbors(orig).iter().map(|nb| (nb.node, nb.ty)).collect();
                    assert_eq!(got, csr, "centre {center}, node {orig}");
                }
            }
        }
        // The hub is never complete, wherever it sits.
        let ego = extract_ego(&g, 1, &cfg, &mut StdRng::seed_from_u64(1));
        assert!(!ego.complete[0]);
    }

    #[test]
    fn isolated_center_yields_singleton() {
        let g = EsellerGraph::from_edges(3, &[Edge { src: 1, dst: 2, ty: EdgeType::SameOwner }]);
        let mut rng = StdRng::seed_from_u64(4);
        let ego = extract_ego(&g, 0, &EgoConfig::default(), &mut rng);
        assert!(ego.is_empty());
        assert_eq!(ego.len(), 1);
    }

    /// Hand-built 5-node graph with all three edge types, as a smoke test of
    /// the full extraction contract: hop ordering, type preservation and
    /// exclusion of out-of-range nodes.
    ///
    /// ```text
    ///   0 ──SupplyChain──► 1 ──SameOwner── 2
    ///   1 ──SameShareholder── 3        4 (isolated)
    /// ```
    #[test]
    fn five_node_mixed_type_extraction() {
        let edges = [
            Edge { src: 0, dst: 1, ty: EdgeType::SupplyChain },
            Edge { src: 1, dst: 2, ty: EdgeType::SameOwner },
            Edge { src: 1, dst: 3, ty: EdgeType::SameShareholder },
        ];
        let g = EsellerGraph::from_edges(5, &edges);
        let mut rng = StdRng::seed_from_u64(6);
        let ego = extract_ego(&g, 0, &EgoConfig { hops: 2, fanout: 8 }, &mut rng);
        // 0 at hop 0, 1 at hop 1, {2, 3} at hop 2; node 4 unreachable.
        assert_eq!(ego.len(), 4);
        assert!(!ego.nodes.contains(&4));
        assert_eq!(ego.hops[0], 0);
        let hop_of = |orig: u32| ego.hops[ego.nodes.iter().position(|&n| n == orig).unwrap()];
        assert_eq!(hop_of(1), 1);
        assert_eq!(hop_of(2), 2);
        assert_eq!(hop_of(3), 2);
        // Edge types survive localisation.
        let tys: Vec<EdgeType> = ego
            .neighbors(ego.nodes.iter().position(|&n| n == 1).unwrap())
            .iter()
            .map(|nb| nb.ty)
            .collect();
        assert!(tys.contains(&EdgeType::SupplyChain));
        assert!(tys.contains(&EdgeType::SameOwner));
        assert!(tys.contains(&EdgeType::SameShareholder));
    }

    #[test]
    fn supply_direction_survives_localisation() {
        let g = chain(3);
        let mut rng = StdRng::seed_from_u64(5);
        let ego = extract_ego(&g, 1, &EgoConfig { hops: 1, fanout: 8 }, &mut rng);
        // Node 1 has incoming edge from 0 and outgoing to 2.
        let nbs = ego.neighbors(0);
        let outgoing: Vec<_> = nbs.iter().filter(|n| n.outgoing).collect();
        let incoming: Vec<_> = nbs.iter().filter(|n| !n.outgoing).collect();
        assert_eq!(outgoing.len(), 1);
        assert_eq!(incoming.len(), 1);
        assert_eq!(ego.nodes[outgoing[0].local as usize], 2);
        assert_eq!(ego.nodes[incoming[0].local as usize], 0);
    }
}
