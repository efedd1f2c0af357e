//! BFS spanning trees of vertex subsets.
//!
//! The spanner kernel (§4.5.3) replaces every low-diameter cluster by a
//! spanning tree; this module is that tree routine. It owns no memory: the
//! tree is written into a caller-owned slot per vertex and the BFS queue is
//! the caller's too, so one pair of arrays serves every cluster a worker
//! processes.

use sg_graph::types::NO_EDGE;
use sg_graph::{CsrGraph, EdgeId, VertexId};

/// BFS spanning tree of the subgraph induced by `members` (a cluster),
/// rooted at `members\[0\]` and exploring rows in order, with membership
/// given by a predicate. Only edges with both endpoints in the cluster are
/// traversed.
///
/// The tree is returned through `parent_edge`, one slot per vertex of `g`:
/// every member reached other than the root gets the id of the edge to its
/// BFS parent, so an intra-cluster edge is a tree edge iff it is the
/// `parent_edge` of one of its endpoints. The slots of `members` must be
/// [`NO_EDGE`] on entry (that is how an unvisited member is told apart);
/// the root's slot and every non-member's are left alone, so over a
/// partition of the vertices the array never needs resetting. `queue` is
/// working space, overwritten with the reached members in BFS order.
///
/// Returns the number of tree edges — `members.len() - 1` exactly when the
/// cluster is connected.
pub fn cluster_spanning_tree_by(
    g: &CsrGraph,
    members: &[VertexId],
    in_cluster: impl Fn(VertexId) -> bool,
    parent_edge: &mut [EdgeId],
    queue: &mut Vec<VertexId>,
) -> usize {
    queue.clear();
    let Some(&root) = members.first() else { return 0 };
    queue.push(root);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        for (&v, &e) in g.neighbors(u).iter().zip(g.neighbor_edge_ids(u)) {
            if in_cluster(v) && v != root && parent_edge[v as usize] == NO_EDGE {
                parent_edge[v as usize] = e;
                queue.push(v);
            }
        }
    }
    queue.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    #[test]
    fn cluster_tree_respects_membership() {
        let g = generators::grid(4, 4);
        let members: Vec<VertexId> = vec![0, 1, 4, 5]; // 2x2 corner block
        let mut parent_edge = vec![NO_EDGE; 16];
        let mut queue = Vec::new();
        let inside = |v: VertexId| members.contains(&v);
        let tree_edges =
            cluster_spanning_tree_by(&g, &members, inside, &mut parent_edge, &mut queue);
        assert_eq!(tree_edges, 3);
        assert_eq!(queue[0], 0, "the BFS starts at members[0]");
        assert_eq!(parent_edge[0], NO_EDGE, "the root has no parent edge");
        for v in 0..16 {
            if v == 0 || !inside(v) {
                assert_eq!(parent_edge[v as usize], NO_EDGE, "slot {v} is not the tree's");
                continue;
            }
            // A parent edge joins its vertex to another member.
            let (a, b) = g.edge_endpoints(parent_edge[v as usize]);
            assert!(a == v || b == v);
            assert!(inside(a) && inside(b));
        }
    }

    #[test]
    fn disconnected_cluster_stops_at_the_roots_component() {
        let g = generators::path(5);
        let members: Vec<VertexId> = vec![0, 1, 3, 4];
        let mut parent_edge = vec![NO_EDGE; 5];
        let mut queue = Vec::new();
        let tree_edges = cluster_spanning_tree_by(
            &g,
            &members,
            |v| members.contains(&v),
            &mut parent_edge,
            &mut queue,
        );
        assert_eq!(tree_edges, 1);
        assert_eq!(queue, [0, 1]);
    }

    #[test]
    fn empty_cluster() {
        let g = generators::path(4);
        let mut queue = vec![7];
        let tree_edges =
            cluster_spanning_tree_by(&g, &[], |_| false, &mut [NO_EDGE; 4], &mut queue);
        assert_eq!(tree_edges, 0);
        assert!(queue.is_empty());
    }
}
