//! BFS and connectivity primitives, optionally restricted to a node mask.
//!
//! The community-search algorithms repeatedly need "the connected component
//! of `q` inside the currently alive node set"; these helpers implement that
//! without materializing subgraphs.

use crate::bitset::FixedBitSet;
use crate::graph::AttributedGraph;
use crate::NodeId;
use std::collections::VecDeque;

/// Returns the connected component containing `start`, restricted to nodes
/// for which `alive` is set (`None` means all nodes). The result is sorted.
///
/// Returns an empty vector if `start` itself is not alive.
pub fn component_of(
    g: &AttributedGraph,
    start: NodeId,
    alive: Option<&FixedBitSet>,
) -> Vec<NodeId> {
    let is_alive = |v: NodeId| alive.is_none_or(|a| a.contains(v));
    if !is_alive(start) {
        return Vec::new();
    }
    let mut seen = FixedBitSet::new(g.n());
    let mut queue = VecDeque::new();
    seen.insert(start);
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        for &w in g.neighbors(v) {
            if is_alive(w) && seen.insert(w) {
                queue.push_back(w);
            }
        }
    }
    seen.to_vec()
}

/// Returns `true` if the subgraph induced by the (sorted or unsorted)
/// `nodes` slice is connected. The empty set counts as connected.
pub fn is_connected_subset(g: &AttributedGraph, nodes: &[NodeId]) -> bool {
    let Some(&start) = nodes.first() else {
        return true;
    };
    let mut mask = FixedBitSet::new(g.n());
    for &v in nodes {
        mask.insert(v);
    }
    component_of(g, start, Some(&mask)).len() == nodes.len()
}

/// Every connected component of a graph, indexed so that a node's
/// component is a slice lookup: a label per node, plus the members of
/// each component grouped together in ascending order. Components are
/// numbered by their smallest node.
#[derive(Clone, Debug)]
pub struct Components {
    /// `label[v]` is the number of `v`'s component.
    label: Vec<u32>,
    /// Members of component `c`, ascending, at `members[start[c]..start[c + 1]]`.
    members: Vec<NodeId>,
    start: Vec<u32>,
}

impl Components {
    /// Labels every node of `g` in O(n + m).
    pub fn new(g: &AttributedGraph) -> Self {
        let n = g.n();
        let mut label = vec![u32::MAX; n];
        let mut start = vec![0u32];
        // `members` serves as the labelling walk's stack, then is filled
        // by one ascending pass that drops each node into its group.
        let mut members = Vec::with_capacity(n);
        for s in 0..n as NodeId {
            if label[s as usize] != u32::MAX {
                continue;
            }
            let c = (start.len() - 1) as u32;
            let mut size = 0u32;
            label[s as usize] = c;
            members.push(s);
            while let Some(v) = members.pop() {
                size += 1;
                for &w in g.neighbors(v) {
                    if label[w as usize] == u32::MAX {
                        label[w as usize] = c;
                        members.push(w);
                    }
                }
            }
            start.push(start[c as usize] + size);
        }
        members.resize(n, 0);
        let mut next = start.clone();
        for v in 0..n as NodeId {
            let slot = &mut next[label[v as usize] as usize];
            members[*slot as usize] = v;
            *slot += 1;
        }
        Components {
            label,
            members,
            start,
        }
    }

    /// The component containing `v`, ascending — what
    /// [`component_of`]`(g, v, None)` returns, without a walk.
    pub fn of(&self, v: NodeId) -> &[NodeId] {
        let c = self.label[v as usize] as usize;
        &self.members[self.start[c] as usize..self.start[c + 1] as usize]
    }

    /// Every component, ordered by smallest node, each ascending.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.start
            .windows(2)
            .map(|w| &self.members[w[0] as usize..w[1] as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Two triangles {0,1,2} and {3,4,5} joined by edge 2-3, plus isolated 6.
    fn two_triangles() -> AttributedGraph {
        let mut b = GraphBuilder::new(0);
        for _ in 0..7 {
            b.add_node(&[], &[]);
        }
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            b.add_edge(u, v).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn component_of_unmasked_reaches_everything_connected() {
        let g = two_triangles();
        assert_eq!(component_of(&g, 0, None), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(component_of(&g, 6, None), vec![6]);
    }

    #[test]
    fn component_of_respects_mask() {
        let g = two_triangles();
        let mut mask = FixedBitSet::full(7);
        mask.remove(2); // cut the bridge endpoint
        assert_eq!(component_of(&g, 0, Some(&mask)), vec![0, 1]);
        assert_eq!(component_of(&g, 4, Some(&mask)), vec![3, 4, 5]);
    }

    #[test]
    fn component_of_dead_start_is_empty() {
        let g = two_triangles();
        let mut mask = FixedBitSet::full(7);
        mask.remove(0);
        assert!(component_of(&g, 0, Some(&mask)).is_empty());
    }

    #[test]
    fn connected_subset_checks() {
        let g = two_triangles();
        assert!(is_connected_subset(&g, &[0, 1, 2]));
        assert!(is_connected_subset(&g, &[0, 1, 2, 3]));
        assert!(!is_connected_subset(&g, &[0, 1, 4]));
        assert!(is_connected_subset(&g, &[]));
        assert!(is_connected_subset(&g, &[6]));
    }

    #[test]
    fn components_partition_the_graph() {
        let g = two_triangles();
        let comps = Components::new(&g);
        assert_eq!(
            comps.iter().collect::<Vec<_>>(),
            [&[0, 1, 2, 3, 4, 5][..], &[6][..]]
        );
        assert_eq!(comps.of(4), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(comps.of(6), &[6]);
    }
}
