//! Disjoint-set union with union-by-size and path halving.

use sg_graph::VertexId;

/// A classic DSU over `0..n`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<VertexId>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self { parent: (0..n as VertexId).collect(), size: vec![1; n], components: n }
    }

    /// Finds the representative of `x`, halving paths along the way.
    pub fn find(&mut self, mut x: VertexId) -> VertexId {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: VertexId, b: VertexId) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) =
            if self.size[ra as usize] >= self.size[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    /// True when `a` and `b` are in the same set.
    pub fn connected(&mut self, a: VertexId, b: VertexId) -> bool {
        self.find(a) == self.find(b)
    }

    /// Current number of disjoint sets.
    pub fn num_components(&self) -> usize {
        self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_reduces_components() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_components(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.num_components(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
    }

    #[test]
    fn empty_dsu() {
        let uf = UnionFind::new(0);
        assert_eq!(uf.num_components(), 0);
    }
}
