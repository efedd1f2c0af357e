//! Fundamental scalar types shared across the workspace.

/// Vertex identifier. 32 bits keeps CSR arrays compact (the Rust Performance
/// Book's "smaller integers" advice); the paper's shared-memory runs target
/// graphs well below 2^32 vertices.
pub type VertexId = u32;

/// Canonical edge identifier. For an undirected graph each edge `{u, v}` has
/// exactly one `EdgeId`, shared by both CSR directions.
pub type EdgeId = u32;

/// Edge weight. Single precision mirrors GAPBS's default `WeightT`.
pub type Weight = f32;

/// Sentinel for "no vertex" (e.g. BFS parent of the root before assignment).
pub const NO_VERTEX: VertexId = VertexId::MAX;

/// Sentinel for "no edge" in flat per-vertex / per-cluster edge slots. Never
/// a real id: a graph holds at most `EdgeId::MAX` edges, numbered from 0.
pub const NO_EDGE: EdgeId = EdgeId::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_is_not_a_plausible_vertex() {
        assert_eq!(NO_VERTEX, u32::MAX);
    }
}
