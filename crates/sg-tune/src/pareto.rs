//! The Pareto front of evaluated candidates over (size, accuracy).
//!
//! Every evaluated candidate is a point `(edges, metric)`; the front keeps
//! the non-dominated set (no other point is at least as small *and* at
//! least as accurate), which is the honest summary of a tuning run: the
//! winner is one point on it, but neighboring trade-offs matter when the
//! target was near-infeasible.

use sg_core::PipelineSpec;

/// One non-dominated candidate.
#[derive(Clone, Debug)]
pub struct ParetoPoint {
    /// The candidate spec.
    pub spec: PipelineSpec,
    /// Canonical rendered form of the spec (the dedup/tie-break key).
    pub rendered: String,
    /// Output edge count.
    pub edges: usize,
    /// Compression ratio `m'/m`.
    pub ratio: f64,
    /// Target metric value (lower = more accurate).
    pub metric: f64,
}

/// The non-dominated set, sorted by ascending edge count (and therefore
/// strictly descending metric).
#[derive(Clone, Debug, Default)]
pub struct ParetoFront {
    points: Vec<ParetoPoint>,
}

impl ParetoFront {
    /// Builds the front from evaluated candidates. Infinite-metric
    /// (incomparable) candidates are excluded; among candidates with equal
    /// `(edges, metric)` the lexicographically smallest rendered spec wins,
    /// so the front is a deterministic function of the evaluation *set*
    /// regardless of evaluation order.
    pub fn from_points(mut all: Vec<ParetoPoint>) -> Self {
        all.retain(|p| p.metric.is_finite());
        all.sort_by(|a, b| {
            a.edges
                .cmp(&b.edges)
                .then(a.metric.total_cmp(&b.metric))
                .then(a.rendered.cmp(&b.rendered))
        });
        let mut points: Vec<ParetoPoint> = Vec::new();
        for p in all {
            match points.last() {
                // Strictly better metric than everything smaller-or-equal
                // so far, else dominated.
                Some(last) if p.metric >= last.metric => {}
                _ => points.push(p),
            }
        }
        Self { points }
    }

    /// The points, ascending by edge count.
    pub fn points(&self) -> &[ParetoPoint] {
        &self.points
    }

    /// Number of points on the front.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the front is empty (every candidate was incomparable).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(rendered: &str, edges: usize, metric: f64) -> ParetoPoint {
        ParetoPoint {
            spec: PipelineSpec::parse(rendered).expect("parses"),
            rendered: rendered.to_string(),
            edges,
            ratio: 0.0,
            metric,
        }
    }

    #[test]
    fn dominated_points_are_dropped() {
        let front = ParetoFront::from_points(vec![
            pt("uniform:p=0.9", 10, 0.5),
            pt("uniform:p=0.5", 50, 0.1),
            pt("uniform:p=0.7", 30, 0.3),
            pt("uniform:p=0.6", 40, 0.35), // dominated by p=0.7 (30 edges, 0.3)
            pt("spanner:k=2", 60, 0.4),    // dominated by p=0.5
        ]);
        let rendered: Vec<&str> = front.points().iter().map(|p| p.rendered.as_str()).collect();
        assert_eq!(rendered, vec!["uniform:p=0.9", "uniform:p=0.7", "uniform:p=0.5"]);
        // Edges ascend, metric strictly descends.
        assert!(front.points().windows(2).all(|w| w[0].edges < w[1].edges));
        assert!(front.points().windows(2).all(|w| w[0].metric > w[1].metric));
    }

    #[test]
    fn order_independence_and_tie_breaks() {
        let a = vec![pt("b", 10, 0.5), pt("a", 10, 0.5), pt("c", 5, 0.9)];
        let mut b = a.clone();
        b.reverse();
        let fa = ParetoFront::from_points(a);
        let fb = ParetoFront::from_points(b);
        let ra: Vec<&str> = fa.points().iter().map(|p| p.rendered.as_str()).collect();
        let rb: Vec<&str> = fb.points().iter().map(|p| p.rendered.as_str()).collect();
        assert_eq!(ra, rb);
        assert_eq!(ra, vec!["c", "a"], "lexicographically smallest wins the tie");
    }

    #[test]
    fn infinite_metrics_are_excluded() {
        let front = ParetoFront::from_points(vec![pt("a", 1, f64::INFINITY)]);
        assert!(front.is_empty());
        assert_eq!(front.len(), 0);
    }
}
