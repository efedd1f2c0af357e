//! Route planning on a compressed road network.
//!
//! Spanners are the distance-preserving compression class: this example
//! derives O(k)-spanners of a weighted USA-road-like grid and measures how
//! much shortest-path distances stretch as k (and the storage saving)
//! grows. It also shows Triangle Reduction's behaviour on a near-planar
//! graph — almost no compression, exactly as the paper reports for v-usa.
//!
//! Run: `cargo run --release -p slimgraph --example road_network_routing`

use sg_algos::sssp;
use sg_core::scheme::{Spanner, TriangleReduction};
use sg_core::schemes::TrConfig;
use sg_core::CompressionScheme;
use sg_graph::generators::presets;

fn main() {
    let road = presets::v_usa_like();
    println!("road network: n = {}, m = {} (weighted grid)", road.num_vertices(), road.num_edges());
    let source = 0u32;
    let base = sssp::dijkstra(&road, source);

    for k in [2.0, 8.0, 32.0] {
        let r = Spanner { k }.apply(&road, 11);
        let after = sssp::dijkstra(&r.graph, source);
        // Average multiplicative stretch over reachable destinations.
        let mut stretch_sum = 0.0;
        let mut cnt = 0usize;
        let mut max_stretch: f64 = 1.0;
        for (b, a) in base.iter().zip(&after) {
            if b.is_finite() && *b > 0.0 && a.is_finite() {
                let s = a / b;
                stretch_sum += s;
                max_stretch = max_stretch.max(s);
                cnt += 1;
            }
        }
        println!(
            "spanner k={k:<3}: kept {:>5.1}% of edges | avg stretch {:.3} | max stretch {:.2}",
            r.compression_ratio() * 100.0,
            stretch_sum / cnt.max(1) as f64,
            max_stretch
        );
    }

    // TR on a (nearly triangle-free) road network: little to remove.
    let tr = TriangleReduction { cfg: TrConfig::max_weight(0.9) }.apply(&road, 12);
    println!(
        "\nmaxw-0.9-1-TR on the road network: kept {:.2}% of edges — sparse graphs",
        tr.compression_ratio() * 100.0
    );
    println!("barely compress under TR (paper §7.1), use spanners for road networks.");
}
