//! Named dataset analogs.
//!
//! Each preset mirrors one of the paper's evaluation graphs (Table 4) at
//! laptop scale, matching the *regime* that matters for the corresponding
//! experiment: degree skew, sparsity, and triangles-per-vertex (the paper
//! selects Fig. 5 graphs to cover T/n ≈ 1052 (s-cds), 20 (s-pok) and
//! 80 (v-ewk)). All presets are seeded and deterministic.

use super::*;
use crate::CsrGraph;

/// Default seed for the preset suite; experiments may offset it.
pub const PRESET_SEED: u64 = 0x51_1A_6E_A9;

/// Pokec-like social network: preferential attachment, moderate triangle
/// density (paper: n=1.6M, m=30M, T/n≈20).
pub fn s_pok_like() -> CsrGraph {
    barabasi_albert(20_000, 8, PRESET_SEED ^ 1)
}

/// Catster/Dogster-like: extremely triangle-dense social graph
/// (paper T/n ≈ 1052). Small-world core plus planted triangles.
pub fn s_cds_like() -> CsrGraph {
    let base = watts_strogatz(8_000, 14, 0.03, PRESET_SEED ^ 2);
    planted_triangles(&base, 60_000, PRESET_SEED ^ 3)
}

/// Wikipedia-evolution-like (v-ewk, T/n ≈ 80): skewed with reinforced
/// clustering.
pub fn v_ewk_like() -> CsrGraph {
    let base = rmat_graph500(14, 10, PRESET_SEED ^ 4);
    planted_triangles(&base, 30_000, PRESET_SEED ^ 5)
}

/// USA-road-like: near-planar weighted grid (paper v-usa: n=23.9M, m=58.3M,
/// essentially triangle-free, large diameter).
pub fn v_usa_like() -> CsrGraph {
    with_random_weights(&grid(180, 130), 1.0, 100.0, PRESET_SEED ^ 6)
}

/// YouTube-like sparse social graph.
pub fn s_you_like() -> CsrGraph {
    barabasi_albert(30_000, 3, PRESET_SEED ^ 7)
}

/// Hudong-like hyperlink graph.
pub fn h_hud_like() -> CsrGraph {
    rmat_graph500(14, 8, PRESET_SEED ^ 8)
}

/// DBLP-like co-authorship graph: high clustering.
pub fn l_dbl_like() -> CsrGraph {
    watts_strogatz(20_000, 7, 0.1, PRESET_SEED ^ 9)
}

/// Skitter-like internet topology.
pub fn v_skt_like() -> CsrGraph {
    rmat_graph500(14, 6, PRESET_SEED ^ 10)
}

/// Twitter-like communication graph: heavy degree skew.
pub fn m_twt_like() -> CsrGraph {
    rmat_graph500(15, 12, PRESET_SEED ^ 11)
}

/// Friendster-like social graph.
pub fn s_frs_like() -> CsrGraph {
    rmat_graph500(15, 8, PRESET_SEED ^ 12)
}

/// .it-domains-like dense web crawl.
pub fn h_dit_like() -> CsrGraph {
    rmat_graph500(13, 24, PRESET_SEED ^ 13)
}

/// Patent-citation-like graph.
pub fn l_cit_like() -> CsrGraph {
    barabasi_albert(25_000, 4, PRESET_SEED ^ 14)
}

/// DBpedia-like knowledge-graph links.
pub fn h_dbp_like() -> CsrGraph {
    rmat_graph500(14, 4, PRESET_SEED ^ 15)
}

/// Flixster-like social graph.
pub fn s_flx_like() -> CsrGraph {
    barabasi_albert(24_000, 3, PRESET_SEED ^ 16)
}

/// Flickr-like graph: very triangle-dense.
pub fn s_flc_like() -> CsrGraph {
    let base = barabasi_albert(12_000, 10, PRESET_SEED ^ 17);
    planted_triangles(&base, 50_000, PRESET_SEED ^ 18)
}

/// Libimseti-like dating graph: dense, skewed.
pub fn s_lib_like() -> CsrGraph {
    let base = rmat_graph500(13, 18, PRESET_SEED ^ 19);
    planted_triangles(&base, 20_000, PRESET_SEED ^ 20)
}

/// Looks a preset up by its paper symbol (e.g. `"s-pok"`).
pub fn by_name(name: &str) -> Option<CsrGraph> {
    Some(match name {
        "s-pok" => s_pok_like(),
        "s-cds" => s_cds_like(),
        "v-ewk" => v_ewk_like(),
        "v-usa" => v_usa_like(),
        "s-you" => s_you_like(),
        "h-hud" => h_hud_like(),
        "l-dbl" => l_dbl_like(),
        "v-skt" => v_skt_like(),
        "m-twt" => m_twt_like(),
        "s-frs" => s_frs_like(),
        "h-dit" => h_dit_like(),
        "l-cit" => l_cit_like(),
        "h-dbp" => h_dbp_like(),
        "s-flx" => s_flx_like(),
        "s-flc" => s_flc_like(),
        "s-lib" => s_lib_like(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_by_name() {
        for name in ["s-pok", "s-cds", "v-ewk", "v-usa"] {
            let g = by_name(name).expect("known preset");
            assert!(g.num_edges() > 0, "{name} empty");
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn presets_deterministic() {
        let a = s_pok_like();
        let b = s_pok_like();
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.edge_slice()[..100], b.edge_slice()[..100]);
    }

    #[test]
    fn usa_is_weighted_road_like() {
        let g = v_usa_like();
        assert!(g.is_weighted());
        assert!(g.average_degree() < 5.0);
    }
}
