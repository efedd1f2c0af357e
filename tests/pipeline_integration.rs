//! Integration tests: the full generator → compressor → algorithm →
//! metric pipeline, spanning every crate. Schemes are resolved by name
//! through the [`SchemeRegistry`] — no hand-written scheme list — and
//! multi-stage pipelines exercise the paper's kernel-chaining model.

use sg_algos::{bfs, cc, pagerank, tc};
use sg_core::{CompressionScheme, PipelineSpec, SchemeParams, SchemeRegistry};
use sg_graph::generators::{self, presets};
use sg_metrics::{critical_edge_preservation, kl_divergence, reordered_pair_fraction};

/// Every registered scheme, instantiated with moderate test parameters.
fn registry_schemes() -> Vec<Box<dyn CompressionScheme>> {
    let registry = SchemeRegistry::with_defaults();
    let params = SchemeParams::from_pairs(&[("p", "0.5"), ("k", "8"), ("epsilon", "0.05")]);
    registry
        .names()
        .map(|name| registry.create(name, &params).expect("default factories succeed"))
        .collect()
}

fn uniform(p: f64) -> Box<dyn CompressionScheme> {
    SchemeRegistry::with_defaults()
        .create("uniform", &SchemeParams::from_pairs(&[("p", &p.to_string())]))
        .expect("uniform is registered")
}

#[test]
fn every_registered_scheme_composes_with_every_stage2_algorithm() {
    let g = generators::planted_triangles(&generators::erdos_renyi(600, 1800, 1), 800, 2);
    let schemes = registry_schemes();
    assert!(schemes.len() >= 9, "registry shrank to {} schemes", schemes.len());
    for scheme in &schemes {
        let r = scheme.apply(&g, 3);
        // Stage 2 runs without panicking and produces sane outputs.
        let b = bfs::bfs_parallel(&r.graph, 0);
        assert!(b.reached >= 1, "{}", scheme.label());
        let c = cc::connected_components(&r.graph);
        assert!(c.num_components >= 1, "{}", scheme.label());
        let pr = pagerank::pagerank_default(&r.graph);
        if r.graph.num_vertices() > 0 {
            let total: f64 = pr.scores.iter().sum();
            assert!((total - 1.0).abs() < 1e-6, "{}", scheme.label());
        }
        let _ = tc::count_triangles(&r.graph);
    }
}

#[test]
fn kl_divergence_grows_with_compression_rate() {
    // §7.2: "the higher compression ratio is (lower m), the higher KL
    // divergence becomes" — verify the monotone trend for uniform sampling.
    let g = presets::s_you_like();
    let base = pagerank::pagerank_default(&g).scores;
    let mut last_kl = -1.0;
    for p in [0.1, 0.4, 0.8] {
        let r = uniform(p).apply(&g, 5);
        let scores = pagerank::pagerank_default(&r.graph).scores;
        let kl = kl_divergence(&base, &scores);
        assert!(kl > last_kl, "KL not increasing: {kl} after {last_kl} at p={p}");
        last_kl = kl;
    }
}

#[test]
fn spanner_critical_edge_preservation_decays_with_k() {
    let registry = SchemeRegistry::with_defaults();
    let g = presets::s_pok_like();
    let root = 0u32;
    let mut last = f64::INFINITY;
    for k in [2.0, 8.0, 32.0, 128.0] {
        let spanner = registry
            .create("spanner", &SchemeParams::from_pairs(&[("k", &k.to_string())]))
            .expect("spanner is registered");
        let r = spanner.apply(&g, 7);
        let pres = critical_edge_preservation(&g, &r.graph, root);
        assert!(pres <= last + 0.05, "preservation not decaying at k={k}");
        // A count ratio can slightly exceed 1 at small k (depths shift and
        // more surviving edges straddle consecutive frontiers).
        assert!(pres > 0.0 && pres <= 1.2);
        last = pres;
    }
}

#[test]
fn spectral_preserves_tc_ordering_better_than_uniform() {
    // The §7.2 discovery reproduced end-to-end at equal edge budget. The
    // effect needs a *skewed* degree distribution (spectral's per-edge
    // probabilities differentiate by min-degree); on near-regular graphs
    // such as Watts–Strogatz the two schemes coincide.
    let registry = SchemeRegistry::with_defaults();
    let g = presets::s_pok_like();
    let base: Vec<f64> = tc::triangles_per_vertex(&g).iter().map(|&x| x as f64).collect();
    let spectral = registry
        .create("spectral", &SchemeParams::from_pairs(&[("p", "0.4")]))
        .expect("spectral is registered");
    let spec = spectral.apply(&g, 11);
    let unif = uniform(spec.edge_reduction()).apply(&g, 12);
    let tc_spec: Vec<f64> =
        tc::triangles_per_vertex(&spec.graph).iter().map(|&x| x as f64).collect();
    let tc_unif: Vec<f64> =
        tc::triangles_per_vertex(&unif.graph).iter().map(|&x| x as f64).collect();
    let flips_spec = reordered_pair_fraction(&base, &tc_spec);
    let flips_unif = reordered_pair_fraction(&base, &tc_unif);
    assert!(flips_spec < flips_unif, "spectral {flips_spec} should beat uniform {flips_unif}");
}

#[test]
fn io_roundtrip_of_compressed_graph() {
    let g = generators::rmat_graph500(10, 8, 13);
    let r = uniform(0.5).apply(&g, 14);
    let bytes = sg_graph::io::to_binary(&r.graph);
    let back = sg_graph::io::from_binary(&bytes).expect("roundtrip");
    assert_eq!(back.edge_slice(), r.graph.edge_slice());
    assert!(bytes.len() < sg_graph::io::to_binary(&g).len());
}

#[test]
fn compression_is_deterministic_end_to_end() {
    let g = presets::v_ewk_like();
    for scheme in registry_schemes() {
        let a = scheme.apply(&g, 99);
        let b = scheme.apply(&g, 99);
        assert_eq!(
            a.graph.edge_slice(),
            b.graph.edge_slice(),
            "{} not deterministic",
            scheme.label()
        );
    }
}

#[test]
fn chained_pipeline_runs_end_to_end_and_composes_stats() {
    // The acceptance pipeline: spanner -> lowdeg -> uniform, resolved from
    // a single spec string.
    let registry = SchemeRegistry::with_defaults();
    let base = SchemeParams::from_pairs(&[("p", "0.5")]);
    let spec = PipelineSpec::parse("spanner,lowdeg,uniform").expect("spec parses");
    let pipeline = spec.build_with_base(&registry, &base).expect("spec builds");
    assert_eq!(pipeline.stages().len(), 3);

    let g = presets::s_pok_like();
    let out = pipeline.apply(&g, 21);
    assert_eq!(out.stages.len(), 3);
    // Stage boundaries agree with each other and with the composed result.
    assert_eq!(out.stages[0].input_edges, g.num_edges());
    for pair in out.stages.windows(2) {
        assert_eq!(pair[0].output_edges, pair[1].input_edges);
    }
    assert_eq!(out.stages.last().expect("stages").output_edges, out.result.graph.num_edges());
    assert!(out.result.graph.num_edges() < g.num_edges());
    // lowdeg relabels vertices: the composed mapping must be present and
    // sized by the pipeline input.
    let mapping = out.result.vertex_mapping.as_ref().expect("lowdeg maps vertices");
    assert_eq!(mapping.len(), g.num_vertices());
    // Stage-2 algorithms run on the pipeline output.
    assert!(cc::connected_components(&out.result.graph).num_components >= 1);

    // Bit-identical across repeated runs with the same seed.
    let again = spec.build_with_base(&registry, &base).expect("spec builds").apply(&g, 21);
    assert_eq!(out.result.graph.edge_slice(), again.result.graph.edge_slice());
}
