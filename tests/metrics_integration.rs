//! Integration tests for the analytics subsystem against real compression
//! outputs (not synthetic score vectors).

use sg_algos::{bc, cc, pagerank, tc};
use sg_core::scheme::{Spanner, Spectral, Uniform};
use sg_core::schemes::UpsilonVariant;
use sg_core::{CompressionScheme, SchemeParams, SchemeRegistry};
use sg_graph::{generators, CsrGraph, EncodedCsr, GraphView};
use sg_metrics::{
    accuracy_report, compare_degree_distributions, critical_edge_preservation, critical_edges,
    hellinger, jensen_shannon, kl_divergence, max_degree_vertex, reordered_neighbor_fraction,
    reordered_pair_fraction, total_variation, AccuracyBaseline, AccuracyReport,
};

#[test]
fn all_divergences_agree_on_direction() {
    // Every divergence must rank "mild compression" closer than "harsh".
    let g = generators::barabasi_albert(2000, 4, 1);
    let base = pagerank::pagerank_default(&g).scores;
    let mild = pagerank::pagerank_default(&Uniform { p: 0.1 }.apply(&g, 2).graph).scores;
    let harsh = pagerank::pagerank_default(&Uniform { p: 0.8 }.apply(&g, 3).graph).scores;
    for (name, f) in [
        ("kl", kl_divergence as fn(&[f64], &[f64]) -> f64),
        ("js", jensen_shannon),
        ("tv", total_variation),
        ("hellinger", hellinger),
    ] {
        let d_mild = f(&base, &mild);
        let d_harsh = f(&base, &harsh);
        assert!(d_mild < d_harsh, "{name}: mild {d_mild} should be < harsh {d_harsh}");
    }
}

#[test]
fn reordered_pairs_zero_for_identity_compression() {
    let g = generators::erdos_renyi(400, 1600, 4);
    let r = Uniform { p: 0.0 }.apply(&g, 5); // keeps everything
    let before: Vec<f64> = tc::triangles_per_vertex(&g).iter().map(|&x| x as f64).collect();
    let after: Vec<f64> = tc::triangles_per_vertex(&r.graph).iter().map(|&x| x as f64).collect();
    assert_eq!(reordered_pair_fraction(&before, &after), 0.0);
    assert_eq!(reordered_neighbor_fraction(&g, &before, &after), 0.0);
}

#[test]
fn neighbor_metric_is_cheaper_proxy_for_full_metric() {
    // Both metrics must detect reordering under real compression, stay in
    // [0, 1], and be zero only for the identity. (Strict monotonicity in p
    // does not hold: at heavy compression most per-vertex triangle counts
    // collapse to 0 and ties suppress strict flips — the reason the paper
    // warns the metric should compare schemes at *equal* edge budgets.)
    let g = generators::planted_triangles(&generators::erdos_renyi(500, 1500, 6), 1000, 7);
    let base: Vec<f64> = tc::triangles_per_vertex(&g).iter().map(|&x| x as f64).collect();
    let r = Uniform { p: 0.3 }.apply(&g, 8);
    let after: Vec<f64> = tc::triangles_per_vertex(&r.graph).iter().map(|&x| x as f64).collect();
    let full = reordered_pair_fraction(&base, &after);
    let nbr = reordered_neighbor_fraction(&g, &base, &after);
    assert!(full > 0.0 && full <= 1.0, "full metric {full}");
    assert!(nbr > 0.0 && nbr <= 1.0, "neighbor metric {nbr}");
}

#[test]
fn bc_ordering_damage_grows_with_compression() {
    let g = generators::barabasi_albert(600, 4, 9);
    let base = bc::betweenness_sampled(&g, 64, 1);
    let mild = Uniform { p: 0.1 }.apply(&g, 10);
    let harsh = Uniform { p: 0.7 }.apply(&g, 11);
    let f_mild = reordered_pair_fraction(&base, &bc::betweenness_sampled(&mild.graph, 64, 1));
    let f_harsh = reordered_pair_fraction(&base, &bc::betweenness_sampled(&harsh.graph, 64, 1));
    assert!(f_mild < f_harsh, "mild {f_mild} vs harsh {f_harsh}");
}

#[test]
fn degree_distribution_comparison_detects_spanner_flattening() {
    let g = generators::rmat_graph500(11, 10, 12);
    let r = Spanner { k: 32.0 }.apply(&g, 13);
    let cmp = compare_degree_distributions(&g, &r.graph);
    assert!(cmp.l1_distance > 0.0);
    assert!(cmp.support_after < cmp.support_before);
}

#[test]
fn tuner_objectives_match_direct_metric_calls() {
    // The sg-tune objective layer must be a thin adapter: for every metric
    // kind, its score over a real compression result is bit-identical to
    // calling the underlying sg-metrics function directly.
    use slimgraph::tune::{MetricKind, Objective};
    let g = generators::planted_triangles(&generators::barabasi_albert(700, 4, 20), 500, 21);
    let r = Uniform { p: 0.35 }.apply(&g, 22);

    let kl = Objective::new(&g, MetricKind::PagerankKl).score(&r);
    let direct_kl = kl_divergence(
        &pagerank::pagerank_default(&g).scores,
        &pagerank::pagerank_default(&r.graph).scores,
    );
    assert_eq!(kl.to_bits(), direct_kl.to_bits(), "pagerank-kl adapter");

    let flips = Objective::new(&g, MetricKind::ReorderedTc).score(&r);
    let tc0: Vec<f64> = tc::triangles_per_vertex(&g).iter().map(|&x| x as f64).collect();
    let tc1: Vec<f64> = tc::triangles_per_vertex(&r.graph).iter().map(|&x| x as f64).collect();
    assert_eq!(
        flips.to_bits(),
        reordered_pair_fraction(&tc0, &tc1).to_bits(),
        "reordered-tc adapter"
    );

    let l1 = Objective::new(&g, MetricKind::DegreeL1).score(&r);
    assert_eq!(
        l1.to_bits(),
        compare_degree_distributions(&g, &r.graph).l1_distance.to_bits(),
        "degree-l1 adapter"
    );

    let tri = Objective::new(&g, MetricKind::TrianglesRel).score(&r);
    let direct_tri = sg_metrics::relative_error(
        tc::count_triangles(&g) as f64,
        tc::count_triangles(&r.graph) as f64,
    );
    assert_eq!(tri.to_bits(), direct_tri.to_bits(), "triangles-rel adapter");

    let comps = Objective::new(&g, MetricKind::ComponentsRel).score(&r);
    let direct_comps = sg_metrics::relative_error(
        slimgraph::algos::cc::connected_components(&g).num_components as f64,
        slimgraph::algos::cc::connected_components(&r.graph).num_components as f64,
    );
    assert_eq!(comps.to_bits(), direct_comps.to_bits(), "components-rel adapter");
}

#[test]
fn tuner_objective_projects_vertex_removing_results() {
    // With a vertex-removing stage, the adapter's score equals the direct
    // metric over scores lifted back through the recorded vertex mapping.
    use slimgraph::tune::{MetricKind, Objective};
    use slimgraph::PipelineSpec;
    let g = generators::planted_triangles(&generators::barabasi_albert(600, 2, 23), 300, 24);
    let registry = slimgraph::SchemeRegistry::with_defaults();
    let out = PipelineSpec::parse("lowdeg,uniform:p=0.3")
        .expect("parses")
        .build(&registry)
        .expect("builds")
        .apply(&g, 25);
    let r = &out.result;
    assert!(r.vertex_mapping.is_some(), "lowdeg records a mapping");

    let kl = Objective::new(&g, MetricKind::PagerankKl).score(r);
    let projected = sg_metrics::project_scores(
        g.num_vertices(),
        r.vertex_mapping.as_deref(),
        &pagerank::pagerank_default(&r.graph).scores,
    )
    .expect("alignable");
    let direct = kl_divergence(&pagerank::pagerank_default(&g).scores, &projected);
    assert_eq!(kl.to_bits(), direct.to_bits(), "projection path matches");
    assert!(kl.is_finite());
}

#[test]
fn spectral_beats_uniform_on_critical_edges_too() {
    let g = generators::barabasi_albert(1500, 5, 14);
    let spec = Spectral { p: 0.4, variant: UpsilonVariant::LogN, reweight: false }.apply(&g, 15);
    let unif = Uniform { p: spec.edge_reduction() }.apply(&g, 16);
    let root = max_degree_vertex(&g);
    let p_spec = critical_edge_preservation(&g, &spec.graph, root);
    let p_unif = critical_edge_preservation(&g, &unif.graph, root);
    // Spectral protects low-degree vertices' edges, keeping BFS structure.
    assert!(p_spec > 0.0 && p_unif > 0.0);
}

/// `accuracy_report` as commit e8654ec computed it — both sides from
/// scratch on every call, the critical edges collected to be counted —
/// kept as the reference the baseline form is compared against.
fn from_scratch_report<B: GraphView>(
    before: &B,
    original: &CsrGraph,
    compressed: &CsrGraph,
) -> AccuracyReport {
    let components = [
        cc::connected_components(before).num_components,
        cc::connected_components(compressed).num_components,
    ];
    let triangles = [tc::count_triangles(before), tc::count_triangles(compressed)];
    let (pagerank_kl, bfs_critical_kept) = if compressed.num_vertices() == original.num_vertices() {
        let pr0 = pagerank::pagerank_default(before).scores;
        let pr1 = pagerank::pagerank_default(compressed).scores;
        let root = max_degree_vertex(original);
        let ecr = critical_edges(original, root).count();
        let kept = match ecr {
            0 => 1.0,
            _ => critical_edges(compressed, root).count() as f64 / ecr as f64,
        };
        (Some(kl_divergence(&pr0, &pr1)), Some(kept))
    } else {
        (None, None)
    };
    AccuracyReport { components, triangles, pagerank_kl, bfs_critical_kept }
}

/// Every field of a report, floats as raw bits.
fn report_bits(r: &AccuracyReport) -> ([usize; 2], [u64; 2], Option<u64>, Option<u64>) {
    (
        r.components,
        r.triangles,
        r.pagerank_kl.map(f64::to_bits),
        r.bfs_critical_kept.map(f64::to_bits),
    )
}

/// One baseline per "before" view — raw and encoded — compared against
/// the output of every registry scheme in turn answers what a
/// from-scratch report of each pair answers, to the last bit: the
/// vertex-removing schemes (`lowdeg`, `collapse`) interleaved with the
/// vertex-preserving ones, the one-shot form included.
#[test]
fn one_baseline_answers_every_scheme_as_a_from_scratch_report_does() {
    let g = generators::planted_triangles(&generators::erdos_renyi(800, 2400, 1), 600, 2);
    let encoded = EncodedCsr::from_graph(&g);
    let registry = SchemeRegistry::with_defaults();
    let params = SchemeParams::from_pairs(&[("p", "0.5")]);
    let (raw_baseline, encoded_baseline) =
        (AccuracyBaseline::new(&g), AccuracyBaseline::new(&encoded));
    let mut vertex_removing = 0;
    for name in registry.names() {
        let out = registry.create(name, &params).expect("default factories succeed").apply(&g, 3);
        let reference = report_bits(&from_scratch_report(&g, &g, &out.graph));
        vertex_removing += usize::from(reference.2.is_none());
        let reports = [
            ("raw baseline", raw_baseline.compare(&g, &g, &out.graph)),
            ("encoded baseline", encoded_baseline.compare(&encoded, &g, &out.graph)),
            ("one-shot", accuracy_report(&g, &g, &out.graph)),
            ("one-shot, encoded", accuracy_report(&encoded, &g, &out.graph)),
        ];
        for (form, report) in reports {
            assert_eq!(report_bits(&report), reference, "`{name}`, {form}");
        }
    }
    assert!(vertex_removing >= 2, "lowdeg and collapse must change the vertex set here");
    assert!(raw_baseline.has_distribution() && encoded_baseline.has_distribution());
}

/// The PageRank half of a baseline is filled by the first comparison that
/// can use it: a graph only ever analysed through vertex-removing schemes
/// never pays for one.
#[test]
fn a_lowdeg_only_sequence_never_fills_the_distribution_part() {
    let g = generators::erdos_renyi(800, 2400, 1);
    let registry = SchemeRegistry::with_defaults();
    let lowdeg = registry.create("lowdeg", &SchemeParams::new()).expect("lowdeg");
    let baseline = AccuracyBaseline::new(&g);
    for seed in 1..=3 {
        let out = lowdeg.apply(&g, seed).graph;
        assert!(out.num_vertices() < g.num_vertices(), "lowdeg must remove a vertex");
        let report = baseline.compare(&g, &g, &out);
        assert_eq!(report_bits(&report), report_bits(&from_scratch_report(&g, &g, &out)));
        assert!(!baseline.has_distribution());
    }
    baseline.compare(&g, &g, &g);
    assert!(baseline.has_distribution(), "a vertex-preserving comparison fills it");
}
