//! Integration tests for the analytics subsystem against real compression
//! outputs (not synthetic score vectors).

use sg_algos::{bc, cc, pagerank, tc};
use sg_core::scheme::{Spanner, Spectral, Uniform};
use sg_core::schemes::UpsilonVariant;
use sg_core::{CompressionScheme, SchemeParams, SchemeRegistry};
use sg_graph::{generators, CsrGraph, EncodedCsr, GraphView, VertexId};
use sg_metrics::{
    accuracy_report, compare_degree_distributions, critical_edge_preservation, critical_edges,
    hellinger, jensen_shannon, kl_divergence, max_degree_vertex, project_scores,
    reordered_neighbor_fraction, reordered_pair_fraction, total_variation, AccuracyBaseline,
    AccuracyReport, Metric,
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

/// `metric` of `r` against a fresh baseline of `g`, as `tune` scores it.
fn tuner_score(g: &CsrGraph, metric: Metric, r: &sg_core::CompressionResult) -> f64 {
    AccuracyBaseline::default().score(metric, g, g, &r.graph, r.vertex_mapping.as_deref())
}

#[test]
fn tuner_objectives_match_direct_metric_calls() {
    // The metrics `tune` targets are thin adapters: for every metric kind,
    // its score over a real compression result is bit-identical to calling
    // the underlying sg-metrics function directly.
    use slimgraph::tune::MetricKind;
    let g = generators::planted_triangles(&generators::barabasi_albert(700, 4, 20), 500, 21);
    let r = Uniform { p: 0.35 }.apply(&g, 22);

    let kl = tuner_score(&g, MetricKind::PagerankKl, &r);
    let direct_kl = kl_divergence(
        &pagerank::pagerank_default(&g).scores,
        &pagerank::pagerank_default(&r.graph).scores,
    );
    assert_eq!(kl.to_bits(), direct_kl.to_bits(), "pagerank-kl adapter");

    let flips = tuner_score(&g, MetricKind::ReorderedTc, &r);
    let tc0: Vec<f64> = tc::triangles_per_vertex(&g).iter().map(|&x| x as f64).collect();
    let tc1: Vec<f64> = tc::triangles_per_vertex(&r.graph).iter().map(|&x| x as f64).collect();
    assert_eq!(
        flips.to_bits(),
        reordered_pair_fraction(&tc0, &tc1).to_bits(),
        "reordered-tc adapter"
    );

    let l1 = tuner_score(&g, MetricKind::DegreeL1, &r);
    assert_eq!(
        l1.to_bits(),
        compare_degree_distributions(&g, &r.graph).l1_distance.to_bits(),
        "degree-l1 adapter"
    );

    let tri = tuner_score(&g, MetricKind::TrianglesRel, &r);
    let direct_tri = sg_metrics::relative_error(
        tc::count_triangles(&g) as f64,
        tc::count_triangles(&r.graph) as f64,
    );
    assert_eq!(tri.to_bits(), direct_tri.to_bits(), "triangles-rel adapter");

    let comps = tuner_score(&g, MetricKind::ComponentsRel, &r);
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
    use slimgraph::tune::MetricKind;
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

    let kl = tuner_score(&g, MetricKind::PagerankKl, r);
    let projected = project_scores(
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
/// with the compressed PageRank lifted onto the original ids through the
/// run's mapping before the KL, as `tune` scores it: kept as the reference
/// the baseline form is compared against.
fn from_scratch_report<B: GraphView>(
    before: &B,
    original: &CsrGraph,
    compressed: &CsrGraph,
    mapping: Option<&[Option<VertexId>]>,
) -> AccuracyReport {
    let components = [
        cc::connected_components(before).num_components,
        cc::connected_components(compressed).num_components,
    ];
    let triangles = [tc::count_triangles(before), tc::count_triangles(compressed)];
    let pr1 = pagerank::pagerank_default(compressed).scores;
    let pagerank_kl = project_scores(original.num_vertices(), mapping, &pr1)
        .map(|pr1| kl_divergence(&pagerank::pagerank_default(before).scores, &pr1));
    let bfs_critical_kept = (compressed.num_vertices() == original.num_vertices()).then(|| {
        let root = max_degree_vertex(original);
        let ecr = critical_edges(original, root).count();
        match ecr {
            0 => 1.0,
            _ => critical_edges(compressed, root).count() as f64 / ecr as f64,
        }
    });
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
        (AccuracyBaseline::default(), AccuracyBaseline::default());
    let mut vertex_removing = 0;
    for name in registry.names() {
        let out = registry.create(name, &params).expect("default factories succeed").apply(&g, 3);
        let mapping = out.vertex_mapping.as_deref();
        let reference = report_bits(&from_scratch_report(&g, &g, &out.graph, mapping));
        assert!(reference.2.is_some(), "`{name}`: the run's mapping aligns its PageRank");
        vertex_removing += usize::from(reference.3.is_none());
        let reports = [
            ("raw baseline", raw_baseline.compare(&g, &g, &out.graph, mapping)),
            ("encoded baseline", encoded_baseline.compare(&encoded, &g, &out.graph, mapping)),
            ("one-shot", accuracy_report(&g, &g, &out.graph, mapping)),
            ("one-shot, encoded", accuracy_report(&encoded, &g, &out.graph, mapping)),
        ];
        for (form, report) in reports {
            assert_eq!(report_bits(&report), reference, "`{name}`, {form}");
        }
    }
    assert!(vertex_removing >= 2, "lowdeg and collapse must change the vertex set here");
    let every_report_part = ["components", "triangles", "pagerank", "bfs-critical"];
    assert_eq!(raw_baseline.filled(), every_report_part);
    assert_eq!(encoded_baseline.filled(), every_report_part);
}

/// A baseline computes only the parts its comparisons read: reports of a
/// `lowdeg`-only sequence never fill the BFS-critical part (its root may
/// be gone), and `degree-l1` scores never compute PageRank or triangles.
#[test]
fn a_baseline_computes_only_the_parts_its_comparisons_read() {
    let g = generators::erdos_renyi(800, 2400, 1);
    let registry = SchemeRegistry::with_defaults();
    let lowdeg = registry.create("lowdeg", &SchemeParams::new()).expect("lowdeg");
    let (reports, degree_l1) = (AccuracyBaseline::default(), AccuracyBaseline::default());
    for seed in 1..=3 {
        let out = lowdeg.apply(&g, seed);
        assert!(out.graph.num_vertices() < g.num_vertices(), "lowdeg must remove a vertex");
        let mapping = out.vertex_mapping.as_deref();
        let report = reports.compare(&g, &g, &out.graph, mapping);
        assert_eq!(
            report_bits(&report),
            report_bits(&from_scratch_report(&g, &g, &out.graph, mapping))
        );
        assert_eq!(reports.filled(), ["components", "triangles", "pagerank"]);
        let l1 = degree_l1.score(Metric::DegreeL1, &g, &g, &out.graph, mapping);
        assert_eq!(
            l1.to_bits(),
            compare_degree_distributions(&g, &out.graph).l1_distance.to_bits()
        );
        assert_eq!(degree_l1.filled(), ["degree-distribution"]);
    }
    reports.compare(&g, &g, &g, None);
    assert_eq!(
        reports.filled(),
        ["components", "triangles", "pagerank", "bfs-critical"],
        "a vertex-preserving comparison fills the BFS-critical part"
    );
}

/// `tune`, a served `analyze` and the one-shot report agree on
/// `pagerank-kl` to the last bit, vertex-removing chains included: for
/// each spec, the score `tune` evaluates (the spec is made its winner),
/// the daemon's `metrics.pagerank_kl` and `accuracy_report`'s field.
#[test]
fn tune_analyze_and_the_report_agree_on_pagerank_kl() {
    use slimgraph::serve::{Client, Json, ServeConfig, Server};
    use slimgraph::tune::{tune, MetricKind, Target, TuneConfig};
    use slimgraph::PipelineSpec;
    use std::sync::Arc;

    let g = generators::planted_triangles(&generators::erdos_renyi(600, 1500, 31), 300, 32);
    assert!((0..g.num_vertices() as VertexId).any(|v| g.degree(v) == 1), "a degree-1 vertex");
    assert!(tc::count_triangles(&g) > 0, "triangles");
    let path = std::env::temp_dir().join("slimgraph-metrics-agreement.sgr");
    let path = path.to_string_lossy().into_owned();
    slimgraph::store::save_sgr(&g, &path).expect("write input");

    let cfg = ServeConfig { listen: "127.0.0.1:0".into(), transcript: false, ..Default::default() };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).expect("connect");
    let load =
        Client::request_for("load").with("name", Json::str("g")).with("path", Json::str(&path));
    client.request(&load).expect("load");

    let registry = Arc::new(SchemeRegistry::with_defaults());
    let seed = 7;
    for (spec, removes_vertices) in
        [("uniform:p=0.5", false), ("lowdeg,uniform:p=0.3", true), ("collapse", true)]
    {
        let parsed = PipelineSpec::parse(spec).expect("parses");
        let out = parsed.build(&registry).expect("builds").apply(&g, seed).result;
        assert_eq!(out.graph.num_vertices() < g.num_vertices(), removes_vertices, "{spec}");

        // `lowdeg` alone keeps more edges than any of the three specs, so
        // the warm-started spec is the smallest feasible candidate.
        let target = Target { metric: MetricKind::PagerankKl, max: f64::MAX };
        let mut tune_cfg = TuneConfig::new(g.num_edges(), target, seed);
        tune_cfg.schemes = Some(vec!["lowdeg".into()]);
        tune_cfg.max_depth = 1;
        tune_cfg.rounds = 0;
        tune_cfg.warm_start = vec![parsed];
        let winner = tune(&g, &registry, &tune_cfg).expect("tunes").winner.expect("a winner");
        assert_eq!(winner.rendered, spec, "the spec wins");

        let request = Client::request_for("analyze")
            .with("graph", Json::str("g"))
            .with("spec", Json::str(spec))
            .with("seed", Json::u64(seed));
        let reply = client.request(&request).expect("analyze");
        let served = reply.get("metrics").and_then(|m| m.get("pagerank_kl")).and_then(Json::as_f64);

        let report = accuracy_report(&g, &g, &out.graph, out.vertex_mapping.as_deref());
        let one_shot = report.pagerank_kl.expect("the run's mapping aligns");
        assert_eq!(Some(winner.metric.to_bits()), served.map(f64::to_bits), "{spec}: served");
        assert_eq!(winner.metric.to_bits(), one_shot.to_bits(), "{spec}: one-shot");
        assert_eq!(report.bfs_critical_kept.is_none(), removes_vertices, "{spec}: BFS root");
    }
    client.request(&Client::request_for("shutdown")).expect("shutdown");
    daemon.join().expect("daemon thread").expect("clean exit");
}
