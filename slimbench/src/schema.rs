//! The metric names the program prints, with their units. `BENCHMARK.json`
//! at the repository root declares the same lists to the driver; a unit
//! test keeps the two equal.

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, better: "higher" }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[Def] = &[
    lower("setup_s", "s"),
    lower("op_p50_ms", "ms"),
    lower("op_p95_ms", "ms"),
    higher("ops_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
    lower("out_bytes_per_edge", "bytes"),
    lower("kept_edge_share", "share"),
    lower("pagerank_kl_bits", "bits"),
];

/// Single layers, from the traced run. A workload that does not exercise a
/// layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[Def] = &[
    // The layer table: self time per op, by the crate the span belongs to.
    lower("sg-store.self_ms", "ms"),
    lower("sg-algos.self_ms", "ms"),
    lower("sg-core.self_ms", "ms"),
    lower("sg-dist.self_ms", "ms"),
    lower("sg-serve.self_ms", "ms"),
    lower("bench.uncovered_ms", "ms"),
    higher("bench.covered_share", "share"),
    // sg-obs: how far the table can be trusted.
    lower("sg-obs.trace_overhead_share", "share"),
    lower("sg-obs.spans_recorded", "count"),
    lower("sg-obs.spans_dropped", "count"),
    // sg-store
    lower("sg-store.load_heap_ms", "ms"),
    lower("sg-store.load_trusted_ms", "ms"),
    lower("sg-store.save_auto_ms", "ms"),
    higher("sg-store.write_mb_per_s", "MB/s"),
    lower("sg-store.bytes_written", "bytes"),
    lower("sg-store.open_encoded_ms", "ms"),
    higher("sg-store.read_mb_per_s", "MB/s"),
    lower("sg-store.bytes_read", "bytes"),
    lower("sg-store.encoded_over_raw_bytes", "ratio"),
    // sg-graph
    lower("sg-graph.generate_ms", "ms"),
    lower("sg-graph.encode_ms", "ms"),
    lower("sg-graph.row_sweep_encoded_ms", "ms"),
    lower("sg-graph.row_sweep_raw_ms", "ms"),
    higher("sg-graph.decode_edges_per_s", "1/s"),
    lower("sg-graph.decode_over_raw", "ratio"),
    lower("sg-graph.edges_decoded", "count"),
    // sg-algos
    lower("sg-algos.pr_ms", "ms"),
    lower("sg-algos.bfs_ms", "ms"),
    lower("sg-algos.cc_ms", "ms"),
    lower("sg-algos.tc_ms", "ms"),
    lower("sg-algos.pr_raw_ms", "ms"),
    lower("sg-algos.bfs_raw_ms", "ms"),
    lower("sg-algos.cc_raw_ms", "ms"),
    lower("sg-algos.tc_raw_ms", "ms"),
    lower("sg-algos.encoded_over_raw", "ratio"),
    lower("sg-algos.pr_iterations", "count"),
    lower("sg-algos.edges_visited", "count"),
    // sg-core
    lower("sg-core.scheme_ms.uniform", "ms"),
    lower("sg-core.scheme_ms.spectral", "ms"),
    lower("sg-core.scheme_ms.lowdeg", "ms"),
    lower("sg-core.scheme_ms.spanner", "ms"),
    lower("sg-core.scheme_ms.tr", "ms"),
    lower("sg-core.scheme_ms.tr-eo", "ms"),
    lower("sg-core.scheme_ms.summary", "ms"),
    lower("sg-core.scheme_ms.cut", "ms"),
    lower("sg-core.spec_build_us", "us"),
    lower("sg-core.alloc_mb_per_pass", "MB"),
    lower("sg-core.session_hit_ms", "ms"),
    lower("sg-core.session_miss_ms", "ms"),
    higher("sg-core.cache.hits", "count"),
    lower("sg-core.cache.misses", "count"),
    lower("sg-core.cache.insertions", "count"),
    lower("sg-core.cache.evictions", "count"),
    higher("sg-core.cache.hit_share", "share"),
    lower("sg-core.stages_executed", "count"),
    higher("sg-core.stages_cached", "count"),
    lower("sg-core.catalog_open_ms", "ms"),
    // sg-metrics
    lower("sg-metrics.analyze_ms", "ms"),
    lower("sg-metrics.pagerank_kl_ms", "ms"),
    lower("sg-metrics.bfs_critical_ms", "ms"),
    // sg-dist
    lower("sg-dist.sharded_ms.uniform", "ms"),
    lower("sg-dist.sharded_ms.tr", "ms"),
    lower("sg-dist.sharded_ms.tr-eo", "ms"),
    lower("sg-dist.sharded_ms.lowdeg", "ms"),
    lower("sg-dist.sharded_over_shared", "ratio"),
    lower("sg-dist.messages", "count"),
    lower("sg-dist.supersteps", "count"),
    lower("sg-dist.imbalance_pct", "%"),
    lower("sg-dist.shard_compress_ms", "ms"),
    lower("sg-dist.merge_ms", "ms"),
    // sg-serve
    lower("sg-serve.ping_p50_ms", "ms"),
    lower("sg-serve.stats_p50_ms", "ms"),
    lower("sg-serve.compress_hit_p50_ms", "ms"),
    lower("sg-serve.json_parse_us", "us"),
    lower("sg-serve.json_render_us", "us"),
    lower("sg-serve.digest_ms", "ms"),
    lower("sg-serve.service_ms_p50", "ms"),
    lower("sg-serve.queue_wait_ms_p50", "ms"),
    lower("sg-serve.wire_ms", "ms"),
    lower("sg-serve.shell_self_ms", "ms"),
    lower("sg-serve.unattributed_ms", "ms"),
    lower("sg-serve.busy_rejected", "count"),
    lower("sg-serve.errors", "count"),
    lower("sg-serve.fed.shard_ms_p50", "ms"),
    lower("sg-serve.fed.standalone_p50_ms", "ms"),
    lower("sg-serve.fed.over_standalone", "ratio"),
    lower("sg-serve.fed.retries", "count"),
    lower("sg-serve.fed.local_fallbacks", "count"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name).map(|d| d.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_serve::Json;

    fn well_formed(text: &str, max: usize) -> bool {
        !text.is_empty()
            && text.len() <= max
            && text.chars().all(|c| c.is_ascii_alphanumeric() || "_.-/%".contains(c))
    }

    #[test]
    fn every_metric_has_a_valid_name_and_a_unit() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(def.name, 64) && !def.name.contains(['/', '%']), "{}", def.name);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{}", def.name);
            assert!(well_formed(def.unit, 16), "{}: unit {:?}", def.name, def.unit);
            assert!(matches!(def.better, "lower" | "higher"));
            assert!(seen.insert(def.name), "{} is declared twice", def.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` is what the driver reads; this program must print
    /// exactly the metrics and workloads it declares.
    #[test]
    fn benchmark_json_declares_what_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|item| {
                    fields
                        .iter()
                        .map(|f| item.get(f).and_then(Json::as_str).unwrap_or("?").to_string())
                        .collect()
                })
                .collect()
        };
        let own = |defs: &[Def]| -> Vec<Vec<String>> {
            defs.iter().map(|d| vec![d.name.into(), d.unit.into(), d.better.into()]).collect()
        };
        assert_eq!(declared("end_to_end", &["name", "unit", "better"]), own(END_TO_END));
        assert_eq!(declared("per_layer", &["name", "unit", "better"]), own(PER_LAYER));
        let workloads: Vec<Vec<String>> = crate::workloads::WORKLOADS
            .iter()
            .map(|(name, why)| vec![name.to_string(), why.to_string()])
            .collect();
        assert_eq!(declared("workloads", &["name", "why"]), workloads);
        for (_, why) in crate::workloads::WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "why too long: {why}");
        }
    }
}
