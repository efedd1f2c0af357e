//! The open compression-scheme layer: a [`CompressionScheme`] trait, the
//! concrete scheme zoo, parameter bags, and a name-based [`SchemeRegistry`].
//!
//! Slim Graph's central idea is *programmable* compression: kernels are
//! small programs that can be combined freely. The original harness
//! hard-coded every scheme in a closed enum; this module replaces it with
//! an object-safe trait plus a registry, so new schemes can be added (and
//! chained into [`crate::Pipeline`]s) without touching dispatch code.

use crate::engine::{run_plan, CompressionResult, Plan};
use crate::schemes::spanner::spanner;
use crate::schemes::triangle_reduction::triangle_collapse;
use crate::schemes::{
    summarize, CutSparsifyKernel, Discipline, EdgeChoice, LowDegreeKernel, SpectralKernel,
    SummarizationConfig, TrConfig, UniformKernel, UpsilonVariant,
};
use sg_graph::CsrGraph;
use std::collections::BTreeMap;
use std::time::Instant;

/// A lossy compression scheme: one stage-1 kernel family plus its
/// parameters. Object-safe so schemes can live in registries and pipelines.
///
/// A scheme is written once: [`CompressionScheme::plan`] builds its kernel,
/// and every executor runs that plan — [`CompressionScheme::apply`] on the
/// rayon pool, `sg_dist::distributed_compress` over its ranks,
/// `sg_dist::shard_compress` for one federation shard. A scheme with no
/// plan (one that rewrites the vertex set or builds a mapping first)
/// overrides `apply` instead.
pub trait CompressionScheme: Send + Sync {
    /// Registry name (`"uniform"`, `"spanner"`, `"tr-eo"`, …).
    fn name(&self) -> &str;

    /// The scheme's parameters as `(key, rendered value)` pairs.
    fn params(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }

    /// The scheme's kernel for `g`, by class. `None` (the default) means
    /// the scheme has no plan — contraction, spanners and summarization
    /// rewrite the graph globally — and overrides [`CompressionScheme::apply`]:
    /// it runs on the pool only, never on ranks or shards.
    fn plan(&self, g: &CsrGraph) -> Option<Plan> {
        let _ = g;
        None
    }

    /// Applies the scheme to `g` with deterministic seed `seed`: runs
    /// [`CompressionScheme::plan`] on the pool through [`run_plan`].
    fn apply(&self, g: &CsrGraph, seed: u64) -> CompressionResult {
        let plan = self.plan(g).expect("a scheme without a plan overrides apply");
        run_plan(g, &plan, seed)
    }

    /// Human-readable label: the name plus its parameters.
    fn label(&self) -> String {
        let params = self.params();
        if params.is_empty() {
            self.name().to_string()
        } else {
            let rendered: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{} ({})", self.name(), rendered.join(", "))
        }
    }
}

/// A string key/value parameter bag with typed accessors, used by
/// [`SchemeRegistry`] factories and the CLI's `--scheme` parser. Ordered
/// and comparable so parameterized specs ([`crate::PipelineSpec`]) can be
/// deduplicated and sorted deterministically.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SchemeParams {
    values: BTreeMap<String, String>,
}

impl SchemeParams {
    /// An empty bag (factories fall back to their defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a bag from `(key, value)` pairs.
    pub fn from_pairs(pairs: &[(&str, &str)]) -> Self {
        let mut params = Self::new();
        for (k, v) in pairs {
            params.set(k, v);
        }
        params
    }

    /// Sets one parameter (overwrites).
    pub fn set(&mut self, key: &str, value: &str) -> &mut Self {
        self.values.insert(key.to_string(), value.to_string());
        self
    }

    /// Parses a `key=value` assignment into the bag.
    pub fn parse_assignment(&mut self, assignment: &str) -> Result<(), String> {
        match assignment.split_once('=') {
            Some((k, v)) if !k.is_empty() && !v.is_empty() => {
                self.set(k.trim(), v.trim());
                Ok(())
            }
            _ => Err(format!("expected key=value, got '{assignment}'")),
        }
    }

    /// Raw string value.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// All `(key, value)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// `f64` value with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        self.parse_with(key, default)
    }

    /// `u32` value with a default.
    pub fn get_u32(&self, key: &str, default: u32) -> Result<u32, String> {
        self.parse_with(key, default)
    }

    /// `bool` value with a default.
    pub fn get_bool(&self, key: &str, default: bool) -> Result<bool, String> {
        self.parse_with(key, default)
    }

    fn parse_with<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("parameter {key}: cannot parse '{raw}'")),
        }
    }
}

/// Random uniform edge sampling: remove each edge with probability `p`.
#[derive(Clone, Copy, Debug)]
pub struct Uniform {
    /// Removal probability.
    pub p: f64,
}

impl CompressionScheme for Uniform {
    fn name(&self) -> &str {
        "uniform"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![("p", self.p.to_string())]
    }

    fn plan(&self, _g: &CsrGraph) -> Option<Plan> {
        Some(Plan::Edge(Box::new(UniformKernel::new(self.p))))
    }
}

/// Spectral sparsification with user parameter `p` and Υ variant.
#[derive(Clone, Copy, Debug)]
pub struct Spectral {
    /// Sparsification parameter.
    pub p: f64,
    /// How Υ is derived.
    pub variant: UpsilonVariant,
    /// Whether survivors are reweighted by `1/p_e`.
    pub reweight: bool,
}

impl CompressionScheme for Spectral {
    fn name(&self) -> &str {
        "spectral"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        let variant = match self.variant {
            UpsilonVariant::LogN => "logn",
            UpsilonVariant::AvgDegree => "avgdeg",
        };
        vec![
            ("p", self.p.to_string()),
            ("variant", variant.to_string()),
            ("reweight", self.reweight.to_string()),
        ]
    }

    fn plan(&self, g: &CsrGraph) -> Option<Plan> {
        let kernel = SpectralKernel::for_graph(g, self.p, self.variant, self.reweight);
        Some(Plan::Edge(Box::new(kernel)))
    }
}

/// The Triangle Reduction family (plain, Edge-Once, Count-Triangles,
/// max-weight), named after its configuration.
#[derive(Clone, Copy, Debug)]
pub struct TriangleReduction {
    /// Full TR configuration.
    pub cfg: TrConfig,
}

impl CompressionScheme for TriangleReduction {
    fn name(&self) -> &str {
        match (self.cfg.discipline, self.cfg.choice) {
            (Discipline::Plain, _) => "tr",
            (Discipline::EdgeOnce, EdgeChoice::FewestTriangles) => "tr-ct",
            (Discipline::EdgeOnce, EdgeChoice::MaxWeight) => "tr-mw",
            (Discipline::EdgeOnce, EdgeChoice::Random) => "tr-eo",
        }
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![("p", self.cfg.p.to_string()), ("x", self.cfg.x.to_string())]
    }

    fn plan(&self, _g: &CsrGraph) -> Option<Plan> {
        Some(Plan::Triangle(self.cfg))
    }

    /// Paper-style label (`EO-0.5-1-TR`, …).
    fn label(&self) -> String {
        self.cfg.label()
    }
}

/// Triangle p-Reduction by Collapse: contract sampled triangles.
#[derive(Clone, Copy, Debug)]
pub struct TriangleCollapse {
    /// Probability of collapsing a triangle.
    pub p: f64,
}

impl CompressionScheme for TriangleCollapse {
    fn name(&self) -> &str {
        "collapse"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![("p", self.p.to_string())]
    }

    fn apply(&self, g: &CsrGraph, seed: u64) -> CompressionResult {
        triangle_collapse(g, self.p, seed)
    }
}

/// Degree ≤ 1 vertex removal.
#[derive(Clone, Copy, Debug, Default)]
pub struct LowDegree;

impl CompressionScheme for LowDegree {
    fn name(&self) -> &str {
        "lowdeg"
    }

    fn plan(&self, _g: &CsrGraph) -> Option<Plan> {
        Some(Plan::Vertex(Box::new(LowDegreeKernel::default())))
    }
}

/// O(k)-spanner via low-diameter decomposition.
#[derive(Clone, Copy, Debug)]
pub struct Spanner {
    /// Stretch parameter.
    pub k: f64,
}

impl CompressionScheme for Spanner {
    fn name(&self) -> &str {
        "spanner"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![("k", self.k.to_string())]
    }

    fn apply(&self, g: &CsrGraph, seed: u64) -> CompressionResult {
        spanner(g, self.k, seed)
    }
}

/// Lossy ϵ-summarization; the summary is reconstructed into a graph so the
/// scheme composes with stage 2 (and with later pipeline stages).
#[derive(Clone, Copy, Debug)]
pub struct Summarization {
    /// Per-edge error budget.
    pub epsilon: f64,
}

impl CompressionScheme for Summarization {
    fn name(&self) -> &str {
        "summary"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![("epsilon", self.epsilon.to_string())]
    }

    /// Summarizes `g` and reconstructs the approximate graph, so
    /// downstream algorithms run on it (what stage 2 measures).
    fn apply(&self, g: &CsrGraph, seed: u64) -> CompressionResult {
        let start = Instant::now();
        let cfg = SummarizationConfig { epsilon: self.epsilon, seed, ..Default::default() };
        CompressionResult::of(g, summarize(g, cfg).decompress(), None, start)
    }
}

/// Nagamochi–Ibaraki cut sparsifier: preserves all cuts of value ≤ `k`.
#[derive(Clone, Copy, Debug)]
pub struct CutSparsifier {
    /// Connectivity threshold.
    pub k: u32,
}

impl CompressionScheme for CutSparsifier {
    fn name(&self) -> &str {
        "cut"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![("k", self.k.to_string())]
    }

    fn plan(&self, g: &CsrGraph) -> Option<Plan> {
        Some(Plan::Edge(Box::new(CutSparsifyKernel::for_graph(g, self.k))))
    }
}

/// Builds one scheme instance from a parameter bag.
pub type SchemeFactory =
    Box<dyn Fn(&SchemeParams) -> Result<Box<dyn CompressionScheme>, String> + Send + Sync>;

struct RegisteredScheme {
    factory: SchemeFactory,
    /// Parameter keys the factory reads; per-stage overrides outside this
    /// set are rejected by [`crate::PipelineSpec::resolve`].
    param_keys: &'static [&'static str],
}

/// Name → factory table for every known compression scheme.
///
/// [`SchemeRegistry::with_defaults`] registers the full zoo; extensions
/// register additional names with [`SchemeRegistry::register`]. Names are
/// stored in a `BTreeMap`, so [`SchemeRegistry::names`] iterates in a
/// stable order.
pub struct SchemeRegistry {
    schemes: BTreeMap<String, RegisteredScheme>,
}

impl SchemeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self { schemes: BTreeMap::new() }
    }

    /// The full built-in scheme zoo, keyed by the CLI names.
    ///
    /// Parameters read by the factories (all optional): `p` (sampling /
    /// reduction probability, default 0.5), `k` (spanner stretch or cut
    /// threshold, default 8), `epsilon` (summarization error, default 0.1),
    /// `variant` (`logn` | `avgdeg`), `reweight` (bool), `x` (TR edges
    /// removed per triangle, 1 or 2). Every numeric value is range-checked
    /// here, so an out-of-range or non-finite parameter is an `Err` from
    /// [`SchemeRegistry::create`] and never reaches a scheme body's assert.
    pub fn with_defaults() -> Self {
        let mut registry = Self::new();
        registry.register("uniform", &["p"], |p| {
            Ok(Box::new(Uniform { p: ranged_f64(p, "p", 0.5, 0.0, 1.0)? }))
        });
        registry.register("spectral", &["p", "variant", "reweight"], |p| {
            let variant = match p.get_str("variant").unwrap_or("logn") {
                "logn" => UpsilonVariant::LogN,
                "avgdeg" => UpsilonVariant::AvgDegree,
                other => return Err(format!("unknown spectral variant '{other}'")),
            };
            Ok(Box::new(Spectral {
                p: ranged_f64(p, "p", 0.5, 0.0, f64::MAX)?,
                variant,
                reweight: p.get_bool("reweight", false)?,
            }))
        });
        registry.register("tr", &["p", "x"], |p| {
            Ok(Box::new(TriangleReduction {
                cfg: tr_config(p, Discipline::Plain, EdgeChoice::Random)?,
            }))
        });
        registry.register("tr-eo", &["p", "x"], |p| {
            Ok(Box::new(TriangleReduction {
                cfg: tr_config(p, Discipline::EdgeOnce, EdgeChoice::Random)?,
            }))
        });
        registry.register("tr-ct", &["p", "x"], |p| {
            Ok(Box::new(TriangleReduction {
                cfg: tr_config(p, Discipline::EdgeOnce, EdgeChoice::FewestTriangles)?,
            }))
        });
        registry.register("tr-mw", &["p", "x"], |p| {
            Ok(Box::new(TriangleReduction {
                cfg: tr_config(p, Discipline::EdgeOnce, EdgeChoice::MaxWeight)?,
            }))
        });
        registry.register("collapse", &["p"], |p| {
            Ok(Box::new(TriangleCollapse { p: ranged_f64(p, "p", 0.5, 0.0, 1.0)? }))
        });
        registry.register("lowdeg", &[], |_| Ok(Box::new(LowDegree)));
        registry.register("spanner", &["k"], |p| {
            Ok(Box::new(Spanner { k: ranged_f64(p, "k", 8.0, 1.0, f64::MAX)? }))
        });
        registry.register("summary", &["epsilon"], |p| {
            Ok(Box::new(Summarization { epsilon: ranged_f64(p, "epsilon", 0.1, 0.0, f64::MAX)? }))
        });
        registry.register("cut", &["k"], |p| {
            // k is accepted as a float (truncated, floored at 1) so one
            // shared --k flag serves both spanner and cut stages.
            Ok(Box::new(CutSparsifier {
                k: ranged_f64(p, "k", 8.0, 0.0, f64::MAX)?.max(1.0) as u32,
            }))
        });
        registry
    }

    /// Registers (or replaces) a scheme factory under `name`. `param_keys`
    /// lists the parameter names the factory reads; pipeline-spec overrides
    /// for other keys are rejected.
    pub fn register(
        &mut self,
        name: &str,
        param_keys: &'static [&'static str],
        factory: impl Fn(&SchemeParams) -> Result<Box<dyn CompressionScheme>, String>
            + Send
            + Sync
            + 'static,
    ) {
        self.schemes
            .insert(name.to_string(), RegisteredScheme { factory: Box::new(factory), param_keys });
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.schemes.contains_key(name)
    }

    /// All registered names, in stable (sorted) order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.schemes.keys().map(String::as_str)
    }

    /// The parameter keys read by the scheme registered as `name`.
    pub fn param_keys(&self, name: &str) -> Option<&'static [&'static str]> {
        self.schemes.get(name).map(|s| s.param_keys)
    }

    /// Instantiates the scheme registered as `name` with `params`. Keys the
    /// scheme does not read are ignored, so one shared parameter bag can
    /// serve a whole pipeline.
    pub fn create(
        &self,
        name: &str,
        params: &SchemeParams,
    ) -> Result<Box<dyn CompressionScheme>, String> {
        let scheme = self.schemes.get(name).ok_or_else(|| self.unknown(name))?;
        (scheme.factory)(params)
    }

    /// The error for a name nothing is registered under.
    pub(crate) fn unknown(&self, name: &str) -> String {
        let known: Vec<&str> = self.names().collect();
        format!("unknown scheme '{name}' (known: {})", known.join(", "))
    }
}

impl Default for SchemeRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

fn tr_config(
    params: &SchemeParams,
    discipline: Discipline,
    choice: EdgeChoice,
) -> Result<TrConfig, String> {
    let cfg = TrConfig {
        p: params.get_f64("p", 0.5)?,
        x: params.get_u32("x", 1)? as usize,
        discipline,
        choice,
    };
    cfg.validate()?;
    Ok(cfg)
}

/// Numeric parameter `key`, required to lie in `[min, max]`; NaN fails the
/// range test, and `max = f64::MAX` means "any finite value from `min`".
fn ranged_f64(
    params: &SchemeParams,
    key: &str,
    default: f64,
    min: f64,
    max: f64,
) -> Result<f64, String> {
    let value = params.get_f64(key, default)?;
    if (min..=max).contains(&value) {
        return Ok(value);
    }
    let bound = if max == f64::MAX {
        format!("a finite number >= {min}")
    } else {
        format!("in [{min}, {max}]")
    };
    Err(format!("parameter {key} must be {bound}, got {value}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    #[test]
    fn registry_covers_the_zoo_and_every_scheme_applies() {
        let registry = SchemeRegistry::with_defaults();
        for required in [
            "uniform", "spectral", "tr", "tr-eo", "tr-ct", "tr-mw", "collapse", "lowdeg",
            "spanner", "summary", "cut",
        ] {
            assert!(registry.contains(required), "missing scheme '{required}'");
        }
        let g = generators::planted_triangles(&generators::erdos_renyi(300, 900, 1), 300, 2);
        let params = SchemeParams::from_pairs(&[("p", "0.4"), ("k", "4"), ("epsilon", "0.05")]);
        for name in registry.names() {
            let scheme = registry.create(name, &params).expect("factory succeeds");
            assert_eq!(scheme.name(), name, "name round-trips through the registry");
            let r = scheme.apply(&g, 7);
            assert!(
                r.graph.num_edges() <= g.num_edges() + g.num_edges() / 10,
                "{} inflated edges",
                scheme.label()
            );
            assert!(!scheme.label().is_empty());
        }
    }

    #[test]
    fn labels_render_name_and_params() {
        assert_eq!(Uniform { p: 0.2 }.label(), "uniform (p=0.2)");
        assert_eq!(Spanner { k: 16.0 }.label(), "spanner (k=16)");
        assert_eq!(LowDegree.label(), "lowdeg");
        // TR keeps the paper's naming.
        assert_eq!(TriangleReduction { cfg: TrConfig::edge_once_1(0.8) }.label(), "EO-0.8-1-TR");
    }

    #[test]
    fn unknown_names_and_bad_params_error() {
        let registry = SchemeRegistry::with_defaults();
        let err = registry.create("nope", &SchemeParams::new()).err().expect("unknown name errors");
        assert!(err.contains("unknown scheme"), "{err}");
        let bad = SchemeParams::from_pairs(&[("p", "abc")]);
        assert!(registry.create("uniform", &bad).is_err());
        let bad_x = SchemeParams::from_pairs(&[("x", "3")]);
        assert!(registry.create("tr", &bad_x).is_err());
    }

    #[test]
    fn out_of_range_numeric_parameters_are_errors_not_panics() {
        let registry = SchemeRegistry::with_defaults();
        for name in registry.names() {
            for &key in registry.param_keys(name).expect("registered") {
                let out_of_range = match (name, key) {
                    (_, "variant" | "reweight") => continue, // not numeric
                    ("spectral", "p") => "-0.5",
                    (_, "p") => "1.5",
                    ("spanner", "k") => "0.5",
                    ("cut", "k") => "-1",
                    (_, "epsilon") => "-0.1",
                    (_, "x") => "3",
                    other => panic!("no out-of-range value declared for {other:?}"),
                };
                for bad in [out_of_range, "nan", "inf"] {
                    let result = registry.create(name, &SchemeParams::from_pairs(&[(key, bad)]));
                    assert!(result.is_err(), "{name}:{key}={bad} must be rejected by create");
                }
            }
        }
    }

    #[test]
    fn pipeline_specs_reject_unknown_stage_parameters() {
        let registry = SchemeRegistry::with_defaults();
        let build = |spec: &str, base: &SchemeParams| {
            crate::PipelineSpec::parse(spec)?.build_with_base(&registry, base)
        };
        let base = SchemeParams::new();
        // Typo'd key (capital K) must fail loudly, not run with defaults.
        let err = build("spanner:K=4", &base).err().expect("typo rejected");
        assert!(err.contains("does not accept parameter 'K'"), "{err}");
        assert!(err.contains("accepts: k"), "{err}");
        let err = build("lowdeg:p=0.5", &base).err().expect("rejected");
        assert!(err.contains("accepts: none"), "{err}");
        // Valid per-stage keys still parse.
        assert_eq!(build("spanner:k=4,uniform:p=0.3", &base).expect("parses").stages().len(), 2);
        // Shared base params may carry keys some stages ignore.
        let shared = SchemeParams::from_pairs(&[("p", "0.5"), ("k", "4")]);
        assert!(build("spanner,lowdeg,uniform", &shared).is_ok());
    }

    #[test]
    fn cut_sparsifier_defaults_and_float_k_match_previous_cli_behavior() {
        let registry = SchemeRegistry::with_defaults();
        let cut = registry.create("cut", &SchemeParams::new()).expect("default");
        assert_eq!(cut.label(), "cut (k=8)", "default threshold is 8, as documented");
        let half = registry
            .create("cut", &SchemeParams::from_pairs(&[("k", "2.5")]))
            .expect("float k truncates");
        assert_eq!(half.label(), "cut (k=2)");
        let floor =
            registry.create("cut", &SchemeParams::from_pairs(&[("k", "0")])).expect("clamped to 1");
        assert_eq!(floor.label(), "cut (k=1)");
    }

    #[test]
    fn factories_match_direct_construction() {
        let g = generators::erdos_renyi(200, 800, 3);
        let registry = SchemeRegistry::with_defaults();
        let via_registry = registry
            .create("uniform", &SchemeParams::from_pairs(&[("p", "0.3")]))
            .expect("known scheme");
        let direct = Uniform { p: 0.3 };
        assert_eq!(
            via_registry.apply(&g, 11).graph.edge_slice(),
            direct.apply(&g, 11).graph.edge_slice()
        );
    }

    #[test]
    fn custom_registration_is_resolvable() {
        let mut registry = SchemeRegistry::new();
        registry.register("noop", &[], |_| Ok(Box::new(Uniform { p: 0.0 })));
        assert!(registry.contains("noop"));
        let g = generators::cycle(10);
        let r = registry.create("noop", &SchemeParams::new()).expect("registered").apply(&g, 0);
        assert_eq!(r.graph.num_edges(), g.num_edges());
    }
}
