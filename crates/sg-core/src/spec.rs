//! Serializable pipeline specifications.
//!
//! A [`PipelineSpec`] is the *data* form of a [`crate::Pipeline`]: an
//! ordered list of stage names with their parameter bags. Where a
//! `Pipeline` holds boxed scheme objects ready to run, a `PipelineSpec` is
//! `Clone + Ord + Eq`, renders to the CLI's textual spec syntax
//! (`spanner:k=4,uniform:p=0.3`), parses back losslessly, and builds into a
//! `Pipeline` against any [`SchemeRegistry`]. This makes scheme chains
//! first-class *values* that can be enumerated, mutated, compared, hashed,
//! and reported — the representation `sg-tune` searches over.

use crate::scheme::{SchemeParams, SchemeRegistry};
use crate::Pipeline;

/// One stage of a [`PipelineSpec`]: a registry name plus its parameters.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct StageSpec {
    /// Registry name of the scheme (`"uniform"`, `"spanner"`, …).
    pub name: String,
    /// Stage parameters (only keys the scheme reads are meaningful).
    pub params: SchemeParams,
}

impl StageSpec {
    /// A stage with no explicit parameters (factory defaults apply).
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), params: SchemeParams::new() }
    }

    /// A stage with parameters from `(key, value)` pairs.
    pub fn with_params(name: impl Into<String>, pairs: &[(&str, &str)]) -> Self {
        Self { name: name.into(), params: SchemeParams::from_pairs(pairs) }
    }

    /// Renders as `name` or `name:key=value:key=value` (keys in sorted
    /// order, so rendering is canonical).
    pub fn render(&self) -> String {
        let mut out = self.name.clone();
        for (k, v) in self.params.iter() {
            out.push(':');
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        out
    }
}

/// A serializable chain of compression stages.
///
/// Invariants are *not* enforced at construction: names and parameters are
/// validated when the spec is [built](PipelineSpec::build) against a
/// registry, exactly as the textual syntax is.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct PipelineSpec {
    /// Stages in execution order.
    pub stages: Vec<StageSpec>,
}

impl PipelineSpec {
    /// A spec over the given stages.
    pub fn from_stages(stages: Vec<StageSpec>) -> Self {
        Self { stages }
    }

    /// Parses the CLI spec syntax: comma-separated stages, each `name` or
    /// `name:key=value[:key=value…]`. Inverse of [`PipelineSpec::render`]
    /// up to key ordering and whitespace.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut stages = Vec::new();
        for stage_spec in spec.split(',') {
            let stage_spec = stage_spec.trim();
            if stage_spec.is_empty() {
                return Err(format!("empty stage in pipeline spec '{spec}'"));
            }
            let mut parts = stage_spec.split(':');
            let name = parts.next().expect("split yields at least one part");
            let mut params = SchemeParams::new();
            for assignment in parts {
                params.parse_assignment(assignment)?;
            }
            stages.push(StageSpec { name: name.to_string(), params });
        }
        Ok(Self { stages })
    }

    /// Renders as the canonical textual form: stages joined with `,`, each
    /// stage's keys in sorted order. `parse(render(s)) == s` for any spec
    /// whose values round-trip through `String` (all generated specs do).
    pub fn render(&self) -> String {
        self.stages.iter().map(StageSpec::render).collect::<Vec<_>>().join(",")
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the spec has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// [Resolves](PipelineSpec::resolve) the spec against `registry` and
    /// `base`, then instantiates one scheme per resolved stage. The
    /// returned pipeline carries the resolved spec next to its schemes.
    pub fn build_with_base(
        &self,
        registry: &SchemeRegistry,
        base: &SchemeParams,
    ) -> Result<Pipeline, String> {
        self.resolve(registry, base)?.instantiate(registry)
    }

    /// Instantiates one scheme per stage of a resolved spec; a factory
    /// rejects a parameter value out of its range.
    pub(crate) fn instantiate(self, registry: &SchemeRegistry) -> Result<Pipeline, String> {
        let schemes = self
            .stages
            .iter()
            .map(|stage| registry.create(&stage.name, &stage.params))
            .collect::<Result<_, _>>()?;
        Ok(Pipeline { spec: self, schemes })
    }

    /// [`PipelineSpec::build_with_base`] with an empty base bag.
    pub fn build(&self, registry: &SchemeRegistry) -> Result<Pipeline, String> {
        self.build_with_base(registry, &SchemeParams::new())
    }

    /// Canonicalizes the spec against a registry and a base parameter bag —
    /// the one place stage names and per-stage keys are validated — then
    /// folds the base parameters into each stage, keeping only keys the
    /// stage's scheme actually reads. The returned spec is
    /// **self-contained**: `resolved.build(registry)` constructs the same
    /// schemes as `self.build_with_base(registry, base)`, and the resolved
    /// rendering is a sound cache key (two invocations that would run
    /// different scheme configurations can never render identically).
    pub fn resolve(
        &self,
        registry: &SchemeRegistry,
        base: &SchemeParams,
    ) -> Result<PipelineSpec, String> {
        let mut stages = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let keys =
                registry.param_keys(&stage.name).ok_or_else(|| registry.unknown(&stage.name))?;
            for (key, _) in stage.params.iter() {
                if !keys.contains(&key) {
                    return Err(format!(
                        "scheme '{}' does not accept parameter '{key}' (accepts: {})",
                        stage.name,
                        if keys.is_empty() { "none".to_string() } else { keys.join(", ") }
                    ));
                }
            }
            // The stage's own values override the base bag's.
            let mut params = SchemeParams::new();
            for (key, value) in base.iter().chain(stage.params.iter()) {
                if keys.contains(&key) {
                    params.set(key, value);
                }
            }
            stages.push(StageSpec { name: stage.name.clone(), params });
        }
        Ok(PipelineSpec { stages })
    }
}

impl std::fmt::Display for PipelineSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    #[test]
    fn render_parse_roundtrip() {
        let spec = PipelineSpec::from_stages(vec![
            StageSpec::with_params("spanner", &[("k", "4")]),
            StageSpec::new("lowdeg"),
            StageSpec::with_params("uniform", &[("p", "0.3")]),
        ]);
        let rendered = spec.render();
        assert_eq!(rendered, "spanner:k=4,lowdeg,uniform:p=0.3");
        assert_eq!(PipelineSpec::parse(&rendered).expect("parses"), spec);
        assert_eq!(format!("{spec}"), rendered);
    }

    #[test]
    fn multi_key_stages_render_sorted() {
        let spec = PipelineSpec::from_stages(vec![StageSpec::with_params(
            "spectral",
            &[("variant", "avgdeg"), ("p", "0.4")],
        )]);
        // BTreeMap ordering: p before variant regardless of insertion order.
        assert_eq!(spec.render(), "spectral:p=0.4:variant=avgdeg");
        assert_eq!(PipelineSpec::parse(&spec.render()).expect("parses"), spec);
    }

    #[test]
    fn build_with_base_matches_the_textual_spec() {
        // A base bag layered under bare stages builds the same pipeline as
        // the textual per-stage form, and carries that form resolved.
        let registry = SchemeRegistry::with_defaults();
        let g = generators::erdos_renyi(300, 1000, 3);
        let text = "spanner:k=4,uniform:p=0.3";
        let via_text = PipelineSpec::parse(text).expect("parses").build(&registry).expect("builds");
        let base = SchemeParams::from_pairs(&[("k", "4"), ("p", "0.3"), ("epsilon", "0.2")]);
        let via_base = PipelineSpec::parse("spanner,uniform")
            .expect("parses")
            .build_with_base(&registry, &base)
            .expect("builds");
        assert_eq!(via_base.spec.render(), text);
        let a = via_text.apply(&g, 9);
        let b = via_base.apply(&g, 9);
        assert_eq!(a.result.graph.edge_slice(), b.result.graph.edge_slice());
    }

    #[test]
    fn build_validates_names_and_keys() {
        let registry = SchemeRegistry::with_defaults();
        let unknown = PipelineSpec::from_stages(vec![StageSpec::new("nope")]);
        let err = unknown.build(&registry).err().expect("unknown name errors");
        assert!(err.contains("unknown scheme"), "{err}");
        let bad_key =
            PipelineSpec::from_stages(vec![StageSpec::with_params("lowdeg", &[("p", "0.5")])]);
        let err = bad_key.build(&registry).err().expect("bad key errors");
        assert!(err.contains("accepts: none"), "{err}");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(PipelineSpec::parse("uniform,,lowdeg").is_err());
        assert!(PipelineSpec::parse("uniform:p").is_err());
        assert!(PipelineSpec::parse("").is_err());
    }

    #[test]
    fn specs_order_deterministically() {
        let a = PipelineSpec::parse("lowdeg").expect("parses");
        let b = PipelineSpec::parse("uniform:p=0.5").expect("parses");
        assert!(a < b, "ordering follows stage names");
        let mut v = vec![b.clone(), a.clone()];
        v.sort();
        assert_eq!(v, vec![a, b]);
    }
}
