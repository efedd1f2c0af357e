//! Named graph handles — the load-once registry behind the session API.
//!
//! A serving process loads a graph **once** and answers many pipeline
//! requests against it. [`GraphCatalog`] is that registry: it maps names
//! to [`GraphHandle`]s (ref-counted [`CsrGraph`]s tagged with a process-
//! unique [`GraphId`]), loading each name at most once. Handles are cheap
//! to clone and keep the graph alive even after the catalog entry is
//! evicted, so in-flight requests never observe a graph disappearing
//! under them; `.sgr` entries opened through the zero-copy
//! [`sg_store::MmapGraph`] path equally keep the file mapping alive via
//! the sections' anchor.
//!
//! The [`GraphId`] is the cache-key ingredient: two different graphs can
//! never share an id, so [`crate::cache::StageCache`] entries can never be
//! served across graphs even if a name is evicted and re-registered.

use sg_graph::{io, CsrGraph};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Process-unique identifier of one catalog registration.
///
/// Ids are minted from one **process-global** counter (not per-catalog)
/// and never reused: re-registering a name after an eviction — or
/// registering in a *different* catalog — always mints a fresh id. This
/// is what keeps stage-cache keys unambiguous even when one
/// [`crate::cache::StageCache`] is shared across sessions with different
/// catalogs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphId(pub u64);

/// Process-global id source (see [`GraphId`]).
static NEXT_GRAPH_ID: AtomicU64 = AtomicU64::new(1);

impl std::fmt::Display for GraphId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A graph storage format the catalog (and the CLI) can read and write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphFormat {
    /// Whitespace edge list, `u v [w]` per line.
    Text,
    /// Compact binary edge list.
    Bin,
    /// Zero-copy binary CSR container (loaded through a read-only mmap).
    Sgr,
}

impl GraphFormat {
    /// Resolves a format from an explicit name (`text`/`txt`, `bin`,
    /// `sgr`), falling back to the file extension, defaulting to text.
    pub fn resolve(path: &str, explicit: Option<&str>) -> Result<GraphFormat, String> {
        match explicit {
            Some("text" | "txt") => Ok(GraphFormat::Text),
            Some("bin") => Ok(GraphFormat::Bin),
            Some("sgr") => Ok(GraphFormat::Sgr),
            Some(other) => Err(format!("unknown format '{other}' (text|bin|sgr)")),
            None if path.ends_with(".bin") => Ok(GraphFormat::Bin),
            None if path.ends_with(".sgr") => Ok(GraphFormat::Sgr),
            None => Ok(GraphFormat::Text),
        }
    }

    /// The explicit name [`GraphFormat::resolve`] maps back to this format.
    pub fn name(self) -> &'static str {
        match self {
            GraphFormat::Text => "text",
            GraphFormat::Bin => "bin",
            GraphFormat::Sgr => "sgr",
        }
    }
}

/// Loads a graph from `path` honoring an optional explicit format name.
/// `.sgr` inputs go through the zero-copy mmap loader — the CSR arrays
/// stay borrowed from the mapping for the graph's whole lifetime; with
/// `trusted` the `.sgr` checksum pass is skipped (structural validation
/// still runs).
pub fn load_graph(path: &str, explicit: Option<&str>, trusted: bool) -> Result<CsrGraph, String> {
    let verify = if trusted { sg_store::Verify::Trusted } else { sg_store::Verify::Checksum };
    let res = match GraphFormat::resolve(path, explicit)? {
        GraphFormat::Text => io::load_text(path),
        GraphFormat::Bin => io::load_binary(path),
        GraphFormat::Sgr => {
            sg_store::MmapGraph::open_with(path, verify).map(sg_store::MmapGraph::into_graph)
        }
    };
    res.map_err(|e| format!("loading {path}: {e}"))
}

/// Estimated heap/mapping footprint of a graph's CSR arrays, in bytes.
///
/// This is the shared currency of every byte budget in the system: the
/// stage cache's capacity accounting, the catalog's [`GraphCatalog::
/// total_bytes`], and the serving layer's per-client quotas all measure
/// graphs with this one function, so a graph "costs" the same everywhere.
pub fn graph_approx_bytes(g: &CsrGraph) -> usize {
    g.csr_offsets().len() * 8
        + g.csr_targets().len() * 4
        + g.csr_slot_edges().len() * 4
        + g.edge_slice().len() * 8
        + g.weight_slice().map_or(0, |w| w.len() * 4)
}

/// Saves a graph to `path` honoring an optional explicit format name and
/// `.sgr` adjacency [`sg_store::Encoding`] (raw v1 sections,
/// Stream VByte/bitmap v3 sections, or auto = whichever container is
/// smaller). The encoding only affects the `.sgr` format; text and binary
/// outputs ignore it.
pub fn save_graph_with(
    g: &CsrGraph,
    path: &str,
    explicit: Option<&str>,
    encoding: sg_store::Encoding,
) -> Result<(), String> {
    let res = match GraphFormat::resolve(path, explicit)? {
        GraphFormat::Text => io::save_text(g, path),
        GraphFormat::Bin => io::save_binary(g, path).map(|_| ()),
        GraphFormat::Sgr => sg_store::save_sgr_with(g, path, encoding).map(|_| ()),
    };
    res.map_err(|e| format!("writing {path}: {e}"))
}

/// A named, ref-counted graph registration. Cloning is cheap (`Arc`s);
/// the underlying graph stays alive as long as any handle does.
#[derive(Clone)]
pub struct GraphHandle {
    id: GraphId,
    name: Arc<str>,
    source: Arc<str>,
    graph: Arc<CsrGraph>,
}

impl GraphHandle {
    /// The process-unique id of this registration.
    pub fn id(&self) -> GraphId {
        self.id
    }

    /// The catalog name this handle was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Human-readable provenance (file path, generator preset, …).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The shared graph allocation (for zero-clone handoff into caches).
    pub fn graph_arc(&self) -> &Arc<CsrGraph> {
        &self.graph
    }

    /// Estimated byte footprint of the registered graph
    /// ([`graph_approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        graph_approx_bytes(&self.graph)
    }
}

impl std::fmt::Debug for GraphHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphHandle")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("source", &self.source)
            .field("vertices", &self.graph.num_vertices())
            .field("edges", &self.graph.num_edges())
            .finish()
    }
}

/// The name → handle registry. All methods take `&self`; the catalog is
/// safe to share across daemon connection threads.
pub struct GraphCatalog {
    entries: Mutex<BTreeMap<String, GraphHandle>>,
}

impl GraphCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self { entries: Mutex::new(BTreeMap::new()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, GraphHandle>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn mint(&self, name: &str, source: &str, graph: Arc<CsrGraph>) -> GraphHandle {
        GraphHandle {
            id: GraphId(NEXT_GRAPH_ID.fetch_add(1, Ordering::Relaxed)),
            name: Arc::from(name),
            source: Arc::from(source),
            graph,
        }
    }

    /// Registers an in-memory graph under `name`. Errors if the name is
    /// already taken (evict first to replace).
    pub fn insert(&self, name: &str, graph: CsrGraph, source: &str) -> Result<GraphHandle, String> {
        self.insert_arc(name, Arc::new(graph), source)
    }

    /// [`GraphCatalog::insert`] for an already-shared graph allocation.
    pub fn insert_arc(
        &self,
        name: &str,
        graph: Arc<CsrGraph>,
        source: &str,
    ) -> Result<GraphHandle, String> {
        if name.is_empty() {
            return Err("graph name must be non-empty".to_string());
        }
        let mut entries = self.lock();
        if entries.contains_key(name) {
            return Err(format!("graph '{name}' is already loaded (evict it to replace)"));
        }
        let handle = self.mint(name, source, graph);
        entries.insert(name.to_string(), handle.clone());
        Ok(handle)
    }

    /// Loads `path` under `name` — **at most once**: if `name` is already
    /// registered the existing handle is returned without touching the
    /// file. Returns `(handle, freshly_loaded)`.
    pub fn open(
        &self,
        name: &str,
        path: &str,
        explicit_format: Option<&str>,
        trusted: bool,
    ) -> Result<(GraphHandle, bool), String> {
        if let Some(existing) = self.get(name) {
            return Ok((existing, false));
        }
        // Load outside the lock: concurrent first loads of the same name
        // may both read the file, but only one registration wins and the
        // loser's race is resolved by returning the winner's handle.
        let graph = load_graph(path, explicit_format, trusted)?;
        match self.insert(name, graph, path) {
            Ok(handle) => Ok((handle, true)),
            Err(_) => Ok((self.get(name).expect("insert raced with another load"), false)),
        }
    }

    /// The handle registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<GraphHandle> {
        self.lock().get(name).cloned()
    }

    /// Removes `name`; returns the evicted handle (which keeps the graph
    /// alive for any in-flight request still holding a clone).
    pub fn remove(&self, name: &str) -> Option<GraphHandle> {
        self.lock().remove(name)
    }

    /// Every registered handle, in name order.
    pub fn list(&self) -> Vec<GraphHandle> {
        self.lock().values().cloned().collect()
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Estimated total byte footprint of all registered graphs.
    pub fn total_bytes(&self) -> usize {
        self.lock().values().map(GraphHandle::approx_bytes).sum()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

impl Default for GraphCatalog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("sg-core-catalog-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn format_names_resolve_to_their_format() {
        for f in [GraphFormat::Text, GraphFormat::Bin, GraphFormat::Sgr] {
            assert_eq!(GraphFormat::resolve("x", Some(f.name())), Ok(f));
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let catalog = GraphCatalog::new();
        let g = generators::erdos_renyi(100, 300, 1);
        let h = catalog.insert("a", g.clone(), "test").expect("insert");
        assert_eq!(h.name(), "a");
        assert_eq!(h.graph().num_edges(), g.num_edges());
        assert!(catalog.insert("a", g, "test").is_err(), "duplicate names are rejected");
        let got = catalog.get("a").expect("present");
        assert_eq!(got.id(), h.id());
        let evicted = catalog.remove("a").expect("evicts");
        assert!(catalog.get("a").is_none());
        // The evicted handle still serves the graph.
        assert_eq!(evicted.graph().num_edges(), h.graph().num_edges());
    }

    #[test]
    fn reregistration_mints_a_fresh_id() {
        let catalog = GraphCatalog::new();
        let a = catalog.insert("g", generators::cycle(10), "v1").expect("insert");
        catalog.remove("g");
        let b = catalog.insert("g", generators::cycle(12), "v2").expect("reinsert");
        assert_ne!(a.id(), b.id(), "ids are never reused");
    }

    #[test]
    fn ids_are_unique_across_catalogs() {
        // A StageCache may be shared by sessions over *different*
        // catalogs; ids from separate catalogs must never collide or one
        // graph's cached bytes could answer for another graph.
        let a = GraphCatalog::new().insert("g", generators::cycle(8), "a").expect("insert");
        let b = GraphCatalog::new().insert("g", generators::cycle(8), "b").expect("insert");
        assert_ne!(a.id(), b.id(), "ids are process-global, not per-catalog");
    }

    #[test]
    fn open_loads_once() {
        let catalog = GraphCatalog::new();
        let path = tmp("once.txt");
        io::save_text(&generators::erdos_renyi(50, 150, 2), &path).expect("save");
        let (first, fresh) = catalog.open("g", &path, None, false).expect("open");
        assert!(fresh);
        // Second open of the same name does not re-read (the file may even
        // be gone).
        std::fs::remove_file(&path).expect("rm");
        let (second, fresh) = catalog.open("g", &path, None, false).expect("open again");
        assert!(!fresh);
        assert_eq!(first.id(), second.id());
    }

    #[test]
    fn open_reports_load_errors() {
        let catalog = GraphCatalog::new();
        let err = catalog.open("g", "/nonexistent/g.txt", None, false).unwrap_err();
        assert!(err.contains("loading"), "{err}");
        assert!(catalog.is_empty());
    }

    #[test]
    fn format_resolution_matches_cli_semantics() {
        assert_eq!(GraphFormat::resolve("x.bin", None).unwrap(), GraphFormat::Bin);
        assert_eq!(GraphFormat::resolve("x.sgr", None).unwrap(), GraphFormat::Sgr);
        assert_eq!(GraphFormat::resolve("x.edges", None).unwrap(), GraphFormat::Text);
        assert_eq!(GraphFormat::resolve("x.bin", Some("text")).unwrap(), GraphFormat::Text);
        assert!(GraphFormat::resolve("x", Some("nope")).is_err());
    }
}
