//! Paper-scale streaming graph generation: emits a multi-million-node
//! synthetic graph *directly* into the durable snapshot format without ever
//! materializing a [`Graph`] (no per-node attribute heap, no `GraphBuilder`
//! edge list).
//!
//! The trick is determinism: every node block regenerates from an
//! independent RNG seeded by `(seed, stream, block)`, so the generator can
//! make several cheap passes over the node stream — one to collect labels
//! and edges, one per attribute walk of the snapshot encoder — instead of
//! holding the data. What stays in memory is O(|V| + |E|) flat primitives
//! (labels, both CSR arrays), a few megabytes per million nodes; attribute
//! values (the bulk of a graph's heap) are regenerated on demand.
//!
//! This module only generates. The snapshot bytes come from
//! [`wqe_store::write_source`], the encoder [`wqe_store::write_snapshot`]
//! uses too, and the diameter from [`wqe_graph::estimate_diameter`], the
//! estimate [`GraphBuilder::finalize`] makes; so the output is
//! byte-identical to building the same graph in memory ([`materialize`])
//! and writing it, which the cross-validation test pins. Scale snapshots
//! carry no PLL sections (`flags = 0`): graphs this size are past the PLL
//! crossover ([`wqe_index::Oracle::wants_labels`]), so a loaded context
//! serves distances from the BFS tier exactly like a fresh build would.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::Path;
use wqe_core::pool::fault::splitmix64;
use wqe_graph::{
    estimate_diameter, AttrId, AttrValue, EdgeLabelId, Graph, GraphBuilder, LabelId, NodeId, Schema,
};
use wqe_store::GraphSource;

/// Nodes per generation block: the RNG re-seeding granularity. Fixed, so
/// the generated graph is a function of the seed alone.
const GEN_BLOCK: usize = 4096;

/// Stream tags separating the node and edge RNG sequences.
const NODE_STREAM: u64 = 0x7771_655f_6e6f_6465; // "wqe_node"
const EDGE_STREAM: u64 = 0x7771_655f_6564_6765; // "wqe_edge"

/// Knobs of the streaming generator. The shape parameters mirror
/// [`crate::SynthConfig`]; the edge model is per-source (degree =
/// `floor(avg) + Bernoulli(frac)`, target id skewed toward low ids by
/// `u^(1 + 2*skew)`) so edges chunk cleanly, unlike the in-memory
/// generator's global preferential-attachment pool.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Dataset name (prefixes label names, as in [`crate::SynthConfig`]).
    pub name: String,
    /// `|V|`.
    pub nodes: u64,
    /// Mean out-degree.
    pub avg_out_degree: f64,
    /// Distinct node labels.
    pub labels: usize,
    /// Attribute slots per node (before signature dedup).
    pub attrs_per_node: usize,
    /// Distinct attribute names in the schema.
    pub attr_pool: usize,
    /// Fraction of attribute names that are numeric.
    pub numeric_ratio: f64,
    /// Distinct values per categorical attribute.
    pub categorical_domain: usize,
    /// Numeric value range (inclusive).
    pub numeric_range: (i64, i64),
    /// Target-id skew in `[0, 1]`: 0 = uniform, 1 = strongly hub-biased.
    pub skew: f64,
    /// Distinct edge labels.
    pub edge_labels: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ScaleConfig {
    /// A paper-scale default shape at the given size and seed.
    pub fn new(nodes: u64, seed: u64) -> Self {
        ScaleConfig {
            name: "scale".into(),
            nodes,
            avg_out_degree: 3.0,
            labels: 64,
            attrs_per_node: 6,
            attr_pool: 40,
            numeric_ratio: 0.6,
            categorical_domain: 24,
            numeric_range: (0, 10_000),
            skew: 0.5,
            edge_labels: 12,
            seed,
        }
    }
}

/// What [`stream_snapshot`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamReport {
    /// Nodes generated.
    pub nodes: u64,
    /// Edges generated (after self-loop and duplicate-target drops).
    pub edges: u64,
    /// Diameter estimate stored in the snapshot meta.
    pub diameter: u32,
    /// Snapshot file length in bytes.
    pub bytes: u64,
}

fn block_rng(seed: u64, stream: u64, block: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(stream ^ block)))
}

/// A generated attribute value before schema typing: numeric payload or
/// categorical domain index (`k` renders as the pooled string `"v{k}"`).
#[derive(Debug, Clone, Copy)]
enum RawValue {
    Int(i64),
    Cat(u32),
}

/// Sanitized derived parameters, computed once per run.
struct Knobs {
    label_count: usize,
    attr_pool: usize,
    numeric_cut: usize,
    domain: usize,
    edge_label_count: u32,
    base_deg: usize,
    extra_prob: f64,
    exponent: f64,
    /// Per-label deduplicated attribute signature: `(attr_id, slot)` pairs
    /// sorted by attr id, first slot kept — exactly the tuple order
    /// [`GraphBuilder::add_node_raw`] produces.
    sig_dedup: Vec<Vec<(u32, usize)>>,
    numeric_range: (i64, i64),
    attrs_per_node: usize,
}

impl Knobs {
    fn derive(cfg: &ScaleConfig) -> Knobs {
        let label_count = cfg.labels.max(1);
        let attr_pool = cfg.attr_pool.max(1);
        let sig_dedup = (0..label_count)
            .map(|l| {
                let mut sig: Vec<(u32, usize)> = (0..cfg.attrs_per_node)
                    .map(|j| (((l * 7 + j * 3) % attr_pool) as u32, j))
                    .collect();
                sig.sort_by_key(|&(a, _)| a);
                sig.dedup_by_key(|&mut (a, _)| a);
                sig
            })
            .collect();
        Knobs {
            label_count,
            attr_pool,
            numeric_cut: (attr_pool as f64 * cfg.numeric_ratio) as usize,
            domain: cfg.categorical_domain.max(1),
            edge_label_count: cfg.edge_labels.max(1) as u32,
            base_deg: cfg.avg_out_degree.max(0.0) as usize,
            extra_prob: cfg.avg_out_degree.max(0.0).fract(),
            exponent: 1.0 + 2.0 * cfg.skew,
            sig_dedup,
            numeric_range: cfg.numeric_range,
            attrs_per_node: cfg.attrs_per_node,
        }
    }

    /// Generates every node of `block`: `(label_idx, per-slot values)`.
    fn gen_node_block(&self, cfg: &ScaleConfig, block: u64) -> Vec<(u32, Vec<RawValue>)> {
        let lo = block as usize * GEN_BLOCK;
        let hi = (lo + GEN_BLOCK).min(cfg.nodes as usize);
        let mut rng = block_rng(cfg.seed, NODE_STREAM, block);
        let (vlo, vhi) = self.numeric_range;
        (lo..hi)
            .map(|_| {
                let r: f64 = rng.gen();
                let label_idx = ((r * r) * self.label_count as f64) as usize % self.label_count;
                let values = (0..self.attrs_per_node)
                    .map(|j| {
                        let ai = (label_idx * 7 + j * 3) % self.attr_pool;
                        if ai < self.numeric_cut {
                            RawValue::Int(rng.gen_range(vlo..=vhi))
                        } else {
                            RawValue::Cat(rng.gen_range(0..self.domain as u32))
                        }
                    })
                    .collect();
                (label_idx as u32, values)
            })
            .collect()
    }

    /// One source node's outgoing edge run: `(target, edge_label)` sorted
    /// by target, one edge per target, self-loops dropped.
    fn gen_edge_run(&self, rng: &mut StdRng, n: u64, src: u64) -> Vec<(u32, u32)> {
        let deg = self.base_deg + usize::from(rng.gen::<f64>() < self.extra_prob);
        let mut run: Vec<(u32, u32)> = Vec::with_capacity(deg);
        for _ in 0..deg {
            let u: f64 = rng.gen();
            let t = ((n as f64) * u.powf(self.exponent)) as u64;
            let t = t.min(n - 1);
            let l = rng.gen_range(0..self.edge_label_count);
            if t != src {
                run.push((t as u32, l));
            }
        }
        run.sort_unstable();
        // One edge per (source, target): the in-memory CSR sorts runs by
        // target with an *unstable* sort, so duplicate targets would make
        // byte-level reproduction order-dependent.
        run.dedup_by_key(|p| p.0);
        run
    }
}

fn blocks(nodes: u64) -> u64 {
    nodes.div_ceil(GEN_BLOCK as u64)
}

/// The schema: labels, then attributes, then edge labels, each interned in
/// index order so `"{name}_L{i}"`, `"a{i}"` and `"r{i}"` get id `i`.
fn schema(cfg: &ScaleConfig, k: &Knobs) -> Schema {
    let mut schema = Schema::default();
    for i in 0..k.label_count {
        schema.label(&format!("{}_L{i}", cfg.name));
    }
    for i in 0..k.attr_pool {
        schema.attr(&format!("a{i}"));
    }
    for i in 0..k.edge_label_count {
        schema.edge_label(&format!("r{i}"));
    }
    schema
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg.into())
}

/// A generated graph as the snapshot encoder reads it: labels and both CSR
/// arrays held flat, attribute tuples regenerated block by block on every
/// walk.
struct Generated<'a> {
    cfg: &'a ScaleConfig,
    k: Knobs,
    schema: Schema,
    labels: Vec<LabelId>,
    out: (Vec<u32>, Vec<(NodeId, EdgeLabelId)>),
    inn: (Vec<u32>, Vec<(NodeId, EdgeLabelId)>),
    diameter: u32,
    /// `Str("v{c}")` for every categorical domain index `c`, so the walk
    /// lends values instead of allocating one string per entry.
    categorical: Vec<AttrValue>,
}

impl<'a> Generated<'a> {
    /// Generates labels and edges (attribute values are left to the walks)
    /// and derives the reverse CSR and the diameter.
    fn new(cfg: &'a ScaleConfig) -> io::Result<Generated<'a>> {
        let n = cfg.nodes;
        if n > u32::MAX as u64 - 1 {
            return Err(invalid(format!("{n} nodes exceeds the u32 node-id space")));
        }
        let k = Knobs::derive(cfg);
        let mut labels = Vec::with_capacity(n as usize);
        for b in 0..blocks(n) {
            labels.extend(
                k.gen_node_block(cfg, b)
                    .into_iter()
                    .map(|(l, _)| LabelId(l)),
            );
        }
        let mut out_offsets: Vec<u32> = Vec::with_capacity(n as usize + 1);
        out_offsets.push(0);
        let mut out_targets: Vec<(NodeId, EdgeLabelId)> = Vec::new();
        for b in 0..blocks(n) {
            let mut rng = block_rng(cfg.seed, EDGE_STREAM, b);
            let lo = b as usize * GEN_BLOCK;
            let hi = (lo + GEN_BLOCK).min(n as usize);
            for src in lo..hi {
                let run = k.gen_edge_run(&mut rng, n, src as u64);
                out_targets.extend(run.into_iter().map(|(t, l)| (NodeId(t), EdgeLabelId(l))));
                let total = u32::try_from(out_targets.len())
                    .map_err(|_| invalid("edge count exceeds the u32 CSR offset space"))?;
                out_offsets.push(total);
            }
        }

        // Reverse CSR by counting scatter: in-runs come out sorted by source
        // because sources are visited in ascending id order.
        let n = n as usize;
        let mut in_offsets = vec![0u32; n + 1];
        for &(t, _) in &out_targets {
            in_offsets[t.index() + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor: Vec<u32> = in_offsets[..n].to_vec();
        let mut in_sources = vec![(NodeId(0), EdgeLabelId(0)); out_targets.len()];
        for src in 0..n {
            let (lo, hi) = (out_offsets[src] as usize, out_offsets[src + 1] as usize);
            for &(t, l) in &out_targets[lo..hi] {
                in_sources[cursor[t.index()] as usize] = (NodeId(src as u32), l);
                cursor[t.index()] += 1;
            }
        }

        Ok(Generated {
            cfg,
            schema: schema(cfg, &k),
            labels,
            diameter: estimate_diameter(&out_offsets, &out_targets),
            out: (out_offsets, out_targets),
            inn: (in_offsets, in_sources),
            categorical: (0..k.domain)
                .map(|c| AttrValue::Str(format!("v{c}")))
                .collect(),
            k,
        })
    }
}

impl GraphSource for Generated<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn label(&self, v: NodeId) -> LabelId {
        self.labels[v.index()]
    }

    fn tuple_len(&self, v: NodeId) -> usize {
        self.k.sig_dedup[self.labels[v.index()].index()].len()
    }

    fn each_attr(
        &self,
        emit: &mut dyn FnMut(AttrId, &AttrValue) -> io::Result<()>,
    ) -> io::Result<()> {
        for b in 0..blocks(self.cfg.nodes) {
            for (label_idx, values) in self.k.gen_node_block(self.cfg, b) {
                for &(attr_id, slot) in &self.k.sig_dedup[label_idx as usize] {
                    let int;
                    let value = match values[slot] {
                        RawValue::Int(i) => {
                            int = AttrValue::Int(i);
                            &int
                        }
                        RawValue::Cat(c) => &self.categorical[c as usize],
                    };
                    emit(AttrId(attr_id), value)?;
                }
            }
        }
        Ok(())
    }

    fn out_csr(&self) -> (&[u32], &[(NodeId, EdgeLabelId)]) {
        (&self.out.0, &self.out.1)
    }

    fn in_csr(&self) -> (&[u32], &[(NodeId, EdgeLabelId)]) {
        (&self.inn.0, &self.inn.1)
    }

    fn raw_diameter(&self) -> u32 {
        self.diameter
    }
}

/// Generates the configured graph and streams it straight into a snapshot
/// at `path`. Peak memory is the flat label/CSR arrays plus the encoder's
/// buffer and string pool; attribute tuples never exist in memory all at
/// once.
pub fn stream_snapshot(cfg: &ScaleConfig, path: &Path) -> std::io::Result<StreamReport> {
    let g = Generated::new(cfg)?;
    let bytes = wqe_store::write_source(path, &g, None)?;
    Ok(StreamReport {
        nodes: cfg.nodes,
        edges: g.out.1.len() as u64,
        diameter: g.diameter,
        bytes,
    })
}

/// Builds the *same* graph [`stream_snapshot`] emits, in memory through
/// [`GraphBuilder`] — quadratic in nothing but also not streaming, so only
/// sensible at test scale. Exists so the byte-identity of the streamed
/// path can be pinned against the batch writer.
pub fn materialize(cfg: &ScaleConfig) -> Graph {
    let k = Knobs::derive(cfg);
    let mut b = GraphBuilder::with_schema(schema(cfg, &k));
    for blk in 0..blocks(cfg.nodes) {
        for (label_idx, values) in k.gen_node_block(cfg, blk) {
            let tuple: Vec<(AttrId, AttrValue)> = values
                .iter()
                .enumerate()
                .map(|(j, &v)| {
                    let ai = (label_idx as usize * 7 + j * 3) % k.attr_pool;
                    let value = match v {
                        RawValue::Int(i) => AttrValue::Int(i),
                        RawValue::Cat(c) => AttrValue::Str(format!("v{c}")),
                    };
                    (AttrId(ai as u32), value)
                })
                .collect();
            b.add_node_raw(LabelId(label_idx), tuple);
        }
    }
    for blk in 0..blocks(cfg.nodes) {
        let mut rng = block_rng(cfg.seed, EDGE_STREAM, blk);
        let lo = blk as usize * GEN_BLOCK;
        let hi = (lo + GEN_BLOCK).min(cfg.nodes as usize);
        for src in lo..hi {
            for (t, l) in k.gen_edge_run(&mut rng, cfg.nodes, src as u64) {
                b.add_edge_raw(NodeId(src as u32), NodeId(t), EdgeLabelId(l));
            }
        }
    }
    b.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    static TEMP_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "wqe-scale-test-{tag}-{}-{}.wqs",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn small_cfg(nodes: u64, seed: u64) -> ScaleConfig {
        ScaleConfig::new(nodes, seed)
    }

    #[test]
    fn streamed_bytes_match_batch_writer() {
        // The whole point: streaming the graph section-by-section must
        // produce the exact bytes of materializing it and batch-writing.
        let cfg = small_cfg(1500, 11);
        let (ps, pb) = (temp("stream"), temp("batch"));
        let report = stream_snapshot(&cfg, &ps).unwrap();
        let g = materialize(&cfg);
        wqe_store::write_snapshot(&pb, &g, None).unwrap();
        assert_eq!(report.nodes as usize, g.node_count());
        assert_eq!(report.edges as usize, g.edge_count());
        assert_eq!(report.diameter, g.raw_diameter());
        assert_eq!(
            std::fs::read(&ps).unwrap(),
            std::fs::read(&pb).unwrap(),
            "streamed snapshot differs from batch-written snapshot"
        );
        std::fs::remove_file(&ps).ok();
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn deterministic_in_seed_divergent_across_seeds() {
        let (p1, p2, p3) = (temp("s1"), temp("s2"), temp("s3"));
        stream_snapshot(&small_cfg(800, 42), &p1).unwrap();
        stream_snapshot(&small_cfg(800, 42), &p2).unwrap();
        stream_snapshot(&small_cfg(800, 43), &p3).unwrap();
        let (b1, b2, b3) = (
            std::fs::read(&p1).unwrap(),
            std::fs::read(&p2).unwrap(),
            std::fs::read(&p3).unwrap(),
        );
        assert_eq!(b1, b2);
        assert_ne!(b1, b3);
        for p in [p1, p2, p3] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn streamed_snapshot_loads_and_serves() {
        let cfg = small_cfg(1200, 9);
        let p = temp("load");
        let report = stream_snapshot(&cfg, &p).unwrap();
        let snap = wqe_store::Snapshot::open(&p).unwrap();
        assert!(!snap.meta().has_pll(), "scale snapshots carry no PLL");
        let g = snap.load_graph().unwrap();
        assert_eq!(g.node_count() as u64, report.nodes);
        assert_eq!(g.edge_count() as u64, report.edges);
        assert_eq!(g.raw_diameter(), report.diameter);
        assert!(g.edge_count() > 0);
        // Adjacency is usable and sorted the way the matcher expects.
        let some = wqe_graph::NodeId(0);
        let neigh = g.out_neighbors(some);
        assert!(neigh.windows(2).all(|w| w[0].0 <= w[1].0));
        // Statistics cover both value kinds.
        let (mut numeric, mut cat) = (false, false);
        for a in g.schema().attr_ids() {
            if let Some(s) = g.attr_stats(a) {
                numeric |= s.numeric_count > 0;
                cat |= s.distinct_categorical > 0;
            }
        }
        assert!(numeric && cat);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_and_tiny_graphs_stream() {
        for n in [0u64, 1, 2] {
            let p = temp("tiny");
            let report = stream_snapshot(&small_cfg(n, 1), &p).unwrap();
            assert_eq!(report.nodes, n);
            let snap = wqe_store::Snapshot::open(&p).unwrap();
            assert_eq!(snap.load_graph().unwrap().node_count() as u64, n);
            std::fs::remove_file(&p).ok();
        }
    }
}
