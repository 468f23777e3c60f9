//! Paper-scale streaming graph generation: emits a multi-million-node
//! synthetic graph *directly* into the durable snapshot format, section by
//! section, without ever materializing a [`Graph`] (no per-node attribute
//! heap, no `GraphBuilder` edge list).
//!
//! The trick is determinism: every node block regenerates from an
//! independent RNG seeded by `(seed, stream, block)`, so the generator can
//! make several cheap passes over the node stream — one to collect labels
//! and edges, one to emit attribute tuples — instead of holding the data.
//! What stays in memory is O(|V| + |E|) flat primitives (labels, both CSR
//! arrays), a few megabytes per million nodes; attribute values (the bulk
//! of a graph's heap) are regenerated on demand.
//!
//! The output is *byte-identical* to building the same graph in memory and
//! handing it to [`wqe_store::write_snapshot`] — including the diameter
//! estimate, whose double-sweep (and its tie-breaking) is replicated
//! exactly — which is what the cross-validation test pins. Scale snapshots
//! carry no PLL sections (`flags = 0`): graphs this size are past the PLL
//! crossover ([`wqe_index::Oracle::wants_labels`]), so a loaded context
//! serves distances from the BFS tier exactly like a fresh build would.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::path::Path;
use wqe_graph::{AttrValue, Graph, GraphBuilder};
use wqe_store::format::{SectionId, TAG_INT, TAG_STR};
use wqe_store::SnapshotWriter;

/// Nodes per generation block: the RNG re-seeding granularity. Fixed (and
/// independent of [`ScaleConfig::chunk`]) so the generated graph is a
/// function of the seed alone, never of I/O buffering.
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
    /// I/O buffer granularity in section-array elements. Changes write-call
    /// sizes only — never the bytes produced.
    pub chunk: usize,
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
            chunk: 65_536,
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

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
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

/// Schema name lists in id order — must serialize byte-identically to the
/// batch writer's section payload (same field order, same JSON encoder).
#[derive(Serialize)]
struct SchemaJson {
    labels: Vec<String>,
    attrs: Vec<String>,
    edge_labels: Vec<String>,
}

fn schema_names(cfg: &ScaleConfig, k: &Knobs) -> SchemaJson {
    SchemaJson {
        labels: (0..k.label_count)
            .map(|i| format!("{}_L{i}", cfg.name))
            .collect(),
        attrs: (0..k.attr_pool).map(|i| format!("a{i}")).collect(),
        edge_labels: (0..k.edge_label_count).map(|i| format!("r{i}")).collect(),
    }
}

/// Buffered primitive emission into the open section of a
/// [`SnapshotWriter`]: flushes every `cap` bytes so multi-gigabyte arrays
/// stream through a small buffer.
struct SectionBuf {
    buf: Vec<u8>,
    cap: usize,
}

impl SectionBuf {
    fn new(chunk_elems: usize) -> SectionBuf {
        let cap = chunk_elems.max(1024) * 4;
        SectionBuf {
            buf: Vec::with_capacity(cap + 8),
            cap,
        }
    }

    fn push_u32(&mut self, w: &mut SnapshotWriter, v: u32) -> std::io::Result<()> {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self.spill(w)
    }

    fn push_u64(&mut self, w: &mut SnapshotWriter, v: u64) -> std::io::Result<()> {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self.spill(w)
    }

    fn spill(&mut self, w: &mut SnapshotWriter) -> std::io::Result<()> {
        if self.buf.len() >= self.cap {
            w.write(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    fn flush(&mut self, w: &mut SnapshotWriter) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            w.write(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

/// Per-attribute statistics accumulator mirroring
/// [`wqe_graph::AttrStats`]'s streaming folds, with the categorical dedup
/// set replaced by a domain-indexed bitset (values are `"v{k}"`).
struct StatAcc {
    count: u64,
    numeric: u64,
    min: f64,
    max: f64,
    seen: Vec<u64>,
    distinct: u64,
}

impl StatAcc {
    fn new(domain: usize) -> StatAcc {
        StatAcc {
            count: 0,
            numeric: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            seen: vec![0; domain.div_ceil(64)],
            distinct: 0,
        }
    }

    fn observe(&mut self, v: RawValue) {
        self.count += 1;
        match v {
            RawValue::Int(i) => {
                let x = i as f64;
                self.numeric += 1;
                self.min = self.min.min(x);
                self.max = self.max.max(x);
            }
            RawValue::Cat(k) => {
                let (word, bit) = (k as usize / 64, k as usize % 64);
                if self.seen[word] & (1 << bit) == 0 {
                    self.seen[word] |= 1 << bit;
                    self.distinct += 1;
                }
            }
        }
    }
}

fn json_err(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// Generates the configured graph and streams it straight into a snapshot
/// at `path`. Peak memory is the flat label/CSR arrays plus an I/O buffer;
/// attribute tuples never exist in memory all at once.
pub fn stream_snapshot(cfg: &ScaleConfig, path: &Path) -> std::io::Result<StreamReport> {
    let n = cfg.nodes;
    if n > u32::MAX as u64 - 1 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{n} nodes exceeds the u32 node-id space"),
        ));
    }
    let k = Knobs::derive(cfg);

    // ---- Pass 1: labels + edges (flat primitives only). ----
    let mut labels: Vec<u32> = Vec::with_capacity(n as usize);
    for b in 0..blocks(n) {
        for (label_idx, _) in k.gen_node_block(cfg, b) {
            labels.push(label_idx);
        }
    }
    let mut out_offsets: Vec<u32> = Vec::with_capacity(n as usize + 1);
    out_offsets.push(0);
    let mut out_pairs: Vec<(u32, u32)> = Vec::new();
    if n > 0 {
        for b in 0..blocks(n) {
            let mut rng = block_rng(cfg.seed, EDGE_STREAM, b);
            let lo = b as usize * GEN_BLOCK;
            let hi = (lo + GEN_BLOCK).min(n as usize);
            for src in lo..hi {
                out_pairs.extend(k.gen_edge_run(&mut rng, n, src as u64));
                let total = u32::try_from(out_pairs.len()).map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "edge count exceeds the u32 CSR offset space",
                    )
                })?;
                out_offsets.push(total);
            }
        }
    }
    let m = out_pairs.len();

    // Reverse CSR by counting scatter: in-runs come out sorted by source
    // because sources are visited in ascending id order.
    let mut in_offsets = vec![0u32; n as usize + 1];
    for &(t, _) in &out_pairs {
        in_offsets[t as usize + 1] += 1;
    }
    for i in 0..n as usize {
        in_offsets[i + 1] += in_offsets[i];
    }
    let mut cursor: Vec<u32> = in_offsets[..n as usize].to_vec();
    let mut in_pairs = vec![(0u32, 0u32); m];
    for src in 0..n as usize {
        let (lo, hi) = (out_offsets[src] as usize, out_offsets[src + 1] as usize);
        for &(t, l) in &out_pairs[lo..hi] {
            in_pairs[cursor[t as usize] as usize] = (src as u32, l);
            cursor[t as usize] += 1;
        }
    }

    let diameter = sweep_diameter(n as usize, &out_offsets, &out_pairs);

    // ---- Write sections in id order. ----
    let mut w = SnapshotWriter::create(path, 13)?;
    let names = schema_names(cfg, &k);
    w.write_section(
        SectionId::Schema,
        &serde_json::to_vec(&names).map_err(json_err)?,
    )?;

    let mut meta = Vec::with_capacity(32);
    for v in [n, m as u64, diameter as u64, 0u64] {
        meta.extend_from_slice(&v.to_le_bytes());
    }
    w.write_section(SectionId::Meta, &meta)?;

    let mut buf = SectionBuf::new(cfg.chunk);
    w.begin_section(SectionId::NodeLabels)?;
    for &l in &labels {
        buf.push_u32(&mut w, l)?;
    }
    buf.flush(&mut w)?;
    w.end_section()?;

    w.begin_section(SectionId::AttrOffsets)?;
    let mut entry_count = 0u32;
    buf.push_u32(&mut w, 0)?;
    for &l in &labels {
        entry_count = entry_count
            .checked_add(k.sig_dedup[l as usize].len() as u32)
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "attribute entry count exceeds the u32 offset space",
                )
            })?;
        buf.push_u32(&mut w, entry_count)?;
    }
    buf.flush(&mut w)?;
    w.end_section()?;

    // ---- Pass 2: regenerate values, emit attribute entries, and fold the
    // string pool + statistics on the way through. ----
    let mut pool: Vec<String> = Vec::new();
    let mut pool_idx: Vec<u64> = vec![u64::MAX; k.domain];
    let mut stats: Vec<StatAcc> = (0..k.attr_pool).map(|_| StatAcc::new(k.domain)).collect();
    w.begin_section(SectionId::AttrEntries)?;
    for b in 0..blocks(n) {
        for (label_idx, values) in k.gen_node_block(cfg, b) {
            for &(attr_id, slot) in &k.sig_dedup[label_idx as usize] {
                let v = values[slot];
                stats[attr_id as usize].observe(v);
                let (tag, payload) = match v {
                    RawValue::Int(i) => (TAG_INT, i as u64),
                    RawValue::Cat(c) => {
                        if pool_idx[c as usize] == u64::MAX {
                            pool_idx[c as usize] = pool.len() as u64;
                            pool.push(format!("v{c}"));
                        }
                        (TAG_STR, pool_idx[c as usize])
                    }
                };
                buf.push_u32(&mut w, attr_id)?;
                buf.push_u32(&mut w, tag)?;
                buf.push_u64(&mut w, payload)?;
            }
        }
    }
    buf.flush(&mut w)?;
    w.end_section()?;

    w.write_section(
        SectionId::StrPool,
        &serde_json::to_vec(&pool).map_err(json_err)?,
    )?;

    for (off_id, tgt_id, offsets, pairs) in [
        (
            SectionId::OutOffsets,
            SectionId::OutTargets,
            &out_offsets,
            &out_pairs,
        ),
        (
            SectionId::InOffsets,
            SectionId::InTargets,
            &in_offsets,
            &in_pairs,
        ),
    ] {
        w.begin_section(off_id)?;
        for &o in offsets {
            buf.push_u32(&mut w, o)?;
        }
        buf.flush(&mut w)?;
        w.end_section()?;
        w.begin_section(tgt_id)?;
        for &(t, l) in pairs {
            buf.push_u32(&mut w, t)?;
            buf.push_u32(&mut w, l)?;
        }
        buf.flush(&mut w)?;
        w.end_section()?;
    }

    // Label index by counting scatter, buckets in label id order, node ids
    // ascending within each bucket.
    let mut li_offsets = vec![0u32; k.label_count + 1];
    for &l in &labels {
        li_offsets[l as usize + 1] += 1;
    }
    for i in 0..k.label_count {
        li_offsets[i + 1] += li_offsets[i];
    }
    let mut li_cursor: Vec<u32> = li_offsets[..k.label_count].to_vec();
    let mut li_nodes = vec![0u32; n as usize];
    for (v, &l) in labels.iter().enumerate() {
        li_nodes[li_cursor[l as usize] as usize] = v as u32;
        li_cursor[l as usize] += 1;
    }
    w.begin_section(SectionId::LabelIndexOffsets)?;
    for &o in &li_offsets {
        buf.push_u32(&mut w, o)?;
    }
    buf.flush(&mut w)?;
    w.end_section()?;
    w.begin_section(SectionId::LabelIndexNodes)?;
    for &v in &li_nodes {
        buf.push_u32(&mut w, v)?;
    }
    buf.flush(&mut w)?;
    w.end_section()?;

    w.begin_section(SectionId::AttrStats)?;
    for s in &stats {
        buf.push_u64(&mut w, s.count)?;
        buf.push_u64(&mut w, s.numeric)?;
        buf.push_u64(&mut w, s.min.to_bits())?;
        buf.push_u64(&mut w, s.max.to_bits())?;
        buf.push_u64(&mut w, s.distinct)?;
    }
    buf.flush(&mut w)?;
    w.end_section()?;

    let bytes = w.finish()?;
    Ok(StreamReport {
        nodes: n,
        edges: m as u64,
        diameter,
        bytes,
    })
}

/// Replicates `wqe_graph`'s finalize-time diameter estimate — forward BFS
/// double-sweeps from seeds spread over the id space — over the flat CSR,
/// including its tie-breaking (last-discovered farthest node seeds the
/// second sweep), so streamed meta bytes match a materialized build.
fn sweep_diameter(n: usize, offsets: &[u32], pairs: &[(u32, u32)]) -> u32 {
    if n == 0 {
        return 1;
    }
    let mut dist = vec![u32::MAX; n];
    let mut queue: Vec<u32> = Vec::new();
    let far_from = |src: usize, dist: &mut Vec<u32>, queue: &mut Vec<u32>| -> (usize, u32) {
        dist.iter_mut().for_each(|d| *d = u32::MAX);
        queue.clear();
        dist[src] = 0;
        queue.push(src as u32);
        let (mut far, mut far_d) = (src, 0u32);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            let d = dist[u];
            for &(t, _) in &pairs[offsets[u] as usize..offsets[u + 1] as usize] {
                if dist[t as usize] == u32::MAX {
                    dist[t as usize] = d + 1;
                    queue.push(t);
                    if d + 1 >= far_d {
                        far_d = d + 1;
                        far = t as usize;
                    }
                }
            }
        }
        (far, far_d)
    };
    let mut best = 1u32;
    for s in [0, n / 3, (2 * n) / 3, n - 1] {
        let (far, d1) = far_from(s, &mut dist, &mut queue);
        best = best.max(d1);
        let (_, d2) = far_from(far, &mut dist, &mut queue);
        best = best.max(d2);
    }
    best.max(1)
}

/// Builds the *same* graph [`stream_snapshot`] emits, in memory through
/// [`GraphBuilder`] — quadratic in nothing but also not streaming, so only
/// sensible at test scale. Exists so the byte-identity of the streamed
/// path can be pinned against the batch writer.
pub fn materialize(cfg: &ScaleConfig) -> Graph {
    let k = Knobs::derive(cfg);
    let mut b = GraphBuilder::new();
    let names = schema_names(cfg, &k);
    let label_ids: Vec<_> = names
        .labels
        .iter()
        .map(|l| b.schema_mut().label(l))
        .collect();
    let attr_ids: Vec<_> = names.attrs.iter().map(|a| b.schema_mut().attr(a)).collect();
    let edge_label_ids: Vec<_> = names
        .edge_labels
        .iter()
        .map(|e| b.schema_mut().edge_label(e))
        .collect();

    for blk in 0..blocks(cfg.nodes) {
        for (label_idx, values) in k.gen_node_block(cfg, blk) {
            let tuple: Vec<(wqe_graph::AttrId, AttrValue)> = values
                .iter()
                .enumerate()
                .map(|(j, &v)| {
                    let ai = (label_idx as usize * 7 + j * 3) % k.attr_pool;
                    let value = match v {
                        RawValue::Int(i) => AttrValue::Int(i),
                        RawValue::Cat(c) => AttrValue::Str(format!("v{c}")),
                    };
                    (attr_ids[ai], value)
                })
                .collect();
            b.add_node_raw(label_ids[label_idx as usize], tuple);
        }
    }
    if cfg.nodes > 0 {
        for blk in 0..blocks(cfg.nodes) {
            let mut rng = block_rng(cfg.seed, EDGE_STREAM, blk);
            let lo = blk as usize * GEN_BLOCK;
            let hi = (lo + GEN_BLOCK).min(cfg.nodes as usize);
            for src in lo..hi {
                for (t, l) in k.gen_edge_run(&mut rng, cfg.nodes, src as u64) {
                    b.add_edge_raw(
                        wqe_graph::NodeId(src as u32),
                        wqe_graph::NodeId(t),
                        edge_label_ids[l as usize],
                    );
                }
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
        ScaleConfig {
            chunk: 333, // deliberately odd: exercises buffer spills
            ..ScaleConfig::new(nodes, seed)
        }
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
    fn chunk_size_never_changes_bytes() {
        let (p1, p2) = (temp("chunk-a"), temp("chunk-b"));
        stream_snapshot(&small_cfg(2000, 5), &p1).unwrap();
        stream_snapshot(
            &ScaleConfig {
                chunk: 1 << 20,
                ..small_cfg(2000, 5)
            },
            &p2,
        )
        .unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
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
