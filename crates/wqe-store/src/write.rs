//! Snapshot writer: encodes a graph (and optionally its [`PllIndex`]
//! labels) into the section format of [`crate::format`].
//!
//! There is one encoder, [`write_source`], and it reads its graph through
//! [`GraphSource`]: a finalized [`Graph`] is one source, the streaming
//! paper-scale generator of `wqe-datagen` another, which regenerates
//! attribute tuples on demand instead of holding them. The encoder writes
//! the sections in id order through one fixed buffer, so no section
//! payload is held whole; it pools strings, derives the label index and
//! folds [`AttrStats`] on the way through.
//!
//! The encoding is deterministic: the same graph and index always produce
//! byte-identical files (schema names and pooled strings are emitted in
//! first-assignment id order, never hash order), so snapshots can be
//! content-compared and cached.

use crate::format::*;
use crate::stream::SnapshotWriter;
use serde::Serialize;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use wqe_graph::{AttrId, AttrStats, AttrValue, EdgeLabelId, Graph, LabelId, NodeId, Schema};
use wqe_index::{Oracle, PllIndex, PllParts};

/// Schema name lists in id order — the JSON payload of
/// [`SectionId::Schema`].
#[derive(Serialize, serde::Deserialize)]
pub(crate) struct SchemaNames {
    pub labels: Vec<String>,
    pub attrs: Vec<String>,
    pub edge_labels: Vec<String>,
}

/// A graph as [`write_source`] reads it. Node ids are dense, `0..n` with
/// `n + 1 = out_csr().0.len()`.
pub trait GraphSource {
    /// Label, attribute and edge-label names; ids index them.
    fn schema(&self) -> &Schema;
    /// The label of node `v`.
    fn label(&self, v: NodeId) -> LabelId;
    /// The length of node `v`'s attribute tuple.
    fn tuple_len(&self, v: NodeId) -> usize;
    /// Calls `emit` once per attribute entry: nodes in id order, each
    /// node's tuple in order, `tuple_len(v)` entries for node `v`.
    fn each_attr(
        &self,
        emit: &mut dyn FnMut(AttrId, &AttrValue) -> io::Result<()>,
    ) -> io::Result<()>;
    /// Forward CSR `(offsets, targets)`, each run sorted by target id.
    fn out_csr(&self) -> (&[u32], &[(NodeId, EdgeLabelId)]);
    /// Reverse CSR `(offsets, sources)`, each run sorted by source id.
    fn in_csr(&self) -> (&[u32], &[(NodeId, EdgeLabelId)]);
    /// The diameter estimate the meta section stores, unfloored.
    fn raw_diameter(&self) -> u32;
}

impl GraphSource for Graph {
    fn schema(&self) -> &Schema {
        Graph::schema(self)
    }

    fn label(&self, v: NodeId) -> LabelId {
        Graph::label(self, v)
    }

    fn tuple_len(&self, v: NodeId) -> usize {
        self.node(v).attrs.len()
    }

    fn each_attr(
        &self,
        emit: &mut dyn FnMut(AttrId, &AttrValue) -> io::Result<()>,
    ) -> io::Result<()> {
        for v in self.node_ids() {
            for (a, value) in &self.node(v).attrs {
                emit(*a, value)?;
            }
        }
        Ok(())
    }

    fn out_csr(&self) -> (&[u32], &[(NodeId, EdgeLabelId)]) {
        Graph::out_csr(self)
    }

    fn in_csr(&self) -> (&[u32], &[(NodeId, EdgeLabelId)]) {
        Graph::in_csr(self)
    }

    fn raw_diameter(&self) -> u32 {
        Graph::raw_diameter(self)
    }
}

/// Bytes the encoder gathers before handing them to the writer.
const BUF_BYTES: usize = 1 << 16;

/// Section payloads on their way into a [`SnapshotWriter`], through one
/// fixed buffer that spills whenever it fills.
struct Encoder {
    w: SnapshotWriter,
    buf: Vec<u8>,
}

impl Encoder {
    fn bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.buf.len() + bytes.len() > BUF_BYTES {
            self.spill()?;
            if bytes.len() > BUF_BYTES {
                return self.w.write(bytes);
            }
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    fn spill(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.w.write(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// One whole section: `body` emits its payload.
    fn section(
        &mut self,
        id: SectionId,
        body: impl FnOnce(&mut Encoder) -> io::Result<()>,
    ) -> io::Result<()> {
        self.w.begin_section(id)?;
        body(self)?;
        self.spill()?;
        self.w.end_section()
    }

    fn u32s(&mut self, id: SectionId, vals: impl IntoIterator<Item = u32>) -> io::Result<()> {
        self.section(id, |e| vals.into_iter().try_for_each(|v| e.u32(v)))
    }

    fn json(&mut self, id: SectionId, value: &impl Serialize) -> io::Result<()> {
        let payload = serde_json::to_vec(value)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.section(id, |e| e.bytes(&payload))
    }
}

/// Distinct string values in first-occurrence order.
#[derive(Default)]
struct StrPool {
    strings: Vec<String>,
    index: HashMap<String, u64>,
}

impl StrPool {
    fn index_of(&mut self, s: &str) -> u64 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = self.strings.len() as u64;
        self.strings.push(s.to_owned());
        self.index.insert(s.to_owned(), i);
        i
    }
}

/// Encodes `graph` (and `pll`'s labels, when given) to `path` in snapshot
/// format, reading every node's attribute tuple once. Returns the total
/// bytes written; fails with an [`io::Error`] rather than panicking.
pub fn write_source(
    path: &Path,
    graph: &dyn GraphSource,
    pll: Option<&PllParts>,
) -> io::Result<u64> {
    let schema = graph.schema();
    let (out_offsets, out_targets) = graph.out_csr();
    let n = out_offsets.len().saturating_sub(1);
    let nodes = || (0..n as u32).map(NodeId);
    let sections = SectionId::REQUIRED.len() + pll.map_or(0, |_| SectionId::PLL.len());
    let mut e = Encoder {
        w: SnapshotWriter::create(path, sections)?,
        buf: Vec::with_capacity(BUF_BYTES),
    };

    e.json(
        SectionId::Schema,
        &SchemaNames {
            labels: (0..schema.label_count() as u32)
                .map(|i| schema.label_name(i.into()).to_string())
                .collect(),
            attrs: (0..schema.attr_count() as u32)
                .map(|i| schema.attr_name(i.into()).to_string())
                .collect(),
            edge_labels: (0..schema.edge_label_count() as u32)
                .map(|i| schema.edge_label_name(i.into()).to_string())
                .collect(),
        },
    )?;
    let flags = if pll.is_some() { FLAG_HAS_PLL } else { 0 };
    let meta = [
        n as u64,
        out_targets.len() as u64,
        graph.raw_diameter() as u64,
        flags,
    ];
    e.section(SectionId::Meta, |e| {
        meta.into_iter().try_for_each(|v| e.u64(v))
    })?;
    e.u32s(SectionId::NodeLabels, nodes().map(|v| graph.label(v).0))?;

    // Attribute tuples: CSR of 16-byte entries, then the string pool every
    // `TAG_STR` payload indexes, then the statistics folded on the way.
    e.section(SectionId::AttrOffsets, |e| {
        e.u32(0)?;
        let mut total = 0u32;
        for v in nodes() {
            total = u32::try_from(graph.tuple_len(v))
                .ok()
                .and_then(|len| total.checked_add(len))
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "attribute entry count exceeds the u32 offset space",
                    )
                })?;
            e.u32(total)?;
        }
        Ok(())
    })?;
    let mut pool = StrPool::default();
    let mut stats = vec![AttrStats::default(); schema.attr_count()];
    e.section(SectionId::AttrEntries, |e| {
        graph.each_attr(&mut |a, value| {
            stats[a.index()].observe(value);
            let (tag, payload) = match value {
                AttrValue::Int(i) => (TAG_INT, *i as u64),
                AttrValue::Float(f) => (TAG_FLOAT, f.to_bits()),
                AttrValue::Str(s) => (TAG_STR, pool.index_of(s)),
                AttrValue::Bool(b) => (TAG_BOOL, *b as u64),
            };
            e.u32(a.0)?;
            e.u32(tag)?;
            e.u64(payload)
        })
    })?;
    e.json(SectionId::StrPool, &pool.strings)?;

    for (off_id, tgt_id, (offsets, targets)) in [
        (
            SectionId::OutOffsets,
            SectionId::OutTargets,
            graph.out_csr(),
        ),
        (SectionId::InOffsets, SectionId::InTargets, graph.in_csr()),
    ] {
        e.u32s(off_id, offsets.iter().copied())?;
        e.u32s(tgt_id, targets.iter().flat_map(|&(t, l)| [t.0, l.0]))?;
    }

    // Label index by counting scatter: buckets in label id order, node ids
    // ascending within each bucket.
    let mut li_offsets = vec![0u32; schema.label_count() + 1];
    for v in nodes() {
        li_offsets[graph.label(v).index() + 1] += 1;
    }
    for l in 1..li_offsets.len() {
        li_offsets[l] += li_offsets[l - 1];
    }
    let mut cursor = li_offsets.clone();
    let mut li_nodes = vec![0u32; n];
    for v in nodes() {
        let slot = &mut cursor[graph.label(v).index()];
        li_nodes[*slot as usize] = v.0;
        *slot += 1;
    }
    e.u32s(SectionId::LabelIndexOffsets, li_offsets)?;
    e.u32s(SectionId::LabelIndexNodes, li_nodes)?;

    e.section(SectionId::AttrStats, |e| {
        stats.iter().try_for_each(|s| {
            [
                s.count as u64,
                s.numeric_count as u64,
                s.min_num.to_bits(),
                s.max_num.to_bits(),
                s.distinct_categorical as u64,
            ]
            .into_iter()
            .try_for_each(|v| e.u64(v))
        })
    })?;

    // PLL labels in ascending id order: the flat struct-of-arrays, as is.
    if let Some(p) = pll {
        for (id, arr) in [
            (SectionId::PllOutOffsets, &p.out_offsets),
            (SectionId::PllInOffsets, &p.in_offsets),
            (SectionId::PllOutRanks, &p.out_ranks),
            (SectionId::PllOutDists, &p.out_dists),
            (SectionId::PllInRanks, &p.in_ranks),
            (SectionId::PllInDists, &p.in_dists),
        ] {
            e.u32s(id, arr.iter().copied())?;
        }
    }
    e.w.finish()
}

/// Serializes `graph` (and `pll`, when given) to `path` in snapshot format.
/// Returns the total bytes written. Writes deterministically; fails with an
/// [`std::io::Error`] rather than panicking.
pub fn write_snapshot(path: &Path, graph: &Graph, pll: Option<&PllIndex>) -> std::io::Result<u64> {
    write_source(path, graph, pll.map(PllIndex::parts))
}

/// Builds whatever index the policy calls for and writes the snapshot in
/// one step: the `index build` fast path. Returns bytes written. The labels
/// are written exactly when [`Oracle::wants_labels`] — the tier decision
/// [`Oracle::build`] makes — so a snapshot-loaded context serves the tier
/// a freshly built one would.
pub fn build_and_write_snapshot(path: &Path, graph: &Graph) -> std::io::Result<u64> {
    let pll = Oracle::wants_labels(graph).then(|| PllIndex::build_with(graph, 0));
    write_snapshot(path, graph, pll.as_ref())
}
