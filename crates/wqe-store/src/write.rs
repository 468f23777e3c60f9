//! Snapshot writer: serializes a finalized [`Graph`] (and optionally its
//! [`PllIndex`]) into the section format of [`crate::format`].
//!
//! The writer is deterministic: the same graph and index always produce
//! byte-identical files (schema names and pooled strings are emitted in
//! first-assignment id order, never hash order), so snapshots can be
//! content-compared and cached.

use crate::format::*;
use crate::stream::SnapshotWriter;
use serde::Serialize;
use std::collections::HashMap;
use std::path::Path;
use wqe_graph::{AttrValue, Graph};
use wqe_index::{Oracle, PllIndex, PllParts};

/// Schema name lists in id order — the JSON payload of
/// [`SectionId::Schema`].
#[derive(Serialize, serde::Deserialize)]
pub(crate) struct SchemaNames {
    pub labels: Vec<String>,
    pub attrs: Vec<String>,
    pub edge_labels: Vec<String>,
}

fn push_u32s(buf: &mut Vec<u8>, vals: impl IntoIterator<Item = u32>) {
    for v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn push_u64s(buf: &mut Vec<u8>, vals: impl IntoIterator<Item = u64>) {
    for v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn json_err(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// Builds every graph section payload (the [`SectionId::REQUIRED`] set),
/// in section id order. `has_pll` only feeds the meta flags word; the PLL
/// payloads themselves come from [`pll_sections`].
fn graph_sections(graph: &Graph, has_pll: bool) -> std::io::Result<Vec<(SectionId, Vec<u8>)>> {
    let schema = graph.schema();
    let mut sections: Vec<(SectionId, Vec<u8>)> = Vec::with_capacity(13);

    let names = SchemaNames {
        labels: (0..schema.label_count() as u32)
            .map(|i| schema.label_name(i.into()).to_string())
            .collect(),
        attrs: (0..schema.attr_count() as u32)
            .map(|i| schema.attr_name(i.into()).to_string())
            .collect(),
        edge_labels: (0..schema.edge_label_count() as u32)
            .map(|i| schema.edge_label_name(i.into()).to_string())
            .collect(),
    };
    sections.push((
        SectionId::Schema,
        serde_json::to_vec(&names).map_err(json_err)?,
    ));

    let flags = if has_pll { FLAG_HAS_PLL } else { 0 };
    let mut meta = Vec::with_capacity(32);
    push_u64s(
        &mut meta,
        [
            graph.node_count() as u64,
            graph.edge_count() as u64,
            graph.raw_diameter() as u64,
            flags,
        ],
    );
    sections.push((SectionId::Meta, meta));

    let mut node_labels = Vec::with_capacity(4 * graph.node_count());
    push_u32s(
        &mut node_labels,
        graph.node_ids().map(|v| graph.node(v).label.0),
    );
    sections.push((SectionId::NodeLabels, node_labels));

    // Attribute tuples: CSR of 16-byte entries plus a string pool holding
    // every distinct string value (first-occurrence order => determinism).
    let mut attr_offsets = Vec::new();
    let mut attr_entries = Vec::new();
    let mut pool: Vec<String> = Vec::new();
    let mut pool_index: HashMap<String, u64> = HashMap::new();
    let mut entry_count = 0u32;
    push_u32s(&mut attr_offsets, [0u32]);
    for v in graph.node_ids() {
        for (a, val) in &graph.node(v).attrs {
            let (tag, payload) = match val {
                AttrValue::Int(i) => (TAG_INT, *i as u64),
                AttrValue::Float(f) => (TAG_FLOAT, f.to_bits()),
                AttrValue::Str(s) => {
                    let idx = *pool_index.entry(s.clone()).or_insert_with(|| {
                        pool.push(s.clone());
                        pool.len() as u64 - 1
                    });
                    (TAG_STR, idx)
                }
                AttrValue::Bool(b) => (TAG_BOOL, *b as u64),
            };
            push_u32s(&mut attr_entries, [a.0, tag]);
            push_u64s(&mut attr_entries, [payload]);
            entry_count += 1;
        }
        push_u32s(&mut attr_offsets, [entry_count]);
    }
    sections.push((SectionId::AttrOffsets, attr_offsets));
    sections.push((SectionId::AttrEntries, attr_entries));
    sections.push((
        SectionId::StrPool,
        serde_json::to_vec(&pool).map_err(json_err)?,
    ));

    for (off_id, tgt_id, (offsets, targets)) in [
        (
            SectionId::OutOffsets,
            SectionId::OutTargets,
            graph.out_csr(),
        ),
        (SectionId::InOffsets, SectionId::InTargets, graph.in_csr()),
    ] {
        let mut off = Vec::with_capacity(4 * offsets.len());
        push_u32s(&mut off, offsets.iter().copied());
        let mut tgt = Vec::with_capacity(8 * targets.len());
        push_u32s(&mut tgt, targets.iter().flat_map(|&(t, l)| [t.0, l.0]));
        sections.push((off_id, off));
        sections.push((tgt_id, tgt));
    }

    let mut li_offsets = Vec::new();
    let mut li_nodes = Vec::new();
    let mut total = 0u32;
    push_u32s(&mut li_offsets, [0u32]);
    for bucket in graph.label_index() {
        push_u32s(&mut li_nodes, bucket.iter().map(|v| v.0));
        total += bucket.len() as u32;
        push_u32s(&mut li_offsets, [total]);
    }
    sections.push((SectionId::LabelIndexOffsets, li_offsets));
    sections.push((SectionId::LabelIndexNodes, li_nodes));

    let mut stats = Vec::with_capacity(40 * graph.attr_stats_all().len());
    for s in graph.attr_stats_all() {
        push_u64s(
            &mut stats,
            [
                s.count as u64,
                s.numeric_count as u64,
                s.min_num.to_bits(),
                s.max_num.to_bits(),
                s.distinct_categorical as u64,
            ],
        );
    }
    sections.push((SectionId::AttrStats, stats));
    Ok(sections)
}

/// Builds the PLL label section payloads in ascending id order: the flat
/// struct-of-arrays, persisted as is.
fn pll_sections(parts: &PllParts) -> Vec<(SectionId, Vec<u8>)> {
    let flat = |arr: &[u32]| {
        let mut buf = Vec::with_capacity(4 * arr.len());
        push_u32s(&mut buf, arr.iter().copied());
        buf
    };
    vec![
        (SectionId::PllOutOffsets, flat(&parts.out_offsets)),
        (SectionId::PllInOffsets, flat(&parts.in_offsets)),
        (SectionId::PllOutRanks, flat(&parts.out_ranks)),
        (SectionId::PllOutDists, flat(&parts.out_dists)),
        (SectionId::PllInRanks, flat(&parts.in_ranks)),
        (SectionId::PllInDists, flat(&parts.in_dists)),
    ]
}

/// Serializes `graph` (and `pll`, when given) to `path` in snapshot format.
/// Returns the total bytes written. Writes deterministically; fails with an
/// [`std::io::Error`] rather than panicking.
pub fn write_snapshot(path: &Path, graph: &Graph, pll: Option<&PllIndex>) -> std::io::Result<u64> {
    let mut sections = graph_sections(graph, pll.is_some())?;
    if let Some(pll) = pll {
        sections.extend(pll_sections(pll.parts()));
    }
    let mut w = SnapshotWriter::create(path, sections.len())?;
    for (id, payload) in &sections {
        w.write_section(*id, payload)?;
    }
    w.finish()
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
