//! Snapshot reader: validates a mapped snapshot once, then serves its
//! sections as zero-copy primitive slices.
//!
//! [`Snapshot::open`] is the only entry point. It maps the file, checks the
//! magic, version, endianness, and file length, then verifies the checksum
//! of *every* section eagerly — so any later accessor can trust the table.
//! Corrupt or truncated input always surfaces as a
//! [`LoadError`](wqe_graph::LoadError); no code path panics on bad bytes.

use crate::format::*;
use crate::mmap::MappedFile;
use crate::write::SchemaNames;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use wqe_graph::{
    AttrStats, AttrValue, EdgeLabelId, Graph, GraphParts, LoadError, NodeData, NodeId, Schema,
};
use wqe_index::{Oracle, PllIndex, PllParts};

/// Decoded `meta` section.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotMeta {
    /// `|V|`.
    pub node_count: u64,
    /// `|E|`.
    pub edge_count: u64,
    /// Raw stored diameter estimate.
    pub diameter: u32,
    /// Feature flags ([`FLAG_HAS_PLL`], …).
    pub flags: u64,
}

impl SnapshotMeta {
    /// True when the PLL label sections are present.
    pub fn has_pll(&self) -> bool {
        self.flags & FLAG_HAS_PLL != 0
    }
}

/// One row of `index inspect` output: a section and its table entry.
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// Stable section name (`"unknown"` for ids newer than this reader).
    pub name: &'static str,
    /// Raw section id.
    pub id: u32,
    /// Payload offset in the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a 64 checksum (verified at open).
    pub checksum: u64,
    /// True when the payload failed its checksum and the section was
    /// quarantined (optional sections only — see [`Snapshot::open`]).
    pub quarantined: bool,
}

/// An opened, checksum-verified snapshot.
///
/// [`Snapshot::open`] verifies every section eagerly. A checksum mismatch
/// in a **required** section is fatal; a mismatch in an *optional* section
/// (the PLL label sections, or ids this reader does not know) puts that
/// section in **quarantine** instead: it is recorded in
/// [`quarantined`](Snapshot::quarantined), excluded from every accessor,
/// and — when it breaks the PLL set — [`pll_available`] turns false so
/// the engine falls back to its exact BFS oracle rather than failing the
/// open. Use [`Snapshot::open_strict`] to keep the old any-mismatch-fatal
/// behavior (e.g. for verifying freshly written files).
///
/// [`pll_available`]: Snapshot::pll_available
#[derive(Debug)]
pub struct Snapshot {
    map: MappedFile,
    entries: Vec<SectionEntry>,
    /// Sections that failed their checksum and were quarantined (never in
    /// `entries`).
    quarantined: Vec<SectionEntry>,
    /// Whether the full PLL section set is present *and* healthy.
    pll_available: bool,
    version: u32,
    meta: SnapshotMeta,
}

fn rd_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

fn rd_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

fn corrupt(section: &'static str, detail: impl Into<String>) -> LoadError {
    LoadError::Corrupt {
        section,
        detail: detail.into(),
    }
}

impl Snapshot {
    /// Opens and validates `path`: header, section table, and every
    /// section checksum. O(file) once; later accessors are cheap.
    ///
    /// Checksum mismatches in *optional* sections (PLL labels, unknown
    /// ids) are quarantined rather than fatal — see the type docs.
    pub fn open(path: &Path) -> Result<Snapshot, LoadError> {
        Self::open_impl(path, false)
    }

    /// Like [`Snapshot::open`], but any checksum mismatch — including in
    /// optional sections — fails the open. Use when verifying a freshly
    /// written file, where a quarantined section means the write itself is
    /// broken, not merely degraded.
    pub fn open_strict(path: &Path) -> Result<Snapshot, LoadError> {
        Self::open_impl(path, true)
    }

    fn open_impl(path: &Path, strict: bool) -> Result<Snapshot, LoadError> {
        let map = MappedFile::open(path)?;
        let bytes = map.bytes();
        if bytes.len() < HEADER_LEN {
            return Err(LoadError::Truncated {
                what: "header",
                needed: HEADER_LEN as u64,
                available: bytes.len() as u64,
            });
        }
        if bytes[..8] != MAGIC {
            return Err(LoadError::BadMagic);
        }
        let version = rd_u32(bytes, 8);
        if version != FORMAT_VERSION {
            return Err(LoadError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let section_count = rd_u32(bytes, 12) as usize;
        let file_len = rd_u64(bytes, 16);
        let endian = rd_u32(bytes, 24);
        if endian != ENDIAN_MARK {
            return Err(corrupt(
                "header",
                format!("endianness marker {endian:#x} != {ENDIAN_MARK:#x}"),
            ));
        }
        if section_count > MAX_SECTIONS {
            return Err(corrupt(
                "header",
                format!("implausible section count {section_count}"),
            ));
        }
        if file_len != bytes.len() as u64 {
            return Err(LoadError::Truncated {
                what: "file body",
                needed: file_len,
                available: bytes.len() as u64,
            });
        }
        let table_end = HEADER_LEN + section_count * SECTION_ENTRY_LEN;
        if bytes.len() < table_end {
            return Err(LoadError::Truncated {
                what: "section table",
                needed: table_end as u64,
                available: bytes.len() as u64,
            });
        }

        let mut entries = Vec::with_capacity(section_count);
        let mut quarantined: Vec<SectionEntry> = Vec::new();
        for i in 0..section_count {
            let base = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let entry = SectionEntry {
                id: rd_u32(bytes, base),
                offset: rd_u64(bytes, base + 8),
                len: rd_u64(bytes, base + 16),
                checksum: rd_u64(bytes, base + 24),
            };
            let name = SectionId::from_u32(entry.id)
                .map(SectionId::name)
                .unwrap_or("unknown");
            let end = entry.offset.checked_add(entry.len).ok_or_else(|| {
                corrupt("section_table", format!("section {name} range overflows"))
            })?;
            if end > bytes.len() as u64 {
                return Err(LoadError::Truncated {
                    what: "section payload",
                    needed: end,
                    available: bytes.len() as u64,
                });
            }
            if !entry.offset.is_multiple_of(SECTION_ALIGN as u64) {
                return Err(corrupt(
                    "section_table",
                    format!("section {name} offset {} unaligned", entry.offset),
                ));
            }
            if entries
                .iter()
                .chain(quarantined.iter())
                .any(|e: &SectionEntry| e.id == entry.id)
            {
                return Err(corrupt(
                    "section_table",
                    format!("duplicate section id {}", entry.id),
                ));
            }
            let payload = &bytes[entry.offset as usize..end as usize];
            if fnv1a64(payload) != entry.checksum {
                // A corrupt *required* section makes the snapshot
                // unservable; a corrupt optional one (PLL labels, unknown
                // ids) is quarantined so the graph still serves — the
                // engine recomputes what the section would have provided.
                let required = SectionId::from_u32(entry.id)
                    .is_some_and(|id| SectionId::REQUIRED.contains(&id));
                if strict || required {
                    return Err(LoadError::ChecksumMismatch { section: name });
                }
                quarantined.push(entry);
                continue;
            }
            entries.push(entry);
        }

        let snap = Snapshot {
            map,
            entries,
            quarantined,
            pll_available: false,
            version,
            meta: SnapshotMeta {
                node_count: 0,
                edge_count: 0,
                diameter: 0,
                flags: 0,
            },
        };
        for id in SectionId::REQUIRED {
            if snap.section(id).is_none() {
                return Err(corrupt(
                    "section_table",
                    format!("missing required section {}", id.name()),
                ));
            }
        }
        let meta = snap.decode_meta()?;
        let mut pll_available = meta.has_pll();
        if meta.has_pll() {
            for id in SectionId::PLL {
                if snap.section(id).is_none() {
                    // Quarantined = present but corrupt: the PLL set is
                    // unusable, not the file. Absent entirely while the
                    // flag promises it = structural corruption.
                    if snap.quarantined.iter().any(|e| e.id == id as u32) {
                        pll_available = false;
                    } else {
                        return Err(corrupt(
                            "section_table",
                            format!("PLL flag set but section {} missing", id.name()),
                        ));
                    }
                }
            }
        }
        Ok(Snapshot {
            meta,
            pll_available,
            ..snap
        })
    }

    fn decode_meta(&self) -> Result<SnapshotMeta, LoadError> {
        let words = self.section_u64(SectionId::Meta)?;
        if words.len() < 4 {
            return Err(corrupt("meta", format!("{} words, need 4", words.len())));
        }
        let diameter = u32::try_from(words[2])
            .map_err(|_| corrupt("meta", format!("diameter {} exceeds u32", words[2])))?;
        Ok(SnapshotMeta {
            node_count: words[0],
            edge_count: words[1],
            diameter,
            flags: words[3],
        })
    }

    /// Total bytes mapped (or read) for this snapshot.
    pub fn bytes_len(&self) -> u64 {
        self.map.len() as u64
    }

    /// True when served by an OS memory mapping (false: aligned read
    /// fallback).
    pub fn is_mmap(&self) -> bool {
        self.map.is_mmap()
    }

    /// The format version the file declares.
    pub fn format_version(&self) -> u32 {
        self.version
    }

    /// The decoded meta section.
    pub fn meta(&self) -> SnapshotMeta {
        self.meta
    }

    /// Table rows for `index inspect`: healthy sections in file order,
    /// then quarantined ones (flagged).
    pub fn section_infos(&self) -> Vec<SectionInfo> {
        let info = |e: &SectionEntry, quarantined: bool| SectionInfo {
            name: SectionId::from_u32(e.id)
                .map(SectionId::name)
                .unwrap_or("unknown"),
            id: e.id,
            offset: e.offset,
            len: e.len,
            checksum: e.checksum,
            quarantined,
        };
        let mut rows: Vec<SectionInfo> = self.entries.iter().map(|e| info(e, false)).collect();
        rows.extend(self.quarantined.iter().map(|e| info(e, true)));
        rows.sort_by_key(|r| r.offset);
        rows
    }

    /// Names of sections that failed their checksum and were quarantined
    /// at open (empty for a healthy snapshot).
    pub fn quarantined(&self) -> Vec<&'static str> {
        self.quarantined
            .iter()
            .map(|e| {
                SectionId::from_u32(e.id)
                    .map(SectionId::name)
                    .unwrap_or("unknown")
            })
            .collect()
    }

    /// Whether the PLL label set is present *and* healthy. False when the
    /// snapshot never carried an index, or when quarantine claimed part of
    /// it — in which case the engine serves distances via its exact BFS
    /// fallback instead.
    pub fn pll_available(&self) -> bool {
        self.pll_available
    }

    fn entry(&self, id: SectionId) -> Option<&SectionEntry> {
        self.entries.iter().find(|e| e.id == id as u32)
    }

    /// Raw payload bytes of a section, if present.
    pub fn section(&self, id: SectionId) -> Option<&[u8]> {
        self.entry(id)
            .map(|e| &self.map.bytes()[e.offset as usize..(e.offset + e.len) as usize])
    }

    fn section_req(&self, id: SectionId) -> Result<&[u8], LoadError> {
        self.section(id)
            .ok_or_else(|| corrupt("section_table", format!("missing section {}", id.name())))
    }

    /// A section viewed in place as a `u32` array (zero-copy).
    pub fn section_u32(&self, id: SectionId) -> Result<&[u32], LoadError> {
        let bytes = self.section_req(id)?;
        // SAFETY: any bit pattern is a valid u32; alignment is handled by
        // align_to (prefix must come back empty given 16-aligned sections).
        let (pre, mid, post) = unsafe { bytes.align_to::<u32>() };
        if !pre.is_empty() || !post.is_empty() {
            return Err(corrupt(
                id.name(),
                format!("length {} not a whole u32 array", bytes.len()),
            ));
        }
        Ok(mid)
    }

    /// A section viewed in place as a `u64` array (zero-copy).
    pub fn section_u64(&self, id: SectionId) -> Result<&[u64], LoadError> {
        let bytes = self.section_req(id)?;
        // SAFETY: as above, for u64.
        let (pre, mid, post) = unsafe { bytes.align_to::<u64>() };
        if !pre.is_empty() || !post.is_empty() {
            return Err(corrupt(
                id.name(),
                format!("length {} not a whole u64 array", bytes.len()),
            ));
        }
        Ok(mid)
    }

    fn decode_schema(&self) -> Result<(Schema, SchemaNames), LoadError> {
        let bytes = self.section_req(SectionId::Schema)?;
        let names: SchemaNames = serde_json::from_slice(bytes)
            .map_err(|e| corrupt("schema", format!("invalid schema json: {e}")))?;
        let mut schema = Schema::new();
        for l in &names.labels {
            schema.label(l);
        }
        for a in &names.attrs {
            schema.attr(a);
        }
        for e in &names.edge_labels {
            schema.edge_label(e);
        }
        // Interning dedups: a duplicate in a name list would silently shift
        // every later id, so reject it.
        if schema.label_count() != names.labels.len()
            || schema.attr_count() != names.attrs.len()
            || schema.edge_label_count() != names.edge_labels.len()
        {
            return Err(corrupt("schema", "duplicate name in schema list"));
        }
        Ok((schema, names))
    }

    fn decode_nodes(&self) -> Result<Vec<NodeData>, LoadError> {
        let n = self.meta.node_count as usize;
        let labels = self.section_u32(SectionId::NodeLabels)?;
        if labels.len() != n {
            return Err(corrupt(
                "node_labels",
                format!("{} labels for {n} nodes", labels.len()),
            ));
        }
        let offsets = self.section_u32(SectionId::AttrOffsets)?;
        if offsets.len() != n + 1 || offsets.first() != Some(&0) {
            return Err(corrupt(
                "attr_offsets",
                format!("{} offsets for {n} nodes", offsets.len()),
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(corrupt("attr_offsets", "offsets not monotonic"));
        }
        let entries = self.section_u32(SectionId::AttrEntries)?;
        if !entries.len().is_multiple_of(4) {
            return Err(corrupt(
                "attr_entries",
                format!("{} words is not whole 16-byte entries", entries.len()),
            ));
        }
        let entry_count = entries.len() / 4;
        if offsets[n] as usize != entry_count {
            return Err(corrupt(
                "attr_offsets",
                format!("last offset {} != entry count {entry_count}", offsets[n]),
            ));
        }
        let pool: Vec<String> = serde_json::from_slice(self.section_req(SectionId::StrPool)?)
            .map_err(|e| corrupt("strpool", format!("invalid string pool json: {e}")))?;

        let mut nodes = Vec::with_capacity(n);
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            let mut attrs = Vec::with_capacity(hi - lo);
            for w in entries[4 * lo..4 * hi].chunks_exact(4) {
                let (attr_id, tag) = (w[0], w[1]);
                let payload = w[2] as u64 | ((w[3] as u64) << 32);
                let value = match tag {
                    TAG_INT => AttrValue::Int(payload as i64),
                    TAG_FLOAT => AttrValue::float(f64::from_bits(payload))
                        .ok_or_else(|| corrupt("attr_entries", "NaN float value"))?,
                    TAG_STR => {
                        let s = pool.get(payload as usize).ok_or_else(|| {
                            corrupt(
                                "attr_entries",
                                format!("string index {payload} out of pool"),
                            )
                        })?;
                        AttrValue::Str(s.clone())
                    }
                    TAG_BOOL => AttrValue::Bool(match payload {
                        0 => false,
                        1 => true,
                        other => {
                            return Err(corrupt("attr_entries", format!("bool payload {other}")))
                        }
                    }),
                    other => return Err(corrupt("attr_entries", format!("unknown tag {other}"))),
                };
                attrs.push((wqe_graph::AttrId(attr_id), value));
            }
            // NodeData lookups binary-search on attr id; a snapshot with an
            // unsorted tuple would silently mis-answer, so reject it.
            if attrs.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err(corrupt(
                    "attr_entries",
                    format!("attr tuple of node {v} not sorted/deduped"),
                ));
            }
            nodes.push(NodeData {
                label: wqe_graph::LabelId(labels[v]),
                attrs,
            });
        }
        Ok(nodes)
    }

    fn decode_pairs(&self, id: SectionId) -> Result<Vec<(NodeId, EdgeLabelId)>, LoadError> {
        let words = self.section_u32(id)?;
        if !words.len().is_multiple_of(2) {
            return Err(corrupt(
                id.name(),
                format!("odd word count {} for pair array", words.len()),
            ));
        }
        Ok(words
            .chunks_exact(2)
            .map(|p| (NodeId(p[0]), EdgeLabelId(p[1])))
            .collect())
    }

    fn decode_label_index(&self, label_count: usize) -> Result<Vec<Vec<NodeId>>, LoadError> {
        let offsets = self.section_u32(SectionId::LabelIndexOffsets)?;
        let nodes = self.section_u32(SectionId::LabelIndexNodes)?;
        if offsets.len() != label_count + 1 || offsets.first() != Some(&0) {
            return Err(corrupt(
                "label_index_offsets",
                format!("{} offsets for {label_count} labels", offsets.len()),
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1])
            || *offsets.last().expect("nonempty") as usize != nodes.len()
        {
            return Err(corrupt(
                "label_index_offsets",
                "offsets not monotonic or dangling",
            ));
        }
        Ok(offsets
            .windows(2)
            .map(|w| {
                nodes[w[0] as usize..w[1] as usize]
                    .iter()
                    .map(|&v| NodeId(v))
                    .collect()
            })
            .collect())
    }

    fn decode_attr_stats(&self, attr_count: usize) -> Result<Vec<AttrStats>, LoadError> {
        let words = self.section_u64(SectionId::AttrStats)?;
        if words.len() != 5 * attr_count {
            return Err(corrupt(
                "attr_stats",
                format!("{} words for {attr_count} attributes", words.len()),
            ));
        }
        Ok(words
            .chunks_exact(5)
            .map(|w| {
                AttrStats::from_raw(
                    w[0] as usize,
                    w[1] as usize,
                    f64::from_bits(w[2]),
                    f64::from_bits(w[3]),
                    w[4] as usize,
                )
            })
            .collect())
    }

    /// Reconstitutes the full [`Graph`] — schema, nodes, both CSRs, label
    /// index, statistics, diameter — without re-deriving any of them.
    pub fn load_graph(&self) -> Result<Graph, LoadError> {
        let (schema, _names) = self.decode_schema()?;
        let nodes = self.decode_nodes()?;
        let out_offsets = self.section_u32(SectionId::OutOffsets)?.to_vec();
        let out_targets = self.decode_pairs(SectionId::OutTargets)?;
        let in_offsets = self.section_u32(SectionId::InOffsets)?.to_vec();
        let in_targets = self.decode_pairs(SectionId::InTargets)?;
        if out_targets.len() as u64 != self.meta.edge_count {
            return Err(corrupt(
                "out_targets",
                format!(
                    "{} targets but meta says {} edges",
                    out_targets.len(),
                    self.meta.edge_count
                ),
            ));
        }
        let label_index = self.decode_label_index(schema.label_count())?;
        let attr_stats = self.decode_attr_stats(schema.attr_count())?;
        Graph::from_parts(GraphParts {
            schema,
            nodes,
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
            label_index,
            attr_stats,
            diameter: self.meta.diameter,
        })
    }

    /// Rebuilds an owned [`PllIndex`] from the label sections (copying), or
    /// `None` when absent. Prefer [`Snapshot::into_oracle`] for serving.
    pub fn load_pll(&self) -> Result<Option<PllIndex>, LoadError> {
        if !self.pll_available {
            return Ok(None);
        }
        let parts = PllParts {
            out_offsets: self.section_u32(SectionId::PllOutOffsets)?.to_vec(),
            out_ranks: self.section_u32(SectionId::PllOutRanks)?.to_vec(),
            out_dists: self.section_u32(SectionId::PllOutDists)?.to_vec(),
            in_offsets: self.section_u32(SectionId::PllInOffsets)?.to_vec(),
            in_ranks: self.section_u32(SectionId::PllInRanks)?.to_vec(),
            in_dists: self.section_u32(SectionId::PllInDists)?.to_vec(),
        };
        PllIndex::from_parts(parts).map(Some)
    }

    /// The oracle a context built from this snapshot serves over `graph`
    /// (this snapshot's graph): the mapped label sections, zero-copy —
    /// queries merge-join over the file bytes — when the snapshot carries
    /// usable labels; otherwise a BFS oracle, which answers identically.
    /// That is the case for a graph past the PLL crossover (the writer
    /// skipped the labels, as [`Oracle::build`] would) and for labels
    /// lost to quarantine. Fails with [`LoadError::Corrupt`] when the
    /// label arrays break their invariants or cover another node count.
    pub fn into_oracle(self, graph: &Arc<Graph>) -> Result<Oracle, LoadError> {
        if !self.pll_available {
            return Ok(Oracle::bfs(graph));
        }
        let mut sections: [Range<usize>; 6] = Default::default();
        for (slot, id) in SectionId::PLL.into_iter().enumerate() {
            let e = self
                .entry(id)
                .ok_or_else(|| corrupt("section_table", format!("missing {}", id.name())))?;
            sections[slot] = e.offset as usize..(e.offset + e.len) as usize;
        }
        Oracle::mapped(graph, Arc::new(FileBytes(self)), sections)
    }
}

/// A snapshot's file bytes, owned by the oracle that serves its labels.
struct FileBytes(Snapshot);

impl AsRef<[u8]> for FileBytes {
    fn as_ref(&self) -> &[u8] {
        self.0.map.bytes()
    }
}
