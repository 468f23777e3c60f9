//! The on-disk layout of a WQE snapshot (`.wqs`).
//!
//! ```text
//! offset 0   header (32 bytes)
//!            +--------+---------+-----------+----------+--------+----------+
//!            | magic  | version | #sections | file_len | endian | reserved |
//!            | 8 B    | u32     | u32       | u64      | u32    | u32      |
//!            +--------+---------+-----------+----------+--------+----------+
//! offset 32  section table (#sections x 32 bytes)
//!            +-----+----------+--------+-------+-------------+
//!            | id  | reserved | offset | len   | fnv1a64     |
//!            | u32 | u32      | u64    | u64   | u64         |
//!            +-----+----------+--------+-------+-------------+
//!            section payloads, each 16-byte aligned, zero padded between
//! ```
//!
//! Everything is little-endian. Every section payload that holds numeric
//! data is a flat array of `u32`/`u64`/`f64`-bit primitives; because every
//! section offset is 16-byte aligned (and the mapping base is page- or
//! 16-aligned), a loaded snapshot can view those arrays in place with
//! [`slice::align_to`] — no decode pass, no copies for the big arrays.
//!
//! ## Versioning and compatibility
//!
//! `FORMAT_VERSION` is bumped whenever the layout of any existing section
//! changes incompatibly. A reader accepts only files of its own
//! `FORMAT_VERSION` and rejects every other version with
//! [`LoadError::UnsupportedVersion`](wqe_graph::LoadError); a snapshot is a
//! cache of a graph, so an old file is rebuilt, not migrated. *Adding* a
//! new section id is backward compatible (readers ignore unknown ids), so
//! purely additive evolution does not bump the version.
//!
//! Version history:
//!
//! * **1** — initial layout; PLL labels persisted as two interleaved
//!   `(rank, dist)` pair sections per direction (ids 15 and 17). No
//!   longer readable.
//! * **2** — PLL labels persisted struct-of-arrays: separate rank and
//!   distance sections per direction ([`SectionId::PLL`]), matching the
//!   in-memory layout the SIMD merge kernels consume, so a mapped snapshot
//!   serves distance queries in place.

/// First eight bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"WQESNAP\0";

/// The format version writers emit and readers accept.
pub const FORMAT_VERSION: u32 = 2;

/// Endianness canary stored in the header: a reader on a platform that
/// sees a different value cannot reinterpret the arrays in place.
pub const ENDIAN_MARK: u32 = 0x0a0b_0c0d;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 32;

/// Length of one section-table entry in bytes.
pub const SECTION_ENTRY_LEN: usize = 32;

/// Alignment of every section payload. 16 covers every primitive the
/// format stores (`u32`, `u64`, `f64` bits).
pub const SECTION_ALIGN: usize = 16;

/// Upper bound on the section count a reader will accept — a corrupt
/// header cannot make it allocate an absurd table.
pub const MAX_SECTIONS: usize = 256;

/// Attribute-value tag: `i64` payload.
pub const TAG_INT: u32 = 0;
/// Attribute-value tag: `f64`-bits payload.
pub const TAG_FLOAT: u32 = 1;
/// Attribute-value tag: payload indexes the string pool.
pub const TAG_STR: u32 = 2;
/// Attribute-value tag: payload is 0 or 1.
pub const TAG_BOOL: u32 = 3;

/// Bit set in the meta `flags` word when the PLL label sections are
/// present (graphs at or below the PLL crossover persist their index).
pub const FLAG_HAS_PLL: u64 = 1;

/// Every section a snapshot may carry, with its stable id. Ids are never
/// reused: 15/17 stay reserved for the version-1 interleaved PLL entry
/// sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionId {
    /// Schema name lists (JSON): labels, attributes, edge labels, each in
    /// id order so re-interning reproduces identical ids.
    Schema = 1,
    /// `[u64; 4]`: node count, edge count, raw diameter, flags.
    Meta = 2,
    /// `u32` per node: its [`wqe_graph::LabelId`].
    NodeLabels = 3,
    /// `u32` per node + 1: entry offsets into [`SectionId::AttrEntries`].
    AttrOffsets = 4,
    /// 16 bytes per attribute-value: attr id `u32`, tag `u32`, payload `u64`.
    AttrEntries = 5,
    /// String pool (JSON array) referenced by `TAG_STR` payloads.
    StrPool = 6,
    /// Forward CSR offsets, `u32` per node + 1.
    OutOffsets = 7,
    /// Forward CSR targets, interleaved `u32` pairs (target, edge label).
    OutTargets = 8,
    /// Reverse CSR offsets.
    InOffsets = 9,
    /// Reverse CSR sources, interleaved `u32` pairs (source, edge label).
    InTargets = 10,
    /// `u32` per label + 1: offsets into [`SectionId::LabelIndexNodes`].
    LabelIndexOffsets = 11,
    /// Node ids grouped by label, `u32` each.
    LabelIndexNodes = 12,
    /// 40 bytes per attribute: count, numeric count, min bits, max bits,
    /// distinct categorical — five `u64` words.
    AttrStats = 13,
    /// PLL `L_out` entry offsets, `u32` per node + 1 (optional section).
    PllOutOffsets = 14,
    /// PLL `L_in` entry offsets.
    PllInOffsets = 16,
    /// PLL `L_out` landmark ranks, one `u32` per entry.
    PllOutRanks = 18,
    /// PLL `L_out` distances, parallel to the ranks.
    PllOutDists = 19,
    /// PLL `L_in` landmark ranks.
    PllInRanks = 20,
    /// PLL `L_in` distances.
    PllInDists = 21,
}

impl SectionId {
    /// Sections every valid snapshot must carry (PLL sections are optional).
    pub const REQUIRED: [SectionId; 13] = [
        SectionId::Schema,
        SectionId::Meta,
        SectionId::NodeLabels,
        SectionId::AttrOffsets,
        SectionId::AttrEntries,
        SectionId::StrPool,
        SectionId::OutOffsets,
        SectionId::OutTargets,
        SectionId::InOffsets,
        SectionId::InTargets,
        SectionId::LabelIndexOffsets,
        SectionId::LabelIndexNodes,
        SectionId::AttrStats,
    ];

    /// The optional PLL label sections (flat struct-of-arrays: offsets +
    /// ranks + distances per direction).
    pub const PLL: [SectionId; 6] = [
        SectionId::PllOutOffsets,
        SectionId::PllOutRanks,
        SectionId::PllOutDists,
        SectionId::PllInOffsets,
        SectionId::PllInRanks,
        SectionId::PllInDists,
    ];

    /// Decodes a raw section id (unknown ids are tolerated by readers; this
    /// returns `None` for them).
    pub fn from_u32(v: u32) -> Option<SectionId> {
        Some(match v {
            1 => SectionId::Schema,
            2 => SectionId::Meta,
            3 => SectionId::NodeLabels,
            4 => SectionId::AttrOffsets,
            5 => SectionId::AttrEntries,
            6 => SectionId::StrPool,
            7 => SectionId::OutOffsets,
            8 => SectionId::OutTargets,
            9 => SectionId::InOffsets,
            10 => SectionId::InTargets,
            11 => SectionId::LabelIndexOffsets,
            12 => SectionId::LabelIndexNodes,
            13 => SectionId::AttrStats,
            14 => SectionId::PllOutOffsets,
            16 => SectionId::PllInOffsets,
            18 => SectionId::PllOutRanks,
            19 => SectionId::PllOutDists,
            20 => SectionId::PllInRanks,
            21 => SectionId::PllInDists,
            _ => return None,
        })
    }

    /// Stable human-readable name (used in errors and `index inspect`).
    pub fn name(self) -> &'static str {
        match self {
            SectionId::Schema => "schema",
            SectionId::Meta => "meta",
            SectionId::NodeLabels => "node_labels",
            SectionId::AttrOffsets => "attr_offsets",
            SectionId::AttrEntries => "attr_entries",
            SectionId::StrPool => "strpool",
            SectionId::OutOffsets => "out_offsets",
            SectionId::OutTargets => "out_targets",
            SectionId::InOffsets => "in_offsets",
            SectionId::InTargets => "in_targets",
            SectionId::LabelIndexOffsets => "label_index_offsets",
            SectionId::LabelIndexNodes => "label_index_nodes",
            SectionId::AttrStats => "attr_stats",
            SectionId::PllOutOffsets => "pll_out_offsets",
            SectionId::PllInOffsets => "pll_in_offsets",
            SectionId::PllOutRanks => "pll_out_ranks",
            SectionId::PllOutDists => "pll_out_dists",
            SectionId::PllInRanks => "pll_in_ranks",
            SectionId::PllInDists => "pll_in_dists",
        }
    }
}

/// One decoded section-table entry.
#[derive(Debug, Clone, Copy)]
pub struct SectionEntry {
    /// Raw section id (may be unknown to this reader).
    pub id: u32,
    /// Payload offset from the start of the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a 64 checksum of the payload bytes.
    pub checksum: u64,
}

/// Incremental FNV-1a 64-bit hasher — the per-section checksum, usable
/// over chunked payloads so the streaming writer never needs the whole
/// section in memory. Not cryptographic; it exists to catch torn writes,
/// truncation, and bit rot, and it is dependency-free and fast enough to
/// verify every section at open.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher in the FNV-1a initial state.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// The digest of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// One-shot FNV-1a 64 over a whole buffer (see [`Fnv1a`]).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Rounds `off` up to the next [`SECTION_ALIGN`] boundary.
pub fn align_up(off: u64) -> u64 {
    off.div_ceil(SECTION_ALIGN as u64) * SECTION_ALIGN as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_incremental_matches_oneshot() {
        let mut h = Fnv1a::new();
        h.update(b"foo");
        h.update(b"");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn align_up_boundaries() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 16);
        assert_eq!(align_up(16), 16);
        assert_eq!(align_up(17), 32);
    }

    #[test]
    fn section_ids_roundtrip() {
        for id in SectionId::REQUIRED.into_iter().chain(SectionId::PLL) {
            assert_eq!(SectionId::from_u32(id as u32), Some(id));
            assert!(!id.name().is_empty());
        }
        assert_eq!(SectionId::from_u32(0), None);
        assert_eq!(SectionId::from_u32(999), None);
    }
}
