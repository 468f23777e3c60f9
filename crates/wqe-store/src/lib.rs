//! # wqe-store
//!
//! Durable snapshot store for the WQE system: a versioned binary format
//! (`.wqs`) that captures everything expensive about a ready-to-serve
//! context — the finalized graph (schema, attribute tuples, both CSR
//! adjacency arrays, the label index, active-domain statistics, the
//! diameter estimate) *and* the pruned-landmark-labeling distance index —
//! so a replica restart is a map + checksum pass instead of a parse +
//! rebuild.
//!
//! Layout, versioning, and compatibility policy live in [`format`](module@crate::format);
//! DESIGN.md "Durable store" has the narrative version. Highlights:
//!
//! * one encoder, [`write_source`], writes every snapshot from a
//!   [`GraphSource`] — a finalized graph ([`write_snapshot`]) or the
//!   paper-scale generator of `wqe-datagen`, which streams without
//!   building the graph in memory;
//! * magic + format version + section table, FNV-1a 64 checksum per
//!   section, every payload 16-byte aligned little-endian primitives;
//! * zero-copy load: on unix the file is `mmap`ed (hand-written
//!   `extern "C"` binding — the workspace is offline), elsewhere read into
//!   a 16-aligned buffer; either way the big arrays are *viewed* in place;
//! * [`Snapshot::into_oracle`] hands the mapped PLL label sections to a
//!   [`wqe_index::Oracle`], which merge-joins directly over the file bytes;
//! * corruption surfaces as [`wqe_graph::LoadError`] (bad magic, wrong
//!   version, checksum mismatch, truncation) — never a panic.
//!
//! ```no_run
//! use std::path::Path;
//! # fn demo(graph: &wqe_graph::Graph) -> Result<(), Box<dyn std::error::Error>> {
//! wqe_store::build_and_write_snapshot(Path::new("g.wqs"), graph)?;
//! let snap = wqe_store::Snapshot::open(Path::new("g.wqs"))?;
//! let loaded = snap.load_graph()?; // no CSR rebuild, no stats pass
//! assert_eq!(loaded.node_count(), graph.node_count());
//! # Ok(()) }
//! ```

#![warn(missing_docs)]

pub mod format;
mod mmap;
mod read;
mod stream;
mod write;

pub use format::{SectionId, FORMAT_VERSION, MAGIC};
pub use mmap::MappedFile;
pub use read::{SectionInfo, Snapshot, SnapshotMeta};
pub use stream::SnapshotWriter;
pub use write::{build_and_write_snapshot, write_snapshot, write_source, GraphSource};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use wqe_graph::{AttrValue, Graph, GraphBuilder, LoadError, NodeId};
    use wqe_index::{DistanceOracle, PllIndex};

    static TEMP_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_snap(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "wqe-store-test-{tag}-{}-{}.wqs",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// A small graph exercising every value type, multiple labels and edge
    /// labels, and a non-trivial topology.
    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let mut ids = Vec::new();
        for i in 0..30i64 {
            let label = if i % 3 == 0 { "Phone" } else { "Carrier" };
            ids.push(b.add_node(
                label,
                [
                    ("price", AttrValue::Int(100 + i)),
                    ("score", AttrValue::Float(i as f64 / 4.0)),
                    ("brand", AttrValue::Str(format!("b{}", i % 5))),
                    ("hot", AttrValue::Bool(i % 2 == 0)),
                ],
            ));
        }
        for i in 0..30usize {
            b.add_edge(ids[i], ids[(i + 1) % 30], "next");
            if i % 4 == 0 {
                b.add_edge(ids[i], ids[(i + 9) % 30], "skip");
            }
        }
        b.finalize()
    }

    fn graphs_equal(a: &Graph, b: &Graph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.raw_diameter(), b.raw_diameter());
        assert_eq!(a.schema().label_count(), b.schema().label_count());
        assert_eq!(a.schema().attr_count(), b.schema().attr_count());
        assert_eq!(a.schema().edge_label_count(), b.schema().edge_label_count());
        for v in a.node_ids() {
            assert_eq!(a.label(v), b.label(v));
            assert_eq!(a.node(v).attrs, b.node(v).attrs);
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
            assert_eq!(a.in_neighbors(v), b.in_neighbors(v));
        }
        for l in a.schema().label_ids() {
            assert_eq!(a.nodes_with_label(l), b.nodes_with_label(l));
        }
        for attr in a.schema().attr_ids() {
            let (sa, sb) = (a.attr_stats(attr).unwrap(), b.attr_stats(attr).unwrap());
            assert_eq!(sa.count, sb.count);
            assert_eq!(sa.numeric_count, sb.numeric_count);
            assert_eq!(sa.min_num.to_bits(), sb.min_num.to_bits());
            assert_eq!(sa.max_num.to_bits(), sb.max_num.to_bits());
            assert_eq!(sa.distinct_categorical, sb.distinct_categorical);
            assert_eq!(a.attr_range(attr), b.attr_range(attr));
        }
    }

    #[test]
    fn roundtrip_graph_and_index() {
        let g = sample_graph();
        let pll = PllIndex::build_with(&g, 0);
        let path = temp_snap("roundtrip");
        let written = write_snapshot(&path, &g, Some(&pll)).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());

        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.format_version(), FORMAT_VERSION);
        assert_eq!(snap.bytes_len(), written);
        assert!(snap.meta().has_pll());
        let g2 = snap.load_graph().unwrap();
        graphs_equal(&g, &g2);

        // Owned PLL import equals the original label-for-label.
        let pll2 = snap.load_pll().unwrap().unwrap();
        assert_eq!(
            serde_json::to_string(&pll).unwrap(),
            serde_json::to_string(&pll2).unwrap()
        );

        // The zero-copy mapped labels answer like the owned index.
        let oracle = snap.into_oracle(&Arc::new(g.clone())).unwrap();
        assert!(oracle.owned_labels().is_none(), "served from the mapping");
        for u in g.node_ids() {
            for v in g.node_ids() {
                assert_eq!(
                    oracle.distance_within(u, v, u32::MAX),
                    pll.distance_within(u, v, u32::MAX)
                );
            }
        }
        // The mapped batch path answers exactly like the owned index's.
        let pairs: Vec<(NodeId, NodeId)> = g.node_ids().map(|v| (NodeId(3), v)).collect();
        assert_eq!(oracle.dist_batch(&pairs, 8), pll.dist_batch(&pairs, 8));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let g = sample_graph();
        let pll = PllIndex::build_with(&g, 0);
        let (p1, p2) = (temp_snap("det1"), temp_snap("det2"));
        write_snapshot(&p1, &g, Some(&pll)).unwrap();
        write_snapshot(&p2, &g, Some(&pll)).unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn snapshot_without_pll() {
        let g = sample_graph();
        let path = temp_snap("nopll");
        write_snapshot(&path, &g, None).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert!(!snap.meta().has_pll());
        assert!(snap.load_pll().unwrap().is_none());
        graphs_equal(&g, &snap.load_graph().unwrap());
        // No labels: the oracle is BFS, exact at every bound.
        let oracle = snap.into_oracle(&Arc::new(g.clone())).unwrap();
        let pairs: Vec<(NodeId, NodeId)> = g.node_ids().map(|v| (NodeId(0), v)).collect();
        let pll = PllIndex::build(&g);
        assert_eq!(oracle.dist_batch(&pairs, 99), pll.dist_batch(&pairs, 99));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = GraphBuilder::new().finalize();
        let path = temp_snap("emptyg");
        build_and_write_snapshot(&path, &g).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let g2 = snap.load_graph().unwrap();
        assert_eq!(g2.node_count(), 0);
        assert_eq!(g2.edge_count(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = temp_snap("magic");
        std::fs::write(&path, b"NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxxxxxx").unwrap();
        assert!(matches!(Snapshot::open(&path), Err(LoadError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_rejected() {
        // Version 1 (interleaved PLL pairs) is no longer read either.
        let g = sample_graph();
        let path = temp_snap("version");
        write_snapshot(&path, &g, None).unwrap();
        let written = std::fs::read(&path).unwrap();
        for version in [99u32, 1] {
            let mut bytes = written.clone();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            match Snapshot::open(&path) {
                Err(LoadError::UnsupportedVersion { found, supported }) => {
                    assert_eq!((found, supported), (version, FORMAT_VERSION));
                }
                other => panic!("version {version}: expected UnsupportedVersion, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_rejected_at_every_cut() {
        let g = sample_graph();
        let pll = PllIndex::build_with(&g, 0);
        let path = temp_snap("trunc");
        write_snapshot(&path, &g, Some(&pll)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Sweep cuts through the header, the table, and section payloads.
        for cut in [
            0,
            7,
            16,
            HEADER_LEN,
            HEADER_LEN + 40,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = Snapshot::open(&path).expect_err(&format!("cut at {cut} must fail"));
            assert!(
                matches!(err, LoadError::Truncated { .. } | LoadError::BadMagic),
                "cut {cut}: unexpected error {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_section_checksum_detects_corruption() {
        let g = sample_graph();
        let pll = PllIndex::build_with(&g, 0);
        let path = temp_snap("corrupt");
        write_snapshot(&path, &g, Some(&pll)).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let infos = snap.section_infos();
        drop(snap);
        // Flip one byte inside every nonempty section. open_strict() must
        // always name the section; open() must fail for required sections
        // and *quarantine* optional (PLL) ones, keeping the graph
        // servable.
        for info in &infos {
            if info.len == 0 {
                continue;
            }
            let mut bytes = clean.clone();
            let target = info.offset as usize + (info.len as usize) / 2;
            bytes[target] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
            match Snapshot::open_strict(&path) {
                Err(LoadError::ChecksumMismatch { section }) => {
                    assert_eq!(section, info.name, "wrong section blamed");
                }
                other => panic!(
                    "corrupting {} must fail open_strict with ChecksumMismatch, got {:?}",
                    info.name,
                    other.err().map(|e| e.to_string())
                ),
            }
            let required =
                SectionId::from_u32(info.id).is_some_and(|id| SectionId::REQUIRED.contains(&id));
            if required {
                match Snapshot::open(&path) {
                    Err(LoadError::ChecksumMismatch { section }) => {
                        assert_eq!(section, info.name, "wrong section blamed");
                    }
                    other => panic!(
                        "corrupting required {} must fail open, got {:?}",
                        info.name,
                        other.err().map(|e| e.to_string())
                    ),
                }
            } else {
                let snap = Snapshot::open(&path)
                    .unwrap_or_else(|e| panic!("optional {} must quarantine: {e}", info.name));
                assert_eq!(snap.quarantined(), vec![info.name]);
                assert!(!snap.pll_available(), "PLL set is broken");
                assert!(snap.load_pll().unwrap().is_none());
                assert!(snap.meta().has_pll(), "the file still *claims* PLL");
                // The graph itself still loads bit-for-bit.
                graphs_equal(&g, &snap.load_graph().unwrap());
                // And inspect flags exactly the quarantined row.
                let flagged: Vec<&str> = snap
                    .section_infos()
                    .iter()
                    .filter(|i| i.quarantined)
                    .map(|i| i.name)
                    .collect();
                assert_eq!(flagged, vec![info.name]);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_file_never_panics() {
        let path = temp_snap("garbage");
        // Valid magic + version but garbage everywhere else.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0xab; 64]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(Snapshot::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inspect_lists_all_sections() {
        let g = sample_graph();
        let path = temp_snap("inspect");
        build_and_write_snapshot(&path, &g).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let names: Vec<&str> = snap.section_infos().iter().map(|i| i.name).collect();
        for id in SectionId::REQUIRED {
            assert!(names.contains(&id.name()), "missing {}", id.name());
        }
        // sample_graph is under the PLL limit, so the policy writes labels.
        assert!(wqe_index::Oracle::wants_labels(&g));
        for id in SectionId::PLL {
            assert!(names.contains(&id.name()), "missing {}", id.name());
        }
        std::fs::remove_file(&path).ok();
    }
}
