//! Streaming snapshot writer: emits the section format of
//! [`crate::format`] incrementally, so a producer can write a section in
//! chunks — checksummed on the fly by [`format::Fnv1a`](crate::format::Fnv1a)
//! — without ever materializing the whole payload (or the whole file) in
//! memory.
//!
//! Protocol: `create(path, section_count)` reserves the header + section
//! table region, then for each section (ascending section id) call
//! [`SnapshotWriter::begin_section`], any number of
//! [`SnapshotWriter::write`]s, and [`SnapshotWriter::end_section`]; finally
//! [`SnapshotWriter::finish`] seeks back, fills in the header and table,
//! and syncs. The snapshot encoder ([`crate::write_source`]) drives it
//! through one fixed buffer, for in-memory graphs and streamed ones alike.

use crate::format::*;
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn misuse(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, msg.into())
}

/// Distinguishes concurrent writers targeting the same destination within
/// one process (the pid distinguishes across processes).
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Incremental writer for one snapshot file. See the module docs for the
/// call protocol; any out-of-order call fails with
/// [`std::io::ErrorKind::InvalidInput`] rather than corrupting the file.
///
/// Writes are **crash-safe**: all bytes go to a temp file in the
/// destination's directory, and only [`SnapshotWriter::finish`] — after a
/// flush and `fsync` — atomically renames it into place. A crash (or a
/// dropped writer) at any earlier point leaves the destination untouched:
/// either the previous complete snapshot, or nothing. Dropping an
/// unfinished writer removes its temp file.
pub struct SnapshotWriter {
    out: BufWriter<File>,
    /// Where the bytes are being written (same directory as `dest`).
    tmp: PathBuf,
    /// Where `finish` renames the file to.
    dest: PathBuf,
    /// Set by `finish` so `Drop` leaves the renamed file alone.
    done: bool,
    section_count: usize,
    entries: Vec<SectionEntry>,
    /// Current absolute byte offset in the file.
    offset: u64,
    /// Section in progress: (id, payload start offset, running checksum).
    current: Option<(SectionId, u64, Fnv1a)>,
}

impl SnapshotWriter {
    /// Opens a writer targeting `path` and reserves room for a header plus
    /// a `section_count`-entry table. The count is fixed up front because
    /// the table precedes the payloads; [`SnapshotWriter::finish`] verifies
    /// exactly that many sections were written before publishing the file.
    pub fn create(path: &Path, section_count: usize) -> std::io::Result<SnapshotWriter> {
        if section_count > MAX_SECTIONS {
            return Err(misuse(format!(
                "section count {section_count} exceeds MAX_SECTIONS"
            )));
        }
        // Same-directory temp file so the final rename cannot cross a
        // filesystem boundary (rename is only atomic within one).
        let file_name = path
            .file_name()
            .ok_or_else(|| misuse(format!("snapshot path {} has no file name", path.display())))?
            .to_string_lossy()
            .into_owned();
        let tmp = path.with_file_name(format!(
            ".{file_name}.tmp.{}.{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut out = BufWriter::new(File::create(&tmp)?);
        // Zero the header + table region now; finish() seeks back to fill
        // it in once every offset, length, and checksum is known.
        let data_start = align_up(HEADER_LEN as u64 + (section_count * SECTION_ENTRY_LEN) as u64);
        out.write_all(&vec![0u8; data_start as usize])?;
        Ok(SnapshotWriter {
            out,
            tmp,
            dest: path.to_path_buf(),
            done: false,
            section_count,
            entries: Vec::with_capacity(section_count),
            offset: data_start,
            current: None,
        })
    }

    /// Starts the next section. Ids must strictly ascend across the file —
    /// the batch writer emits them in id order, and enforcing it here keeps
    /// streamed output deterministic.
    pub fn begin_section(&mut self, id: SectionId) -> std::io::Result<()> {
        if self.current.is_some() {
            return Err(misuse("begin_section with a section still open"));
        }
        if self.entries.len() == self.section_count {
            return Err(misuse(format!(
                "more than the declared {} sections",
                self.section_count
            )));
        }
        if let Some(last) = self.entries.last() {
            if last.id >= id as u32 {
                return Err(misuse(format!(
                    "section id {} not ascending after {}",
                    id as u32, last.id
                )));
            }
        }
        self.current = Some((id, self.offset, Fnv1a::new()));
        Ok(())
    }

    /// Appends payload bytes to the open section, folding them into its
    /// checksum. Call any number of times between begin and end.
    pub fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let Some((_, _, hasher)) = self.current.as_mut() else {
            return Err(misuse("write with no section open"));
        };
        hasher.update(bytes);
        self.out.write_all(bytes)?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Closes the open section: records its table entry and pads the file
    /// to the next [`SECTION_ALIGN`] boundary.
    pub fn end_section(&mut self) -> std::io::Result<()> {
        let Some((id, start, hasher)) = self.current.take() else {
            return Err(misuse("end_section with no section open"));
        };
        self.entries.push(SectionEntry {
            id: id as u32,
            offset: start,
            len: self.offset - start,
            checksum: hasher.finish(),
        });
        let padded = align_up(self.offset);
        let pad = (padded - self.offset) as usize;
        self.out.write_all(&[0u8; SECTION_ALIGN][..pad])?;
        self.offset = padded;
        Ok(())
    }

    /// Convenience: a whole section from one buffer.
    pub fn write_section(&mut self, id: SectionId, payload: &[u8]) -> std::io::Result<()> {
        self.begin_section(id)?;
        self.write(payload)?;
        self.end_section()
    }

    /// Seeks back to fill in the header and section table, flushes,
    /// `fsync`s, and atomically renames the temp file onto the
    /// destination (then best-effort `fsync`s the directory so the rename
    /// itself is durable). Returns the total file length. Until this
    /// returns, the destination path is untouched.
    pub fn finish(mut self) -> std::io::Result<u64> {
        if self.current.is_some() {
            return Err(misuse("finish with a section still open"));
        }
        if self.entries.len() != self.section_count {
            return Err(misuse(format!(
                "declared {} sections, wrote {}",
                self.section_count,
                self.entries.len()
            )));
        }
        let file_len = self.offset;
        self.out.seek(SeekFrom::Start(0))?;
        let mut head = Vec::with_capacity(HEADER_LEN + self.entries.len() * SECTION_ENTRY_LEN);
        head.extend_from_slice(&MAGIC);
        head.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        head.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        head.extend_from_slice(&file_len.to_le_bytes());
        head.extend_from_slice(&ENDIAN_MARK.to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes());
        debug_assert_eq!(head.len(), HEADER_LEN);
        for e in &self.entries {
            head.extend_from_slice(&e.id.to_le_bytes());
            head.extend_from_slice(&0u32.to_le_bytes());
            head.extend_from_slice(&e.offset.to_le_bytes());
            head.extend_from_slice(&e.len.to_le_bytes());
            head.extend_from_slice(&e.checksum.to_le_bytes());
        }
        self.out.write_all(&head)?;
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        // Publish: atomic within-directory rename. On failure, Drop still
        // removes the temp file.
        std::fs::rename(&self.tmp, &self.dest)?;
        self.done = true;
        // Durability of the rename itself needs the directory synced; on
        // platforms/filesystems where opening a directory for sync is not
        // supported this is best-effort (the data itself is already
        // synced).
        if let Some(dir) = self.dest.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                d.sync_all().ok();
            }
        }
        Ok(file_len)
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        if !self.done {
            std::fs::remove_file(&self.tmp).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("wqe-stream-test-{tag}-{}.wqs", std::process::id()))
    }

    #[test]
    fn misuse_is_rejected() {
        let path = temp("misuse");
        let mut w = SnapshotWriter::create(&path, 2).unwrap();
        assert!(w.write(b"x").is_err()); // no section open
        assert!(w.end_section().is_err());
        w.begin_section(SectionId::Schema).unwrap();
        assert!(w.begin_section(SectionId::Meta).is_err()); // still open
        w.write(b"{}").unwrap();
        w.end_section().unwrap();
        // Ids must ascend.
        assert!(w.begin_section(SectionId::Schema).is_err());
        w.write_section(SectionId::Meta, &[0u8; 32]).unwrap();
        // Declared two sections; a third is refused, then finish works.
        assert!(w.begin_section(SectionId::NodeLabels).is_err());
        assert!(w.finish().is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn finish_requires_declared_count() {
        let path = temp("count");
        let mut w = SnapshotWriter::create(&path, 2).unwrap();
        w.write_section(SectionId::Schema, b"{}").unwrap();
        assert!(w.finish().is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn destination_appears_only_at_finish() {
        let path = temp("atomic");
        std::fs::remove_file(&path).ok();
        let mut w = SnapshotWriter::create(&path, 1).unwrap();
        w.write_section(SectionId::Schema, b"{}").unwrap();
        assert!(
            !path.exists(),
            "bytes must land in the temp file, not the destination"
        );
        w.finish().unwrap();
        assert!(path.exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unfinished_writer_leaves_destination_untouched() {
        let path = temp("crash");
        // A pre-existing complete file must survive an abandoned rewrite.
        std::fs::write(&path, b"previous complete snapshot").unwrap();
        {
            let mut w = SnapshotWriter::create(&path, 2).unwrap();
            w.write_section(SectionId::Schema, b"{}").unwrap();
            w.begin_section(SectionId::Meta).unwrap();
            w.write(&[0u8; 16]).unwrap();
            // Simulated crash: writer dropped mid-section.
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"previous complete snapshot");
        // And the dropped writer removed its temp file.
        let dir = path.parent().unwrap().to_path_buf();
        let marker = path.file_name().unwrap().to_string_lossy().into_owned();
        let litter = std::fs::read_dir(dir).unwrap().any(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            name.contains(&marker) && name.contains(".tmp")
        });
        assert!(!litter, "abandoned temp file must be cleaned up");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_writes_match_batch() {
        // The same payloads written in one piece and in odd-sized chunks
        // must produce byte-identical files.
        let payload: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let (p1, p2) = (temp("chunk1"), temp("chunk2"));
        let mut w = SnapshotWriter::create(&p1, 1).unwrap();
        w.write_section(SectionId::Schema, &payload).unwrap();
        w.finish().unwrap();
        let mut w = SnapshotWriter::create(&p2, 1).unwrap();
        w.begin_section(SectionId::Schema).unwrap();
        for chunk in payload.chunks(7) {
            w.write(chunk).unwrap();
        }
        w.end_section().unwrap();
        w.finish().unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }
}
