//! Error type for the fallible engine entry points.
//!
//! Construction of sessions and engines validates the why-question and the
//! tunables up front so the algorithms themselves can stay panic-free: a
//! question that passes [`crate::session::Session::try_new`] never trips an
//! invariant deeper in the search.

use crate::spec::SpecError;
use wqe_query::PatternError;

/// Broad classification of a snapshot failure, condensed from the
/// [`wqe_graph::LoadError`] that produced it. Callers branch on the kind
/// (retry? re-snapshot? reject the file?) without parsing strings; the full
/// detail rides along in [`WqeError::Snapshot`]'s `detail` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotErrorKind {
    /// The file could not be read at all (missing, permissions, I/O).
    Io,
    /// The bytes are not a WQE snapshot (bad magic) — wrong file, not a
    /// damaged one.
    NotASnapshot,
    /// A real snapshot, but written by a newer format this build cannot
    /// read. Upgrading the reader (not re-snapshotting) fixes it.
    UnsupportedVersion,
    /// A real snapshot whose bytes are damaged: checksum mismatch,
    /// truncation, or a decoded structural invariant violation. The source
    /// graph must be re-snapshotted.
    Corrupt,
    /// A line-oriented text load (JSONL/TSV) failed to parse or resolve —
    /// only reachable through loaders, never from binary snapshots.
    Malformed,
}

impl SnapshotErrorKind {
    fn classify(e: &wqe_graph::LoadError) -> SnapshotErrorKind {
        use wqe_graph::LoadError as L;
        match e {
            L::Io(_) => SnapshotErrorKind::Io,
            L::BadMagic => SnapshotErrorKind::NotASnapshot,
            L::UnsupportedVersion { .. } => SnapshotErrorKind::UnsupportedVersion,
            L::ChecksumMismatch { .. } | L::Truncated { .. } | L::Corrupt { .. } => {
                SnapshotErrorKind::Corrupt
            }
            _ => SnapshotErrorKind::Malformed,
        }
    }
}

impl std::fmt::Display for SnapshotErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SnapshotErrorKind::Io => "i/o",
            SnapshotErrorKind::NotASnapshot => "not a snapshot",
            SnapshotErrorKind::UnsupportedVersion => "unsupported version",
            SnapshotErrorKind::Corrupt => "corrupt",
            SnapshotErrorKind::Malformed => "malformed input",
        };
        f.write_str(s)
    }
}

/// Why a session, engine, or multi-focus answer could not be built.
///
/// Marked `#[non_exhaustive]`: downstream matches need a `_` arm, which is
/// what lets this enum grow (as it did when `Snapshot` gained a typed
/// `kind`) without a semver break.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WqeError {
    /// The question's pattern has no live focus node (e.g. it was removed
    /// by an operator before the question was posed).
    DeadFocus,
    /// A human-writable question spec failed to parse or resolve against
    /// the graph's schema (see [`crate::spec`]).
    Spec(SpecError),
    /// A numeric tunable is non-finite or out of its documented range.
    InvalidConfig {
        /// Which `WqeConfig` field was rejected.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A pattern-level operation failed (refocusing, operator application).
    Pattern(PatternError),
    /// [`crate::ctx::EngineCtx::builder`] was driven into an unusable
    /// configuration (no graph source, or two conflicting ones).
    Builder {
        /// What was wrong with the builder call sequence.
        reason: &'static str,
    },
    /// A live-graph update batch was rejected before any state changed
    /// (see [`wqe_graph::DeltaError`]): the published head is untouched.
    Update(wqe_graph::DeltaError),
    /// A durable snapshot could not be opened or decoded.
    Snapshot {
        /// What class of failure this was — branch on this, not `detail`.
        kind: SnapshotErrorKind,
        /// The stringified [`wqe_graph::LoadError`] (that type owns
        /// `io::Error` sources, so it cannot satisfy this enum's
        /// `Clone + PartialEq`).
        detail: String,
    },
    /// A worker thread panicked while evaluating one search candidate. The
    /// panic was contained by the pool ([`wqe_pool::PoolError::Panicked`]):
    /// this query failed, but the process — and any sibling session sharing
    /// the same `EngineCtx` — keeps running.
    WorkerPanicked {
        /// Index of the batch item whose evaluation panicked.
        item: usize,
        /// The stringified panic payload.
        message: String,
    },
}

impl std::fmt::Display for WqeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WqeError::DeadFocus => write!(f, "the query's focus node is not live"),
            WqeError::Spec(e) => write!(f, "{e}"),
            WqeError::InvalidConfig { field, value } => {
                write!(f, "invalid config: {field} = {value}")
            }
            WqeError::Pattern(e) => write!(f, "pattern error: {e}"),
            WqeError::Builder { reason } => write!(f, "engine builder misuse: {reason}"),
            WqeError::Update(e) => write!(f, "graph update rejected: {e}"),
            WqeError::Snapshot { kind, detail } => {
                write!(f, "snapshot error ({kind}): {detail}")
            }
            WqeError::WorkerPanicked { item, message } => {
                write!(f, "worker panicked on item {item}: {message}")
            }
        }
    }
}

impl std::error::Error for WqeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WqeError::Pattern(e) => Some(e),
            WqeError::Spec(e) => Some(e),
            WqeError::Update(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PatternError> for WqeError {
    fn from(e: PatternError) -> Self {
        WqeError::Pattern(e)
    }
}

impl From<SpecError> for WqeError {
    fn from(e: SpecError) -> Self {
        WqeError::Spec(e)
    }
}

impl From<wqe_graph::DeltaError> for WqeError {
    fn from(e: wqe_graph::DeltaError) -> Self {
        WqeError::Update(e)
    }
}

impl From<wqe_graph::LoadError> for WqeError {
    fn from(e: wqe_graph::LoadError) -> Self {
        WqeError::Snapshot {
            kind: SnapshotErrorKind::classify(&e),
            detail: e.to_string(),
        }
    }
}

impl From<wqe_pool::PoolError> for WqeError {
    fn from(e: wqe_pool::PoolError) -> Self {
        let wqe_pool::PoolError::Panicked { item, message } = e;
        WqeError::WorkerPanicked { item, message }
    }
}

/// Runs `f`, containing a panic anywhere inside it as
/// [`WqeError::WorkerPanicked`] so a failed build or search never unwinds
/// into the caller.
pub(crate) fn contain<T>(f: impl FnOnce() -> Result<T, WqeError>) -> Result<T, WqeError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let message = p
            .downcast_ref::<&'static str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(WqeError::WorkerPanicked { item: 0, message })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(WqeError::DeadFocus.to_string().contains("focus"));
        let e = WqeError::InvalidConfig {
            field: "budget",
            value: f64::NAN,
        };
        assert!(e.to_string().contains("budget"));
    }

    #[test]
    fn pool_panics_convert() {
        let e: WqeError = wqe_pool::PoolError::Panicked {
            item: 3,
            message: "boom".into(),
        }
        .into();
        assert_eq!(
            e,
            WqeError::WorkerPanicked {
                item: 3,
                message: "boom".into()
            }
        );
        let s = e.to_string();
        assert!(s.contains("item 3") && s.contains("boom"), "{s}");
    }

    #[test]
    fn load_errors_convert_to_snapshot_strings() {
        let e: WqeError = wqe_graph::LoadError::BadMagic.into();
        match &e {
            WqeError::Snapshot { kind, detail } => {
                assert_eq!(*kind, SnapshotErrorKind::NotASnapshot);
                assert!(detail.contains("magic"), "{detail}");
            }
            other => panic!("expected Snapshot, got {other:?}"),
        }
        assert!(e.to_string().starts_with("snapshot error"));
    }

    #[test]
    fn load_errors_classify_by_failure_mode() {
        use wqe_graph::LoadError as L;
        let cases: Vec<(WqeError, SnapshotErrorKind)> = vec![
            (
                L::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")).into(),
                SnapshotErrorKind::Io,
            ),
            (L::BadMagic.into(), SnapshotErrorKind::NotASnapshot),
            (
                L::UnsupportedVersion {
                    found: 99,
                    supported: 3,
                }
                .into(),
                SnapshotErrorKind::UnsupportedVersion,
            ),
            (
                L::ChecksumMismatch { section: "graph" }.into(),
                SnapshotErrorKind::Corrupt,
            ),
            (
                L::Truncated {
                    what: "header",
                    needed: 64,
                    available: 3,
                }
                .into(),
                SnapshotErrorKind::Corrupt,
            ),
            (
                L::Corrupt {
                    section: "pll_out",
                    detail: "non-monotonic offsets".into(),
                }
                .into(),
                SnapshotErrorKind::Corrupt,
            ),
            (
                L::Malformed {
                    line: 7,
                    detail: "missing label".into(),
                }
                .into(),
                SnapshotErrorKind::Malformed,
            ),
        ];
        for (err, want) in cases {
            match err {
                WqeError::Snapshot { kind, .. } => assert_eq!(kind, want),
                other => panic!("expected Snapshot, got {other:?}"),
            }
        }
    }

    #[test]
    fn pattern_errors_convert() {
        let p = PatternError::FocusRemoval;
        let e: WqeError = p.clone().into();
        assert_eq!(e, WqeError::Pattern(p));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn spec_errors_convert() {
        let s = SpecError("unknown label \"Spaceship\"".into());
        let e: WqeError = s.clone().into();
        assert_eq!(e, WqeError::Spec(s));
        assert!(e.to_string().contains("Spaceship"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
