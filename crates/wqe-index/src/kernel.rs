//! SIMD / scalar merge-join kernels for the PLL distance hot path.
//!
//! Every 2-hop distance query is a merge-join of two rank-sorted label
//! arrays. This module holds the portable scalar reference kernel, an AVX2
//! variant, and the amortized table path (a rank-indexed table of one
//! fixed label plus a rank cutoff) used wherever one endpoint stays fixed
//! while many are probed: `dist_batch` groups sharing a source *or* a
//! target, and the certification step of PLL construction and repair.
//!
//! ## Dispatch
//!
//! [`active_kernel`] picks AVX2 when the CPU reports it at runtime, unless
//! the `WQE_FORCE_SCALAR` environment variable is set (the CI kill-switch
//! that lets the same binary exercise both paths). The decision is made
//! once per process, so the hot path pays one relaxed load, not a feature
//! probe per call.
//!
//! ## Bit-identical by construction
//!
//! Both kernels are pinned to produce the same best distance *and* the
//! same entries-scanned count. The AVX2 merge advances its cursors to
//! exactly the positions the scalar merge would reach (block-skipping only
//! rides over lanes the scalar loop would also have consumed), additions
//! saturate exactly like `u32::saturating_add` (emulated with a sign-flip
//! compare), and `u32` min is exact — so profiles, benchmarks, and the
//! determinism suite cannot tell the kernels apart.
//!
//! ## Work counting
//!
//! "Entries scanned" is the machine-independent cost of a query: the sum
//! of the final merge cursors (`i + j` at loop exit) for merge-joins, and
//! table loads plus probed entries for the batch path. Wall-clock on a
//! shared 1-CPU benchmark host says nothing about the algorithm; entry
//! scans do.

use std::sync::OnceLock;

/// Which merge-join implementation serves queries in this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable scalar merge-join — always available, reference semantics.
    Scalar,
    /// AVX2 vectorized merge-join and gather-based batch probe.
    Avx2,
}

impl Kernel {
    /// Stable lowercase name for logs and bench reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
        }
    }

    /// Whether this kernel can run on the current CPU.
    pub fn available(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => false,
        }
    }
}

/// The kernel this process dispatches to, decided once: scalar when
/// `WQE_FORCE_SCALAR` is set (any value) or the CPU lacks AVX2.
pub fn active_kernel() -> Kernel {
    static ACTIVE: OnceLock<Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if std::env::var_os("WQE_FORCE_SCALAR").is_some() {
            Kernel::Scalar
        } else if Kernel::Avx2.available() {
            Kernel::Avx2
        } else {
            Kernel::Scalar
        }
    })
}

/// Merge-joins two rank-sorted labels (`L_out(u)` against `L_in(v)`),
/// returning the minimum hub distance (`u32::MAX` when the labels share no
/// landmark) and the number of label entries scanned.
#[inline]
pub fn merge_join(
    out_ranks: &[u32],
    out_dists: &[u32],
    in_ranks: &[u32],
    in_dists: &[u32],
) -> (u32, u64) {
    match active_kernel() {
        Kernel::Scalar => merge_join_scalar(out_ranks, out_dists, in_ranks, in_dists),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_kernel` only returns Avx2 after runtime detection.
        Kernel::Avx2 => unsafe { merge_join_avx2(out_ranks, out_dists, in_ranks, in_dists) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => merge_join_scalar(out_ranks, out_dists, in_ranks, in_dists),
    }
}

/// Runs the merge-join with an explicit kernel — the hook the SIMD-vs-
/// scalar equality tests use. `None` when the requested kernel is
/// unavailable on this CPU.
pub fn merge_join_with(
    kernel: Kernel,
    out_ranks: &[u32],
    out_dists: &[u32],
    in_ranks: &[u32],
    in_dists: &[u32],
) -> Option<(u32, u64)> {
    match kernel {
        Kernel::Scalar => Some(merge_join_scalar(out_ranks, out_dists, in_ranks, in_dists)),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => kernel.available().then(||
            // SAFETY: availability checked on the line above.
            unsafe { merge_join_avx2(out_ranks, out_dists, in_ranks, in_dists) }),
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => None,
    }
}

fn merge_join_scalar(
    out_ranks: &[u32],
    out_dists: &[u32],
    in_ranks: &[u32],
    in_dists: &[u32],
) -> (u32, u64) {
    debug_assert_eq!(out_ranks.len(), out_dists.len());
    debug_assert_eq!(in_ranks.len(), in_dists.len());
    let mut best = u32::MAX;
    let (mut i, mut j) = (0usize, 0usize);
    while i < out_ranks.len() && j < in_ranks.len() {
        match out_ranks[i].cmp(&in_ranks[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                best = best.min(out_dists[i].saturating_add(in_dists[j]));
                i += 1;
                j += 1;
            }
        }
    }
    (best, (i + j) as u64)
}

/// Exact `u32::saturating_add` over 8 lanes: add, detect unsigned overflow
/// with a sign-flipped signed compare (`sum < a`), force overflowed lanes
/// to `u32::MAX` by or-ing in the all-ones compare result.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn sat_add_epu32(
    a: std::arch::x86_64::__m256i,
    b: std::arch::x86_64::__m256i,
    sign: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let sum = _mm256_add_epi32(a, b);
    let ovf = _mm256_cmpgt_epi32(_mm256_xor_si256(a, sign), _mm256_xor_si256(sum, sign));
    _mm256_or_si256(sum, ovf)
}

/// AVX2 merge-join. For each out-entry `a`, whole 8-lane blocks of the
/// in-label strictly below `a` are skipped with one compare+movemask;
/// because the in-ranks are ascending, the lanes below `a` form a prefix
/// of the block, so `trailing_ones` lands the cursor exactly where the
/// scalar merge would. Matches are then resolved scalar (they touch one
/// entry each), keeping the saturating add bit-exact.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn merge_join_avx2(
    out_ranks: &[u32],
    out_dists: &[u32],
    in_ranks: &[u32],
    in_dists: &[u32],
) -> (u32, u64) {
    use std::arch::x86_64::*;
    debug_assert_eq!(out_ranks.len(), out_dists.len());
    debug_assert_eq!(in_ranks.len(), in_dists.len());
    let sign = _mm256_set1_epi32(i32::MIN);
    let mut best = u32::MAX;
    let (mut i, mut j) = (0usize, 0usize);
    while i < out_ranks.len() {
        let a = out_ranks[i];
        let va = _mm256_xor_si256(_mm256_set1_epi32(a as i32), sign);
        while j + 8 <= in_ranks.len() {
            let vb = _mm256_loadu_si256(in_ranks.as_ptr().add(j) as *const __m256i);
            let lt = _mm256_cmpgt_epi32(va, _mm256_xor_si256(vb, sign));
            let mask = _mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32;
            if mask == 0xff {
                j += 8;
            } else {
                j += mask.trailing_ones() as usize;
                break;
            }
        }
        while j < in_ranks.len() && in_ranks[j] < a {
            j += 1;
        }
        if j >= in_ranks.len() {
            break;
        }
        if in_ranks[j] == a {
            best = best.min(out_dists[i].saturating_add(in_dists[j]));
            j += 1;
        }
        i += 1;
    }
    (best, (i + j) as u64)
}

/// Targets per source below which a label batch (`PllSlices`'s
/// `dist_batch_with`, behind [`crate::Oracle`]) answers pairwise instead of
/// building the source table. Answers are identical either way; the table only pays off
/// once its fill cost amortizes over several probes.
pub const MIN_GROUP: usize = 4;

/// Reusable state for the grouped batch path: a rank-indexed distance
/// table holding the current source's out-label, plus the list of touched
/// ranks so clearing costs `O(|label|)`, not `O(n)`.
///
/// "Source" and "out-label" name the common case only. The table is just
/// rank → distance: loading a fixed *target's* `L_in` and probing each
/// source's `L_out` computes the same minimum, and so does loading a
/// landmark's label once per pruned BFS and probing every visited node's.
///
/// The batch trick is twofold. Loading `L_out(u)` once amortizes the
/// out-side scan over every target sharing the source, and recording the
/// source's **maximum rank** lets each target probe stop at its first
/// in-entry above that rank — entries past the cutoff cannot match
/// anything in the table. Both effects cut real entries scanned, which is
/// what the `OracleLabelEntries` profiler counter measures.
#[derive(Debug, Default)]
pub struct BatchScratch {
    table: Vec<u32>,
    touched: Vec<u32>,
    max_rank: u32,
    empty: bool,
}

impl BatchScratch {
    /// Creates an empty scratch (the table grows lazily to the largest
    /// rank seen).
    pub fn new() -> Self {
        BatchScratch {
            table: Vec::new(),
            touched: Vec::new(),
            max_rank: 0,
            empty: true,
        }
    }

    /// Loads a source's out-label into the rank table, replacing the
    /// previous source. Returns the entries scanned (one write per entry).
    /// Ranks must be ascending (label order) — the last one sizes the
    /// table and becomes the probe cutoff.
    pub fn load_source(&mut self, ranks: &[u32], dists: &[u32]) -> u64 {
        debug_assert_eq!(ranks.len(), dists.len());
        for &r in &self.touched {
            self.table[r as usize] = u32::MAX;
        }
        self.touched.clear();
        match ranks.last() {
            None => {
                self.empty = true;
                self.max_rank = 0;
            }
            Some(&last) => {
                self.empty = false;
                self.max_rank = last;
                if self.table.len() <= last as usize {
                    self.table.resize(last as usize + 1, u32::MAX);
                }
                for (&r, &d) in ranks.iter().zip(dists) {
                    self.table[r as usize] = d;
                    self.touched.push(r);
                }
            }
        }
        ranks.len() as u64
    }

    /// Probes a target's in-label against the loaded source table:
    /// minimum hub distance (`u32::MAX` when disjoint) plus entries
    /// scanned. Scanning stops at the first in-rank above the source's
    /// maximum rank (that entry is counted — it was examined).
    #[inline]
    pub fn probe(&self, in_ranks: &[u32], in_dists: &[u32]) -> (u32, u64) {
        match active_kernel() {
            Kernel::Scalar => self.probe_scalar(in_ranks, in_dists),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `active_kernel` only returns Avx2 after detection.
            Kernel::Avx2 => unsafe { self.probe_avx2(in_ranks, in_dists) },
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => self.probe_scalar(in_ranks, in_dists),
        }
    }

    /// [`BatchScratch::probe`] with an explicit kernel (test hook); `None`
    /// when the kernel is unavailable.
    pub fn probe_with(
        &self,
        kernel: Kernel,
        in_ranks: &[u32],
        in_dists: &[u32],
    ) -> Option<(u32, u64)> {
        match kernel {
            Kernel::Scalar => Some(self.probe_scalar(in_ranks, in_dists)),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => kernel.available().then(||
                // SAFETY: availability checked on the line above.
                unsafe { self.probe_avx2(in_ranks, in_dists) }),
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => None,
        }
    }

    fn probe_scalar(&self, in_ranks: &[u32], in_dists: &[u32]) -> (u32, u64) {
        debug_assert_eq!(in_ranks.len(), in_dists.len());
        if self.empty {
            return (u32::MAX, 0);
        }
        let mut best = u32::MAX;
        for (k, (&r, &d)) in in_ranks.iter().zip(in_dists).enumerate() {
            if r > self.max_rank {
                return (best, k as u64 + 1);
            }
            // A miss reads MAX from the table and saturates: no branch.
            best = best.min(self.table[r as usize].saturating_add(d));
        }
        (best, in_ranks.len() as u64)
    }

    /// AVX2 probe: gather 8 table entries per step, saturating-add the
    /// in-distances, fold with an unsigned min. Misses gather `u32::MAX`
    /// and saturate, so no validity mask is needed. A block containing the
    /// rank cutoff falls back to the scalar loop from the block start, so
    /// the scanned count matches the scalar probe exactly.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn probe_avx2(&self, in_ranks: &[u32], in_dists: &[u32]) -> (u32, u64) {
        use std::arch::x86_64::*;
        debug_assert_eq!(in_ranks.len(), in_dists.len());
        if self.empty {
            return (u32::MAX, 0);
        }
        let sign = _mm256_set1_epi32(i32::MIN);
        let vcut = _mm256_xor_si256(_mm256_set1_epi32(self.max_rank as i32), sign);
        let mut vbest = _mm256_set1_epi32(-1);
        let mut k = 0usize;
        while k + 8 <= in_ranks.len() {
            let vr = _mm256_loadu_si256(in_ranks.as_ptr().add(k) as *const __m256i);
            let over = _mm256_cmpgt_epi32(_mm256_xor_si256(vr, sign), vcut);
            if _mm256_movemask_ps(_mm256_castsi256_ps(over)) != 0 {
                break;
            }
            // SAFETY: every lane passed the cutoff check, and the table is
            // sized to max_rank + 1, so all gather indices are in bounds.
            let vd = _mm256_i32gather_epi32(self.table.as_ptr() as *const i32, vr, 4);
            let vl = _mm256_loadu_si256(in_dists.as_ptr().add(k) as *const __m256i);
            vbest = _mm256_min_epu32(vbest, sat_add_epu32(vd, vl, sign));
            k += 8;
        }
        let mut lanes = [0u32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, vbest);
        let mut best = lanes.into_iter().min().unwrap_or(u32::MAX);
        while k < in_ranks.len() {
            let r = in_ranks[k];
            if r > self.max_rank {
                return (best, k as u64 + 1);
            }
            best = best.min(self.table[r as usize].saturating_add(in_dists[k]));
            k += 1;
        }
        (best, in_ranks.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(or_: &[u32], od: &[u32], ir: &[u32], id_: &[u32]) -> (u32, u64) {
        merge_join_with(Kernel::Scalar, or_, od, ir, id_).unwrap()
    }

    #[test]
    fn scalar_merge_basics() {
        // Disjoint ranks: exits with i=2 (out exhausted), j=1.
        assert_eq!(scalar(&[1, 3], &[1, 1], &[2, 4], &[1, 1]), (u32::MAX, 3));
        // Single shared hub at the end of the out side: i=2, j=1 at exit.
        assert_eq!(scalar(&[1, 3], &[2, 5], &[3, 9], &[4, 1]), (9, 3));
        // Minimum over several hubs.
        assert_eq!(
            scalar(&[0, 1, 2], &[9, 1, 9], &[0, 1, 2], &[9, 1, 9]),
            (2, 6)
        );
        // Empty sides scan nothing.
        assert_eq!(scalar(&[], &[], &[1], &[1]), (u32::MAX, 0));
        assert_eq!(scalar(&[1], &[1], &[], &[]), (u32::MAX, 0));
    }

    #[test]
    fn scalar_merge_saturates() {
        assert_eq!(scalar(&[7], &[u32::MAX - 1], &[7], &[5]), (u32::MAX, 2));
    }

    #[test]
    fn avx2_matches_scalar_on_fixed_shapes() {
        if !Kernel::Avx2.available() {
            return;
        }
        let cases: &[(Vec<u32>, Vec<u32>)] = &[
            (vec![], vec![]),
            (vec![5], vec![2]),
            ((0..40).collect(), (0..40).map(|x| x % 7).collect()),
            ((0..40).map(|x| x * 3).collect(), vec![1; 40]),
            (vec![2, 9, 10, 11, 12, 13, 14, 15, 16, 40], vec![1; 10]),
        ];
        for (or_, od) in cases {
            for (ir, id_) in cases {
                let s = scalar(or_, od, ir, id_);
                let v = merge_join_with(Kernel::Avx2, or_, od, ir, id_).unwrap();
                assert_eq!(s, v, "out={or_:?} in={ir:?}");
            }
        }
    }

    #[test]
    fn batch_probe_matches_merge_join() {
        let (or_, od): (Vec<u32>, Vec<u32>) = ((0..32).map(|x| x * 2).collect(), (0..32).collect());
        let mut scratch = BatchScratch::new();
        assert_eq!(scratch.load_source(&or_, &od), 32);
        let targets: &[(Vec<u32>, Vec<u32>)] = &[
            (vec![], vec![]),
            (vec![4], vec![1]),
            ((0..20).collect(), vec![1; 20]),
            (vec![100, 200], vec![1, 1]), // everything past the cutoff
        ];
        for (ir, id_) in targets {
            let (best, _) = scratch.probe(ir, id_);
            let (want, _) = scalar(&or_, &od, ir, id_);
            assert_eq!(best, want, "in={ir:?}");
            if Kernel::Avx2.available() {
                assert_eq!(
                    scratch.probe_with(Kernel::Avx2, ir, id_).unwrap(),
                    scratch.probe_with(Kernel::Scalar, ir, id_).unwrap(),
                    "in={ir:?}"
                );
            }
        }
    }

    #[test]
    fn batch_probe_cutoff_counts_breaking_entry() {
        let mut scratch = BatchScratch::new();
        scratch.load_source(&[3, 5], &[1, 1]);
        // First in-rank above 5 stops the scan; the entry itself counts.
        let (best, scanned) = scratch.probe(&[3, 6, 7, 8], &[2, 1, 1, 1]);
        assert_eq!(best, 3);
        assert_eq!(scanned, 2);
    }

    #[test]
    fn empty_source_scans_nothing() {
        let mut scratch = BatchScratch::new();
        assert_eq!(scratch.load_source(&[], &[]), 0);
        assert_eq!(scratch.probe(&[1, 2, 3], &[1, 1, 1]), (u32::MAX, 0));
    }

    #[test]
    fn scratch_reload_clears_previous_source() {
        let mut scratch = BatchScratch::new();
        scratch.load_source(&[2, 4], &[1, 1]);
        scratch.load_source(&[3], &[7]);
        // Rank 2 and 4 from the first source must be gone.
        assert_eq!(scratch.probe(&[2], &[1]), (u32::MAX, 1));
        assert_eq!(scratch.probe(&[3], &[1]), (8, 1));
    }

    #[test]
    fn kernel_names_stable() {
        assert_eq!(Kernel::Scalar.as_str(), "scalar");
        assert_eq!(Kernel::Avx2.as_str(), "avx2");
        assert!(Kernel::Scalar.available());
        // Whatever is active must be available.
        assert!(active_kernel().available());
    }
}
