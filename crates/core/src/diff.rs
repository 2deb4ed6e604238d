//! Word-granularity diffs — the heart of the multiple-writer protocol.
//!
//! When a node first writes a read-only page, the fault handler saves a
//! *twin* (a pristine copy). When another node later needs the
//! modifications, a *diff* is created by a page-length comparison between
//! the current contents and the twin, and shipped instead of the whole
//! page. Concurrent diffs from different writers only overlap if the same
//! location was written without synchronization — a data race — so applying
//! them in timestamp order merges all modifications.

use std::fmt;
use std::sync::Arc;

use crate::page::PageId;

/// Comparison granularity: one 8-byte word, matching the paper's systems.
pub const DIFF_WORD: usize = 8;

/// Fast-path comparison granularity of [`Diff::create`]: four words
/// compared as one block (two 16-byte vector loads on current targets).
const WIDE_BLOCK: usize = 4 * DIFF_WORD;

/// A run of modified bytes within one page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRun {
    /// Byte offset within the page (word aligned).
    pub offset: usize,
    /// The new bytes.
    pub data: Vec<u8>,
}

/// A summary of one writer's modifications to one page.
///
/// # Example
///
/// ```
/// use cvm_dsm::Diff;
/// use cvm_dsm::page::PageId;
///
/// let twin = vec![0u8; 64];
/// let mut cur = twin.clone();
/// cur[8] = 0xAB;
/// let d = Diff::create(PageId(0), &twin, &cur);
/// assert!(!d.is_empty());
/// let mut other = vec![0u8; 64];
/// d.apply(&mut other);
/// assert_eq!(other, cur);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diff {
    /// The page this diff summarizes.
    pub page: PageId,
    /// Modified runs in ascending offset order, shared by reference:
    /// a diff flows from the writer's cache into reply payloads and
    /// sometimes several concurrent fetches, and every hop used to deep-
    /// copy the run data. Cloning is now a reference-count bump — the
    /// bytes are written exactly once, at creation.
    pub runs: Arc<[DiffRun]>,
}

impl Diff {
    /// Creates a diff by comparing `twin` (pristine) against `current`,
    /// word by word, coalescing adjacent modified words into runs.
    ///
    /// # Panics
    ///
    /// Panics if the buffers differ in length or are not word-multiples.
    pub fn create(page: PageId, twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), current.len(), "twin/current size mismatch");
        assert!(
            twin.len().is_multiple_of(DIFF_WORD),
            "page not word aligned"
        );
        let mut runs: Vec<DiffRun> = Vec::new();
        let mut open: Option<DiffRun> = None;
        // Fast path: compare four words at a time. Most of any page is
        // unmodified, so the common case is an equal 32-byte block — one
        // wide compare instead of four word compares — and only unequal
        // blocks fall into the word-level scan. An equal block closes any
        // open run exactly like four equal words would, so the produced
        // runs are identical to a pure word-by-word pass.
        let wide_end = twin.len() / WIDE_BLOCK * WIDE_BLOCK;
        let mut off = 0;
        while off < wide_end {
            if twin[off..off + WIDE_BLOCK] == current[off..off + WIDE_BLOCK] {
                if let Some(run) = open.take() {
                    runs.push(run);
                }
            } else {
                scan_words(
                    &mut runs,
                    &mut open,
                    &twin[off..off + WIDE_BLOCK],
                    &current[off..off + WIDE_BLOCK],
                    off,
                );
            }
            off += WIDE_BLOCK;
        }
        // Word-multiple tail shorter than one wide block.
        if off < twin.len() {
            scan_words(&mut runs, &mut open, &twin[off..], &current[off..], off);
        }
        if let Some(run) = open {
            runs.push(run);
        }
        Diff {
            page,
            runs: runs.into(),
        }
    }

    /// Applies the diff to a page buffer.
    ///
    /// # Panics
    ///
    /// Panics if any run exceeds the buffer.
    pub fn apply(&self, page: &mut [u8]) {
        for run in self.runs.iter() {
            page[run.offset..run.offset + run.data.len()].copy_from_slice(&run.data);
        }
    }

    /// True if no words differed.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total modified bytes.
    pub fn modified_bytes(&self) -> usize {
        self.runs.iter().map(|r| r.data.len()).sum()
    }

    /// Modelled wire size: runs plus a small header each.
    pub fn wire_bytes(&self) -> usize {
        16 + self.runs.iter().map(|r| 8 + r.data.len()).sum::<usize>()
    }

    /// Number of 8-byte words compared to create a diff of a page of
    /// `page_size` bytes (for time charging).
    pub fn words_compared(page_size: usize) -> usize {
        page_size / DIFF_WORD
    }

    /// Number of words this diff writes when applied.
    pub fn words_applied(&self) -> usize {
        self.modified_bytes() / DIFF_WORD
    }

    /// The word-index range of each run, ascending and disjoint (runs
    /// are word aligned and sorted by offset).
    pub fn word_runs(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.runs.iter().map(|r| {
            let w0 = r.offset / DIFF_WORD;
            w0..w0 + r.data.len() / DIFF_WORD
        })
    }

    /// True if two diffs of the same page touch a common word — for
    /// race-free programs concurrent diffs never overlap.
    pub fn overlaps(&self, other: &Diff) -> bool {
        if self.page != other.page {
            return false;
        }
        for a in self.runs.iter() {
            let (a0, a1) = (a.offset, a.offset + a.data.len());
            for b in other.runs.iter() {
                let (b0, b1) = (b.offset, b.offset + b.data.len());
                if a0 < b1 && b0 < a1 {
                    return true;
                }
            }
        }
        false
    }
}

/// Word-level scan of one sub-range starting at byte offset `base`,
/// continuing the open-run state machine shared with [`Diff::create`].
fn scan_words(
    runs: &mut Vec<DiffRun>,
    open: &mut Option<DiffRun>,
    twin: &[u8],
    current: &[u8],
    base: usize,
) {
    let words = twin
        .chunks_exact(DIFF_WORD)
        .zip(current.chunks_exact(DIFF_WORD));
    for (w, (t, c)) in words.enumerate() {
        if t != c {
            match open {
                Some(run) => run.data.extend_from_slice(c),
                None => {
                    *open = Some(DiffRun {
                        offset: base + w * DIFF_WORD,
                        data: c.to_vec(),
                    });
                }
            }
        } else if let Some(run) = open.take() {
            runs.push(run);
        }
    }
}

impl fmt::Display for Diff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "diff[{} runs, {} bytes on {}]",
            self.runs.len(),
            self.modified_bytes(),
            self.page
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_of(b: u8, n: usize) -> Vec<u8> {
        vec![b; n]
    }

    #[test]
    fn empty_diff_for_identical_pages() {
        let twin = page_of(7, 128);
        let d = Diff::create(PageId(0), &twin, &twin);
        assert!(d.is_empty());
        assert_eq!(d.modified_bytes(), 0);
    }

    #[test]
    fn single_word_change() {
        let twin = page_of(0, 128);
        let mut cur = twin.clone();
        cur[40] = 1;
        let d = Diff::create(PageId(0), &twin, &cur);
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].offset, 40);
        assert_eq!(d.runs[0].data.len(), DIFF_WORD);
    }

    #[test]
    fn adjacent_words_coalesce() {
        let twin = page_of(0, 128);
        let mut cur = twin.clone();
        cur[16] = 1;
        cur[24] = 2; // next word
        cur[48] = 3; // separate run
        let d = Diff::create(PageId(0), &twin, &cur);
        assert_eq!(d.runs.len(), 2);
        assert_eq!(d.runs[0].offset, 16);
        assert_eq!(d.runs[0].data.len(), 16);
        assert_eq!(d.runs[1].offset, 48);
    }

    #[test]
    fn apply_reconstructs_current() {
        let twin = page_of(9, 256);
        let mut cur = twin.clone();
        for i in (0..256).step_by(24) {
            cur[i] = cur[i].wrapping_add(i as u8 + 1);
        }
        let d = Diff::create(PageId(1), &twin, &cur);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        assert_eq!(rebuilt, cur);
    }

    #[test]
    fn run_ending_at_page_end() {
        let twin = page_of(0, 64);
        let mut cur = twin.clone();
        cur[56] = 5; // last word
        let d = Diff::create(PageId(0), &twin, &cur);
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].offset, 56);
    }

    #[test]
    fn disjoint_diffs_do_not_overlap() {
        let twin = page_of(0, 128);
        let mut a = twin.clone();
        let mut b = twin.clone();
        a[0] = 1;
        b[64] = 1;
        let da = Diff::create(PageId(0), &twin, &a);
        let db = Diff::create(PageId(0), &twin, &b);
        assert!(!da.overlaps(&db));
        // Applying both in either order yields the union.
        let mut m1 = twin.clone();
        da.apply(&mut m1);
        db.apply(&mut m1);
        let mut m2 = twin.clone();
        db.apply(&mut m2);
        da.apply(&mut m2);
        assert_eq!(m1, m2);
        assert_eq!(m1[0], 1);
        assert_eq!(m1[64], 1);
    }

    #[test]
    fn racing_diffs_overlap() {
        let twin = page_of(0, 64);
        let mut a = twin.clone();
        let mut b = twin.clone();
        a[8] = 1;
        b[8] = 2;
        let da = Diff::create(PageId(0), &twin, &a);
        let db = Diff::create(PageId(0), &twin, &b);
        assert!(da.overlaps(&db));
    }

    #[test]
    fn wire_bytes_tracks_content() {
        let twin = page_of(0, 8192);
        let mut cur = twin.clone();
        cur[0] = 1;
        let small = Diff::create(PageId(0), &twin, &cur);
        for i in (0..8192).step_by(8) {
            cur[i] = 0xFF;
        }
        let big = Diff::create(PageId(0), &twin, &cur);
        assert!(big.wire_bytes() > small.wire_bytes());
        assert!(big.wire_bytes() >= 8192);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_buffers_panic() {
        let _ = Diff::create(PageId(0), &[0; 8], &[0; 16]);
    }

    /// The reference semantics `create` must match: one open-run state
    /// machine over individual words, no wide blocks.
    fn create_word_by_word(page: PageId, twin: &[u8], current: &[u8]) -> Diff {
        let mut runs: Vec<DiffRun> = Vec::new();
        let mut open: Option<DiffRun> = None;
        let words = twin
            .chunks_exact(DIFF_WORD)
            .zip(current.chunks_exact(DIFF_WORD));
        for (w, (t, c)) in words.enumerate() {
            if t != c {
                match &mut open {
                    Some(run) => run.data.extend_from_slice(c),
                    None => {
                        open = Some(DiffRun {
                            offset: w * DIFF_WORD,
                            data: c.to_vec(),
                        });
                    }
                }
            } else if let Some(run) = open.take() {
                runs.push(run);
            }
        }
        if let Some(run) = open {
            runs.push(run);
        }
        Diff {
            page,
            runs: runs.into(),
        }
    }

    #[test]
    fn wide_create_matches_word_reference() {
        let mut rng = cvm_sim::SimRng::seed_from(0xD1FF);
        // Sizes chosen to hit every path: block-multiple, word tail of
        // 1–3 words, and buffers shorter than one wide block.
        for &len in &[8usize, 16, 24, 32, 64, 96, 104, 120, 4096] {
            for density in [0u64, 1, 4, 16, 64] {
                let twin: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                let mut cur = twin.clone();
                for _ in 0..density {
                    let i = rng.below(len as u64) as usize;
                    cur[i] = cur[i].wrapping_add(1 + rng.below(255) as u8);
                }
                let wide = Diff::create(PageId(3), &twin, &cur);
                let naive = create_word_by_word(PageId(3), &twin, &cur);
                assert_eq!(wide, naive, "len={len} density={density}");
                let mut rebuilt = twin.clone();
                wide.apply(&mut rebuilt);
                assert_eq!(rebuilt, cur);
            }
        }
    }
}
