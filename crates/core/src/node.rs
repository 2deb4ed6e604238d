//! Per-node state shared between the driver and the node's application
//! threads.
//!
//! [`NodeCell`] holds everything the instrumented access path needs on its
//! fast path: the node's copy of the shared segment, the per-page
//! protection states, twins, the dirty set and the (optional) memory-system
//! simulator. It is wrapped in a mutex that is never contended, because
//! the cell always has exactly one owner:
//!
//! * **A running application thread holds it for its whole burst.**
//!   [`ThreadCtx`](crate::ThreadCtx) locks the cell when the thread is
//!   resumed and lets go only when it hands the baton back (a blocking
//!   call, or the thread body returning), so a resident access costs no
//!   atomic operation. A parked thread holds nothing.
//! * **The driver takes it between bursts** — in a handler, after
//!   `resume` returned, at report time — through
//!   `DriverCore::cell`, one short critical section at a time.
//! * **Never both.** The baton of [`cvm_sim::coop`] orders the two:
//!   `resume` returns with the burst over. `DriverCore::cell` asserts it
//!   in debug builds. A driver that broke the rule would not race, it
//!   would wait for the burst to end.

use std::collections::BTreeSet;

use cvm_memsim::MemSystem;
use cvm_sim::Log2Hist;

use crate::page::PageState;

/// Retired twin buffers kept for reuse. Steady-state twin churn is
/// create-at-fault / discard-at-invalidate over a small working set, so a
/// handful of pooled pages absorbs nearly all of it; anything beyond the
/// cap is genuinely idle memory and is returned to the allocator.
const TWIN_POOL_CAP: usize = 8;

/// One node's memory-side state.
#[derive(Debug)]
pub struct NodeCell {
    /// Coherence page size.
    pub page_size: usize,
    /// This node's copy of the whole shared segment.
    pub mem: Vec<u8>,
    /// Protection state per page.
    pub state: Vec<PageState>,
    /// Twins of dirty pages (pristine copies for diffing), directly
    /// indexed by page number. A flat page table instead of a hash map:
    /// the twin lookup sits on the per-fault fast path, and the sweep's
    /// page counts are small enough that one `Option` per page is cheap.
    twins: Vec<Option<Vec<u8>>>,
    /// Pages written during the current open interval.
    pub dirty: BTreeSet<usize>,
    /// Virtual nanoseconds consumed by the running thread since the driver
    /// last drained it.
    pub burst_ns: u64,
    /// Result slot for local-barrier reductions.
    pub lb_result: f64,
    /// Result slot for global reductions.
    pub gr_result: f64,
    /// Result slot for virtual-clock reads ([`BlockReason::Now`]
    /// (crate::BlockReason::Now)): the driver writes the node clock here
    /// before resuming the reader.
    pub now_ns: u64,
    /// Request latencies recorded by this node's threads
    /// ([`ThreadCtx::record_request`](crate::ThreadCtx::record_request));
    /// merged into the run report's `request` histogram at snapshot.
    pub req_hist: Log2Hist,
    /// The node's cache/TLB simulator, if enabled.
    pub memsim: Option<MemSystem>,
    /// Twins created (local write faults that copied a page).
    pub twin_creations: u64,
    /// Bytes currently held in live twins.
    pub twin_bytes_live: u64,
    /// High-water mark of `twin_bytes_live` over the run.
    pub twin_bytes_peak: u64,
    /// Retired twin buffers, reused by the next `ensure_twin` so the
    /// fault fast path allocates only when the live twin count grows past
    /// its previous maximum.
    twin_pool: Vec<Vec<u8>>,
    /// When set, the access path appends touched pages to
    /// `step_reads`/`step_writes` (model-checker step recording).
    pub track_steps: bool,
    /// Pages read during the current burst (deduplicated), drained by the
    /// driver alongside the burst time.
    step_reads: Vec<u32>,
    /// Pages written during the current burst (deduplicated).
    step_writes: Vec<u32>,
    /// The page most recently noted in `step_reads` / `step_writes` this
    /// burst: a run of accesses to one page skips the scan.
    last_step_read: Option<usize>,
    last_step_write: Option<usize>,
}

impl NodeCell {
    /// Creates a node with `pages` unmapped pages.
    pub fn new(page_size: usize, pages: usize, memsim: Option<MemSystem>) -> Self {
        NodeCell {
            page_size,
            mem: vec![0; page_size * pages],
            state: vec![PageState::Unmapped; pages],
            twins: vec![None; pages],
            dirty: BTreeSet::new(),
            burst_ns: 0,
            lb_result: 0.0,
            gr_result: 0.0,
            now_ns: 0,
            req_hist: Log2Hist::default(),
            memsim,
            twin_creations: 0,
            twin_bytes_live: 0,
            twin_bytes_peak: 0,
            twin_pool: Vec::new(),
            track_steps: false,
            step_reads: Vec::new(),
            step_writes: Vec::new(),
            last_step_read: None,
            last_step_write: None,
        }
    }

    /// Number of pages.
    pub fn pages(&self) -> usize {
        self.state.len()
    }

    /// Borrow of one page's bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn page_bytes(&self, page: usize) -> &[u8] {
        let b = page * self.page_size;
        &self.mem[b..b + self.page_size]
    }

    /// Mutable borrow of one page's bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn page_bytes_mut(&mut self, page: usize) -> &mut [u8] {
        let b = page * self.page_size;
        &mut self.mem[b..b + self.page_size]
    }

    /// Creates (or keeps) the twin for `page` and marks it dirty. Returns
    /// `true` if a fresh copy was made (for cost accounting).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn ensure_twin(&mut self, page: usize) -> bool {
        self.dirty.insert(page);
        if self.twins[page].is_some() {
            false
        } else {
            let mut buf = self.twin_pool.pop().unwrap_or_default();
            buf.resize(self.page_size, 0);
            let b = page * self.page_size;
            buf.copy_from_slice(&self.mem[b..b + self.page_size]);
            self.twins[page] = Some(buf);
            self.twin_creations += 1;
            self.twin_bytes_live += self.page_size as u64;
            self.twin_bytes_peak = self.twin_bytes_peak.max(self.twin_bytes_live);
            true
        }
    }

    /// The twin of `page`, if one exists.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn twin(&self, page: usize) -> Option<&[u8]> {
        self.twins[page].as_deref()
    }

    /// Mutable access to the twin of `page`, if one exists (the
    /// home-based protocol patches incoming flushes into a concurrent
    /// writer's twin so later diffs cover only the writer's own stores).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn twin_mut(&mut self, page: usize) -> Option<&mut [u8]> {
        self.twins[page].as_deref_mut()
    }

    /// True if `page` currently has a twin.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn has_twin(&self, page: usize) -> bool {
        self.twins[page].is_some()
    }

    /// Replaces (or installs) the twin of `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn set_twin(&mut self, page: usize, data: Vec<u8>) {
        debug_assert_eq!(data.len(), self.page_size, "twin must be page sized");
        if let Some(old) = self.twins[page].replace(data) {
            self.pool_buf(old);
        } else {
            self.twin_bytes_live += self.page_size as u64;
            self.twin_bytes_peak = self.twin_bytes_peak.max(self.twin_bytes_live);
        }
    }

    /// Refreshes the existing twin of `page` in place from the page's
    /// current contents — the zero-allocation form of
    /// `set_twin(page, page_bytes(page).to_vec())` used when an interval
    /// closes but the page stays writable.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range or has no twin.
    pub fn refresh_twin(&mut self, page: usize) {
        let b = page * self.page_size;
        let twin = self.twins[page]
            .as_mut()
            .expect("refresh of a missing twin");
        twin.copy_from_slice(&self.mem[b..b + self.page_size]);
    }

    /// Discards the twin of `page`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn clear_twin(&mut self, page: usize) {
        if let Some(old) = self.twins[page].take() {
            self.twin_bytes_live -= self.page_size as u64;
            self.pool_buf(old);
        }
    }

    /// Discards every twin (startup reset).
    pub fn clear_twins(&mut self) {
        for p in 0..self.twins.len() {
            self.clear_twin(p);
        }
    }

    /// Resets the twin high-water mark to the current live level (startup
    /// reset: warm-up twins must not count toward the measured peak).
    pub fn reset_mem_peaks(&mut self) {
        self.twin_bytes_peak = self.twin_bytes_live;
    }

    fn pool_buf(&mut self, buf: Vec<u8>) {
        if self.twin_pool.len() < TWIN_POOL_CAP {
            self.twin_pool.push(buf);
        }
    }

    /// Drains the dirty set (at interval close), write-protecting the pages
    /// so later writes start a new notice.
    pub fn close_dirty(&mut self) -> Vec<usize> {
        let pages: Vec<usize> = std::mem::take(&mut self.dirty).into_iter().collect();
        for &p in &pages {
            if self.state[p] == PageState::ReadWrite {
                self.state[p] = PageState::ReadOnly;
            }
        }
        pages
    }

    /// Takes the accumulated burst time.
    pub fn drain_burst(&mut self) -> u64 {
        std::mem::take(&mut self.burst_ns)
    }

    /// Records a shared read of `page` into the current burst footprint
    /// (only meaningful while `track_steps` is set).
    pub fn note_step_read(&mut self, page: usize) {
        if self.last_step_read != Some(page) {
            self.last_step_read = Some(page);
            note_page(&mut self.step_reads, page);
        }
    }

    /// Records a shared write of `page` into the current burst footprint.
    pub fn note_step_write(&mut self, page: usize) {
        if self.last_step_write != Some(page) {
            self.last_step_write = Some(page);
            note_page(&mut self.step_writes, page);
        }
    }

    /// Takes the burst's `(reads, writes)` page footprint.
    pub fn drain_step_pages(&mut self) -> (Vec<u32>, Vec<u32>) {
        self.last_step_read = None;
        self.last_step_write = None;
        (
            std::mem::take(&mut self.step_reads),
            std::mem::take(&mut self.step_writes),
        )
    }
}

/// Appends `page` to a burst footprint unless already there (first-touch
/// order, which the step log records).
fn note_page(pages: &mut Vec<u32>, page: usize) {
    let p = u32::try_from(page).expect("page index fits u32");
    if !pages.contains(&p) {
        pages.push(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twin_is_snapshot() {
        let mut c = NodeCell::new(64, 2, None);
        c.mem[10] = 7;
        assert!(c.ensure_twin(0));
        c.mem[10] = 9;
        assert_eq!(c.twin(0).expect("twin exists")[10], 7);
        assert!(!c.ensure_twin(0), "second call reuses the twin");
        assert_eq!(c.twin_creations, 1);
        c.clear_twin(0);
        assert!(!c.has_twin(0));
    }

    #[test]
    fn close_dirty_write_protects() {
        let mut c = NodeCell::new(64, 3, None);
        c.state[1] = PageState::ReadWrite;
        c.ensure_twin(1);
        let closed = c.close_dirty();
        assert_eq!(closed, vec![1]);
        assert_eq!(c.state[1], PageState::ReadOnly);
        assert!(c.dirty.is_empty());
        assert!(c.has_twin(1), "twin survives the close");
    }

    #[test]
    fn burst_drain_resets() {
        let mut c = NodeCell::new(64, 1, None);
        c.burst_ns = 500;
        assert_eq!(c.drain_burst(), 500);
        assert_eq!(c.drain_burst(), 0);
    }

    #[test]
    fn twin_accounting_tracks_live_and_peak() {
        let mut c = NodeCell::new(64, 4, None);
        c.ensure_twin(0);
        c.ensure_twin(1);
        assert_eq!(c.twin_bytes_live, 128);
        assert_eq!(c.twin_bytes_peak, 128);
        c.clear_twin(0);
        assert_eq!(c.twin_bytes_live, 64);
        assert_eq!(c.twin_bytes_peak, 128, "peak survives the drop");
        c.set_twin(3, vec![0; 64]);
        assert_eq!(c.twin_bytes_live, 128);
        c.set_twin(3, vec![1; 64]);
        assert_eq!(c.twin_bytes_live, 128, "replace is live-neutral");
        c.reset_mem_peaks();
        assert_eq!(c.twin_bytes_peak, 128);
        c.clear_twins();
        assert_eq!(c.twin_bytes_live, 0);
    }

    #[test]
    fn retired_twin_buffers_are_pooled_and_reused() {
        let mut c = NodeCell::new(64, 2, None);
        c.mem[0] = 0xCC;
        c.ensure_twin(0);
        c.clear_twin(0);
        assert_eq!(c.twin_pool.len(), 1);
        c.mem[0] = 0xDD;
        c.ensure_twin(0);
        assert_eq!(c.twin_pool.len(), 0, "pooled buffer was reused");
        assert_eq!(
            c.twin(0).expect("twin exists")[0],
            0xDD,
            "reused buffer holds the fresh snapshot, not stale bytes"
        );
    }

    #[test]
    fn refresh_twin_snapshots_current_contents() {
        let mut c = NodeCell::new(64, 1, None);
        c.ensure_twin(0);
        c.mem[5] = 42;
        c.refresh_twin(0);
        assert_eq!(c.twin(0).expect("twin exists")[5], 42);
        assert_eq!(c.twin_bytes_live, 64);
    }

    #[test]
    fn step_footprint_is_first_touch_order_without_repeats() {
        let mut c = NodeCell::new(64, 4, None);
        for p in [2, 2, 0, 2, 2, 3, 0] {
            c.note_step_read(p);
        }
        c.note_step_write(1);
        c.note_step_write(1);
        assert_eq!(c.drain_step_pages(), (vec![2, 0, 3], vec![1]));
        // The next burst starts clean: the page last noted is noted again.
        c.note_step_read(0);
        c.note_step_write(1);
        assert_eq!(c.drain_step_pages(), (vec![0], vec![1]));
    }

    #[test]
    fn page_slices_are_disjoint_views() {
        let mut c = NodeCell::new(64, 2, None);
        c.page_bytes_mut(1)[0] = 0xAA;
        assert_eq!(c.page_bytes(0)[0], 0);
        assert_eq!(c.page_bytes(1)[0], 0xAA);
    }
}
